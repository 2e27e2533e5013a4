"""Shift equivalence and strong shift equivalence: witnesses, checks, searches.

An elementary strong shift equivalence (ESSE) from a to b is a pair of
nonnegative integer matrices with a = R S and b = S R.  Chains of such pairs
witness strong shift equivalence; a shift equivalence of lag l is (R, S) with

    a^l = R S,   b^l = S R,   a R = R b,   S a = b S.

Searches here are bounded and sound: any returned witness has been verified,
and a miss is reported as "not found within the bounds", never as a proof of
inequivalence.  An ESSE is a lag-1 shift equivalence (a R = R S R = R b and
S a = S R S = b S), so `search_esse` is the lag-1 run of the one witness loop
that `search_se` runs over lags 1..lag_max.

The loop runs on ints.  Both intertwiner bases are scaled to primitive
integer matrices once per search, and a candidate R stays the int tuple
the scan yields.  `_partner_solutions` writes the columns vec(R S_k) and
vec(S_k R) of its system with `linalg._product`, the kernel of `Matrix`
products, keeping each repeated equation once; only a pair handed out is
built as a `Matrix`.  `verify_se` at lag 1 is `verify_esse`; from lag 2
on, residues `pow(a, l, _PRIME)` screen the power identities before a^l
is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidMatrix, InvalidWitness, ShapeError
from .graphs import _int_rows
from .invariants import bowen_franks, char_poly_away_from_zero
from .linalg import (
    AffineInfeasible,
    AffineSolution,
    Matrix,
    Vector,
    _combine,
    _flat,
    _product,
    _reshape,
    integer_points,
    intertwiner_space,
    solve_affine_exact,
    vector,
)
from .polynomials import _coprime, _integral


@dataclass(frozen=True)
class SSEWitness:
    """Elementary strong shift equivalence pair (a = R S, b = S R)."""

    r: Matrix
    s: Matrix


@dataclass(frozen=True)
class SEWitness:
    """Shift equivalence witness of lag l >= 1."""

    r: Matrix
    s: Matrix
    lag: int


@dataclass(frozen=True)
class ChainLink:
    """One step of an SSE chain: the next matrix and the witness reaching it."""

    matrix: Matrix
    witness: SSEWitness


@dataclass(frozen=True)
class ChainWitness:
    links: tuple[ChainLink, ...]


def _check_pair_shapes(a: Matrix, b: Matrix, r: Matrix, s: Matrix) -> None:
    for m in (a, b):
        if not m.is_square:
            raise ShapeError("equivalence checks need square matrices")
    if r.shape() != (a.nrows, b.nrows) or s.shape() != (b.nrows, a.nrows):
        raise InvalidWitness(
            f"witness shapes {r.shape()}/{s.shape()} do not link "
            f"{a.nrows}x{a.nrows} to {b.nrows}x{b.nrows}"
        )
    for m in (r, s):
        if not m.is_integral() or not m.is_nonnegative():
            raise InvalidWitness("witness matrices must be nonnegative and integral")


def verify_esse(a: Matrix, b: Matrix, w: SSEWitness) -> bool:
    """Check a == R S and b == S R."""
    _check_pair_shapes(a, b, w.r, w.s)
    return w.r @ w.s == a and w.s @ w.r == b


def verify_chain(a: Matrix, b: Matrix, chain: ChainWitness) -> bool:
    """Check every link of an SSE chain and that it connects a to b."""
    cur = a
    for link in chain.links:
        if not verify_esse(cur, link.matrix, link.witness):
            return False
        cur = link.matrix
    return cur == b


_PRIME = (1 << 61) - 1  # a Mersenne prime


def verify_se(a: Matrix, b: Matrix, w: SEWitness) -> bool:
    """Check all four lag-l shift equivalence identities.

    At lag 1 this is `verify_esse`: a = R S and b = S R already give
    a R = R S R = R b and S a = S R S = b S.  For integer a and b at lag 2
    or more, residues modulo a prime (`pow(a, l, _PRIME)`, reduced after
    every product) reject a wrong power identity without forming a^l, whose
    entries grow linearly in l; the exact powers are formed only when the
    residues agree.
    """
    if w.lag < 1:
        raise InvalidWitness("lag must be at least 1")
    if w.lag == 1:
        return verify_esse(a, b, SSEWitness(w.r, w.s))
    _check_pair_shapes(a, b, w.r, w.s)
    if a @ w.r != w.r @ b or w.s @ a != b @ w.s:
        return False
    rs, sr = w.r @ w.s, w.s @ w.r
    # pow(m, 1, p) is m with its entries reduced modulo p
    if a.is_integral() and b.is_integral() and (
        pow(rs, 1, _PRIME) != pow(a, w.lag, _PRIME) or pow(sr, 1, _PRIME) != pow(b, w.lag, _PRIME)
    ):
        return False
    return rs == a**w.lag and sr == b**w.lag


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


# Integer points of one partner solution space scanned per candidate R before
# the candidate is given up (a bound of the searches, not a parameter).
PARTNER_SCAN_BUDGET = 5000


def _prefilters_pass(a: Matrix, b: Matrix) -> bool:
    """Cheap necessary conditions shared by SE and SSE; False means no witness exists."""
    if char_poly_away_from_zero(a) != char_poly_away_from_zero(b):
        return False
    return bowen_franks(a) == bowen_franks(b)


def _integer_basis(a: Matrix, b: Matrix) -> list[list[int]]:
    """Basis of {U : U a = b U} from intertwiner_space(a, b), all int.

    Each basis matrix is replaced by the row-major entries of its primitive
    integer multiple.  That keeps the span, and so every solution set built
    on it, while the products and eliminations that use it run on ints.
    """
    return [_coprime(_integral(_flat(u))) for u in intertwiner_space(a, b)]


def _partner_solutions(
    partner: Sequence[Sequence[int]], r: Sequence[int], al: Matrix, bl: Matrix
) -> AffineSolution | None:
    """All S with S a = b S, R S = a^l and S R = b^l, as flat row-major vectors.

    partner is `_integer_basis(a, b)`, the basis S_1..S_d of {S : S a = b S}
    with int entries, r holds R row-major, and al, bl are a^l, b^l.  With
    S = c_1 S_1 + ... + c_d S_d the other two conditions are one system in
    the d unknowns c, whose column k is vec(R S_k) above vec(S_k R), each
    entry an int dot product of a row and a column.  The basis is linearly
    independent, so the solution set of that system mapped back through it
    is exactly the set of S meeting all three conditions.  None means there
    is no such S.
    """
    n, m = al.nrows, bl.nrows
    r_rows = [r[i * m : (i + 1) * m] for i in range(n)]
    r_cols = list(zip(*r_rows))
    columns = []
    for s in partner:
        s_rows = [s[k * n : (k + 1) * n] for k in range(m)]
        columns.append(_product(r_rows, list(zip(*s_rows))) + _product(s_rows, r_cols))
    # an equation that repeats is one equation: each row of [A | rhs] once
    aug = list(dict.fromkeys(zip(*columns, _flat(al) + _flat(bl))))
    res = solve_affine_exact(Matrix.from_rows(row[:-1] for row in aug), [row[-1] for row in aug])
    if isinstance(res, AffineInfeasible):
        return None

    def lift(c: Vector) -> Vector:
        return vector(_combine([0] * (m * n), c, partner))

    return AffineSolution(lift(res.particular), tuple(lift(v) for v in res.basis))


def _solve_for_partner(
    partner: Sequence[Sequence[int]], r: Sequence[int], al: Matrix, bl: Matrix, entry_bound: int
) -> Matrix | None:
    """Find nonnegative integer S with S a = b S, R S = a^l, S R = b^l, if any.

    The integer points of `_partner_solutions` are scanned in the box
    [0, max(entry_bound, entries of a^l and b^l)], at most
    PARTNER_SCAN_BUDGET of them.
    """
    sol = _partner_solutions(partner, r, al, bl)
    if sol is None:
        return None
    box_hi = max([entry_bound, *_flat(al), *_flat(bl)])
    points = integer_points(sol.particular, sol.basis, 0, box_hi, budget=PARTNER_SCAN_BUDGET)
    return next((_reshape(f, bl.nrows, al.nrows) for f in points), None)


def _witnesses(
    a: Matrix, b: Matrix, lag_max: int, entry_bound: int, candidate_budget: int
) -> Iterator[SEWitness]:
    """The witness loop: candidate (R, S, l) for lags 1..lag_max, to be verified.

    Candidates R are the integer points of the rational intertwiner space
    {R : a R = R b} with entries in [0, entry_bound], at most
    candidate_budget per lag; for each one, the partner S is solved for
    exactly in the partner space {S : S a = b S}, whose basis is computed
    once per call.  Both bases are scaled to ints (`_integer_basis`), and a
    candidate stays the flat int tuple the scan yields: a `Matrix` is built
    only for a pair that is handed out.  Lags ascend and candidates are
    lexicographic, so the first witness to verify is deterministic.
    """
    # {R : a R = R b} is the intertwiner space with the roles swapped
    space = _integer_basis(b, a)
    partner = _integer_basis(a, b)
    origin = (0,) * (a.nrows * b.nrows)
    al, bl = a, b
    for lag in range(1, lag_max + 1):
        if lag > 1:
            al, bl = al @ a, bl @ b
        for flat in integer_points(origin, space, 0, entry_bound, budget=candidate_budget):
            if not any(flat):
                continue
            s = _solve_for_partner(partner, flat, al, bl, entry_bound)
            if s is not None:
                yield SEWitness(_reshape(flat, a.nrows, b.nrows), s, lag)


def search_se(
    a: Matrix,
    b: Matrix,
    lag_max: int = 1,
    entry_bound: int = 3,
    candidate_budget: int = 200_000,
) -> SEWitness | None:
    """Bounded search for a shift equivalence witness; None means not found.

    Runs the witness loop (`_witnesses`) over lags 1..lag_max after the SE
    invariant prefilters.  The first verified witness (lags ascending,
    candidates lexicographic) is returned, so the search is deterministic
    and complete within its bounds up to two budgets: at most
    candidate_budget candidates R per lag, and at most PARTNER_SCAN_BUDGET
    (5000) integer points scanned for the partner of each R.
    """
    if not _prefilters_pass(a, b):
        return None
    found = _witnesses(a, b, lag_max, entry_bound, candidate_budget)
    return next((w for w in found if verify_se(a, b, w)), None)


def search_esse(
    a: Matrix,
    b: Matrix,
    inner_dim_max: int = 4,
    entry_bound: int = 3,
    candidate_budget: int = 200_000,
) -> SSEWitness | None:
    """Bounded search for an elementary SSE pair a = R S, b = S R.

    An elementary SSE is exactly a lag-1 shift equivalence: a = R S and
    b = S R give a R = R S R = R b and S a = S R S = b S.  So after its own
    guards this runs the witness loop of `search_se` with lag 1 only, and
    the same budgets.  The inner dimension of the factorization is forced by
    b (R is n x m), so inner_dim_max acts as a refusal bound on the size of
    b, and equal traces are a further necessary condition.
    """
    if not a.is_square or not b.is_square:
        raise ShapeError("search needs square matrices")
    if b.nrows > inner_dim_max:
        return None
    if a.trace() != b.trace() or not _prefilters_pass(a, b):
        return None
    found = (SSEWitness(w.r, w.s) for w in _witnesses(a, b, 1, entry_bound, candidate_budget))
    return next((w for w in found if verify_esse(a, b, w)), None)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _matrix_from_json(rows) -> Matrix:
    try:
        return Matrix.from_rows(_int_rows(rows))
    except InvalidMatrix as exc:
        raise InvalidWitness(f"malformed witness matrix: {exc}") from exc


def sse_witness_to_json(w: SSEWitness) -> dict:
    return {"R": w.r.to_int_rows(), "S": w.s.to_int_rows()}


def sse_witness_from_json(obj) -> SSEWitness:
    try:
        return SSEWitness(_matrix_from_json(obj["R"]), _matrix_from_json(obj["S"]))
    except (KeyError, TypeError) as exc:
        raise InvalidWitness(f"malformed SSE witness: {exc}") from exc


def se_witness_to_json(w: SEWitness) -> dict:
    return {"R": w.r.to_int_rows(), "S": w.s.to_int_rows(), "l": w.lag}


def se_witness_from_json(obj) -> SEWitness:
    try:
        r, s, lag = _matrix_from_json(obj["R"]), _matrix_from_json(obj["S"]), obj["l"]
    except (KeyError, TypeError) as exc:
        raise InvalidWitness(f"malformed SE witness: {exc}") from exc
    if isinstance(lag, bool) or not isinstance(lag, int):
        raise InvalidWitness(f"SE lag must be an integer, got {lag!r}")
    return SEWitness(r, s, lag)


def chain_to_json(chain: ChainWitness) -> dict:
    return {
        "links": [
            {
                "matrix": link.matrix.to_int_rows(),
                "witness": sse_witness_to_json(link.witness),
            }
            for link in chain.links
        ]
    }


def chain_from_json(obj) -> ChainWitness:
    try:
        links = tuple(
            ChainLink(
                _matrix_from_json(entry["matrix"]),
                sse_witness_from_json(entry["witness"]),
            )
            for entry in obj["links"]
        )
    except (KeyError, TypeError) as exc:
        raise InvalidWitness(f"malformed chain: {exc}") from exc
    return ChainWitness(links)
