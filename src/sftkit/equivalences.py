"""Shift equivalence and strong shift equivalence: witnesses, checks, searches.

An elementary strong shift equivalence (ESSE) from a to b is a pair of
nonnegative integer matrices with a = R S and b = S R.  Chains of such pairs
witness strong shift equivalence; a shift equivalence of lag l is (R, S) with

    a^l = R S,   b^l = S R,   a R = R b,   S a = b S.

Searches here are bounded and sound: any returned witness has been verified,
and a miss within the bounds is never a proof of inequivalence; only a
prefilter difference is, and `_witness_verdict`, the answer of the search
just run on a pair, reports it as one.  An ESSE is a lag-1 shift
equivalence (a R = R S R = R b and S a = S R S = b S), so `search_esse` is
`search_se` at lag 1 behind a refusal bound on the size of b, and each
witness either returns is checked once, by `verify_se`.

`search_se` reads one record per ordered pair (a, b), `_Pair`, built once
per pair: the prefilter verdict (the characteristic polynomial away from
zero and the Bowen-Franks group, from one check and one amalgamation of
each matrix), both intertwiner bases, and the first verified witness of
each (lag, entry_bound, candidate_budget) asked so far.  The record lives
in a memo of exactly one pair, so `search_se` and `search_esse` asked of
the same pair back to back share the prefilters, the bases and the lag-1
run, and nothing carries across an intervening pair.  An exception is
never recorded: bad input raises on every call.

The loop runs on ints.  Both intertwiner bases are scaled to primitive
integer matrices once per pair, and a candidate R stays the int tuple
the scan yields.  `_partner_solutions` writes the columns vec(R S_k) and
vec(S_k R) of its system with `linalg._product`, the kernel of `Matrix`
products, keeping each repeated equation once; only a pair handed out is
built as a `Matrix`.  `verify_se` at lag 1 is `verify_esse`; from lag 2
on, residues `pow(a, l, _PRIME)` screen the power identities before a^l
is formed.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._frozen import Frozen
from .errors import InvalidMatrix, InvalidWitness, ShapeError
from .graphs import _int_rows
from .invariants import _first_difference
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


class SSEWitness(Frozen):
    """Elementary strong shift equivalence pair (a = R S, b = S R)."""

    r: Matrix
    s: Matrix


class SEWitness(Frozen):
    """Shift equivalence witness of lag l >= 1."""

    r: Matrix
    s: Matrix
    lag: int


class ChainLink(Frozen):
    """One step of an SSE chain: the next matrix and the witness reaching it."""

    matrix: Matrix
    witness: SSEWitness


class ChainWitness(Frozen):
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


class _Pair:
    """What the searches learn about one ordered pair (a, b).

    `differs` is the prefilter verdict, `invariants._first_difference(a, b)`:
    None, or the first invariant that differs with both values in their
    `invariants --json` form.  When it is None, `space` and `partner` are
    the int bases (`_integer_basis`) of {R : a R = R b} and
    {S : S a = b S}, and `found` maps each (lag, entry_bound,
    candidate_budget) asked so far to the first verified witness of that
    lag, or None.
    """

    __slots__ = ("a", "b", "differs", "space", "partner", "found")

    def __init__(self, a: Matrix, b: Matrix) -> None:
        self.a, self.b = a, b
        self.differs = _first_difference(a, b)
        if self.differs is None:
            # {R : a R = R b} is the intertwiner space with the roles swapped
            self.space, self.partner = _integer_basis(b, a), _integer_basis(a, b)
        self.found: dict[tuple[int, int, int], SEWitness | None] = {}

    def witness(self, lag: int, entry_bound: int, candidate_budget: int) -> SEWitness | None:
        """The first verified lag-`lag` witness within the bounds; the prefilters must pass."""
        key = (lag, entry_bound, candidate_budget)
        if key not in self.found:
            self.found[key] = self._first_witness(*key)
        return self.found[key]

    def _first_witness(self, lag: int, entry_bound: int, candidate_budget: int) -> SEWitness | None:
        """The witness loop at one lag.

        Candidates R are the integer points of {R : a R = R b} with entries
        in [0, entry_bound], at most candidate_budget of them, in
        lexicographic order; for each one the partner S is solved for
        exactly (`_solve_for_partner`).  A candidate stays the flat int
        tuple the scan yields: a `Matrix` is built only for a pair that
        is checked.
        """
        a, b = self.a, self.b
        al, bl = (a, b) if lag == 1 else (a**lag, b**lag)
        origin = (0,) * (a.nrows * b.nrows)
        for flat in integer_points(origin, self.space, 0, entry_bound, budget=candidate_budget):
            if not any(flat):
                continue
            s = _solve_for_partner(self.partner, flat, al, bl, entry_bound)
            if s is not None:
                w = SEWitness(_reshape(flat, a.nrows, b.nrows), s, lag)
                if verify_se(a, b, w):
                    return w
        return None


# The one-pair memo: the record of the last pair a search read, and nothing
# else.  Its only reuse is a pair asked again before any other, as when both
# searches are asked of one pair back to back; a second pair would carry
# answers across unrelated questions.
_memo: dict[tuple[Matrix, Matrix], _Pair] = {}


def _pair(a: Matrix, b: Matrix) -> _Pair:
    """The record of (a, b): the memo's if it holds that pair, else a new one that replaces it."""
    rec = _memo.get((a, b))
    if rec is None:
        _memo.clear()
        rec = _memo[a, b] = _Pair(a, b)
    return rec


def search_se(
    a: Matrix,
    b: Matrix,
    lag_max: int = 1,
    entry_bound: int = 3,
    candidate_budget: int = 200_000,
) -> SEWitness | None:
    """Bounded search for a shift equivalence witness; None means not found.

    Reads the pair's record (`_pair`): None if the SE invariant prefilters
    differ, else its first verified witness for lags 1..lag_max in turn.
    Lags ascend and candidates are lexicographic, so the search is
    deterministic and complete within its bounds up to two budgets: at
    most candidate_budget candidates R per lag, and at most
    PARTNER_SCAN_BUDGET (5000) integer points scanned for the partner of
    each R.
    """
    rec = _pair(a, b)
    if rec.differs is not None:
        return None
    for lag in range(1, lag_max + 1):
        w = rec.witness(lag, entry_bound, candidate_budget)
        if w is not None:
            return w
    return None


def search_esse(
    a: Matrix,
    b: Matrix,
    inner_dim_max: int = 4,
    entry_bound: int = 3,
    candidate_budget: int = 200_000,
) -> SSEWitness | None:
    """Bounded search for an elementary SSE pair a = R S, b = S R.

    An elementary SSE is exactly a lag-1 shift equivalence: a = R S and
    b = S R give a R = R S R = R b and S a = S R S = b S.  So after its
    guards this is `search_se` at lag 1 with the same bounds, and the pair
    it returns has passed `verify_se`, which at lag 1 is `verify_esse`.
    The inner dimension of the factorization is forced by b (R is n x m),
    so inner_dim_max acts as a refusal bound on the size of b; a refused
    search reads no record and leaves the memo empty.  Equal traces are
    necessary too, but the prefilters already imply them: the trace is
    minus the second-highest coefficient of the characteristic polynomial
    away from zero, or 0 when that polynomial is 1.
    """
    if not a.is_square or not b.is_square:
        raise ShapeError("search needs square matrices")
    if b.nrows > inner_dim_max:
        _memo.clear()
        return None
    w = search_se(a, b, lag_max=1, entry_bound=entry_bound, candidate_budget=candidate_budget)
    return None if w is None else SSEWitness(w.r, w.s)


def _witness_verdict(a: Matrix, b: Matrix, witness_json: dict | None) -> tuple[bool, dict]:
    """The answer of the search just run on (a, b), given its witness as JSON (None: none).

    Without a witness the answer is a proven no when the pair's record (the
    memo's, if the search read (a, b)) holds a differing invariant, and a
    bounded miss otherwise; a refused `search_esse` leaves the memo empty.
    """
    if witness_json is not None:
        return True, {"outcome": "found", "witness": witness_json}
    rec = _memo.get((a, b))
    if rec is not None and rec.differs is not None:
        reason, at_a, at_b = rec.differs
        return False, {"outcome": "not_equivalent", "conclusive": True, "reason": reason,
                       "a": at_a, "b": at_b}
    return False, {
        "outcome": "not_found_within_bounds",
        "conclusive": False,
        "note": "absence of a witness within these bounds does not decide inequivalence",
    }


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
