"""Dimension triples of edge shifts: the ordered group, its shift, and maps.

The triple attached to a graph with adjacency matrix A is the direct limit of
Z^n --M--> Z^n --M--> ... for M = A^T, with the positive cone of eventually
nonnegative vectors, the class of the all-ones vector as order unit, and the
automorphism induced by M; `from_graph` takes the graph or its adjacency
matrix A.  Elements are pairs [a, k]: the vector a sitting
at stage k of the limit; [a, k] and [b, k'] agree iff they merge after
finitely many more applications of M, which stabilizes after n steps, so
equality is decidable.

Positivity of a class is decided exactly: iteration gives certificates, and
for irreducible M the sign of the pairing against the left Perron eigenvector
(computed exactly, see `linalg.perron_pairing_sign`) settles the rest, class
by class for periodic M, every pairing read off one `linalg.PerronData`.  For
reducible M beyond the iteration bound the honest answer is Unknown.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from ._frozen import Frozen
from .errors import NotIrreducible, ShapeError, UndecidedError
from .graphs import Graph, sink_free_adjacency
from .linalg import (
    AffineInfeasible,
    Matrix,
    Sign,
    Vector,
    _reshape,
    _scan,
    _sparse_apply,
    _sparse_rows,
    intertwiner_matrix,
    isolate_perron_root,
    perron_pairing_sign,
    solve_affine_exact,
    vector,
)
from .polynomials import _INT

DEFAULT_ITERATE_BOUND = 24
_CERTIFICATE_CAP = 500


class DimensionTriple(Frozen):
    """Acting matrix M = A^T of a dimension triple; M must be a nonnegative integer matrix."""

    matrix: Matrix

    def __post_init__(self) -> None:
        if not self.matrix.is_square:
            raise ShapeError("acting matrix must be square")
        if not self.matrix.is_integral() or not self.matrix.is_nonnegative():
            raise ShapeError("acting matrix must be a nonnegative integer matrix")

    @property
    def n(self) -> int:
        return self.matrix.nrows


class DimElement(Frozen):
    """Group element [a, k]: integer vector a (every entry an int) at stage k >= 0 (an int)."""

    a: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if not _INT.issuperset(map(type, self.a)):
            raise ShapeError(f"element entries must be ints, got {self.a!r}")
        if type(self.k) is not int or self.k < 0:
            raise ShapeError(f"stage index must be a nonnegative int, got {self.k!r}")


def from_graph(g: Graph | Matrix) -> DimensionTriple:
    """Dimension triple of a graph without sinks, or of its adjacency matrix A: M = A^T."""
    return DimensionTriple(sink_free_adjacency(g).transpose())


def zero(t: DimensionTriple) -> DimElement:
    return DimElement((0,) * t.n, 0)


def order_unit(t: DimensionTriple) -> DimElement:
    """Class of the all-ones vector at stage 0."""
    return DimElement((1,) * t.n, 0)


def _check_element(t: DimensionTriple, x: DimElement) -> None:
    if len(x.a) != t.n:
        raise ShapeError(f"element lives in Z^{len(x.a)}, triple needs Z^{t.n}")


def _apply_pow(t: DimensionTriple, p: int, a: Sequence[Fraction | int]) -> Vector:
    """M^p a by p matrix-vector products; the power M^p is never formed."""
    v = vector(a)
    for _ in range(p):
        v = t.matrix.apply(v)
    return v


def dg_equal(t: DimensionTriple, x: DimElement, y: DimElement) -> bool:
    """Exact equality in the limit: merge at stage max(k, k') + n.

    The kernel chain of M stabilizes after n steps, so if the two vectors
    ever merge they merge by then.
    """
    _check_element(t, x)
    _check_element(t, y)
    top = max(x.k, y.k)
    ex = _apply_pow(t, top - x.k, x.a)
    ey = _apply_pow(t, top - y.k, y.a)
    diff = tuple(p - q for p, q in zip(ex, ey))
    return all(v == 0 for v in _apply_pow(t, t.n, diff))


def dg_add(t: DimensionTriple, x: DimElement, y: DimElement) -> DimElement:
    """[a, k] + [b, k'] = [M^k' a + M^k b, k + k']."""
    _check_element(t, x)
    _check_element(t, y)
    ex = _apply_pow(t, y.k, x.a)
    ey = _apply_pow(t, x.k, y.a)
    return DimElement(tuple(p + q for p, q in zip(ex, ey)), x.k + y.k)


def dg_neg(t: DimensionTriple, x: DimElement) -> DimElement:
    _check_element(t, x)
    return DimElement(tuple(-v for v in x.a), x.k)


def dg_scale(t: DimensionTriple, c: int, x: DimElement) -> DimElement:
    _check_element(t, x)
    return DimElement(tuple(c * v for v in x.a), x.k)


def dg_shift(t: DimensionTriple, x: DimElement, power: int = 1) -> DimElement:
    """Apply the shift automorphism `power` times (negative powers allowed).

    Positive powers multiply the vector by M^p; negative powers move the
    element deeper into the limit, which inverts the automorphism.
    """
    _check_element(t, x)
    if power >= 0:
        return DimElement(_apply_pow(t, power, x.a), x.k)
    return DimElement(x.a, x.k - power)


# ---------------------------------------------------------------------------
# Positivity
# ---------------------------------------------------------------------------


class InCone(Frozen):
    """Positive decision; `power` is an iteration certificate (M^power a >= 0) when available."""

    power: int | None = None

    def _verdict(self) -> tuple[bool, dict]:
        """(yes, the keys `dimgroup pos` reports), as for every decision record here."""
        power = {} if self.power is None else {"certificate_power": self.power}
        return True, {"decision": "in_cone", **power}


class NotInCone(Frozen):
    reason: str = ""

    def _verdict(self) -> tuple[bool, dict]:
        reason = {"reason": self.reason} if self.reason else {}
        return False, {"decision": "not_in_cone", **reason}


class Unknown(Frozen):
    """No decision within the iteration bound (reducible acting matrix)."""

    bound: int

    def _verdict(self) -> tuple[bool, dict]:
        return False, {"decision": "unknown", "iterate_bound": self.bound}


Positivity = InCone | NotInCone | Unknown


def dg_positive(
    t: DimensionTriple, x: DimElement, iterate_bound: int = DEFAULT_ITERATE_BOUND
) -> Positivity:
    """Decide membership of [a, k] in the positive cone.

    The cone consists of classes whose vector becomes entrywise nonnegative
    under iteration of M (once nonnegative, always nonnegative).  Iteration
    up to the bound yields certificates; for irreducible M Perron pairing
    signs, all read off one `PerronData` of M, finish the decision.
    Reducible matrices past the bound report Unknown: `isolate_perron_root`
    refuses them (NotIrreducible) from its one strong-component pass.  The
    iterates, in the bound loop and in the certificate loop, step over the
    nonzero entries of M alone (`linalg._sparse_apply`), on rows built once
    per call and only when a itself has a negative entry.

    The bound is at least n, and the kernel chain of M is stable from n on,
    so a class that dies (M^n a = 0) has already been certified InCone by
    the iteration.  Past it a zero total pairing therefore means a nonzero
    class, which is not in the cone: no nonzero nonnegative vector pairs to
    zero with the positive left Perron vector w.

    For period p, M^p is block diagonal on the cyclic classes C_r with
    primitive blocks, and a is in the cone iff every part a_{C_r} is
    eventually nonnegative under its block.  As w M^p = rho^p w, w_{C_r} is
    the block's left Perron vector, so the block pairing is the pairing of w
    with a masked to C_r (zeros elsewhere), and a part pairing to zero must
    die.  M maps vectors on C_r to vectors on C_(r-1), so the iterates
    rotate the parts: M^(bound+1) a, left over from the iteration, holds
    M^(bound+1) a_{C_r} on C_(r-bound-1), and the part dies exactly when
    that block of it vanishes.  One pass over the classes decides.
    """
    _check_element(t, x)
    if all(v >= 0 for v in x.a):
        return InCone(0)
    bound = max(iterate_bound, t.n)
    m = t.matrix
    rows = _sparse_rows(m)
    cur: Sequence[int] = _sparse_apply(rows, x.a)
    for power in range(1, bound + 1):
        if all(v >= 0 for v in cur):
            return InCone(power)
        cur = _sparse_apply(rows, cur)
    try:
        pd = isolate_perron_root(m)
    except NotIrreducible:
        return Unknown(bound)
    s = perron_pairing_sign(pd, x.a)
    if s == Sign.NEGATIVE:
        return NotInCone("negative Perron pairing")
    if s == Sign.ZERO:
        return NotInCone("zero Perron pairing but nonzero class")
    p = pd.period
    for r, cls in enumerate(pd.classes if p > 1 else ()):
        part = tuple(v if i in cls else 0 for i, v in enumerate(x.a))
        if not any(part):
            continue
        s = perron_pairing_sign(pd, part)
        dies = not any(cur[i] for i in pd.classes[(r - bound - 1) % p])
        if s == Sign.NEGATIVE or s == Sign.ZERO and not dies:
            return NotInCone("some cyclic class stays negative")
    # positive pairing and per-class feasibility prove membership; the extra
    # iterations only look for a certificate power to report with it
    for power in range(bound + 1, bound + 1 + _CERTIFICATE_CAP):
        if all(v >= 0 for v in cur):
            return InCone(power)
        cur = _sparse_apply(rows, cur)
    return InCone(None)


# ---------------------------------------------------------------------------
# Rational vectors as classes
# ---------------------------------------------------------------------------


def rational_to_element(
    t: DimensionTriple, v: Sequence[Fraction | int]
) -> DimElement | None:
    """The class [M^k v, k] of a rational vector at the smallest such k, or None
    if no power of M takes v into Z^n.

    One walk v, M v, M^2 v, ... stops at the first all-int iterate (by the
    number rule an integral entry is an int) or past k = n floor(log2 d), d
    the common denominator of v.  The bound is proven: with w = d v, M^k v is
    integral iff M^k w = 0 mod every prime power p^e exactly dividing d.  The
    kernels K_k of M^k on (Z/p^e)^n rise inside a module of length e n, so
    at most e n of the steps K_k <= K_(k+1) are strict, and they stop at
    their first repeat: if K_k = K_(k+1), then M^(k+2) x = 0 puts M x in
    K_(k+1) = K_k, so x is in K_(k+1).  So K_k is constant from k = e n on:
    whatever any power of M makes integral, M^(e n) already does, and
    e <= log2 d.  Entries must be ints or Fractions; a float is refused,
    not converted.
    """
    if len(v) != t.n:
        raise ShapeError("vector length does not match the triple")
    if not all(isinstance(x, (int, Fraction)) for x in v):
        raise ShapeError("vector entries must be ints or Fractions")
    cur = vector(v)
    bound = t.n * (math.lcm(*(x.denominator for x in cur)).bit_length() - 1)
    k = 0
    while not _INT.issuperset(map(type, cur)):
        if k == bound:
            return None
        cur = t.matrix.apply(cur)
        k += 1
    return DimElement(cur, k)


def lattice_level(t: DimensionTriple, v: Sequence[Fraction | int]) -> int | None:
    """Smallest k with M^k v integral, or None if no power lands in Z^n
    (`rational_to_element`'s stage)."""
    elem = rational_to_element(t, v)
    return None if elem is None else elem.k


# ---------------------------------------------------------------------------
# Module isomorphism candidates
# ---------------------------------------------------------------------------


class ModuleIsoCandidate(Frozen):
    """Rational matrix inducing a candidate isomorphism of dimension triples."""

    matrix: Matrix
    pointed: bool = False


def verify_module_iso(
    t_a: DimensionTriple,
    t_b: DimensionTriple,
    cand: ModuleIsoCandidate,
) -> bool:
    """Check that the candidate matrix induces an order isomorphism of triples.

    Five conditions, in this order: exact intertwining U M_A = M_B U; for
    pointed candidates, M_B^n (U 1 - 1) = 0; invertibility over Q; both U
    and U^{-1} map the integer lattices into the groups (decided by
    `rational_to_element`'s bounded walk); and positivity of the images of
    the standard positive generators in both directions.  The pointed
    condition is the order unit mapping to the order unit: [U 1, 0] is the
    class of the unit iff M_B^j (U 1 - 1) = 0 for some j, and over Q the
    kernel chain of M_B is constant from n on.  It is exact, so it comes
    before positivity, and a candidate it refutes is a proven no.

    Raises UndecidedError if a positivity subquestion comes back Unknown.
    """
    u = cand.matrix
    if t_a.n != t_b.n:
        raise ShapeError("triples of different rank cannot be compared by a square matrix")
    if u.shape() != (t_b.n, t_a.n):
        raise ShapeError(f"candidate shape {u.shape()} does not map rank {t_a.n} to rank {t_b.n}")
    if u @ t_a.matrix != t_b.matrix @ u:
        return False
    if cand.pointed and any(_apply_pow(t_b, t_b.n, [x - 1 for x in u.apply((1,) * t_a.n)])):
        return False
    try:
        uinv = u.inverse()
    except ShapeError:  # u is square, so this means singular
        return False

    def side_ok(src: DimensionTriple, dst: DimensionTriple, mat: Matrix) -> bool:
        for i in range(src.n):
            img = mat.col(i)
            elem = rational_to_element(dst, img)
            if elem is None:
                return False
            decision = dg_positive(dst, elem)
            if isinstance(decision, Unknown):
                raise UndecidedError(
                    "positivity of a generator image undecided within the bound"
                )
            if isinstance(decision, NotInCone):
                return False
        return True

    return side_ok(t_a, t_b, u) and side_ok(t_b, t_a, uinv)


# ---------------------------------------------------------------------------
# Pointed intertwiner search
# ---------------------------------------------------------------------------


class IntertwinerSystem(Frozen):
    """The affine system over the flattened candidate entries, with row labels."""

    coefficients: Matrix
    rhs: Vector
    labels: tuple[str, ...]


class Infeasible(Frozen):
    """No rational solution at all; certificate @ coefficients = 0, certificate . rhs = 1."""

    system: IntertwinerSystem
    certificate: Vector

    def _verdict(self) -> tuple[bool, dict]:
        """(yes, the keys `iso search` reports), as for every search result here."""
        system = {
            "labels": list(self.system.labels),
            "coefficients": self.system.coefficients.to_json_rows(),
            "rhs": [str(x) for x in self.system.rhs],
        }
        return False, {"outcome": "infeasible", "system": system,
                       "certificate": [str(x) for x in self.certificate]}


class Candidate(Frozen):
    matrix: Matrix

    def _verdict(self) -> tuple[bool, dict]:
        return True, {"outcome": "found", "matrix": self.matrix.to_json_rows()}


class NotFoundWithinBounds(Frozen):
    tried: int

    def _verdict(self) -> tuple[bool, dict]:
        return False, {"outcome": "not_found_within_bounds", "tried": self.tried}


PointedSearchResult = Infeasible | Candidate | NotFoundWithinBounds


def _intertwiner_system(
    t_a: DimensionTriple, t_b: DimensionTriple, pointed: bool
) -> IntertwinerSystem:
    n, m = t_a.n, t_b.n
    rows = list(intertwiner_matrix(t_a.matrix, t_b.matrix).rows)
    labels = [f"intertwine[{i},{j}]" for i in range(m) for j in range(n)]
    if pointed:
        rows += [tuple(int(c // n == i) for c in range(m * n)) for i in range(m)]
        labels += [f"unit[{i}]" for i in range(m)]
    rhs = [0] * (m * n) + [1] * (m if pointed else 0)
    return IntertwinerSystem(Matrix(tuple(rows)), tuple(rhs), tuple(labels))


def _grid_values(denominator_max: int, value_max: int, limit: int | None = None) -> list[Fraction]:
    """The first `limit` values of the rational grid (all for None), in scan order.

    The grid is 0 and every reduced p/q with q <= denominator_max and
    |p/q| <= value_max, by denominator, then magnitude, positives first.
    The values are made lazily and only the first `limit` are built: a
    lexicographic scan of k tuples reads only the first k values, so
    `search_module_iso` asks for as many as its candidate budget.
    """
    qs = range(1, denominator_max + 1) if value_max > 0 else ()
    pos = (Fraction(p, q) for q in qs for p in range(1, value_max * q + 1) if math.gcd(p, q) == 1)
    values = itertools.chain([Fraction(0)], itertools.chain.from_iterable((x, -x) for x in pos))
    return list(itertools.islice(values, None if limit is None else max(limit, 0)))


def search_module_iso(
    t_a: DimensionTriple,
    t_b: DimensionTriple,
    pointed: bool = True,
    denominator_max: int = 4,
    value_max: int = 2,
    candidate_budget: int = 4000,
) -> PointedSearchResult:
    """Search for a matrix inducing a (pointed) order isomorphism of triples.

    The linear conditions (intertwining, and the unit equations when pointed)
    are solved exactly first; genuine inconsistency is returned as Infeasible
    with a rational certificate.  Otherwise the affine solution space is
    scanned over a grid of small rationals (`linalg._scan`, the scan
    `integer_points` runs too), each candidate checked with
    verify_module_iso, and the first verified one returned.  At most
    candidate_budget grid points are scanned (none for a budget of 0 or
    less), and no more grid values are built than that; a miss reports how
    many were scanned.
    """
    system = _intertwiner_system(t_a, t_b, pointed)
    res = solve_affine_exact(system.coefficients, system.rhs)
    if isinstance(res, AffineInfeasible):
        return Infeasible(system, res.certificate)
    n, m = t_a.n, t_b.n
    grid = _grid_values(denominator_max, value_max, candidate_budget)
    tried = 0
    for tried, flat in enumerate(_scan(res.particular, res.basis, grid, candidate_budget), 1):
        u = _reshape(flat, m, n)
        try:
            if n == m and verify_module_iso(t_a, t_b, ModuleIsoCandidate(u, pointed)):
                return Candidate(u)
        except UndecidedError:
            continue
    return NotFoundWithinBounds(tried)


def search_pointed_intertwiner(
    t_a: DimensionTriple, t_b: DimensionTriple, **bounds
) -> PointedSearchResult:
    """Pointed variant of search_module_iso (the unit must map to the unit)."""
    return search_module_iso(t_a, t_b, pointed=True, **bounds)


# ---------------------------------------------------------------------------
# Tensor maps
# ---------------------------------------------------------------------------


def product_triple(t_a: DimensionTriple, t_b: DimensionTriple) -> DimensionTriple:
    """Triple acted on by the Kronecker product of the two acting matrices."""
    return DimensionTriple(t_a.matrix.kron(t_b.matrix))


def tensor_phi(
    t_a: DimensionTriple, t_b: DimensionTriple, x: DimElement, y: DimElement
) -> DimElement:
    """Image of [a, k] (x) [b, l] in the product triple: [M_A^l a (x) M_B^k b, k + l]."""
    _check_element(t_a, x)
    _check_element(t_b, y)
    ea = _apply_pow(t_a, y.k, x.a)
    eb = _apply_pow(t_b, x.k, y.a)
    return DimElement(tuple(p * q for p in ea for q in eb), x.k + y.k)


def tensor_psi(
    t_a: DimensionTriple, t_b: DimensionTriple, z: DimElement
) -> list[tuple[DimElement, DimElement]]:
    """Decompose a product-triple element into pure tensors at the same stage.

    Writing the vector of [c, k] as sum e_i (x) c_i over the standard basis
    of the first factor yields sum [e_i, k] (x) [c_i, k]; zero blocks are
    dropped.
    """
    n, m = t_a.n, t_b.n
    if len(z.a) != n * m:
        raise ShapeError("element does not live in the product triple")
    out: list[tuple[DimElement, DimElement]] = []
    for i in range(n):
        block = z.a[i * m : (i + 1) * m]
        if any(v != 0 for v in block):
            unit = tuple(int(i == j) for j in range(n))
            out.append((DimElement(unit, z.k), DimElement(tuple(block), z.k)))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def element_to_json(x: DimElement) -> dict:
    return {"a": list(x.a), "k": x.k}


def candidate_to_json(cand: ModuleIsoCandidate) -> dict:
    return {"matrix": cand.matrix.to_json_rows(), "pointed": cand.pointed}
