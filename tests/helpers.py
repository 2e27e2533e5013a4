"""Shared generators and independent oracles for the test suite.

Oracles here are written from scratch (cofactor determinants, brute-force
rank, entrywise Kronecker products, dense Faddeev-LeVerrier) so that
library results are checked against genuinely independent computations.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

from sftkit.graphs import Graph, classify, from_adjacency
from sftkit.linalg import Matrix, cyclic_structure, is_irreducible_matrix
from sftkit.moves import EdgePartition
from sftkit.polynomials import Poly


def replace(record, **changes):
    """A new record of record's class with the named fields changed, built by its
    constructor (so its checks run); its fields are its `__match_args__`."""
    fields = type(record).__match_args__
    unknown = changes.keys() - fields
    if unknown:
        raise TypeError(f"{type(record).__name__} has no fields {sorted(unknown)}")
    return type(record)(**{f: changes.get(f, getattr(record, f)) for f in fields})


def random_adjacency(rng: random.Random, n: int, entry_max: int) -> Matrix:
    return Matrix.from_rows(
        [[rng.randrange(0, entry_max + 1) for _ in range(n)] for _ in range(n)]
    )


def matmul_count(fn):
    """fn() and the number of `Matrix` products (`@`) it ran."""
    calls = 0
    inner = Matrix.__matmul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return inner(self, other)

    with mock.patch.object(Matrix, "__matmul__", counting):
        out = fn()
    return out, calls


def apply_power_oracle(m: Matrix, p: int, v) -> tuple:
    """m^p v by p plain matrix-vector loops, entry by entry (m may be non-square when p is 1)."""
    v = list(v)
    for _ in range(p):
        v = [sum(m[i, j] * v[j] for j in range(m.ncols)) for i in range(m.nrows)]
    return tuple(v)


def lattice_level_oracle(m: Matrix, v) -> int | None:
    """Smallest k with m^k v integral, or None, by the residue walk w <- m w mod d.

    With d the common denominator of v and w = d v, m^k v is integral iff
    m^k w = 0 mod d.  The walk stays among at most d^n residues and 0 is a
    fixed point, so it reaches 0 within d^n steps or never: before 0 the
    residues are distinct, and a repeat closes a cycle that misses 0.
    """
    n = m.nrows
    v = [Fraction(x) for x in v]
    d = math.lcm(*(x.denominator for x in v))
    w = [int(x * d) % d for x in v]
    for k in range(d**n + 1):
        if not any(w):
            return k
        w = [sum(m[i, j] * w[j] for j in range(n)) % d for i in range(n)]
    return None


def random_int_matrix(rng: random.Random, n: int, lo: int, hi: int) -> Matrix:
    return Matrix.from_rows(
        [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(n)]
    )


def random_irreducible_nontrivial(
    rng: random.Random, n_max: int, entry_max: int
) -> Graph:
    """Rejection-sample a strongly connected graph that is not a single cycle."""
    while True:
        n = rng.randrange(1, n_max + 1)
        g = from_adjacency(random_adjacency(rng, n, entry_max))
        r = classify(g)
        if r.irreducible and not r.trivial:
            return g


def random_sink_free(rng: random.Random, n_max: int, entry_max: int) -> Graph:
    """A graph in which every vertex emits at least one edge."""
    while True:
        n = rng.randrange(1, n_max + 1)
        m = random_adjacency(rng, n, entry_max)
        if all(any(x != 0 for x in m.row(i)) for i in range(n)):
            return from_adjacency(m)


def random_out_partition(rng: random.Random, g: Graph) -> EdgePartition:
    return _random_partition(rng, g, incoming=False)


def random_in_partition(rng: random.Random, g: Graph) -> EdgePartition:
    return _random_partition(rng, g, incoming=True)


def _random_partition(rng: random.Random, g: Graph, incoming: bool) -> EdgePartition:
    entries = []
    for v in g.vertices:
        ids = [e.id for e in (g.in_edges(v) if incoming else g.out_edges(v))]
        if not ids:
            continue
        rng.shuffle(ids)
        if len(ids) > 1 and rng.random() < 0.7:
            cut = rng.randrange(1, len(ids))
            blocks = (tuple(sorted(ids[:cut])), tuple(sorted(ids[cut:])))
        else:
            blocks = (tuple(sorted(ids)),)
        entries.append((v, blocks))
    return EdgePartition(tuple(entries))


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Laplace expansion along the first row, each minor once.

    The minor left after expanding along the first k rows depends only on the
    columns those rows took, so minors are memoised by their column set:
    n 2^n terms instead of n!.
    """
    n = len(rows)

    @functools.lru_cache(maxsize=None)
    def minor(cols: tuple[int, ...]) -> Fraction:
        if not cols:
            return Fraction(1)
        row = rows[n - len(cols)]
        total = Fraction(0)
        for pos, j in enumerate(cols):
            if row[j] == 0:
                continue
            sign = -1 if pos % 2 else 1
            total += sign * Fraction(row[j]) * minor(cols[:pos] + cols[pos + 1 :])
        return total

    return minor(tuple(range(n)))


def det_oracle(m: Matrix) -> Fraction:
    return cofactor_det([[Fraction(x) for x in row] for row in m.rows])


def inverse_oracle(m: Matrix) -> list[list[Fraction]]:
    """Inverse as the adjugate over the determinant, every entry a cofactor."""
    rows = [[Fraction(x) for x in row] for row in m.rows]
    n = len(rows)
    d = cofactor_det(rows)
    # entry (i, j) is the (j, i) cofactor: drop row j and column i
    return [
        [
            (-1) ** (i + j)
            * cofactor_det([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            / d
            for j in range(n)
        ]
        for i in range(n)
    ]


def echelon_oracle(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns by plain Gauss-Jordan over
    the rationals, independent of the library."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        col += 1
    return rows, pivots


def rank_oracle(rows: list[list[Fraction]]) -> int:
    """Row rank by plain Gaussian elimination, independent of the library."""
    return len(echelon_oracle(rows)[1])


def affine_set_oracle(particular, basis) -> tuple[tuple, tuple]:
    """Canonical form of the affine set particular + span(basis): the nonzero
    rows of the RREF of the basis, and the one point of the set whose
    coordinates at their pivot columns vanish."""
    reduced, pivots = echelon_oracle([list(v) for v in basis])
    point = [Fraction(x) for x in particular]
    for row, p in zip(reduced, pivots):
        c = point[p]
        point = [x - c * y for x, y in zip(point, row)]
    return tuple(tuple(row) for row in reduced[: len(pivots)]), tuple(point)


def gauss_jordan_oracle(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A x = b by textbook Gauss-Jordan on [A | b], tracking the transform.

    The transform T starts as the identity and takes every row operation, so
    T [A | b] is the reduced matrix throughout.  Pivot rule: the first row at
    or below the current one with a nonzero entry in the column.  Returns
    ("solution", particular, basis), the particular solution zero on the free
    columns and one basis vector per free column (1 there, 0 on the other
    free columns), or ("infeasible", y) with y the row of T that reads 0 = 1.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(c)] for row, c in zip(rows, rhs)]
    t = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    pivots: list[int] = []
    for col in range(n + 1):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        t[r], t[pivot] = t[pivot], t[r]
        lead = aug[r][col]
        aug[r] = [x / lead for x in aug[r]]
        t[r] = [x / lead for x in t[r]]
        for i in range(m):
            f = aug[i][col]
            if i != r and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        pivots.append(col)
    if pivots and pivots[-1] == n:
        return "infeasible", tuple(t[len(pivots) - 1])
    particular = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        particular[p] = aug[r][n]
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -aug[r][free]
        basis.append(tuple(v))
    return "solution", tuple(particular), tuple(basis)


def stacked_partner_oracle(a: Matrix, b: Matrix, r: Matrix, lag: int):
    """All S (m x n, flattened row-major) with S a = b S, R S = a^l and
    S R = b^l, from gauss_jordan_oracle on the one stacked system of all three
    conditions, every coefficient written entrywise."""
    n, m = a.nrows, b.nrows

    def power(x: Matrix) -> list[list[int]]:
        k = x.nrows
        acc = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(lag):
            acc = [[sum(acc[i][t] * x[t, j] for t in range(k)) for j in range(k)]
                   for i in range(k)]
        return acc

    al, bl = power(a), power(b)
    rows, rhs = [], []
    # (S a - b S)[i][j] = sum_q S[i][q] a[q][j] - sum_p b[i][p] S[p][j]
    for i in range(m):
        for j in range(n):
            row = [0] * (m * n)
            for q in range(n):
                row[i * n + q] += a[q, j]
            for p in range(m):
                row[p * n + j] -= b[i, p]
            rows.append(row)
            rhs.append(0)
    # (R S)[p][q] = sum_i R[p][i] S[i][q]
    for p in range(n):
        for q in range(n):
            row = [0] * (m * n)
            for i in range(m):
                row[i * n + q] = r[p, i]
            rows.append(row)
            rhs.append(al[p][q])
    # (S R)[p][q] = sum_j S[p][j] R[j][q]
    for p in range(m):
        for q in range(m):
            row = [0] * (m * n)
            for j in range(n):
                row[p * n + j] = r[j, q]
            rows.append(row)
            rhs.append(bl[p][q])
    return gauss_jordan_oracle(rows, rhs)


@functools.lru_cache(maxsize=None)
def row_sum_perron_vector(m: Matrix) -> tuple[Fraction, ...]:
    """Left Perron vector w of an irreducible m whose rows all sum to r.

    The all-ones vector is then a positive right eigenvector, so the Perron
    root is r exactly and w solves w (m - rI) = 0, scaled by w_0 = 1.
    Cached per matrix: the oracles pair many vectors against one m.
    """
    n = m.nrows
    r = sum(m[0, j] for j in range(n))
    assert all(sum(m[i, j] for j in range(n)) == r for i in range(n))
    # equation i: sum_j w_j (m[j][i] - r [i == j]) = 0, then w_0 = 1
    rows = [[m[j, i] - (r if i == j else 0) for j in range(n)] for i in range(n)]
    rows.append([1] + [0] * (n - 1))
    kind, w, basis = gauss_jordan_oracle(rows, [0] * n + [1])
    assert kind == "solution" and not basis and all(x > 0 for x in w)
    return tuple(w)


def perron_sign_oracle(m: Matrix, v) -> int:
    """Sign of w . v for the left Perron vector w of an irreducible m whose
    rows all sum to r."""
    s = sum(x * y for x, y in zip(row_sum_perron_vector(m), v))
    return (s > 0) - (s < 0)


def perron_sign_by_iteration(m: Matrix, v, limit: int = 5000) -> int:
    """Sign (1 or -1) of w . v for the left Perron vector w of an irreducible m.

    Power iteration with M + I, which is primitive and has the left Perron
    vector w of m for its eigenvalue rho + 1.  Since w . (M + I) u =
    (rho + 1) w . u, every iterate pairs with w to the sign of w . v, and the
    iterates line up with the positive right Perron vector: they become
    strictly one-signed, of that sign, unless w . v = 0.  v is first scaled
    to integers by a positive factor.  A pairing that is still open after
    `limit` steps (w . v = 0, or nearly) fails the assertion.
    """
    n = m.nrows
    den = math.lcm(*(Fraction(x).denominator for x in v))
    cur = [int(Fraction(x) * den) for x in v]
    rows = [[int(m[i, j]) + (i == j) for j in range(n)] for i in range(n)]
    for _ in range(limit):
        if all(x > 0 for x in cur):
            return 1
        if all(x < 0 for x in cur):
            return -1
        cur = [sum(a * x for a, x in zip(row, cur)) for row in rows]
    raise AssertionError(f"no one-signed iterate of {v} under {m} + I in {limit} steps")


def random_block_cyclic(
    rng: random.Random, period: int, class_max: int, r: int
) -> tuple[Matrix, list[list[int]]]:
    """Irreducible m of period exactly `period` with all row sums r, and its classes.

    Vertex labels are shuffled.  Each vertex of class c sends r arcs (with
    multiplicity) into class c + 1 mod period.  A draw is kept when every
    vertex has an incoming arc and the return map of class 0, the block of
    m^period on it, is primitive (for s vertices, its power (s - 1)^2 + 1 is
    positive, by Wielandt's bound): then every vertex reaches and is reached
    from class 0, and no finer cyclic classes exist.
    """
    while True:
        sizes = [rng.randint(1, class_max) for _ in range(period)]
        n = sum(sizes)
        labels = list(range(n))
        rng.shuffle(labels)
        classes = [labels[sum(sizes[:c]):sum(sizes[:c + 1])] for c in range(period)]
        rows = [[0] * n for _ in range(n)]
        for c, cls in enumerate(classes):
            for i in cls:
                for _ in range(r):
                    rows[i][rng.choice(classes[(c + 1) % period])] += 1
        if not all(any(row[j] for row in rows) for j in range(n)):
            continue
        reach = [[i == j for j in range(n)] for i in range(n)]
        for _ in range(period):
            reach = [[any(reach[i][k] and rows[k][j] for k in range(n)) for j in range(n)]
                     for i in range(n)]
        ret = [[reach[i][j] for j in classes[0]] for i in classes[0]]
        power = ret
        for _ in range((len(ret) - 1) ** 2):
            power = [[any(x and ret[k][j] for k, x in enumerate(row)) for j in range(len(ret))]
                     for row in power]
        if all(all(row) for row in power):
            return Matrix.from_rows(rows), classes


def cyclic_cone_oracle(m: Matrix, classes: list[list[int]], a) -> bool:
    """Is a eventually nonnegative under m, for m from `random_block_cyclic`?

    m^period is block diagonal on the classes, with primitive blocks whose
    left Perron vectors are the restrictions of the left Perron vector w of
    m.  So a is eventually nonnegative iff each part a_C (a on C, zero
    elsewhere) pairs positively with w, or pairs to zero and dies:
    m^n a_C = 0.
    """
    n = m.nrows
    w = row_sum_perron_vector(m)
    for cls in classes:
        part = [a[i] if i in cls else 0 for i in range(n)]
        pairing = sum(x * y for x, y in zip(w, part))
        if pairing > 0:
            continue
        if pairing < 0:
            return False
        for _ in range(n):
            part = [sum(m[i, j] * part[j] for j in range(n)) for i in range(n)]
        if any(part):
            return False
    return True


def cone_by_dense_iteration(m: Matrix, a, bound: int, cap: int, member) -> tuple[str, int | None]:
    """(decision, certificate power) that a cone decision on [a, 0] under m owes,
    iterating at most `bound` (>= n) steps before any Perron argument and
    `cap` more for a certificate.

    Dense iteration, entry by entry: the first k <= bound with m^k a >= 0
    gives ("in_cone", k).  Past the bound a reducible m (by `reach_oracle`)
    gives ("unknown", bound); otherwise `member()`, a's membership by an
    independent oracle, decides, and a member's power is its first
    nonnegative iterate below bound + 1 + cap, or None.
    """
    n = m.nrows
    cur = list(a)
    for k in range(bound + 1 + cap):
        if k == bound + 1:
            if not all(map(all, reach_oracle(m))):
                return "unknown", bound
            if not member():
                return "not_in_cone", None
        if all(x >= 0 for x in cur):
            return "in_cone", k
        cur = [sum(m[i, j] * cur[j] for j in range(n)) for i in range(n)]
    return "in_cone", None


def is_primitive_matrix(m: Matrix) -> bool:
    """Irreducible with period 1; False (not an error) for a reducible m."""
    return is_irreducible_matrix(m) and cyclic_structure(m)[0] == 1


def faddeev_leverrier_oracle(m: Matrix) -> tuple[list[int], list[list[list[int]]]]:
    """Dense textbook Faddeev-LeVerrier on an integer matrix.

    Returns (coeffs, bs): det(xI - m) = sum coeffs[d] x^d (constant term
    first) and adj(xI - m) = sum bs[k] x^(n-1-k), with every B_k kept.  The
    recurrence is B_0 = I, c_k = -tr(m B_(k-1)) / k, B_k = m B_(k-1) + c_k I,
    each product a full row-by-column product over all n^3 entry pairs and
    each division checked exact; B_n = m B_(n-1) + c_n I must vanish
    (Cayley-Hamilton).
    """
    n = m.nrows
    a = [list(row) for row in m.rows]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    cs, bs = [1], []
    for k in range(1, n + 1):
        bs.append(b)
        cols = list(zip(*b))
        prod = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        c, rest = divmod(-sum(prod[i][i] for i in range(n)), k)
        assert rest == 0
        cs.append(c)
        b = [[prod[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    assert all(x == 0 for row in b for x in row)
    return cs[::-1], bs


def adjugate_xi_minus(m: Matrix) -> list[list[Poly]]:
    """Entries of adj(xI - m) as polynomials, read off the B_k of
    `faddeev_leverrier_oracle`: adj(xI - m) = sum B_k x^(n-1-k)."""
    _, bs = faddeev_leverrier_oracle(m)
    n = m.nrows
    return [
        [Poly.from_coeffs([bs[n - 1 - d][i][j] for d in range(n)]) for j in range(n)]
        for i in range(n)
    ]


def sturm_chain_oracle(p, q) -> list[list[Fraction]]:
    """Signed remainder sequence p, q, -(p mod q), ... over the rationals.

    p and q are ascending coefficient lists; each remainder is taken by
    schoolbook long division in `Fraction`s, and the sequence stops after
    the first constant or before the first zero element.
    """

    def trim(cs):
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            a = trim(a)
        return a

    chain = [trim(p), trim(q)]
    while chain[-1] and len(chain[-1]) > 1:
        chain.append([-c for c in rem(chain[-2], chain[-1])])
    if not chain[-1]:
        chain.pop()
    return chain


def kron_oracle(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise block Kronecker product."""
    rows = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            row = []
            for j in range(a.ncols):
                for l in range(b.ncols):
                    row.append(a[i, j] * b[k, l])
            rows.append(row)
    return Matrix.from_rows(rows)


def reach_oracle(m: Matrix) -> list[list[bool]]:
    """reach[i][j]: some path of length >= 1 runs from i to j (Warshall closure)."""
    n = m.nrows
    reach = [[m[i, j] != 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    return reach


def cycle_ahead_and_behind(reach: list[list[bool]]) -> tuple[list[bool], list[bool]]:
    """For each vertex, from the closure `reach_oracle` gives: is it on a
    cycle or does it reach one (ahead), and is it on a cycle or reached from
    one (behind)?  The vertices with both are those on bi-infinite paths."""
    n = len(reach)
    cyc = [reach[i][i] for i in range(n)]
    ahead = [cyc[i] or any(reach[i][j] and cyc[j] for j in range(n)) for i in range(n)]
    behind = [cyc[i] or any(reach[j][i] and cyc[j] for j in range(n)) for i in range(n)]
    return ahead, behind


def purely_infinite_simple_oracle(m: Matrix) -> bool:
    """Every vertex reaches a cycle, every cycle has an exit, and the
    essential part (vertices with a cycle both behind and ahead of them) is
    nonempty and strongly connected, all read off the closure."""
    n = m.nrows
    reach = reach_oracle(m)
    cyc = [reach[i][i] for i in range(n)]
    ahead, behind = cycle_ahead_and_behind(reach)
    outdeg = [sum(m.row(i)) for i in range(n)]
    exitless = any(
        cyc[i] and outdeg[i] == 1
        and all(outdeg[j] == 1 for j in range(n) if reach[i][j])
        for i in range(n)
    )
    ess = [i for i in range(n) if ahead[i] and behind[i]]
    return (
        n > 0
        and all(ahead)
        and not exitless
        and bool(ess)
        and all(reach[i][j] for i in ess for j in ess)
    )


def rewrite_oracle(g: Graph, x: tuple[str, str], y: tuple[str, str]):
    """The local rewrite of the atom pair x y, written out case by case from
    the relations: a list of atoms, "kill" when the pair is zero, or None
    when x y is already in normal form.  Atoms are ("v", vertex),
    ("e", edge id) and ("g", edge id) for the ghost edge e*."""
    (tx, ix), (ty, iy) = x, y
    src = {e.id: e.src for e in g.edges}
    dst = {e.id: e.dst for e in g.edges}
    if (tx, ty) == ("v", "v"):  # v w = delta(v, w) v
        return [x] if ix == iy else "kill"
    if (tx, ty) == ("v", "e"):  # v e = delta(v, s(e)) e
        return [y] if src[iy] == ix else "kill"
    if (tx, ty) == ("v", "g"):  # v e* = delta(v, r(e)) e*
        return [y] if dst[iy] == ix else "kill"
    if (tx, ty) == ("e", "v"):  # e v = delta(r(e), v) e
        return [x] if dst[ix] == iy else "kill"
    if (tx, ty) == ("e", "e"):  # e f is a path iff r(e) = s(f)
        return None if dst[ix] == src[iy] else "kill"
    if (tx, ty) == ("e", "g"):  # e f* is valid iff r(e) = r(f)
        return None if dst[ix] == dst[iy] else "kill"
    if (tx, ty) == ("g", "v"):  # e* v = delta(s(e), v) e*
        return [x] if src[ix] == iy else "kill"
    if (tx, ty) == ("g", "e"):  # e* f = delta(e, f) r(e)
        return [("v", dst[ix])] if ix == iy else "kill"
    # e* f* is a ghost path iff s(e) = r(f)
    return None if src[ix] == dst[iy] else "kill"


def bowen_franks_oracle(m: Matrix) -> tuple[tuple[int, ...], int, int]:
    """(invariant factors > 1, free rank, det) of coker(I - m), from determinantal divisors.

    d_k is the gcd of all k x k minors of I - m, each taken with
    `cofactor_det`; the k-th invariant factor is d_k / d_(k-1) while d_k is
    nonzero, and the free rank is n minus the largest such k.
    """
    n = m.nrows
    w = [[Fraction(int(i == j) - x) for j, x in enumerate(row)] for i, row in enumerate(m.rows)]
    divisors = [1]
    for k in range(1, n + 1):
        d = 0
        subsets = list(itertools.combinations(range(n), k))
        for rows, cols in itertools.product(subsets, repeat=2):
            d = math.gcd(d, int(cofactor_det([[w[i][j] for j in cols] for i in rows])))
            if d == 1:  # no gcd goes lower
                break
        if d == 0:
            break
        divisors.append(d)
    factors = tuple(b // a for a, b in zip(divisors, divisors[1:]) if b // a > 1)
    return factors, n + 1 - len(divisors), int(cofactor_det(w))


def char_poly_away_from_zero_oracle(m: Matrix) -> list[int]:
    """Coefficients of det(xI - m), constant term first, with every factor of x
    stripped, from the dense `faddeev_leverrier_oracle`."""
    coeffs, _ = faddeev_leverrier_oracle(m)
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs = coeffs[1:]
    return coeffs


def rescan_reduce_oracle(g: Graph, word, strategy: str):
    """(normal form or None, the pairs rewritten in order) of a word, by the
    textbook strategy: rescan from the left end (or the right end) after
    every rewrite and fire the first reducible pair of `rewrite_oracle`."""
    w, fired = list(word), []
    while True:
        positions = range(len(w) - 1)
        for i in reversed(positions) if strategy == "rightmost" else positions:
            res = rewrite_oracle(g, w[i], w[i + 1])
            if res is not None:
                fired.append((w[i], w[i + 1]))
                if res == "kill":
                    return None, fired
                w[i : i + 2] = res
                break
        else:
            return tuple(w), fired


_NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_NAME_REST = _NAME_START + "0123456789.|"


def parse_oracle(g: Graph, text: str) -> dict:
    """The terms {word: coefficient} of an expression such as `3/2 e1 e2* + v1
    - e3`, read character by character without regular expressions.

    The whole text is split into tokens first (signs, numbers d or d/d, and
    generator names with an optional trailing *), so a character no token
    starts with is reported before any term is read.  Then each term is a
    sign (optional on the first), an optional number and generators; a lone
    number is that multiple of the sum of all vertices.  Raises ParseError or
    UnknownGenerator where `terms.parse_element` does."""
    from sftkit.errors import ParseError, UnknownGenerator

    tokens, i = [], 0
    while i < len(text):
        c, j = text[i], i + 1
        if c.isspace():
            i = j
            continue
        if c in "+-":
            tokens.append(("op", c))
        elif c.isdigit() and c.isascii():
            while j < len(text) and text[j].isdigit() and text[j].isascii():
                j += 1
            if text[j : j + 1] == "/" and text[j + 1 : j + 2].isdigit():
                j += 2
                while j < len(text) and text[j].isdigit() and text[j].isascii():
                    j += 1
            tokens.append(("num", text[i:j]))
        elif c in _NAME_START:
            while j < len(text) and text[j] in _NAME_REST:
                j += 1
            j += text[j : j + 1] == "*"
            tokens.append(("gen", text[i:j]))
        else:
            raise ParseError("cannot tokenize")
        i = j
    if not tokens:
        raise ParseError("empty expression")
    vertices, edges = set(g.vertices), {e.id for e in g.edges}
    out: dict = {}
    k = 0
    while k < len(tokens):
        coeff = Fraction(1)
        if tokens[k][0] == "op":
            coeff = Fraction(-1 if tokens[k][1] == "-" else 1)
            k += 1
        elif k > 0:
            raise ParseError("expected + or -")
        number = k < len(tokens) and tokens[k][0] == "num"
        if number:
            top, _, bottom = tokens[k][1].partition("/")
            if bottom and int(bottom) == 0:
                raise ParseError("zero denominator")
            coeff *= Fraction(int(top), int(bottom or 1))
            k += 1
        word = []
        while k < len(tokens) and tokens[k][0] == "gen":
            tok = tokens[k][1]
            name = tok.rstrip("*")
            if name in vertices and tok != name:
                raise ParseError("vertices are self-adjoint")
            if name not in vertices and name not in edges:
                raise UnknownGenerator(name)
            word.append(("v" if name in vertices else "g" if tok != name else "e", name))
            k += 1
        if not word and not number:
            raise ParseError("term without generators")
        for w in [tuple(word)] if word else [(("v", v),) for v in g.vertices]:
            out[w] = out.get(w, 0) + coeff
    return {w: c for w, c in out.items() if c != 0}


def random_expression(rng: random.Random, g: Graph) -> str:
    """A seeded expression over g's names: up to 5 signed terms, each an
    optional number (zero denominators included) and up to 3 generators,
    edges mostly starred at random; about a third of them then get one slip
    (a starred vertex, an unknown name, a dropped or doubled sign, a stray
    character), and the spacing varies down to none at all."""
    vertices, edges = list(g.vertices), [e.id for e in g.edges]
    tokens = []
    for t in range(rng.randint(0, 5)):
        if t or rng.random() < 0.3:
            tokens.append(rng.choice("+-"))
        number = rng.random() < 0.4
        if number:
            tokens.append(rng.choice(["0", "1", "2", "3/2", "12/8", "07", "0/3", "1/0"]))
        for _ in range(rng.randint(0 if number else 1, 3)):
            if rng.random() < 0.3:
                tokens.append(rng.choice(vertices))
            else:
                tokens.append(rng.choice(edges) + ("*" if rng.random() < 0.5 else ""))
    if tokens and rng.random() < 0.35:
        slip = rng.choice(["v*", "unknown", "drop", "double", "stray"])
        at = rng.randrange(len(tokens))
        if slip == "v*":
            tokens.insert(at, rng.choice(vertices) + "*")
        elif slip == "unknown":
            tokens.insert(at, rng.choice(["w1", "e0", "x.y", "v", "_"]))
        elif slip == "drop":
            del tokens[at]
        elif slip == "double":
            tokens.insert(at, rng.choice("+-"))
        else:
            tokens.insert(at, rng.choice(["$", "*", "/", "2/", "#x", "\u00e9"]))
    return "".join(tok + rng.choice(["", " ", " ", " ", "  ", "\t"]) for tok in tokens)
