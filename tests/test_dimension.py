"""Dimension triples: equality, cone decisions, isomorphism search, tensor maps."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    apply_power_oracle,
    cone_by_dense_iteration,
    cyclic_cone_oracle,
    det_oracle,
    is_primitive_matrix,
    kron_oracle,
    lattice_level_oracle,
    matmul_count,
    perron_sign_by_iteration,
    random_adjacency,
    random_block_cyclic,
    row_sum_perron_vector,
)

from sftkit import dimension, linalg
from sftkit.dimension import (
    Candidate,
    DimElement,
    DimensionTriple,
    InCone,
    Infeasible,
    IntertwinerSystem,
    ModuleIsoCandidate,
    NotFoundWithinBounds,
    NotInCone,
    Unknown,
    candidate_to_json,
    dg_add,
    dg_equal,
    dg_neg,
    dg_positive,
    dg_scale,
    dg_shift,
    element_to_json,
    from_graph,
    lattice_level,
    order_unit,
    product_triple,
    rational_to_element,
    search_module_iso,
    search_pointed_intertwiner,
    tensor_phi,
    tensor_psi,
    verify_module_iso,
    zero,
)
from sftkit.errors import HasSinks, ShapeError, UndecidedError
from sftkit.graphs import from_adjacency, transpose
from sftkit.linalg import Matrix
from sftkit.polynomials import Poly


def _m(rows) -> Matrix:
    return Matrix.from_rows(rows)


def _t(rows) -> DimensionTriple:
    """Triple whose acting matrix is exactly `rows`."""
    return DimensionTriple(_m(rows))


_FULL2 = _t([[1, 1], [2, 0]])  # acting matrix of the two-vertex graph [[1,2],[1,0]]


def test_from_graph_transposes_adjacency():
    g = from_adjacency(_m([[1, 2], [1, 0]]))
    t = from_graph(g)
    assert t.matrix == _m([[1, 1], [2, 0]])
    assert from_graph(_m([[1, 2], [1, 0]])) == t
    with pytest.raises(HasSinks):
        from_graph(from_adjacency(_m([[0, 1], [0, 0]])))


def test_order_unit_and_zero():
    assert order_unit(_FULL2) == DimElement((1, 1), 0)
    assert zero(_FULL2) == DimElement((0, 0), 0)


def test_shift_formula():
    rng = random.Random(61)
    for _ in range(20):
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        shifted = dg_shift(_FULL2, DimElement((a, b), 0))
        assert dg_equal(_FULL2, shifted, DimElement((a + b, 2 * a), 0))


def test_shift_up_and_down_are_inverse_and_preserve_cone():
    rng = random.Random(62)
    for _ in range(25):
        x = DimElement(
            tuple(rng.randrange(-4, 5) for _ in range(2)), rng.randrange(0, 3)
        )
        back = dg_shift(_FULL2, dg_shift(_FULL2, x, 1), -1)
        assert dg_equal(_FULL2, back, x)
        same_pos = isinstance(dg_positive(_FULL2, x), InCone) == isinstance(
            dg_positive(_FULL2, dg_shift(_FULL2, x, 1)), InCone
        )
        assert same_pos


def test_stage_shift_identity():
    # [a, k] and [M a, k+1] are the same class by definition
    rng = random.Random(63)
    for _ in range(20):
        a = tuple(rng.randrange(-4, 5) for _ in range(2))
        k = rng.randrange(0, 3)
        ma = tuple(int(x) for x in _FULL2.matrix.apply([Fraction(v) for v in a]))
        assert dg_equal(_FULL2, DimElement(a, k), DimElement(ma, k + 1))


def test_dg_equal_is_equivalence_and_add_well_defined():
    rng = random.Random(64)
    t = _t([[1, 1], [1, 1]])  # singular acting matrix: distinct vectors can merge
    elems = [
        DimElement((rng.randrange(-2, 3), rng.randrange(-2, 3)), rng.randrange(0, 2))
        for _ in range(12)
    ]
    for x in elems:
        assert dg_equal(t, x, x)
    for x in elems:
        for y in elems:
            assert dg_equal(t, x, y) == dg_equal(t, y, x)
            if dg_equal(t, x, y):
                for w in elems[:4]:
                    assert dg_equal(t, dg_add(t, x, w), dg_add(t, y, w))
    # a concrete merge: (1,0) and (0,1) act identically one stage later
    assert dg_equal(t, DimElement((1, 0), 0), DimElement((0, 1), 0))


def test_add_neg_scale():
    rng = random.Random(65)
    for _ in range(20):
        x = DimElement(
            tuple(rng.randrange(-4, 5) for _ in range(2)), rng.randrange(0, 3)
        )
        assert dg_equal(_FULL2, dg_add(_FULL2, x, dg_neg(_FULL2, x)), zero(_FULL2))
        assert dg_equal(_FULL2, dg_scale(_FULL2, 3, x), dg_add(_FULL2, x, dg_add(_FULL2, x, x)))


def test_element_maps_match_matrix_vector_loop():
    # dg_shift, dg_add, dg_equal, tensor_phi and rational_to_element apply
    # M^p as p matrix-vector products, never forming a matrix power; each
    # result must equal the plain loop's, for p = 0, 1, n and 3n
    rng = random.Random(66)
    seen = Counter()
    for _ in range(25):
        n = rng.randint(1, 6)
        t = DimensionTriple(random_adjacency(rng, n, 2))
        u = DimensionTriple(random_adjacency(rng, rng.randint(1, 4), 2))
        m = t.matrix
        basis = linalg.nullspace(m)
        den = math.lcm(*(e.denominator for e in basis[0])) if basis else 1
        kernel = [int(e * den) for e in basis[0]] if basis else None
        for p in (0, 1, n, 3 * n):
            a = tuple(rng.randrange(-5, 6) for _ in range(n))
            b = tuple(rng.randrange(-5, 6) for _ in range(n))
            c = tuple(rng.randrange(-5, 6) for _ in range(u.n))
            k = rng.randrange(0, 3)
            x, y = DimElement(a, k), DimElement(b, p)
            pa = apply_power_oracle(m, p, a)
            # [M^p a + z, k + p] is the class of x for z in the kernel of a
            # singular M; for an invertible M, z is random and it is not
            scale = rng.randrange(-2, 3)
            z = [scale * e for e in kernel] if kernel else b
            moved = tuple(s + r for s, r in zip(pa, z))
            merges = not any(apply_power_oracle(m, n, [s - r for s, r in zip(pa, moved)]))
            seen[merges] += 1
            uc = apply_power_oracle(u.matrix, k, c)
            got, products = matmul_count(lambda: (
                dg_shift(t, x, p),
                dg_add(t, x, y),
                dg_equal(t, x, DimElement(pa, k + p)),
                dg_equal(t, x, DimElement(moved, k + p)),
                tensor_phi(t, u, x, DimElement(c, p)),
            ))
            assert products == 0
            assert got == (
                DimElement(pa, k),
                DimElement(tuple(s + r for s, r in zip(pa, apply_power_oracle(m, k, b))), k + p),
                True,
                merges,
                DimElement(tuple(s * r for s in pa for r in uc), k + p),
            ), (m, p)
        v = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 4])) for _ in range(n)]
        el = rational_to_element(t, v)
        if el is not None:
            assert el.a == apply_power_oracle(m, el.k, v)
            assert all(type(e) is int for e in el.a)
            seen["rational"] += 1
    assert min(seen.values()) >= 8, seen


def test_cone_decision_matches_perron_functional():
    # cone functional of [[1,1],[2,0]] is 2a + b
    for a in (-2, -1, 1, 2):
        for b in (-2, -1, 1, 2):
            res = dg_positive(_FULL2, DimElement((a, b), 0))
            if 2 * a + b > 0:
                assert isinstance(res, InCone)
            else:
                assert isinstance(res, NotInCone)


def test_zero_pairing_nonzero_class_is_not_in_cone():
    res = dg_positive(_FULL2, DimElement((1, -2), 0))
    assert isinstance(res, NotInCone)
    assert dg_positive(_FULL2, DimElement((0, 0), 2)) == InCone(0)


def test_cone_closure_under_addition():
    rng = random.Random(66)
    kept = []
    while len(kept) < 12:
        x = DimElement(
            tuple(rng.randrange(-3, 4) for _ in range(2)), rng.randrange(0, 2)
        )
        if isinstance(dg_positive(_FULL2, x), InCone):
            kept.append(x)
    for i in range(0, len(kept) - 1, 2):
        s = dg_add(_FULL2, kept[i], kept[i + 1])
        assert isinstance(dg_positive(_FULL2, s), InCone)


def _dying_vectors(m: Matrix) -> list[tuple[int, ...]]:
    """Nonzero integer vectors a with M^n a = 0: each echelon basis vector of
    ker M^n with its denominators cleared, its negative, and the alternating
    sum of the basis."""
    basis = [
        tuple(int(x * math.lcm(*(y.denominator for y in v))) for x in v)
        for v in linalg.nullspace(m ** m.nrows)
    ]
    out = [w for v in basis for w in (v, tuple(-x for x in v))]
    if len(basis) > 1:
        out.append(tuple(sum((-1) ** i * v[j] for i, v in enumerate(basis))
                         for j in range(m.nrows)))
    return out


def _assert_dying_class_certified(m: Matrix, a) -> None:
    """A nonzero a with M^n a = 0 is the zero class: every bound is raised to
    at least n, so the iteration certifies it before any Perron pairing."""
    for stage, bound in enumerate((0, 2, 24)):
        res = dg_positive(DimensionTriple(m), DimElement(a, stage), bound)
        assert isinstance(res, InCone) and res.power <= m.nrows, (m, a, res)
        assert all(v >= 0 for v in (m ** res.power).apply(a)), (m, a, res)


def test_cone_decision_against_brute_iteration():
    # random vectors on primitive M against brute iteration, plus the dying
    # vectors of those M and of reducible M
    rng = random.Random(67)
    checked = 0
    seen = Counter()
    while checked < 40:
        n = rng.randrange(2, 4)
        m = random_adjacency(rng, n, 3)
        if not is_primitive_matrix(m):
            continue
        t = DimensionTriple(m)
        a = tuple(rng.randrange(-3, 4) for _ in range(n))
        checked += 1
        res = dg_positive(t, DimElement(a, 0))
        cur = [Fraction(x) for x in a]
        brute = False
        for _ in range(51):
            if all(v >= 0 for v in cur):
                brute = True
                break
            cur = m.apply(cur)
        assert isinstance(res, InCone) == brute
        for a in _dying_vectors(m):
            _assert_dying_class_certified(m, a)
            seen["primitive"] += 1
    while seen["reducible"] < 40:
        m = random_adjacency(rng, rng.randrange(2, 5), 2)
        if linalg.is_irreducible_matrix(m):
            continue
        for a in _dying_vectors(m):
            _assert_dying_class_certified(m, a)
            seen["reducible"] += 1
    assert seen["primitive"] >= 10, seen


def test_periodic_matrix_blockwise_decision():
    swap = _t([[0, 1], [1, 0]])
    assert isinstance(dg_positive(swap, DimElement((1, 1), 0)), InCone)
    assert isinstance(dg_positive(swap, DimElement((1, 0), 0)), InCone)
    # positive total weight but one coordinate stays negative forever
    assert isinstance(dg_positive(swap, DimElement((3, -1), 0)), NotInCone)


def _class_vector(rng: random.Random, m: Matrix, classes) -> tuple[int, ...]:
    """Per cyclic class: mostly positive, mostly negative, mixed, a difference
    of two vertices, or a large near-cancelling part pairing to +-w_i."""
    a = [0] * m.nrows
    for cls in classes:
        kind = rng.randrange(5) if len(cls) > 1 else rng.randrange(3)
        if kind < 3:
            lo, hi = ((-1, 3), (-3, 1), (-2, 2))[kind]
            for i in cls:
                a[i] = rng.randint(lo, hi)
            continue
        i, j = rng.sample(cls, 2)
        if kind == 3:
            a[i], a[j] = 1, -1
        else:
            w, k = row_sum_perron_vector(m), rng.randint(20, 80)
            a[i] = k * w[j].numerator * w[i].denominator + rng.choice((1, 1, -1))
            a[j] = -k * w[i].numerator * w[j].denominator
    return tuple(a)


def _dying_class_vector(rng: random.Random, m: Matrix, classes):
    """A nonzero part in ker M^n on one cyclic class (M maps the parts of a
    vector to disjoint classes, so each part of a dying vector dies), and on
    every other class a near-cancelling part pairing to +w_i (a large
    multiple of w_j e_i - w_i e_j, plus e_i) or, on a one-vertex class, a
    positive entry; None when M is invertible."""
    w = row_sum_perron_vector(m)
    dying = [
        (cls, [x if i in cls else 0 for i, x in enumerate(v)])
        for v in _dying_vectors(m)
        for cls in classes
        if any(v[i] for i in cls)
    ]
    if not dying:
        return None
    home, a = rng.choice(dying)
    for cls in classes:
        if cls is home:
            continue
        if len(cls) == 1:
            a[cls[0]] = rng.randint(1, 3)
            continue
        i, j = rng.sample(cls, 2)
        k = rng.randint(10**3, 10**4)
        a[i] = k * w[j].numerator * w[i].denominator + 1
        a[j] = -k * w[i].numerator * w[j].denominator
    return tuple(a)


def test_periodic_cone_decision_matches_class_oracle():
    # one pass over the cyclic classes: the Perron sign of M, then at most
    # one per class, all off one Faddeev-LeVerrier run; irreducibility is
    # checked at most once (by the PerronData), and whether a part dies is
    # read off the iterates, not off a matrix power.  Besides the class
    # vector, each matrix with a kernel part decides a vector whose
    # dying part sits beside near-cancelling parts: it is in the cone, often
    # past the iteration bound, where the dying part is recognised in
    # M^(bound+1) a on the class the iterates rotated it to
    rng, dying_rng = random.Random(31), random.Random(32)
    seen = Counter()
    with mock.patch.object(
        dimension, "perron_pairing_sign", wraps=dimension.perron_pairing_sign
    ) as spy, mock.patch.object(
        linalg, "_faddeev_leverrier", wraps=linalg._faddeev_leverrier
    ) as runs, mock.patch.object(
        linalg, "strong_components", wraps=linalg.strong_components
    ) as passes:
        for trial in range(400):
            period = 2 + trial % 3
            m, classes = random_block_cyclic(rng, period, 3, rng.randint(1, 3))
            vectors = (_class_vector(rng, m, classes), _dying_class_vector(dying_rng, m, classes))
            for kind, a in zip(("class", "dying part"), vectors):
                if a is None:
                    continue
                spy.reset_mock()
                runs.reset_mock()
                passes.reset_mock()
                res, products = matmul_count(
                    lambda: dg_positive(DimensionTriple(m), DimElement(a, 0), (0, 2)[trial % 2])
                )
                assert isinstance(res, InCone) == cyclic_cone_oracle(m, classes, a), (m, a)
                assert spy.call_count <= 1 + period, (m, a, spy.call_count)
                assert runs.call_count <= 1, (m, a, runs.call_count)
                assert passes.call_count <= 1, (m, a, passes.call_count)
                assert products == 0, (m, a, products)
                if isinstance(res, NotInCone):
                    seen[res.reason] += 1
                elif res.power is None or res.power > m.nrows:
                    seen[f"{kind} in cone past the iteration bound"] += 1
    assert seen["some cyclic class stays negative"] >= 60, seen
    assert seen["class in cone past the iteration bound"] >= 2, seen
    assert seen["dying part in cone past the iteration bound"] >= 20, seen


def test_cone_decisions_match_dense_iteration():
    # dg_positive steps its iterates over the nonzero entries of M; dense
    # iteration must give the same decision and the same certificate power.
    # Primitive M take their membership from power iteration (a vector it
    # cannot sign, as w . a = 0, is dropped: other tests decide those), period
    # 2 and 3 ones from their classes, and reducible ones report Unknown past
    # the bound.  Besides random vectors, each M decides a = q_j e_i - q_i e_j
    # +- e_i for every i != j, with q = 1 (M + I)^40 nearly a multiple of the
    # left Perron vector, so a pairs near zero and runs past the iteration
    # bound, often into the certificate loop
    rng = random.Random(36)
    cases = []
    while len(cases) < 24:
        m = random_adjacency(rng, rng.randint(1, 8), rng.choice((1, 1, 3)))
        if is_primitive_matrix(m):
            cases.append((m, lambda m, a: perron_sign_by_iteration(m, a, 2000) > 0))
    for period in (2, 3):
        for _ in range(8):
            m, classes = random_block_cyclic(rng, period, 3, rng.randint(1, 3))
            cases.append((m, lambda m, a, classes=classes: cyclic_cone_oracle(m, classes, a)))
    while len(cases) < 56:
        m = random_adjacency(rng, rng.randint(1, 6), 2)
        if not linalg.is_irreducible_matrix(m):
            cases.append((m, lambda m, a: None))
    seen = Counter()
    for m, member in cases:
        n = m.nrows
        vectors = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(4)]
        q = apply_power_oracle((m + Matrix.identity(n)).transpose(), 40, [1] * n)
        for i, j in itertools.permutations(range(n), 2) if n > 1 else ():
            a = [0] * n
            a[i], a[j] = q[j] + rng.choice((-1, 1)), -q[i]
            vectors.append(tuple(a))
        for a in vectors:
            try:
                in_cone = member(m, a)
            except AssertionError:
                seen["dropped"] += 1
                continue
            iterate_bound = rng.choice((0, 2, dimension.DEFAULT_ITERATE_BOUND))
            bound = max(iterate_bound, n)
            res = dg_positive(DimensionTriple(m), DimElement(a, 0), iterate_bound)
            got = {InCone: ("in_cone", getattr(res, "power", None)), NotInCone: ("not_in_cone", None),
                   Unknown: ("unknown", getattr(res, "bound", None))}[type(res)]
            expected = cone_by_dense_iteration(m, a, bound, dimension._CERTIFICATE_CAP, lambda: in_cone)
            assert got == expected, (m, a, iterate_bound)
            past = expected[0] == "in_cone" and (expected[1] is None or expected[1] > bound)
            seen[expected[0] + (" past the bound" if past else "")] += 1
    assert seen["in_cone"] >= 100 and seen["in_cone past the bound"] >= 200, seen
    assert seen["not_in_cone"] >= 400 and seen["unknown"] >= 100 and seen["dropped"] <= 5, seen


def test_proven_positive_class_past_the_certificate_cap_is_in_cone():
    # [F601, -F602] pairs to -psi^601 > 0 against the Perron vector (phi, 1),
    # but its first nonnegative iterate lies about 600 steps out, beyond the
    # iteration bound plus the certificate cap
    fib = [0, 1]
    while len(fib) < 603:
        fib.append(fib[-1] + fib[-2])
    t = _t([[1, 1], [1, 0]])
    assert dg_positive(t, DimElement((fib[601], -fib[602]), 0)) == InCone(None)
    assert isinstance(dg_positive(t, DimElement((-fib[601], fib[602]), 0)), NotInCone)


def test_reducible_matrix_can_report_unknown():
    t = _t([[1, 1], [0, 1]])
    res = dg_positive(t, DimElement((-1, 0), 0))
    assert isinstance(res, Unknown)
    assert res.bound >= 1
    # but certificates still decide easy cases
    assert isinstance(dg_positive(t, DimElement((-1, 5), 0)), InCone)


def test_lattice_level_and_rational_elements():
    t = _t([[1, 2], [1, 0]])  # acting matrix for the reversed two-vertex graph
    assert lattice_level(t, [Fraction(1), Fraction(1, 2)]) == 1
    assert lattice_level(t, [Fraction(1), Fraction(1)]) == 0
    assert lattice_level(t, [Fraction(1, 3), Fraction(0)]) is None
    el = rational_to_element(t, [Fraction(1), Fraction(1, 2)])
    assert el is not None
    assert dg_equal(t, el, DimElement((2, 1), 1))


def _acting_matrix(rng: random.Random, kind: str, n: int) -> Matrix:
    """A nonnegative n x n integer matrix that is singular, nilpotent (strictly
    upper triangular), a permutation, or invertible."""
    while True:
        if kind == "nilpotent":
            return _m([[rng.randint(0, 2) * (j > i) for j in range(n)] for i in range(n)])
        if kind == "permutation":
            p = rng.sample(range(n), n)
            return _m([[int(j == p[i]) for j in range(n)] for i in range(n)])
        m = random_adjacency(rng, n, 2)
        if (det_oracle(m) == 0) == (kind == "singular"):
            return m


def test_lattice_level_matches_residue_walk_oracle():
    # the bounded walk against the oracle's complete residue walk, for n <= 3
    # and common denominators d <= 12: the same smallest k, the same misses,
    # and the class's vector is M^k v with int entries
    rng = random.Random(301)
    seen = Counter()
    for trial in range(600):
        kind = ("singular", "nilpotent", "permutation", "invertible")[trial % 4]
        n = rng.randint(1, 3)
        m = _acting_matrix(rng, kind, n)
        t = DimensionTriple(m)
        d = rng.randint(1, 12)
        v = [Fraction(rng.randint(-2 * d, 2 * d), d) for _ in range(n)]
        want = lattice_level_oracle(m, v)
        assert lattice_level(t, v) == want, (m, v)
        el = rational_to_element(t, v)
        if want is None:
            assert el is None, (m, v)
        else:
            assert el.k == want and el.a == apply_power_oracle(m, want, v), (m, v)
            assert all(type(x) is int for x in el.a)
        seen[kind, "miss" if want is None else min(want, 2)] += 1
    for key in (("singular", "miss"), ("singular", 2), ("nilpotent", 2),
                ("permutation", "miss"), ("permutation", 0), ("invertible", "miss"),
                ("invertible", 2)):
        assert seen[key] >= 5, seen
    assert seen["nilpotent", "miss"] == 0, seen


def test_group_membership_walk_stops_at_its_proven_bound():
    # the companion graph of x^15 - x - 1: vertex i -> i + 1, and the last
    # vertex -> the first two.  M is invertible over Z, so e_1 / 2 never
    # becomes integral, and the fractional parts of its iterates run through
    # all 2^15 - 1 nonzero residues mod 2; the walk stops after
    # n floor(log2 2) = 15 products
    n = 15
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    rows[-1][0] = rows[-1][1] = 1
    a = _m(rows)
    assert is_primitive_matrix(a) and sum(map(sum, rows)) == 16
    assert linalg.char_poly(a) == Poly.from_coeffs([-1, -1] + [0] * 13 + [1])
    t = from_graph(a)
    with mock.patch.object(Matrix, "apply", autospec=True, side_effect=Matrix.apply) as apply:
        assert lattice_level(t, [Fraction(1, 2)] + [0] * (n - 1)) is None
    assert apply.call_count <= 16
    start = time.perf_counter()
    two = _m([[2 * (i == j) for j in range(n)] for i in range(n)])
    assert not verify_module_iso(t, t, ModuleIsoCandidate(two))
    assert time.perf_counter() - start < 1


def _unit_class_equal(t: DimensionTriple, u: Matrix) -> bool:
    """The pointed condition as a class equality: U 1 is an element of the
    group and equals the order unit."""
    elem = rational_to_element(t, u.apply((1,) * u.ncols))
    return elem is not None and dg_equal(t, elem, order_unit(t))


def test_pointed_condition_matches_unit_class_equality():
    # verify_module_iso's pointed condition M_B^n (U 1 - 1) = 0 against the
    # class equality it stands for, on rational combinations of the
    # intertwiners of seeded acting matrices (singular ones included) and on
    # the identity; on M = [[1, 1], [0, 0]] with U = [[1, b], [0, 1 - b]],
    # whose U 1 - 1 is the nonzero kernel vector (b, -b); and on diagonal U
    # for M = [[2, 0], [0, 0]] and [[2, 0], [0, 3]], an order automorphism
    # when its entries are powers of 2 and 3 (of 2 and anything for the
    # first M)
    rng = random.Random(302)
    grid = [Fraction(p, q) for q in (1, 2, 3) for p in range(-2, 3)]
    cases = []
    for trial in range(120):
        kind = ("singular", "nilpotent", "permutation", "invertible")[trial % 4]
        n = rng.randint(1, 3)
        ma = _acting_matrix(rng, kind, n)
        mb = ma if trial % 3 else _acting_matrix(rng, "singular", n)
        basis = linalg.intertwiner_space(ma, mb)
        coeffs = [rng.choice(grid) for _ in basis]
        u = _m([[sum(c * b[i, j] for c, b in zip(coeffs, basis)) for j in range(n)]
                for i in range(n)])
        cases += [(ma, mb, u), (ma, ma, Matrix.identity(n))]
    ker = _m([[1, 1], [0, 0]])
    cases += [(ker, ker, _m([[1, b], [0, 1 - b]])) for b in grid if b != 1]
    for m in (_m([[2, 0], [0, 0]]), _m([[2, 0], [0, 3]])):
        for x in (Fraction(1, 2), 1, 2, 4, -2):
            cases += [(m, m, _m([[x, 0], [0, y]])) for y in (Fraction(1, 3), 1, 3, Fraction(1, 2))]
    seen = Counter()
    for ma, mb, u in cases:
        ta, tb = DimensionTriple(ma), DimensionTriple(mb)
        unit = _unit_class_equal(tb, u)
        excess = [x - 1 for x in apply_power_oracle(u, 1, [1] * u.ncols)]
        assert unit == (not any(apply_power_oracle(mb, mb.nrows, excess))), (mb, u)
        try:
            iso = verify_module_iso(ta, tb, ModuleIsoCandidate(u))
        except UndecidedError:
            seen["undecided"] += 1
            continue
        assert verify_module_iso(ta, tb, ModuleIsoCandidate(u, pointed=True)) == (iso and unit)
        seen[iso, unit, det_oracle(mb) == 0] += 1
    assert seen[True, True, True] >= 5 and seen[True, False, True] >= 5, seen
    assert seen[True, True, False] >= 5 and seen[True, False, False] >= 5, seen


def test_pointed_check_comes_before_positivity():
    # U intertwines M with itself, but M^3 (U 1 - 1) != 0, so the pointed
    # candidate is a proven no; positivity of its generator images is
    # undecided, which the unpointed candidate shows, and is never asked
    m = _m([[0, 0, 2], [0, 2, 0], [2, 2, 0]])
    h = Fraction(1, 2)
    u = _m([[-1, h, -h], [0, -3 * h, 0], [-h, 0, -1]])
    t = DimensionTriple(m)
    with pytest.raises(UndecidedError):
        verify_module_iso(t, t, ModuleIsoCandidate(u))
    with mock.patch.object(dimension, "dg_positive", side_effect=AssertionError):
        assert verify_module_iso(t, t, ModuleIsoCandidate(u, pointed=True)) is False


def test_verify_module_iso_identity_and_diagonal_half():
    g = from_adjacency(_m([[1, 2], [1, 0]]))
    ta = from_graph(g)
    assert verify_module_iso(ta, ta, ModuleIsoCandidate(Matrix.identity(2), pointed=True))
    tb = from_graph(transpose(g))
    u = Matrix.from_rows([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2)]])
    assert verify_module_iso(ta, tb, ModuleIsoCandidate(u, pointed=False))
    # the same map does not respect the units
    assert not verify_module_iso(ta, tb, ModuleIsoCandidate(u, pointed=True))


def test_verify_module_iso_rejects_singular_and_bad_shape():
    assert not verify_module_iso(
        _FULL2, _FULL2, ModuleIsoCandidate(Matrix.from_rows([[0, 0], [0, 0]]))
    )
    with pytest.raises(ShapeError):
        verify_module_iso(_FULL2, _FULL2, ModuleIsoCandidate(Matrix.identity(3)))


def _assert_refusals(cases) -> None:
    for call, message in cases:
        with pytest.raises(ShapeError) as exc:
            call()
        assert str(exc.value) == message


def test_element_maps_check_their_triple_and_entries():
    # dg_neg and dg_scale check the element against the triple, as dg_add
    # does, and an element's entries and stage are ints: a float or a
    # Fraction is refused when the element is built
    _assert_refusals([
        (lambda: dg_neg(_FULL2, DimElement((1, 2, 3), 0)), "element lives in Z^3, triple needs Z^2"),
        (lambda: dg_scale(_FULL2, 2, DimElement((1,), 0)), "element lives in Z^1, triple needs Z^2"),
        (lambda: dg_positive(_FULL2, DimElement((0.5, 1), 0)),
         "element entries must be ints, got (0.5, 1)"),
        (lambda: dg_scale(_FULL2, Fraction(1, 2), DimElement((2, 1), 0)),
         "element entries must be ints, got (Fraction(1, 1), Fraction(1, 2))"),
        (lambda: DimElement((True, 1), 0), "element entries must be ints, got (True, 1)"),
        (lambda: DimElement((1, 1), 0.5), "stage index must be a nonnegative int, got 0.5"),
    ])


def test_refusals_name_their_cause():
    # each remaining refusal path of the module, with its message
    two_by_three = ModuleIsoCandidate(_m([[1, 0, 0], [0, 1, 0]]))
    _assert_refusals([
        (lambda: dg_add(_FULL2, zero(_FULL2), DimElement((1,), 0)),
         "element lives in Z^1, triple needs Z^2"),
        (lambda: _t([[1, -1], [0, 1]]), "acting matrix must be a nonnegative integer matrix"),
        (lambda: _t([[Fraction(1, 2)]]), "acting matrix must be a nonnegative integer matrix"),
        (lambda: verify_module_iso(_FULL2, _t([[1]]), two_by_three),
         "triples of different rank cannot be compared by a square matrix"),
        (lambda: tensor_psi(_FULL2, _FULL2, DimElement((1, 2, 3), 0)),
         "element does not live in the product triple"),
        (lambda: lattice_level(_FULL2, [Fraction(1, 2)]), "vector length does not match the triple"),
        (lambda: rational_to_element(_FULL2, [0.5, 1]), "vector entries must be ints or Fractions"),
    ])
    # an exact candidate that does not intertwine is a plain no
    assert _m([[1, 1], [0, 1]]) @ _FULL2.matrix != _FULL2.matrix @ _m([[1, 1], [0, 1]])
    assert not verify_module_iso(_FULL2, _FULL2, ModuleIsoCandidate(_m([[1, 1], [0, 1]])))


def test_search_pointed_intertwiner_infeasible_for_reversed_pair():
    g = from_adjacency(_m([[1, 2], [1, 0]]))
    ta, tb = from_graph(g), from_graph(transpose(g))
    res = search_pointed_intertwiner(ta, tb)
    assert isinstance(res, Infeasible)
    labels = res.system.labels
    assert any(l.startswith("unit") for l in labels)
    # the certificate is an exact proof: it kills every equation but pays 1 on the rhs
    y = res.certificate
    coeff = res.system.coefficients
    for j in range(coeff.ncols):
        assert sum(y[i] * coeff[i, j] for i in range(coeff.nrows)) == 0
    assert sum(a * b for a, b in zip(y, res.system.rhs)) == 1


def test_intertwiner_system_matches_kronecker_oracle():
    rng = random.Random(151)
    for _ in range(60):
        n, m = rng.sample(range(1, 6), 2)
        ta = DimensionTriple(random_adjacency(rng, n, 3))
        tb = DimensionTriple(random_adjacency(rng, m, 3))
        coeffs = kron_oracle(Matrix.identity(m), ta.matrix.transpose()) - kron_oracle(
            tb.matrix, Matrix.identity(n)
        )
        assert linalg.intertwiner_matrix(ta.matrix, tb.matrix) == coeffs
        units = kron_oracle(Matrix.identity(m), _m([[1] * n]))
        for pointed in (False, True):
            system = dimension._intertwiner_system(ta, tb, pointed)
            expected = coeffs.rows + (units.rows if pointed else ())
            assert system.coefficients.rows == expected
            assert all(type(x) is int for row in system.coefficients.rows for x in row)
            assert all(type(row) is tuple for row in system.coefficients.rows)
            assert system.rhs == (0,) * (m * n) + (1,) * (m if pointed else 0)
            assert len(system.labels) == len(expected)


def test_search_module_iso_unpointed_finds_candidate():
    g = from_adjacency(_m([[1, 2], [1, 0]]))
    ta, tb = from_graph(g), from_graph(transpose(g))
    res = search_module_iso(ta, tb, pointed=False)
    assert isinstance(res, Candidate)
    assert verify_module_iso(ta, tb, ModuleIsoCandidate(res.matrix, pointed=False))


def test_search_module_iso_pointed_identity_pair():
    res = search_module_iso(_FULL2, _FULL2, pointed=True)
    assert isinstance(res, Candidate)
    assert verify_module_iso(_FULL2, _FULL2, ModuleIsoCandidate(res.matrix, pointed=True))


def test_search_not_found_within_small_bounds_is_inconclusive():
    ta = _t([[19, 4], [5, 1]])
    tb = _t([[19, 5], [4, 1]])
    res = search_module_iso(ta, tb, pointed=True, denominator_max=1, value_max=0,
                            candidate_budget=10)
    assert isinstance(res, (NotFoundWithinBounds, Candidate, Infeasible))
    if isinstance(res, NotFoundWithinBounds):
        assert res.tried >= 0


# sha256 of the JSON list of search_module_iso outcomes on seeded pairs of
# small triples (the hard pair, the identity against a Jordan block, then
# twelve pairs of random 1-3 x 1-3 matrices with entries 0-2: a matrix against
# its transpose, against itself, or against another), pointed and unpointed,
# with candidate_budget 0, 1, 5 and the default, over the grids of
# denominator_max 1-2 and value_max 0-1; each outcome is its kind plus the
# candidate's rows, the tried count or the certificate.  Recorded while the
# search kept its own budget counter
_MODULE_ISO_OUTCOMES = "ae1adc6aaa954986505fa4a6c8cf3a3c2fe2645e1a930712ae567a4e5b6bbd18"


def _digest(found) -> str:
    return hashlib.sha256(json.dumps(found, separators=(",", ":")).encode()).hexdigest()


def _outcome(res) -> list:
    if isinstance(res, Candidate):
        return ["candidate", res.matrix.to_json_rows()]
    if isinstance(res, NotFoundWithinBounds):
        return ["not_found", res.tried]
    return ["infeasible", [str(x) for x in res.certificate]]


def _seeded_triple_pairs():
    yield _t([[19, 4], [5, 1]]), _t([[19, 5], [4, 1]])
    yield DimensionTriple(Matrix.identity(2)), _t([[1, 1], [0, 1]])
    rng = random.Random(132)
    for k in range(12):
        n = rng.randint(1, 3)
        a = _m([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        if k % 3 == 0:
            b = a.transpose()
        elif k % 3 == 1:
            b = a
        else:
            m = rng.randint(1, 2)
            b = _m([[rng.randint(0, 2) for _ in range(m)] for _ in range(m)])
        yield DimensionTriple(a), DimensionTriple(b)


# sha256 of the JSON list of _grid_values(d, v), each value as str, for
# d = 0..8 and v = 0..6, recorded from the per-denominator loop it replaced
_GRID_VALUES = "18a60805838b1998051498f69cdd0224a2e039c50ea74cc5c6c9683f9a93be83"


def test_grid_values_order_is_pinned():
    assert dimension._grid_values(0, 3) == dimension._grid_values(1, 0) == [0]
    assert [str(x) for x in dimension._grid_values(3, 1)] == [
        "0", "1", "-1", "1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3",
    ]
    assert [str(x) for x in dimension._grid_values(2, 2)] == [
        "0", "1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-3/2",
    ]
    found = [[str(x) for x in dimension._grid_values(d, v)] for d in range(9) for v in range(7)]
    assert _digest(found) == _GRID_VALUES


def test_search_module_iso_outcomes_are_pinned():
    found = []
    for ta, tb in _seeded_triple_pairs():
        for pointed in (True, False):
            for budget in (0, 1, 5, None):
                bounds = {} if budget is None else {"candidate_budget": budget}
                for dmax, vmax in ((1, 0), (1, 1), (2, 0), (2, 1)):
                    res = search_module_iso(ta, tb, pointed=pointed, denominator_max=dmax,
                                            value_max=vmax, **bounds)
                    found.append(_outcome(res))
    assert _digest(found) == _MODULE_ISO_OUTCOMES


def test_grid_values_limit_takes_a_prefix_of_the_grid():
    for d in range(4):
        for v in range(4):
            grid = dimension._grid_values(d, v)
            for limit in (-1, 0, 1, 2, 5, 40):
                assert dimension._grid_values(d, v, limit) == grid[: max(limit, 0)]
    big = 10**9
    # value_max 0 leaves only 0, however large the denominators may be
    assert dimension._grid_values(big, 0, 5) == [0]
    assert dimension._grid_values(big, big, 5) == dimension._grid_values(1, 2) == [0, 1, -1, 2, -2]


def test_search_module_iso_builds_no_more_grid_than_its_budget():
    # a lexicographic scan of 5 tuples reads the first 5 grid values, which for
    # maxima of 10**9 are the whole grid of denominator_max 1 and value_max 2
    big = 10**9
    for ta, tb in _seeded_triple_pairs():
        for pointed in (True, False):
            small = search_module_iso(ta, tb, pointed=pointed, denominator_max=1, value_max=2,
                                      candidate_budget=5)
            assert search_module_iso(ta, tb, pointed=pointed, denominator_max=big,
                                     value_max=big, candidate_budget=5) == small


def test_decision_records_report_their_verdict():
    # (yes, the keys `dimgroup pos` and `iso search` print, in order); a record
    # without a power or a reason leaves that key out
    system = IntertwinerSystem(Matrix.from_rows([[-1], [1]]), (0, 1), ("intertwine[0,0]", "unit[0]"))
    half = Matrix.from_rows([[1, 0], [0, Fraction(1, 2)]])
    cases = [
        (InCone(3), True, {"decision": "in_cone", "certificate_power": 3}),
        (InCone(), True, {"decision": "in_cone"}),
        (NotInCone("some cyclic class stays negative"), False,
         {"decision": "not_in_cone", "reason": "some cyclic class stays negative"}),
        (NotInCone(), False, {"decision": "not_in_cone"}),
        (Unknown(24), False, {"decision": "unknown", "iterate_bound": 24}),
        (Candidate(half), True, {"outcome": "found", "matrix": [[1, 0], [0, "1/2"]]}),
        (Infeasible(system, (1, Fraction(1, 2))), False, {
            "outcome": "infeasible",
            "system": {"labels": ["intertwine[0,0]", "unit[0]"], "coefficients": [[-1], [1]],
                       "rhs": ["0", "1"]},
            "certificate": ["1", "1/2"],
        }),
        (NotFoundWithinBounds(25), False, {"outcome": "not_found_within_bounds", "tried": 25}),
    ]
    for record, yes, payload in cases:
        assert record._verdict() == (yes, payload)
        assert json.dumps(record._verdict()[1]) == json.dumps(payload)


def test_search_module_iso_negative_budget_scans_nothing():
    with mock.patch.object(dimension, "verify_module_iso") as verify:
        res = search_module_iso(_FULL2, _FULL2, pointed=False, candidate_budget=-1)
    assert res == NotFoundWithinBounds(0)
    verify.assert_not_called()


def test_product_triple_and_tensor_unit():
    ta = _t([[1, 1], [1, 0]])
    tb = _t([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    tp = product_triple(ta, tb)
    assert tp.matrix == ta.matrix.kron(tb.matrix)
    u = tensor_phi(ta, tb, order_unit(ta), order_unit(tb))
    assert dg_equal(tp, u, order_unit(tp))


def test_tensor_phi_respects_stage_shifts():
    ta = _t([[1, 1], [1, 0]])
    tb = _t([[0, 1], [1, 1]])
    tp = product_triple(ta, tb)
    rng = random.Random(68)
    for _ in range(20):
        x = DimElement(tuple(rng.randrange(-3, 4) for _ in range(2)), rng.randrange(0, 3))
        y = DimElement(tuple(rng.randrange(-3, 4) for _ in range(2)), rng.randrange(0, 3))
        # replacing x by its equivalent next-stage form does not change the image
        ma = tuple(int(v) for v in ta.matrix.apply([Fraction(c) for c in x.a]))
        x2 = DimElement(ma, x.k + 1)
        assert dg_equal(tp, tensor_phi(ta, tb, x, y), tensor_phi(ta, tb, x2, y))


def test_tensor_phi_psi_roundtrip():
    ta = _t([[1, 1], [1, 0]])
    tb = _t([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    tp = product_triple(ta, tb)
    rng = random.Random(69)
    for _ in range(30):
        z = DimElement(tuple(rng.randrange(-3, 4) for _ in range(6)), rng.randrange(0, 3))
        back = zero(tp)
        for e_i, block in tensor_psi(ta, tb, z):
            back = dg_add(tp, back, tensor_phi(ta, tb, e_i, block))
        assert dg_equal(tp, back, z)


def test_json_writers_keep_their_shape():
    assert element_to_json(DimElement((1, -2), 3)) == {"a": [1, -2], "k": 3}
    u = ModuleIsoCandidate(
        Matrix.from_rows([[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(-3)]]),
        pointed=True,
    )
    out = candidate_to_json(u)
    # int entries stay ints, a non-integral entry prints as "p/q", pointed is a bool
    assert out == {"matrix": [[1, "1/2"], [0, -3]], "pointed": True}
    assert [type(x) for row in out["matrix"] for x in row] == [int, str, int, int]
    assert candidate_to_json(ModuleIsoCandidate(Matrix.from_rows([[2]])))["pointed"] is False
