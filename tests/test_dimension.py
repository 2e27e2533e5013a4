"""Dimension triples: equality, cone decisions, isomorphism search, tensor maps."""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    apply_power_oracle,
    cyclic_cone_oracle,
    is_primitive_matrix,
    kron_oracle,
    matmul_count,
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
from sftkit.errors import HasSinks, ShapeError
from sftkit.graphs import from_adjacency, transpose
from sftkit.linalg import Matrix


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
