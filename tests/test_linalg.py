"""Exact matrix kernel: Smith form, characteristic polynomials, solvers,
bounded integer enumeration, and Perron sign arithmetic."""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, groupby, product
from unittest import mock

import pytest
from helpers import (
    adjugate_xi_minus,
    apply_power_oracle,
    cofactor_det,
    det_oracle,
    faddeev_leverrier_oracle,
    gauss_jordan_oracle,
    is_primitive_matrix,
    matmul_count,
    perron_sign_by_iteration,
    perron_sign_oracle,
    random_adjacency,
    random_block_cyclic,
    random_int_matrix,
    rank_oracle,
)

from sftkit import linalg
from sftkit.errors import InvalidMatrix, NotIrreducible, ShapeError
from sftkit.linalg import (
    Matrix,
    _faddeev_leverrier,
    Sign,
    char_poly,
    cyclic_structure,
    integer_points,
    intertwiner_space,
    is_irreducible_matrix,
    isolate_perron_root,
    nullspace,
    perron_pairing_sign,
    rref,
    sign_at_perron_root,
    smith_normal_form,
    solve_affine_exact,
    AffineInfeasible,
    AffineSolution,
    PerronData,
    vector,
)
from sftkit.polynomials import Poly, count_roots, tarski_query


def _gcd_of_minors(m: Matrix, k: int) -> int:
    """gcd of all k x k minors, the classical invariant-factor oracle."""
    import math

    vals = []
    for rows in combinations(range(m.nrows), k):
        for cols in combinations(range(m.ncols), k):
            sub = [[Fraction(m[i, j]) for j in cols] for i in rows]
            vals.append(int(cofactor_det(sub)))
    return math.gcd(*vals) if vals else 0


# ---------------------------------------------------------------------------
# Matrix basics
# ---------------------------------------------------------------------------


def test_matmul_pow_and_trace():
    a = Matrix.from_rows([[1, 2], [1, 0]])
    assert a @ Matrix.identity(2) == a
    assert a**0 == Matrix.identity(2)
    assert a**3 == a @ a @ a
    assert a.trace() == 1


def test_power_squares_only_while_bits_remain():
    # one product per set bit of k, one squaring per bit after the lowest
    a = Matrix.from_rows([[1, 2], [1, 0]])
    got = [matmul_count(lambda: a**k) for k in range(9)]
    assert [calls for _, calls in got] == [0, 1, 2, 3, 3, 4, 4, 5, 4]
    expected = Matrix.identity(2)
    for power, _ in got:
        assert power == expected
        expected = expected @ a


def test_kron_matches_oracle():
    from helpers import kron_oracle

    rng = random.Random(2)
    for _ in range(20):
        a = random_int_matrix(rng, rng.randrange(1, 4), -2, 2)
        b = random_int_matrix(rng, rng.randrange(1, 4), -2, 2)
        assert a.kron(b) == kron_oracle(a, b)


def test_apply_matches_the_oracle():
    # Matrix.apply is one row-by-column product; every entry follows the
    # number rule, and a vector of the wrong length is refused
    rng = random.Random(23)
    cases = [Matrix.from_rows([[0, 0, 0], [1, -2, 3]]), Matrix.from_rows([[0, 0]] * 3)]
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 1, rng.randint(-4, 4))) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:
            rows[rng.randrange(nrows)] = [0] * ncols
        cases.append(Matrix.from_rows(rows))
    for m in cases:
        vectors = [
            [rng.randint(-5, 5) for _ in range(m.ncols)],
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m.ncols)],
            [Fraction(rng.randint(-5, 5)) for _ in range(m.ncols)],
        ]
        for v in vectors:
            got = m.apply(v)
            assert got == apply_power_oracle(m, 1, v), (m, v)
            assert all(type(x) is int or x.denominator > 1 for x in got), (m, v)
        for bad in ([0] * (m.ncols + 1), [0] * (m.ncols - 1)):
            with pytest.raises(ShapeError, match="vector length does not match column count"):
                m.apply(bad)


def test_sparse_step_matches_apply():
    # the cone's iterates run over the nonzero entries of M alone, and a zero
    # row steps to 0
    rng = random.Random(35)
    for n in range(1, 31):
        for entry_max in (1, 3, 10**6):
            rows = [[rng.choice((0, 0, 0, 1, rng.randint(1, entry_max))) for _ in range(n)]
                    for _ in range(n)]
            for i in rng.sample(range(n), rng.randint(0, n // 3)):
                rows[i] = [0] * n
            m = Matrix.from_rows(rows)
            sparse = linalg._sparse_rows(m)
            assert [list(js) for js, _ in sparse] == linalg.support_digraph(m)
            assert all(len(xs) == len(js) and all(xs) for js, xs in sparse)
            for v in ([rng.randint(-10**6, 10**6) for _ in range(n)], [1] * n, [0] * n):
                assert tuple(linalg._sparse_apply(sparse, v)) == m.apply(v), (m, v)


def test_inverse_random_nonsingular():
    rng = random.Random(4)
    found = 0
    while found < 20:
        m = random_int_matrix(rng, rng.randrange(1, 5), -3, 3)
        if det_oracle(m) == 0:
            continue
        found += 1
        assert m @ m.inverse() == Matrix.identity(m.nrows)


# ---------------------------------------------------------------------------
# Echelon forms
# ---------------------------------------------------------------------------


def test_rref_pivot_count_matches_rank_oracle():
    rng = random.Random(6)
    for _ in range(30):
        m = random_int_matrix(rng, rng.randrange(1, 5), -5, 5)
        reduced, pivots = rref(m)
        assert len(pivots) == rank_oracle([list(r) for r in m.rows])
        for k, col in enumerate(pivots):
            assert reduced[k, col] == 1
            assert all(reduced[i, col] == 0 for i in range(m.nrows) if i != k)


def test_nullspace_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(30):
        m = random_int_matrix(rng, rng.randrange(1, 5), -3, 3)
        basis = nullspace(m)
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        assert len(basis) == m.ncols - rank_oracle([list(r) for r in m.rows])


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_smith_normal_form_known_values():
    m = Matrix.from_rows([[0, -2], [-1, 1]])  # I - [[1,2],[1,0]]
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert [int(d[i, i]) for i in range(2)] == [1, 2]

    m2 = Matrix.from_rows([[-18, -5], [-4, 0]])  # I - [[19,5],[4,1]]
    _, d2, _ = smith_normal_form(m2)
    assert [int(d2[i, i]) for i in range(2)] == [1, 20]


def test_smith_normal_form_random_with_minor_gcd_oracle():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = random_int_matrix(rng, n, -5, 5)
        u, d, v = smith_normal_form(m)
        assert u @ m @ v == d
        assert abs(det_oracle(u)) == 1
        assert abs(det_oracle(v)) == 1
        diag = [int(d[i, i]) for i in range(n)]
        assert all(d[i, j] == 0 for i in range(n) for j in range(n) if i != j)
        assert all(x >= 0 for x in diag)
        for i in range(n - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # classical oracle: product of the first k entries = gcd of k x k minors
        acc = 1
        for k in range(1, n + 1):
            acc *= diag[k - 1]
            assert abs(acc) == _gcd_of_minors(m, k)


# sha256 of the JSON list of (U, D, V) on 8,003 seeded matrices: the 0 x 0,
# 1 x 0 and 2 x 0 ones, 6,000 of shape up to 6 x 6 with entries -6..6, and
# I - A for 2,000 adjacency matrices with n <= 9 and entries 0..3; recorded
# while U and V were kept apart from the worked matrix
_SMITH_FORMS = "8c9abc8319adf8bdf63fd009fa9332126b7046f56f1ad17221cafa2a91339c56"


def _seeded_smith_cases():
    yield from (Matrix.from_rows([]), Matrix.from_rows([[]]), Matrix.from_rows([[], []]))
    rng = random.Random(141)
    for _ in range(6000):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        yield Matrix.from_rows([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
    for _ in range(2000):
        n = rng.randint(1, 9)
        yield Matrix.identity(n) - random_adjacency(rng, n, rng.randint(1, 3))


def test_smith_normal_form_is_pinned():
    found = [[x.rows for x in smith_normal_form(m)] for m in _seeded_smith_cases()]
    assert len(found) == 8003
    assert _digest(found) == _SMITH_FORMS


# ---------------------------------------------------------------------------
# Characteristic polynomial and adjugate
# ---------------------------------------------------------------------------


def test_char_poly_matches_pointwise_determinants():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = random_int_matrix(rng, n, -4, 4)
        p = char_poly(m)
        assert p.degree == n
        for t in (-2, -1, 0, 1, 2, 5):
            shifted = Matrix.identity(n).scale(Fraction(t)) - m
            assert p(Fraction(t)) == det_oracle(shifted)


def test_cayley_hamilton():
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = random_int_matrix(rng, n, -5, 5)
        p = char_poly(m)
        acc = Matrix.from_rows([[0] * n] * n)
        for c in reversed(p.coeffs):
            acc = acc @ m + Matrix.identity(n).scale(c)
        assert acc.is_zero()


def test_adjugate_identity():
    # (xI - m) adj(xI - m) = char_poly(m) I, checked at rational points
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randrange(1, 4)
        m = random_int_matrix(rng, n, -3, 3)
        adj = adjugate_xi_minus(m)
        p = char_poly(m)
        for t in (Fraction(0), Fraction(1), Fraction(7, 2)):
            xi = Matrix.identity(n).scale(t) - m
            adj_t = Matrix.from_rows([[adj[i][j](t) for j in range(n)] for i in range(n)])
            prod_rows = xi @ adj_t
            assert prod_rows == Matrix.identity(n).scale(p(t))


def test_char_poly_and_adjugate_commute_with_transpose():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = random_int_matrix(rng, n, -4, 4)
        assert char_poly(m) == char_poly(m.transpose())
        adj = adjugate_xi_minus(m)
        adj_t = adjugate_xi_minus(m.transpose())
        assert adj_t == [[adj[j][i] for j in range(n)] for i in range(n)]


def _sparse_primitive_01(rng: random.Random, n: int) -> Matrix:
    """Primitive 0/1 matrix: a cycle through all n vertices plus one random
    arc per row (an arc already there adds nothing), redrawn until primitive."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][(i + 1) % n] = 1
            rows[i][rng.randrange(n)] = 1
        m = Matrix.from_rows(rows)
        if is_primitive_matrix(m):
            return m


def _faddeev_leverrier_oracle(m: Matrix) -> tuple:
    """(c, column) as `_faddeev_leverrier` returns them, read off the dense oracle."""
    n = m.nrows
    coeffs, bs = faddeev_leverrier_oracle(m)
    return coeffs[::-1], tuple(tuple(bs[n - 1 - d][j][0] for d in range(n)) for j in range(n))


def _perron_column_oracle(m: Matrix) -> tuple:
    """Column 0 of adj(xI - m^T) from the oracle's B_k, constant term first."""
    return _faddeev_leverrier_oracle(m.transpose())[1]


def test_char_poly_and_perron_column_match_faddeev_leverrier_oracle():
    # the library's Faddeev-LeVerrier runs over the nonzero entries of each
    # row and keeps only column 0 of the adjugate; the oracle multiplies
    # densely and keeps every B_k
    rng = random.Random(17)
    irreducible = [_sparse_primitive_01(rng, n) for n in range(1, 25)]
    dense = [random_int_matrix(rng, n, 0, 3) for n in (2, 3, 5, 8, 12, 16, 24)]
    irreducible += [m for m in dense if is_irreducible_matrix(m)]
    assert len(irreducible) >= 28
    signed = [random_int_matrix(rng, n, -4, 4) for n in range(1, 13)]
    zero_rows = []
    for n in range(1, 9):
        m = [list(row) for row in random_int_matrix(rng, n, 0, 2).rows]
        for i in rng.sample(range(n), rng.randint(1, n)):
            m[i] = [0] * n
        zero_rows.append(Matrix.from_rows(m))
    diagonal = [
        Matrix.from_rows([[rng.randint(-3, 3) * (i == j) for j in range(n)] for i in range(n)])
        for n in range(1, 9)
    ]
    for m in irreducible + dense + signed + zero_rows + diagonal:
        coeffs, _ = faddeev_leverrier_oracle(m)
        assert char_poly(m) == Poly.from_coeffs(coeffs), m
    for m in irreducible:
        assert isolate_perron_root(m).column == _perron_column_oracle(m), m
    # the reducible ones have no PerronData; read their column off the run
    for m in zero_rows + diagonal:
        assert _faddeev_leverrier(m.transpose().to_int_rows())[1] == _perron_column_oracle(m), m


def test_faddeev_leverrier_rows_on_both_sides_of_the_chain_bound():
    # a row of A with at most _CHAIN_ROWS nonzero entries is summed by a
    # chain of adds, a longer one by one zip: rows of every length up to
    # n, 0/1 and larger or negative entries, zero rows, 1 x 1 matrices, and
    # a wide matrix with one fully dense row
    rng = random.Random(29)
    bound = linalg._CHAIN_ROWS
    cases = [Matrix.from_rows([[x]]) for x in (0, 1, 3, -2)]
    for n in (2, 5, 8, 12):
        for entries in ((1,), (1, 2, 3), (-3, -1, 1, 4)):
            rows = []
            for _ in range(n):
                row = [0] * n
                for l in rng.sample(range(n), min(n, rng.choice((0, 1, bound, bound + 1, n)))):
                    row[l] = rng.choice(entries)
                rows.append(row)
            cases.append(Matrix.from_rows(rows))
    n = 60
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
        rows[i][rng.randrange(n)] = rng.randint(1, 3)
    rows[7] = [rng.randint(1, 2) for _ in range(n)]
    wide = Matrix.from_rows(rows)
    assert max(sum(1 for x in row if x) for row in wide.rows) == n > bound
    with mock.patch.object(linalg, "reduce", wraps=reduce) as chained:
        for m in cases + [wide]:
            assert _faddeev_leverrier(m.to_int_rows()) == _faddeev_leverrier_oracle(m), m
    # every chain is at most the stated number of rows deep, and both
    # sides of the bound ran
    assert max(len(call.args[1]) for call in chained.call_args_list) == bound
    assert any(sum(1 for x in row if x) > bound for m in cases for row in m.rows)


def test_row_sum_of_many_rows_keeps_the_chain_shallow():
    # 200,000 rows chained lazily would nest 200,000 iterators, deep enough
    # to overflow the C stack; past the bound they are summed by one zip
    assert linalg._row_sum([[1, 2]], [(0, 1)] * 200_000, 2) == [200_000, 400_000]
    assert linalg._row_sum([[1, 2]], [(0, 3)] * 200_000, 2) == [600_000, 1_200_000]
    assert linalg._row_sum([], [], 3) == [0, 0, 0]


def test_cyclic_structure_builds_one_support_digraph():
    rng = random.Random(18)
    cases = [random_block_cyclic(rng, period, 3, rng.randint(1, 3))[0] for period in (1, 2, 3, 4)]
    cases += [_sparse_primitive_01(rng, n) for n in (1, 5, 9)]
    with mock.patch.object(linalg, "support_digraph", wraps=linalg.support_digraph) as built:
        for m in cases:
            built.reset_mock()
            cyclic_structure(m)
            assert built.call_count == 1, m
        built.reset_mock()
        with pytest.raises(NotIrreducible, match="cyclic structure needs an irreducible matrix"):
            cyclic_structure(Matrix.from_rows([[1, 1], [0, 1]]))
        assert built.call_count == 1


# ---------------------------------------------------------------------------
# Intertwiners and affine solving
# ---------------------------------------------------------------------------


def test_intertwiner_space_commutant_shape():
    m = Matrix.from_rows([[1, 1], [2, 0]])
    basis = intertwiner_space(m, m)
    assert len(basis) == 2
    for u in basis:
        assert u @ m == m @ u
        # commutant of this matrix is {[[a, b], [2b, a-b]]}
        assert u[1, 0] == 2 * u[0, 1]
        assert u[1, 1] == u[0, 0] - u[0, 1]


def test_intertwiner_space_dimension_matches_rank_oracle():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randrange(1, 4)
        m_dim = rng.randrange(1, 4)
        a = random_int_matrix(rng, n, -2, 2)
        b = random_int_matrix(rng, m_dim, -2, 2)
        basis = intertwiner_space(a, b)
        for u in basis:
            assert u @ a == b @ u
        # linearize U a - b U = 0 independently and compare kernel dimensions
        rows = []
        for i in range(m_dim):
            for j in range(n):
                row = [Fraction(0)] * (m_dim * n)
                for k in range(n):
                    row[i * n + k] += a[k, j]
                for k in range(m_dim):
                    row[k * n + j] -= b[i, k]
                rows.append(row)
        assert len(basis) == m_dim * n - rank_oracle(rows)


def test_solve_affine_feasible_and_certificates():
    rng = random.Random(14)
    for _ in range(30):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        a = Matrix.from_rows(
            [[rng.randrange(-3, 4) for _ in range(ncols)] for _ in range(nrows)]
        )
        b = vector(rng.randrange(-3, 4) for _ in range(nrows))
        res = solve_affine_exact(a, b)
        if isinstance(res, AffineSolution):
            assert a.apply(res.particular) == b
            for direction in res.basis:
                assert all(x == 0 for x in a.apply(direction))
        else:
            assert isinstance(res, AffineInfeasible)
            y = res.certificate
            combo = [
                sum(y[i] * a[i, j] for i in range(nrows)) for j in range(ncols)
            ]
            assert all(x == 0 for x in combo)
            assert sum(yi * bi for yi, bi in zip(y, b)) == 1


def test_solve_affine_matches_gauss_jordan_oracle():
    # low-rank systems (a = u v with a short inner dimension), with b either
    # in the column space or pushed off it, so both outcomes occur
    rng = random.Random(16)
    outcomes = {"solution": 0, "infeasible": 0}
    for _ in range(300):
        nrows, ncols, inner = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(0, 3)
        u = [[rng.randrange(-3, 4) for _ in range(inner)] for _ in range(nrows)]
        v = [[rng.randrange(-3, 4) for _ in range(ncols)] for _ in range(inner)]
        rows = [
            [Fraction(sum(u[i][k] * v[k][j] for k in range(inner)), rng.randrange(1, 3))
             for j in range(ncols)]
            for i in range(nrows)
        ]
        a = Matrix.from_rows(rows)
        b = list(a.apply([Fraction(rng.randrange(-3, 4), 2) for _ in range(ncols)]))
        if rng.random() < 0.5:
            b[rng.randrange(nrows)] += rng.randrange(1, 4)
        expected = gauss_jordan_oracle(rows, b)
        outcomes[expected[0]] += 1
        res = solve_affine_exact(a, b)
        if expected[0] == "solution":
            assert isinstance(res, AffineSolution)
            assert (res.particular, res.basis) == expected[1:]
        else:
            assert isinstance(res, AffineInfeasible)
            assert res.certificate == expected[1]
    assert min(outcomes.values()) > 50


def test_integer_points_complete_within_box():
    # one free direction: particular (1/2, 0), basis {(1/2, 1)}
    particular = vector([Fraction(1, 2), Fraction(0)])
    basis = [vector([Fraction(1, 2), Fraction(1)])]
    got = sorted(
        tuple(int(x) for x in p)
        for p in integer_points(particular, basis, 0, 4, budget=1000)
    )
    brute = []
    for t in range(-20, 21):
        x = (Fraction(1, 2) + Fraction(t, 2), Fraction(t))
        if all(v.denominator == 1 and 0 <= v <= 4 for v in x):
            brute.append(tuple(int(v) for v in x))
    assert got == sorted(brute)


# sha256 of the JSON list of what integer_points yields on 320 seeded cases:
# rational particular points of length 1-4, bases of 0-3 rational vectors,
# boxes [lo, hi] with -2 <= lo <= hi <= lo + 3, and budgets None, 1, 7 and 50
# in turn, recorded while each scan kept its own budget counter
_INTEGER_POINTS = "9b8d97dcbe6d282a3c105fa5251ea8ab4c8a4fc679f0defc342de043d591f041"


def _digest(found) -> str:
    return hashlib.sha256(json.dumps(found, separators=(",", ":")).encode()).hexdigest()


def _seeded_integer_point_cases():
    rng = random.Random(131)

    def rat():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))

    for case in range(320):
        n = rng.randint(1, 4)
        particular = vector(rat() for _ in range(n))
        basis = [vector(rat() for _ in range(n)) for _ in range(rng.randint(0, 3))]
        lo = rng.randint(-2, 0)
        hi = lo + rng.randint(0, 3)
        yield particular, basis, lo, hi, (None, 1, 7, 50)[case % 4]


def test_integer_points_are_pinned():
    found = [
        [[str(x) for x in p] for p in integer_points(particular, basis, lo, hi, budget=budget)]
        for particular, basis, lo, hi, budget in _seeded_integer_point_cases()
    ]
    assert _digest(found) == _INTEGER_POINTS


# the same for 400 seeded cases past the reach of that pin: basis entries with
# denominators up to 12 or all ints, empty bases, particular points an integer
# point (in the box or with entries up to +-50) moved along the basis by
# rational steps, boxes [lo, hi] with -4 <= lo <= hi <= lo + 5, and budgets
# None, 1, 7, 50 and 400 in turn, recorded while the scan combined Fractions
_WIDE_INTEGER_POINTS = "b96913f9a4b59eac5756e83cbcb99ac2697e12e7d492a7b2ae51787629e4b858"


def _seeded_wide_integer_point_cases():
    rng = random.Random(137)

    def rat():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    for case in range(400):
        n = rng.randint(1, 5)
        kind = case % 4  # rational basis, all-int basis, empty basis, mixed
        k = 0 if kind == 2 else rng.randint(1, 3)
        if kind == 1:
            basis = [vector(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
        else:
            basis = [vector(rat() if kind == 0 or rng.random() < 0.5 else rng.randint(-5, 5)
                            for _ in range(n)) for _ in range(k)]
        lo = rng.randint(-4, 0)
        hi = lo + rng.randint(0, 5)
        if rng.random() < 0.5:
            start = [rng.randint(lo, hi) for _ in range(n)]
        else:
            start = [rng.randint(-50, 50) for _ in range(n)]
        for direction in basis:
            t = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            start = [x + t * y for x, y in zip(start, direction)]
        yield vector(start), basis, lo, hi, (None, 1, 7, 50, 400)[case % 5]


def test_integer_points_are_pinned_on_wide_denominators():
    found = [
        [[str(x) for x in p] for p in integer_points(particular, basis, lo, hi, budget=budget)]
        for particular, basis, lo, hi, budget in _seeded_wide_integer_point_cases()
    ]
    assert sum(map(bool, found)) > 200
    assert _digest(found) == _WIDE_INTEGER_POINTS


def test_integer_points_budget_counts_every_tuple():
    basis = [vector([1, 0]), vector([0, 1])]
    assert list(integer_points(vector([0, 0]), basis, 0, 2, budget=-1)) == []
    assert list(integer_points(vector([0, 0]), basis, 0, 2, budget=0)) == []
    assert len(list(integer_points(vector([0, 0]), basis, 0, 2, budget=4))) == 4
    # an empty basis scans the one empty tuple, so a budget of 0 or less
    # yields nothing there too
    p = vector([1, 2])
    assert list(integer_points(p, [], 0, 2)) == [p]
    assert list(integer_points(p, [], 0, 2, budget=1)) == [p]
    assert list(integer_points(p, [], 0, 2, budget=0)) == []
    assert list(integer_points(p, [], 0, 2, budget=-1)) == []
    assert list(integer_points(vector([Fraction(1, 2), 0]), [], 0, 2)) == []


# ---------------------------------------------------------------------------
# Irreducibility, periodicity, Perron data
# ---------------------------------------------------------------------------


def test_irreducible_and_primitive_flags():
    assert is_irreducible_matrix(Matrix.from_rows([[1, 2], [1, 0]]))
    assert not is_irreducible_matrix(Matrix.from_rows([[1, 1], [0, 1]]))
    assert not is_irreducible_matrix(Matrix.from_rows([[0]]))
    assert is_irreducible_matrix(Matrix.from_rows([[1]]))
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert is_irreducible_matrix(swap)
    assert not is_primitive_matrix(swap)
    assert is_primitive_matrix(Matrix.from_rows([[1, 1], [2, 0]]))


def test_cyclic_structure_of_swap():
    period, classes = cyclic_structure(Matrix.from_rows([[0, 1], [1, 0]]))
    assert period == 2
    assert sorted(sorted(c) for c in classes) == [[0], [1]]


def test_cyclic_structure_of_three_cycle():
    m = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    period, classes = cyclic_structure(m)
    assert period == 3
    assert sorted(len(c) for c in classes) == [1, 1, 1]


def test_isolate_perron_root_brackets_largest_root():
    m = Matrix.from_rows([[19, 5], [4, 1]])
    pd = isolate_perron_root(m)
    # x^2 - 20x - 1 has its largest root just above 20
    assert pd.lo < Fraction(201, 10) and pd.hi > Fraction(20)
    p = char_poly(m)
    assert p(pd.lo) * p(pd.hi) < 0

    # J_n has char poly x^(n-1) (x - n), with 0 a repeated root for n >= 3;
    # the isolation runs on that polynomial itself, not its squarefree part
    for n in range(2, 9):
        j = Matrix.from_rows([[1] * n] * n)
        pd = isolate_perron_root(j)
        assert pd.poly == char_poly(j) == Poly.from_coeffs([0] * (n - 1) + [-n, 1])
        assert pd.lo < n < pd.hi
        assert pd.poly(pd.lo) != 0 and pd.poly(pd.hi) != 0
        assert count_roots(pd.poly, pd.lo, pd.hi) == 1


def _assert_isolates(m: Matrix, pd: PerronData) -> None:
    """(pd.lo, pd.hi) holds one distinct root of pd.poly, none lies above it up
    to the row-sum bound, and the polynomial changes sign across it."""
    p, r = pd.poly, max(map(sum, m.rows))
    assert count_roots(p, pd.lo, pd.hi) == 1, (m, pd.lo, pd.hi)
    assert count_roots(p, pd.hi, r + 1) == 0, (m, pd.hi)
    assert p(pd.lo) * p(pd.hi) < 0, (m, pd.lo, pd.hi)
    assert pd.lo.denominator & (pd.lo.denominator - 1) == 0
    assert pd.hi.denominator & (pd.hi.denominator - 1) == 0


def test_isolation_starts_from_the_collatz_wielandt_bracket():
    # with constant row sums r, (M + I)^k 1 is a multiple of 1, so the
    # bracket is exact: (r - 1/16, r + 1/16), isolated by its two Sturm
    # counts alone; other matrices isolate rho too, on the bracket's grid
    rng = random.Random(37)
    step = Fraction(1, 1 << linalg._GRID_BITS)
    exact = [Matrix.from_rows([[1] * n] * n) for n in range(1, 9)]
    exact += [_constant_row_sum_01_matrix(rng, n, rng.randint(2, n // 2 + 1))
              for n in range(2, 13, 2)]
    exact += [random_block_cyclic(rng, period, 4, rng.randint(1, 3))[0]
              for period in (2, 3) for _ in range(4)]
    for m in exact:
        r = sum(m.rows[0])
        with mock.patch.object(linalg, "_variations", wraps=linalg._variations) as chain_reads:
            pd = isolate_perron_root(m)
        assert (pd.lo, pd.hi) == (r - step, r + step), m
        assert chain_reads.call_count == 2, m
        _assert_isolates(m, pd)
    others = [_sparse_primitive_01(rng, n) for n in range(1, 25, 3)]
    others += [random_int_matrix(rng, n, 0, 10**6) for n in range(1, 9)]
    while len(others) < 24:
        # period 2 and 3 without constant row sums: random blocks on a cycle of classes
        sizes = [rng.randint(1, 3) for _ in range(rng.choice((2, 3)))]
        n, starts = sum(sizes), [sum(sizes[:c]) for c in range(len(sizes))]
        rows = [[0] * n for _ in range(n)]
        for c, (start, size) in enumerate(zip(starts, sizes)):
            nxt = (c + 1) % len(sizes)
            for i in range(start, start + size):
                for j in range(starts[nxt], starts[nxt] + sizes[nxt]):
                    rows[i][j] = rng.choice((0, 1, 2, 5))
        m = Matrix.from_rows(rows)
        if linalg.is_irreducible_matrix(m) and len(set(map(sum, rows))) > 1:
            assert cyclic_structure(m)[0] == len(sizes)
            others.append(m)
    for m in others:
        pd = isolate_perron_root(m)
        _assert_isolates(m, pd)
        # only an integer end can be a root of the monic polynomial, so an
        # end moves out by one step at most
        lo, hi = (e * step for e in linalg._perron_bracket(m))
        assert lo - step <= pd.lo < pd.hi <= hi + step, m


def test_real_eigenvalue_inside_the_bracket_is_bisected_away():
    # the bracket of this m holds rho and a second real eigenvalue, so its
    # two Sturm counts differ by 2 and the bisection runs on
    m = Matrix.from_rows([[1, 0, 13, 1], [1, 18, 0, 0], [20, 1, 0, 7], [1, 0, 0, 1]])
    lo, hi = (Fraction(e, 1 << linalg._GRID_BITS) for e in linalg._perron_bracket(m))
    assert count_roots(char_poly(m), lo, hi) == 2
    with mock.patch.object(linalg, "_variations", wraps=linalg._variations) as chain_reads:
        pd = isolate_perron_root(m)
    assert chain_reads.call_count > 2
    assert lo <= pd.lo < pd.hi <= hi
    _assert_isolates(m, pd)


def test_bracket_ends_on_roots_move_out():
    # [[1, 2], [1, 0]] has roots 2 and -1; bracket ends placed on them move
    # out a grid step at a time until neither is a root, and the chain is
    # first read at the moved ends
    m = Matrix.from_rows([[1, 2], [1, 0]])
    g = 1 << linalg._GRID_BITS
    for bracket, ends in [((-g, 3 * g), (Fraction(-17, 16), 3)),
                          ((g, 2 * g), (1, Fraction(33, 16)))]:
        with mock.patch.object(linalg, "_perron_bracket", return_value=bracket), \
                mock.patch.object(linalg, "_variations", wraps=linalg._variations) as chain_reads:
            pd = isolate_perron_root(m)
        assert tuple(c.args[1] for c in chain_reads.call_args_list[:2]) == ends, bracket
        assert all(pd.poly(c.args[1]) != 0 for c in chain_reads.call_args_list)
        _assert_isolates(m, pd)


def test_sign_at_perron_root():
    m = Matrix.from_rows([[2]])
    pd = isolate_perron_root(m)
    x = Poly.x()
    one = Poly.constant(Fraction(1))
    assert sign_at_perron_root(x - one * Fraction(2), pd) == Sign.ZERO
    assert sign_at_perron_root(x - one, pd) == Sign.POSITIVE
    assert sign_at_perron_root(x - one * Fraction(3), pd) == Sign.NEGATIVE

    def c(k):
        return Poly.constant(Fraction(k))

    # char poly x^2 - x - 2 = (x - 2)(x + 1): Perron root 2, other root -1
    pd = isolate_perron_root(Matrix.from_rows([[1, 2], [1, 0]]))
    p = (x - c(2)) * (x + c(1))
    for h, expected in [
        # degree >= deg p
        (x * x * x, Sign.POSITIVE),
        (x * x * x - c(8), Sign.ZERO),
        (p * (x + c(5)), Sign.ZERO),
        (p * x + c(1), Sign.POSITIVE),
        ((x - c(2)) * (x - c(2)) * (x + c(7)), Sign.ZERO),
        (x * x * x * x - c(17), Sign.NEGATIVE),
        # vanishing at the non-Perron root -1 only
        (x + c(1), Sign.POSITIVE),
        ((x + c(1)) * (x - c(3)), Sign.NEGATIVE),
        # constants
        (c(5), Sign.POSITIVE),
        (c(Fraction(-1, 3)), Sign.NEGATIVE),
        (c(0), Sign.ZERO),
        # negative leading coefficient
        (-x + c(3), Sign.POSITIVE),
        (-x * x + c(1), Sign.NEGATIVE),
        (-(x - c(2)) * (x + c(4)), Sign.ZERO),
    ]:
        assert sign_at_perron_root(h, pd) == expected, h.pretty()

    # J_n has char poly x^(n-1) (x - n): the first bisection midpoint 0 is a
    # root, a repeated one for n >= 3
    for n in range(2, 9):
        pd = isolate_perron_root(Matrix.from_rows([[1] * n] * n))
        assert pd.lo < n < pd.hi
        assert pd.poly(pd.lo) != 0 and pd.poly(pd.hi) != 0
        assert sign_at_perron_root(x, pd) == Sign.POSITIVE
        assert sign_at_perron_root(x * x - c(n * n), pd) == Sign.ZERO
        assert sign_at_perron_root(x - c(n), pd) == Sign.ZERO
        assert sign_at_perron_root(x - c(n + 1), pd) == Sign.NEGATIVE
        assert sign_at_perron_root(p * (x - c(n)), pd) == Sign.ZERO
        assert sign_at_perron_root(x * x * (c(n) - x) + c(1), pd) == Sign.POSITIVE


@pytest.mark.parametrize(
    "rows, error",
    [
        ([[-1]], InvalidMatrix),
        ([[Fraction(1, 2)]], InvalidMatrix),
        ([[1, 1], [0, 1]], NotIrreducible),
    ],
)
def test_perron_functions_reject_bad_matrices(rows, error):
    m = Matrix.from_rows(rows)
    with pytest.raises(error):
        isolate_perron_root(m)
    with pytest.raises(error):
        perron_pairing_sign(m, (1,) * m.nrows)


def test_perron_pairing_rejects_wrong_length_vector():
    m = Matrix.from_rows([[1, 1], [1, 0]])
    for v in [(), (1,), (1, 2, 3)]:
        for a in (m, isolate_perron_root(m)):
            with pytest.raises(ShapeError):
                perron_pairing_sign(a, v)


def _constant_row_sum_matrix(rng: random.Random, n: int, r: int, period: int) -> Matrix:
    """r units per row, placed in the next cyclic class (period > 1) or anywhere."""
    cls = [i % period for i in range(n)]
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            targets = [j for j in range(n) if cls[j] == (cls[i] + 1) % period]
            for _ in range(r):
                rows[i][rng.choice(targets)] += 1
        m = Matrix.from_rows(rows)
        if is_irreducible_matrix(m):
            return m


def _constant_row_sum_01_matrix(rng: random.Random, n: int, r: int) -> Matrix:
    """Primitive 0/1 matrix with r ones in each row, at distinct random places."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in rng.sample(range(n), r):
                rows[i][j] = 1
        m = Matrix.from_rows(rows)
        if is_primitive_matrix(m):
            return m


def _pairings_to_check(rng: random.Random, m: Matrix) -> list:
    """An integer, a rational, a zero and a nearly zero pairing for m, whose
    rows all sum to the same r."""
    n = m.nrows
    x = [rng.randrange(-3, 4) for _ in range(n)]
    zero_pairing = (m - Matrix.identity(n).scale(sum(m.rows[0]))).apply(x)  # w (m - rI) x = 0
    return [
        vector(rng.randrange(-4, 5) for _ in range(n)),
        vector(Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(n)),
        zero_pairing,
        vector(y + Fraction(rng.choice([-1, 1]), 7) * (i == 0) for i, y in enumerate(zero_pairing)),
    ]


def test_perron_pairing_sign_matches_constant_row_sum_oracle():
    rng = random.Random(23)
    cases = [Matrix.from_rows([[1] * n] * n) for n in range(1, 9)]
    cases += [Matrix.from_rows([[0, 2], [2, 0]]), Matrix.from_rows([[0, 2, 0], [0, 0, 2], [2, 0, 0]])]
    cases += [
        _constant_row_sum_matrix(rng, n, rng.randrange(1, 4), period)
        for n in range(1, 7)
        for period in range(1, n + 1)
        if n % period == 0
        for _ in range(2)
    ]
    checks = [(m, v) for m in cases for _ in range(3) for v in _pairings_to_check(rng, m)]
    # sizes where the remainder sequences over the rationals grew large: the
    # zero and the nearly zero pairing only
    for n in (16, 24, 32, 40):
        m = _constant_row_sum_matrix(rng, n, rng.randrange(2, 4), 1 + n % 3)
        checks += [(m, v) for v in _pairings_to_check(rng, m)[2:]]
    counts = {Sign.NEGATIVE: 0, Sign.ZERO: 0, Sign.POSITIVE: 0}
    for m, v in checks:
        got = perron_pairing_sign(m, v)
        assert got == perron_sign_oracle(m, v), (m, v)
        counts[got] += 1
    assert min(counts.values()) > 30, counts
    # the same pairings off one PerronData per matrix and, for period > 1,
    # those of v masked to each cyclic class, as `dg_positive` reads them
    masked = {Sign.NEGATIVE: 0, Sign.ZERO: 0, Sign.POSITIVE: 0}
    for m, group in groupby(checks, key=lambda check: check[0]):
        pd = isolate_perron_root(m)
        period, classes = cyclic_structure(m)
        for _, v in group:
            assert perron_pairing_sign(pd, v) == perron_sign_oracle(m, v), (m, v)
            for cls in classes if period > 1 else ():
                part = [x if i in cls else 0 for i, x in enumerate(v)]
                got = perron_pairing_sign(pd, part)
                assert got == perron_sign_oracle(m, part), (m, part)
                masked[got] += 1
    assert min(masked.values()) > 30, masked


def test_perron_pairing_sign_at_n48_within_budget():
    # on a 2-vCPU VM this pairing takes about 0.8 s with the remainder
    # sequences over the integers and about 35 s with those over the
    # rationals, so the budget catches a return of the latter
    rng = random.Random(48)
    m = _constant_row_sum_01_matrix(rng, 48, 6)
    v = _pairings_to_check(rng, m)[3]
    start = time.perf_counter()
    got = perron_pairing_sign(m, v)
    elapsed = time.perf_counter() - start
    assert got == perron_sign_oracle(m, v)
    assert elapsed < 5, f"n = 48 Perron pairing took {elapsed:.1f}s (budget 5s)"


def test_perron_data_and_pairing_at_n64_within_budget():
    # a cycle plus one random arc per row (arcs counted with multiplicity, so
    # every row sums to 2): on a 2-vCPU VM the PerronData and one pairing take
    # about 2.4 s with dense Faddeev-LeVerrier products and about 0.2 s with
    # products over the nonzero entries, so the budget catches a return of
    # the former
    rng = random.Random(64)
    n = 64
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] += 1
        rows[i][rng.randrange(n)] += 1
    m = Matrix.from_rows(rows)
    v = _pairings_to_check(rng, m)[3]
    start = time.perf_counter()
    got = perron_pairing_sign(isolate_perron_root(m), v)
    elapsed = time.perf_counter() - start
    assert got == perron_sign_oracle(m, v)
    assert elapsed < 1, f"n = 64 Perron data and pairing took {elapsed:.2f}s (budget 1s)"


def _perron_cases() -> list[tuple[Matrix, int | None, list]]:
    """Seeded irreducible matrices with n <= 12, each with its Perron root when
    that is its constant row sum, and pairings (v, v pairs to zero) against it.

    The matrices are primitive ones of every size, primitive 0/1 ones with
    constant row sums, and period 2 and 3 ones from `random_block_cyclic`.
    The vectors are random integer and rational ones, and for a constant row
    sum rho the zero pairings (rho I - M) u: w (rho I - M) = 0.  A random
    vector against a constant row sum matrix can pair to zero too (such as
    (3, -3) against J_2), so there `perron_sign_oracle` flags it.
    """
    rng = random.Random(32)
    cases = []
    while len(cases) < 16:
        m = random_int_matrix(rng, rng.randint(1, 12), 0, rng.choice((1, 1, 2)))
        if is_primitive_matrix(m):
            cases.append((m, None))
    cases += [(m, sum(m.rows[0])) for m in
              (_constant_row_sum_01_matrix(rng, n, rng.randint(2, n // 2 + 1)) for n in range(2, 13, 2))]
    cases += [(m, sum(m.rows[0])) for m, _ in
              (random_block_cyclic(rng, period, 4, rng.randint(1, 3)) for period in (2, 3) for _ in range(4))]
    out = []
    for m, rho in cases:
        n = m.nrows
        pairings = [vector(rng.randint(-5, 5) for _ in range(n)) for _ in range(3)]
        pairings.append(vector(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)))
        pairings = [(v, rho is not None and perron_sign_oracle(m, v) == 0)
                    for v in pairings if any(v)]
        if rho is not None:
            for _ in range(2):
                u = [rng.randint(-3, 3) for _ in range(n)]
                pairings.append(((Matrix.identity(n).scale(rho) - m).apply(u), True))
        out.append((m, rho, pairings))
    return out


def test_perron_signs_match_power_iteration_and_the_tarski_query():
    # perron_pairing_sign against the power-iteration oracle (zero pairings
    # by construction), and sign_at_perron_root against the Tarski query on
    # the isolating interval for h of every degree up to 2n + 1 and, when
    # rho is an integer, multiples of x - rho
    rng = random.Random(33)
    x = Poly.x()
    counts = {Sign.NEGATIVE: 0, Sign.ZERO: 0, Sign.POSITIVE: 0}
    zeros = 0
    for m, rho, pairings in _perron_cases():
        pd = isolate_perron_root(m)
        for v, zero in pairings:
            expected = Sign.ZERO if zero else Sign(perron_sign_by_iteration(m, v))
            assert perron_pairing_sign(pd, v) == perron_pairing_sign(m, v) == expected, (m, v)
            counts[expected] += 1
        hs = [Poly.from_coeffs(rng.randint(-6, 6) for _ in range(rng.randint(1, 2 * m.nrows + 2)))
              for _ in range(4)]
        if rho is not None:
            hs += [(x - Poly.constant(rho)) * h for h in hs]
        for h in hs:
            got = sign_at_perron_root(h, pd)
            assert got == Sign(tarski_query(pd.poly, h, pd.lo, pd.hi)), (m, h)
            zeros += got == Sign.ZERO
    assert min(counts.values()) > 10 and zeros > 30, (counts, zeros)


def test_tarski_query_runs_for_zero_pairings_only():
    for m, _, pairings in _perron_cases():
        pd = isolate_perron_root(m)
        for v, zero in pairings:
            with mock.patch.object(linalg, "tarski_query", wraps=linalg.tarski_query) as tq:
                perron_pairing_sign(pd, v)
            assert tq.call_count == zero, (m, v)


def test_pairing_closer_than_the_halvings_goes_to_the_tarski_query():
    # rho = 10 + sqrt(101); h = x - c with c within 2^-80 of rho keeps a root
    # in every interval the halvings reach, so no Taylor test can pass
    pd = isolate_perron_root(Matrix.from_rows([[19, 5], [4, 1]]))
    p, lo, hi = pd.poly, pd.lo, pd.hi
    for _ in range(linalg._HALVINGS + 16):
        mid = (lo + hi) / 2
        if p.sign_at(mid) == p.sign_at(lo):
            lo = mid
        else:
            hi = mid
    x, c = Poly.x(), Poly.constant
    for h, expected in [(x - c(lo), Sign.POSITIVE), (x - c(hi), Sign.NEGATIVE),
                        (c(hi) - x, Sign.POSITIVE)]:
        with mock.patch.object(linalg, "tarski_query", wraps=linalg.tarski_query) as tq:
            assert sign_at_perron_root(h, pd) == expected, h.pretty()
        assert tq.call_count == 1


def test_perron_data_with_agreeing_end_signs_goes_straight_to_the_tarski_query():
    # (1, 3) holds the one root 2 of p, a double one, so p does not change
    # sign there and bisecting by its sign would be unsound
    x, c = Poly.x(), Poly.constant
    p = (x - c(2)) * (x - c(2)) * (x + c(5))
    pd = PerronData(p, Fraction(1), Fraction(3), ((1,), (0,), (0,)), 1, ((0, 1, 2),))
    assert p.sign_at(pd.lo) == p.sign_at(pd.hi) == 1
    assert list(linalg._halvings(p, pd.lo, pd.hi)) == []
    for h, expected in [(x - c(1), Sign.POSITIVE), (x - c(3), Sign.NEGATIVE), (x - c(2), Sign.ZERO),
                        (c(7), Sign.POSITIVE)]:
        with mock.patch.object(linalg, "tarski_query", wraps=linalg.tarski_query) as tq, \
                mock.patch.object(linalg, "_taylor_sign", side_effect=AssertionError):
            assert sign_at_perron_root(h, pd) == expected, h.pretty()
        assert tq.call_count == 1


def test_perron_data_with_ends_off_the_dyadic_grid_goes_straight_to_the_tarski_query():
    # the halvings run on numerators over a power of two; a hand-built
    # interval with another denominator is decided by the Tarski query alone
    x, c = Poly.x(), Poly.constant
    p = (x - c(2)) * (x + c(5))
    for lo, hi in [(Fraction(1, 3), Fraction(3)), (Fraction(3, 2), Fraction(12, 5))]:
        pd = PerronData(p, lo, hi, ((1,), (0,)), 1, ((0, 1),))
        assert list(linalg._halvings(p, lo, hi)) == []
        for h, expected in [(x - c(1), Sign.POSITIVE), (x - c(3), Sign.NEGATIVE), (x - c(2), Sign.ZERO)]:
            with mock.patch.object(linalg, "tarski_query", wraps=linalg.tarski_query) as tq:
                assert sign_at_perron_root(h, pd) == expected, h.pretty()
            assert tq.call_count == 1


def test_refined_intervals_each_hold_the_perron_root_alone():
    at_root = 0
    for m, rho, _ in _perron_cases():
        pd = isolate_perron_root(m)
        intervals = [(Fraction(lo, 1 << e), Fraction(hi, 1 << e))
                     for lo, hi, e in linalg._halvings(pd.poly, pd.lo, pd.hi)]
        assert intervals[0] == (pd.lo, pd.hi)
        assert len(intervals) <= linalg._HALVINGS + 1
        for (lo0, hi0), (lo, hi) in zip(intervals, intervals[1:]):
            assert lo0 <= lo <= hi <= hi0
            assert lo == hi or hi - lo == (hi0 - lo0) / 2
        for lo, hi in intervals[:-1]:
            assert count_roots(pd.poly, lo, hi) == 1, (m, lo, hi)
        lo, hi = intervals[-1]
        if lo == hi:
            # a midpoint that is a root is rho, then an integer
            assert lo.denominator == 1 and pd.poly.sign_at(lo) == 0
            assert rho in (None, lo)
            at_root += 1
        else:
            assert count_roots(pd.poly, lo, hi) == 1, (m, lo, hi)
            assert len(intervals) == linalg._HALVINGS + 1
    assert at_root > 0


def test_taylor_sign_answers_only_on_intervals_free_of_roots():
    rng = random.Random(34)
    answered = 0
    for _ in range(600):
        h = Poly.from_coeffs([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))])
        den = rng.randint(1, 40)
        lo = Fraction(rng.randint(-60, 60), den)
        hi = lo + Fraction(1, rng.randint(1, 300))
        d = math.lcm(lo.denominator, hi.denominator)
        s = linalg._taylor_sign(list(h.coeffs), int((lo + hi) * d), int((hi - lo) * d), 2 * d)
        if s:
            answered += 1
            assert h.sign_at(lo) == h.sign_at(hi) == s, (h, lo, hi)
            assert count_roots(h, lo, hi) == 0, (h, lo, hi)
    assert answered > 200, answered


def test_perron_pairing_sign_matches_functional():
    # left Perron vector of [[1,1],[2,0]] is proportional to (2, 1)
    m = Matrix.from_rows([[1, 1], [2, 0]])
    for v, expected in [
        ((1, 1), Sign.POSITIVE),
        ((2, 1), Sign.POSITIVE),
        ((1, -2), Sign.ZERO),
        ((-1, 2), Sign.ZERO),
        ((-1, -1), Sign.NEGATIVE),
        ((1, -3), Sign.NEGATIVE),
    ]:
        assert perron_pairing_sign(m, vector(Fraction(x) for x in v)) == expected


def test_positive_pairing_implies_eventual_nonnegativity():
    rng = random.Random(15)
    checked = 0
    while checked < 25:
        n = rng.randrange(1, 4)
        m = random_int_matrix(rng, n, 0, 3)
        if not is_primitive_matrix(m):
            continue
        v = vector(Fraction(rng.randrange(-3, 4)) for _ in range(n))
        if perron_pairing_sign(m, v) != Sign.POSITIVE:
            continue
        checked += 1
        cur = v
        for _ in range(60):
            if all(x >= 0 for x in cur):
                break
            cur = m.apply(cur)
        assert all(x >= 0 for x in cur)
