"""The number form of exact results: every entry of a matrix or vector that
`linalg` hands out, and every coefficient of a `Poly`, is an int when it is
integral and a Fraction otherwise, never a float; determinant, inverse,
echelon and polynomial division values are checked against independent
oracles."""

from __future__ import annotations

import random
from fractions import Fraction

from helpers import (
    det_oracle,
    echelon_oracle,
    gauss_jordan_oracle,
    inverse_oracle,
    random_int_matrix,
)

from sftkit.linalg import (
    AffineInfeasible,
    AffineSolution,
    Matrix,
    char_poly,
    integer_points,
    intertwiner_space,
    nullspace,
    rref,
    smith_normal_form,
    solve_affine_exact,
    vector,
)
from sftkit.polynomials import Poly, sturm_chain


def _entries(x):
    if isinstance(x, Matrix):
        for row in x.rows:
            yield from row
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _entries(y)
    else:
        yield x


def _assert_form(x) -> None:
    for e in _entries(x):
        assert type(e) is int or (type(e) is Fraction and e.denominator != 1), repr(e)


def _random_rational_matrix(rng: random.Random, nrows: int, ncols: int) -> Matrix:
    return Matrix.from_rows(
        [[Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3))) for _ in range(ncols)]
         for _ in range(nrows)]
    )


def _random_low_rank(rng: random.Random) -> Matrix:
    """Integer matrix of rank at most 2, so nullspaces and infeasible systems occur."""
    nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
    left = [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(nrows)]
    right = [[rng.randrange(-2, 3) for _ in range(ncols)] for _ in range(2)]
    return Matrix.from_rows(left) @ Matrix.from_rows(right)


def test_from_rows_and_vector_normalise_every_entry():
    m = Matrix.from_rows([[Fraction(4, 2), 0.5, "3/4"], [-0.0, Fraction(-6, 3), 7]])
    _assert_form(m)
    assert m.rows == ((2, Fraction(1, 2), Fraction(3, 4)), (0, -2, 7))
    v = vector([Fraction(9, 3), 1.25, 0])
    _assert_form(v)
    assert v == (3, Fraction(5, 4), 0)


def test_arithmetic_keeps_the_number_form():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(1, 4)
        a = _random_rational_matrix(rng, n, n)
        b = _random_rational_matrix(rng, n, n)
        z = random_int_matrix(rng, n, -3, 3)
        v = [Fraction(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in range(n)]
        results = [
            a, a @ b, a @ z, z @ z, a + b, a - b, -a, a.scale(Fraction(2, 3)), a.scale(2),
            z.scale(Fraction(1, 2)), a.transpose(), a**2, z**3, a.kron(z), z.kron(z),
            a.apply(v), z.apply(v), z.apply([1] * n), (a.trace(), z.trace()),
        ]
        for r in results:
            _assert_form(r)
    # integral products of rational matrices come back as ints
    half = Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
    double = Matrix.from_rows([[2, 0], [0, Fraction(2, 3)]])
    assert (half @ double).rows == ((1, 0), (0, 1))
    _assert_form(half @ double)
    assert type(half.trace()) is int


def test_det_and_inverse_values_and_form():
    rng = random.Random(42)
    checked = 0
    while checked < 60:
        n = rng.randrange(1, 5)
        m = random_int_matrix(rng, n, -4, 4) if checked % 2 else _random_rational_matrix(rng, n, n)
        d = m.det()
        _assert_form((d,))
        assert d == det_oracle(m)
        if d == 0:
            continue
        inv = m.inverse()
        _assert_form(inv)
        assert [list(r) for r in inv.rows] == inverse_oracle(m)
        checked += 1


def test_non_unit_pivots_give_exact_ints():
    # first pivots 2 and 3, yet the determinant and the inverse are integral
    for rows in ([[2, 1], [1, 1]], [[3, 2], [4, 3]], [[2, 3, 1], [1, 2, 1], [1, 1, 1]]):
        m = Matrix.from_rows(rows)
        d, inv = m.det(), m.inverse()
        assert type(d) is int and d == det_oracle(m)
        assert all(type(x) is int for row in inv.rows for x in row)
        assert [list(r) for r in inv.rows] == inverse_oracle(m)
        assert m @ inv == Matrix.identity(m.nrows)
    assert Matrix.from_rows([[2, 4], [1, 2]]).det() == 0
    assert type(Matrix.from_rows([[2, 4], [1, 2]]).det()) is int


def test_echelon_results_keep_the_number_form():
    rng = random.Random(43)
    for _ in range(60):
        m = _random_low_rank(rng) if rng.random() < 0.7 else _random_rational_matrix(rng, 3, 3)
        reduced, _ = rref(m)
        _assert_form(reduced)
        basis = nullspace(m)
        _assert_form(basis)
        assert all(m.apply(v) == (0,) * m.nrows for v in basis)


def test_affine_solutions_and_certificates_keep_the_number_form():
    rng = random.Random(44)
    outcomes = set()
    for _ in range(200):
        a = _random_low_rank(rng)
        b = [Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2))) for _ in range(a.nrows)]
        res = solve_affine_exact(a, b)
        if isinstance(res, AffineSolution):
            _assert_form(res.particular)
            _assert_form(res.basis)
            assert list(a.apply(res.particular)) == b
            for p in integer_points(res.particular, res.basis, -2, 2, budget=200):
                _assert_form(p)
        else:
            assert isinstance(res, AffineInfeasible)
            _assert_form(res.certificate)
            y = res.certificate
            assert a.transpose().apply(y) == (0,) * a.ncols
            assert sum(p * q for p, q in zip(y, b)) == 1
        outcomes.add(type(res))
    assert outcomes == {AffineSolution, AffineInfeasible}


def test_intertwiner_space_and_smith_form_keep_the_number_form():
    rng = random.Random(45)
    for _ in range(30):
        a = random_int_matrix(rng, rng.randrange(1, 4), 0, 2)
        b = random_int_matrix(rng, rng.randrange(1, 4), 0, 2)
        _assert_form(intertwiner_space(a, b))
        m = random_int_matrix(rng, rng.randrange(1, 4), -5, 5)
        u, d, v = smith_normal_form(m)
        _assert_form((u, d, v))
        assert u @ m @ v == d


def _entry(rng: random.Random, mixed: bool):
    """A small int, or with mixed=True sometimes a non-integral Fraction."""
    x = rng.randrange(-4, 5)
    return Fraction(x, rng.choice((2, 3))) if mixed and rng.random() < 0.4 else x


def _degenerate_matrix(rng: random.Random, nrows: int, ncols: int, mixed: bool) -> Matrix:
    """Matrix of rank at most 3 (a product through a short inner dimension),
    with zero and duplicate rows mixed in."""
    inner = rng.randrange(0, 4)
    left = [[rng.randrange(-3, 4) for _ in range(inner)] for _ in range(nrows)]
    right = [[_entry(rng, mixed) for _ in range(ncols)] for _ in range(inner)]
    rows = [[sum(x * right[k][j] for k, x in enumerate(row)) for j in range(ncols)]
            for row in left]
    for _ in range(rng.randrange(0, 3)):
        i = rng.randrange(nrows)
        rows[i] = list(rows[rng.randrange(nrows)]) if rng.random() < 0.5 else [0] * ncols
    return Matrix.from_rows(rows)


def test_fraction_free_elimination_matches_gauss_jordan_oracle():
    rng = random.Random(46)
    outcomes = {"solution": 0, "infeasible": 0, "inverse": 0}
    for trial in range(300):
        mixed = trial % 2 == 1
        m = _degenerate_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), mixed)
        rows = [list(r) for r in m.rows]
        reduced, pivots = rref(m)
        assert ([list(r) for r in reduced.rows], pivots) == echelon_oracle(rows)
        _assert_form(reduced)
        basis = nullspace(m)
        assert ("solution", (0,) * m.ncols, tuple(basis)) == gauss_jordan_oracle(
            rows, [0] * m.nrows
        )
        _assert_form(basis)
        b = list(m.apply([Fraction(rng.randrange(-3, 4), 2) for _ in range(m.ncols)]))
        if rng.random() < 0.5:
            b[rng.randrange(m.nrows)] += rng.randrange(1, 4)
        expected = gauss_jordan_oracle(rows, b)
        res = solve_affine_exact(m, b)
        outcomes[expected[0]] += 1
        if expected[0] == "solution":
            assert (res.particular, res.basis) == expected[1:]
            _assert_form((res.particular, res.basis))
        else:
            assert res.certificate == expected[1]
            _assert_form(res.certificate)
        n = rng.randrange(1, 5)
        sq = Matrix.from_rows([[_entry(rng, mixed) for _ in range(n)] for _ in range(n)])
        if sq.det() != 0:
            outcomes["inverse"] += 1
            inv = sq.inverse()
            assert [list(r) for r in inv.rows] == inverse_oracle(sq)
            _assert_form(inv)
    assert min(outcomes.values()) >= 50, outcomes


def test_det_is_exact_on_singular_and_non_unit_pivot_matrices():
    rng = random.Random(47)
    singular = 0
    for trial in range(150):
        n, mixed = rng.randrange(1, 6), trial % 2 == 1
        if trial % 3 == 0:
            m = _degenerate_matrix(rng, n, n, mixed)
        else:
            m = Matrix.from_rows([[_entry(rng, mixed) for _ in range(n)] for _ in range(n)])
        if rng.random() < 0.3:
            # a zero leading entry forces a row swap before the first pivot
            m = Matrix.from_rows([[0, *m.row(0)[1:]], *m.rows[1:]])
        d = m.det()
        _assert_form((d,))
        assert d == det_oracle(m), m
        singular += d == 0
    assert singular >= 30


def _random_poly(rng: random.Random, mixed: bool) -> Poly:
    """Degree 0-4, with a non-unit int leading coefficient about half the time."""
    cs = [_entry(rng, mixed) for _ in range(rng.randrange(0, 5))]
    return Poly.from_coeffs(cs + [rng.choice((1, -1, 2, 3, -3, 4, Fraction(2, 3)))])


def _divmod_oracle(p: Poly, d: Poly) -> tuple[list[Fraction], list[Fraction]]:
    """Schoolbook long division over the rationals, every step a Fraction."""
    rem = [Fraction(c) for c in p.coeffs]
    quo = [Fraction(0)] * max(0, len(rem) - len(d.coeffs) + 1)
    while len(rem) >= len(d.coeffs):
        k = len(rem) - len(d.coeffs)
        quo[k] = rem[-1] / Fraction(d.coeffs[-1])
        for i, c in enumerate(d.coeffs):
            rem[k + i] -= quo[k] * c
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem


def test_poly_from_coeffs_normalises_every_coefficient():
    p = Poly.from_coeffs([Fraction(4, 2), 0.5, "3/4", -0.0, 0])
    assert p.coeffs == (2, Fraction(1, 2), Fraction(3, 4))
    _assert_form(p.coeffs)
    assert Poly.from_coeffs([Fraction(0), 0.0]).coeffs == ()


def test_poly_arithmetic_keeps_the_number_form():
    rng = random.Random(48)
    divisions = 0
    for trial in range(300):
        p, d = _random_poly(rng, trial % 2 == 1), _random_poly(rng, trial % 3 == 1)
        q, r = divmod(p, d)
        want_q, want_r = _divmod_oracle(p, d)
        assert (list(q.coeffs), list(r.coeffs)) == (want_q, want_r), (p, d)
        divisions += d.leading not in (1, -1)
        results = [p + d, p - d, -p, p * d, d * 3, p * Fraction(3, 2), q, r, p % d,
                   p.monic(), d.monic(), p.derivative(), d.derivative()]
        for x in results:
            _assert_form(x.coeffs)
        assert p.monic().leading == 1 and type(p.monic().leading) is int
    assert divisions >= 100
    # products and derivatives of rational polynomials come back as ints
    half = Poly.from_coeffs([0, 0, Fraction(1, 2)])
    assert half.derivative().coeffs == (0, 1)
    assert (half * Poly.from_coeffs([2])).coeffs == (0, 0, 1)
    _assert_form((half.derivative().coeffs, (half * 2).coeffs))
    # a non-unit integer leading coefficient: 3x^2 + 1 = (3x) x + 1
    q, r = divmod(Poly.from_coeffs([1, 0, 3]), Poly.from_coeffs([0, 3]))
    assert (q.coeffs, r.coeffs) == ((0, 1), (1,))
    q, r = divmod(Poly.from_coeffs([1, 1]), Poly.from_coeffs([0, 3]))
    assert (q.coeffs, r.coeffs) == ((Fraction(1, 3),), (1,))


def test_sturm_chain_and_char_poly_hold_ints():
    rng = random.Random(49)
    for trial in range(60):
        m = random_int_matrix(rng, rng.randrange(1, 6), 0, 3)
        cp = char_poly(m)
        assert all(type(c) is int for c in cp.coeffs), cp
        q = _random_poly(rng, True)
        for chain in (sturm_chain(cp), sturm_chain(cp, q), sturm_chain(q * Fraction(1, 3))):
            for x in chain:
                assert all(type(c) is int for c in x.coeffs), chain
