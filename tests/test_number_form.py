"""The number form of exact results: every entry of a matrix or vector that
`linalg` hands out, every coefficient of a `Poly` and every coefficient of a
term-calculus element is an int when it is integral and a Fraction
otherwise, never a float; inverse,
echelon and polynomial division values are checked against independent
oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import (
    det_oracle,
    echelon_oracle,
    gauss_jordan_oracle,
    inverse_oracle,
    random_in_partition,
    random_int_matrix,
    random_sink_free,
)

from sftkit.errors import InvalidMatrix
from sftkit.graphs import from_adjacency
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
from sftkit.terms import (
    WeightMap,
    ck2_expand,
    graded_decompose,
    in_split_family,
    multiply,
    parse_element,
    reduce,
    star,
)


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


def test_int_input_is_kept_and_other_input_normalised():
    ints = (3, 0, -7, 2**70)
    assert vector(ints) is ints
    assert vector(iter(ints)) == ints
    m = Matrix.from_rows([ints, [1, 2, 3, 4]])
    assert m.rows == (ints, (1, 2, 3, 4))
    _assert_form(m)
    # bool, integral Fractions and floats all become ints; no float survives
    for entries, want in (
        ([True, False, 2], (1, 0, 2)),
        ([Fraction(4, 2), 5], (2, 5)),
        ([1, Fraction(1, 2), Fraction(6, 3)], (1, Fraction(1, 2), 2)),
        ([2.0, 0.5, 1], (2, Fraction(1, 2), 1)),
    ):
        assert vector(entries) == want
        _assert_form(vector(entries))
        assert Matrix.from_rows([entries, want]).rows == (want, want)
        _assert_form(Matrix.from_rows([entries, want]))
    for rows in ([[1, 2], [3]], [[1], []], [[Fraction(1, 2)], [1, 2]]):
        with pytest.raises(InvalidMatrix):
            Matrix.from_rows(rows)
    with pytest.raises(InvalidMatrix):
        Matrix(((1, 2), (3,)))
    # a Fraction matrix times an int matrix: ints where the product is integral
    f = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), 1]])
    z = Matrix.from_rows([[2, 0], [3, 1]])
    assert (f @ z).rows == ((2, Fraction(1, 3)), (4, 1))
    assert (z @ f).rows == ((1, Fraction(2, 3)), (2, 2))
    _assert_form((f @ z, z @ f))


def test_arithmetic_keeps_the_number_form():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(1, 4)
        a = _random_rational_matrix(rng, n, n)
        b = _random_rational_matrix(rng, n, n)
        z = random_int_matrix(rng, n, -3, 3)
        v = [Fraction(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in range(n)]
        results = [
            a, a @ b, a @ z, z @ z, a + b, a - b, a.scale(Fraction(2, 3)), a.scale(2),
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


def test_inverse_values_and_form():
    rng = random.Random(42)
    checked = 0
    while checked < 60:
        n = rng.randrange(1, 5)
        m = random_int_matrix(rng, n, -4, 4) if checked % 2 else _random_rational_matrix(rng, n, n)
        if det_oracle(m) == 0:
            continue
        inv = m.inverse()
        _assert_form(inv)
        assert [list(r) for r in inv.rows] == inverse_oracle(m)
        checked += 1


def test_non_unit_pivots_give_exact_ints():
    # first pivots 2 and 3, yet the inverse is integral
    for rows in ([[2, 1], [1, 1]], [[3, 2], [4, 3]], [[2, 3, 1], [1, 2, 1], [1, 1, 1]]):
        m = Matrix.from_rows(rows)
        inv = m.inverse()
        assert all(type(x) is int for row in inv.rows for x in row)
        assert [list(r) for r in inv.rows] == inverse_oracle(m)
        assert m @ inv == Matrix.identity(m.nrows)


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
        if det_oracle(sq) != 0:
            outcomes["inverse"] += 1
            inv = sq.inverse()
            assert [list(r) for r in inv.rows] == inverse_oracle(sq)
            _assert_form(inv)
    assert min(outcomes.values()) >= 50, outcomes


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


def test_term_coefficients_keep_the_number_form():
    rng = random.Random(47)
    seen = set()
    for _ in range(40):
        g = random_sink_free(rng, 3, 2)
        names = [*g.vertices, *(e.id for e in g.edges), *(f"{e.id}*" for e in g.edges)]

        def parsed():
            terms = (
                rng.choice(("", "2 ", "3/2 ", "4/2 ", "1/3 "))
                + " ".join(rng.choices(names, k=rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            )
            return parse_element(g, " + ".join(terms) + rng.choice(("", " + 2", " - 1/2")))

        x, y = parsed(), parsed()
        elements = [
            x, y, x.scale(3), x.scale(Fraction(2, 3)), x.scale(0.5), x + y, x - y,
            reduce(g, x), multiply(g, x, y), star(x), ck2_expand(g, x, g.vertices[0]),
        ]
        uniform = graded_decompose(g, WeightMap.uniform(g), x)
        assert all(type(d) is int for d in uniform), uniform
        weights = {e.id: rng.choice((1, 2, "1/2", "3/2")) for e in g.edges}
        rational = graded_decompose(g, WeightMap.from_mapping(g, weights), y)
        _assert_form(list(rational))
        elements += [*uniform.values(), *rational.values()]
        _, fa = in_split_family(g, random_in_partition(rng, g))
        for images in (fa.vertex_images, fa.edge_images, fa.ghost_images):
            elements += [image for _, image in images]
        for element in elements:
            coeffs = list(element.terms.values())
            _assert_form(coeffs)
            seen.update(type(c) for c in coeffs)
    assert seen == {int, Fraction}


def test_weights_and_degrees_keep_the_number_form():
    # integral weights, however written, are ints, so `--weights` degrees key
    # the components by ints as `WeightMap.uniform` does; half weights stay Fractions
    g = from_adjacency(Matrix.from_rows([[1, 2], [1, 0]]))
    x = parse_element(g, "e1 + e3 + v1")
    w = WeightMap.from_mapping(g, {"e1": 1, "e2": "2", "e3": Fraction(3), "e4": "4/2"})
    assert [type(c) for _, c in w.weights] == [int] * 4
    parts = graded_decompose(g, w, x)
    assert [(d, type(d)) for d in parts] == [(0, int), (1, int), (3, int)]
    assert [type(d) for d in graded_decompose(g, WeightMap.uniform(g), x)] == [int, int]
    half = WeightMap.from_mapping(g, {"e1": "1/2", "e2": 1, "e3": "3/2", "e4": 1})
    parts = graded_decompose(g, half, x)
    assert [(d, type(d)) for d in parts] == [
        (0, int), (Fraction(1, 2), Fraction), (Fraction(3, 2), Fraction)
    ]
    assert type(half.degree_of_word((("e", "e1"), ("e", "e3")))) is int
