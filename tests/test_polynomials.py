"""Exact polynomial arithmetic and Sturm-chain root counting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import sturm_chain_oracle, tarski_query_oracle

from sftkit.errors import ShapeError
from sftkit.polynomials import (
    Poly,
    _variations,
    count_roots,
    poly_gcd,
    squarefree_part,
    sturm_chain,
)


def _poly(*coeffs) -> Poly:
    return Poly.from_coeffs([Fraction(c) for c in coeffs])


def test_zero_and_degree():
    assert _poly().degree == -1
    assert _poly(0, 0).degree == -1
    assert _poly(3).degree == 0
    assert _poly(0, 1).degree == 1


def test_ring_operations():
    p = _poly(1, 2)      # 1 + 2x
    q = _poly(-1, 1)     # x - 1
    assert p + q == _poly(0, 3)
    assert p - q == _poly(2, 1)
    assert p * q == _poly(-1, -1, 2)
    assert p * Fraction(3) == _poly(3, 6)
    assert (-p) + p == _poly()


def test_divmod_identity_random():
    rng = random.Random(11)
    for _ in range(60):
        p = _poly(*[rng.randrange(-4, 5) for _ in range(rng.randrange(1, 6))])
        d = _poly(*[rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))])
        if d.degree < 0:
            continue
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.degree < d.degree


def test_evaluation_horner():
    p = _poly(-1, 0, 1)  # x^2 - 1
    assert p(Fraction(3)) == 8
    assert p(Fraction(1)) == 0
    assert p(Fraction(-1, 2)) == Fraction(-3, 4)


def test_derivative():
    p = _poly(5, -3, 0, 2)  # 2x^3 - 3x + 5
    assert p.derivative() == _poly(-3, 0, 6)


def test_gcd_of_shared_factor():
    shared = _poly(-1, 1)            # x - 1
    p = shared * _poly(2, 1)
    q = shared * _poly(3, 0, 1)
    g = poly_gcd(p, q)
    assert g == shared.monic()
    # rational coefficients: the gcd is the same monic polynomial
    half = Fraction(1, 2)
    assert poly_gcd(p * half, q * Fraction(-2, 3)) == shared.monic()
    rp = _poly(Fraction(-1, 3), 1) * _poly(Fraction(5, 7), 0, 1)
    rq = rp * _poly(3, half)
    assert poly_gcd(rp, rq) == rp.monic()
    assert poly_gcd(rq, rp * 4) == rp.monic()
    assert poly_gcd(_poly(1, 1), _poly(Fraction(-1, 2), 1)) == _poly(1)
    # zero operands: gcd(a, 0) = gcd(0, a) = a made monic, gcd(0, 0) = 0
    zero = _poly()
    assert poly_gcd(rq, zero) == poly_gcd(zero, rq) == rq.monic()
    assert poly_gcd(zero, _poly(Fraction(-3, 4))) == _poly(1)
    assert poly_gcd(zero, zero).is_zero


def test_squarefree_part_drops_multiplicity():
    p = _poly(-1, 1) * _poly(-1, 1) * _poly(2, 1)  # (x-1)^2 (x+2)
    sf = squarefree_part(p)
    assert sf == (_poly(-1, 1) * _poly(2, 1)).monic()


def test_count_roots_quadratic():
    p = _poly(-2, 0, 1)  # x^2 - 2, roots +-sqrt(2)
    assert count_roots(p, Fraction(0), Fraction(2)) == 1
    assert count_roots(p, Fraction(-2), Fraction(0)) == 1
    assert count_roots(p, Fraction(-2), Fraction(2)) == 2
    assert count_roots(p, Fraction(2), Fraction(3)) == 0


def test_count_roots_interval_is_half_open():
    p = _poly(-1, 1)  # root exactly at 1
    assert count_roots(p, Fraction(0), Fraction(1)) == 1
    assert count_roots(p, Fraction(1), Fraction(2)) == 0


def test_count_roots_with_repeated_factor():
    p = _poly(-1, 1) * _poly(-1, 1)  # (x-1)^2: one distinct root
    assert count_roots(p, Fraction(0), Fraction(2)) == 1


def test_sturm_chain_signs_at_random_rationals():
    rng = random.Random(5)
    p = _poly(-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
    chain = sturm_chain(p)
    for _ in range(20):
        lo = Fraction(rng.randrange(-8, 8), rng.randrange(1, 4))
        hi = lo + Fraction(rng.randrange(1, 10), rng.randrange(1, 4))
        counted = _variations(chain, lo) - _variations(chain, hi)
        actual = sum(1 for r in (1, 2, 3) if lo < r <= hi)
        assert counted == actual


def test_sturm_chain_second_polynomial_defaults_to_derivative():
    p = _poly(-6, 11, -6, 1)
    assert sturm_chain(p) == sturm_chain(p, p.derivative())
    assert sturm_chain(p, Poly(())) == [p]
    assert sturm_chain(p, _poly(2)) == [p, _poly(2)]


def _random_pair(rng: random.Random, kind: str) -> tuple[Poly, Poly | None]:
    """A seeded (p, q) of the given kind; q is None for the default p'."""

    def coeff():
        c = rng.randrange(-6, 7)
        return Fraction(c, rng.randrange(1, 5)) if rng.random() < 0.5 else c

    def rand(deg):
        return Poly.from_coeffs([coeff() for _ in range(deg)] + [rng.choice([-3, -1, 1, 2])])

    p = rand(rng.randrange(0, 7))
    if kind == "repeated":
        f = rand(rng.randrange(1, 3))
        p = p * f * f * (f if rng.random() < 0.3 else Poly.constant(1))
    if kind in ("derivative", "repeated"):
        return p, None
    if kind == "zero":
        return p, Poly(())
    if kind == "constant":
        return p, Poly.constant(rng.choice([-2, Fraction(-1, 3), 1, Fraction(5, 2)]))
    if kind == "integer":
        return (Poly.from_coeffs([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 9))]),
                Poly.from_coeffs([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 9))]))
    return p, rand(rng.randrange(0, 9))


def test_sturm_chain_is_positive_multiple_of_rational_chain():
    rng = random.Random(31)
    kinds = ("derivative", "repeated", "other", "integer", "zero", "constant")
    seen = {k: 0 for k in kinds}
    for i in range(360):
        kind = kinds[i % len(kinds)]
        p, q = _random_pair(rng, kind)
        chain = sturm_chain(p, q)
        expected = sturm_chain_oracle(p.coeffs, (p.derivative() if q is None else q).coeffs)
        assert len(chain) == len(expected), (p, q)
        for got, want in zip(chain, expected):
            assert got.is_integral()
            assert got.degree == len(want) - 1
            if not want:
                continue
            ratio = got.leading / want[-1]
            assert ratio > 0
            assert list(got.coeffs) == [ratio * c for c in want], (p, q)
        seen[kind] += len(chain) > 2
    assert min(seen[k] for k in ("derivative", "repeated", "other", "integer")) > 20, seen


def test_sign_at_matches_rational_evaluation():
    rng = random.Random(37)
    for _ in range(200):
        p = _poly(*(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                    for _ in range(rng.randrange(0, 7))))
        x = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        v = p(x)
        assert p.sign_at(x) == (v > 0) - (v < 0)
    p = _poly(-1, 1) * _poly(2, 3)  # roots 1 and -2/3
    assert p.sign_at(1) == 0 and p.sign_at(Fraction(-2, 3)) == 0
    assert p.sign_at(0) == -1 and p.sign_at(Fraction(-3, 2)) == 1


def test_tarski_query_sums_signs_over_distinct_roots():
    rng = random.Random(8)
    roots = (-3, 1, 2)
    p = _poly(3, 1) * _poly(-1, 1) * _poly(-2, 1) * _poly(-2, 1)  # (x+3)(x-1)(x-2)^2
    for _ in range(60):
        q = _poly(*(rng.randrange(-4, 5) for _ in range(rng.randrange(0, 6))))
        lo = Fraction(rng.randrange(-9, 6), 2) + Fraction(1, 3)
        hi = lo + Fraction(rng.randrange(1, 12), 2)
        expected = sum((q(r) > 0) - (q(r) < 0) for r in roots if lo < r < hi)
        assert tarski_query_oracle(p.coeffs, q.coeffs, lo, hi) == expected
        # rational coefficients, and a negative multiple of p: same roots
        assert tarski_query_oracle((p * Fraction(-3, 2)).coeffs, (q * Fraction(2, 7)).coeffs,
                                   lo, hi) == expected
    with pytest.raises(ValueError):
        tarski_query_oracle(p.coeffs, [1], Fraction(0), Fraction(1))
