"""Dense univariate polynomials over the rationals, plus Sturm root counting.

Coefficients are stored ascending (coeffs[i] multiplies x**i) and held as
`fractions.Fraction`, so everything here is exact.  One remainder loop,
`sturm_chain`, builds every signed remainder sequence.  `count_roots` counts
distinct real roots in a half-open interval (a, b]; with a squarefree input
this is the textbook sign-variation difference and tolerates roots landing
exactly on the right endpoint.  `tarski_query` sums the signs of q over the
roots of p in (a, b) by Sylvester's theorem (Basu, Pollack & Roy,
*Algorithms in Real Algebraic Geometry*, ch. 2): the sequence of p and p'q
mod p, read at two endpoints that are not roots of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ShapeError

Rat = Fraction | int


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Poly:
    """Immutable polynomial; the zero polynomial has an empty coefficient tuple."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Rat]) -> "Poly":
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def constant(cls, c: Rat) -> "Poly":
        return cls.from_coeffs([c])

    @classmethod
    def x(cls) -> "Poly":
        return cls.from_coeffs([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ShapeError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_coeffs(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | Rat") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly.from_coeffs([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.from_coeffs(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            q = rem[-1] / lead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
        return Poly.from_coeffs(quo), Poly.from_coeffs(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly.from_coeffs([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: Rat) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def pretty(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'); same distinct roots, all simple."""
    if p.degree <= 1:
        return p.monic() if not p.is_zero else p
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic()
    q, r = divmod(p, g)
    assert r.is_zero
    return q.monic()


def sturm_chain(p: Poly, q: Poly | None = None) -> list[Poly]:
    """Signed remainder sequence p, q, then negated remainders; q defaults to p'.

    With the default this is the canonical Sturm chain of p.
    """
    chain = [p, p.derivative() if q is None else q]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def count_roots(p: Poly, lo: Rat, hi: Rat, chain: Sequence[Poly] | None = None) -> int:
    """Number of distinct real roots of p in (lo, hi].

    The chain of the squarefree part may be passed in to amortize repeated
    queries against the same polynomial.
    """
    lo, hi = _frac(lo), _frac(hi)
    if hi < lo:
        raise ShapeError("empty interval: hi < lo")
    if p.is_zero:
        raise ShapeError("root counting on the zero polynomial")
    if p.degree == 0:
        return 0
    if chain is None:
        chain = sturm_chain(squarefree_part(p))
    return _variations(chain, lo) - _variations(chain, hi)


def tarski_query(p: Poly, q: Poly, lo: Rat, hi: Rat) -> int:
    """Sum of sign q(x) over the distinct real roots x of p in (lo, hi).

    Sylvester's theorem: the sign-variation difference of the signed
    remainder sequence of p and p'q (taken mod p, which leaves the Cauchy
    index unchanged).  Neither endpoint may be a root of p.
    """
    lo, hi = _frac(lo), _frac(hi)
    if p(lo) == 0 or p(hi) == 0:
        raise ShapeError("Tarski query endpoints must not be roots of p")
    chain = sturm_chain(p, p.derivative() * q % p)
    return _variations(chain, lo) - _variations(chain, hi)
