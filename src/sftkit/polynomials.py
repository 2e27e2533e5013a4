"""Dense univariate polynomials over the rationals, plus Sturm root counting.

Coefficients are stored ascending (coeffs[i] multiplies x**i), each an `int`
when it is integral and a `fractions.Fraction` only otherwise (`_num`, the
one number rule of the package, which `linalg` applies to matrices too), so
everything here is exact and no float ever enters.  One remainder loop,
`sturm_chain`, builds every signed remainder sequence and every gcd
(`poly_gcd`), and it runs over the integers: only the signs of the sequence
are ever read, so it is a primitive pseudo-remainder sequence (Collins 1967;
Brown & Traub 1971) whose every element is a positive rational multiple of
the element at the same position of the signed remainder sequence over the
rationals.  Signs are read with
integer arithmetic only (`Poly.sign_at`): the sign of an integer polynomial
of degree d at a/b, b > 0, is the sign of sum c_i a^i b^(d-i).

The package's integer-row helpers live here: `_integral` and `_scaled`
clear denominators, and `_coprime` divides out the content.

`count_roots` counts distinct real roots in a half-open interval (a, b];
with a squarefree input this is the textbook sign-variation difference and
tolerates roots landing exactly on the right endpoint.  `tarski_query` sums
the signs of q over the roots of p in (a, b) by Sylvester's theorem (Basu,
Pollack & Roy, *Algorithms in Real Algebraic Geometry*, ch. 2): the sequence
of p and p'q mod p, read at two endpoints that are not roots of p.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._frozen import Frozen, _set
from .errors import ShapeError

Rat = Fraction | int

# the types an all-int sequence holds: exactly int, so neither bool nor Fraction
_INT = frozenset({int})


def _num(x) -> Rat:
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f.numerator if f.denominator == 1 else f


class Poly(Frozen):
    """Immutable polynomial (zero: the empty tuple); `from_coeffs` keeps ints when integral."""

    coeffs: tuple[Rat, ...]

    # built by every step of every remainder sequence, so its methods are written out
    def __init__(self, coeffs: tuple[Rat, ...]) -> None:
        _set(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Rat]) -> "Poly":
        cs = [_num(c) for c in coeffs]
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
    def leading(self) -> Rat:
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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
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
        quo = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            q = Fraction(rem[-1], lead)
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
        return Poly.from_coeffs(quo), Poly.from_coeffs(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly.from_coeffs([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: Rat) -> Rat:
        x = _num(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _num(acc)

    def sign_at(self, x: Rat) -> int:
        """Sign (-1, 0 or 1) of self(x), computed with integers only.

        Homogeneous Horner at x = a/b, b > 0, on the coefficients with their
        denominators cleared: the value times a positive integer is
        sum c_i a^i b^(d-i).
        """
        x = _num(x)
        a, b = x.numerator, x.denominator
        acc, bk = 0, 1
        for c in reversed(_integral(self.coeffs)):
            acc = acc * a + c * bk
            bk *= b
        return (acc > 0) - (acc < 0)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self * Fraction(1, self.leading)

    def pretty(self) -> str:
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
                term = f"{mag}x" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals; zero when a = b = 0.

    The last element of the signed remainder sequence of a and b
    (`sturm_chain`, run over the integers) is a nonzero multiple of the gcd.
    """
    return sturm_chain(a, b)[-1].monic()


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


def _integral(row: Sequence[Rat]) -> list[int]:
    """row times the lcm of its entries' denominators; an all-int row (one type scan) as it is."""
    if _INT.issuperset(map(type, row)):
        return list(row)
    return _scaled(row, math.lcm(*(x.denominator for x in row)))


def _scaled(row: Sequence[Rat], den: int) -> list[int]:
    """den * row, for den a common multiple of the entries' denominators."""
    return [x.numerator * (den // x.denominator) for x in row]


def _coprime(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (its content); a zero row as it is."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b) divided by its content: a positive multiple of a mod b.

    Each elimination step multiplies the remainder by |lc(b)| / g and
    subtracts (lead / g) sgn(lc(b)) x^k b, g the gcd of the two leading
    coefficients, so the multiplier of a stays positive and divides
    |lc(b)|^(deg a - deg b + 1).  The result is [] for a zero remainder.
    """
    lc = b[-1]
    alc, sgn = abs(lc), (1 if lc > 0 else -1)
    r = a
    while len(r) >= len(b):
        k = len(r) - len(b)
        g = math.gcd(r[-1], alc)
        f, t = alc // g, sgn * (r[-1] // g)
        r = [f * c for c in r[:k]] + [f * c - t * d for c, d in zip(r[k:], b)]
        while r and r[-1] == 0:
            r.pop()
    return _coprime(r)


def sturm_chain(p: Poly, q: Poly | None = None) -> list[Poly]:
    """Signed remainder sequence p, q, then negated remainders; q defaults to p'.

    With the default this is the canonical Sturm chain of p.  The sequence is
    computed over the integers: p and q are each multiplied by the lcm of
    their coefficient denominators, and each further element is the negated
    pseudo-remainder of the previous two divided by its content.  Every
    element is therefore a positive rational multiple of the corresponding
    element of the sequence over the rationals (p, q, -(p mod q), ...): the
    signs at every point, hence every sign-variation count, are the same.
    """
    chain = [_integral(p.coeffs), _integral((p.derivative() if q is None else q).coeffs)]
    while chain[-1] and len(chain[-1]) > 1:
        chain.append([-c for c in _primitive_prem(chain[-2], chain[-1])])
    if not chain[-1]:
        chain.pop()
    return [Poly.from_coeffs(cs) for cs in chain]


def _variations(chain: Sequence[Poly], x: Rat) -> int:
    """Sign changes along chain at x, zeros skipped, each sign read over the integers."""
    signs = [s for q in chain if (s := q.sign_at(x))]
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def count_roots(p: Poly, lo: Rat, hi: Rat) -> int:
    """Number of distinct real roots of p in (lo, hi], by the Sturm chain of its squarefree part."""
    if hi < lo:
        raise ShapeError("empty interval: hi < lo")
    if p.is_zero:
        raise ShapeError("root counting on the zero polynomial")
    if p.degree == 0:
        return 0
    chain = sturm_chain(squarefree_part(p))
    return _variations(chain, lo) - _variations(chain, hi)


def tarski_query(p: Poly, q: Poly, lo: Rat, hi: Rat) -> int:
    """Sum of sign q(x) over the distinct real roots x of p in (lo, hi).

    Sylvester's theorem: the sign-variation difference of the signed
    remainder sequence of p and p'q (taken mod p, which leaves the Cauchy
    index unchanged).  Neither endpoint may be a root of p.  The second
    element is formed over the integers too, as a positive multiple of
    p'q mod p.
    """
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise ShapeError("Tarski query endpoints must not be roots of p")
    p_q = _integral((p.derivative() * q).coeffs)
    chain = sturm_chain(p, Poly.from_coeffs(_primitive_prem(p_q, _integral(p.coeffs))))
    return _variations(chain, lo) - _variations(chain, hi)
