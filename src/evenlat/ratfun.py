"""Univariate rational functions over Q in one formal variable.

Only the arithmetic needed for exact Moebius-map bookkeeping on P^1 over
Q(s): polynomial gcd, reduced fractions, and evaluation of fractional
linear maps with an explicit point at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class Poly:
    """Polynomial over Q; coeffs[i] is the coefficient of s**i."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coeffs) -> Poly:
        return cls(_trim(tuple(Fraction(c) for c in coeffs)))

    @classmethod
    def const(cls, c) -> Poly:
        return cls.of(c)

    @classmethod
    def var(cls) -> Poly:
        return cls.of(0, 1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return Poly(_trim(tuple(x + y for x, y in zip(a, b))))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Poly) -> Poly:
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(_trim(tuple(out)))

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(()), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(_trim(tuple(quot))), Poly(_trim(tuple(rem)))

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly(tuple(c / lead for c in self.coeffs))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


@dataclass(frozen=True)
class RatFun:
    """Reduced fraction of polynomials; denominator monic and nonzero."""

    num: Poly
    den: Poly

    @classmethod
    def make(cls, num: Poly, den: Poly) -> RatFun:
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return cls(Poly(()), Poly.of(1))
        g = poly_gcd(num, den)
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        num = Poly(tuple(c / lead for c in num.coeffs))
        den = den.monic()
        return cls(num, den)

    @classmethod
    def const(cls, c) -> RatFun:
        return cls.make(Poly.const(c), Poly.of(1))

    @classmethod
    def var(cls) -> RatFun:
        return cls.make(Poly.var(), Poly.of(1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: RatFun) -> RatFun:
        return RatFun.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: RatFun) -> RatFun:
        return self + (-other)

    def __neg__(self) -> RatFun:
        return RatFun(-self.num, self.den)

    def __mul__(self, other: RatFun) -> RatFun:
        return RatFun.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFun) -> RatFun:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun.make(self.num * other.den, self.den * other.num)


class _Infinity:
    """The point at infinity on P^1; a singleton, equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def mobius_images(prefactor: RatFun, abcd, points) -> list:
    """Images of points of P^1 over Q(s) under z -> prefactor*(a*z+b)/(c*z+d).

    Each point is a RatFun or INFINITY; the result is INFINITY exactly when
    the denominator vanishes identically after substitution (or, for the
    point at infinity itself, when c = 0).  Degenerate maps (a*d - b*c = 0
    or zero prefactor) are rejected.
    """
    a, b, c, d = abcd
    if (a * d - b * c).is_zero():
        raise ValueError("degenerate fractional linear map: a*d - b*c = 0")
    if prefactor.is_zero():
        raise ValueError("degenerate map: zero prefactor")
    images = []
    for z in points:
        if z is INFINITY:
            if c.is_zero():
                images.append(INFINITY)
            else:
                images.append(prefactor * (a / c))
            continue
        den = c * z + d
        if den.is_zero():
            images.append(INFINITY)
        else:
            images.append(prefactor * ((a * z + b) / den))
    return images
