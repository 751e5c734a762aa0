"""Exact arithmetic on numbers of the form q*sqrt(r) with rational q and r >= 0.

The quantities appearing in the orthonormal-function calculus are rationals
times a square root of a positive rational.  Sums only ever combine terms
whose radicands differ by a perfect rational square; addition checks that
property explicitly instead of assuming it, so any bookkeeping error
surfaces as an IncompatibleRadicalsError rather than a wrong number.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import FloatRangeError, IncompatibleRadicalsError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def exact_isqrt(n: int) -> int | None:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_fraction(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if value < 0:
        return None
    num = exact_isqrt(value.numerator)
    if num is None:
        return None
    den = exact_isqrt(value.denominator)
    if den is None:
        return None
    return Fraction(num, den)


class SignedSqrt:
    """The exact real number ``coeff * sqrt(radicand)``.

    Zero is normalized to coeff = radicand = 0.  The representation is not
    canonical ((2, 1) and (1, 4) denote the same number); equality compares
    sign and square.
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff: Fraction | int, radicand: Fraction | int = _ONE):
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        if not isinstance(radicand, Fraction):
            radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError(f"negative radicand: {radicand}")
        if coeff == 0 or radicand == 0:
            coeff = _ZERO
            radicand = _ZERO
        self.coeff = coeff
        self.radicand = radicand

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> SignedSqrt:
        return cls(_ZERO, _ZERO)

    @classmethod
    def sqrt(cls, radicand: Fraction | int) -> SignedSqrt:
        return cls(_ONE, radicand)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def sign(self) -> int:
        if self.coeff > 0:
            return 1
        if self.coeff < 0:
            return -1
        return 0

    def square(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def as_rational(self) -> Fraction:
        """Exact rational value; raises if the number is irrational."""
        root = sqrt_fraction(self.radicand)
        if root is None:
            raise IncompatibleRadicalsError(f"{self!r} is not rational")
        return self.coeff * root

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other) -> SignedSqrt:
        if isinstance(other, SignedSqrt):
            return SignedSqrt(self.coeff * other.coeff, self.radicand * other.radicand)
        if isinstance(other, (int, Fraction)):
            return SignedSqrt(self.coeff * other, self.radicand)
        return NotImplemented

    def __add__(self, other) -> SignedSqrt:
        if isinstance(other, (int, Fraction)):
            other = SignedSqrt(Fraction(other))
        if not isinstance(other, SignedSqrt):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        ratio = sqrt_fraction(other.radicand / self.radicand)
        if ratio is None:
            raise IncompatibleRadicalsError(
                f"cannot add sqrt({self.radicand}) and sqrt({other.radicand})"
            )
        return SignedSqrt(self.coeff + other.coeff * ratio, self.radicand)

    # -- comparisons / conversions -------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SignedSqrt):
            return self.sign == other.sign and self.square() == other.square()
        if isinstance(other, (int, Fraction)):
            other_f = Fraction(other)
            sign = 1 if other_f > 0 else (-1 if other_f < 0 else 0)
            return self.sign == sign and self.square() == other_f * other_f
        return NotImplemented

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __float__(self) -> float:
        # The square is num / den with num = c_n^2 r_n and den = c_d^2 r_d from
        # the reduced parts, not necessarily in lowest terms.  It is scaled by
        # an even power of two 2^shift into [1/2, 4), so that a square outside
        # the float range still gives its root when that is in range.  int / int
        # is correctly rounded and the quotient is a normal float, so another
        # representation of the same square, whose shift may differ by 2, gets
        # the rounded quotient times an exact 4, the root times an exact 2, and
        # ldexp rounds the same real number: the float does not depend on the
        # representation, and in range it is the root of the rounded square.
        coeff, radicand = self.coeff, self.radicand
        num = coeff.numerator * coeff.numerator * radicand.numerator
        if not num:
            return 0.0
        den = coeff.denominator * coeff.denominator * radicand.denominator
        shift = num.bit_length() - den.bit_length()
        shift -= shift % 2
        scaled = num / (den << shift) if shift >= 0 else (num << -shift) / den
        try:
            return self.sign * math.ldexp(math.sqrt(scaled), shift // 2)
        except OverflowError:
            raise FloatRangeError(
                f"|value| is about 2^{shift // 2}, above the float range"
            ) from None

    def __repr__(self) -> str:
        return f"SignedSqrt({self.coeff!r}, {self.radicand!r})"
