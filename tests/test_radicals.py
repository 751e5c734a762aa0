import math
import random
from fractions import Fraction

import pytest

from hahn_paths import FloatRangeError, IncompatibleRadicalsError, SignedSqrt
from hahn_paths.radicals import sqrt_fraction


def test_sqrt_fraction_exact():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1)) is None


def test_zero_normalization():
    assert SignedSqrt(0, 17).is_zero()
    assert SignedSqrt(3, 0).is_zero()
    assert SignedSqrt.zero() == SignedSqrt(0, 5)


def test_equality_ignores_representation():
    assert SignedSqrt(2, 1) == SignedSqrt(1, 4)
    assert SignedSqrt(-2, 1) != SignedSqrt(1, 4)
    assert SignedSqrt(1, 2) != SignedSqrt(1, 3)
    assert SignedSqrt(3, 1) == 3
    assert SignedSqrt(1, 2) != Fraction(7, 5)


def test_arithmetic():
    a = SignedSqrt(Fraction(1, 2), 2)
    b = SignedSqrt(3, 8)
    assert (a * b).square() == Fraction(9 * 16 // 4, 1)
    assert (a + b) == SignedSqrt(Fraction(13, 2), 2)
    assert float(SignedSqrt(1, 4)) == 2.0
    assert float(SignedSqrt(-1, 2)) == pytest.approx(-(2**0.5))


def test_incompatible_radicands_raise():
    with pytest.raises(IncompatibleRadicalsError):
        SignedSqrt(1, 2) + SignedSqrt(1, 3)
    with pytest.raises(IncompatibleRadicalsError):
        SignedSqrt(1, 2).as_rational()


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        SignedSqrt(1, -1)


def test_sum_helper():
    terms = [SignedSqrt(1, 2), SignedSqrt(2, 2), SignedSqrt(-3, 2)]
    assert sum(terms, SignedSqrt.zero()).is_zero()
    assert sum([], SignedSqrt.zero()).is_zero()


def test_float_of_a_square_outside_the_float_range():
    # Only the root has to be a float: the square is scaled by 4^k first.
    assert float(SignedSqrt(-1, 2**2000)) == -(2.0**1000)
    assert float(SignedSqrt(1, Fraction(3, 2**1800))) == math.ldexp(math.sqrt(3), -900)
    with pytest.raises(FloatRangeError):
        float(SignedSqrt(1, 2**2100))
    # Where the square is a normal float, the value is sqrt(float(square)) bit for bit.
    rng = random.Random(5)
    for _ in range(2000):
        value = SignedSqrt(
            Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12)),
            Fraction(rng.randrange(1, 10**40), rng.randrange(1, 10**40)),
        )
        assert float(value) == value.sign * math.sqrt(float(value.square())), value
