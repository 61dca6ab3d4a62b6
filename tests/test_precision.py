"""The high-precision backend: exact conversion back to rationals, and
integer ratios rounded once."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from sospgrid._precision import PRECISION, hp, hp_quotient, to_fraction, to_ratio


def test_to_fraction_is_exact_on_hp_values():
    v = hp(Fraction(1, 3))
    q = to_fraction(v)
    assert isinstance(q, Fraction)
    den = q.denominator
    assert den & (den - 1) == 0  # a binary float is a dyadic rational
    assert hp(q) == v
    assert to_fraction(-v) == -q
    for bad in ("inf", "-inf", "nan"):
        with pytest.raises((ValueError, OverflowError)):
            to_fraction(hp(bad))


def test_to_ratio_is_exact():
    """to_ratio gives the exact (numerator, denominator), denominator > 0, of
    an int, Fraction, float or hp value, reduced as as_integer_ratio is, and
    to_fraction is that pair as a Fraction."""
    third = hp(Fraction(1, 3))
    for value, want in ((7, (7, 1)), (-3, (-3, 1)), (Fraction(-6, 4), (-3, 2)),
                        (0.375, (3, 8)), (hp(0), (0, 1)), (hp(-12), (-12, 1)),
                        (hp(2) ** 300, (2**300, 1)), (hp(Fraction(-5, 64)), (-5, 64))):
        assert to_ratio(value) == want
        assert all(type(n) is int for n in to_ratio(value))
        assert to_fraction(value) == Fraction(*want)
    num, den = to_ratio(third)
    assert den & (den - 1) == 0 and num % 2 == 1 and num.bit_length() == PRECISION
    assert hp_quotient(num, den) == third
    assert abs(Fraction(num, den) - Fraction(1, 3)) < Fraction(1, 2**PRECISION)
    for bad, error in (("inf", OverflowError), ("-inf", OverflowError), ("nan", ValueError)):
        with pytest.raises(error):
            to_ratio(hp(bad))
        with pytest.raises(error):
            to_ratio(float(bad))


def test_hp_quotient_rounds_once():
    """hp_quotient(n, d) is n/d correctly rounded: it equals mpmath's division
    of the exact n and d, also when both are far longer than the precision."""
    rng = random.Random(3)
    for _ in range(300):
        num = rng.getrandbits(rng.choice((1, 60, 192, 193, 2500))) << rng.choice((0, 900))
        den = (rng.getrandbits(rng.choice((1, 191, 2100))) | 1) << rng.choice((0, 700))
        num *= rng.choice((1, -1))
        with mpmath.workprec(6000):  # both held exactly
            exact_num, exact_den = mpmath.mpf(num), mpmath.mpf(den)
        want = mpmath.mp.make_mpf(mpmath.libmp.mpf_div(
            exact_num._mpf_, exact_den._mpf_, PRECISION, mpmath.libmp.round_nearest))
        assert hp_quotient(num, den) == want
