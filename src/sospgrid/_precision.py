"""High-precision float backend.

Objective values reach ~1e16 * N while the verifier works at eps_0 = 1e-10,
so 53-bit floats cannot resolve the quantities of interest.  All float-path
numerics run through this module: high-precision ("hp") numbers are
mpmath mpf values at the fixed working precision PRECISION = 192 bits
(the hard instance needs at least 128).  This is the only module that
imports mpmath.  An mpf does not mix with Fraction, so rational data meets
hp values only after hp(), hp_quotient(), to_ratio() or to_fraction().  An
exact integer ratio becomes hp through hp_quotient(), which rounds it once;
an hp value becomes rational only through to_ratio() (an integer pair) or
to_fraction() (built on it), which are exact.  None of them goes through
float(), which keeps 53 bits.

Integer ratios.  The package decides in integers: a number is read once,
by to_ratio, as its exact pair (num, den) with den > 0 and no gcd; two
ratios are compared by cross-multiplication, which needs den > 0 and
builds no Fraction; and a gcd is taken only on a value that is returned,
where Fraction normalises it.  The modules that decide this way cite
this paragraph.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp, round_nearest

PRECISION = 192  # significand bits of every hp value

mpmath.mp.prec = PRECISION


def hp(value):
    """Convert int/Fraction/float/str to a high-precision float."""
    if isinstance(value, Fraction):
        return hp_quotient(value.numerator, value.denominator)
    return mpmath.mpf(value)


def hp_quotient(num: int, den: int):
    """num / den (den > 0) rounded once, to nearest, at the working precision.

    Only precision + 3 bits of the quotient are formed, plus a sticky bit
    for a nonzero remainder, so a long num or den is never held whole in an
    mpf: mpf(int) stores the integer exactly and strips its trailing zero
    bits a byte at a time before it rounds.
    """
    if not num:
        return mpmath.mpf(0)
    shift = PRECISION + 3 - num.bit_length() + den.bit_length()
    if shift >= 0:
        q, r = divmod(abs(num) << shift, den)
    else:
        q, r = divmod(abs(num), den << -shift)
    man = (q << 1) | (r != 0)
    if num < 0:
        man = -man
    return mpmath.mp.make_mpf(
        from_man_exp(man, -shift - 1, PRECISION, round_nearest))


def hp_sqrt(value):
    return mpmath.sqrt(hp(value))


def hp_is_type(value) -> bool:
    return isinstance(value, mpmath.mpf)


def to_ratio(value) -> tuple[int, int]:
    """Exact (numerator, denominator), denominator > 0, of an int, Fraction,
    float or high-precision float; an hp value's pair is its mantissa over
    a power of two, read without a gcd."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    if not hp_is_type(value):
        return Fraction(value).as_integer_ratio()
    sign, man, exp, _ = value._mpf_
    if not man and exp:  # a zero mantissa with an exponent: NaN or infinity
        # Same errors as float.as_integer_ratio on non-finite values.
        if mpmath.isnan(value):
            raise ValueError("cannot convert NaN to integer ratio")
        raise OverflowError("cannot convert Infinity to integer ratio")
    if sign:
        man = -man
    if exp >= 0:
        return int(man) << exp, 1
    return int(man), 1 << -exp


def to_fraction(value) -> Fraction:
    """Exact Fraction from an int, Fraction, float or high-precision float."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*to_ratio(value))
