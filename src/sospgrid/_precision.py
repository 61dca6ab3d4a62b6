"""High-precision float backend.

Objective values reach ~1e16 * N while the verifier works at eps_0 = 1e-10,
so 53-bit floats cannot resolve the quantities of interest.  All float-path
numerics run through this module, backed by gmpy2.mpfr when gmpy2 is
installed and by mpmath.mpf otherwise, with a configurable precision of at
least 128 bits.  Both backends are supported; mpmath's mpf does not mix with
Fraction, so rational data meets hp values only after hp() or to_fraction().
An hp value becomes rational only through to_fraction(), which is exact;
never through float(), which keeps 53 bits.
"""

from __future__ import annotations

from fractions import Fraction

try:
    import gmpy2

    _HAVE_GMPY2 = True
except ImportError:
    import mpmath

    _HAVE_GMPY2 = False

DEFAULT_PRECISION = 192

_precision = DEFAULT_PRECISION

if _HAVE_GMPY2:
    gmpy2.get_context().precision = _precision
else:
    mpmath.mp.prec = _precision


def set_precision(bits: int) -> None:
    """Set the working precision (significand bits) for the float path."""
    global _precision
    if bits < 128:
        raise ValueError("float path requires at least 128 bits")
    _precision = bits
    if _HAVE_GMPY2:
        gmpy2.get_context().precision = bits
    else:
        mpmath.mp.prec = bits


def get_precision() -> int:
    return _precision


if _HAVE_GMPY2:

    def hp(value):
        """Convert int/Fraction/float/str to a high-precision float."""
        if isinstance(value, Fraction):
            return gmpy2.mpfr(value.numerator) / gmpy2.mpfr(value.denominator)
        return gmpy2.mpfr(value)

    def hp_sqrt(value):
        return gmpy2.sqrt(hp(value))

    def hp_is_type(value) -> bool:
        return isinstance(value, type(gmpy2.mpfr(0)))

    def _hp_ratio(value) -> tuple[int, int]:
        num, den = value.as_integer_ratio()
        return int(num), int(den)

else:

    def hp(value):
        if isinstance(value, Fraction):
            return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
        return mpmath.mpf(value)

    def hp_sqrt(value):
        return mpmath.sqrt(hp(value))

    def hp_is_type(value) -> bool:
        return isinstance(value, mpmath.mpf)

    def _hp_ratio(value) -> tuple[int, int]:
        # Same errors as float.as_integer_ratio on non-finite values.
        if mpmath.isnan(value):
            raise ValueError("cannot convert NaN to integer ratio")
        if mpmath.isinf(value):
            raise OverflowError("cannot convert Infinity to integer ratio")
        man, exp = value.man_exp  # unsigned mantissa
        if value < 0:
            man = -man
        if exp >= 0:
            return int(man) << exp, 1
        return int(man), 1 << -exp


def to_fraction(value) -> Fraction:
    """Exact Fraction from an int, Fraction, float or high-precision float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if hp_is_type(value):
        return Fraction(*_hp_ratio(value))
    return Fraction(value)
