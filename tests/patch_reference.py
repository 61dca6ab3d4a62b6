"""Reference patch evaluator for the tests, and patches from coefficients.

A plain loop over the patch's Fraction coefficients and the powers of the
local offsets, sharing no code with biquintic's integer kernel, so that a
test comparing the two checks the kernel against something else.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sospgrid.biquintic import BoxPatch


def patch_of(coeffs, a=0, b=0):
    """The BoxPatch with the 6x6 rational coefficient matrix coeffs:
    K = D * coeffs over the least common denominator D."""
    coeffs = [[Fraction(c) for c in row] for row in coeffs]
    D = math.lcm(*(c.denominator for row in coeffs for c in row))
    K = tuple(tuple(c.numerator * (D // c.denominator) for c in row)
              for row in coeffs)
    return BoxPatch(a=a, b=b, K=K, D=D)


def reference_eval(patch, x, y):
    """(f, (fx, fy), ((fxx, fxy), (fxy, fyy))) at rational (x, y), exactly."""
    dx = Fraction(x) - patch.a
    dy = Fraction(y) - patch.b
    assert 0 <= dx <= 1 and 0 <= dy <= 1
    xp = [Fraction(1)]
    yp = [Fraction(1)]
    for _ in range(5):
        xp.append(xp[-1] * dx)
        yp.append(yp[-1] * dy)
    f = fx = fy = fxx = fyy = fxy = Fraction(0)
    for i in range(6):
        for j in range(6):
            c = patch.coeffs[i][j]
            f += c * xp[i] * yp[j]
            if i >= 1:
                fx += i * c * xp[i - 1] * yp[j]
            if j >= 1:
                fy += j * c * xp[i] * yp[j - 1]
            if i >= 2:
                fxx += i * (i - 1) * c * xp[i - 2] * yp[j]
            if j >= 2:
                fyy += j * (j - 1) * c * xp[i] * yp[j - 2]
            if i >= 1 and j >= 1:
                fxy += i * j * c * xp[i - 1] * yp[j - 1]
    return f, (fx, fy), ((fxx, fxy), (fxy, fyy))
