"""Per-cell degree-(5,5) Hermite interpolation.

Each unit cell Box(a, b) gets a polynomial sum_ij c_ij (x-a)^i (y-b)^j whose
value, first derivative, and pure second derivative match the corner data at
all four corners (mixed corner derivatives are exactly zero).  A patch is
its coefficient matrix C = A^-1 V (A^-1)^T held as integers: K over the
least common denominator D.  It is solved in integers, since 2 A^-1 is the
integer matrix A_INV2: with V scaled to integers by the common denominator
d of its entries, (2 A^-1) (d V) (2 A^-1)^T is C times 4 d.

Every product of the module is one integer primitive, _matvec: the dot
products of six-entry rows with one vector.  A rational offset t = p/q
becomes the integer power rows q^5 t^i and their first and second
derivatives, all over the scale q^5 (_rows), and an offset may be given as
an unreduced integer pair (p, q) (integer ratios: see _precision).  The
point kernel (BoxPatch.point_fields) gives the value, gradient and Hessian
at one point as seven integers, from the point's integer pairs: K times
the three rows of y, then six dot products with the rows of x.  BoxPatch.eval reads
it and returns the six numbers exactly, as Fractions, or each rounded once
to a high-precision float (see _precision).  A single value is the order-0
slice: f alone is the order-0 row of x times K times the order-0 row of y
(BoxPatch.value), the same integer as eval's f over the same scale.  The
grid kernel (BoxPatch.fields) gives the gradient and Hessian on a grid of
rational offsets as lists of rows indexed [i][j], each sample over its own
known scale; the certifier's sample grids use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from sospgrid._precision import hp_quotient, to_fraction, to_ratio
from sospgrid.color_field import CornerAssignment

# Rows: value at 0, value at 1, 1st derivative at 0/1, 2nd derivative at 0/1
# of the monomial basis 1, t, ..., t^5.
A_MATRIX = (
    (1, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1),
    (0, 1, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5),
    (0, 0, 2, 0, 0, 0),
    (0, 0, 2, 6, 12, 20),
)

# 2 A^-1, an integer matrix: A^-1 has denominator 2.
A_INV2 = (
    (2, 0, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (-20, 20, -12, -8, -3, 1),
    (30, -30, 16, 14, 3, -2),
    (-12, 12, -6, -6, -1, 1),
)
A_INV = tuple(tuple(Fraction(c, 2) for c in row) for row in A_INV2)


CornerBlock = tuple[tuple[Fraction, ...], ...]


def assemble_corner_block(
    c00: CornerAssignment,
    c01: CornerAssignment,
    c10: CornerAssignment,
    c11: CornerAssignment,
) -> CornerBlock:
    """6x6 value matrix V for corners at (a,b), (a,b+1), (a+1,b), (a+1,b+1).

    Row functionals act in x, column functionals in y: e.g. V[2][0] is
    f_x(a, b) and V[0][3] is f_y(a, b+1).  Mixed-derivative slots are zero.
    """
    zero = Fraction(0)
    return (
        (c00.value, c01.value, c00.grad[1], c01.grad[1], c00.f_yy, c01.f_yy),
        (c10.value, c11.value, c10.grad[1], c11.grad[1], c10.f_yy, c11.f_yy),
        (c00.grad[0], c01.grad[0], zero, zero, zero, zero),
        (c10.grad[0], c11.grad[0], zero, zero, zero, zero),
        (c00.f_xx, c01.f_xx, zero, zero, zero, zero),
        (c10.f_xx, c11.f_xx, zero, zero, zero, zero),
    )


def _value_row(num: int, den: int):
    """Integer row q^5 t^p (p = 0..5) of a rational t = num/den (den > 0,
    not necessarily reduced), and the scale q^5 = den^5."""
    pn = [num ** e for e in range(6)]
    qn = [den ** e for e in range(6)]
    return [pn[e] * qn[5 - e] for e in range(6)], qn[5]


def _rows(num: int, den: int):
    """Integer rows q^5 t^p, q^5 (t^p)' and q^5 (t^p)'' (p = 0..5) of t =
    num/den, and q^5: since q^5 p t^(p-1) = p num^(p-1) q^(6-p), the
    derivative rows are the value row shifted, times p and p (p - 1)."""
    r0, scale = _value_row(num, den)
    r1 = [0] + [e * r0[e - 1] for e in range(1, 6)]
    r2 = [0, 0] + [e * (e - 1) * r0[e - 2] for e in range(2, 6)]
    return r0, r1, r2, scale


def _matvec(rows, c):
    """The dot product of each six-entry row with c, as a list."""
    c0, c1, c2, c3, c4, c5 = c
    return [r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 + r4 * c4 + r5 * c5
            for r0, r1, r2, r3, r4, r5 in rows]


class Fields(NamedTuple):
    """Exact value, gradient and Hessian of a patch over one integer scale.
    At one point (BoxPatch.point_fields) each is an int: f / scale, gx /
    scale and so on.  On a grid of samples (BoxPatch.fields) each but f is
    a list of rows: gx at sample (i, j) is gx[i][j] / scale[i][j]; f is
    None there, since no grid reader needs it."""

    f: int | None
    gx: int | list
    gy: int | list
    hxx: int | list
    hyy: int | list
    hxy: int | list
    scale: int | list


@dataclass(frozen=True)
class BoxPatch:
    """One cell's coefficient matrix K / D, anchored at integer (a, b): K is
    six rows of six ints and D > 0 their least common denominator, so
    gcd(D, all K) = 1."""

    a: int
    b: int
    K: tuple[tuple[int, ...], ...]
    D: int

    @property
    def coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """The coefficients K[i][j] / D as Fractions."""
        return tuple(tuple(Fraction(k, self.D) for k in row) for row in self.K)

    def fields(self, xs, ys) -> Fields:
        """Exact gradient and Hessian on the xs x ys grid of rational local
        offsets (x - a, y - b), in integer arithmetic throughout: the rows of
        each x times K once, then one _matvec over the rows of the ys per
        field."""
        KT = tuple(zip(*self.K))
        y0, y1, y2, sy = zip(*(_rows(t.numerator, t.denominator) for t in ys))
        gx, gy, hxx, hyy, hxy, scale = ([] for _ in range(6))
        for t in xs:
            x0, x1, x2, sx = _rows(t.numerator, t.denominator)
            x0k, x1k, x2k = _matvec(KT, x0), _matvec(KT, x1), _matvec(KT, x2)
            gx.append(_matvec(y0, x1k))
            gy.append(_matvec(y1, x0k))
            hxx.append(_matvec(y0, x2k))
            hyy.append(_matvec(y2, x0k))
            hxy.append(_matvec(y1, x1k))
            scale.append([sx * s * self.D for s in sy])
        return Fields(None, gx, gy, hxx, hyy, hxy, scale)

    def point_fields(self, dx, dy) -> Fields:
        """The point kernel: exact fields at the local offsets dx = (num,
        den) and dy, integer pairs with den > 0 that need not be reduced,
        as seven integers in plain Python (K times the three rows of y,
        then six dot products with the rows of x)."""
        x0, x1, x2, sx = _rows(*dx)
        y0, y1, y2, sy = _rows(*dy)
        k0, k1, k2 = _matvec(self.K, y0), _matvec(self.K, y1), _matvec(self.K, y2)
        f, gx, hxx = _matvec((x0, x1, x2), k0)
        gy, hxy = _matvec((x0, x1), k1)
        (hyy,) = _matvec((x0,), k2)
        return Fields(f, gx, gy, hxx, hyy, hxy, sx * sy * self.D)

    def _local(self, x, y):
        """Local offsets (x - a, y - b) of a point inside the cell, as
        integer (num, den) pairs, den > 0.  A coordinate is a number (read
        exactly by to_ratio) or already such a pair."""
        offsets = []
        for t, corner in ((x, self.a), (y, self.b)):
            num, den = t if isinstance(t, tuple) else to_ratio(t)
            num -= corner * den
            if not 0 <= num <= den:
                raise ValueError(f"({x}, {y}) outside Box({self.a}, {self.b})")
            offsets.append((num, den))
        return offsets

    def value(self, x, y, exact: bool = True, factor=(1, 1)):
        """f(x, y) alone, times the integer (numerator, denominator) pair
        factor: equal to eval(x, y, exact, factors)[0] when factor is
        factors[0], from the order-0 rows only."""
        (xn, xd), (yn, yd) = self._local(x, y)
        xr, sx = _value_row(xn, xd)
        yr, sy = _value_row(yn, yd)
        (f,) = _matvec((xr,), _matvec(self.K, yr))
        num, den = factor
        return (Fraction if exact else hp_quotient)(f * num, sx * sy * self.D * den)

    def eval(self, x, y, exact: bool = True, factors=((1, 1),) * 3):
        """Value, gradient, Hessian at (x, y) inside the cell.

        Returns (f, (fx, fy), ((fxx, fxy), (fxy, fyy))), each multiplied by
        its factor: factors holds integer (numerator, denominator) pairs for
        f, the gradient and the Hessian.  The point is taken at its exact
        rational value and the six numbers are computed exactly by the
        point kernel; exact=True returns them as Fractions, exact=False
        rounds each once to a high-precision float.
        """
        F = self.point_fields(*self._local(x, y))
        convert = Fraction if exact else hp_quotient
        kf, kg, kh = factors
        f, fx, fy, fxx, fyy, fxy = (
            convert(v * num, F.scale * den)
            for v, (num, den) in zip(F[:6], (kf, kg, kg, kh, kh, kh)))
        return f, (fx, fy), ((fxx, fxy), (fxy, fyy))


def solve_coefficients(V: CornerBlock, a: int = 0, b: int = 0) -> BoxPatch:
    """The patch with coefficients C, A C A^T = V, solved in integers:
    M = (2 A^-1) (d V) (2 A^-1)^T is C times E = 4 d, for d the common
    denominator of V, and dividing M and E by their gcd leaves (K, D)."""
    V = [[to_fraction(x) for x in row] for row in V]
    d = math.lcm(*(x.denominator for row in V for x in row))
    V = [[x.numerator * (d // x.denominator) for x in row] for row in V]
    VT = tuple(zip(*V))
    M = [_matvec(A_INV2, _matvec(VT, row)) for row in A_INV2]
    g = math.gcd(4 * d, *(m for row in M for m in row))
    return BoxPatch(a=a, b=b, K=tuple(tuple(m // g for m in row) for row in M),
                    D=4 * d // g)


def patch_from_corners(
    a: int,
    b: int,
    c00: CornerAssignment,
    c01: CornerAssignment,
    c10: CornerAssignment,
    c11: CornerAssignment,
) -> BoxPatch:
    return solve_coefficients(assemble_corner_block(c00, c01, c10, c11), a=a, b=b)
