"""Exact Bernstein range enclosures of a patch's gradient, in integers.

A polynomial p(x, y) = sum a_ij x^i y^j of degree (m, n) is
sum b_kl B_k^m(x) B_l^n(y) in the Bernstein basis of [0, 1]^2, and every
value of p on the closed square lies between the least and the greatest
b_kl; halving the square along an axis and re-expanding on each half
tightens the enclosure toward the range (Garloff 1986, Convergent bounds
for the range of multivariate polynomials).

gradient_bounded applies this to f_x, of degree (4, 5), and f_y, of degree
(5, 4), read from a patch's integer matrix K (f = sum K_ij x^i y^j / D in
local offsets).  Every number is a Python integer: the basis change of
degree n is the integer matrix C(k, i) L / C(n, i) with
L = lcm_i C(n, i) (12 for n = 4, 10 for n = 5), and de Casteljau's
algorithm at 1/2 adds neighbours without halving, so each half carries
the coefficients times 2^n along the split axis.  The tolerance test on an
array is one cross-multiplication per extreme coefficient against the
array's known scale.  The subdivision alternates x and y and stops at
MAX_DEPTH splits or after BUDGET sub-boxes; either refuses.
"""

from __future__ import annotations

import math

BUDGET = 64  # sub-boxes examined per patch
MAX_DEPTH = 16  # splits along one path, x and y in turn


def _basis_change(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The monomial-to-Bernstein matrix of degree n times L, rows k and
    columns i: C(k, i) L / C(n, i), an integer since C(n, i) divides L =
    lcm_i C(n, i); and L."""
    L = math.lcm(*(math.comb(n, i) for i in range(n + 1)))
    return tuple(tuple(math.comb(k, i) * (L // math.comb(n, i)) for i in range(n + 1))
                 for k in range(n + 1)), L


_M4, _L4 = _basis_change(4)
_M5, _L5 = _basis_change(5)


def _bernstein(P, Mx, My) -> list[list[int]]:
    """Mx P My^T: the Bernstein coefficients of the monomial array P
    (rows: powers of x), times the two matrices' factors L."""
    MP = [[sum(m * p for m, p in zip(mrow, col)) for col in zip(*P)] for mrow in Mx]
    return [[sum(m * r for m, r in zip(mrow, row)) for mrow in My] for row in MP]


def _halve(c) -> tuple[list[int], list[int]]:
    """Integer de Casteljau at 1/2 on the coefficients c of degree n =
    len(c) - 1: those of the two halves, each times 2^n.  Level r of the
    triangle holds 2^r times its true values; its first entry is the left
    half's r-th coefficient and its last the right half's (n - r)-th."""
    n = len(c) - 1
    left, right = [], []
    for r in range(n + 1):
        left.append(c[0] << n - r)
        right.append(c[-1] << n - r)
        c = [p + q for p, q in zip(c, c[1:])]
    return left, right[::-1]


def _split(arr, axis: int) -> tuple[list, list]:
    """The arrays of the two halves of the box, split at 1/2 along x (axis
    0, the rows' index) or y (axis 1)."""
    if axis == 0:
        lo, hi = _split(list(zip(*arr)), 1)
        return list(zip(*lo)), list(zip(*hi))
    halves = [_halve(row) for row in arr]
    return [h[0] for h in halves], [h[1] for h in halves]


def _beyond(arr, bound: int, den: int) -> bool:
    """Every coefficient b has b den > bound, or every one b den < -bound."""
    flat = [b for row in arr for b in row]
    return min(flat) * den > bound or max(flat) * den < -bound


def gradient_arrays(K) -> tuple[list[list[int]], list[list[int]]]:
    """The Bernstein coefficients on [0, 1]^2 of f_x, degree (4, 5), and
    f_y, degree (5, 4), of f = sum K_ij x^i y^j / D: each over L4 L5 D."""
    gx = [[(i + 1) * K[i + 1][j] for j in range(6)] for i in range(5)]
    gy = [[(j + 1) * K[i][j + 1] for j in range(5)] for i in range(6)]
    return _bernstein(gx, _M4, _M5), _bernstein(gy, _M5, _M4)


def gradient_bounded(patch, tol) -> bool:
    """True when the closed cell [0, 1]^2 splits into sub-boxes on each of
    which |f_x| > tol everywhere or |f_y| > tol everywhere, proved by the
    sign of every Bernstein coefficient; False when no such split is found
    within MAX_DEPTH and BUDGET.  tol is a rational >= 0 read through its
    numerator and denominator."""
    # tol in units of the root arrays, which are over L4 L5 D
    limit = tol.numerator * _L4 * _L5 * patch.D
    # (depth, (array, log2 of its extra scale) for f_x and f_y)
    boxes = [(0, *((arr, 0) for arr in gradient_arrays(patch.K)))]
    for _ in range(BUDGET):
        if not boxes:
            return True
        depth, *arrays = boxes.pop()
        if any(_beyond(arr, limit << shift, tol.denominator) for arr, shift in arrays):
            continue
        if depth == MAX_DEPTH:
            return False
        axis = depth % 2
        # a split multiplies an array by 2 to its degree along the axis
        split = [(_split(arr, axis), shift + (len(arr) if axis == 0 else len(arr[0])) - 1)
                 for arr, shift in arrays]
        for side in (1, 0):
            boxes.append((depth + 1, *((halves[side], shift) for halves, shift in split)))
    return not boxes
