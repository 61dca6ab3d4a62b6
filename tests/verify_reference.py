"""Reference SOSP verdict for the tests: the Fraction formulas.

Every number is normalised to a Fraction and both orders are decided in
Fraction arithmetic, as verify_sosp decided them before it compared integer
ratios.  It shares the polytope's face frames and the exact projection off
the box with stationarity, and no arithmetic of the verdict, so that a test
comparing the two checks the integer kernel against something else.
"""

from __future__ import annotations

from fractions import Fraction

from sospgrid._precision import to_fraction
from sospgrid.stationarity import face_frame, project


def active_rows(poly, x) -> tuple[int, ...]:
    """Rows with slack b_j - a_j.x exactly 0; AssertionError if x violates one."""
    x = [to_fraction(c) for c in x]
    slacks = [bj - sum(a * c for a, c in zip(row, x)) for row, bj in zip(poly.A, poly.b)]
    assert all(s >= 0 for s in slacks)
    return tuple(j for j, s in enumerate(slacks) if s == 0)


def proximal_gradient(x, grad, L1, poly) -> tuple:
    """L1 (pi_X(x - grad/L1) - x); on a box by min/max of Fractions."""
    L1 = to_fraction(L1)
    x = [to_fraction(c) for c in x]
    step = [c - to_fraction(g) / L1 for c, g in zip(x, grad)]
    if poly.box_bounds is not None:
        proj = [min(max(s, lo), hi) for s, lo, hi in zip(step, *poly.box_bounds)]
    else:
        proj = project(poly, step)
    return tuple(L1 * (p - c) for p, c in zip(proj, x))


def tangent_hessian(H, basis) -> list[list[Fraction]]:
    """B^T H B by its sums."""
    H = [[to_fraction(v) for v in row] for row in H]
    return [[sum((a * H[i][j] * c for i, a in enumerate(bi) for j, c in enumerate(bj)),
                 Fraction(0))
             for bj in basis] for bi in basis]


def psd_on_tangent(R, norms_sq, eps) -> bool:
    """R + eps diag(norms_sq) is PSD: diagonal >= 0, then det >= 0."""
    eps = to_fraction(eps)
    diag = [R[i][i] + eps * nsq for i, nsq in enumerate(norms_sq)]
    if any(m < 0 for m in diag):
        return False
    return len(diag) < 2 or diag[0] * diag[1] >= R[0][1] * R[1][0]


def verdict(objective, poly, x, eps_g, eps_h, L1) -> dict:
    """pass_first, pass_second, gpi_sq, R and active_indices at x."""
    rows = active_rows(poly, x)
    frame = face_frame(poly, rows)
    _, grad, hess = objective(x)
    gpi_sq = sum(g * g for g in proximal_gradient(x, grad, L1, poly))
    R = tangent_hessian(hess, frame.basis)
    return {"pass_first": gpi_sq <= to_fraction(eps_g) ** 2,
            "pass_second": psd_on_tangent(R, frame.norms_sq, eps_h),
            "gpi_sq": gpi_sq,
            "R": tuple(map(tuple, R)),
            "active_indices": rows}
