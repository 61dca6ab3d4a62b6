"""Reference SOSP verdict for the tests: the Fraction formulas.

Every number is normalised to a Fraction and both orders are decided in
Fraction arithmetic, as verify_sosp decided them before it compared integer
ratios.  It shares the polytope's face frames and the exact projection off
the box with stationarity, and no arithmetic of the verdict, so that a test
comparing the two checks the integer kernel against something else.  The
curvature figures (lambda_min and the solver's curvature direction) are
rounded from the Fraction R, as they were before they read R's ratios; they
share only the closed-form eigen_2x2 with the package.
"""

from __future__ import annotations

from fractions import Fraction

from sospgrid._precision import hp, hp_sqrt, to_fraction
from sospgrid.stationarity import eigen_2x2, face_frame, project


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


def min_eig(R, basis, norms_sq):
    """(lambda, v) on span(basis) from the Fraction R: (+inf, None) for no
    vector, R/||b||^2 rounded once for one, and for two the eigenpair of
    D^-1/2 R D^-1/2, D = diag(norms_sq)."""
    if not basis:
        return float("inf"), None
    roots = [hp_sqrt(hp(nsq)) for nsq in norms_sq]
    if len(basis) == 1:
        return (hp(R[0][0] / norms_sq[0]),
                tuple(hp(c) / roots[0] for c in basis[0]))
    n0, n1 = norms_sq
    _, (lam, u) = eigen_2x2(R[0][0] / n0, hp(R[0][1]) / (roots[0] * roots[1]),
                            R[1][1] / n1)
    return lam, tuple(u[0] * hp(a) / roots[0] + u[1] * hp(c) / roots[1]
                      for a, c in zip(*basis))


def curvature_direction(grad, hess, frame, eps_h):
    """None where psd_on_tangent passes, else min_eig's unit eigenvector,
    signed against the gradient, with the lexicographic tie-break."""
    R = tangent_hessian(hess, frame.basis)
    if psd_on_tangent(R, frame.norms_sq, eps_h):
        return None
    _, v = min_eig(R, frame.basis, frame.norms_sq)
    dot = sum(hp(g) * c for g, c in zip(grad, v))
    if dot > 0:
        return tuple(-c for c in v)
    if dot < 0:
        return tuple(v)
    neg = tuple(-c for c in v)
    return tuple(v) if tuple(v) >= neg else neg


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
