"""Polytopes, exact projection, proximal gradient, projected Hessian
eigenvalues, and the SOSP verifier."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sospgrid._precision import hp, to_fraction
from sospgrid.stationarity import (
    Polytope,
    active_set,
    eigen_2x2,
    project,
    projected_hessian_min_eig,
    projector_from_rows,
    proximal_gradient,
    psd_on_tangent,
    verify_sosp,
)


def random_cut_polytope(rng, d):
    lo = tuple(Fraction(rng.randrange(-3, 1)) for _ in range(d))
    hi = tuple(l + rng.randrange(1, 4) for l in lo)
    poly = Polytope.box(lo, hi)
    center = tuple((l + h) / 2 for l, h in zip(lo, hi))
    for _ in range(rng.randrange(0, 3)):
        row = [Fraction(rng.randrange(-2, 3)) for _ in range(d)]
        if all(v == 0 for v in row):
            continue
        cdot = sum(a * c for a, c in zip(row, center))
        poly = poly.with_cut(row, cdot + Fraction(rng.randrange(1, 5), 2))
    return poly, center


def test_box_membership_and_slack():
    poly = Polytope.box((0, 0), (2, 3))
    assert poly.contains((1, 1))
    assert poly.contains((0, 3))
    assert not poly.contains((-Fraction(1, 10**9), 0))
    assert poly.slack(2, (Fraction(1, 2), 0)) == Fraction(3, 2)


def test_projection_variational_inequality():
    """Oracle: p = proj(v) iff p feasible and (v - p) . (x - p) <= 0 for all
    feasible x (checked on sampled feasible points, exact arithmetic)."""
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randrange(1, 4)
        poly, center = random_cut_polytope(rng, d)
        v = tuple(Fraction(rng.randrange(-60, 61), 10) for _ in range(d))
        p = project(poly, v)
        assert poly.contains(p)
        for _ in range(25):
            lo, hi = poly.box_bounds or ((None,), (None,))
            raw = tuple(Fraction(rng.randrange(-40, 41), 10) for _ in range(d))
            t = Fraction(rng.randrange(0, 101), 100)
            x = tuple(c + t * (r - c) for c, r in zip(center, raw))
            if not poly.contains(x):
                continue
            inner = sum((a - b) * (c - b) for a, b, c in zip(v, p, x))
            assert inner <= 0


def test_box_projection_is_clamping():
    poly = Polytope.box((0, 0), (1, 1))
    assert project(poly, (Fraction(3, 2), Fraction(-1, 2))) == (1, 0)
    assert project(poly, (Fraction(1, 3), Fraction(2, 3))) == (Fraction(1, 3),
                                                               Fraction(2, 3))


def test_proximal_gradient_zero_at_interior_critical_point():
    poly = Polytope.box((0, 0), (1, 1))
    g = proximal_gradient((Fraction(1, 2), Fraction(1, 2)), (0, 0), 1, poly)
    assert g == (0, 0)


def test_proximal_gradient_definition():
    poly = Polytope.box((0, 0), (1, 1))
    x = (Fraction(9, 10), Fraction(1, 2))
    grad = (Fraction(-2), Fraction(1))
    L1 = Fraction(4)
    g = proximal_gradient(x, grad, L1, poly)
    # step = x - grad/L1 = (1.4, 0.25) -> projected to (1, 0.25)
    assert g == (L1 * (1 - x[0]), L1 * (Fraction(1, 4) - x[1]))


def test_proximal_gradient_hp_off_box_projects_the_exact_step():
    """With a high-precision gradient, g_pi is taken at the exact rational
    value of the gradient: the step x - grad/L1 is formed exactly and
    projected exactly.  With L1 as large as the hard instances' (2^73 N), a
    53-bit copy of the step would put g_pi off by about L1 * 2^-53."""
    poly = Polytope.box((0, 0), (1, 1)).with_cut((1, 1), Fraction(3, 2))
    L1 = 2**80
    x = (Fraction(3, 4), Fraction(3, 4))
    grad = (hp(-L1) / 3, hp(L1) / 7)  # the step leaves the box and the cut
    gpi = proximal_gradient(x, grad, L1, poly)
    step = tuple(c - to_fraction(g) / L1 for c, g in zip(x, grad))
    proj = project(poly, step)
    assert not poly.contains(step)
    for got, c, p in zip(gpi, x, proj):
        assert got == L1 * (p - c)


def test_active_set_and_projector():
    poly = Polytope.box((0, 0), (1, 1))
    act = active_set(poly, (Fraction(0), Fraction(1, 2)))
    assert act.indices == (0,)
    assert act.dim_null == 1
    # projector kills e_x, keeps e_y
    assert act.projector == ((0, 0), (0, 1))
    interior = active_set(poly, (Fraction(1, 2), Fraction(1, 2)))
    assert interior.indices == ()
    assert interior.dim_null == 2


def test_projector_from_rows_idempotent_and_orthogonal():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.randrange(2, 5)
        k = rng.randrange(1, d)
        rows = []
        while len(rows) < k:
            r = [Fraction(rng.randrange(-3, 4)) for _ in range(d)]
            if any(v != 0 for v in r):
                rows.append(r)
        try:
            P = projector_from_rows(rows, d)
        except ValueError:
            continue  # dependent rows
        PP = [[sum(P[i][k2] * P[k2][j] for k2 in range(d)) for j in range(d)]
              for i in range(d)]
        assert tuple(tuple(r) for r in PP) == P
        for r in rows:
            img = [sum(P[i][j] * r[j] for j in range(d)) for i in range(d)]
            assert all(v == 0 for v in img)


def test_projected_hessian_min_eig_matches_numpy():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randrange(2, 4)
        M = [[Fraction(rng.randrange(-4, 5)) for _ in range(d)] for _ in range(d)]
        H = [[M[i][j] + M[j][i] for j in range(d)] for i in range(d)]
        row = [Fraction(rng.randrange(-2, 3)) for _ in range(d)]
        if all(v == 0 for v in row):
            row[0] = Fraction(1)
        P = projector_from_rows([row], d)
        lam, v = projected_hessian_min_eig(H, P, 1e-12)
        Pn = np.array(P, dtype=float)
        Hn = np.array(H, dtype=float)
        # orthonormal basis B of range(P); restrict H to it
        w, U = np.linalg.eigh(Pn)
        B = U[:, w > 0.5]
        ref = float(np.linalg.eigvalsh(B.T @ Hn @ B)[0])
        assert abs(float(lam) - ref) <= 1e-8
        if v is not None:
            vn = np.array([float(c) for c in v])
            assert np.linalg.norm(Pn @ vn - vn) <= 1e-8
            assert abs(float(vn @ Hn @ vn) - float(lam)) <= 1e-6


def _mp(v):
    """v at mpmath's current precision, exactly for a rational or hp value
    that fits."""
    v = to_fraction(v)
    return mpmath.mpf(v.numerator) / v.denominator


def test_eigen_2x2_matches_512_bit_eigenpairs():
    rng = random.Random(41)
    cases = [(Fraction(3), Fraction(0), Fraction(-2)),  # diagonal, a > c
             (Fraction(-2), Fraction(0), Fraction(3)),  # diagonal, a < c
             (Fraction(5, 7), Fraction(0), Fraction(5, 7)),  # lam1 = lam2
             (Fraction(10**5), Fraction(1, 3), Fraction(1, 1000))]  # stiff/flat
    cases += [tuple(Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 1000))
                    for _ in range(3)) for _ in range(60)]
    for a, b, c in cases:
        pairs = eigen_2x2(a, b, c)
        with mpmath.workprec(512):
            M = mpmath.matrix([[_mp(a), _mp(b)], [_mp(b), _mp(c)]])
            E, Q = mpmath.eigsy(M)  # ascending
            tol = mpmath.mpf(2) ** -184 * (1 + abs(_mp(a)) + abs(_mp(b)) + abs(_mp(c)))
            vecs = [mpmath.matrix([_mp(v[0]), _mp(v[1])]) for _, v in pairs]
            assert abs((vecs[0].T * vecs[1])[0]) <= mpmath.mpf(2) ** -184
            for (lam, _), v, k in zip(pairs, vecs, (1, 0)):
                assert abs(_mp(lam) - E[k]) <= tol
                assert abs(mpmath.norm(v) - 1) <= mpmath.mpf(2) ** -184
                assert mpmath.norm(M * v - E[k] * v) <= 2 * tol
                gap = E[1] - E[0]
                if gap > 0:
                    cos = abs((v.T * Q[:, k])[0])
                    assert 1 - cos <= 4 * tol / gap


def test_projected_hessian_min_eig_rank_one_projector():
    """On range(P) = span(r) the only eigenvalue is r.Hr / r.r, exactly."""
    rng = random.Random(43)
    for _ in range(40):
        row = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(2)]
        if row == [0, 0]:
            continue
        a, b, c = (Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 100))
                   for _ in range(3))
        H = [[a, b], [b, c]]
        lam, v = projected_hessian_min_eig(H, projector_from_rows([row], 2))
        r = (-row[1], row[0])
        rr = r[0] ** 2 + r[1] ** 2
        exact = sum(r[i] * H[i][j] * r[j] for i in range(2) for j in range(2)) / rr
        with mpmath.workprec(512):
            tol = mpmath.mpf(2) ** -176 * (1 + abs(_mp(a)) + abs(_mp(b)) + abs(_mp(c)))
            assert abs(_mp(lam) - _mp(exact)) <= tol
            cross = _mp(v[0]) * _mp(r[1]) - _mp(v[1]) * _mp(r[0])
            assert abs(cross) <= mpmath.mpf(2) ** -176 * mpmath.sqrt(_mp(rr))


def test_psd_on_tangent_exact():
    P = projector_from_rows([[Fraction(1), Fraction(0)]], 2)
    H = [[Fraction(-5), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert psd_on_tangent(H, P, 0)  # -5 lives in the killed direction
    H2 = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-5)]]
    assert not psd_on_tangent(H2, P, 0)
    assert psd_on_tangent(H2, P, 5)


def quad_objective(center, scales):
    d = len(center)

    def obj(x):
        diffs = [s * (xi - ci) for s, xi, ci in zip(scales, x, center)]
        f = sum(v * (xi - ci) for v, xi, ci in zip(diffs, x, center)) / 2
        hess = tuple(tuple(scales[i] if i == j else 0 for j in range(d))
                     for i in range(d))
        return f, tuple(diffs), hess

    return obj


def test_verify_sosp_minimum_passes():
    poly = Polytope.box((0, 0), (1, 1))
    obj = quad_objective((Fraction(1, 3), Fraction(2, 3)), (1, 1))
    rep = verify_sosp(obj, poly, (Fraction(1, 3), Fraction(2, 3)),
                      Fraction(1, 100), Fraction(1, 100), 1)
    assert rep.passed and rep.pass_first and rep.pass_second


def test_verify_sosp_saddle_fails_second_order():
    poly = Polytope.box((0, 0), (1, 1))
    obj = quad_objective((Fraction(1, 2), Fraction(1, 2)), (1, -2))
    rep = verify_sosp(obj, poly, (Fraction(1, 2), Fraction(1, 2)),
                      Fraction(1, 100), Fraction(1, 100), 2)
    assert rep.pass_first and not rep.pass_second
    assert float(rep.lambda_min) == pytest.approx(-2.0, abs=1e-9)


def test_verify_sosp_boundary_saddle_passes():
    # the unstable direction is blocked by an active wall
    poly = Polytope.box((0, 0), (1, 1))
    obj = quad_objective((Fraction(1, 2), Fraction(1)), (1, -2))
    rep = verify_sosp(obj, poly, (Fraction(1, 2), Fraction(1)),
                      Fraction(1, 100), Fraction(1, 100), 2)
    assert rep.passed
    assert rep.active_indices == (3,)


def test_verify_sosp_exact_path():
    poly = Polytope.box((0, 0), (1, 1))
    obj = quad_objective((Fraction(1, 3), Fraction(2, 3)), (1, 1))
    rep = verify_sosp(obj, poly, (Fraction(1, 3), Fraction(2, 3)),
                      Fraction(1, 100), Fraction(1, 100), 1, exact=True)
    assert rep.passed


def test_verify_sosp_rejects_infeasible_point():
    poly = Polytope.box((0, 0), (1, 1))
    obj = quad_objective((Fraction(1, 2), Fraction(1, 2)), (1, 1))
    with pytest.raises(ValueError):
        verify_sosp(obj, poly, (Fraction(2), Fraction(0)), 1, 1, 1)


def test_verify_sosp_exact_refuses_hp_derivatives():
    """exact=True is a statement about f itself, so rounded derivatives are
    refused rather than decided."""
    poly = Polytope.box((0, 0), (1, 1))
    obj = quad_objective((Fraction(1, 3), Fraction(2, 3)), (1, 1))

    def hp_obj(x):
        f, grad, hess = obj(x)
        return hp(f), tuple(hp(g) for g in grad), hess

    x = (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(TypeError):
        verify_sosp(hp_obj, poly, x, Fraction(1, 100), Fraction(1, 100), 1,
                    exact=True)
    assert verify_sosp(hp_obj, poly, x, Fraction(1, 100), Fraction(1, 100), 1).passed


@pytest.mark.parametrize("center,scales", [
    ((Fraction(1, 2), Fraction(1, 2)), (1, -2)),   # interior saddle
    ((Fraction(1, 2), Fraction(1)), (1, -2)),      # saddle on a wall
    ((Fraction(1, 3), Fraction(2, 3)), (1, 1)),    # minimum
    ((Fraction(1, 3), Fraction(3, 2)), (1, 1)),    # minimum off the box
])
def test_verify_sosp_one_answer_for_rational_and_hp_derivatives(center, scales):
    """The verdict is decided at the exact value of the data, so it is the
    same whether the objective hands over Fractions or hp numbers of the
    same value."""
    poly = Polytope.box((0, 0), (1, 1))
    obj = quad_objective(center, scales)

    def hp_obj(x):
        f, grad, hess = obj(x)
        return (hp(f), tuple(hp(g) for g in grad),
                tuple(tuple(hp(h) for h in row) for row in hess))

    x = tuple(min(c, 1) for c in center)
    eps = Fraction(1, 64)
    rep = verify_sosp(obj, poly, x, eps, eps, 2, exact=True)
    rep_hp = verify_sosp(hp_obj, poly, x, eps, eps, 2)
    assert (rep.pass_first, rep.pass_second) == (rep_hp.pass_first, rep_hp.pass_second)
    assert rep.active_indices == rep_hp.active_indices


def test_active_set_is_exact():
    """A row is active only at slack exactly 0; any negative slack raises."""
    poly = Polytope.box((0, 0), (1, 1))
    assert active_set(poly, (Fraction(1, 10**60), Fraction(1, 2))).indices == ()
    with pytest.raises(ValueError):
        active_set(poly, (-Fraction(1, 10**60), Fraction(1, 2)))
