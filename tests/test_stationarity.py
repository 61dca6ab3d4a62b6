"""Polytopes, exact projection, proximal gradient, face frames, the
restricted Hessian and its eigenvalues, and the SOSP verifier."""

from __future__ import annotations

import fractions
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sospgrid import stationarity
from sospgrid._precision import PRECISION, hp, hp_quotient, hp_sqrt, to_fraction, to_ratio
from sospgrid.stationarity import (
    Polytope,
    active_set,
    eigen_2x2,
    face_frame,
    max_feasible_step,
    project,
    projected_hessian_min_eig,
    proximal_gradient,
    psd_on_tangent,
    second_order_test,
    verify_sosp,
)
from sospgrid.snap_solver import curvature_direction

import verify_reference


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
    assert [Fraction(n, d) for n, d in poly.slack_ratios((Fraction(1, 2), 0))] \
        == [Fraction(1, 2), 0, Fraction(3, 2), 3]


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(small_rationals, st.fractions(0, 3, max_denominator=12)),
             min_size=d, max_size=d),
    st.lists(small_rationals, min_size=d, max_size=d))))
@example(([(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(2))],
          [Fraction(1, 2), Fraction(1)]))  # inside, on the second upper wall
@example(([(Fraction(1, 3), Fraction(0))], [Fraction(1, 3)]))  # a point box
def test_box_slacks_read_from_bounds_match_the_rows(case):
    """A box's slacks come from its bounds; a polytope built from the same
    rows has no bounds and reads them from (A, b).  The two give the same
    slacks, active rows and violated row at points inside and outside."""
    sides, x = case
    lo = [l for l, _ in sides]
    hi = [l + w for l, w in sides]
    box = Polytope.box(lo, hi)
    rows = Polytope(box.A, box.b)
    assert box.box_bounds is not None and rows.box_bounds is None
    assert [Fraction(n, d) for n, d in box.slack_ratios(x)] \
        == [Fraction(n, d) for n, d in rows.slack_ratios(x)]
    try:
        active = rows.active_rows(x)
    except ValueError as err:
        with pytest.raises(ValueError) as box_err:
            box.active_rows(x)
        assert str(box_err.value) == str(err)
    else:
        assert box.active_rows(x) == active


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


CLAMP_BOXES = (Polytope.box((Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 3), Fraction(1, 2))),
               Polytope.box((0, 0), (1, 1)))


def ulp_neighbours(v):
    """The hp values one unit in the last place below and above v."""
    num, den = to_ratio(v)
    shift = PRECISION - abs(num).bit_length()
    return [hp_quotient((num << shift) + d, den << shift) for d in (-1, 1)]


def assert_box_clamp(box, point):
    """project on a box is min(max(c, lo), hi) at the exact value of each
    coordinate, returned as Fractions."""
    lo, hi = box.box_bounds
    want = tuple(min(max(to_fraction(c), l), h) for c, l, h in zip(point, lo, hi))
    got = project(box, point)
    assert got == want and all(type(c) is Fraction for c in got)


def test_box_projection_of_hp_values_is_the_exact_clamp():
    """hp values on a bound, one ulp either side of it and far outside are
    clamped by their exact value: hp(1/3) is not 1/3, so it is returned
    itself when above 1/3 and becomes 1/3 when below."""
    for box in CLAMP_BOXES:
        lo, hi = box.box_bounds
        coords = [0, Fraction(1, 3), Fraction(2, 5)]
        for bound in (*lo, *hi):
            near = hp(bound)
            coords += [bound, near, *ulp_neighbours(near), hp(bound - 10),
                       hp(bound + 10), bound - 2**300, hp(bound + 2**300)]
        for cx in coords:
            for cy in coords:
                assert_box_clamp(box, (cx, cy))
    third = to_fraction(hp(Fraction(1, 3)))
    assert third != Fraction(1, 3)  # though mpmath compares them equal
    assert project(CLAMP_BOXES[0], (hp(Fraction(1, 3)), 0))[0] == max(third, Fraction(1, 3))


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(CLAMP_BOXES),
       st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=2),
       st.lists(st.booleans(), min_size=2, max_size=2))
def test_box_projection_is_the_exact_clamp(box, point, rounded):
    assert_box_clamp(box, [hp(c) if r else c for c, r in zip(point, rounded)])


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


def test_active_set_and_face_frame():
    poly = Polytope.box((0, 0), (1, 1))
    act = active_set(poly, (Fraction(0), Fraction(1, 2)))
    assert act.indices == (0,)
    assert act.dim == 1
    # the wall x = 0 leaves the frame e_y
    assert act.basis == ((0, 1),) and act.norms_sq == (1,)
    interior = active_set(poly, (Fraction(1, 2), Fraction(1, 2)))
    assert interior.indices == ()
    assert interior.dim == 2


def test_face_frame_orthogonal_and_annihilated():
    """The basis is orthogonal, every row annihilates it, and it has
    d - rank vectors, also when some rows depend on others; x_ref lies on
    every row and is orthogonal to the basis."""
    rng = random.Random(9)
    for _ in range(60):
        d = rng.randrange(1, 4)
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(d)]
                for _ in range(rng.randrange(1, d + 2))]
        if rng.random() < 0.5:
            # a dependent row: a combination of the others
            f = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
            rows.append([f * a + c for a, c in zip(rows[0], rows[-1])])
        # right-hand sides of a point, so that the rows are consistent
        x0 = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(d)]
        poly = Polytope(rows, [sum(a * c for a, c in zip(r, x0)) for r in rows])
        I = sorted(rng.sample(range(poly.m), rng.randrange(0, poly.m + 1)))
        frame = face_frame(poly, I)
        rank = np.linalg.matrix_rank(np.array([rows[j] for j in I], dtype=float)) if I else 0
        assert frame.indices == tuple(I) and frame.dim == d - rank
        for i, (v, nsq) in enumerate(zip(frame.basis, frame.norms_sq)):
            assert nsq == sum(c * c for c in v) != 0
            assert all(sum(a * c for a, c in zip(v, w)) == 0 for w in frame.basis[:i])
            assert all(sum(a * c for a, c in zip(poly.A[j], v)) == 0 for j in I)
            assert sum(a * c for a, c in zip(frame.x_ref, v)) == 0
        assert all(sum(a * c for a, c in zip(poly.A[j], frame.x_ref)) == poly.b[j]
                   for j in I)


def test_polytope_keeps_one_frame_per_row_set():
    """A polytope returns one frame object for one set of rows, in any
    order; a polytope built from the same A and b gets an equal frame."""
    box = Polytope.box((0, 0), (1, 1))
    frame = face_frame(box, (1, 2))
    assert face_frame(box, (2, 1)) is frame and face_frame(box, [2, 1]) is frame
    other = face_frame(Polytope(box.A, box.b), (2, 1))
    assert other.indices == frame.indices == (1, 2)
    assert (other.x_ref, other.basis, other.norms_sq) == (
        frame.x_ref, frame.basis, frame.norms_sq)
    assert frame.x_ref == (1, 0) and frame.dim == 0


def test_face_frame_with_dependent_rows():
    """Consistent dependent rows give the frame of an independent subset;
    inconsistent rows raise; the active set is the frame of the active
    rows, the one cached object."""
    # x + y = 1, 2x + 2y = 2, x - y = 0, -x - y = 5, x + y = 3
    poly = Polytope([(1, 1), (2, 2), (1, -1), (-1, -1), (1, 1)], [1, 2, 0, 5, 3])

    def geometry(frame):
        return frame.x_ref, frame.basis, frame.norms_sq

    assert geometry(face_frame(poly, (0, 1))) == geometry(face_frame(poly, (0,)))
    assert geometry(face_frame(poly, (1,))) == geometry(face_frame(poly, (0,)))
    vertex = face_frame(poly, (0, 1, 2))
    assert geometry(vertex) == geometry(face_frame(poly, (0, 2)))
    assert vertex.dim == 0 and vertex.x_ref == (Fraction(1, 2), Fraction(1, 2))
    line = face_frame(poly, (1, 0))
    assert line.indices == (0, 1) and line.dim == 1
    for j in (0, 1):
        assert sum(a * c for a, c in zip(poly.A[j], line.x_ref)) == poly.b[j]
    assert sum(a * c for a, c in zip(line.x_ref, line.basis[0])) == 0
    for I in ((0, 3), (0, 4), (0, 1, 4), (1, 3)):
        with pytest.raises(ValueError):
            face_frame(poly, I)

    cut = Polytope.box((0, 0), (1, 1)).with_cut((1, 1), 1)
    for x in ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)),
              (Fraction(1, 4), Fraction(1, 4))):
        assert active_set(cut, x) is face_frame(cut, cut.active_rows(x))
    # three rows meet at (1, 0): x <= 1, y >= 0 and x + y <= 1
    assert active_set(cut, (Fraction(1), Fraction(0))).indices == (1, 2, 4)


def null_frame(rows, d):
    """The face frame of {y : r.y = 0 for every row r}; a zero row keeps the
    polytope non-empty when there is no row."""
    rows = [list(r) for r in rows]
    poly = Polytope(rows + [[0] * d], [0] * (len(rows) + 1))
    return face_frame(poly, range(len(rows)))


def ratio_rows(R):
    """A matrix of rationals as the (num, den) pairs that
    projected_hessian_min_eig reads."""
    return [[to_ratio(v) for v in row] for row in R]


def frame_min_eig(H, rows, d):
    """projected_hessian_min_eig of H on the null space of rows."""
    frame = null_frame(rows, d)
    R = verify_reference.tangent_hessian(H, frame.basis)
    return projected_hessian_min_eig(ratio_rows(R), frame.basis, frame.norms_sq)


def test_projected_hessian_min_eig_matches_numpy():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randrange(2, 4)
        M = [[Fraction(rng.randrange(-4, 5)) for _ in range(d)] for _ in range(d)]
        H = [[M[i][j] + M[j][i] for j in range(d)] for i in range(d)]
        row = [Fraction(rng.randrange(-2, 3)) for _ in range(d)]
        if all(v == 0 for v in row):
            row[0] = Fraction(1)
        lam, v = frame_min_eig(H, [row], d)
        rn = np.array(row, dtype=float)
        Pn = np.eye(d) - np.outer(rn, rn) / (rn @ rn)
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
        lam, v = frame_min_eig(H, [row], 2)
        r = (-row[1], row[0])
        rr = r[0] ** 2 + r[1] ** 2
        exact = sum(r[i] * H[i][j] * r[j] for i in range(2) for j in range(2)) / rr
        with mpmath.workprec(512):
            tol = mpmath.mpf(2) ** -176 * (1 + abs(_mp(a)) + abs(_mp(b)) + abs(_mp(c)))
            assert abs(_mp(lam) - _mp(exact)) <= tol
            cross = _mp(v[0]) * _mp(r[1]) - _mp(v[1]) * _mp(r[0])
            assert abs(cross) <= mpmath.mpf(2) ** -176 * mpmath.sqrt(_mp(rr))


def _restricted(H, basis):
    """B^T H B by its sums, with no shortcut for a frame of unit vectors."""
    return [[sum(a * H[i][j] * c for i, a in enumerate(bi) for j, c in enumerate(bj))
             for bj in basis] for bi in basis]


def test_second_order_test_on_unit_vectors_reads_h():
    """On the frame of no rows, the unit vectors, the R of second_order_test
    is the rational H itself; an asymmetric H is still refused."""
    units = face_frame(Polytope.box((0, 0), (1, 1)), ())
    H = [[hp(1) / 3, Fraction(2, 7)], [Fraction(2, 7), 5]]
    R = [[Fraction(n, d) for n, d in row] for row in second_order_test(H, units, 0)[1]]
    assert R == [[to_fraction(v) for v in row] for row in H] == _restricted(R, units.basis)
    with pytest.raises(ValueError):
        second_order_test([[1, 2], [3, 4]], units, 0)


def test_psd_on_tangent_exact():
    frame = null_frame([[Fraction(1), Fraction(0)]], 2)
    basis, norms_sq = frame.basis, frame.norms_sq
    H = [[Fraction(-5), Fraction(0)], [Fraction(0), Fraction(2)]]
    # -5 lives in the annihilated direction
    assert psd_on_tangent(verify_reference.tangent_hessian(H, basis), norms_sq, 0)
    R2 = verify_reference.tangent_hessian([[Fraction(2), Fraction(0)],
                                           [Fraction(0), Fraction(-5)]], basis)
    assert not psd_on_tangent(R2, norms_sq, 0)
    assert psd_on_tangent(R2, norms_sq, 5)


def test_lambda_min_on_a_face_is_the_restricted_hessian_rounded_once():
    """On a one-dimensional face lambda_min is b.Hb / b.b for the face's
    direction b, computed exactly and rounded once."""
    rng = random.Random(47)
    box = Polytope.box((0, 0), (1, 1))
    cut = box.with_cut((1, 1), Fraction(3, 2))
    wall, on_cut = (Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(3, 4))
    for _ in range(200):
        a, b, c = (Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
                   for _ in range(3))

        def obj(x):
            return 0, (0, 0), ((a, b), (b, c))

        assert verify_sosp(obj, box, wall, 1, 1, 1).lambda_min == hp(c)
        assert verify_sosp(obj, cut, on_cut, 1, 1, 1).lambda_min == hp((a - 2 * b + c) / 2)


def test_curvature_on_three_dimensional_null_space_is_refused():
    H = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        frame_min_eig(H, [], 3)


def test_psd_on_tangent_refuses_three_vectors():
    R = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        psd_on_tangent(R, (1, 1, 1), 0)


def test_psd_on_tangent_agrees_with_lambda_min():
    """The exact verdict equals lambda_min >= -eps wherever the two are not
    within rounding of a tie."""
    rng = random.Random(53)
    for _ in range(300):
        # no row, one row or two: a null space of dimension 2, 1 or 0
        rows = [[Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(1, 4))],
                [Fraction(1), Fraction(0)]][:rng.randrange(0, 3)]
        a, b, c = (Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 100))
                   for _ in range(3))
        eps = Fraction(rng.randrange(0, 10**4), rng.randrange(1, 100))
        frame = null_frame(rows, 2)
        basis, norms_sq = frame.basis, frame.norms_sq
        R = verify_reference.tangent_hessian([[a, b], [b, c]], basis)
        lam, _ = projected_hessian_min_eig(ratio_rows(R), basis, norms_sq)
        if basis and abs(lam + hp(eps)) <= hp(Fraction(1, 10**30)) * (1 + abs(lam)):
            continue
        assert psd_on_tangent(R, norms_sq, eps) == (lam >= -hp(eps))


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


def _counting(monkeypatch, name, calls):
    """Replace stationarity.<name> by a wrapper that counts its calls."""
    original = getattr(stationarity, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(stationarity, name, counted)


def test_report_figures_are_computed_when_read(monkeypatch):
    """The verdict computes neither high-precision figure; the first read
    of each computes it once, and later reads reuse it."""
    calls = {"projected_hessian_min_eig": 0, "hp_sqrt": 0}
    for name in calls:
        _counting(monkeypatch, name, calls)
    poly = Polytope.box((0, 0), (1, 1))
    obj = quad_objective((Fraction(1, 3), Fraction(2, 3)), (1, -2))
    rep = verify_sosp(obj, poly, (Fraction(1, 2), Fraction(1, 2)), 1, 1, 1)
    assert rep.passed is False
    assert calls == {"projected_hessian_min_eig": 0, "hp_sqrt": 0}
    gpi_norm = rep.gpi_norm
    assert calls == {"projected_hessian_min_eig": 0, "hp_sqrt": 1}
    lam = rep.lambda_min
    assert calls["projected_hessian_min_eig"] == 1
    seen = dict(calls)
    assert rep.gpi_norm is gpi_norm and rep.lambda_min is lam
    assert calls == seen


def test_report_figures_equal_the_eager_formulas():
    """gpi_norm and lambda_min read from a report equal the figures formed
    directly from g_pi and B^T H B, on box and cut points in the interior,
    on a wall and at a vertex (where lambda_min is +inf)."""
    rng = random.Random(61)
    box = Polytope.box((0, 0), (1, 1))
    cut = box.with_cut((1, 1), Fraction(3, 2))
    points = [(box, (Fraction(1, 3), Fraction(1, 2))), (box, (Fraction(0), Fraction(2, 5))),
              (box, (Fraction(1), Fraction(1))), (cut, (Fraction(1, 4), Fraction(1, 3))),
              (cut, (Fraction(3, 4), Fraction(3, 4))), (cut, (Fraction(1), Fraction(1, 2)))]
    for _ in range(20):
        grad = tuple(Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 100))
                     for _ in range(2))
        a, b, c = (Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 100))
                   for _ in range(3))
        L1 = Fraction(rng.randrange(1, 10**3))

        def obj(x):
            return 0, grad, ((a, b), (b, c))

        for poly, x in points:
            rep = verify_sosp(obj, poly, x, 1, 1, L1)
            act = active_set(poly, x)
            gpi = proximal_gradient(x, grad, L1, poly)
            assert rep.gpi_norm == hp_sqrt(hp(sum(g * g for g in gpi)))
            if act.dim == 0:
                assert rep.lambda_min == float("inf")
            else:
                R = _restricted([[a, b], [b, c]], act.basis)
                lam, _ = projected_hessian_min_eig(ratio_rows(R), act.basis,
                                                   act.norms_sq)
                assert rep.lambda_min == lam


UNIT_BOX = Polytope.box((0, 0), (1, 1))
CUT_BOX = UNIT_BOX.with_cut((1, 1), Fraction(3, 2))
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=24)
data_fractions = st.one_of(st.just(Fraction(0)),
                           st.fractions(min_value=-8, max_value=8, max_denominator=30))


def _rational_sqrt(q: Fraction):
    """The rational square root of q >= 0, or None if it has none."""
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(n, d) if n * n == q.numerator and d * d == q.denominator else None


@st.composite
def verdict_cases(draw):
    """A point of the box or of the cut box (interior, on a wall or the
    slanted face, or at a vertex), derivatives, L1 > 0 and eps >= 0; the
    eps are pushed onto a threshold of the verdict when one is exact."""
    poly = draw(st.sampled_from([UNIT_BOX, CUT_BOX]))
    kind = draw(st.sampled_from(["interior", "wall", "vertex", "slanted"]))
    t = draw(unit_fractions)
    if kind == "interior":
        x = (t, draw(unit_fractions))
    elif kind == "wall":
        x = draw(st.sampled_from([(0, t), (1, t / 2), (t, 0), (t / 2, 1)]))
    elif kind == "vertex":
        x = draw(st.sampled_from([(0, 0), (0, 1), (1, 0)]
                                 + ([(1, Fraction(1, 2)), (Fraction(1, 2), 1)]
                                    if poly is CUT_BOX else [(1, 1)])))
    else:
        poly = CUT_BOX
        x = (Fraction(1, 2) + t / 2, 1 - t / 2)
    x = tuple(map(Fraction, x))
    if not poly.contains(x):
        poly = UNIT_BOX
    grad = (draw(data_fractions), draw(data_fractions))
    tie = draw(st.sampled_from(["none", "first", "diagonal", "det"]))
    a, b, c = draw(data_fractions), draw(data_fractions), draw(data_fractions)
    eps_h = abs(draw(data_fractions))
    if tie == "det":
        # (a + eps)(c + eps) = b^2 with both factors >= 0
        r, k, m = abs(draw(data_fractions)), draw(data_fractions), draw(data_fractions)
        a, b, c = r * k * k - eps_h, r * k * m, r * m * m - eps_h
    hess = ((a, b), (b, c))
    L1 = draw(st.fractions(min_value=Fraction(1, 8), max_value=64, max_denominator=8))
    eps_g = abs(draw(data_fractions))
    rounded = draw(st.booleans())
    if rounded:
        grad = tuple(map(hp, grad))
        hess = tuple(tuple(map(hp, row)) for row in hess)
    if tie == "first":
        gpi_sq = sum(g * g for g in verify_reference.proximal_gradient(x, grad, L1, poly))
        root = _rational_sqrt(gpi_sq)
        eps_g = eps_g if root is None else root
    elif tie == "diagonal":
        frame = face_frame(poly, poly.active_rows(x))
        if frame.dim:
            R = verify_reference.tangent_hessian(hess, frame.basis)
            eps_h = max(Fraction(0), -R[0][0] / frame.norms_sq[0])
    return poly, x, grad, hess, L1, eps_g, eps_h


@settings(deadline=None, max_examples=400)
@given(verdict_cases())
@example((UNIT_BOX, (Fraction(1, 2), Fraction(1, 2)), (Fraction(3), Fraction(4)),
          ((1, 0), (0, 1)), 16, 5, 0))  # ||g_pi||^2 = eps_G^2 inside
@example((UNIT_BOX, (Fraction(1), Fraction(1, 2)), (hp(-3), hp(0)),
          ((1, 0), (0, 1)), 4, 0, 0))  # clamped at x = 1: g_pi = 0
@example((CUT_BOX, (Fraction(3, 4), Fraction(3, 4)), (Fraction(1), Fraction(1)),
          ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(-3))), 1, 0,
          Fraction(3)))  # slanted face: b = (1/2, -1/2), b.Hb + 3 b.b = 0
@example((UNIT_BOX, (Fraction(1, 3), Fraction(1, 3)), (0, 0),
          ((hp(-1), hp(1)), (hp(1), hp(-1))), 1, 0, 2))  # det(H + 2I) = 0 in hp
def test_verdict_equals_the_fraction_reference(case):
    """verify_sosp's integer verdict equals the Fraction formulas of
    verify_reference: pass_first, pass_second, gpi_sq, R and the active rows,
    on the box and the cut box, at interior, wall, slanted-face and vertex
    points, with rational and hp derivatives, and at the exact thresholds
    ||g_pi||^2 = eps_G^2, R_ii + eps_H ||b_i||^2 = 0 and det(R + eps_H D) = 0."""
    poly, x, grad, hess, L1, eps_g, eps_h = case

    def obj(_):
        return 0, grad, hess

    want = verify_reference.verdict(obj, poly, x, eps_g, eps_h, L1)
    rep = verify_sosp(obj, poly, x, eps_g, eps_h, L1)
    assert {"pass_first": rep.pass_first, "pass_second": rep.pass_second,
            "gpi_sq": rep.gpi_sq, "R": rep.R,
            "active_indices": rep.active_indices} == want


def _check_curvature_figures(poly, x, grad, hess, eps_h):
    """lambda_min of verify_sosp's report and snap_solver's curvature
    direction at x equal the reference's, bit for bit."""
    def obj(_):
        return 0, grad, hess

    frame = active_set(poly, x)
    R = verify_reference.tangent_hessian(hess, frame.basis)
    assert verify_sosp(obj, poly, x, 1, eps_h, 1).lambda_min \
        == verify_reference.min_eig(R, frame.basis, frame.norms_sq)[0]
    direction = curvature_direction(grad, hess, frame, eps_h)
    assert direction == verify_reference.curvature_direction(grad, hess, frame, eps_h)
    return frame, direction


@settings(deadline=None, max_examples=200)
@given(verdict_cases())
@example((UNIT_BOX, (Fraction(1, 3), Fraction(1, 3)), (0, 0),
          ((hp(-1), hp(1) / 3), (hp(1) / 3, hp(-1))), 1, 0, 0))  # interior, hp
@example((CUT_BOX, (Fraction(3, 4), Fraction(3, 4)), (Fraction(1), Fraction(-1)),
          ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(-3))), 1, 0,
          Fraction(1)))  # slanted face, b.Hb = -4 < -||b||^2
def test_curvature_figures_equal_the_fraction_reference(case):
    """The report's lambda_min and snap_solver.curvature_direction, rounded
    from the ratios of R, equal the reference's figures rounded from the
    Fraction R, bit for bit: on the box and the cut box, at interior, wall,
    slanted-face and vertex points, with rational and hp Hessians."""
    poly, x, grad, hess, _, _, eps_h = case
    _check_curvature_figures(poly, x, grad, hess, eps_h)


def test_curvature_figures_on_3d_faces_equal_the_fraction_reference():
    """The same on the faces of random 3-D polytopes that a ray from the
    centre reaches, and a second ray within that face: faces of dimension 2
    and 1 whose basis vectors need not be unit vectors, and vertices, with
    rational and hp Hessians."""
    rng = random.Random(67)
    seen = set()
    for _ in range(120):
        poly, x = random_cut_polytope(rng, 3)
        for _ in range(rng.randrange(1, 3)):
            frame = active_set(poly, x)
            raw = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(3)]
            ray = [sum(sum(a * c for a, c in zip(raw, v)) / nsq * v[i]
                       for v, nsq in zip(frame.basis, frame.norms_sq)) for i in range(3)]
            if any(ray):
                t, _ = max_feasible_step(poly, x, ray)
                x = tuple(c + t * r for c, r in zip(x, ray))
        M = [[Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 100))
              for _ in range(3)] for _ in range(3)]
        hess = [[M[i][j] + M[j][i] for j in range(3)] for i in range(3)]
        if rng.random() < 0.5:
            hess = [[hp(v) for v in row] for row in hess]
        grad = [Fraction(rng.randrange(-100, 101), 7) for _ in range(3)]
        eps_h = Fraction(rng.randrange(0, 100), 7)
        frame, direction = _check_curvature_figures(poly, x, grad, hess, eps_h)
        seen.add(f"dim {frame.dim}")
        if any(nsq != 1 for nsq in frame.norms_sq):
            seen.add(f"dim {frame.dim}, non-unit basis")
        if direction is not None:
            seen.add("negative curvature")
    assert {"dim 2, non-unit basis", "dim 1, non-unit basis", "dim 0",
            "negative curvature"} <= seen


@pytest.mark.parametrize("name,args", [
    ("L1", dict(L1=0)), ("L1", dict(L1=-1)), ("L1", dict(L1=hp(-1) / 3)),
    ("eps_g", dict(eps_g=-Fraction(1, 100))), ("eps_h", dict(eps_h=hp(-1) / 100)),
])
def test_verify_sosp_refuses_nonpositive_l1_and_negative_eps(name, args):
    """L1 <= 0 turns the proximal step around, and eps < 0 asks for the
    opposite test: on f = x over the unit box, L1 = -1 passed the
    non-stationary wall point (1, 1/2), and eps_h < 0 demanded lambda >=
    |eps_h|.  Each is refused by name, as line_search refuses eps_h <= 0."""
    def obj(_):
        return 0, (1, 0), ((0, 0), (0, 0))

    kwargs = dict(eps_g=Fraction(1, 100), eps_h=Fraction(1, 100), L1=1) | args
    with pytest.raises(ValueError, match=name):
        verify_sosp(obj, UNIT_BOX, (Fraction(1), Fraction(1, 2)), **kwargs)
    with pytest.raises(ValueError, match="L1"):
        proximal_gradient((Fraction(1), Fraction(1, 2)), (1, 0), -1, UNIT_BOX)
    assert not verify_sosp(obj, UNIT_BOX, (Fraction(1), Fraction(1, 2)),
                           Fraction(1, 100), 0, 1).pass_first


def test_verdict_makes_no_gcd(moderate_n1, monkeypatch):
    """At an interior hp point of a moderate instance the verdict builds no
    Fraction: verify_sosp makes no gcd beyond those of the objective, and
    the report normalises gpi_sq and R only when they are read."""
    calls = 0
    gcd = fractions.math.gcd

    def counted(*args):
        nonlocal calls
        calls += 1
        return gcd(*args)

    h = moderate_n1
    poly = h.domain_polytope()
    L1 = h.lipschitz_report().L1
    obj = h.objective(exact=False)
    x = (hp(h.domain_high) / 3, hp(h.domain_high) * 2 / 7)
    eps = Fraction(1, 100)
    verify_sosp(obj, poly, x, eps, eps, L1)  # builds the interior frame
    monkeypatch.setattr(fractions.math, "gcd", counted)
    obj(x)[2]
    in_objective = calls
    calls = 0
    rep = verify_sosp(obj, poly, x, eps, eps, L1)
    assert rep.active_indices == () and calls == in_objective
    rep.gpi_sq, rep.R  # normalised when read
    assert calls > in_objective
