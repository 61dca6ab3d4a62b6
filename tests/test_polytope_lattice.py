"""Face frames, grid step sizes, and the MapToGrid rounding guarantees."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import lattice_reference
from sospgrid import polytope_lattice
from sospgrid._precision import hp
from sospgrid.localopt_reduction import ReductionInstance, Verdict
from sospgrid.polytope_lattice import (
    box_grid_step,
    frac_gcd,
    lattice_cardinality_bound,
    map_to_grid,
)
from sospgrid.stationarity import Polytope, active_set, face_frame, max_feasible_step


def random_polytope(rng):
    """A box with up to 3 extra cuts that keep the center feasible."""
    d = rng.randrange(1, 6)
    lo = tuple(Fraction(rng.randrange(-4, 1)) for _ in range(d))
    hi = tuple(l + Fraction(rng.randrange(1, 5)) for l in lo)
    poly = Polytope.box(lo, hi)
    center = tuple((l + h) / 2 for l, h in zip(lo, hi))
    for _ in range(rng.randrange(0, 4)):
        row = [Fraction(rng.randrange(-3, 4)) for _ in range(d)]
        if all(v == 0 for v in row):
            continue
        cdot = sum(a * c for a, c in zip(row, center))
        poly = poly.with_cut(row, cdot + Fraction(rng.randrange(1, 8), 3))
    return poly, center


def random_feasible_point(rng, poly, center):
    for _ in range(200):
        raw = tuple(center[i] + Fraction(rng.randrange(-300, 301), 100)
                    for i in range(poly.d))
        if poly.contains(raw):
            return raw
    return center


def on_lattice(poly, y, delta):
    """Exact check that y lies on the rounding lattice of one of its faces:
    y = x_ref(I) + sum_k c_k v_k with every c_k a multiple of its lattice
    step delta/nu_k."""
    active = poly.active_rows(y)
    for r in range(len(active) + 1):
        for I in itertools.combinations(active, r):
            frame = face_frame(poly, I)
            diff = [c - x for c, x in zip(y, frame.x_ref)]
            recon = list(frame.x_ref)
            ok = True
            for v, nsq, step in zip(frame.basis, frame.norms_sq,
                                    lattice_reference.lattice_steps(frame, delta)):
                coeff = sum(a * c for a, c in zip(diff, v)) / nsq
                if (coeff / step).denominator != 1:
                    ok = False
                    break
                for i in range(poly.d):
                    recon[i] += coeff * v[i]
            if ok and tuple(recon) == tuple(y):
                return True
    return False


def _outcome(fn, *args):
    """fn(*args), or ("ValueError", message) if it raises one."""
    try:
        return fn(*args)
    except ValueError as err:
        return "ValueError", str(err)


def test_max_feasible_step_equals_the_fraction_reference():
    """The ratio test, decided by cross-multiplying exact ratios, returns the
    Fraction reference's t and blocking rows: from interior and face points
    of random polytopes, along rational and hp directions, with a facet
    repeated so that its rows tie; and it raises the reference's ValueError
    along a ray that no row bounds."""
    rng = random.Random(71)
    seen = set()
    half_plane = Polytope(((Fraction(1), Fraction(-2)),), (Fraction(1),))
    cases = [(half_plane, (Fraction(0), Fraction(0)), (Fraction(-1), Fraction(3)))]
    for _ in range(300):
        poly, center = random_polytope(rng)
        if rng.random() < 0.3:  # row j again, scaled by k: the two rows tie
            j, k = rng.randrange(poly.m), rng.randrange(1, 4)
            poly = poly.with_cut([k * a for a in poly.A[j]], k * poly.b[j])
        x = random_feasible_point(rng, poly, center)
        if rng.random() < 0.5:
            x = _push(rng, poly, x, 0)
        ray = [_rational(rng, rng.choice([0, 40])) for _ in range(poly.d)]
        if rng.random() < 0.3:
            ray = [hp(c) / 3 for c in ray]
        elif rng.random() < 0.1:
            ray = [0] * poly.d
        cases.append((poly, x, ray))
    for poly, x, ray in cases:
        got = _outcome(max_feasible_step, poly, x, ray)
        assert got == _outcome(lattice_reference.max_feasible_step, poly, x, ray)
        if got[0] == "ValueError":
            seen.add("unbounded")
        else:
            assert isinstance(got[0], Fraction)
            seen.add("tie" if len(got[1]) > 1 else "t = 0" if got[0] == 0 else "t > 0")
    assert seen == {"unbounded", "tie", "t = 0", "t > 0"}


def test_frac_gcd():
    assert frac_gcd([Fraction(3, 4), Fraction(1, 2)]) == Fraction(1, 4)
    assert frac_gcd([Fraction(6), Fraction(4)]) == 2
    assert frac_gcd([Fraction(0), Fraction(5)]) == 5


def test_box_grid_step_divides_lengths_and_is_small_enough():
    intervals = [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1, 2))]
    eps, L = Fraction(1, 10), Fraction(4)
    gamma = box_grid_step(intervals, eps, L)
    d = len(intervals)
    for a, b in intervals:
        assert ((b - a) / gamma).denominator == 1
    # gamma <= eps^5 / (1000 d^(3/2) L^3): check gamma^2 against the square
    lhs = 1000**2 * d**3 * L**6 * gamma**2
    assert lhs <= eps**10
    with pytest.raises(ValueError):
        box_grid_step([(0, 0)], eps, L)
    with pytest.raises(ValueError):
        box_grid_step(intervals, 0, L)


def test_face_frame_geometry():
    poly = Polytope.box((0, 0), (2, 3))
    # bottom edge y = 0
    frame = face_frame(poly, (1,))
    assert frame.dim == 1
    assert all(sum(a * c for a, c in zip(poly.A[1], frame.x_ref)) == poly.b[1]
               for _ in [0])
    (v,) = frame.basis
    assert v[1] == 0 and v[0] != 0
    # full vertex
    vert = face_frame(poly, (0, 1))
    assert vert.dim == 0 and vert.x_ref == (0, 0)
    # empty face = whole space
    free = face_frame(poly, ())
    assert free.dim == 2 and free.x_ref == (0, 0)


def test_face_frame_basis_is_orthogonal_in_kernel():
    rng = random.Random(5)
    for _ in range(30):
        poly, center = random_polytope(rng)
        x = random_feasible_point(rng, poly, center)
        frame = face_frame(poly, poly.active_rows(x))
        for j in frame.indices:
            for v in frame.basis:
                assert sum(a * c for a, c in zip(poly.A[j], v)) == 0
        for i, vi in enumerate(frame.basis):
            for vj in frame.basis[i + 1:]:
                assert sum(a * c for a, c in zip(vi, vj)) == 0
        # the lattice step is delta / nu with nu >= ||v||
        for v, nsq, step in zip(frame.basis, frame.norms_sq,
                                lattice_reference.lattice_steps(frame, 1)):
            assert sum(c * c for c in v) == nsq
            assert step ** -2 >= nsq


def test_map_to_grid_rejects_bad_input():
    poly = Polytope.box((0, 0), (1, 1))
    with pytest.raises(ValueError):
        map_to_grid(poly, (Fraction(2), Fraction(0)), Fraction(1, 10))
    with pytest.raises(ValueError):
        map_to_grid(poly.with_cut((1, 1), Fraction(3, 2)), (Fraction(1), Fraction(1)),
                    Fraction(1, 10))
    with pytest.raises(ValueError):
        map_to_grid(poly, (Fraction(1, 2), Fraction(1, 2)), 0)


def test_map_to_grid_lattice_membership_and_bounds():
    """Output feasible, on a face lattice, per-step displacement <=
    sqrt(d) delta / 2, at most d bounces."""
    rng = random.Random(11)
    for _ in range(120):
        poly, center = random_polytope(rng)
        x = random_feasible_point(rng, poly, center)
        delta = Fraction(1, rng.choice([3, 7, 10, 16]))
        y, cert = map_to_grid(poly, x, delta)
        d = poly.d
        assert poly.contains(y)
        assert cert.x_in == tuple(x) and cert.y_out == tuple(y)
        assert cert.bounce_count <= d
        for s in cert.step_dist_sq:
            assert s <= Fraction(d) * delta * delta / 4
        assert on_lattice(poly, y, delta)


def test_map_to_grid_fixed_point_for_lattice_points():
    poly = Polytope.box((0, 0), (1, 1))
    delta = Fraction(1, 8)
    x = (Fraction(3, 8), Fraction(5, 8))
    y, cert = map_to_grid(poly, x, delta)
    assert y == x and cert.bounce_count == 0


@pytest.mark.parametrize("cut", [False, True], ids=["box-corner", "cut-vertex"])
def test_map_to_grid_returns_a_vertex_with_one_read(cut, monkeypatch):
    """At a vertex the face's lattice is the vertex itself: map_to_grid
    returns its start without a bounce, from a single read of the slacks."""
    poly = Polytope.box((0, 0), (1, 1))
    x = (Fraction(0), Fraction(1))
    if cut:
        poly = poly.with_cut((1, 1), Fraction(3, 2))
        x = (Fraction(1), Fraction(1, 2))
    reads = 0
    slack_ratios = Polytope.slack_ratios

    def counted(self, p):
        nonlocal reads
        reads += 1
        return slack_ratios(self, p)

    monkeypatch.setattr(Polytope, "slack_ratios", counted)
    y, cert = map_to_grid(poly, x, Fraction(1, 7))
    assert y == x and cert.bounce_count == 0 and cert.step_dist_sq == ()
    assert reads == 1


def test_map_to_grid_half_ties_round_down():
    poly = Polytope.box((0,), (1,))
    delta = Fraction(1, 4)
    y, _ = map_to_grid(poly, (Fraction(1, 8),), delta)
    assert y == (Fraction(0),)
    y, _ = map_to_grid(poly, (Fraction(3, 8),), delta)
    assert y == (Fraction(1, 4),)


def test_map_to_grid_records_the_lower_index_of_tied_facets():
    """Rows 0 and 2 are the same facet x <= 1; the ray from 19/20 toward the
    rounded 6/5 hits both at t = 1/5, and the bounce names row 0."""
    poly = Polytope(((1,), (-1,), (1,)), (1, 0, 1))
    y, cert = map_to_grid(poly, (Fraction(19, 20),), Fraction(3, 5))
    assert cert.bounces == ((0, Fraction(1, 5)),)
    assert y == (Fraction(1),)


def test_lattice_cardinality_bound():
    val = lattice_cardinality_bound(4, 2, Fraction(2), Fraction(1, 10))
    # d'=0: C(4,2)=6; d'=1: C(4,1)(2*2*2/0.1+1)=4*81; d'=2: 81^2
    assert val == 6 + 4 * 81 + 81**2
    assert lattice_cardinality_bound(4, 2, 2, Fraction(1, 100)) > val
    with pytest.raises(ValueError):
        lattice_cardinality_bound(4, 2, 2, 0)


# Lattice steps: coarse (most targets leave the polytope and bounce), fine,
# and with a 300-bit denominator.
DELTAS = (Fraction(3, 5), Fraction(1, 7), Fraction(1, 64), Fraction(1, 2**300 + 1))
# eps of the reduction: a coarse grid (gamma and delta near 1) and a fine one.
GRID_EPS = (Fraction(10), Fraction(1, 100))
POINT_KINDS = ("interior", "face", "vertex", "tie")


def _rational(rng, bits):
    """A rational in [-3, 3]: hundredths, or a denominator of bits bits."""
    if not bits:
        return Fraction(rng.randrange(-300, 301), 100)
    den = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    return Fraction(rng.randrange(-3 * den, 3 * den + 1), den)


def _push(rng, poly, x, bits):
    """x moved along a random direction of its face until a new row holds
    with equality (the exact ratio test), or x if the face is a vertex."""
    frame = active_set(poly, x)
    if not frame.dim:
        return x
    raw = [_rational(rng, bits) or Fraction(1) for _ in range(poly.d)]
    d = [sum((sum(a * c for a, c in zip(raw, v)) / nsq) * v[i]
             for v, nsq in zip(frame.basis, frame.norms_sq)) for i in range(poly.d)]
    if all(c == 0 for c in d):
        return x
    t, _ = max_feasible_step(poly, x, d)
    return tuple(c + t * r for c, r in zip(x, d))


def grid_case(seed: int, kind: str, bits: int, delta: Fraction):
    """(poly, x): a box or a random polytope (random_polytope) and a point of
    it, interior, on a face, at a vertex, or a half-way tie of the lattice of
    step delta on its face, with coordinates of bits-bit denominators."""
    rng = random.Random(seed)
    poly, center = random_polytope(rng)
    offset = [_rational(rng, bits) for _ in range(poly.d)]
    x = tuple(c + o for c, o in zip(center, offset))
    while not poly.contains(x):
        offset = [o / 2 for o in offset]
        x = tuple(c + o for c, o in zip(center, offset))
    if kind in ("face", "tie"):
        for _ in range(rng.randrange(1 if kind == "face" else 0, poly.d + 1)):
            x = _push(rng, poly, x, bits)
    elif kind == "vertex":
        for _ in range(poly.d):
            x = _push(rng, poly, x, bits)
    if kind == "tie":
        # x_ref + sum_k (floor(c_k / step_k) + 1/2) step_k v_k, which lies on
        # x's face; kept when it stays in the polytope
        frame = active_set(poly, x)
        tie = list(frame.x_ref)
        for c, v, step in zip(lattice_reference.coords(frame, x), frame.basis,
                              lattice_reference.lattice_steps(frame, delta)):
            m = (math.floor(c / step) + Fraction(1, 2)) * step
            tie = [t + m * a for t, a in zip(tie, v)]
        if poly.contains(tie):
            x = tuple(tie)
    return poly, x


def _check_grid_against_reference(seed, kind, bits, delta, eps):
    """map_to_grid (y and the whole certificate), and the reduction's
    round_point and on_grid, equal the Fraction reference; returns the
    certificate."""
    poly, x = grid_case(seed, kind, bits, delta)
    y, cert = map_to_grid(poly, x, delta)
    ref_y, ref_bounces, ref_dists = lattice_reference.map_to_grid(poly, x, delta)
    assert y == ref_y
    assert (cert.x_in, cert.y_out, cert.bounces, cert.step_dist_sq) \
        == (x, ref_y, ref_bounces, ref_dists)
    ri = ReductionInstance(None, poly, eps, eps, 1, 1, 1)
    rounded = ri.round_point(x)
    assert rounded == lattice_reference.round_point(ri, x)
    for p in (x, y, rounded):
        assert ri.on_grid(p) == lattice_reference.on_grid(ri, p)
    return poly, x, cert


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32), st.sampled_from(POINT_KINDS), st.sampled_from([0, 300]),
       st.sampled_from(DELTAS), st.sampled_from(GRID_EPS))
@example(0, "tie", 300, DELTAS[-1], GRID_EPS[1])
def test_grid_equals_the_fraction_reference(seed, kind, bits, delta, eps):
    _check_grid_against_reference(seed, kind, bits, delta, eps)


def test_grid_reference_cases_cover_every_path():
    """The cases of test_grid_equals_the_fraction_reference reach boxes and
    cut polytopes, vertices, faces whose basis vector has an irrational
    norm, bounces, exact half-way ties and 300-bit denominators; each one
    equals the reference here too."""
    seen = set()
    for seed in range(12):
        for kind, bits, delta, eps in itertools.product(POINT_KINDS, (0, 300), DELTAS,
                                                        GRID_EPS[:1]):
            poly, x, cert = _check_grid_against_reference(seed, kind, bits, delta, eps)
            frame = active_set(poly, x)
            seen.add("box" if poly.box_bounds else "cut")
            seen.add(f"dim {min(frame.dim, 1)}")
            if any(math.isqrt(n.numerator * n.denominator) ** 2
                   != n.numerator * n.denominator for n in frame.norms_sq):
                seen.add("irrational norm")
            if cert.bounces:
                seen.add("bounce")
            if any((c / s).denominator == 2 for c, s
                   in zip(lattice_reference.coords(frame, x),
                          lattice_reference.lattice_steps(frame, delta))):
                seen.add("tie")
            if max(c.denominator for c in x).bit_length() >= 300:
                seen.add("300 bits")
    assert seen == {"box", "cut", "dim 0", "dim 1", "irrational norm", "bounce", "tie",
                    "300 bits"}


# grid_case draws (bits 0) at which map_to_grid once returned a point off
# its own face's lattice: the rounded target landed exactly on a row that
# was not active at the start.  The (seed, kind, delta) cases leave the
# lattice of step delta; the last one, grid_case(48, "interior", 0, 3/5),
# leaves the reduction's grid at eps = 10 (its delta is 4/15).
OFF_GRID_CASES = [
    (65, "interior", Fraction(1, 7)), (278, "interior", Fraction(3, 5)),
    (565, "interior", Fraction(3, 5)), (781, "interior", Fraction(1, 7)),
    (790, "tie", Fraction(3, 5)), (974, "interior", Fraction(1, 7)),
    (974, "tie", Fraction(1, 7)), (1080, "interior", Fraction(3, 5)),
    (1171, "interior", Fraction(3, 5)), (1171, "tie", Fraction(3, 5)),
    (1198, "tie", Fraction(1, 7)), (1216, "interior", Fraction(3, 5)),
    (1233, "tie", Fraction(1, 7)), (1438, "interior", Fraction(1, 7)),
    (1509, "interior", Fraction(3, 5)), (1509, "tie", Fraction(3, 5)),
    (48, "interior", Fraction(3, 5)),
]


def _with_off_grid_examples(test):
    for seed, kind, delta in OFF_GRID_CASES:
        test = example(seed, kind, 0, delta, GRID_EPS[0])(test)
    return test


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32), st.sampled_from(POINT_KINDS), st.sampled_from([0, 300]),
       st.sampled_from(DELTAS), st.sampled_from(GRID_EPS))
@_with_off_grid_examples
def test_rounding_lands_on_the_grid(seed, kind, bits, delta, eps):
    """map_to_grid's point lies on the lattice of its own face, the grid
    test of ReductionInstance.on_grid off the box, after at most d + 1
    passes of at most d delta^2 / 4 in squared length each; and on_grid
    holds at the reduction's round_point, on boxes and cut polytopes."""
    poly, x = grid_case(seed, kind, bits, delta)
    y, cert = map_to_grid(poly, x, delta)
    assert polytope_lattice.on_lattice(active_set(poly, y), y, delta)
    d = poly.d
    assert len(cert.step_dist_sq) <= d + 1
    assert all(s <= d * delta * delta / 4 for s in cert.step_dist_sq)
    ri = ReductionInstance(None, poly, eps, eps, 1, 1, 1)
    assert ri.on_grid(ri.round_point(x))


def _bowl(center, scale):
    """f = scale ||x - center||^2 / 2, exactly."""
    def obj(x):
        diff = [c - m for c, m in zip(x, center)]
        hess = tuple(tuple(scale * (i == j) for j in range(len(x))) for i in range(len(x)))
        return scale * sum(v * v for v in diff) / 2, tuple(scale * v for v in diff), hess

    return obj


def test_improvement_check_at_the_off_grid_cases_returns_a_verdict():
    """At the reduction's rounding of each off-grid case, improvement_check
    returns a verdict and does not refuse the point as off the grid.  The
    objective is a steep bowl (L = L1 = L2 = 100) centred at the centre of
    the polytope's box, which every cut keeps inside (random_polytope,
    whose first 2d rows are the box's): the first-order test fails at each
    rounded point, and g(x), the rounded gradient step to the centre, is a
    grid point too."""
    for seed, kind, delta in OFF_GRID_CASES:
        poly, x = grid_case(seed, kind, 0, delta)
        d = poly.d
        center = [(poly.b[d + i] - poly.b[i]) / 2 for i in range(d)]
        ri = ReductionInstance(_bowl(center, 100), poly, GRID_EPS[0], GRID_EPS[0],
                               100, 100, 100)
        verdict = ri.improvement_check(ri.round_point(x))
        assert isinstance(verdict, Verdict) and verdict.improved
        assert ri.on_grid(verdict.g_x)


def test_improvement_check_refuses_faces_of_dimension_three_or_more():
    """The curvature test reads null spaces of dimension at most 2.  With
    the bowl ||x||^2 / 2, eps = 10 and L = L1 = L2 = 1, the first-order test
    passes at the rounding of each off-grid case, and improvement_check
    raises ValueError exactly where its face has dimension 3 or more: at 10
    of the 17 cases.  At the other 7 it returns a verdict."""
    refused = 0
    for seed, kind, delta in OFF_GRID_CASES:
        poly, x = grid_case(seed, kind, 0, delta)
        ri = ReductionInstance(_bowl([0] * poly.d, 1), poly, GRID_EPS[0], GRID_EPS[0],
                               1, 1, 1)
        y = ri.round_point(x)
        if active_set(poly, y).dim >= 3:
            refused += 1
            with pytest.raises(ValueError, match="null spaces of dimension <= 2"):
                ri.improvement_check(y)
        else:
            assert isinstance(ri.improvement_check(y), Verdict)
    assert refused == 10


def test_grid_test_agrees_with_criterion_9_on_rounded_points():
    """On every map_to_grid point, the grid test of on_grid (the lattice of
    the whole active set) agrees with criterion 9's on_lattice (the lattice
    of any subset of it): on the first 200 draws of criterion 9, at the
    off-grid cases above, and at the reduction's rounding of those."""
    rng = random.Random(909)
    points = []
    for _ in range(200):
        poly, center = random_polytope(rng)
        delta = Fraction(1, rng.choice([3, 7, 10, 16]))
        points.append((poly, map_to_grid(poly, random_feasible_point(rng, poly, center),
                                         delta)[0], delta))
    for seed, kind, delta in OFF_GRID_CASES:
        poly, x = grid_case(seed, kind, 0, delta)
        points.append((poly, map_to_grid(poly, x, delta)[0], delta))
        ri = ReductionInstance(None, poly, GRID_EPS[0], GRID_EPS[0], 1, 1, 1)
        if ri.delta is not None:
            points.append((poly, ri.round_point(x), ri.delta))
    for poly, y, delta in points:
        assert polytope_lattice.on_lattice(active_set(poly, y), y, delta) \
            == on_lattice(poly, y, delta)
