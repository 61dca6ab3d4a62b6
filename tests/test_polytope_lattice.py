"""Face frames, grid step sizes, and the MapToGrid rounding guarantees."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from sospgrid.polytope_lattice import (
    box_grid_step,
    frac_gcd,
    lattice_cardinality_bound,
    lattice_steps,
    map_to_grid,
)
from sospgrid.stationarity import Polytope, face_frame


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
    active = tuple(j for j, s in enumerate(poly.slacks(y)) if s == 0)
    for r in range(len(active) + 1):
        for I in itertools.combinations(active, r):
            frame = face_frame(poly, I)
            diff = [c - x for c, x in zip(y, frame.x_ref)]
            recon = list(frame.x_ref)
            ok = True
            for v, nsq, step in zip(frame.basis, frame.norms_sq,
                                    lattice_steps(frame, Fraction(delta))):
                coeff = sum(a * c for a, c in zip(diff, v)) / nsq
                if (coeff / step).denominator != 1:
                    ok = False
                    break
                for i in range(poly.d):
                    recon[i] += coeff * v[i]
            if ok and tuple(recon) == tuple(y):
                return True
    return False


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
        active = tuple(j for j, s in enumerate(poly.slacks(x)) if s == 0)
        frame = face_frame(poly, active)
        for j in frame.indices:
            for v in frame.basis:
                assert sum(a * c for a, c in zip(poly.A[j], v)) == 0
        for i, vi in enumerate(frame.basis):
            for vj in frame.basis[i + 1:]:
                assert sum(a * c for a, c in zip(vi, vj)) == 0
        # the lattice step is delta / nu with nu >= ||v||
        for v, nsq, step in zip(frame.basis, frame.norms_sq, lattice_steps(frame, 1)):
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
