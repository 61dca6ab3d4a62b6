"""The local-search reduction: potential, neighbor map, and the strict
improvement property at non-SOSP grid points."""

from __future__ import annotations

import fractions
import random
from fractions import Fraction

import pytest

from sospgrid import localopt_reduction, snap_solver
from sospgrid._precision import to_fraction
from sospgrid.cli import solve_start
from sospgrid.localopt_reduction import ReductionInstance, Verdict
from sospgrid.snap_solver import StepKind, snap_run, snap_update
from sospgrid.stationarity import Polytope, proximal_gradient, verify_sosp


def saddle_objective():
    """f = x^2/2 - y^2 on the unit box; L = 2, L1 = 2, L2 = 1."""
    c = Fraction(1, 2)

    def obj(p):
        x, y = p
        return ((x - c) ** 2 / 2 - (y - c) ** 2,
                (x - c, -2 * (y - c)),
                ((1, 0), (0, -2)))

    return obj


def quartic_objective():
    """f = sum((x_i^2-1)^2)/4 on [-2, 2]^2; L = 6, L1 = 11, L2 = 12."""

    def obj(p):
        return (sum((xi * xi - 1) ** 2 for xi in p) / 4,
                tuple(xi * (xi * xi - 1) for xi in p),
                tuple(tuple((3 * p[i] * p[i] - 1) if i == j else 0
                            for j in range(2)) for i in range(2)))

    return obj


@pytest.fixture(scope="module")
def saddle_ri():
    poly = Polytope.box((0, 0), (1, 1))
    eps = Fraction(1, 100)
    return ReductionInstance(saddle_objective(), poly, eps, eps, 2, 2, 1)


@pytest.fixture(scope="module")
def quartic_ri():
    poly = Polytope.box((-2, -2), (2, 2))
    eps = Fraction(1, 100)
    return ReductionInstance(quartic_objective(), poly, eps, eps, 6, 11, 12)


def test_constants(saddle_ri):
    ri = saddle_ri
    assert ri.eps == Fraction(1, 100)
    assert ri.L_max == 2
    assert ri.weight == ri.eps**4 / (100 * 2 * ri.L_max**2)
    # box path: gamma set, MapToGrid path disabled
    assert ri.gamma is not None and ri.delta is None
    assert (Fraction(1) / ri.gamma).denominator == 1  # divides the box side


@pytest.mark.parametrize("eps", [0, Fraction(-1, 100)])
@pytest.mark.parametrize("name", ["eps_g", "eps_h"])
@pytest.mark.parametrize("cut", [False, True], ids=["box", "cut"])
def test_nonpositive_eps_is_refused(cut, name, eps):
    """eps_g <= 0 or eps_h <= 0 would make gamma or delta zero or negative:
    the instance is refused when it is built, on a box and off it."""
    poly = Polytope.box((0, 0), (1, 1))
    if cut:
        poly = poly.with_cut((1, 1), Fraction(3, 2))
    tol = {"eps_g": Fraction(1, 100), "eps_h": Fraction(1, 100), name: eps}
    with pytest.raises(ValueError, match=name):
        ReductionInstance(saddle_objective(), poly, tol["eps_g"], tol["eps_h"], 2, 2, 1)


def test_round_point_lands_on_grid(saddle_ri):
    ri = saddle_ri
    rng = random.Random(2)
    for _ in range(50):
        x = tuple(Fraction(rng.randrange(0, 10**6), 10**6) for _ in range(2))
        y = ri.round_point(x)
        assert ri.on_grid(y)
        assert ri.poly.contains(y)
        for a, b in zip(x, y):
            assert 0 <= a - b < ri.gamma  # floor rounding


def test_potential_requires_grid_point(saddle_ri):
    with pytest.raises(ValueError):
        saddle_ri.potential((Fraction(1, 3), Fraction(1, 3)))


def test_potential_counts_free_dimensions(saddle_ri):
    ri = saddle_ri
    interior = ri.round_point((Fraction(1, 2), Fraction(1, 2)))
    p_int = ri.potential(interior)
    corner = (Fraction(0), Fraction(0))
    p_cor = ri.potential(corner)
    f_int = ri.objective(interior)[0]
    f_cor = ri.objective(corner)[0]
    assert float(p_int - f_int) == pytest.approx(float(2 * ri.weight))
    assert float(p_cor - f_cor) == 0.0


def test_neighbor_fixed_point_iff_sosp(quartic_ri):
    ri = quartic_ri
    # iterate the neighbor map from a grid start until it fixes
    x = ri.round_point((Fraction(17, 16), Fraction(-13, 16)))
    for _ in range(5000):
        y = ri.neighbor(x)
        if y == x:
            break
        x = y
    else:
        pytest.fail("neighbor map did not reach a fixed point")
    rep = verify_sosp(ri.objective, ri.poly, x, ri.eps_g, ri.eps_h, ri.L1)
    assert rep.passed


@pytest.mark.parametrize("make_ri,n_trials", [("saddle_ri", 120),
                                              ("quartic_ri", 120)])
def test_improvement_at_non_sosp_grid_points(make_ri, n_trials, request):
    ri = request.getfixturevalue(make_ri)
    rng = random.Random(13)
    lo, hi = ri.poly.box_bounds
    kinds = {}
    for _ in range(n_trials):
        raw = tuple(Fraction(rng.randrange(0, 10**6), 10**6) * (h - l) + l
                    for l, h in zip(lo, hi))
        x = ri.round_point(raw)
        v = ri.improvement_check(x)
        assert v.kind != "violation"
        kinds[v.kind] = kinds.get(v.kind, 0) + 1
        if v.improved:
            assert v.p_gx < v.p_x
            assert ri.on_grid(v.g_x)
        else:
            assert v.kind == "solution"
            assert verify_sosp(ri.objective, ri.poly, x,
                               ri.eps_g, ri.eps_h, ri.L1).passed
    assert any(k.startswith("improved") for k in kinds)


def grid_points(ri, lo, hi, extra, count=6, seed=5):
    """extra, rounded onto the grid, and count grid points rounded from
    uniform raw points of [lo, hi]^2 that lie in the polytope."""
    rng = random.Random(seed)
    raws = list(extra)
    while len(raws) < len(extra) + count:
        raw = tuple(Fraction(rng.randrange(0, 10**6 + 1), 10**6) * (hi - lo) + lo
                    for _ in range(2))
        if ri.poly.contains(raw):
            raws.append(raw)
    return [ri.round_point(raw) for raw in raws]


@pytest.fixture(scope="module")
def hard_ris(moderate_n1):
    """The reduction on the moderate n = 1 instance over its box and over
    the box cut by x + y <= 3/2, each with the end point of the seed-1
    start of `sospgrid solve`, an SOSP that rounds to an SOSP grid point."""
    h = moderate_n1
    rec = h.lipschitz_report()
    eps = Fraction(1, 100)
    box = h.domain_polytope()
    end = snap_run(h.objective(exact=False), box, solve_start(1, 1), eps, eps,
                   rec.L1, rec.L2, max_iter=1000, adaptive=True).final_point
    return {name: (ReductionInstance(h.objective(exact=False), poly, eps, eps,
                                     rec.L, rec.L1, rec.L2), end)
            for name, poly in (("box", box),
                               ("cut", box.with_cut((1, 1), Fraction(3, 2))))}


@pytest.mark.parametrize("case", ["box", "cut"])
def test_grid_refuses_points_outside_the_polytope(hard_ris, case):
    """round_point and on_grid name the violated row on the box as on the
    cut polytope."""
    ri, _ = hard_ris[case]
    with pytest.raises(ValueError, match="point violates constraint 2"):
        ri.round_point((Fraction(3, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match="point violates constraint 2"):
        ri.on_grid((Fraction(3, 2), Fraction(0)))


@pytest.mark.parametrize("case", ["box", "cut"])
def test_grid_test_makes_no_gcd(hard_ris, case, monkeypatch):
    """At the grid points of the reduction of the moderate n = 1 instance,
    rounded raw points and the updates g(x) with their 300-bit
    denominators, on_grid decides by integer divisibility: it makes no gcd
    once the faces' frames are built."""
    ri, _ = hard_ris[case]
    points = [(Fraction(0), Fraction(0))]
    for x in grid_points(ri, 0, 1, [], count=6, seed=7):
        points += [x, ri.improvement_check(x).g_x]
    assert all(ri.on_grid(x) for x in points)  # builds the frames
    calls = 0
    gcd = fractions.math.gcd

    def counted(*args):
        nonlocal calls
        calls += 1
        return gcd(*args)

    monkeypatch.setattr(fractions.math, "gcd", counted)
    assert all(ri.on_grid(x) for x in points)
    assert calls == 0


@pytest.mark.parametrize("case", ["saddle", "quartic", "hard-box", "hard-cut"])
def test_terminal_step_is_the_sosp_verdict(case, request):
    """The reduction decides a grid point from the update alone: its kind
    is TERMINAL exactly where verify_sosp passes, and neighbor fixes
    exactly those points."""
    half = Fraction(1, 2)
    if case == "saddle":
        ri, lo, hi = request.getfixturevalue("saddle_ri"), 0, 1
        extra = [(half, half), (half, 0), (half, 1)]  # saddle, two minima
    elif case == "quartic":
        ri, lo, hi = request.getfixturevalue("quartic_ri"), -2, 2
        extra = [(0, 0), (1, 1), (-1, 1)]  # maximum, two minima
    else:
        ri, end = request.getfixturevalue("hard_ris")[case.removeprefix("hard-")]
        lo, hi, extra = 0, 1, [end]
    terminal = []
    for x in grid_points(ri, lo, hi, extra):
        _, grad, hess = ri.objective(x)
        kind = snap_update(ri.objective, ri.poly, x, grad, hess,
                           ri.eps_g, ri.eps_h, ri.L1, ri.L2)[0]
        passed = verify_sosp(ri.objective, ri.poly, x,
                             ri.eps_g, ri.eps_h, ri.L1).passed
        assert (kind is StepKind.TERMINAL) == passed
        assert (ri.neighbor(x) == x) == passed
        terminal.append(passed)
    assert any(terminal) and not all(terminal)


def test_improvement_check_evaluates_once_at_x(monkeypatch):
    """A grid point whose update is a gradient step costs two objective
    calls, one full evaluation at x that gives p(x), decides and moves, and
    f at g(x); and two active sets, one at x and one at g(x), on the box and
    on the box cut by x + y <= 3/2, where the face's frame gives both the
    lattice and dim Null."""
    calls, frames = [], []
    saddle = saddle_objective()

    def counted(p):
        calls.append(p)
        return saddle(p)

    for module in (localopt_reduction, snap_solver):
        def framed(poly, x, active_set=module.active_set):
            frames.append(tuple(x))
            return active_set(poly, x)

        monkeypatch.setattr(module, "active_set", framed)
    eps = Fraction(1, 100)
    box = Polytope.box((0, 0), (1, 1))
    for poly in (box, box.with_cut((1, 1), Fraction(3, 2))):
        ri = ReductionInstance(counted, poly, eps, eps, 2, 2, 1)
        x = ri.round_point((Fraction(1, 4), Fraction(1, 3)))
        assert snap_update(saddle, ri.poly, x, *saddle(x)[1:], eps, eps, 2, 1)[0] \
            is StepKind.PGD
        calls.clear()
        frames.clear()
        v = ri.improvement_check(x)
        assert v.improved
        assert calls == [x, v.g_x]
        assert frames == [x, v.g_x]


@pytest.mark.parametrize("case", ["saddle", "hard-box", "hard-cut"])
def test_gradient_step_rounds_the_exact_projection(case, request):
    """At a gradient-step grid point, h(x) is the exact pi_X(x - g/L1) =
    x + g_pi/L1 that the first-order test projects, and g(x) is its
    rounding."""
    if case == "saddle":
        ri, extra = request.getfixturevalue("saddle_ri"), []
    else:
        ri, end = request.getfixturevalue("hard_ris")[case.removeprefix("hard-")]
        extra = [end]
    steps = 0
    for x in grid_points(ri, 0, 1, extra, count=8):
        _, grad, hess = ri.objective(x)
        kind, y, _, _ = snap_update(ri.objective, ri.poly, x, grad, hess,
                                    ri.eps_g, ri.eps_h, ri.L1, ri.L2)
        if kind is not StepKind.PGD:
            continue
        steps += 1
        gpi = proximal_gradient(x, grad, ri.L1, ri.poly)
        exact = tuple(c + g / ri.L1 for c, g in zip(x, gpi))
        assert y == exact
        assert ri.neighbor(x) == ri.round_point(exact)
    assert steps > 0


@pytest.mark.parametrize("method", ["neighbor", "improvement_check"])
def test_points_outside_the_polytope_are_rejected(saddle_ri, method):
    with pytest.raises(ValueError):
        getattr(saddle_ri, method)((Fraction(3, 2), Fraction(1, 2)))


def test_improvement_c2_on_curvature_escape(saddle_ri):
    """The exact saddle lies on the grid; the update walks off it along the
    negative-curvature direction and the potential drops."""
    ri = saddle_ri
    x = ri.round_point((Fraction(1, 2), Fraction(1, 2)))
    v = ri.improvement_check(x)
    assert v.improved
    assert v.p_gx < v.p_x


def test_general_polytope_path_uses_map_to_grid():
    poly = Polytope.box((0, 0), (1, 1)).with_cut(
        [Fraction(1), Fraction(1)], Fraction(3, 2))
    eps = Fraction(1, 10)
    ri = ReductionInstance(saddle_objective(), poly, eps, eps, 2, 2, 1)
    assert ri.gamma is None and ri.delta is not None
    y = ri.round_point((Fraction(1, 3), Fraction(2, 5)))
    assert ri.on_grid(y) and poly.contains(y)
    assert not ri.on_grid((Fraction(1, 3), Fraction(2, 5)))


@pytest.mark.parametrize("cut", [False, True], ids=["box", "cut"])
def test_improvement_on_moderate_hard_instance(moderate_n1, cut):
    """On the n = 1 hard instance a step moves the point by far less than
    2^-53, so the update and the rounding must both be exact for every
    non-SOSP grid point to lower the potential."""
    h = moderate_n1
    rec = h.lipschitz_report()
    poly = h.domain_polytope()
    if cut:
        poly = poly.with_cut((1, 1), Fraction(3, 2))
    eps = Fraction(1, 100)
    ri = ReductionInstance(h.objective(exact=False), poly, eps, eps,
                           rec.L, rec.L1, rec.L2)
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        raw = tuple(Fraction(rng.randrange(0, 10**6 + 1), 10**6) for _ in range(2))
        if not poly.contains(raw):
            continue
        checked += 1
        v = ri.improvement_check(ri.round_point(raw))
        assert v.kind != "violation", raw
        if v.kind != "solution":
            assert v.p_gx < v.p_x


def test_potential_keeps_its_weight_term_on_the_hard_instance(moderate_n1):
    """f is about 1e8 at these points and the weight about 1e-63, so a
    192-bit sum would drop the weight term; the potential is exact."""
    h = moderate_n1
    rec = h.lipschitz_report()
    ri = ReductionInstance(h.objective(exact=False), h.domain_polytope(),
                           Fraction(1, 100), Fraction(1, 100), rec.L, rec.L1, rec.L2)
    points = [ri.round_point((Fraction(1, 2), Fraction(1, 3))),
              ri.round_point((Fraction(0), Fraction(1, 3))),
              (Fraction(0), Fraction(0))]
    assert [ri.dim_null(x) for x in points] == [2, 1, 0]
    for x in points:
        f = to_fraction(ri.objective(x)[0])
        assert ri.potential(x) - f == ri.weight * ri.dim_null(x)
