"""Solver step contracts: guaranteed decreases, negative-curvature walks,
maximal steps onto new active constraints, and convergence to a verified
SOSP."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sospgrid import snap_solver
from sospgrid._precision import to_fraction
from sospgrid.cli import solve_start
from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance
from sospgrid.snap_solver import (
    SnapViolation,
    StepKind,
    curvature_direction,
    line_search,
    max_feasible_step,
    snap_run,
    snap_update,
)
from sospgrid.stationarity import Polytope, active_set, projected_step, verify_sosp


def saddle_objective(scale_neg=2):
    """f = x^2/2 - s*y^2 on the unit box: a strict saddle at (1/2, 1/2)."""
    cx, cy = Fraction(1, 2), Fraction(1, 2)

    def obj(p):
        x, y = p
        f = (x - cx) * (x - cx) / 2 - scale_neg * (y - cy) * (y - cy)
        grad = ((x - cx), -2 * scale_neg * (y - cy))
        hess = ((1, 0), (0, -2 * scale_neg))
        return f, grad, hess

    return obj


def quartic_objective():
    """f = sum((x_i^2 - 1)^2)/4 on [-2, 2]^2: maximum at the origin,
    four interior minima at (+-1, +-1).  L1 = 11, L2 = 12."""

    def obj(p):
        f = sum((xi * xi - 1) ** 2 for xi in p) / 4
        grad = tuple(xi * (xi * xi - 1) for xi in p)
        hess = tuple(tuple((3 * p[i] * p[i] - 1) if i == j else 0
                           for j in range(2)) for i in range(2))
        return f, grad, hess

    return obj


def valley_objective(K=10**4):
    """f = (K/2)(y - 1/2)^2 - x/2 on the unit box: a narrow valley along
    y = 1/2, stiff across (curvature K), flat along it, falling to x = 1."""
    half = Fraction(1, 2)

    def obj(p):
        x, y = p
        return (K * (y - half) ** 2 / 2 - x / 2,
                (-half, K * (y - half)), ((0, 0), (0, K)))

    return obj


def audit_trace(trace, eps_g, eps_h, L1, L2, poly, x0):
    """Check every step against its contract; returns kinds seen."""
    floor = min(Fraction(eps_g) ** 2 / (18 * Fraction(L1)),
                Fraction(6, 100) * Fraction(eps_h) ** 3 / Fraction(L2) ** 2)
    prev = tuple(float(c) for c in x0)
    kinds = set()
    for step in trace.steps:
        kinds.add(step.kind)
        assert tuple(float(c) for c in step.src) == pytest.approx(prev, abs=1e-12)
        prev = tuple(float(c) for c in step.dst)
        if step.kind is StepKind.TERMINAL:
            continue
        assert float(step.f_decrease) >= 0 or step.max_step
        if step.max_step:
            # strictly more independent active constraints, f non-increasing
            assert len(poly.active_rows(step.dst)) > len(poly.active_rows(step.src))
            assert step.new_active
            assert float(step.f_decrease) >= -1e-30
        elif not step.decrease_shortfall:
            assert float(step.f_decrease) >= float(floor) * (1 - 1e-9)
    return kinds


def curvature_at(obj, poly, x, eps_h):
    """curvature_direction at x from the objective's derivatives there."""
    _, grad, hess = obj(x)
    return curvature_direction(grad, hess, active_set(poly, x), eps_h)


def test_pgd_step_clamps_to_box():
    poly = Polytope.box((0, 0), (1, 1))
    obj = quartic_objective()
    x = (Fraction(1), Fraction(1, 2))
    y = projected_step(poly, x, obj(x)[1], 11)
    assert 0 <= float(y[0]) <= 1 and 0 <= float(y[1]) <= 1


def test_max_feasible_step_ratio_test():
    poly = Polytope.box((0, 0), (1, 1))
    t, blockers = max_feasible_step(poly, (Fraction(1, 2), Fraction(1, 2)),
                                    (Fraction(1), Fraction(0)))
    assert float(t) == pytest.approx(0.5)
    assert blockers == (2,)
    with pytest.raises(ValueError):
        max_feasible_step(Polytope(((Fraction(-1), Fraction(0)),),
                                   (Fraction(0),)),
                          (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))


def test_curvature_direction_points_down_the_saddle():
    poly = Polytope.box((0, 0), (1, 1))
    obj = saddle_objective()
    d = curvature_at(obj, poly, (Fraction(1, 2), Fraction(1, 2)),
                     Fraction(1, 100))
    assert abs(float(d[0])) <= 1e-9
    assert abs(abs(float(d[1])) - 1) <= 1e-9
    # convex objective: no negative curvature anywhere
    assert curvature_at(lambda p: ((p[0] - Fraction(1, 2)) ** 2,
                                   (2 * (p[0] - Fraction(1, 2)), 0),
                                   ((2, 0), (0, 2))),
                        poly, (Fraction(1, 2), Fraction(1, 2)),
                        Fraction(1, 100)) is None


def test_line_search_guarantees_curvature_decrease():
    poly = Polytope.box((0, 0), (1, 1))
    obj = saddle_objective()
    x = (Fraction(1, 2), Fraction(1, 2))
    d = curvature_at(obj, poly, x, Fraction(1, 100))
    y, hit_max, blockers = line_search(obj, poly, x, d, Fraction(1, 100), 4)
    fx, fy = obj(x)[0], obj(tuple(to_fraction(c) for c in y))[0]
    required = Fraction(6, 100) * Fraction(1, 100) ** 3 / Fraction(16)
    assert fx - fy >= required
    if hit_max:
        assert blockers
    else:
        assert blockers == ()


def test_line_search_max_step_reports_blockers():
    # build a direction with negligible decrease so the max step is taken:
    # flat objective along d, f constant
    poly = Polytope.box((0, 0), (1, 1))

    def flat(p):
        return Fraction(0), (Fraction(0), Fraction(0)), ((0, 0), (0, 0))

    y, hit_max, blockers = line_search(flat, poly,
                                       (Fraction(1, 2), Fraction(1, 2)),
                                       (Fraction(0), Fraction(1)),
                                       Fraction(1, 100), 1)
    assert hit_max and blockers == (3,)
    assert y[1] == 1


def test_line_search_raises_on_contract_breach():
    # f increases along d everywhere: the claimed curvature was a lie
    poly = Polytope.box((0, 0), (1, 1))

    def rising(p):
        return p[1], (Fraction(0), Fraction(1)), ((0, 0), (0, 0))

    with pytest.raises(SnapViolation):
        line_search(rising, poly, (Fraction(1, 2), Fraction(1, 2)),
                    (Fraction(0), Fraction(1)), Fraction(1, 100), 1)


@pytest.mark.parametrize("eps_h, L2", [(Fraction(1, 10**400), 1),
                                       (Fraction(1, 100), 10**400)],
                         ids=["eps_h-below-float", "L2-above-float"])
def test_line_search_reaches_the_maximal_step_from_any_start(eps_h, L2):
    """t doubles in rationals from eps_h/L2 to the ratio-test maximum,
    however far below a double's range eps_h/L2 lies: f falls all along
    d, so the search ends on the wall."""
    poly = Polytope.box((0, 0), (1, 1))
    y, hit_max, blockers = line_search(saddle_objective(), poly,
                                       (Fraction(1, 2), Fraction(1, 2)),
                                       (Fraction(0), Fraction(1)), eps_h, L2)
    assert y == (Fraction(1, 2), Fraction(1)) and hit_max and blockers == (3,)


@pytest.mark.parametrize("eps_h, L2", [(0, 1), (Fraction(-1, 100), 1),
                                       (Fraction(1, 100), 0), (Fraction(1, 100), -1)])
def test_line_search_needs_positive_constants(eps_h, L2):
    """With eps_h <= 0 or L2 <= 0 the doubling would never reach t_max."""
    poly = Polytope.box((0, 0), (1, 1))
    with pytest.raises(ValueError):
        line_search(saddle_objective(), poly, (Fraction(1, 2), Fraction(1, 2)),
                    (Fraction(0), Fraction(1)), eps_h, L2)



@pytest.mark.parametrize("name,eps_g,eps_h,L1", [
    ("L1", Fraction(1, 100), Fraction(1, 100), 0),
    ("L1", Fraction(1, 100), Fraction(1, 100), -1),
    ("eps_g", Fraction(-1, 100), Fraction(1, 100), 1),
    ("eps_h", Fraction(1, 100), Fraction(-1, 100), 1),
])
def test_snap_update_refuses_nonpositive_l1_and_negative_eps(name, eps_g, eps_h, L1):
    """snap_update makes verify_sosp's test, so it refuses the same
    constants by name, also at a point where it would take a gradient step:
    with L1 = -1 the wall point (1, 1/2) of f = x would pass as terminal."""
    poly = Polytope.box((0, 0), (1, 1))

    def obj(p):
        return p[0], (1, 0), ((0, 0), (0, 0))

    x = (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError, match=name):
        snap_update(obj, poly, x, *obj(x)[1:], eps_g, eps_h, L1, 1)
    kind, y, _, _ = snap_update(obj, poly, x, *obj(x)[1:], Fraction(1, 100),
                                Fraction(1, 100), 1, 1)
    assert kind is StepKind.PGD and y == (0, Fraction(1, 2))

def test_snap_run_saddle_uses_negative_curvature():
    poly = Polytope.box((0, 0), (1, 1))
    obj = saddle_objective()
    x0 = (Fraction(1, 2), Fraction(1, 2))
    eps = Fraction(1, 100)
    trace = snap_run(obj, poly, x0, eps, eps, 4, 1, max_iter=500)
    assert trace.converged
    kinds = audit_trace(trace, eps, eps, 4, 1, poly, x0)
    assert StepKind.NEGATIVE_CURVATURE in kinds
    # the NC walk from the exact saddle ends pinned on a wall
    assert any(s.max_step for s in trace.steps)
    rep = verify_sosp(obj, poly, trace.final_point, eps, eps, 4)
    assert rep.passed


def test_snap_run_quartic_interior_descent():
    poly = Polytope.box((-2, -2), (2, 2))
    obj = quartic_objective()
    x0 = (Fraction(0), Fraction(0))
    eps = Fraction(1, 100)
    trace = snap_run(obj, poly, x0, eps, eps, 11, 12, max_iter=2000)
    assert trace.converged
    kinds = audit_trace(trace, eps, eps, 11, 12, poly, x0)
    assert StepKind.NEGATIVE_CURVATURE in kinds
    # from the central maximum the walk stays interior
    x, y = (float(c) for c in trace.final_point)
    assert abs(abs(x) - 1) <= 1e-2 and abs(abs(y) - 1) <= 1e-2
    rep = verify_sosp(obj, poly, trace.final_point, eps, eps, 11)
    assert rep.passed


@pytest.mark.parametrize("adaptive", [False, True])
def test_snap_run_random_starts_satisfy_contracts(adaptive):
    poly = Polytope.box((-2, -2), (2, 2))
    obj = quartic_objective()
    eps = Fraction(1, 100)
    rng = random.Random(7)
    for _ in range(5):
        x0 = tuple(Fraction(rng.randrange(-1900, 1901), 1000) for _ in range(2))
        trace = snap_run(obj, poly, x0, eps, eps, 11, 12,
                         max_iter=2000, adaptive=adaptive)
        assert trace.converged
        audit_trace(trace, eps, eps, 11, 12, poly, x0)
        assert verify_sosp(obj, poly, trace.final_point, eps, eps, 11).passed


@pytest.mark.parametrize("adaptive", [False, True])
def test_snap_run_on_cut_polytope(adaptive):
    """Off a box a gradient step lands on the exact projection: the walk
    toward the excluded minimum (1, 1) reaches the cut x + y <= 1/2 exactly,
    then leaves along it to a verified SOSP."""
    poly = Polytope.box((-2, -2), (2, 2)).with_cut((1, 1), Fraction(1, 2))
    obj = quartic_objective()
    x0 = (Fraction(1, 5), Fraction(1, 5))
    eps = Fraction(1, 100)
    trace = snap_run(obj, poly, x0, eps, eps, 11, 12, max_iter=2000,
                     adaptive=adaptive)
    assert trace.converged
    assert any(s.kind is StepKind.PGD and 4 in poly.active_rows(s.dst)
               for s in trace.steps)
    audit_trace(trace, eps, eps, 11, 12, poly, x0)
    assert trace.final_report.x == trace.final_point
    assert verify_sosp(obj, poly, trace.final_point, eps, eps, 11).passed


def test_snap_run_terminal_step_at_sosp_start():
    poly = Polytope.box((-2, -2), (2, 2))
    obj = quartic_objective()
    trace = snap_run(obj, poly, (Fraction(1), Fraction(1)),
                     Fraction(1, 100), Fraction(1, 100), 11, 12)
    assert trace.converged and trace.iterations <= 1
    assert trace.final_report is not None and trace.final_report.passed


def test_snap_run_decides_on_the_exact_derivatives():
    """An exact objective is decided at its own derivatives, as verify_sosp
    decides: f = x/10 + (y - 1/2)^2 at (1/2, 1/2) has ||g_pi|| = 1/10 =
    eps_G exactly, so the start is an SOSP, while the 192-bit rounding of
    1/10 lies above it and would take gradient steps away."""
    half, tenth = Fraction(1, 2), Fraction(1, 10)

    def obj(p):
        x, y = p
        return x / 10 + (y - half) ** 2, (tenth, 2 * (y - half)), ((0, 0), (0, 2))

    poly = Polytope.box((0, 0), (1, 1))
    x0 = (half, half)
    report = verify_sosp(obj, poly, x0, tenth, tenth, 4, exact=True)
    trace = snap_run(obj, poly, x0, tenth, tenth, 4, 1)
    assert trace.iterations == 1
    assert [(s.kind, s.dst) for s in trace.steps] == [(StepKind.TERMINAL, x0)]
    assert report.passed and trace.converged


@pytest.mark.parametrize("d", [1, 3])
def test_snap_run_refuses_a_polytope_that_is_not_2d(d):
    """The split step reads a 2x2 Hessian, so a run on any other dimension
    is refused before it takes a step."""
    poly = Polytope.box((0,) * d, (1,) * d)

    def obj(p):
        raise AssertionError("the objective must not be evaluated")

    with pytest.raises(ValueError, match="2-D"):
        snap_run(obj, poly, (Fraction(1, 2),) * d, 1, 1, 1, 1, adaptive=True)


def test_snap_run_reports_on_its_final_point(moderate_n1):
    """final_report certifies the iterate the solver ends on, not a copy."""
    h = moderate_n1
    rec = h.lipschitz_report()
    trace = snap_run(h.objective(exact=False), h.domain_polytope(), solve_start(4, 1),
                     1e-2, 1e-2, rec.L1, rec.L2, max_iter=20000, adaptive=True)
    assert trace.converged
    assert trace.final_report.x == trace.final_point


def test_every_iterate_lies_in_the_polytope_exactly():
    """A negative-curvature max step lands exactly on its blocking rows: the
    probe x + t d is formed in rationals with the exact ratio-test t.  A
    step rounded in high precision can end just outside the box."""
    H = ((Fraction(6, 5), Fraction(8, 3)), (Fraction(8, 3), Fraction(-1, 2)))
    c = (Fraction(26, 31), Fraction(2, 37))

    def obj(p):
        u = [pi - ci for pi, ci in zip(p, c)]
        Hu = [sum(H[i][j] * u[j] for j in range(2)) for i in range(2)]
        return sum(a * b for a, b in zip(u, Hu)) / 2, tuple(Hu), H

    poly = Polytope.box((0, 0), (1, 1))
    eps = Fraction(1, 100)
    trace = snap_run(obj, poly, c, eps, eps, 20, 1, max_iter=500)
    assert trace.converged
    assert any(s.max_step for s in trace.steps)
    for step in trace.steps:
        assert poly.contains(step.dst)
        if step.max_step:
            assert step.new_active
            assert set(step.new_active) <= set(poly.active_rows(step.dst))


def test_split_step_crosses_a_narrow_valley():
    """The backtracked step is sized by the stiff curvature K and crawls
    along the valley; the split candidate takes the Newton step across it
    and a doubling search along it."""
    K = 10**4
    poly = Polytope.box((0, 0), (1, 1))
    eps = Fraction(1, 100)
    x0 = (Fraction(1, 10), Fraction(1, 3))
    trace = snap_run(valley_objective(K), poly, x0, eps, eps, K, 1,
                     max_iter=20000, adaptive=True)
    assert trace.converged
    assert trace.iterations <= 10
    assert trace.final_point[0] == 1
    assert abs(float(trace.final_point[1]) - 0.5) <= 1e-12
    audit_trace(trace, eps, eps, K, 1, poly, x0)


@pytest.mark.parametrize("adaptive", [False, True])
def test_trace_counts_its_work(adaptive):
    calls = 0
    quartic = quartic_objective()

    def obj(p):
        nonlocal calls
        calls += 1
        return quartic(p)

    eps = Fraction(1, 100)
    trace = snap_run(obj, Polytope.box((-2, -2), (2, 2)),
                     (Fraction(0), Fraction(0)), eps, eps, 11, 12,
                     max_iter=2000, adaptive=adaptive)
    assert trace.converged
    counts = trace.counts()
    assert sum(counts["steps"].values()) == trace.iterations
    assert counts["steps"][StepKind.NEGATIVE_CURVATURE.value] > 0
    assert counts["steps"][StepKind.TERMINAL.value] == 1
    assert counts["objective_calls"] == calls
    pgd = counts["steps"][StepKind.PGD.value]
    shortfalls = [step for step in trace.steps if step.decrease_shortfall]
    assert counts["decrease_shortfalls"] == len(shortfalls)
    assert all(step.kind is StepKind.PGD for step in shortfalls)
    if adaptive:
        assert counts["split_tried"] == pgd > 0
        assert counts["backtrack_probes"] >= pgd
        assert 0 <= counts["split_accepted"] <= counts["split_tried"]
        assert counts["decrease_shortfalls"] == 0
    else:
        assert counts["split_tried"] == counts["backtrack_probes"] == 0


@pytest.mark.parametrize("adaptive", [False, True])
def test_high_precision_step_only_where_an_iterate_takes_it(adaptive,
                                                            monkeypatch):
    """snap_update's gradient step is exact, so projected_step runs only
    where snap_run moves: once per backtracking probe of an adaptive run,
    once per gradient step of a fixed one."""
    calls = 0
    step = snap_solver.projected_step

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(snap_solver, "projected_step", counted)
    poly = Polytope.box((-2, -2), (2, 2)).with_cut((1, 1), Fraction(1, 2))
    eps = Fraction(1, 100)
    trace = snap_run(quartic_objective(), poly, (Fraction(1, 5), Fraction(-3, 2)),
                     eps, eps, 11, 12, max_iter=2000, adaptive=adaptive)
    assert trace.converged
    pgd = trace.counts()["steps"][StepKind.PGD.value]
    assert pgd > 0
    assert calls == (trace.backtrack_probes if adaptive else pgd)


def test_value_only_reads_change_no_trajectory():
    """The solver's value-only reads of HardInstance.objective give the run
    that full evaluations give: the `sospgrid solve --seed 4` start on the
    moderate (2, 2) instance, solved once with the lazy result and once with
    every result read in full."""
    h = build(IterInstance(1, (2, 2)), "moderate")
    rec = h.lipschitz_report()
    poly = h.domain_polytope()
    obj = h.objective(exact=False)
    x0 = solve_start(4, 1)
    lazy, full = (snap_run(o, poly, x0, 1e-2, 1e-2, rec.L1, rec.L2,
                           max_iter=1000, adaptive=True)
                  for o in (obj, lambda p: tuple(obj(p))))
    assert lazy.converged and lazy.counts()["split_tried"] > 0
    assert ([(s.src, s.dst, s.kind) for s in lazy.steps]
            == [(s.src, s.dst, s.kind) for s in full.steps])
    assert lazy.counts() == full.counts()


@pytest.mark.parametrize("table, node", [((2, 2), 1), ((3, 4, 4, 1), 4),
                                         ((2, 3, 4, 4), 3)])
def test_solve_starts_converge_within_1000_iterations(table, node):
    """The starts of `sospgrid solve --seed 1..5` at moderate scale each
    reach an SOSP in the X cell of the instance's solution node."""
    inst = IterInstance(len(table).bit_length() - 1, table)
    h = build(inst, "moderate")
    rec = h.lipschitz_report()
    poly = h.domain_polytope()
    obj = h.objective(exact=False)
    for seed in range(1, 6):
        trace = snap_run(obj, poly, solve_start(seed, 1), 1e-2, 1e-2, rec.L1, rec.L2,
                         max_iter=20000, adaptive=True)
        assert trace.converged
        assert trace.iterations <= 1000
        assert h.decode_scaled(*trace.final_point) == node


def test_split_candidate_reads_a_repeated_probe_once():
    """f = x^2/2 - y on the unit box from (0, 1/2): the flat probes at t = 1
    and t = 2 both project to (0, 1), and the second reuses the first's f,
    so each distinct point is evaluated once."""
    def obj(p):
        x, y = p
        return x * x / 2 - y, (x, Fraction(-1)), ((1, 0), (0, 0))

    calls = []

    def counted(p):
        calls.append(tuple(p))
        return obj(p)

    x = (Fraction(0), Fraction(1, 2))
    f, grad, hess = obj(x)
    _, y = snap_solver.split_candidate(counted, Polytope.box((0, 0), (1, 1)), x,
                                       grad, hess, f, Fraction(1, 1024))
    assert y == (0, 1)
    assert calls == [(0, Fraction(1, 2)), (0, 1)]
