"""Tests of the benchmark itself: seeded inputs, checks, clock, tracer.

    python3 -m pytest -q perfbench

The checks are fed deliberately wrong outputs; sospgrid is not modified.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from sospgrid import biquintic, box_certifier, hard_instance, snap_solver  # noqa: E402
from sospgrid.localopt_reduction import Verdict  # noqa: E402


def small_large_n(seed):
    w = workloads.LargeN(seed)
    w.NS = (5, 6)  # the inputs are built the same way at n = 16..18
    w.setup()
    return w


@pytest.fixture(scope="module")
def certify():
    w = workloads.Certify(1)
    w.setup()
    return w


@pytest.fixture(scope="module")
def reduce_wl():
    w = workloads.Reduce(1)
    w.setup()
    return w


# ---- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("cls", [workloads.Certify, workloads.Solve, workloads.Reduce])
def test_fixed_rounds_do_not_depend_on_the_seed(cls):
    # Whole rounds of the same operations: the failed share cannot move.
    a, b = cls(1), cls(2)
    a.setup()
    b.setup()
    assert a.inputs(0) == b.inputs(0) == a.inputs(1)


def test_large_n_inputs_follow_seed_and_round():
    a, b, c = small_large_n(3), small_large_n(3), small_large_n(4)
    assert a.inputs(0) == b.inputs(0)
    assert a.inputs(1) == b.inputs(1)
    assert a.inputs(0) != a.inputs(1)
    assert a.inputs(0) != c.inputs(0)
    per_case = 2 + workloads.LargeN.UNIFORM
    assert len(a.inputs(0)) == per_case * len(a.NS)


def test_hashed_map_is_a_valid_iter_instance():
    for n in (4, 16):
        C = workloads.hashed_map(9, n)
        assert C(1) > 1
        assert all(1 <= C(v) <= 1 << n for v in range(1, 200))
        assert [C(v) for v in range(1, 50)] == [workloads.hashed_map(9, n)(v)
                                                 for v in range(1, 50)]
    assert workloads.hashed_map(9, 16)(5) != workloads.hashed_map(10, 16)(5)


def test_certify_round_covers_every_cell_kind(certify):
    kinds = [box_certifier.classify_cell(certify.cases[i][1].field, *cell).kind
             for i, cell in certify.inputs(0)]
    assert kinds.count("X") == 1
    assert "Boundary" in kinds
    assert len(set(kinds) - {"X", "Boundary"}) >= 4


# ---- independent computations --------------------------------------------------


def test_iter_solution_predicate():
    C = checks.table_map((2, 2))
    assert checks.is_iter_solution(C, 2, 1)  # C(1) = 2 > 1 and C(2) = 2
    assert not checks.is_iter_solution(C, 2, 2)  # fixed point
    assert not checks.is_iter_solution(C, 2, None)
    D = checks.table_map((3, 4, 4, 1))
    assert [v for v in range(1, 5) if checks.is_iter_solution(D, 4, v)] == [4]
    E = checks.table_map((2, 3, 4, 4))
    assert [v for v in range(1, 5) if checks.is_iter_solution(E, 4, v)] == [3]
    assert checks.x_cells(C, 1) == {(3, 8), (4, 8), (5, 8)}


def test_expected_decode():
    C = checks.table_map((2, 2))
    N = checks.grid_size(1)
    assert checks.expected_decode(C, 1, (Fraction(9, 2) / N, Fraction(17, 2) / N)) == 1
    assert checks.expected_decode(C, 1, (Fraction(9, 2) / N, Fraction(19, 2) / N)) is None
    assert checks.expected_decode(C, 1, (Fraction(1), Fraction(1))) is None


def test_dim_null_on_the_unit_square():
    A = ((-1, 0), (0, -1), (1, 0), (0, 1))
    b = (0, 0, 1, 1)
    assert checks.dim_null(A, b, (Fraction(1, 2), Fraction(1, 2))) == 2
    assert checks.dim_null(A, b, (Fraction(0), Fraction(1, 2))) == 1
    assert checks.dim_null(A, b, (Fraction(1), Fraction(0))) == 0
    assert checks.feasible(A, b, (Fraction(1), Fraction(0)))
    assert not checks.feasible(A, b, (Fraction(1), Fraction(-1, 7)))


# ---- the checks reject wrong outputs ---------------------------------------------


def test_certify_rejects_a_passing_x_cell(certify):
    certify.check((0, (4, 8)), ("X", False, 0, True))
    with pytest.raises(CheckError):
        certify.check((0, (4, 8)), ("X", True, 0, True))


def test_certify_rejects_wrong_labels_and_failed_cells(certify):
    certify.check((0, (7, 7)), ("G1", True, 0, False))
    with pytest.raises(CheckError):
        certify.check((0, (7, 7)), ("G1", False, 0, False))
    with pytest.raises(CheckError):
        certify.check((0, (7, 7)), ("X", False, 0, False))
    with pytest.raises(CheckError):
        certify.check((0, (0, 7)), ("Boundary", False, 0, False))
    with pytest.raises(CheckError):
        certify.check((1, (4, 8)), ("X", False, 0, False))  # C = (2, 1): k = 2


def test_certify_setup_rejects_a_wrong_report():
    expected = checks.x_cells(checks.table_map((2, 2)), 1)
    labels = {(a, b): "X" if (a, b) in expected else "G1"
              for a in range(18) for b in range(18)}
    checks.check_certify_setup(1, labels, expected)
    with pytest.raises(CheckError):
        checks.check_certify_setup(1, {**labels, (4, 8): "G1"}, expected)
    with pytest.raises(CheckError):
        checks.check_certify_setup(1, {k: v for k, v in labels.items() if k != (0, 0)},
                                   expected)


def _trace(start, final, converged=True):
    step = snap_solver.SnapStep(snap_solver.StepKind.TERMINAL, start, final, 0)
    return snap_solver.SnapTrace(steps=[step], iterations=1, converged=converged)


def test_solve_rejects_a_decode_to_a_non_solution():
    w = workloads.Solve(1)
    w.setup()
    h = w.cases[0][0]
    x0 = w.start(1)
    # The point stays where it started: no SOSP, and it decodes to None.
    with pytest.raises(CheckError):
        w.check((0, 1), (_trace(x0, x0), h.decode_scaled(*x0)))
    with pytest.raises(CheckError):
        checks.check_solve(True, 2, checks.is_iter_solution(
            checks.table_map((2, 2)), 2, 2), Fraction(1), Fraction(0), True)
    with pytest.raises(CheckError):
        checks.check_solve(True, 1, True, Fraction(0), Fraction(1), True)
    with pytest.raises(CheckError):
        checks.check_solve(False, 1, True, Fraction(1), Fraction(0), True)
    with pytest.raises(CheckError):
        checks.check_solve(True, 1, True, Fraction(1), Fraction(0), False)
    checks.check_solve(True, 1, True, Fraction(1), Fraction(0), True)


def test_reduce_rejects_a_rising_potential(reduce_wl):
    red = reduce_wl.reductions[0]
    pts = [red.round_point(raw) for k, raw in reduce_wl.raw_points()[:6] if k == 0]
    lo, hi = sorted(pts[:2], key=lambda x: reduce_wl.potential(red, x))
    assert reduce_wl.potential(red, lo) < reduce_wl.potential(red, hi)
    down = Verdict("improved-C1", hi, lo, 0, 0)
    up = Verdict("improved-C1", lo, hi, 0, 0)
    assert reduce_wl.check((0, None), (hi, down)) is True
    with pytest.raises(CheckError):
        reduce_wl.check((0, None), (lo, up))
    assert reduce_wl.check((0, None), (lo, Verdict("violation", lo, hi, 0, 0))) is False


def test_reduce_rejects_off_grid_points_and_false_solutions(reduce_wl):
    red = reduce_wl.reductions[0]
    x = red.round_point(reduce_wl.raw_points()[0][1])
    off = (x[0] + red.gamma / 2, x[1])
    with pytest.raises(CheckError):
        reduce_wl.check((0, None), (off, Verdict("improved-C1", off, x, 0, 0)))
    # x is not in an X cell, so a "solution" verdict there cannot decode.
    with pytest.raises(CheckError):
        reduce_wl.check((0, None), (x, Verdict("solution", x, x, 0, 0)))
    with pytest.raises(CheckError):
        checks.check_reduce("improved-C1", True, Fraction(1), Fraction(1), False)


def test_large_n_rejects_wrong_decodes_and_verdicts():
    w = small_large_n(1)
    inputs = w.inputs(0)
    sosp, in_x, uniform = inputs[0], inputs[1], inputs[2]
    for inp in (sosp, in_x, uniform):
        w.check(inp, w.run(inp))
    assert w.run(sosp)[0]  # the Newton point is an SOSP
    passed, _, k = w.run(sosp)
    with pytest.raises(CheckError):  # the verdicts disagree
        w.check(sosp, (True, False, k))
    with pytest.raises(CheckError):  # an X-cell point decoded to nothing
        w.check(in_x, (False, False, None))
    with pytest.raises(CheckError):  # a point outside every X cell decoded
        w.check(uniform, (False, False, k))
    n, C = w.cases[0][:2]
    non_solution = next(v for v in range(1, 1 << n) if not checks.is_iter_solution(C, 1 << n, v))
    with pytest.raises(CheckError):  # an SOSP decoded to a non-solution
        checks.check_large_point(True, True, non_solution, non_solution, False)


# ---- clock --------------------------------------------------------------------


def test_clock_rescales_by_the_samples_near_each_interval(monkeypatch):
    ref = refclock.REF_SECONDS
    speeds = iter([2 * ref, 2 * ref, 4 * ref, 4 * ref])  # entry, two bodies, exit

    def sample():
        time.sleep(0.02)
        return next(speeds)

    monkeypatch.setattr(refclock, "reference_sample", sample)
    monkeypatch.setattr(refclock, "REF_INTERVAL", 1000.0)  # no timer sample
    raw, store = [], []
    with refclock.Clock() as clock:
        for _ in range(2):
            with clock.timed(raw, store):
                clock.sample()
                time.sleep(0.03)
        assert store == [None, None]  # rescaled once the clock stops
    assert all(0.03 <= t < 0.05 for t in raw)  # the samples taken are left out
    # Every sample is near both intervals; their median is 3 * REF_SECONDS.
    assert store == pytest.approx([t / 3 for t in raw])


# ---- tracer -------------------------------------------------------------------


def test_tracer_wraps_aliases_and_restores_them():
    original = biquintic.patch_from_corners
    assert hard_instance.patch_from_corners is original
    tracer = spans.Tracer()
    with tracer:
        assert hard_instance.patch_from_corners is not original
        w = workloads.LargeN(1)
        w.NS = (4,)
        tracer.active = True
        w.setup()  # node_sets: 2^n + solutions oracle calls
        h = w.cases[0][2]
        h.evaluate(Fraction(1, 3), Fraction(1, 5), exact=False)
        h.evaluate(Fraction(1, 3), Fraction(1, 5), exact=True)
        tracer.active = False
        h.evaluate(Fraction(1, 2), Fraction(1, 5), exact=True)  # not recorded
    assert hard_instance.patch_from_corners is original
    summary, counts, recorded = tracer.take()
    assert summary.calls["hard_instance.evaluate"] == 2
    assert summary.calls["biquintic.eval_hp"] == 1
    assert summary.calls["biquintic.eval_exact"] == 1
    assert summary.child_counts[("hard_instance.patch", "biquintic.patch_from_corners")] == 1
    assert summary.calls["hard_instance.patch"] == 2  # the second call hits the cache
    assert counts["iter_problems.C"] >= 1 << 4
    assert summary.calls["color_field.node_sets"] == 1
    total = sum(end - start for _, start, end, parent in recorded if parent < 0)
    assert 0 < sum(summary.self_time.values()) <= total + 1e-9
