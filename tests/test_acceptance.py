"""Acceptance suite: eleven end-to-end criteria, one test each.

Every test records a PASS/FAIL line for the terminal summary (see
conftest.pytest_terminal_summary) and then asserts the recorded outcome.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction

from click.testing import CliRunner

import test_biquintic
import test_polytope_lattice
import test_snap_solver
from test_golden_dumps import load_script
from sospgrid._precision import PRECISION, hp, hp_sqrt
from sospgrid.biquintic import solve_coefficients
from sospgrid.cli import main as cli_main
from sospgrid.cli import render_svg, solve_start
from sospgrid.color_field import COLOR_ORDER, regime_value
from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance, iter_solve_brute
from sospgrid.localopt_reduction import ReductionInstance
from sospgrid.polytope_lattice import map_to_grid
from sospgrid.snap_solver import snap_run
from sospgrid.stationarity import Polytope, verify_sosp


def _run(checks, acceptance, number, name):
    """Record the outcome of `checks` before asserting it."""
    try:
        checks()
    except Exception:
        acceptance(number, name, False)
        raise
    acceptance(number, name, True)


def _random_valid_table(rng, n):
    size = 2**n
    table = [rng.randrange(1, size + 1) for _ in range(size)]
    table[0] = rng.randrange(2, size + 1)  # C(1) > 1
    return tuple(table)


# --------------------------------------------------------------------------
# 1. Coefficient solve against a dense 36x36 rational oracle.
# --------------------------------------------------------------------------


def test_criterion_01_coefficient_solve(acceptance):
    def checks():
        rng = random.Random(101)
        for _ in range(100):
            V = tuple(tuple(Fraction(rng.randrange(-100, 101),
                                     rng.randrange(1, 11))
                            for _ in range(6)) for _ in range(6))
            patch = solve_coefficients(V)
            assert patch.coeffs == test_biquintic.dense_solve_36(V)

    _run(checks, acceptance, 1, "coefficient solve vs dense oracle")


# --------------------------------------------------------------------------
# 2. Exact continuity of f, grad f, hess f across every shared cell edge.
# --------------------------------------------------------------------------


def _check_all_edges(h):
    N = h.N
    samples = [Fraction(i, 10) for i in range(11)]
    for a in range(N):
        for b in range(N):
            left = h.patch(a, b)
            if a + 1 < N:
                right = h.patch(a + 1, b)
                x = Fraction(a + 1)
                for t in samples:
                    y = b + t
                    assert left.eval(x, y) == right.eval(x, y)
            if b + 1 < N:
                top = h.patch(a, b + 1)
                y = Fraction(b + 1)
                for t in samples:
                    x = a + t
                    assert left.eval(x, y) == top.eval(x, y)


def test_criterion_02_cross_cell_continuity(acceptance, hard_n1):
    def checks():
        _check_all_edges(hard_n1)
        rng = random.Random(202)
        inst = IterInstance(2, _random_valid_table(rng, 2))
        _check_all_edges(build(inst))

    _run(checks, acceptance, 2, "cross-cell continuity")


# --------------------------------------------------------------------------
# 3. Analytic derivatives vs high-precision central differences.
# --------------------------------------------------------------------------


def test_criterion_03_finite_difference_check(acceptance, hard_n1):
    def checks():
        assert PRECISION >= 128
        h = hp(1e-5)
        rng = random.Random(303)
        N = hard_n1.N

        def f_at(x, y):
            return hard_n1.evaluate(x, y, exact=False).f

        for _ in range(100):
            x = hp(Fraction(rng.randrange(10**4, 10**6 - 10**4), 10**6)) * N
            y = hp(Fraction(rng.randrange(10**4, 10**6 - 10**4), 10**6)) * N
            res = hard_n1.evaluate(x, y, exact=False)
            gx = (f_at(x + h, y) - f_at(x - h, y)) / (2 * h)
            gy = (f_at(x, y + h) - f_at(x, y - h)) / (2 * h)
            hxx = (f_at(x + h, y) - 2 * res.f + f_at(x - h, y)) / (h * h)
            hyy = (f_at(x, y + h) - 2 * res.f + f_at(x, y - h)) / (h * h)
            hxy = (f_at(x + h, y + h) - f_at(x + h, y - h)
                   - f_at(x - h, y + h) + f_at(x - h, y - h)) / (4 * h * h)
            scale_g = max(hp(1), abs(res.grad[0]), abs(res.grad[1]))
            assert abs(gx - res.grad[0]) / scale_g <= 1e-6
            assert abs(gy - res.grad[1]) / scale_g <= 1e-6
            scale_h = max(hp(1), *(abs(v) for row in res.hess for v in row))
            assert abs(hxx - res.hess[0][0]) / scale_h <= 1e-6
            assert abs(hyy - res.hess[1][1]) / scale_h <= 1e-6
            assert abs(hxy - res.hess[0][1]) / scale_h <= 1e-6

    _run(checks, acceptance, 3, "finite-difference derivative check")


# --------------------------------------------------------------------------
# 4. Color regime separation at every grid point, exhaustively for n <= 3.
# --------------------------------------------------------------------------


def test_criterion_04_regime_separation(acceptance):
    def checks():
        for n in (1, 2, 3):
            N = 6 * 2**n + 6
            for a in range(N + 1):
                for b in range(N + 1):
                    vals = [regime_value(c, a, b, N) for c in COLOR_ORDER]
                    assert all(u < v for u, v in zip(vals, vals[1:]))

    _run(checks, acceptance, 4, "color regime separation")


# --------------------------------------------------------------------------
# 5. Sampled gradient and Hessian norms against the recorded constants.
# --------------------------------------------------------------------------


def test_criterion_05_lipschitz_samples(acceptance, hard_n1):
    def checks():
        rec = hard_n1.lipschitz_report()
        assert rec.L == Fraction(2**70 * hard_n1.N)
        assert rec.L1 == Fraction(2**73 * hard_n1.N)
        rng = random.Random(505)
        N = hard_n1.N
        L, L1 = hp(rec.L), hp(rec.L1)
        for _ in range(10**4):
            x = hp(Fraction(rng.randrange(1, 10**6), 10**6)) * N
            y = hp(Fraction(rng.randrange(1, 10**6), 10**6)) * N
            res = hard_n1.evaluate(x, y, exact=False)
            gnorm = hp_sqrt(res.grad[0] ** 2 + res.grad[1] ** 2)
            assert gnorm <= L
            a, b, c = res.hess[0][0], res.hess[1][1], res.hess[0][1]
            disc = hp_sqrt((a - b) * (a - b) + 4 * c * c)
            spectral = max(abs(a + b - disc), abs(a + b + disc)) / 2
            assert spectral <= L1

    _run(checks, acceptance, 5, "sampled Lipschitz bounds")


# --------------------------------------------------------------------------
# 6. No-SOSP certification over all cells for three instances; only the
#    solution-encoding X cells may (and must) contain an SOSP.
# --------------------------------------------------------------------------


def test_criterion_06_cell_certification(acceptance, certification_reports):
    def checks():
        # the reports are shared with the pinned certification dump
        assert load_script("dump_certification").INSTANCES == (
            (1, (2, 2)), (2, (3, 4, 4, 1)), (2, (2, 3, 4, 4)))
        for report in certification_reports:
            assert report["passed"]
            x_cells = [c for c in report["cells"] if c["label"] == "X"]
            assert x_cells
            for cell in x_cells:
                assert cell["expected_fail"]
                assert not cell["certificate"]["passed"]
            for cell in report["cells"]:
                if cell["label"] == "Boundary":
                    assert cell["boundary"]["passed"]
                elif cell["label"] != "X":
                    assert cell["certificate"]["passed"]

    _run(checks, acceptance, 6, "cell-by-cell certification")


# --------------------------------------------------------------------------
# 7. The solver finds the encoded solution from five random starts.
# --------------------------------------------------------------------------


def test_criterion_07_solver_finds_solution(acceptance, inst_n1):
    def checks():
        h = build(inst_n1, "moderate")
        rec = h.lipschitz_report()
        poly = h.domain_polytope()
        obj = h.objective(exact=False)
        expected = iter_solve_brute(inst_n1)
        for seed in range(1, 6):
            trace = snap_run(obj, poly, solve_start(seed, 1), 1e-2, 1e-2,
                             rec.L1, rec.L2, max_iter=5000, adaptive=True)
            assert trace.converged
            final = trace.final_point
            rep = verify_sosp(obj, poly, final, 1e-2, 1e-2, rec.L1)
            assert rep.passed
            assert h.decode_scaled(final[0], final[1]) == expected

    _run(checks, acceptance, 7, "solver decodes the encoded solution")


# --------------------------------------------------------------------------
# 8. Per-step solver contracts: guaranteed decrease off max steps; max
#    steps strictly grow the active set without increasing f.
# --------------------------------------------------------------------------


def test_criterion_08_solver_step_contracts(acceptance):
    def checks():
        eps = Fraction(1, 100)
        # saddle started exactly at its stationary point: the negative
        # curvature walk runs into a wall (max-step branch)
        poly = Polytope.box((0, 0), (1, 1))
        obj = test_snap_solver.saddle_objective()
        trace = snap_run(obj, poly, (Fraction(1, 2), Fraction(1, 2)),
                         eps, eps, 4, 1, max_iter=500)
        assert trace.converged
        kinds = test_snap_solver.audit_trace(trace, eps, eps, 4, 1, poly,
                                             (Fraction(1, 2), Fraction(1, 2)))
        assert any(s.max_step for s in trace.steps)
        # quartic started at its interior maximum: interior NC steps only
        poly2 = Polytope.box((-2, -2), (2, 2))
        obj2 = test_snap_solver.quartic_objective()
        trace2 = snap_run(obj2, poly2, (Fraction(0), Fraction(0)),
                          eps, eps, 11, 12, max_iter=2000)
        assert trace2.converged
        kinds2 = test_snap_solver.audit_trace(trace2, eps, eps, 11, 12, poly2,
                                              (Fraction(0), Fraction(0)))
        assert not any(s.max_step for s in trace2.steps)
        from sospgrid.snap_solver import StepKind
        assert StepKind.NEGATIVE_CURVATURE in kinds | kinds2

    _run(checks, acceptance, 8, "solver step contracts")


# --------------------------------------------------------------------------
# 9. Lattice rounding guarantees over 500 random polytopes.
# --------------------------------------------------------------------------


def test_criterion_09_lattice_rounding(acceptance):
    def checks():
        rng = random.Random(909)
        for _ in range(500):
            poly, center = test_polytope_lattice.random_polytope(rng)
            x = test_polytope_lattice.random_feasible_point(rng, poly, center)
            delta = Fraction(1, rng.choice([3, 7, 10, 16]))
            y, cert = map_to_grid(poly, x, delta)
            d = poly.d
            assert poly.contains(y)
            assert cert.bounce_count <= d
            for s in cert.step_dist_sq:
                assert s <= Fraction(d) * delta * delta / 4
            assert test_polytope_lattice.on_lattice(poly, y, delta)

    _run(checks, acceptance, 9, "lattice rounding guarantees")


# --------------------------------------------------------------------------
# 10. Local-search reduction: every non-SOSP grid point strictly improves
#     the potential; fixed points verify as SOSPs.
# --------------------------------------------------------------------------


def test_criterion_10_reduction_improvement(acceptance):
    def checks():
        eps = Fraction(1, 100)
        cases = [
            (test_snap_solver.saddle_objective(),
             Polytope.box((0, 0), (1, 1)), 2, 2, 1),
            (test_snap_solver.quartic_objective(),
             Polytope.box((-2, -2), (2, 2)), 6, 11, 12),
        ]
        rng = random.Random(1010)
        for obj, poly, L, L1, L2 in cases:
            ri = ReductionInstance(obj, poly, eps, eps, L, L1, L2)
            lo, hi = poly.box_bounds
            improved = 0
            for _ in range(1000):
                raw = tuple(l + Fraction(rng.randrange(0, 10**6), 10**6)
                            * (h - l) for l, h in zip(lo, hi))
                x = ri.round_point(raw)
                v = ri.improvement_check(x)
                assert v.kind != "violation"
                if v.improved:
                    improved += 1
                    assert v.p_gx < v.p_x
                else:
                    assert verify_sosp(obj, poly, x, eps, eps, L1).passed
                    assert ri.neighbor(x) == tuple(x)
            assert improved > 0

    _run(checks, acceptance, 10, "reduction improvement property")


# --------------------------------------------------------------------------
# 11. Deterministic rendering with an independently derived glyph census.
# --------------------------------------------------------------------------

# Hand census for n = 1 (N = 18), C = (2, 2), from the affine regime
# ranges: one blue column of 19 points, a 12-point black path, green and
# orange flanks of 64 and 72 points, red background on the rest.
_N1_CENSUS = {"blue": 19, "black": 12, "green": 64, "orange": 72, "red": 194}


def test_criterion_11_render_census(acceptance, inst_n1, n1_file, tmp_path):
    def checks():
        runner = CliRunner()
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (out1, out2):
            res = runner.invoke(cli_main, ["render", "--instance", n1_file,
                                           "--out", str(out)])
            assert res.exit_code == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert data == render_svg(inst_n1).encode()
        counts = Counter(re.findall(r'class="pt-(\w+)"', data.decode()))
        assert dict(counts) == _N1_CENSUS
        assert sum(counts.values()) == 19 * 19

    _run(checks, acceptance, 11, "deterministic render and glyph census")
