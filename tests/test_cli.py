"""End-to-end command-line checks via click's test runner."""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner

from sospgrid.box_certifier import BOUNDARY_RESOLUTION, boundary_prox_check
from sospgrid.cli import main, render_svg
from sospgrid.color_field import ColorField
from sospgrid.hard_instance import build
from sospgrid.iter_problems import load_instance
from sospgrid.stationarity import verify_sosp


@pytest.fixture()
def runner():
    return CliRunner()


def test_gen_summary(runner, n1_file):
    res = runner.invoke(main, ["gen", "--instance", str(n1_file)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["n"] == 1 and payload["N"] == 18
    assert payload["columns"] == [1] and payload["solutions"] == [1]
    assert int(payload["lipschitz"]["L"]) == 2**70 * 18
    assert int(payload["lipschitz"]["L2"]) == 2**75 * 18


def test_gen_rejects_bad_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "table": [1, 1]}')  # C(1) = 1 is invalid
    res = runner.invoke(main, ["gen", "--instance", str(bad)])
    assert res.exit_code == 2


def test_verify_rejects_point_outside_domain(runner, n1_file):
    res = runner.invoke(main, ["verify", "--instance", str(n1_file),
                               "-x", "99", "-y", "0"])
    assert res.exit_code == 2


def test_verify_non_sosp_exits_one(runner, n1_file):
    res = runner.invoke(main, ["verify", "--instance", str(n1_file),
                               "--scale", "moderate",
                               "-x", "1/2", "-y", "1/2"])
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["passed"] is False


def test_verify_at_a_corner_reports_no_curvature(runner, n1_file):
    """At a corner of the box both walls are active and the null space is
    {0}: lambda_min is +inf, printed as "inf"."""
    res = runner.invoke(main, ["verify", "--instance", str(n1_file),
                               "-x", "0", "-y", "0"])
    payload = json.loads(res.output)
    assert payload["lambda_min"] == "inf" and payload["active"] == [0, 1]
    assert payload["second_order"] is True


def test_render_is_byte_stable(runner, n1_file, tmp_path, inst_n1):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    r1 = runner.invoke(main, ["render", "--instance", str(n1_file),
                              "--out", str(out1)])
    r2 = runner.invoke(main, ["render", "--instance", str(n1_file),
                              "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data == render_svg(inst_n1).encode()


def test_render_glyph_census(runner, n1_file, inst_n1, tmp_path):
    out = tmp_path / "grid.svg"
    runner.invoke(main, ["render", "--instance", str(n1_file),
                         "--out", str(out)])
    svg = out.read_text()
    counts = Counter(re.findall(r'class="pt-(\w+)"', svg))
    field = ColorField(inst_n1)
    expected = Counter(field.assignment(a, b).color.value
                       for a in range(19) for b in range(19))
    assert counts == expected
    assert counts == {"blue": 19, "black": 12, "green": 64,
                      "orange": 72, "red": 194}


def test_classify_counts(runner, n1_file):
    res = runner.invoke(main, ["classify", "--instance", str(n1_file)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["N"] == 18
    assert payload["counts"]["X"] == 3
    assert payload["counts"]["Boundary"] == 4 * 17
    assert sum(payload["counts"].values()) == 18 * 18


def test_classify_single_cell_with_certificate(runner, n1_file):
    res = runner.invoke(main, ["classify", "--instance", str(n1_file),
                               "-a", "9", "-b", "9", "--certify",
                               "--resolution", "11"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["cell"] == [9, 9]
    assert payload["certificate"]["passed"] is True


def test_classify_single_boundary_cell_prints_the_report_entry(runner, n1_file):
    """A boundary cell is certified at the report's BOUNDARY_RESOLUTION,
    whatever --resolution says."""
    res = runner.invoke(main, ["classify", "--instance", str(n1_file),
                               "-a", "0", "-b", "9", "--certify",
                               "--resolution", "11"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["label"] == "Boundary"
    h = build(load_instance(n1_file))
    expected = boundary_prox_check(h, [(0, 9)], BOUNDARY_RESOLUTION)[0]
    assert payload["boundary"] == json.loads(json.dumps(expected.to_json()))


def test_classify_requires_both_coordinates(runner, n1_file):
    res = runner.invoke(main, ["classify", "--instance", str(n1_file),
                               "-a", "9"])
    assert res.exit_code == 2


@pytest.mark.parametrize("cell", [("18", "0"), ("0", "18"), ("-1", "9")])
@pytest.mark.parametrize("certify", [False, True])
def test_classify_rejects_a_cell_outside_the_grid(runner, n1_file, cell, certify):
    """The n = 1 instance has cells 0-17 on each axis."""
    args = ["classify", "--instance", str(n1_file), "-a", cell[0], "-b", cell[1]]
    res = runner.invoke(main, args + ["--certify"] * certify)
    assert res.exit_code == 2
    assert "outside [0, 17]^2" in res.output


@pytest.mark.parametrize("resolution", ["0", "-1"])
@pytest.mark.parametrize("cell", [(), ("-a", "10", "-b", "10"),
                                  ("-a", "5", "-b", "5")])
def test_classify_resolution_below_one_is_a_usage_error(runner, n1_file, cell,
                                                        resolution):
    """A certificate samples at least one point per side: --resolution 0
    or -1 is refused before any cell is certified."""
    args = ["classify", "--instance", str(n1_file), *cell, "--certify",
            "--resolution", resolution]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "--resolution" in res.output


_EPS_COMMANDS = {
    "verify": lambda path: ["verify", "--instance", str(path), "-x", "1",
                            "-y", "1"],
    "solve": lambda path: ["solve", "--instance", str(path), "--max-iter", "1"],
    "reduce": lambda path: ["reduce", "--samples", "1"],
}


@pytest.mark.parametrize("command, option, value", [
    ("verify", "--eps-g", "nan"), ("verify", "--eps-h", "nan"),
    ("verify", "--eps-g", "inf"), ("verify", "--eps-g", "-1"),
    ("verify", "--eps-h", "-inf"),
    ("solve", "--eps-g", "0"), ("solve", "--eps-h", "nan"),
    ("solve", "--eps-h", "inf"), ("solve", "--eps-g", "-1e-2"),
    ("reduce", "--eps-g", "0"), ("reduce", "--eps-g", "inf"),
    ("reduce", "--eps-h", "nan"), ("reduce", "--eps-h", "-1"),
    ("verify", "--eps-g", "1/0"), ("solve", "--eps-h", "abc"),
])
def test_invalid_eps_is_a_usage_error(runner, n1_file, command, option, value):
    """eps must be a rational number, non-negative, and positive for the
    commands that step, whose line search and grid need eps > 0."""
    res = runner.invoke(main, _EPS_COMMANDS[command](n1_file) + [option, value])
    assert res.exit_code == 2, res.output
    assert option in res.output


@pytest.mark.parametrize("command", ["verify", "solve", "reduce"])
def test_eps_takes_a_fraction(runner, n1_file, command):
    """eps is read exactly, as -x and -y are: p/q is a number, not an error."""
    res = runner.invoke(main, _EPS_COMMANDS[command](n1_file)
                        + ["--eps-g", "1/100", "--eps-h", "1/100"])
    assert res.exit_code in (0, 1), res.output
    payload = json.loads(res.output)
    if command == "verify":
        assert payload["eps_g"] == payload["eps_h"] == 0.01
    if command == "reduce":  # eps^4 / (100 d L^2) with eps exactly 1/100
        assert payload["weight"] == "1/20000000000"


def test_verify_accepts_zero_eps(runner, n1_file):
    """eps = 0 asks for an exact stationary point: a verdict, not a usage
    error."""
    res = runner.invoke(main, ["verify", "--instance", str(n1_file),
                               "-x", "1", "-y", "1", "--eps-g", "0", "--eps-h", "0"])
    assert res.exit_code in (0, 1)
    assert json.loads(res.output)["eps_g"] == 0


@pytest.mark.parametrize("text", ["inf", "nan", "1/0", "0x10"])
def test_verify_rejects_a_number_that_is_not_rational(runner, n1_file, text):
    res = runner.invoke(main, ["verify", "--instance", str(n1_file),
                               "-x", text, "-y", "1"])
    assert res.exit_code == 2
    assert "cannot parse number" in res.output


def test_reduce_contract_holds(runner):
    res = runner.invoke(main, ["reduce", "--dim", "2", "--samples", "50"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["violations"] == 0
    assert sum(payload["verdicts"].values()) == 50


def test_reduce_dim_1_contract_holds(runner):
    res = runner.invoke(main, ["reduce", "--dim", "1", "--samples", "20"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["dim"] == 1 and payload["violations"] == 0


def test_reduce_refuses_dim_3(runner):
    """Curvature is computed on null spaces of dimension <= 2, and the
    interior of a 3-D box has a 3-D one: a usage error, not a crash."""
    res = runner.invoke(main, ["reduce", "--dim", "3", "--samples", "5"])
    assert res.exit_code == 2
    assert "--dim" in res.output


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_reduce_samples_below_one_is_a_usage_error(runner, samples):
    """A run with no samples checks nothing, so it may not pass with empty
    verdicts and exit 0."""
    res = runner.invoke(main, ["reduce", "--samples", samples])
    assert res.exit_code == 2, res.output
    assert "--samples" in res.output


def test_solve_finds_encoded_solution(runner, n1_file):
    res = runner.invoke(main, ["solve", "--instance", str(n1_file),
                               "--seed", "1"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["converged"] and payload["sosp_passed"]
    assert payload["decoded_solution"] == 1
    assert payload["solution_valid"] is True
    assert sum(payload["steps"].values()) == payload["iterations"]
    assert payload["split_accepted"] <= payload["split_tried"]
    assert payload["objective_calls"] > payload["iterations"]


@pytest.mark.parametrize("flag", ["--fixed", "--adaptive"])
def test_solve_has_no_step_switch(runner, n1_file, flag):
    """solve always runs the adaptive step: the fixed 1/L1 step ends
    unconverged at the iteration limit on the n = 1 instance."""
    res = runner.invoke(main, ["solve", "--instance", str(n1_file), flag])
    assert res.exit_code == 2


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_solve_max_iter_below_one_is_a_usage_error(runner, n1_file, max_iter):
    """The solver takes at least one step, so that the trace has a final
    point to decode."""
    res = runner.invoke(main, ["solve", "--instance", str(n1_file),
                               "--max-iter", max_iter])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "--max-iter" in res.output


def test_solve_final_point_verifies_exactly(runner, n1_file):
    """solve prints its final point as exact fractions, and verify accepts
    that point on the same instance and scale."""
    res = runner.invoke(main, ["solve", "--instance", str(n1_file), "--seed", "1"])
    assert res.exit_code == 0
    x, y = json.loads(res.output)["final"]
    assert all(re.fullmatch(r"-?\d+(/\d+)?", c) for c in (x, y))
    res = runner.invoke(main, ["verify", "--instance", str(n1_file),
                               "--scale", "moderate",
                               "--eps-g", "1e-2", "--eps-h", "1e-2",
                               "-x", x, "-y", y])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["passed"] is True and payload["decoded_solution"] == 1


@pytest.fixture(scope="module")
def solve_final(n1_file):
    """The final point of `solve --seed 1` (moderate scale)."""
    res = CliRunner().invoke(main, ["solve", "--instance", str(n1_file),
                                    "--seed", "1"])
    assert res.exit_code == 0, res.output
    return tuple(Fraction(c) for c in json.loads(res.output)["final"])


@pytest.mark.parametrize("scale", ["unit", "moderate"])
@pytest.mark.parametrize("where", ["corner", "wall", "interior", "solve"])
def test_verify_decides_at_the_exact_derivatives(runner, n1_file, inst_n1,
                                                 solve_final, scale, where):
    """verify has one path: its verdict and exit code are those of
    verify_sosp on the exact objective with exact=True."""
    h = build(inst_n1, scale)
    at = {"corner": (0, 0), "wall": (0, Fraction(5, 9)),
          "interior": (Fraction(2, 7), Fraction(3, 11)), "solve": solve_final}
    x, y = (h.domain_high * c for c in at[where])
    eps = Fraction(1, 100)
    want = verify_sosp(h.objective(exact=True), h.domain_polytope(), (x, y),
                       eps, eps, h.lipschitz_report().L1, exact=True)
    res = runner.invoke(main, ["verify", "--instance", str(n1_file),
                               "--scale", scale, "--eps-g", "1/100",
                               "--eps-h", "1/100", "-x", str(x), "-y", str(y)])
    payload = json.loads(res.output)
    assert (payload["passed"], payload["first_order"], payload["second_order"]) == (
        want.passed, want.pass_first, want.pass_second)
    assert res.exit_code == (0 if want.passed else 1)
