"""End-to-end command-line checks via click's test runner."""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest
from click.testing import CliRunner

from sospgrid.cli import main, render_svg
from sospgrid.color_field import ColorField


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


def test_verify_low_precision_refused(runner, n1_file):
    res = runner.invoke(main, ["verify", "--instance", str(n1_file),
                               "-x", "1/2", "-y", "1/2", "--precision", "64"])
    assert res.exit_code == 2


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


def test_classify_requires_both_coordinates(runner, n1_file):
    res = runner.invoke(main, ["classify", "--instance", str(n1_file),
                               "-a", "9"])
    assert res.exit_code == 2


def test_reduce_contract_holds(runner):
    res = runner.invoke(main, ["reduce", "--dim", "2", "--samples", "50"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["violations"] == 0
    assert sum(payload["verdicts"].values()) == 50


def test_solve_finds_encoded_solution(runner, n1_file):
    res = runner.invoke(main, ["solve", "--instance", str(n1_file),
                               "--seed", "1"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["converged"] and payload["sosp_passed"]
    assert payload["decoded_solution"] == 1
    assert payload["solution_valid"] is True


def test_bench_prints_three_timings(runner, n1_file):
    res = runner.invoke(main, ["bench", "--instance", str(n1_file),
                               "--resolution", "5"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert re.fullmatch(r"patch build \(cold-ish cache\): \d+\.\d\d ms",
                        lines[1])
    assert re.fullmatch(r"hp point evaluation: \d+\.\d\d ms", lines[2])
    assert re.fullmatch(r"certify one cell at resolution 5: \d+\.\d\d ms",
                        lines[3])
