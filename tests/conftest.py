"""Shared fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

import json

import pytest

from sospgrid.box_certifier import certification_report
from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance
from test_golden_dumps import load_script

# (criterion number, short name) -> "PASS" | "FAIL"
ACCEPTANCE_RESULTS: dict[tuple[int, str], str] = {}


@pytest.fixture(scope="session")
def inst_n1() -> IterInstance:
    return IterInstance(1, (2, 2))


@pytest.fixture(scope="session")
def inst_n2() -> IterInstance:
    return IterInstance(2, (3, 4, 4, 1))


@pytest.fixture(scope="session")
def hard_n1(inst_n1):
    return build(inst_n1)


@pytest.fixture(scope="session")
def hard_n2(inst_n2):
    return build(inst_n2)


@pytest.fixture(scope="session")
def moderate_n1(inst_n1):
    return build(inst_n1, "moderate")


@pytest.fixture(scope="session")
def certification_reports() -> list:
    """certification_report of each instance of scripts/dump_certification.py,
    criterion 6's three, in order: certified once per session for criterion
    6 and the pinned dump."""
    return [certification_report(IterInstance(n, table))
            for n, table in load_script("dump_certification").INSTANCES]


@pytest.fixture(scope="session")
def n1_file(tmp_path_factory, inst_n1):
    path = tmp_path_factory.mktemp("instances") / "n1.json"
    path.write_text(json.dumps({"n": inst_n1.n, "C": list(inst_n1.table)}))
    return str(path)


@pytest.fixture
def acceptance():
    """Record one acceptance criterion outcome for the terminal summary."""

    def _record(number: int, name: str, passed: bool) -> None:
        ACCEPTANCE_RESULTS[(number, name)] = "PASS" if passed else "FAIL"
        assert passed, f"acceptance criterion {number} ({name}) failed"

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for (number, name), verdict in sorted(ACCEPTANCE_RESULTS.items()):
        terminalreporter.write_line(f"criterion {number:2d} ({name}): {verdict}")
