"""Write certification_report for the three instances of acceptance
criterion 6 as sorted-key JSON, one report per instance.

The reports carry no timings, so two checkouts that certify alike write
identical files, and a change to the certifier is checked with diff:

    PYTHONPATH=src python scripts/dump_certification.py before.json
    (switch checkout)
    PYTHONPATH=src python scripts/dump_certification.py after.json
    diff before.json after.json

Without an output path the JSON goes to stdout.  Each instance's wall
time goes to stderr.
"""

from __future__ import annotations

import json
import sys
import time

from sospgrid.box_certifier import certification_report
from sospgrid.iter_problems import IterInstance

# The instances of tests/test_acceptance.py::test_criterion_06_cell_certification.
INSTANCES = ((1, (2, 2)), (2, (3, 4, 4, 1)), (2, (2, 3, 4, 4)))


def dump_text(reports: list) -> str:
    """The JSON text this script writes, from the certification_report of
    each of INSTANCES, in order."""
    return json.dumps([{"table": list(table), "report": report}
                       for (_, table), report in zip(INSTANCES, reports)],
                      indent=1, sort_keys=True) + "\n"


def main(argv: list[str]) -> None:
    reports = []
    for n, table in INSTANCES:
        start = time.perf_counter()
        reports.append(certification_report(IterInstance(n, table)))
        print(f"n = {n}, C = {table}: {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    text = dump_text(reports)
    if len(argv) > 1:
        with open(argv[1], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv)
