"""Write the outcome of the 15 `sospgrid solve` starts as sorted-key JSON.

The starts are those of `sospgrid solve --scale moderate --seed s` for
s = 1..5 on the three instances of acceptance criterion 6, with the
command's defaults (adaptive, eps_G = eps_H = 1e-2, max_iter 20000).  Each
record holds the table, the seed, the iteration count, the final point as
exact fractions, the decoded node, SnapTrace.counts() and a SHA-256 of
the whole trajectory (see steps_sha256), so that a change to any
intermediate step shows even where the end point does not.  The records
carry no timings, so two checkouts that solve alike write identical files,
and a change to the solver or the objective is checked with diff:

    PYTHONPATH=src python scripts/dump_solve.py before.json
    (switch checkout)
    PYTHONPATH=src python scripts/dump_solve.py after.json
    diff before.json after.json

Without an output path the JSON goes to stdout.
"""

from __future__ import annotations

import hashlib
import json
import sys

from sospgrid._precision import to_fraction
from sospgrid.cli import solve_start
from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance
from sospgrid.snap_solver import snap_run

# The instances of tests/test_acceptance.py::test_criterion_06_cell_certification.
INSTANCES = ((1, (2, 2)), (2, (3, 4, 4, 1)), (2, (2, 3, 4, 4)))
SEEDS = (1, 2, 3, 4, 5)
EPS = 1e-2
MAX_ITER = 20000


def steps_sha256(steps) -> str:
    """SHA-256 over every SnapStep, one JSON line each: the kind, src and
    dst as exact fractions, f_decrease as an exact fraction, max_step,
    new_active and decrease_shortfall."""
    digest = hashlib.sha256()
    for step in steps:
        line = [step.kind.value, [str(to_fraction(c)) for c in step.src],
                [str(to_fraction(c)) for c in step.dst], str(to_fraction(step.f_decrease)),
                step.max_step, list(step.new_active), step.decrease_shortfall]
        digest.update(json.dumps(line).encode() + b"\n")
    return digest.hexdigest()


def solve_record(h, table, seed: int) -> dict:
    rec = h.lipschitz_report()
    trace = snap_run(h.objective(exact=False), h.domain_polytope(),
                     solve_start(seed, h.domain_high), EPS, EPS, rec.L1, rec.L2,
                     max_iter=MAX_ITER, adaptive=True)
    final = trace.final_point
    return {"table": list(table), "seed": seed,
            "iterations": trace.iterations,
            "final": [str(c) for c in final],
            "decoded": h.decode_scaled(*final),
            "counts": trace.counts(),
            "steps_sha256": steps_sha256(trace.steps)}


def dump_text() -> str:
    """The JSON text this script writes."""
    records = []
    for n, table in INSTANCES:
        h = build(IterInstance(n, table), "moderate")
        records.extend(solve_record(h, table, seed) for seed in SEEDS)
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def main(argv: list[str]) -> None:
    text = dump_text()
    if len(argv) > 1:
        with open(argv[1], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv)
