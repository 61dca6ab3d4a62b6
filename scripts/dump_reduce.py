"""Write the verdicts of the 120 `reduce` benchmark operations as sorted-key JSON.

The operations are those of perfbench's `reduce` workload, regenerated
here by the same rule: the reduction of the moderate n = 1 instance
(table (2, 2), eps_G = eps_H = 1/100) over its box and over the box cut by
x + y <= 3/2, and 120 raw points with denominator 10^6 drawn by
random.Random(0), the first 40 uniform on the box and the next 80
rejection-sampled into the cut.  Each raw point is rounded onto the grid
(round_point) and checked (improvement_check).  Each record holds the
polytope, the grid point x, the verdict kind, g(x), p(x) and p(g(x)) as
exact fractions.  The records carry no timings, so two checkouts that
reduce alike write identical files, and a change to the reduction is
checked with diff.  The reduction's gradient step now rounds the exact
h(x) = pi_X(x - g/L1) rather than its 192-bit rounding, so these dumps
differ from those of earlier commits only in g_x and p_gx:

    PYTHONPATH=src python scripts/dump_reduce.py before.json
    (switch checkout)
    PYTHONPATH=src python scripts/dump_reduce.py after.json
    diff before.json after.json

Without an output path the JSON goes to stdout.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance
from sospgrid.localopt_reduction import ReductionInstance

TABLE = (2, 2)
EPS = Fraction(1, 100)
CUT = ((1, 1), Fraction(3, 2))
POINTS_SEED = 0
BOX_POINTS = 40
CUT_POINTS = 80
DENOMINATOR = 10**6


def raw_points() -> list:
    """(polytope name, raw point): uniform on the box, rejection-sampled
    into x + y <= 3/2 for the cut polytope."""
    rng = random.Random(POINTS_SEED)

    def draw():
        return (Fraction(rng.randrange(0, DENOMINATOR + 1), DENOMINATOR),
                Fraction(rng.randrange(0, DENOMINATOR + 1), DENOMINATOR))

    out = [("box", draw()) for _ in range(BOX_POINTS)]
    (a1, a2), rhs = CUT
    while len(out) < BOX_POINTS + CUT_POINTS:
        p = draw()
        if a1 * p[0] + a2 * p[1] <= rhs:
            out.append(("cut", p))
    return out


def main(argv: list[str]) -> None:
    h = build(IterInstance(1, TABLE), "moderate")
    rec = h.lipschitz_report()
    box = h.domain_polytope()
    reductions = {name: ReductionInstance(h.objective(exact=False), poly, EPS, EPS,
                                          rec.L, rec.L1, rec.L2)
                  for name, poly in (("box", box), ("cut", box.with_cut(*CUT)))}
    records = []
    for name, raw in raw_points():
        red = reductions[name]
        verdict = red.improvement_check(red.round_point(raw))
        records.append({"polytope": name,
                        "x": [str(c) for c in verdict.x],
                        "kind": verdict.kind,
                        "g_x": [str(c) for c in verdict.g_x],
                        "p_x": str(verdict.p_x),
                        "p_gx": str(verdict.p_gx)})
    text = json.dumps(records, indent=1, sort_keys=True) + "\n"
    if len(argv) > 1:
        with open(argv[1], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv)
