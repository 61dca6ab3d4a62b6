"""Write verify_sosp's verdicts at a fixed point set as sorted-key JSON.

The points lie on the n = 1 instance with table (2, 2), at the `unit` and
`moderate` scales, on the domain box [0, hi]^2 and on the box cut by
x + y <= 3/2 hi: interior points, points on each wall and on the slanted
face of the cut, the vertices, and the final point of the `sospgrid solve
--seed 1` start.  Each point is checked at eps_G = eps_H = 1/100 with the
exact derivatives (exact=True) and with the 192-bit ones.  Each record
holds the verdict and what it was decided from: the exact ||g_pi||^2, the
restricted Hessian R and the active rows.  The records carry no timings,
so two checkouts that verify alike write identical files, and a change to
the verifier is checked with diff:

    PYTHONPATH=src python scripts/dump_verify.py before.json
    (switch checkout)
    PYTHONPATH=src python scripts/dump_verify.py after.json
    diff before.json after.json

Without an output path the JSON goes to stdout.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from sospgrid.cli import solve_start
from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance
from sospgrid.snap_solver import snap_run
from sospgrid.stationarity import verify_sosp

TABLE = (2, 2)
SCALES = ("unit", "moderate")
EPS = Fraction(1, 100)
CUT = ((1, 1), Fraction(3, 2))  # right-hand side in units of hi
# (kind, point in units of hi); points outside a polytope are skipped there
POINTS = (
    ("interior", (Fraction(2, 7), Fraction(3, 11))),
    ("interior", (Fraction(1, 3), Fraction(1, 2))),
    ("interior", (Fraction(5, 8), Fraction(3, 16))),
    ("wall", (Fraction(0), Fraction(5, 9))),
    ("wall", (Fraction(1), Fraction(1, 3))),
    ("wall", (Fraction(3, 5), Fraction(0))),
    ("wall", (Fraction(1, 7), Fraction(1))),
    ("slanted", (Fraction(3, 4), Fraction(3, 4))),
    ("slanted", (Fraction(5, 8), Fraction(7, 8))),
    ("vertex", (Fraction(0), Fraction(0))),
    ("vertex", (Fraction(1), Fraction(0))),
    ("vertex", (Fraction(0), Fraction(1))),
    ("vertex", (Fraction(1), Fraction(1))),
    ("vertex", (Fraction(1), Fraction(1, 2))),
    ("vertex", (Fraction(1, 2), Fraction(1))),
)


def solve_final(h) -> tuple:
    """The final point of `sospgrid solve --seed 1` (adaptive, eps 1e-2)."""
    x0 = solve_start(1, h.domain_high)
    rec = h.lipschitz_report()
    trace = snap_run(h.objective(exact=False), h.domain_polytope(), x0, 1e-2, 1e-2,
                     rec.L1, rec.L2, max_iter=20000, adaptive=True)
    return trace.final_point


def dump_text() -> str:
    """The JSON text this script writes."""
    records = []
    for scale in SCALES:
        h = build(IterInstance(1, TABLE), scale)
        hi = h.domain_high
        L1 = h.lipschitz_report().L1
        box = h.domain_polytope()
        cut = box.with_cut(CUT[0], CUT[1] * hi)
        points = [(kind, tuple(c * hi for c in p)) for kind, p in POINTS]
        points.append(("solve", solve_final(h)))
        for name, poly in (("box", box), ("cut", cut)):
            for kind, x in points:
                if not poly.contains(x):
                    continue
                for exact in (True, False):
                    rep = verify_sosp(h.objective(exact=exact), poly, x, EPS, EPS,
                                      L1, exact=exact)
                    records.append({
                        "scale": scale, "polytope": name, "kind": kind,
                        "x": [str(c) for c in x],
                        "derivatives": "exact" if exact else "hp",
                        "pass_first": rep.pass_first,
                        "pass_second": rep.pass_second,
                        "gpi_sq": str(rep.gpi_sq),
                        "R": [[str(v) for v in row] for row in rep.R],
                        "active": list(rep.active_indices)})
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
