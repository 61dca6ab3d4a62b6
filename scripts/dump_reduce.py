"""Write the verdicts of the 120 `reduce` benchmark operations, and the
grid's rounding on the faces of cut polytopes, as sorted-key JSON.

The operations are those of perfbench's `reduce` workload, regenerated
here by the same rule: the reduction of the moderate n = 1 instance
(table (2, 2), eps_G = eps_H = 1/100) over its box and over the box cut by
x + y <= 3/2, and 120 raw points with denominator 10^6 drawn by
random.Random(0), the first 40 uniform on the box and the next 80
rejection-sampled into the cut.  Each raw point is rounded onto the grid
(round_point) and checked (improvement_check).  Each record holds the
polytope, the grid point x, the verdict kind, g(x), p(x) and p(g(x)) as
exact fractions; they are the output's "operations".

Its "lattice" part takes the paths that no benchmark operation takes:
random.Random(0) draws 12 boxes of dimension 2 or 3, each cut by one to
three rows that keep its centre inside.  For eps = 5 and eps = 10 of the
reduction (L = L1 = L2 = 1; delta from 25/432 to 25/4) it draws 4 points
on faces (pushed from an interior point to the boundary by the exact
ratio test, once or twice) and 4 interior points next to a face whose
nearest point of delta Z^d lies outside the polytope, so that
map_to_grid bounces.  A record holds the point x, map_to_grid's y, its
bounces and step_dist_sq, and on_grid at x and at y.

Its "ties" part pins how map_to_grid rounds a half-way tie: random.Random(1)
draws 6 more such polytopes, and on each, for eps = 5, three faces (the
interior, and a point pushed onto a new row once and twice).  On each face
it takes the point half-way between two lattice points along every basis
vector of the face's frame, x_ref + sum_k (floor(c_k / s_k) + 1/2) s_k v_k,
where c_k is the coordinate of the face's point on v_k and s_k = delta /
nu_k its lattice step, nu_k = ceil(sqrt(||v_k||^2 den)) / den.  A vertex
is skipped, and so is a tie that leaves the polytope or holds another row.
A record holds the tie x, map_to_grid's y, its bounces and step_dist_sq.

The records carry no timings, so two checkouts that reduce alike write
identical files, and a change to the reduction is checked with diff (run
this script in both checkouts; earlier versions of it wrote the
operations alone, as a bare list):

    PYTHONPATH=src python scripts/dump_reduce.py before.json
    (switch checkout)
    PYTHONPATH=src python scripts/dump_reduce.py after.json
    diff before.json after.json

Without an output path the JSON goes to stdout.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction

from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance
from sospgrid.localopt_reduction import ReductionInstance
from sospgrid.polytope_lattice import map_to_grid
from sospgrid.stationarity import Polytope, active_set, max_feasible_step

TABLE = (2, 2)
EPS = Fraction(1, 100)
CUT = ((1, 1), Fraction(3, 2))
POINTS_SEED = 0
BOX_POINTS = 40
CUT_POINTS = 80
DENOMINATOR = 10**6
LATTICE_SEED = 0
LATTICE_POLYTOPES = 12
LATTICE_POINTS = 4  # of each kind, per polytope and eps
LATTICE_TRIES = 200
LATTICE_EPS = (Fraction(5), Fraction(10))
TIES_SEED = 1
TIES_POLYTOPES = 6
TIES_EPS = Fraction(5)


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


def cut_polytope(rng) -> tuple[Polytope, list]:
    """A box of dimension 2 or 3 cut by one to three rows, and its centre,
    which every cut keeps inside."""
    d = rng.randrange(2, 4)
    lo = [Fraction(rng.randrange(-4, 1)) for _ in range(d)]
    hi = [a + rng.randrange(1, 5) for a in lo]
    center = [(a + b) / 2 for a, b in zip(lo, hi)]
    poly = Polytope.box(lo, hi)
    for _ in range(rng.randrange(1, 4)):
        row = [rng.randrange(-3, 4) for _ in range(d)]
        row[rng.randrange(d)] = rng.choice([-2, -1, 1, 2])
        rhs = sum(a * c for a, c in zip(row, center)) + Fraction(rng.randrange(1, 8), 3)
        poly = poly.with_cut(row, rhs)
    return poly, center


def push(rng, poly, x) -> tuple:
    """x moved along a random direction of its face onto a new row."""
    frame = active_set(poly, x)
    raw = [rng.randrange(-5, 6) or 1 for _ in range(poly.d)]
    ray = [sum(sum(a * c for a, c in zip(raw, v)) / nsq * v[i]
               for v, nsq in zip(frame.basis, frame.norms_sq)) for i in range(poly.d)]
    if not any(ray):
        return x
    t, _ = max_feasible_step(poly, x, ray)
    return tuple(c + t * r for c, r in zip(x, ray))


def lattice_points(rng, poly, center, delta) -> list:
    """LATTICE_POINTS points on faces, then up to LATTICE_POINTS points next
    to a face whose nearest point of delta Z^d leaves the polytope, from
    LATTICE_TRIES draws."""
    def interior():
        while True:
            x = tuple(c + Fraction(rng.randrange(-DENOMINATOR, DENOMINATOR + 1), DENOMINATOR)
                      for c in center)
            if poly.contains(x):
                return x

    faces = [push(rng, poly, interior()) for _ in range(LATTICE_POINTS)]
    out = [push(rng, poly, x) if rng.random() < 0.5 else x for x in faces]
    near_points = []
    for _ in range(LATTICE_TRIES):
        face, r = push(rng, poly, interior()), rng.randrange(50, 500)
        near = tuple(f + (c - f) / r for f, c in zip(face, center))
        # the nearest multiple of delta to each coordinate, ties down
        target = [-((delta.denominator * c.denominator - 2 * c.numerator * delta.denominator)
                    // (2 * c.denominator * delta.numerator)) * delta for c in near]
        if not poly.active_rows(near) and not poly.contains(target):
            near_points.append(near)
            if len(near_points) == LATTICE_POINTS:
                break
    return out + near_points


def lattice_records() -> list:
    rng = random.Random(LATTICE_SEED)
    records = []
    for k in range(LATTICE_POLYTOPES):
        poly, center = cut_polytope(rng)
        for eps in LATTICE_EPS:
            red = ReductionInstance(None, poly, eps, eps, 1, 1, 1)
            for x in lattice_points(rng, poly, center, red.delta):
                y, cert = map_to_grid(poly, x, red.delta)
                records.append({"polytope": k,
                                "A": [[str(a) for a in row] for row in poly.A],
                                "b": [str(v) for v in poly.b],
                                "delta": str(red.delta),
                                "x": [str(c) for c in x],
                                "y": [str(c) for c in y],
                                "bounces": [[j, str(t)] for j, t in cert.bounces],
                                "step_dist_sq": [str(v) for v in cert.step_dist_sq],
                                "on_grid_x": red.on_grid(x),
                                "on_grid_y": red.on_grid(y)})
    return records


def tie_point(poly, x, delta):
    """The half-way point of x's face lattice next to x (module docstring),
    or None at a vertex and if it leaves the polytope or holds a row that x
    does not."""
    frame = active_set(poly, x)
    if not frame.dim:
        return None
    tie = list(frame.x_ref)
    for v, nsq in zip(frame.basis, frame.norms_sq):
        r = math.isqrt(nsq.numerator * nsq.denominator)
        nu = Fraction(r + (r * r < nsq.numerator * nsq.denominator), nsq.denominator)
        step = delta / nu
        c = sum(a * b for a, b in zip(x, v)) / nsq  # x_ref is orthogonal to v
        m = (math.floor(c / step) + Fraction(1, 2)) * step
        tie = [t + m * a for t, a in zip(tie, v)]
    if not poly.contains(tie) or poly.active_rows(tie) != frame.indices:
        return None
    return tuple(tie)


def tie_records() -> list:
    rng = random.Random(TIES_SEED)
    records = []
    for k in range(TIES_POLYTOPES):
        poly, center = cut_polytope(rng)
        delta = ReductionInstance(None, poly, TIES_EPS, TIES_EPS, 1, 1, 1).delta
        faces = [tuple(center)]
        faces += [push(rng, poly, faces[-1]), push(rng, poly, push(rng, poly, faces[-1]))]
        for x in filter(None, (tie_point(poly, f, delta) for f in faces)):
            y, cert = map_to_grid(poly, x, delta)
            records.append({"polytope": k,
                            "A": [[str(a) for a in row] for row in poly.A],
                            "b": [str(v) for v in poly.b],
                            "delta": str(delta),
                            "x": [str(c) for c in x],
                            "y": [str(c) for c in y],
                            "bounces": [[j, str(t)] for j, t in cert.bounces],
                            "step_dist_sq": [str(v) for v in cert.step_dist_sq]})
    return records


def dump_text() -> str:
    """The JSON text this script writes."""
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
    return json.dumps({"operations": records, "lattice": lattice_records(),
                       "ties": tie_records()}, indent=1, sort_keys=True) + "\n"


def main(argv: list[str]) -> None:
    text = dump_text()
    if len(argv) > 1:
        with open(argv[1], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv)
