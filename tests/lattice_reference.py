"""Reference grid for the tests: the Fraction formulas.

Every number is normalised to a Fraction, as polytope_lattice and
localopt_reduction computed the grid before they decided it in integer
ratios: a point's coordinates on a face frame are those of x - x_ref, each is
rounded to the nearest multiple of its lattice step by Fraction division,
the grid tests are Fraction remainders, the box floor is math.floor of a
Fraction, and the ray test compares Fraction slacks over a.d.  It shares the
polytope's face frames and the active set with the package, and none of the
rounding, grid or ray-test arithmetic, so that a test comparing the two
checks the integer kernel against something else.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sospgrid._precision import to_fraction
from sospgrid.stationarity import active_set


def ceil_sqrt(q: Fraction) -> Fraction:
    """ceil(sqrt(num den)) / den for q = num/den >= 0: nu >= sqrt(q)."""
    num, den = q.numerator, q.denominator
    r = math.isqrt(num * den)
    if r * r < num * den:
        r += 1
    return Fraction(r, den)


def coords(frame, x) -> list[Fraction]:
    """Coordinates of x - x_ref along the frame's basis vectors."""
    diff = [to_fraction(c) - r for c, r in zip(x, frame.x_ref)]
    return [sum(a * c for a, c in zip(diff, v)) / nsq
            for v, nsq in zip(frame.basis, frame.norms_sq)]


def max_feasible_step(poly, x, d):
    """(largest t with x + t d feasible, the blocking rows in index order);
    ValueError if no row bounds the ray."""
    x = [to_fraction(c) for c in x]
    d = [to_fraction(c) for c in d]
    t_max = None
    blockers: list[int] = []
    for j, (row, bj) in enumerate(zip(poly.A, poly.b)):
        adot = sum(a * c for a, c in zip(row, d))
        if adot <= 0:
            continue
        t = (bj - sum(a * c for a, c in zip(row, x))) / adot
        if t_max is None or t < t_max:
            t_max, blockers = t, [j]
        elif t == t_max:
            blockers.append(j)
    if t_max is None:
        raise ValueError("direction is unbounded within the polytope")
    return t_max, tuple(blockers)


def lattice_steps(frame, delta) -> list[Fraction]:
    return [to_fraction(delta) / ceil_sqrt(nsq) for nsq in frame.norms_sq]


def round_to_multiple(c: Fraction, step: Fraction) -> Fraction:
    """Nearest multiple of step; half-way ties round down."""
    q = c / step
    m = (2 * q.numerator + q.denominator) // (2 * q.denominator)
    if Fraction(2 * m - 1, 2) == q:
        m -= 1
    return m * step


def map_to_grid(poly, x, delta) -> tuple[tuple, tuple, tuple]:
    """(y, bounces, step_dist_sq) of MapToGrid."""
    delta = to_fraction(delta)
    cur = tuple(to_fraction(c) for c in x)
    bounces, dists = [], []
    for _ in range(poly.d + 1):
        frame = active_set(poly, cur)
        target = list(frame.x_ref)
        for coeff, v, step in zip(coords(frame, cur), frame.basis,
                                  lattice_steps(frame, delta)):
            rounded = round_to_multiple(coeff, step)
            for i in range(poly.d):
                target[i] += rounded * v[i]
        target = tuple(target)
        if target == cur:
            return cur, tuple(bounces), tuple(dists)
        if poly.contains(target):
            dists.append(sum((a - b) * (a - b) for a, b in zip(target, cur)))
            if len(poly.active_rows(target)) == len(frame.indices):
                return target, tuple(bounces), tuple(dists)
            cur = target  # a new row is active: round again on its face
            continue
        ray = [t - c for t, c in zip(target, cur)]
        t_min, blockers = max_feasible_step(poly, cur, ray)
        nxt = tuple(c + t_min * r for c, r in zip(cur, ray))
        dists.append(sum((a - b) * (a - b) for a, b in zip(nxt, cur)))
        bounces.append((blockers[0], t_min))
        cur = nxt
    raise AssertionError("rounding did not terminate within d+1 face drops")


def round_point(ri, x) -> tuple:
    """lo + floor((c - lo) / gamma) gamma on a box, else MapToGrid's y."""
    if ri.gamma is None:
        return map_to_grid(ri.poly, x, ri.delta)[0]
    lo, _ = ri.poly.box_bounds
    return tuple(a + math.floor((to_fraction(c) - a) / ri.gamma) * ri.gamma
                 for c, a in zip(x, lo))


def on_grid(ri, x) -> bool:
    """(c - lo) % gamma == 0 on a box, else coeff % step == 0 on the face
    frame of the active set at x."""
    if ri.gamma is not None:
        lo, _ = ri.poly.box_bounds
        return all((to_fraction(c) - a) % ri.gamma == 0 for c, a in zip(x, lo))
    frame = active_set(ri.poly, x)
    return all(coeff % step == 0 for coeff, step
               in zip(coords(frame, x), lattice_steps(frame, ri.delta)))
