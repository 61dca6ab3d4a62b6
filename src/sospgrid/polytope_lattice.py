"""Discrete grids for the membership reduction: box step sizes, per-face
algebraic lattices over a polytope, and the MapToGrid rounding procedure
with its active-set / feasibility / distance guarantees.

The lattice of face I is x_ref + sum_k (delta / nu_k) Z v_k on the face's
stationarity.face_frame, the frame the active set reads too, with the
rational nu_k >= ||v_k|| of _step_ratios; at a vertex it is the vertex.

The lattice is decided in integer ratios (see _precision): a point's
coordinate on v_k over its step, (x.v_k) nu_k / (||v_k||^2 delta), is one
exact ratio (x_ref drops out, being orthogonal to every v_k).  The grid
test (on_lattice) is one divisibility test per coordinate; MapToGrid
rounds each coordinate, half-way ties down, by one floor division, and
normalises only the point it returns.  Its ray shoot moves the point in Fractions, by
the t that max_feasible_step decides by cross-multiplication.

MapToGrid returns a point of its own face's lattice.  A pass rounds on the
frame of the current point's face; when the rounded target is feasible but
holds a row that the frame does not, the next pass starts from the target
and rounds on its smaller face, and an infeasible target bounces to the
first row the ray hits.  Each such pass adds an independent active row, so
at most d + 1 passes run.  A pass moves the point by at most delta/2 along
each of at most d orthogonal basis vectors (delta / nu_k along v_k, nu_k
>= ||v_k||), that is by at most delta sqrt(d) / 2, and a bounce by less.
All passes together move it by at most (d + 1) delta sqrt(d) / 2, which is
at most eps_r for the reduction's delta <= eps_r / (d sqrt(d)) and d >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from sospgrid._precision import to_fraction, to_ratio
from sospgrid.stationarity import (
    FaceFrame,
    Polytope,
    _combine,
    active_set,
    max_feasible_step,
    squared_norm,
)


def _ceil_sqrt_ratio(num: int, den: int) -> tuple[int, int]:
    """ceil(sqrt(num den)) / den >= sqrt(num/den) (num >= 0, den > 0), as the
    ratio (r, den)."""
    if num < 0:
        raise ValueError("negative radicand")
    r = math.isqrt(num * den)
    return r + (r * r < num * den), den


def frac_gcd(values: Sequence[Fraction]) -> Fraction:
    g = Fraction(0)
    for v in values:
        v = abs(to_fraction(v))
        g = v if g == 0 else Fraction(math.gcd(g.numerator * v.denominator,
                                               v.numerator * g.denominator),
                                      g.denominator * v.denominator)
    return g


def box_grid_step(intervals: Sequence[tuple], eps, L_max) -> Fraction:
    """gamma = gamma_GCD / ceil(1000 d^{3/2} L_MAX^3 gamma_GCD / eps^5)."""
    lengths = []
    for a, b in intervals:
        ln = to_fraction(b) - to_fraction(a)
        if ln <= 0:
            raise ValueError("intervals must have positive length")
        lengths.append(ln)
    d = len(lengths)
    eps, L = to_fraction(eps), to_fraction(L_max)
    if eps <= 0:
        raise ValueError("eps must be positive")
    gcd = frac_gcd(lengths)
    q = 1000 * d * L**3 * gcd / eps**5  # still missing the sqrt(d) factor
    # k = max(1, ceil(q * sqrt(d))): rounding sqrt(q^2 d) up to a multiple of
    # 1/den first leaves its ceiling unchanged
    q2d = q * q * d
    r, den = _ceil_sqrt_ratio(q2d.numerator, q2d.denominator)
    k = max(1, -(-r // den))
    return gcd / k


def _step_ratios(frame: FaceFrame, delta: tuple[int, int]) -> list[tuple[int, int]]:
    """The step delta / nu_k of the face's lattice along each basis vector
    v_k, with nu_k = _ceil_sqrt_ratio(||v_k||^2) >= ||v_k||, so that rounding
    a coordinate to a multiple of its step moves the point by at most
    delta/2 along v_k; as exact ratios (num, den > 0), from delta = e/f > 0."""
    e, f = delta
    out = []
    for nsq in frame.norms_sq:
        r, s = _ceil_sqrt_ratio(nsq.numerator, nsq.denominator)  # nu_k = r/s
        out.append((e * s, f * r))
    return out


def _lattice_quotients(frame: FaceFrame, x, steps) -> list[tuple[int, int]]:
    """Each coordinate of x on the frame over its lattice step (_step_ratios),
    (x.v_k) nu_k / (||v_k||^2 delta), as an exact ratio (num, den > 0) of
    the ratios of x.  A point of the face lies on its lattice exactly when
    every quotient is an integer."""
    return [(cn * sd, cd * sn) for (cn, cd), (sn, sd) in zip(frame.coord_ratios(x), steps)]


def on_lattice(frame: FaceFrame, x, delta) -> bool:
    """x, a point of the frame's face, lies on the face's lattice for the
    rational delta > 0: one integer divisibility test per coordinate, no
    gcd."""
    return all(n % d == 0 for n, d
               in _lattice_quotients(frame, x, _step_ratios(frame, to_ratio(delta))))


def _lattice_point(frame: FaceFrame, multiples, steps) -> tuple:
    """x_ref + sum_k m_k step_k v_k, one Fraction per coordinate."""
    steps = [(m * sn, sd) for m, (sn, sd) in zip(multiples, steps)]
    if not frame.indices:  # x_ref = 0 and the unit vectors
        return tuple(Fraction(n, d) for n, d in steps)
    point = []
    for r, column in zip(frame.x_ref, zip(*frame.basis)):
        num, den = _combine(column, steps)
        point.append(Fraction(r.numerator * den + num * r.denominator,
                              r.denominator * den))
    return tuple(point)


@dataclass(frozen=True)
class RoundingCertificate:
    """What map_to_grid did: the squared displacement of each rounding step
    is kept as an exact ratio, and step_dist_sq is its Fraction, normalised
    when first read."""
    x_in: tuple
    y_out: tuple
    bounces: tuple  # (constraint index hit, t_min) per ray-shoot
    step_dist_ratios: tuple  # (num, den > 0) per rounding step

    @property
    def bounce_count(self) -> int:
        return len(self.bounces)

    @cached_property
    def step_dist_sq(self) -> tuple:
        return tuple(Fraction(n, d) for n, d in self.step_dist_ratios)


def _dist_sq(a: tuple, b: tuple) -> tuple[int, int]:
    """||a - b||^2 of two rational points as an exact ratio."""
    return squared_norm((p.numerator * q.denominator - q.numerator * p.denominator,
                         p.denominator * q.denominator) for p, q in zip(a, b))


def map_to_grid(poly: Polytope, x, delta) -> tuple[tuple, RoundingCertificate]:
    """Round x onto the lattice of its face, ray-shooting on exit (exact);
    ValueError if x is infeasible.  Each coordinate on the face's frame is
    rounded to the nearest multiple of its lattice step, half-way ties
    down, by one integer division of its quotient by the step; the ray
    shoot stays in Fractions.  A feasible target on a row that the frame
    lacks is rounded again on its own face (module docstring)."""
    delta = to_ratio(delta)
    if delta[0] <= 0:
        raise ValueError("delta must be positive")
    x0 = tuple(to_fraction(c) for c in x)
    d = poly.d
    cur = x0
    bounces: list[tuple[int, Fraction]] = []
    dists: list[tuple[int, int]] = []
    for _ in range(d + 1):
        frame = active_set(poly, cur)  # ValueError at an infeasible start
        steps = _step_ratios(frame, delta)
        quotients = _lattice_quotients(frame, cur, steps)
        if all(n % m == 0 for n, m in quotients):
            y = cur
            break
        # the nearest integer to n/m, half-way ties down: ceil(n/m - 1/2)
        target = _lattice_point(frame, [-((m - 2 * n) // (2 * m)) for n, m in quotients],
                                steps)
        slacks = poly.slack_ratios(target)
        if all(n >= 0 for n, _ in slacks):
            dists.append(_dist_sq(target, cur))
            if sum(n == 0 for n, _ in slacks) == len(frame.indices):
                y = target
                break
            cur = target  # on a new row: round again on the smaller face
            continue
        # ray shoot toward the ideal target, stop at the first facet hit
        ray = [t - c for t, c in zip(target, cur)]
        t_min, blockers = max_feasible_step(poly, cur, ray)
        if t_min >= 1:
            raise ValueError("ray test found no blocking facet for an infeasible target")
        nxt = tuple(c + t_min * r for c, r in zip(cur, ray))
        dists.append(_dist_sq(nxt, cur))
        bounces.append((blockers[0], t_min))
        cur = nxt
    else:
        raise RuntimeError("rounding did not terminate within d+1 face drops")
    cert = RoundingCertificate(x_in=x0, y_out=tuple(y),
                               bounces=tuple(bounces), step_dist_ratios=tuple(dists))
    return tuple(y), cert


def lattice_cardinality_bound(m: int, d: int, diameter, eps_r) -> Fraction:
    """Sum over face dimensions of C(m, d-d') (D d sqrt(d)/eps_r + 1)^{d'}."""
    D, er = to_fraction(diameter), to_fraction(eps_r)
    if er <= 0:
        raise ValueError("eps_r must be positive")
    root_d, _ = _ceil_sqrt_ratio(d, 1)
    per_axis = D * d * root_d / er + 1
    total = Fraction(0)
    for dprime in range(d + 1):
        total += math.comb(m, d - dprime) * per_axis**dprime
    return total
