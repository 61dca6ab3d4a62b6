"""Discrete grids for the membership reduction: box step sizes, per-face
algebraic lattices over a polytope, and the MapToGrid rounding procedure
with its active-set / feasibility / distance guarantees.

The lattice of face I is x_ref + sum_k (delta / nu_k) Z v_k on the face's
stationarity.face_frame, the frame the active set reads too, with the
rational nu_k >= ||v_k|| of lattice_steps; at a vertex it is the vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from sospgrid._precision import to_fraction
from sospgrid.stationarity import FaceFrame, Polytope, active_set, max_feasible_step


def _ceil_sqrt_rational(q: Fraction) -> Fraction:
    """Smallest 'nice' rational upper bound on sqrt(q): ceil-to-1/den grid."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    num, den = q.numerator, q.denominator
    # sqrt(num/den) = sqrt(num*den)/den; round the integer sqrt up
    r = math.isqrt(num * den)
    if r * r < num * den:
        r += 1
    return Fraction(r, den)


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
    k = max(1, math.ceil(_ceil_sqrt_rational(q * q * d)))
    return gcd / k


def lattice_steps(frame: FaceFrame, delta: Fraction) -> tuple[Fraction, ...]:
    """The step delta / nu_k of the face's lattice along each basis vector
    v_k, with nu_k = _ceil_sqrt_rational(||v_k||^2) >= ||v_k||, so that
    rounding a coordinate to a multiple of its step moves the point by at
    most delta/2 along v_k."""
    return tuple(delta / _ceil_sqrt_rational(nsq) for nsq in frame.norms_sq)


@dataclass(frozen=True)
class RoundingCertificate:
    x_in: tuple
    y_out: tuple
    bounces: tuple  # (constraint index hit, t_min) per ray-shoot
    step_dist_sq: tuple  # squared displacement of each rounding step

    @property
    def bounce_count(self) -> int:
        return len(self.bounces)


def _round_to_multiple(c: Fraction, step: Fraction) -> Fraction:
    """Nearest multiple of step; half-way ties round down."""
    q = c / step
    m = (2 * q.numerator + q.denominator) // (2 * q.denominator)
    if Fraction(2 * m - 1, 2) == q:
        m -= 1
    return m * step


def map_to_grid(poly: Polytope, x, delta) -> tuple[tuple, RoundingCertificate]:
    """Round x onto the lattice of its face, ray-shooting on exit (exact);
    ValueError if x is infeasible."""
    delta = to_fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    x0 = tuple(to_fraction(c) for c in x)
    d = poly.d
    cur = x0
    bounces: list[tuple[int, Fraction]] = []
    dists: list[Fraction] = []
    for _ in range(d + 1):
        frame = active_set(poly, cur)  # ValueError at an infeasible start
        target = list(frame.x_ref)
        for coeff, v, step in zip(frame.coords(cur), frame.basis,
                                  lattice_steps(frame, delta)):
            rounded = _round_to_multiple(coeff, step)
            for i in range(d):
                target[i] += rounded * v[i]
        target_t = tuple(target)
        if target_t == cur:
            y = cur
            break
        if poly.contains(target_t):
            dists.append(sum((a - b) * (a - b) for a, b in zip(target_t, cur)))
            y = target_t
            break
        # ray shoot toward the ideal target, stop at the first facet hit
        ray = [t - c for t, c in zip(target_t, cur)]
        t_min, blockers = max_feasible_step(poly, cur, ray)
        if t_min >= 1:
            raise ValueError("ray test found no blocking facet for an infeasible target")
        nxt = tuple(c + t_min * r for c, r in zip(cur, ray))
        dists.append(sum((a - b) * (a - b) for a, b in zip(nxt, cur)))
        bounces.append((blockers[0], t_min))
        cur = nxt
    else:
        raise RuntimeError("rounding did not terminate within d+1 face drops")
    cert = RoundingCertificate(x_in=x0, y_out=tuple(y),
                               bounces=tuple(bounces), step_dist_sq=tuple(dists))
    return tuple(y), cert


def lattice_cardinality_bound(m: int, d: int, diameter, eps_r) -> Fraction:
    """Sum over face dimensions of C(m, d-d') (D d sqrt(d)/eps_r + 1)^{d'}."""
    D, er = to_fraction(diameter), to_fraction(eps_r)
    if er <= 0:
        raise ValueError("eps_r must be positive")
    root_d = _ceil_sqrt_rational(Fraction(d))
    per_axis = D * d * root_d / er + 1
    total = Fraction(0)
    for dprime in range(d + 1):
        total += math.comb(m, d - dprime) * per_axis**dprime
    return total
