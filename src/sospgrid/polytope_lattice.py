"""Discrete grids for the membership reduction: box step sizes, per-face
algebraic lattices over a polytope, and the MapToGrid rounding procedure
with its active-set / feasibility / distance guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from sospgrid._precision import to_fraction
from sospgrid.stationarity import (Polytope, independent_rows, max_feasible_step,
                                   tangent_frame, _solve_frac)


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


@dataclass(frozen=True)
class FaceFrame:
    indices: tuple[int, ...]
    x_ref: tuple  # minimum-norm solution of A_I x = b_I
    basis: tuple  # orthogonal rational basis of ker(A_I)
    norms_sq: tuple  # squared norms of the basis vectors
    norm_bounds: tuple  # rational upper bounds on the basis norms

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x) -> list[Fraction]:
        """Coordinates of x - x_ref along the basis vectors (exact)."""
        diff = [c - r for c, r in zip(x, self.x_ref)]
        return [sum(a * c for a, c in zip(diff, v)) / nsq
                for v, nsq in zip(self.basis, self.norms_sq)]


@lru_cache(maxsize=4096)
def _face_frame_cached(A: tuple, b: tuple, I: tuple) -> FaceFrame:
    d = len(A[0]) if A else 0
    rows = [list(A[j]) for j in I]
    rhs = [b[j] for j in I]
    keep = independent_rows(rows)
    ind_rows = [rows[i] for i in keep]
    ind_rhs = [rhs[i] for i in keep]
    k = len(ind_rows)
    if k == 0:
        x_ref = tuple(Fraction(0) for _ in range(d))
    else:
        gram = [[sum(a * c for a, c in zip(r1, r2)) for r2 in ind_rows] for r1 in ind_rows]
        mult = _solve_frac(gram, [[r] for r in ind_rhs])
        if mult is None:
            raise ValueError("degenerate face system")
        x_ref = tuple(sum(mult[i][0] * ind_rows[i][c] for i in range(k)) for c in range(d))
    for j, (row, r) in enumerate(zip(rows, rhs)):
        if sum(a * c for a, c in zip(row, x_ref)) != r:
            raise ValueError(f"inconsistent face system at constraint {I[j]}")
    basis, norms_sq = tangent_frame(ind_rows, d)
    bounds = tuple(_ceil_sqrt_rational(n) for n in norms_sq)
    return FaceFrame(indices=I, x_ref=x_ref, basis=basis,
                     norms_sq=norms_sq, norm_bounds=bounds)


def face_frame(poly: Polytope, I: Sequence[int]) -> FaceFrame:
    """Canonical reference point + orthogonal kernel basis for face I."""
    return _face_frame_cached(poly.A, poly.b, tuple(sorted(I)))


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
    """Round x onto the lattice of its face, ray-shooting on exit (exact)."""
    delta = to_fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    x0 = tuple(to_fraction(c) for c in x)
    if not poly.contains(x0):
        raise ValueError("point is not feasible")
    d = poly.d
    cur = x0
    bounces: list[tuple[int, Fraction]] = []
    dists: list[Fraction] = []
    for _ in range(d + 1):
        frame = face_frame(poly, poly.active_rows(cur))
        if frame.dim == 0:
            y = frame.x_ref
            break
        target = list(frame.x_ref)
        for coeff, v, nu in zip(frame.coords(cur), frame.basis, frame.norm_bounds):
            step = delta / nu  # per-direction step; displacement <= delta/2
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
