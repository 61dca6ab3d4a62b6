"""Constrained first/second-order stationarity machinery.

Polytopes {x : Ax <= b}, Euclidean projection, the exact ratio test,
proximal gradient, active sets with an orthogonal null-space frame, the
restricted Hessian on that frame and its eigenvalues, and the
(eps_G, eps_H)-SOSP verifier.  Polytope data is always rational, and every
accept/reject decision is made once, in exact arithmetic, at the exact
rational value of the point and the derivatives (to_fraction is exact for
a high-precision value): feasibility, the active rows (slack exactly 0),
||g_pi||^2 <= eps_G^2 and the PSD test on the active null space.  Second
order reads one matrix, R = B^T H B on the frame B of tangent_frame, with
k = dim_null <= 2 (every objective of the package is 2-D).  High precision
only moves points: projected_step rounds x - g/L in high precision and
projects its exact rational value, and the eigenpairs of R (exact for
k = 1, closed form for k = 2) give the solver its curvature direction and
the report its lambda_min.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from sospgrid._precision import hp, hp_sqrt, to_fraction

INF = float("inf")


def _solve_frac(M: Sequence[Sequence],
                R: Sequence[Sequence]) -> Optional[list[list[Fraction]]]:
    """Solve M Z = R exactly for the matrix Z (Gauss-Jordan; R is given by
    rows, so R = I gives the inverse); None if M is singular."""
    n = len(M)
    aug = [list(row) + list(rhs) for row, rhs in zip(M, R)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n:] for r in range(n)]


def independent_rows(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal linearly independent subset, scanned in order."""
    kept: list[list[Fraction]] = []
    idx: list[int] = []
    for i, row in enumerate(rows):
        work = [to_fraction(v) for v in row]
        for basis in kept:
            lead = next((j for j, v in enumerate(basis) if v != 0), None)
            if lead is not None and work[lead] != 0:
                f = work[lead] / basis[lead]
                work = [v - f * w for v, w in zip(work, basis)]
        if any(v != 0 for v in work):
            kept.append(work)
            idx.append(i)
    return idx


class Polytope:
    """Rational polytope {x : Ax <= b}."""

    def __init__(self, A: Sequence[Sequence], b: Sequence,
                 box_bounds: Optional[tuple[tuple, tuple]] = None):
        self.A = tuple(tuple(to_fraction(v) for v in row) for row in A)
        self.b = tuple(to_fraction(v) for v in b)
        if len(self.A) != len(self.b):
            raise ValueError("A and b size mismatch")
        if not self.A:
            raise ValueError("empty constraint system")
        self.d = len(self.A[0])
        self.m = len(self.A)
        if box_bounds is not None:
            lo, hi = box_bounds
            self.box_bounds = (tuple(to_fraction(v) for v in lo),
                               tuple(to_fraction(v) for v in hi))
        else:
            self.box_bounds = None

    @classmethod
    def box(cls, lo: Sequence, hi: Sequence) -> "Polytope":
        lo = [to_fraction(v) for v in lo]
        hi = [to_fraction(v) for v in hi]
        if len(lo) != len(hi) or any(l > h for l, h in zip(lo, hi)):
            raise ValueError("invalid box bounds")
        d = len(lo)
        A, b = [], []
        for i in range(d):
            row = [Fraction(0)] * d
            row[i] = Fraction(-1)
            A.append(row)
            b.append(-lo[i])
        for i in range(d):
            row = [Fraction(0)] * d
            row[i] = Fraction(1)
            A.append(row)
            b.append(hi[i])
        return cls(A, b, box_bounds=(lo, hi))

    def with_cut(self, row: Sequence, rhs) -> "Polytope":
        """New polytope with one extra half-space a.x <= rhs."""
        return Polytope(list(self.A) + [list(row)], list(self.b) + [rhs])

    def slack(self, j: int, x) -> Fraction:
        """b_j - a_j.x, exact at the rational value of x."""
        return self.b[j] - sum(a * to_fraction(c) for a, c in zip(self.A[j], x))

    def contains(self, x) -> bool:
        return all(self.slack(j, x) >= 0 for j in range(self.m))

    def active_rows(self, x) -> tuple[int, ...]:
        """Rows with slack exactly 0 at x; ValueError if x violates a row."""
        rows = []
        for j in range(self.m):
            s = self.slack(j, x)
            if s < 0:
                raise ValueError(f"point violates constraint {j}")
            if s == 0:
                rows.append(j)
        return tuple(rows)


def max_feasible_step(poly: Polytope, x, d):
    """Exact ratio test at the rational values of a feasible x and of d:
    largest t with x + t d feasible, and the blocking rows in index order."""
    t_max = None
    blockers: list[int] = []
    for j in range(poly.m):
        adot = sum(a * to_fraction(c) for a, c in zip(poly.A[j], d))
        if adot <= 0:
            continue
        t = poly.slack(j, x) / adot
        if t_max is None or t < t_max:
            t_max, blockers = t, [j]
        elif t == t_max:
            blockers.append(j)
    if t_max is None:
        raise ValueError("direction is unbounded within the polytope")
    return t_max, tuple(blockers)


@dataclass(frozen=True)
class ActiveSet:
    x: tuple
    indices: tuple[int, ...]
    basis: tuple  # orthogonal rational basis of the active null space
    norms_sq: tuple  # squared norms of the basis vectors

    @property
    def dim_null(self) -> int:
        return len(self.basis)


def project(poly: Polytope, v) -> tuple:
    """Euclidean projection of v onto the polytope (exact rational QP)."""
    w = [to_fraction(c) for c in v]
    if poly.box_bounds is not None:
        lo, hi = poly.box_bounds
        return tuple(min(max(c, l), h) for c, l, h in zip(w, lo, hi))
    return tuple(_project_general(poly, w))


def _project_general(poly: Polytope, w: list[Fraction]) -> list[Fraction]:
    if poly.contains(w):
        return w
    d = poly.d
    best = None
    best_dist = None
    for size in range(1, d + 1):
        for subset in itertools.combinations(range(poly.m), size):
            rows = [list(poly.A[j]) for j in subset]
            if len(independent_rows(rows)) < size:
                continue
            rhs = [poly.b[j] for j in subset]
            # projection onto the affine set A_S x = b_S
            gram = [[sum(a * c for a, c in zip(r1, r2)) for r2 in rows] for r1 in rows]
            resid = [[sum(a * c for a, c in zip(rows[i], w)) - rhs[i]] for i in range(size)]
            mult = _solve_frac(gram, resid)
            if mult is None:
                continue
            cand = [w[k] - sum(mult[i][0] * rows[i][k] for i in range(size)) for k in range(d)]
            if not poly.contains(cand):
                continue
            dist = sum((a - b) * (a - b) for a, b in zip(cand, w))
            if best_dist is None or dist < best_dist:
                best, best_dist = cand, dist
    if best is None:
        raise ValueError("projection failed: polytope appears infeasible")
    return best


def projected_step(poly: Polytope, x, g, L) -> tuple:
    """pi_X(x - g/L): the step is computed in high precision and its exact
    rational value is projected exactly, so the result lies in the polytope
    exactly."""
    return project(poly, (hp(c) - hp(gi) / hp(L) for c, gi in zip(x, g)))


def proximal_gradient(x, grad, L1, poly: Polytope) -> tuple:
    """g_pi(x) = L1 * (pi_X(x - grad/L1) - x), exact at the rational values
    of x, grad and L1."""
    L1 = to_fraction(L1)
    x = [to_fraction(c) for c in x]
    proj = project(poly, (c - to_fraction(g) / L1 for c, g in zip(x, grad)))
    return tuple(L1 * (p - c) for p, c in zip(proj, x))


def active_set(poly: Polytope, x) -> ActiveSet:
    """Rows with slack exactly 0 at x (ValueError if x violates a row), with
    an orthogonal basis of their null space."""
    idx = poly.active_rows(x)
    basis, norms_sq = tangent_frame([poly.A[j] for j in idx], poly.d)
    return ActiveSet(x=tuple(x), indices=idx, basis=basis, norms_sq=norms_sq)


def tangent_frame(rows: Sequence[Sequence[Fraction]], d: int) -> tuple[tuple, tuple]:
    """(basis, norms_sq): an orthogonal rational basis of
    {y : r.y = 0 for every row r} and the squared norms of its vectors.

    Gram-Schmidt runs over the rows and then over the unit vectors e_1..e_d;
    a vector that depends on the earlier ones reduces to zero and is dropped,
    so dependent rows are allowed.  The unit-vector residues that remain
    form the basis."""
    units = ([Fraction(int(i == j)) for j in range(d)] for i in range(d))
    kept: list[tuple[list[Fraction], Fraction]] = []
    rank = 0  # how many of the kept vectors come from the rows
    for i, w in enumerate(itertools.chain(rows, units)):
        for v, nsq in kept:
            dot = sum(a * c for a, c in zip(w, v))
            if dot != 0:
                f = dot / nsq
                w = [a - f * c for a, c in zip(w, v)]
        nsq = sum(c * c for c in w)
        if nsq != 0:
            kept.append((w, nsq))
            rank += i < len(rows)
    return (tuple(tuple(w) for w, _ in kept[rank:]),
            tuple(nsq for _, nsq in kept[rank:]))


def tangent_hessian(H, basis) -> list[list[Fraction]]:
    """R = B^T H B, the Hessian restricted to the frame B (rows of basis),
    exact at the rational value of H; ValueError unless H is symmetric."""
    H = [[to_fraction(v) for v in row] for row in H]
    if any(H[i][j] != H[j][i] for i in range(len(H)) for j in range(i)):
        raise ValueError("Hessian must be symmetric")
    HB = [[sum(h * c for h, c in zip(row, b)) for row in H] for b in basis]
    return [[sum(a * c for a, c in zip(bi, hbj)) for hbj in HB] for bi in basis]


def eigen_2x2(a, b, c):
    """Eigenpairs of the symmetric [[a, b], [b, c]] in closed form, in high
    precision: ((lam1, v1), (lam2, v2)) with lam1 >= lam2 and v1, v2
    orthonormal."""
    a, b, c = hp(a), hp(b), hp(c)
    half = (a - c) / 2
    r = hp_sqrt(half * half + b * b)
    mean = (a + c) / 2
    if r == 0:
        # a multiple of I: any orthonormal pair is an eigenbasis
        return (mean, (hp(0), hp(1))), (mean, (hp(1), hp(0)))
    # (lam1 - c, b) and (b, lam1 - a) both span the lam1 eigenspace; take
    # the one whose first entry, half + r or r - half, has no cancellation.
    v = (half + r, b) if half >= 0 else (b, r - half)
    norm = hp_sqrt(v[0] * v[0] + v[1] * v[1])
    v1 = (v[0] / norm, v[1] / norm)
    return (mean + r, v1), (mean - r, (-v1[1], v1[0]))


def projected_hessian_min_eig(R, basis, norms_sq):
    """(lambda, v): the least eigenvalue of H on span(basis), from the
    restricted Hessian R = tangent_hessian(H, basis), and a unit eigenvector
    in that span, in high precision.

    (+inf, None) for an empty frame.  For one vector b, lambda = R/||b||^2,
    computed exactly and rounded once, and v = b/||b||.  For two, the
    eigenpair of D^-1/2 R D^-1/2 with D = diag(norms_sq).  ValueError for a
    frame of three or more vectors.
    """
    if not basis:
        return INF, None
    if len(basis) > 2:
        raise ValueError("curvature is computed on null spaces of dimension <= 2")
    roots = [hp_sqrt(hp(nsq)) for nsq in norms_sq]
    if len(basis) == 1:
        return (hp(R[0][0] / norms_sq[0]),
                tuple(hp(c) / roots[0] for c in basis[0]))
    n0, n1 = norms_sq
    _, (lam, u) = eigen_2x2(R[0][0] / n0, hp(R[0][1]) / (roots[0] * roots[1]),
                            R[1][1] / n1)
    return lam, tuple(u[0] * hp(a) / roots[0] + u[1] * hp(c) / roots[1]
                      for a, c in zip(*basis))


def is_psd(M: list[list[Fraction]]) -> bool:
    """Exact PSD test for a symmetric rational matrix."""
    A = [[to_fraction(v) for v in row] for row in M]
    n = len(A)
    live = list(range(n))
    while live:
        piv = max(live, key=lambda i: A[i][i])
        if A[piv][piv] < 0:
            return False
        if A[piv][piv] == 0:
            # all remaining diagonal entries are <= 0 here, i.e. exactly 0;
            # any nonzero off-diagonal entry makes the matrix indefinite
            return all(A[i][j] == 0 for i in live for j in live)
        p = A[piv][piv]
        live.remove(piv)
        for i in live:
            f = A[i][piv] / p
            for j in live:
                A[i][j] -= f * A[piv][j]
    return True


def psd_on_tangent(R, norms_sq, eps) -> bool:
    """Exact test that y^T H y >= -eps ||y||^2 for all y in the span of a
    frame, from R = tangent_hessian(H, basis) and the frame's squared norms:
    R + eps diag(norms_sq) is PSD."""
    eps = to_fraction(eps)
    return is_psd([[v + eps * nsq if i == j else v for j, v in enumerate(row)]
                   for i, (row, nsq) in enumerate(zip(R, norms_sq))])


@dataclass(frozen=True)
class SospReport:
    x: tuple
    gpi_norm: object
    lambda_min: object
    pass_first: bool
    pass_second: bool
    active_indices: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.pass_first and self.pass_second


def verify_sosp(objective: Callable, poly: Polytope, x, eps_g, eps_h, L1,
                exact: bool = False) -> SospReport:
    """(eps_G, eps_H)-SOSP check at a feasible point.

    objective(x) must return (f, grad, hess).  Both orders are decided
    exactly at the rational values of x and of the derivatives:
    ||g_pi||^2 <= eps_G^2, and y^T H y >= -eps_H ||y||^2 on the active null
    space.  lambda_min is reported (high precision) but decides nothing.
    With exact=True the derivatives must be rational, so that the verdict is
    a statement about f itself; TypeError otherwise.
    """
    act = active_set(poly, x)  # ValueError if x is not feasible
    _, grad, hess = objective(x)
    if exact and not all(isinstance(v, (int, Fraction))
                         for v in itertools.chain(grad, *hess)):
        raise TypeError("exact=True needs rational derivatives")
    gpi = proximal_gradient(x, grad, L1, poly)
    R = tangent_hessian(hess, act.basis)
    lam, _ = projected_hessian_min_eig(R, act.basis, act.norms_sq)
    sq = sum(g * g for g in gpi)
    return SospReport(x=tuple(x), gpi_norm=hp_sqrt(hp(sq)), lambda_min=lam,
                      pass_first=sq <= to_fraction(eps_g) ** 2,
                      pass_second=psd_on_tangent(R, act.norms_sq, eps_h),
                      active_indices=act.indices)
