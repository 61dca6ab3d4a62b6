"""Constrained first/second-order stationarity machinery.

Polytopes {x : Ax <= b}, Euclidean projection, the exact ratio test,
proximal gradient, face frames, the restricted Hessian on a frame and its
eigenvalues, and the (eps_G, eps_H)-SOSP verifier.  Polytope data is always
rational, and every accept/reject decision is made once, in exact
arithmetic, at the exact rational value of the point and the derivatives
(to_fraction is exact for a high-precision value): feasibility, the active
rows (slack exactly 0), ||g_pi||^2 <= eps_G^2 and the PSD test on the
active null space.  On a box, project clamps each coordinate by comparing
its exact integer ratio with the rational bounds in integers (an mpf
compare would round a bound like 1/3), and forms one Fraction only for a
coordinate strictly inside.

A face frame (face_frame, held by its polytope) is one Gram-Schmidt over
a set I of rows, carrying their right-hand sides, and then over the unit
vectors: it gives x_ref, the minimum-norm point of {x : A_I x = b_I}, and
an orthogonal rational basis B of ker(A_I).  The active set at x is the frame
of the rows active at x; the projection onto a polytope without box bounds
and polytope_lattice's lattices read the same frames.  Second order reads
one matrix, R = B^T H B, with k = dim <= 2 (every objective of the package
is 2-D), and decides it in closed form.  High precision only moves points:
projected_step (snap_run's step; the exact pi_X(x - g/L) is x + g_pi/L)
projects the exact value of x - g/L rounded in high precision, and the
eigenpairs of R (exact for k = 1, closed form for k = 2) give the solver
its curvature direction and the report its lambda_min.  The report's two
high-precision figures, lambda_min and ||g_pi||, decide nothing, so they
are computed when first read, from the exact ||g_pi||^2 and R that the
verdict already holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from sospgrid._precision import hp, hp_sqrt, to_fraction, to_ratio

INF = float("inf")


class Polytope:
    """Rational polytope {x : Ax <= b}.  It holds the face frames built on
    it, one per sorted row set (face_frame)."""

    def __init__(self, A: Sequence[Sequence], b: Sequence):
        self.A = tuple(tuple(to_fraction(v) for v in row) for row in A)
        self.b = tuple(to_fraction(v) for v in b)
        if len(self.A) != len(self.b):
            raise ValueError("A and b size mismatch")
        if not self.A:
            raise ValueError("empty constraint system")
        self.d = len(self.A[0])
        self.m = len(self.A)
        self._frames: dict[tuple[int, ...], FaceFrame] = {}
        # (lo, hi): by convention set only by Polytope.box, which builds the
        # rows from them; slacks, project and the reduction trust it unchecked
        self.box_bounds: Optional[tuple[tuple, tuple]] = None

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
        poly = cls(A, b)
        poly.box_bounds = (tuple(lo), tuple(hi))
        return poly

    def with_cut(self, row: Sequence, rhs) -> "Polytope":
        """New polytope with one extra half-space a.x <= rhs."""
        return Polytope(list(self.A) + [list(row)], list(self.b) + [rhs])

    def slacks(self, x) -> tuple[Fraction, ...]:
        """b - Ax, exact at the rational value of x.  A box reads its
        bounds, in the order of its rows: x - lo, then hi - x; otherwise
        zero entries of A are skipped."""
        x = [to_fraction(c) for c in x]
        if self.box_bounds is not None:
            lo, hi = self.box_bounds
            return (tuple(c - l for c, l in zip(x, lo))
                    + tuple(h - c for c, h in zip(x, hi)))
        return tuple(bj - sum(a * c for a, c in zip(row, x) if a)
                     for row, bj in zip(self.A, self.b))

    def contains(self, x) -> bool:
        return all(s >= 0 for s in self.slacks(x))

    def active_rows(self, x) -> tuple[int, ...]:
        """Rows with slack exactly 0 at x; ValueError if x violates a row."""
        rows = []
        for j, s in enumerate(self.slacks(x)):
            if s < 0:
                raise ValueError(f"point violates constraint {j}")
            if s == 0:
                rows.append(j)
        return tuple(rows)


def max_feasible_step(poly: Polytope, x, d):
    """Exact ratio test at the rational values of a feasible x and of d:
    largest t with x + t d feasible, and the blocking rows in index order."""
    d = [to_fraction(c) for c in d]
    t_max = None
    blockers: list[int] = []
    for j, (row, s) in enumerate(zip(poly.A, poly.slacks(x))):
        adot = sum(a * c for a, c in zip(row, d))
        if adot <= 0:
            continue
        t = s / adot
        if t_max is None or t < t_max:
            t_max, blockers = t, [j]
        elif t == t_max:
            blockers.append(j)
    if t_max is None:
        raise ValueError("direction is unbounded within the polytope")
    return t_max, tuple(blockers)


@dataclass(frozen=True)
class FaceFrame:
    indices: tuple[int, ...]
    x_ref: tuple  # minimum-norm solution of A_I x = b_I
    basis: tuple  # orthogonal rational basis of ker(A_I)
    norms_sq: tuple  # squared norms of the basis vectors

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x) -> list[Fraction]:
        """Coordinates of x - x_ref along the basis vectors (exact)."""
        diff = [c - r for c, r in zip(x, self.x_ref)]
        return [sum(a * c for a, c in zip(diff, v)) / nsq
                for v, nsq in zip(self.basis, self.norms_sq)]


def _build_face_frame(poly: Polytope, I: tuple) -> FaceFrame:
    d = poly.d
    rows = ((poly.A[j], poly.b[j]) for j in I)
    units = (([Fraction(int(i == j)) for j in range(d)], None) for i in range(d))
    # (q, q.q, beta): q.x = beta on the face for an orthogonalised row; a
    # unit-vector residue carries no right-hand side
    kept: list[tuple[list[Fraction], Fraction, Optional[Fraction]]] = []
    rank = 0  # how many of the kept vectors come from the rows
    for i, (w, rhs) in enumerate(itertools.chain(rows, units)):
        for v, nsq, beta in kept:
            dot = sum(a * c for a, c in zip(w, v))
            if dot != 0:
                f = dot / nsq
                w = [a - f * c for a, c in zip(w, v)]
                if rhs is not None:
                    rhs -= f * beta
        nsq = sum(c * c for c in w)
        if nsq != 0:
            kept.append((w, nsq, rhs))
            rank += i < len(I)
        elif rhs:
            # a dependent row, reduced to 0 = rhs
            raise ValueError(f"inconsistent face system at constraint {I[i]}")
    x_ref = tuple(sum((beta / nsq * q[c] for q, nsq, beta in kept[:rank]), Fraction(0))
                  for c in range(d))
    return FaceFrame(indices=I, x_ref=x_ref,
                     basis=tuple(tuple(w) for w, _, _ in kept[rank:]),
                     norms_sq=tuple(nsq for _, nsq, _ in kept[rank:]))


def face_frame(poly: Polytope, I: Sequence[int]) -> FaceFrame:
    """The frame of the face on rows I (see the module docstring);
    ValueError if those rows are inconsistent.  The polytope keeps the
    frame, one object for the rows in any order."""
    I = tuple(sorted(I))
    frame = poly._frames.get(I)
    if frame is None:
        frame = poly._frames[I] = _build_face_frame(poly, I)
    return frame


def active_set(poly: Polytope, x) -> FaceFrame:
    """The frame of the rows with slack exactly 0 at x; ValueError if x
    violates a row."""
    return face_frame(poly, poly.active_rows(x))


def project(poly: Polytope, v) -> tuple:
    """Euclidean projection of v onto the polytope (exact rational QP).
    On a box each coordinate is clamped: its exact integer ratio (to_ratio)
    is compared with the rational bounds in integers, and only a coordinate
    strictly inside them becomes a Fraction."""
    if poly.box_bounds is not None:
        lo, hi = poly.box_bounds
        return tuple(map(_clamp, v, lo, hi))
    return tuple(_project_general(poly, [to_fraction(c) for c in v]))


def _clamp(c, lo: Fraction, hi: Fraction) -> Fraction:
    """min(max(c, lo), hi) for lo <= hi, exactly."""
    num, den = to_ratio(c)
    if num * lo.denominator <= lo.numerator * den:
        return lo
    if num * hi.denominator >= hi.numerator * den:
        return hi
    return Fraction(num, den)


def _project_general(poly: Polytope, w: list[Fraction]) -> list[Fraction]:
    if poly.contains(w):
        return w
    d = poly.d
    best = None
    best_dist = None
    for size in range(1, d + 1):
        for subset in itertools.combinations(range(poly.m), size):
            # projection onto the affine set A_S x = b_S of consistent,
            # independent rows
            try:
                frame = face_frame(poly, subset)
            except ValueError:
                continue
            if frame.dim != d - size:
                continue
            cand = list(frame.x_ref)
            for coeff, v in zip(frame.coords(w), frame.basis):
                cand = [c + coeff * a for c, a in zip(cand, v)]
            if not poly.contains(cand):
                continue
            dist = sum((a - b) * (a - b) for a, b in zip(cand, w))
            if best_dist is None or dist < best_dist:
                best, best_dist = cand, dist
    if best is None:
        raise ValueError("projection failed: polytope appears infeasible")
    return best


def projected_step(poly: Polytope, x, g, L) -> tuple:
    """pi_X(x - g/L), with x - g/L rounded in high precision and then
    projected exactly: in the polytope exactly, with short denominators."""
    return project(poly, (hp(c) - hp(gi) / hp(L) for c, gi in zip(x, g)))


def proximal_gradient(x, grad, L1, poly: Polytope) -> tuple:
    """g_pi(x) = L1 * (pi_X(x - grad/L1) - x), exact at the rational values
    of x, grad and L1."""
    L1 = to_fraction(L1)
    x = [to_fraction(c) for c in x]
    proj = project(poly, (c - to_fraction(g) / L1 for c, g in zip(x, grad)))
    return tuple(L1 * (p - c) for p, c in zip(proj, x))


def tangent_hessian(H, basis) -> list[list[Fraction]]:
    """R = B^T H B, the Hessian restricted to the frame B (rows of basis),
    exact at the rational value of H; ValueError unless H is symmetric.  On
    a frame of the unit vectors (every interior point) R is H itself."""
    H = [[to_fraction(v) for v in row] for row in H]
    if any(H[i][j] != H[j][i] for i in range(len(H)) for j in range(i)):
        raise ValueError("Hessian must be symmetric")
    if len(basis) == len(H) and all(
            all(c == int(i == j) for j, c in enumerate(b)) for i, b in enumerate(basis)):
        return H
    HB = [[sum(h * c for h, c in zip(row, b) if c) for row in H] for b in basis]
    return [[sum(a * c for a, c in zip(bi, hbj) if a) for hbj in HB] for bi in basis]


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


def psd_on_tangent(R, norms_sq, eps) -> bool:
    """Exact test that y^T H y >= -eps ||y||^2 for all y in the span of a
    frame, from R = tangent_hessian(H, basis) and the frame's squared norms:
    M = R + eps diag(norms_sq) is PSD.  A frame has at most two vectors, so
    the test is closed form: M's diagonal is >= 0 and, for two vectors,
    det M >= 0.  ValueError for a frame of three or more vectors."""
    if len(R) > 2:
        raise ValueError("curvature is computed on null spaces of dimension <= 2")
    eps = to_fraction(eps)
    diag = [row[i] + eps * nsq for i, (row, nsq) in enumerate(zip(R, norms_sq))]
    if any(m < 0 for m in diag):
        return False
    return len(diag) < 2 or diag[0] * diag[1] >= R[0][1] * R[1][0]


@dataclass(frozen=True)
class SospReport:
    """The verdict of verify_sosp at x, with what it was decided from: the
    exact ||g_pi||^2 and R = B^T H B on the active frame.  gpi_norm and
    lambda_min are high-precision figures of the verdict that decide
    nothing; each is computed when first read."""
    x: tuple
    pass_first: bool
    pass_second: bool
    gpi_sq: Fraction
    R: tuple
    frame: FaceFrame

    @property
    def passed(self) -> bool:
        return self.pass_first and self.pass_second

    @property
    def active_indices(self) -> tuple[int, ...]:
        return self.frame.indices

    @cached_property
    def gpi_norm(self):
        return hp_sqrt(hp(self.gpi_sq))

    @cached_property
    def lambda_min(self):
        lam, _ = projected_hessian_min_eig(self.R, self.frame.basis,
                                           self.frame.norms_sq)
        return lam


def verify_sosp(objective: Callable, poly: Polytope, x, eps_g, eps_h, L1,
                exact: bool = False) -> SospReport:
    """(eps_G, eps_H)-SOSP check at a feasible point.

    objective(x) must return (f, grad, hess).  Both orders are decided
    exactly at the rational values of x and of the derivatives:
    ||g_pi||^2 <= eps_G^2, and y^T H y >= -eps_H ||y||^2 on the active null
    space.  The report's gpi_norm and lambda_min (high precision) decide
    nothing and are computed only when read.
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
    sq = sum(g * g for g in gpi)
    return SospReport(x=tuple(x), pass_first=sq <= to_fraction(eps_g) ** 2,
                      pass_second=psd_on_tangent(R, act.norms_sq, eps_h),
                      gpi_sq=sq, R=tuple(map(tuple, R)), frame=act)
