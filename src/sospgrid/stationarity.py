"""Constrained first/second-order stationarity machinery.

Polytopes {x : Ax <= b}, Euclidean projection, the exact ratio test,
proximal gradient, face frames, the restricted Hessian on a frame and its
eigenvalues, and the (eps_G, eps_H)-SOSP verifier.  Polytope data is always
rational, and every accept/reject decision is made once, in exact
arithmetic, at the exact rational value of the point and the derivatives:
feasibility, the active rows (slack exactly 0), ||g_pi||^2 <= eps_G^2
(first_order_test) and the PSD test on the active null space
(second_order_test).  Each number is read in integer ratios (see
_precision); a comparison needs positive denominators, hence L1 > 0 and
eps >= 0 are checked.  On a box each clamp of x - g/L1 is an integer comparison with the rational
bounds (an mpf compare would round a bound like 1/3); off the box the step
is projected exactly in Fractions.  project clamps the same way and forms
one Fraction only for a coordinate strictly inside.

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
its curvature direction and the report its lambda_min.  The report keeps
g_pi and R as the ratios that were compared; its Fractions ||g_pi||^2 and
R and its high-precision figures lambda_min and ||g_pi|| decide nothing,
so each is computed when first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from sospgrid._precision import hp, hp_quotient, hp_sqrt, to_fraction, to_ratio

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
        # each row as its nonzero terms (i, num, den) and b_j as (num, den)
        self._row_ratios = tuple(
            (tuple((i, a.numerator, a.denominator) for i, a in enumerate(row) if a),
             bj.numerator, bj.denominator) for row, bj in zip(self.A, self.b))
        self._frames: dict[tuple[int, ...], FaceFrame] = {}
        # (lo, hi): by convention set only by Polytope.box, which builds the
        # rows from them; slack_ratios, project and the reduction trust it unchecked
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

    def slack_ratios(self, x) -> tuple[tuple[int, int], ...]:
        """b - Ax as exact ratios (num, den), den > 0, at the ratio of each
        coordinate (to_ratio), formed without a gcd.  A box reads its
        bounds, in the order of its rows: x - lo, then hi - x; otherwise
        zero entries of A are skipped."""
        x = [to_ratio(c) for c in x]
        if self.box_bounds is not None:
            lo, hi = self.box_bounds
            return (tuple((n * l.denominator - l.numerator * d, d * l.denominator)
                          for (n, d), l in zip(x, lo))
                    + tuple((h.numerator * d - n * h.denominator, d * h.denominator)
                            for (n, d), h in zip(x, hi)))
        out = []
        for terms, bn, bd in self._row_ratios:
            num, den = 0, 1  # a_j . x
            for i, an, ad in terms:
                n, d = x[i]
                num, den = num * ad * d + an * n * den, den * ad * d
            out.append((bn * den - num * bd, bd * den))
        return tuple(out)

    def contains(self, x) -> bool:
        return all(n >= 0 for n, _ in self.slack_ratios(x))

    def active_rows(self, x) -> tuple[int, ...]:
        """Rows with slack exactly 0 at x, from the sign of each slack's
        numerator; ValueError if x violates a row."""
        rows = []
        for j, (n, _) in enumerate(self.slack_ratios(x)):
            if n < 0:
                raise ValueError(f"point violates constraint {j}")
            if n == 0:
                rows.append(j)
        return tuple(rows)


def max_feasible_step(poly: Polytope, x, d):
    """Exact ratio test at the rational values of a feasible x and of d:
    largest t with x + t d feasible, as a Fraction, and the blocking rows in
    index order; each row's t = slack / (a.d) is compared as an exact ratio."""
    d = [to_ratio(c) for c in d]
    t_max = None  # (num, den > 0)
    blockers: list[int] = []
    for j, (row, (sn, sd)) in enumerate(zip(poly.A, poly.slack_ratios(x))):
        an, ad = _combine(row, d)
        if an <= 0:
            continue
        tn, td = sn * ad, sd * an
        if t_max is None or tn * t_max[1] < t_max[0] * td:
            t_max, blockers = (tn, td), [j]
        elif tn * t_max[1] == t_max[0] * td:
            blockers.append(j)
    if t_max is None:
        raise ValueError("direction is unbounded within the polytope")
    return Fraction(*t_max), tuple(blockers)


@dataclass(frozen=True)
class FaceFrame:
    indices: tuple[int, ...]
    x_ref: tuple  # minimum-norm solution of A_I x = b_I
    basis: tuple  # orthogonal rational basis of ker(A_I)
    norms_sq: tuple  # squared norms of the basis vectors

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coord_ratios(self, x) -> list[tuple[int, int]]:
        """Coordinates (x - x_ref).v / ||v||^2 along the basis vectors v, as
        exact ratios (num, den > 0) of the ratios of x.  x_ref lies in the
        row space, orthogonal to every v, so each is x.v / ||v||^2.  The
        frame of no rows is the unit vectors: there they are x's own."""
        x = [to_ratio(c) for c in x]
        if not self.indices:
            return x
        out = []
        for v, nsq in zip(self.basis, self.norms_sq):
            num, den = _combine(v, x)
            out.append((num * nsq.denominator, den * nsq.numerator))
        return out


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
    bound = _clamp_bound(num, den, lo, hi)
    return Fraction(num, den) if bound is None else bound


def _clamp_bound(num: int, den: int, lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """The bound that num/den (den > 0) clamps to in [lo, hi], or None if it
    lies strictly inside; decided by cross-multiplication."""
    if num * lo.denominator <= lo.numerator * den:
        return lo
    if num * hi.denominator >= hi.numerator * den:
        return hi
    return None


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
            for (n, m), v in zip(frame.coord_ratios(w), frame.basis):
                cand = [c + Fraction(n, m) * a for c, a in zip(cand, v)]
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


def checked_ratio(value, name: str, positive: bool = False) -> tuple[int, int]:
    """The exact ratio (to_ratio) of a tolerance or constant; ValueError
    naming it unless it is >= 0, or > 0 when positive.  The verdict's
    cross-multiplications rely on these signs."""
    num, den = to_ratio(value)
    if num < 0 or (positive and num == 0):
        raise ValueError(f"{name} must be {'>' if positive else '>='} 0, got {value}")
    return num, den


def _gpi_ratios(poly: Polytope, x, grad, L1) -> list[tuple[int, int]]:
    """g_pi = L1 (pi_X(x - grad/L1) - x) as exact ratios (num, den > 0),
    from the ratios of x, grad and L1 = l/m; ValueError unless L1 > 0.  On a
    box each coordinate's clamp is one integer comparison of x - g/L1 with
    a bound: unclamped, g_pi = -g; clamped to c, g_pi = L1 (c - x).  Off the
    box the step is projected exactly and the projection read as ratios."""
    l, m = checked_ratio(L1, "L1", positive=True)
    x = [to_ratio(c) for c in x]
    grad = [to_ratio(g) for g in grad]
    if poly.box_bounds is None:
        proj = _project_general(poly, [Fraction(xn, xd) - Fraction(gn * m, gd * l)
                                       for (xn, xd), (gn, gd) in zip(x, grad)])
    else:
        # x - g/L1 = (xn gd l - gn m xd) / (xd gd l)
        proj = [_clamp_bound(xn * gd * l - gn * m * xd, xd * gd * l, lo, hi)
                for (xn, xd), (gn, gd), lo, hi in zip(x, grad, *poly.box_bounds)]
    return [(-gn, gd) if p is None
            else (l * (p.numerator * xd - xn * p.denominator), m * p.denominator * xd)
            for p, (xn, xd), (gn, gd) in zip(proj, x, grad)]


def squared_norm(ratios) -> tuple[int, int]:
    """sum (n/d)^2 of exact ratios (n, d), as a ratio over the product of
    the d^2."""
    num, den = 0, 1
    for n, d in ratios:
        num, den = num * d * d + n * n * den, den * d * d
    return num, den


def first_order_test(poly: Polytope, x, grad, L1, eps_g) -> tuple[bool, list]:
    """(||g_pi||^2 <= eps_G^2, g_pi as exact ratios): the first-order test
    of verify_sosp, snap_update and box_certifier.boundary_prox_check,
    decided by one cross-multiplication; ValueError unless L1 > 0 and
    eps_g >= 0."""
    e, f = checked_ratio(eps_g, "eps_g")
    gpi = _gpi_ratios(poly, x, grad, L1)
    num, den = squared_norm(gpi)
    return num * f * f <= e * e * den, gpi


def proximal_gradient(x, grad, L1, poly: Polytope) -> tuple:
    """g_pi(x) = L1 * (pi_X(x - grad/L1) - x), exact at the rational values
    of x, grad and L1; ValueError unless L1 > 0."""
    return tuple(Fraction(n, d) for n, d in _gpi_ratios(poly, x, grad, L1))


def _ratio_rows(M) -> list[list[tuple[int, int]]]:
    return [[to_ratio(v) for v in row] for row in M]


def _combine(coeffs, ratios) -> tuple[int, int]:
    """sum c * r over the nonzero rational c, as an exact ratio."""
    num, den = 0, 1
    for c, (n, d) in zip(coeffs, ratios):
        if c:
            cn, cd = c.numerator, c.denominator
            num, den = num * cd * d + cn * n * den, den * cd * d
    return num, den


def _symmetric(H):
    """H, or ValueError unless its ratios are symmetric."""
    if any(H[i][j][0] * H[j][i][1] != H[j][i][0] * H[i][j][1]
           for i in range(len(H)) for j in range(i)):
        raise ValueError("Hessian must be symmetric")
    return H


def _tangent_ratios(H, basis) -> list[list[tuple[int, int]]]:
    """R = B^T H B as exact ratios from the ratios of H."""
    HB = [[_combine(b, row) for row in H] for b in basis]
    return [[_combine(bi, hbj) for hbj in HB] for bi in basis]


def _psd_ratios(R, norms_sq, eps) -> bool:
    """psd_on_tangent from the ratios of R and of eps = e/f, e >= 0."""
    if len(R) > 2:
        raise ValueError("curvature is computed on null spaces of dimension <= 2")
    e, f = eps
    diag = []
    for i, nsq in enumerate(norms_sq):
        n, d = R[i][i]
        p, q = nsq.numerator, nsq.denominator
        num = n * f * q + e * p * d  # R_ii + eps nsq = num / (d f q)
        if num < 0:
            return False
        diag.append((num, d * f * q))
    if len(diag) < 2:
        return True
    (a, b), (c, d) = diag
    (rn, rd), (sn, sd) = R[0][1], R[1][0]
    return a * c * rd * sd >= rn * sn * b * d


def psd_on_tangent(R, norms_sq, eps) -> bool:
    """Exact test that y^T H y >= -eps ||y||^2 for all y in the span of a
    frame, from R = B^T H B on the frame B and the frame's squared norms:
    M = R + eps diag(norms_sq) is PSD.  A frame has at most two vectors, so
    the test is closed form: M's diagonal is >= 0 and, for two vectors,
    det M >= 0, each decided by cross-multiplication.  ValueError for a
    frame of three or more vectors."""
    return _psd_ratios(_ratio_rows(R), norms_sq, to_ratio(eps))


def second_order_test(hess, frame: FaceFrame, eps_h) -> tuple[bool, list]:
    """(psd_on_tangent on the frame, R = B^T H B as exact ratios): the
    second-order test of verify_sosp and snap_solver's curvature direction;
    ValueError unless eps_h >= 0 and H is symmetric, and for a frame of
    three or more vectors.  The frame of no rows (every interior point) is
    the unit vectors, so there R is H itself."""
    eps = checked_ratio(eps_h, "eps_h")
    H = _symmetric(_ratio_rows(hess))
    R = _tangent_ratios(H, frame.basis) if frame.indices else H
    return _psd_ratios(R, frame.norms_sq, eps), R


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
    restricted Hessian R = B^T H B as exact ratios (second_order_test), and
    a unit eigenvector in that span, in high precision.

    (+inf, None) for an empty frame.  For one vector b, lambda = R/||b||^2,
    computed exactly and rounded once, and v = b/||b||.  For two, the
    eigenpair of D^-1/2 R D^-1/2 with D = diag(norms_sq), each diagonal
    entry R_ii/||b_i||^2 and R_01 rounded once (hp_quotient).  ValueError
    for a frame of three or more vectors.
    """
    if not basis:
        return INF, None
    if len(basis) > 2:
        raise ValueError("curvature is computed on null spaces of dimension <= 2")
    roots = [hp_sqrt(hp(nsq)) for nsq in norms_sq]
    diag = [hp_quotient(R[i][i][0] * nsq.denominator, R[i][i][1] * nsq.numerator)
            for i, nsq in enumerate(norms_sq)]  # R_ii / ||b_i||^2
    if len(basis) == 1:
        return diag[0], tuple(hp(c) / roots[0] for c in basis[0])
    _, (lam, u) = eigen_2x2(diag[0], hp_quotient(*R[0][1]) / (roots[0] * roots[1]),
                            diag[1])
    return lam, tuple(u[0] * hp(a) / roots[0] + u[1] * hp(c) / roots[1]
                      for a, c in zip(*basis))


@dataclass(frozen=True)
class SospReport:
    """The verdict of verify_sosp at x, with what it was decided from: g_pi
    and R = B^T H B on the active frame, as the exact ratios that the two
    tests compared.  gpi_sq and R (Fractions) and gpi_norm and lambda_min
    (high precision) are figures of these that decide nothing; each is
    computed when first read."""
    x: tuple
    pass_first: bool
    pass_second: bool
    gpi_ratios: tuple
    R_ratios: tuple
    frame: FaceFrame

    @property
    def passed(self) -> bool:
        return self.pass_first and self.pass_second

    @property
    def active_indices(self) -> tuple[int, ...]:
        return self.frame.indices

    @cached_property
    def gpi_sq(self) -> Fraction:
        return Fraction(*squared_norm(self.gpi_ratios))

    @cached_property
    def R(self) -> tuple:
        return tuple(tuple(Fraction(n, d) for n, d in row) for row in self.R_ratios)

    @cached_property
    def gpi_norm(self):
        return hp_sqrt(hp(self.gpi_sq))

    @cached_property
    def lambda_min(self):
        lam, _ = projected_hessian_min_eig(self.R_ratios, self.frame.basis,
                                           self.frame.norms_sq)
        return lam


def verify_sosp(objective: Callable, poly: Polytope, x, eps_g, eps_h, L1,
                exact: bool = False) -> SospReport:
    """(eps_G, eps_H)-SOSP check at a feasible point.

    objective(x) must return (f, grad, hess).  Both orders are decided
    exactly at the rational values of x and of the derivatives, each read
    as an integer ratio and compared by cross-multiplication:
    ||g_pi||^2 <= eps_G^2 (first_order_test), and y^T H y >= -eps_H ||y||^2
    on the active null space (second_order_test).  ValueError if x is not
    feasible, and unless L1 > 0, eps_g >= 0 and eps_h >= 0.
    With exact=True the derivatives must be rational, so that the verdict is
    a statement about f itself; TypeError otherwise.
    """
    act = active_set(poly, x)  # ValueError if x is not feasible
    _, grad, hess = objective(x)
    if exact and not all(isinstance(v, (int, Fraction))
                         for v in itertools.chain(grad, *hess)):
        raise TypeError("exact=True needs rational derivatives")
    pass_first, gpi = first_order_test(poly, x, grad, L1, eps_g)
    pass_second, R = second_order_test(hess, act, eps_h)
    return SospReport(x=tuple(x), pass_first=pass_first, pass_second=pass_second,
                      gpi_ratios=tuple(gpi), R_ratios=tuple(map(tuple, R)),
                      frame=act)
