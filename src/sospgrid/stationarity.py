"""Constrained first/second-order stationarity machinery.

Polytopes {x : Ax <= b}, Euclidean projection, the exact ratio test,
proximal gradient, active sets with null-space projectors, projected-Hessian eigenvalues, and the
(eps_G, eps_H)-SOSP verifier.  Polytope data is always rational, and every
accept/reject decision is made once, in exact arithmetic, at the exact
rational value of the point and the derivatives (to_fraction is exact for
a high-precision value): feasibility, the active rows (slack exactly 0),
||g_pi||^2 <= eps_G^2 and the PSD test on the active null space.  High
precision only moves points: projected_step rounds x - g/L in high
precision and projects its exact rational value, and the eigenpairs
(closed form for d = 2, cyclic Jacobi otherwise) give the solver its
curvature direction and split step and the report its lambda_min.
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
    rows: tuple  # independent active rows (rational)
    projector: tuple  # d x d rational matrix, I - A'^T (A'A'^T)^-1 A'
    dim_null: int


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
    """Rows with slack exactly 0 at x, with the null-space projector P(x)."""
    idx = poly.active_rows(x)
    all_rows = [list(poly.A[j]) for j in idx]
    keep = independent_rows(all_rows)
    rows = [all_rows[i] for i in keep]
    P = projector_from_rows(rows, poly.d)
    return ActiveSet(x=tuple(x), indices=idx,
                     rows=tuple(tuple(r) for r in rows),
                     projector=P, dim_null=poly.d - len(rows))


def projector_from_rows(rows: Sequence[Sequence[Fraction]], d: int) -> tuple:
    """P = I - A^T (A A^T)^-1 A for linearly independent rows (exact)."""
    k = len(rows)
    ident = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    if k == 0:
        return tuple(tuple(r) for r in ident)
    gram = [[sum(a * c for a, c in zip(r1, r2)) for r2 in rows] for r1 in rows]
    gram_inv = _solve_frac(gram, [[int(i == j) for j in range(k)] for i in range(k)])
    if gram_inv is None:
        raise ValueError("rows are not linearly independent")
    # M = (A A^T)^-1 A  (k x d)
    M = [[sum(gram_inv[j][i] * rows[i][c] for i in range(k)) for c in range(d)]
         for j in range(k)]
    P = [[ident[r][c] - sum(rows[i][r] * M[i][c] for i in range(k)) for c in range(d)]
         for r in range(d)]
    return tuple(tuple(row) for row in P)


def _jacobi_eigen(M: list[list], tol) -> tuple[list, list[list]]:
    """Cyclic Jacobi sweeps; returns (eigenvalues, eigenvector columns)."""
    n = len(M)
    A = [[hp(v) for v in row] for row in M]
    V = [[hp(int(i == j)) for j in range(n)] for i in range(n)]
    tol = hp(tol)
    for _ in range(100):
        off = hp(0)
        for i in range(n):
            for j in range(i + 1, n):
                off += A[i][j] * A[i][j]
        if hp_sqrt(2 * off) <= tol:
            break
        for p in range(n):
            for q in range(p + 1, n):
                if A[p][q] == 0:
                    continue
                theta = (A[q][q] - A[p][p]) / (2 * A[p][q])
                sign = 1 if theta >= 0 else -1
                t = sign / (abs(theta) + hp_sqrt(theta * theta + 1))
                c = 1 / hp_sqrt(t * t + 1)
                s = t * c
                for k in range(n):
                    akp, akq = A[k][p], A[k][q]
                    A[k][p] = c * akp - s * akq
                    A[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = A[p][k], A[q][k]
                    A[p][k] = c * apk - s * aqk
                    A[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = V[k][p], V[k][q]
                    V[k][p] = c * vkp - s * vkq
                    V[k][q] = s * vkp + c * vkq
    eigvals = [A[i][i] for i in range(n)]
    eigvecs = [[V[i][j] for i in range(n)] for j in range(n)]
    return eigvals, eigvecs


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


def symmetric_eigen(M, tol) -> list:
    """Eigenpairs (lam, v) of a symmetric matrix, largest lam first, in
    high precision: closed form for d = 2, Jacobi to tolerance tol
    otherwise."""
    if len(M) == 2:
        return list(eigen_2x2(M[0][0], M[0][1], M[1][1]))
    vals, vecs = _jacobi_eigen(M, tol)
    # ascending, then reversed: of tied eigenvalues, Jacobi's first comes last
    return sorted(zip(vals, vecs), key=lambda t: t[0])[::-1]


def default_delta_eig(eps_h) -> Fraction:
    """Jacobi tolerance of the curvature direction: 10^-12, or eps_h/100 if
    smaller."""
    eps_h = to_fraction(eps_h)
    tol = Fraction(1, 10**12)
    return min(tol, eps_h / 100) if eps_h > 0 else tol


def projected_hessian_min_eig(H, P, delta_eig=Fraction(1, 10**12)):
    """(lambda, v): min eigenvalue of P H P restricted to range(P).

    Returns (+inf, None) when rank(P) = 0.  v satisfies v = Pv, ||v|| = 1.
    """
    d = len(H)
    for i in range(d):
        for j in range(i + 1, d):
            if to_fraction(H[i][j]) != to_fraction(H[j][i]):
                raise ValueError("Hessian must be symmetric")
    # trace of an orthogonal projector = its rank
    if sum(to_fraction(P[i][i]) for i in range(d)) == 0:
        return INF, None
    Ph = [[hp(P[i][j]) for j in range(d)] for i in range(d)]
    Hh = [[hp(H[i][j]) for j in range(d)] for i in range(d)]
    PH = [[sum(Ph[i][k] * Hh[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    PHP = [[sum(PH[i][k] * Ph[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    # shift null(P) eigendirections above any eigenvalue of PHP
    bound = hp(1)
    for i in range(d):
        for j in range(d):
            bound += abs(Hh[i][j])
    M = [[PHP[i][j] + bound * (hp(int(i == j)) - Ph[i][j]) for j in range(d)] for i in range(d)]
    lam, vec = symmetric_eigen(M, hp(delta_eig))[-1]
    # re-project and normalize the eigenvector
    pv = [sum(Ph[i][k] * vec[k] for k in range(d)) for i in range(d)]
    norm = hp_sqrt(sum(c * c for c in pv))
    if norm == 0:
        return INF, None
    return lam, tuple(c / norm for c in pv)


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


def psd_on_tangent(H, P, eps) -> bool:
    """Exact test that y^T H y >= -eps ||y||^2 for all y in range(P)."""
    d = len(H)
    Hf = [[to_fraction(H[i][j]) for j in range(d)] for i in range(d)]
    Pf = [[to_fraction(P[i][j]) for j in range(d)] for i in range(d)]
    PH = [[sum(Pf[i][k] * Hf[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    PHP = [[sum(PH[i][k] * Pf[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    M = [[PHP[i][j] + to_fraction(eps) * Pf[i][j] for j in range(d)] for i in range(d)]
    return is_psd(M)


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
    if not poly.contains(x):
        raise ValueError("point is not feasible")
    _, grad, hess = objective(x)
    if exact and not all(isinstance(v, (int, Fraction))
                         for v in itertools.chain(grad, *hess)):
        raise TypeError("exact=True needs rational derivatives")
    gpi = proximal_gradient(x, grad, L1, poly)
    act = active_set(poly, x)
    lam, _ = projected_hessian_min_eig(hess, act.projector, default_delta_eig(eps_h))
    sq = sum(g * g for g in gpi)
    return SospReport(x=tuple(x), gpi_norm=hp_sqrt(hp(sq)), lambda_min=lam,
                      pass_first=sq <= to_fraction(eps_g) ** 2,
                      pass_second=(act.dim_null == 0
                                   or psd_on_tangent(hess, act.projector, eps_h)),
                      active_indices=act.indices)
