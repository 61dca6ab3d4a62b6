"""SNAP-style driver: projected-gradient steps, negative-curvature line
search with maximal-step detection, and convergence to an (eps_G, eps_H)
second-order stationary point of a smooth objective over a polytope.

snap_update is the three-case update h(x); the local-search reduction
rounds the same h(x) onto its grid.  Which case applies is decided exactly,
by the tests verify_sosp makes.  High precision only moves the point: the
step x - g/L, the curvature direction, the line-search f values and step
lengths.  Every iterate is rational and lies in the polytope exactly: a
gradient step is the exact projection of the rational value of its
high-precision step, and a line-search probe is x + t d formed in
rationals, with the maximal t from an exact ratio test, so a maximal step
ends exactly on its blocking rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from sospgrid._precision import hp, hp_sqrt, to_fraction
from sospgrid.stationarity import (
    ActiveSet,
    Polytope,
    SospReport,
    active_set,
    default_delta_eig,
    projected_hessian_min_eig,
    projected_step,
    proximal_gradient,
    psd_on_tangent,
    verify_sosp,
)

# Required curvature decrease, as a multiple of eps_H^3 / L2^2.
CURVATURE_DECREASE = Fraction(3, 50)
# Floor of the backtracked local smoothness estimate.
L_HAT_FLOOR = Fraction(1, 10**8)


class StepKind(enum.Enum):
    PGD = "pgd"
    NEGATIVE_CURVATURE = "negative-curvature"
    TERMINAL = "terminal"


class SnapViolation(Exception):
    """A step contract failed in a way that certifies a constant breach."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class SnapStep:
    kind: StepKind
    src: tuple
    dst: tuple
    f_decrease: object
    max_step: bool = False
    new_active: tuple[int, ...] = ()
    decrease_shortfall: bool = False


@dataclass
class SnapTrace:
    steps: list[SnapStep] = field(default_factory=list)
    iterations: int = 0
    final_report: Optional[SospReport] = None
    converged: bool = False

    @property
    def final_point(self) -> tuple:
        return self.steps[-1].dst if self.steps else ()


def _hpvec(x) -> tuple:
    return tuple(hp(c) for c in x)


def _fracvec(x) -> tuple:
    return tuple(to_fraction(c) for c in x)


def _dist(y, x):
    """||y - x|| in high precision."""
    diff = [hp(a) - hp(b) for a, b in zip(y, x)]
    return hp_sqrt(sum(c * c for c in diff))


def _fval(objective: Callable, x):
    """f(x) in high precision, whatever number type the objective returns."""
    return hp(objective(x)[0])


def _newton_candidate(poly: Polytope, x, grad, hess):
    """pi_X(x - H^{-1} g), the projected step with H^{-1} g at L = 1, or
    None if H is singular (within hp precision)."""
    d = len(x)
    M = [[hp(hess[i][j]) for j in range(d)] + [hp(grad[i])] for i in range(d)]
    for col in range(d):
        piv = max(range(col, d), key=lambda r: abs(M[r][col]))
        if M[piv][col] == 0:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(d):
            if r == col:
                continue
            factor = M[r][col] / M[col][col]
            for c in range(col, d + 1):
                M[r][c] -= factor * M[col][c]
    return projected_step(poly, x, tuple(M[i][d] / M[i][i] for i in range(d)), 1)


def curvature_direction(grad, hess, act: ActiveSet, eps_h):
    """Unit negative-curvature direction in the active null space, signed
    against the projected gradient; lexicographic tie-break.  None when the
    projected Hessian has no eigenvalue below -eps_h (decided exactly)."""
    if act.dim_null == 0 or psd_on_tangent(hess, act.projector, eps_h):
        return None
    _, v = projected_hessian_min_eig(hess, act.projector, default_delta_eig(eps_h))
    d = len(v)
    P = act.projector
    qpi = tuple(sum(hp(P[i][k]) * hp(grad[k]) for k in range(d)) for i in range(d))
    dot = sum(q * c for q, c in zip(qpi, v))
    if dot > 0:
        return tuple(-c for c in v)
    if dot < 0:
        return tuple(v)
    neg = tuple(-c for c in v)
    return tuple(v) if tuple(v) >= neg else neg


def max_feasible_step(poly: Polytope, x, d):
    """Exact ratio test at the rational values of a feasible x and of d:
    largest t with x + t d feasible, and the blocking rows."""
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


def line_search(objective: Callable, poly: Polytope, x, d, eps_h, L2,
                L_max=None):
    """Move along d: either a point with the required curvature decrease
    (max-step False) or the maximal feasible step (max-step True).

    Probes x + t d are formed exactly from t = eps_h/L2 doubled up to the
    ratio-test maximum; f is compared in high precision."""
    x = _fracvec(x)
    d = _fracvec(d)
    fx = _fval(objective, x)
    t_max, blockers = max_feasible_step(poly, x, d)
    eps_h, L2 = to_fraction(eps_h), to_fraction(L2)
    decrease = hp(CURVATURE_DECREASE * eps_h**3 / (L2 * L2))
    if L_max is None:
        L_max = L2
    eps = float(eps_h) if eps_h > 0 else 1e-16
    cap = math.ceil(math.log2(max(float(L_max) * len(x) / eps, 2))) + 10
    t = eps_h / L2
    best = None  # (fy, y, hit_max)
    for _ in range(cap):
        t_probe = min(t, t_max)
        y = tuple(c + t_probe * dc for c, dc in zip(x, d))
        fy = _fval(objective, y)
        if fy <= fx - decrease:
            # Keep doubling past the first acceptable probe: with the
            # worst-case L2 the certified step is microscopic, while the
            # local smoothness usually admits far larger decrease.
            if best is None or fy < best[0]:
                best = (fy, y, t_probe == t_max)
            elif fy > best[0]:
                break
        elif best is not None:
            break
        if t_probe == t_max:
            break
        t = 2 * t
    if best is not None:
        _, y, hit = best
        return y, hit, (blockers if hit else ())
    y = tuple(c + t_max * dc for c, dc in zip(x, d))
    fy = _fval(objective, y)
    if fy <= fx:
        return y, True, blockers
    raise SnapViolation("line-search", "no feasible step decreases f; "
                        "Taylor/Lipschitz contract breached along d")


def snap_update(objective: Callable, poly: Polytope, x, grad, hess, eps_g, eps_h,
                L1, L2, L_max=None):
    """One step h(x) of the three-case update from the evaluated derivatives.

    Returns (kind, y, max_step, new_active): a projected gradient step
    pi_X(x - grad/L1) while ||g_pi(x)|| > eps_G, else a line search along
    the negative-curvature direction, else the terminal step y = x.
    """
    gpi = proximal_gradient(x, grad, L1, poly)
    if sum(g * g for g in gpi) > to_fraction(eps_g) ** 2:
        return StepKind.PGD, projected_step(poly, x, grad, L1), False, ()
    act = active_set(poly, x)
    direction = curvature_direction(grad, hess, act, eps_h)
    if direction is not None:
        y, hit_max, blockers = line_search(objective, poly, x, direction,
                                           eps_h, L2, L_max=L_max)
        return StepKind.NEGATIVE_CURVATURE, y, hit_max, blockers
    return StepKind.TERMINAL, tuple(x), False, ()


def snap_run(objective: Callable, poly: Polytope, x0, eps_g, eps_h, L1, L2,
             max_iter: int = 1000, adaptive: bool = False) -> SnapTrace:
    """Iterate the three-case update until an (eps_G, eps_H)-SOSP.

    adaptive=True replaces the fixed 1/L1 gradient step with a backtracked
    local-smoothness estimate (the terminal test still uses the honest L1).
    The start is read at working precision, like every step, and must then
    lie in the polytope exactly.
    """
    x = _fracvec(_hpvec(x0))
    if not poly.contains(x):
        raise ValueError("infeasible start point")
    trace = SnapTrace()
    L1_h = hp(L1)
    L_hat = hp(1)
    kind = None
    for _ in range(max_iter):
        trace.iterations += 1
        fx, grad, hess = objective(x)
        fx, grad = hp(fx), _hpvec(grad)
        kind, y, hit_max, blockers = snap_update(objective, poly, x, grad, hess,
                                                 eps_g, eps_h, L1, L2)
        if kind is StepKind.TERMINAL:
            trace.steps.append(SnapStep(StepKind.TERMINAL, x, x, 0))
            break
        shortfall = False
        if kind is StepKind.PGD and adaptive:
            for _ in range(200):
                y = projected_step(poly, x, grad, L_hat)
                move = _dist(y, x)
                fy = _fval(objective, y)
                if fy <= fx - L_hat * move * move / 18:
                    break
                L_hat = 2 * L_hat
            else:
                raise SnapViolation("pgd", "backtracking failed to find decrease")
            L_hat = max(L_hat / 2, hp(L_HAT_FLOOR))
            # Ill-conditioned patches make the scalar step crawl; a
            # projected Newton candidate is accepted only when it beats
            # the backtracked step, so the decrease certificate stands.
            cand = _newton_candidate(poly, x, grad, hess)
            if cand is not None:
                f_cand = _fval(objective, cand)
                if f_cand < fy:
                    y, fy = cand, f_cand
        else:
            fy = _fval(objective, y)
            if kind is StepKind.PGD:
                move = _dist(y, x)
                shortfall = fy > fx - L1_h * move * move / 18
                if fy > fx:
                    raise SnapViolation("pgd", "projected gradient step increased f")
        trace.steps.append(SnapStep(kind, x, y, fx - fy, max_step=hit_max,
                                    new_active=blockers,
                                    decrease_shortfall=shortfall))
        x = y
    trace.final_report = verify_sosp(objective, poly, x, eps_g, eps_h, L1)
    trace.converged = kind is StepKind.TERMINAL and trace.final_report.passed
    return trace
