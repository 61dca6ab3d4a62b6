"""SNAP-style driver: projected-gradient steps, negative-curvature line
search with maximal-step detection, and convergence to an (eps_G, eps_H)
second-order stationary point of a smooth objective over a polytope.

snap_update is the three-case update h(x); the local-search reduction
rounds the same h(x) onto its grid.  Which case applies is decided exactly,
by the tests verify_sosp makes, so the reduction reads the terminal step as
its SOSP verdict, and a gradient step is the exact pi_X(x - g/L1) that the
first-order test projects; snap_run passes it the objective's own
derivatives, so it stops exactly where verify_sosp(..., exact=True) passes
on an exact objective.  High precision only moves the point: snap_run's
gradient steps (projected_step, which keeps iterates short), the curvature
direction, the split probes and the line-search f values.  Every iterate is
rational and lies in the polytope exactly: a line-search probe is x + t d
formed in rationals, with t doubled up to the maximal t of an exact ratio
test, so a maximal step ends exactly on its blocking rows.  The line-search
f values, like the backtracking and split probes, are value-only reads
(objective(x)[0]): an objective that computes f alone, as
HardInstance.objective does, skips the derivatives there.

snap_run's adaptive gradient step backtracks a local smoothness estimate,
which along a narrow valley is set by the stiff curvature across it, so
the step crawls along the flat floor.  Each adaptive step therefore also
tries a split candidate (split_candidate, after the stiff/flat split of
trust-region methods): a Newton step along the stiff eigenvector of the
Hessian and a doubling (or, when the first probe fails, halving) search
along the flattest one, every probe projected onto the polytope.  The
candidate replaces the backtracked step only when its f is strictly lower,
so the decrease that the backtracked step certifies still holds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from sospgrid._precision import hp, to_fraction, to_ratio
from sospgrid.stationarity import (
    FaceFrame,
    Polytope,
    SospReport,
    active_set,
    checked_ratio,
    eigen_2x2,
    first_order_test,
    max_feasible_step,
    project,
    projected_hessian_min_eig,
    projected_step,
    second_order_test,
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
    """A run's steps and verdict, with counts of the work it did:
    backtracking probes of the adaptive step, split candidates tried and
    accepted, and every call of the objective, whether it read f alone or
    the derivatives too."""

    steps: list[SnapStep] = field(default_factory=list)
    iterations: int = 0
    final_report: Optional[SospReport] = None
    converged: bool = False
    backtrack_probes: int = 0
    split_tried: int = 0
    split_accepted: int = 0
    objective_calls: int = 0

    @property
    def final_point(self) -> tuple:
        return self.steps[-1].dst if self.steps else ()

    def counts(self) -> dict:
        """The work counts, with the steps by kind and the steps that fell
        short of the certified decrease; the step counts sum to
        iterations."""
        by_kind = {kind.value: 0 for kind in StepKind}
        for step in self.steps:
            by_kind[step.kind.value] += 1
        return {"steps": by_kind,
                "decrease_shortfalls": sum(step.decrease_shortfall
                                           for step in self.steps),
                "backtrack_probes": self.backtrack_probes,
                "split_tried": self.split_tried,
                "split_accepted": self.split_accepted,
                "objective_calls": self.objective_calls}


def _hpvec(x) -> tuple:
    return tuple(hp(c) for c in x)


def _fracvec(x) -> tuple:
    return tuple(to_fraction(c) for c in x)


def _dist_sq(y, x):
    """||y - x||^2 in high precision."""
    return sum((hp(a) - hp(b)) ** 2 for a, b in zip(y, x))


def _fval(objective: Callable, x):
    """f(x) in high precision, read alone (objective(x)[0]), whatever
    number type the objective returns."""
    return hp(objective(x)[0])


def split_candidate(objective: Callable, poly: Polytope, x, grad, hess,
                    f_ref, t_min):
    """The projected Newton step, split along the two eigenvectors of the
    2-D Hessian (eigen_2x2).

    Along the stiff eigenvector it is a full Newton step if the larger
    eigenvalue, lam_max, is positive: the stiff step s.  Along the flat
    one, v, it searches the probes pi_X(x + s - t (g.v) v) for the least f,
    starting from the stiff-only probe t = 0.  The first flat probe is at
    t = 1/lam_flat when lam_flat > 0, which is the full Newton step, and
    otherwise at 1/|lam_max|.  If it beats the stiff-only probe, t doubles
    as long as f falls, as in line_search; if not, t halves, down to t_min,
    until a probe does.  Returns (f, y) of the best probe if its f is
    strictly below f_ref, else None.
    """
    (lam_max, v_max), (lam_flat, v) = eigen_2x2(hess[0][0], hess[0][1], hess[1][1])
    g = _hpvec(grad)
    base = _hpvec(x)
    if lam_max > 0:
        step = sum(a * b for a, b in zip(g, v_max)) / lam_max
        base = tuple(b - step * c for b, c in zip(base, v_max))
    gv = sum(a * b for a, b in zip(g, v))
    last = None  # (f, y) of the previous probe

    def probe(t):
        # a probe that projects to the previous probe's point reuses its f
        nonlocal last
        y = project(poly, (b - t * gv * c for b, c in zip(base, v)))
        if last is None or y != last[1]:
            last = _fval(objective, y), y
        return last

    best = probe(0)
    if gv != 0 and (lam_flat > 0 or lam_max != 0):
        t = 1 / lam_flat if lam_flat > 0 else 1 / abs(lam_max)
        cand = probe(t)
        if cand[0] < best[0]:
            while cand[0] < best[0]:
                best = cand
                t = 2 * t
                cand = probe(t)
        else:
            while not cand[0] < best[0] and t >= 2 * t_min:
                t = t / 2
                cand = probe(t)
            if cand[0] < best[0]:
                best = cand
    return best if best[0] < hp(f_ref) else None


def curvature_direction(grad, hess, act: FaceFrame, eps_h):
    """Unit negative-curvature direction in the active null space, signed
    against the gradient (v lies in the null space, so g.v has the sign of
    the projected gradient's (Pg).v); lexicographic tie-break.  None when
    the Hessian has no eigenvalue below -eps_h on the null space (decided
    exactly)."""
    passed, R = second_order_test(hess, act, eps_h)
    if passed:
        return None
    _, v = projected_hessian_min_eig(R, act.basis, act.norms_sq)
    dot = sum(hp(g) * c for g, c in zip(grad, v))
    if dot > 0:
        return tuple(-c for c in v)
    if dot < 0:
        return tuple(v)
    neg = tuple(-c for c in v)
    return tuple(v) if tuple(v) >= neg else neg


def line_search(objective: Callable, poly: Polytope, x, d, eps_h, L2):
    """Move along d: either a point with the required curvature decrease
    (max-step False) or the maximal feasible step (max-step True).

    Probes x + t d are formed exactly from t = eps_h/L2 doubled up to the
    finite ratio-test maximum, where the search ends at the latest; f is
    compared in high precision.  ValueError unless eps_h > 0 and L2 > 0."""
    eps_h, L2 = to_fraction(eps_h), to_fraction(L2)
    if eps_h <= 0 or L2 <= 0:
        raise ValueError("the line search needs eps_h > 0 and L2 > 0")
    x = _fracvec(x)
    d = _fracvec(d)
    fx = _fval(objective, x)
    t_max, blockers = max_feasible_step(poly, x, d)
    decrease = hp(CURVATURE_DECREASE * eps_h**3 / (L2 * L2))
    t = eps_h / L2
    best = None  # (fy, y, hit_max)
    while True:
        t = min(t, t_max)
        y = tuple(c + t * dc for c, dc in zip(x, d))
        fy = _fval(objective, y)
        if fy <= fx - decrease:
            # Keep doubling past the first acceptable probe: with the
            # worst-case L2 the certified step is microscopic, while the
            # local smoothness usually admits far larger decrease.
            if best is None or fy < best[0]:
                best = (fy, y, t == t_max)
            elif fy > best[0]:
                break
        elif best is not None:
            break
        if t == t_max:
            break
        t = 2 * t
    if best is not None:
        _, y, hit = best
        return y, hit, (blockers if hit else ())
    # No probe met the decrease, so the last one was the maximal step.
    if fy <= fx:
        return y, True, blockers
    raise SnapViolation("line-search", "no feasible step decreases f; "
                        "Taylor/Lipschitz contract breached along d")


def snap_update(objective: Callable, poly: Polytope, x, grad, hess, eps_g, eps_h,
                L1, L2):
    """One step h(x) of the three-case update from the evaluated derivatives.

    Returns (kind, y, max_step, new_active): the exact projected gradient
    step pi_X(x - grad/L1) = x + g_pi/L1 while ||g_pi(x)|| > eps_G, else a
    line search along the negative-curvature direction, else y = x.  The
    first-order test is verify_sosp's (first_order_test).  ValueError
    unless L1 > 0, eps_g >= 0 and eps_h >= 0.
    """
    checked_ratio(eps_h, "eps_h")
    passed, gpi = first_order_test(poly, x, grad, L1, eps_g)
    if not passed:
        l, m = to_ratio(L1)
        y = tuple(Fraction(xn * gd * l + gn * m * xd, xd * gd * l)
                  for (xn, xd), (gn, gd) in zip(map(to_ratio, x), gpi))
        return StepKind.PGD, y, False, ()
    act = active_set(poly, x)
    direction = curvature_direction(grad, hess, act, eps_h)
    if direction is not None:
        y, hit_max, blockers = line_search(objective, poly, x, direction,
                                           eps_h, L2)
        return StepKind.NEGATIVE_CURVATURE, y, hit_max, blockers
    return StepKind.TERMINAL, tuple(x), False, ()


def snap_run(objective: Callable, poly: Polytope, x0, eps_g, eps_h, L1, L2,
             max_iter: int = 1000, adaptive: bool = False) -> SnapTrace:
    """Iterate the three-case update until an (eps_G, eps_H)-SOSP.

    adaptive=True replaces the fixed 1/L1 gradient step with a backtracked
    local-smoothness estimate (the terminal test still uses the honest L1).
    The start is read at working precision, like every step, and must then
    lie in the polytope exactly.  The polytope must be 2-D, since
    split_candidate reads a 2x2 Hessian; ValueError otherwise.
    """
    if poly.d != 2:
        raise ValueError("snap_run needs a 2-D polytope")
    x = _fracvec(_hpvec(x0))
    if not poly.contains(x):
        raise ValueError("infeasible start point")
    trace = SnapTrace()

    def counted(pt):
        trace.objective_calls += 1
        return objective(pt)

    L1_h = hp(L1)
    L_hat = hp(1)
    kind = None
    for _ in range(max_iter):
        trace.iterations += 1
        fx, grad, hess = counted(x)
        fx = hp(fx)
        kind, y, hit_max, blockers = snap_update(counted, poly, x, grad, hess,
                                                 eps_g, eps_h, L1, L2)
        if kind is StepKind.TERMINAL:
            trace.steps.append(SnapStep(StepKind.TERMINAL, x, x, 0))
            break
        shortfall = False
        if kind is StepKind.PGD and adaptive:
            for _ in range(200):
                y = projected_step(poly, x, grad, L_hat)
                fy = _fval(counted, y)
                trace.backtrack_probes += 1
                if fy <= fx - L_hat * _dist_sq(y, x) / 18:
                    break
                L_hat = 2 * L_hat
            else:
                raise SnapViolation("pgd", "backtracking failed to find decrease")
            L_hat = max(L_hat / 2, hp(L_HAT_FLOOR))
            # Taken only when it beats the backtracked step, so that the
            # decrease certificate stands (see the module docstring).
            trace.split_tried += 1
            cand = split_candidate(counted, poly, x, grad, hess, fy, 1 / L_hat)
            if cand is not None:
                fy, y = cand
                trace.split_accepted += 1
        elif kind is StepKind.PGD:
            y = projected_step(poly, x, grad, L1)  # keeps the iterate short
            fy = _fval(counted, y)
            shortfall = fy > fx - L1_h * _dist_sq(y, x) / 18
            if fy > fx:
                raise SnapViolation("pgd", "projected gradient step increased f")
        else:
            fy = _fval(counted, y)
        trace.steps.append(SnapStep(kind, x, y, fx - fy, max_step=hit_max,
                                    new_active=blockers,
                                    decrease_shortfall=shortfall))
        x = y
    trace.final_report = verify_sosp(counted, poly, x, eps_g, eps_h, L1)
    trace.converged = kind is StepKind.TERMINAL and trace.final_report.passed
    return trace
