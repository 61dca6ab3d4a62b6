"""Potential/neighbor structure turning a constrained-SOSP instance into a
local-search problem: potential p = f + w * dim(Null(A'(x))), neighbor
g = Rounding of the SNAP update h(x) (exact for a gradient step), whose
terminal step is the SOSP verdict, and the improvement harness asserting
that non-SOSP grid points strictly improve.  One active_set read per grid
point gives dim(Null) and, off the box, the face lattice of the grid test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from sospgrid._precision import to_fraction
from sospgrid.polytope_lattice import (
    _ceil_sqrt_rational,
    box_grid_step,
    lattice_steps,
    map_to_grid,
)
from sospgrid.snap_solver import StepKind, snap_update
from sospgrid.stationarity import Polytope, active_set


@dataclass(frozen=True)
class Verdict:
    kind: str  # "solution" | "improved-C1" | "improved-C2" | "violation"
    x: tuple
    g_x: tuple
    p_x: object
    p_gx: object

    @property
    def improved(self) -> bool:
        return self.kind.startswith("improved")


class ReductionInstance:
    """Local-search instance (potential, neighbor) over a discrete grid."""

    def __init__(self, objective: Callable, poly: Polytope, eps_g, eps_h,
                 L, L1, L2):
        self.objective = objective
        self.poly = poly
        self.eps_g = to_fraction(eps_g)
        self.eps_h = to_fraction(eps_h)
        self.L, self.L1, self.L2 = to_fraction(L), to_fraction(L1), to_fraction(L2)
        self.eps = min(self.eps_g, self.eps_h)
        self.L_max = max(self.L, self.L1, self.L2, Fraction(1))
        d = poly.d
        self.weight = self.eps**4 / (100 * d * self.L_max**2)
        if poly.box_bounds is not None:
            lo, hi = poly.box_bounds
            self.gamma = box_grid_step(list(zip(lo, hi)), self.eps, self.L_max)
            self.eps_r = None
            self.delta = None
        else:
            self.gamma = None
            self.eps_r = self.eps**5 / (1000 * d**2 * self.L_max**3)
            # delta <= eps_r / (d sqrt(d)) via a rational sqrt upper bound
            self.delta = self.eps_r / (d * _ceil_sqrt_rational(Fraction(d)))

    # ---- grid handling -------------------------------------------------

    def round_point(self, x) -> tuple:
        """Rounding step of the neighbor map (floor-to-gamma or MapToGrid)."""
        u = tuple(to_fraction(c) for c in x)
        if self.gamma is not None:
            lo, _ = self.poly.box_bounds
            g = self.gamma
            return tuple(a + math.floor((c - a) / g) * g for c, a in zip(u, lo))
        y, _ = map_to_grid(self.poly, u, self.delta)
        return y

    def on_grid(self, x) -> bool:
        u = tuple(to_fraction(c) for c in x)
        return self._on_grid(u, None if self.gamma is not None
                             else active_set(self.poly, u))

    def _on_grid(self, u, frame) -> bool:
        """Off the box, the rational point u's face frame gives its lattice."""
        if self.gamma is not None:
            lo, _ = self.poly.box_bounds
            return all((c - a) % self.gamma == 0 for c, a in zip(u, lo))
        return all(coeff % step == 0 for coeff, step
                   in zip(frame.coords(u), lattice_steps(frame, self.delta)))

    # ---- potential / neighbor ------------------------------------------

    def dim_null(self, x) -> int:
        return active_set(self.poly, x).dim

    def _grid_weight(self, x) -> tuple[int, Fraction]:
        """(dim_null(x), weight * dim_null(x)); ValueError off the grid."""
        u = tuple(to_fraction(c) for c in x)
        frame = active_set(self.poly, u)
        if not self._on_grid(u, frame):
            raise ValueError("potential is defined on grid points only")
        return frame.dim, self.weight * frame.dim

    def potential(self, x) -> Fraction:
        """f(x) + weight * dim_null(x), exact at the rational value of f(x)."""
        return self._grid_weight(x)[1] + to_fraction(self.objective(x)[0])

    def _update(self, x, grad, hess) -> tuple:
        """(kind, g(x)) from the derivatives at x: the kind of h(x),
        TERMINAL exactly where verify_sosp passes, and x or Rounding(h(x))."""
        kind, y, _, _ = snap_update(self.objective, self.poly, x, grad, hess,
                                    self.eps_g, self.eps_h, self.L1, self.L2)
        if kind is StepKind.TERMINAL:
            return kind, tuple(x)
        return kind, self.round_point(y)

    def neighbor(self, x) -> tuple:
        """g(x) = Rounding(h(x)); fixed point exactly at the SOSPs.
        ValueError if x lies outside the polytope."""
        if not self.poly.contains(x):
            raise ValueError("point lies outside the polytope")
        return self._update(x, *self.objective(x)[1:])[1]

    def improvement_check(self, x) -> Verdict:
        """Non-SOSP grid points must strictly decrease the potential."""
        dim_x, w_x = self._grid_weight(x)  # ValueError off the grid or the polytope
        f, grad, hess = self.objective(x)  # for p(x) and the update
        p_x = to_fraction(f) + w_x
        kind, y = self._update(x, grad, hess)
        if kind is StepKind.TERMINAL:
            return Verdict("solution", tuple(x), y, p_x, p_x)
        dim_y, w_y = self._grid_weight(y)
        p_y = to_fraction(self.objective(y)[0]) + w_y
        if p_y < p_x:
            kind = "improved-C2" if dim_y < dim_x else "improved-C1"
            return Verdict(kind, tuple(x), y, p_x, p_y)
        return Verdict("violation", tuple(x), y, p_x, p_y)
