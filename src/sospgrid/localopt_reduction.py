"""Potential/neighbor structure turning a constrained-SOSP instance into a
local-search problem: potential p = f + w * dim(Null(A'(x))), neighbor
g = Rounding of the SNAP update h(x) (exact for a gradient step), whose
terminal step is the SOSP verdict, and the improvement harness asserting
that non-SOSP grid points strictly improve.  One active_set read per grid
point gives dim(Null) and, off the box, the face lattice of the grid test;
on the box it refuses a point outside, as off it.

The grid is decided in integer ratios (see _precision): on the box
(c - lo) / gamma is one exact ratio, which round_point floors by one
integer division and the grid test checks by one divisibility test; off
the box polytope_lattice decides the face lattice the same way.  eps_g and
eps_h must be positive, since gamma and delta are built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from sospgrid._precision import to_fraction, to_ratio
from sospgrid.polytope_lattice import (
    _ceil_sqrt_ratio,
    box_grid_step,
    map_to_grid,
    on_lattice,
)
from sospgrid.snap_solver import StepKind, snap_update
from sospgrid.stationarity import FaceFrame, Polytope, active_set, checked_ratio


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
    """Local-search instance (potential, neighbor) over a discrete grid.

    Any dimension d is accepted, and the update's SOSP verdict is decided
    on a face of any dimension.  Only a negative-curvature step is limited:
    its direction is read on null spaces of dimension at most 2, so where
    the curvature test fails on a face of dimension 3 or more,
    improvement_check raises ValueError.
    """

    def __init__(self, objective: Callable, poly: Polytope, eps_g, eps_h,
                 L, L1, L2):
        self.objective = objective
        self.poly = poly
        self.eps_g = Fraction(*checked_ratio(eps_g, "eps_g", positive=True))
        self.eps_h = Fraction(*checked_ratio(eps_h, "eps_h", positive=True))
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
            # delta <= eps_r / (d sqrt(d)) via an integer sqrt upper bound
            root_d, _ = _ceil_sqrt_ratio(d, 1)
            self.delta = self.eps_r / (d * root_d)

    # ---- grid handling -------------------------------------------------

    def round_point(self, x) -> tuple:
        """Rounding step of the neighbor map (floor-to-gamma or MapToGrid);
        ValueError if x lies outside the polytope."""
        if self.gamma is None:
            return map_to_grid(self.poly, x, self.delta)[0]
        self.poly.active_rows(x)  # ValueError outside the box
        lo, g = self.poly.box_bounds[0], self.gamma
        # lo + floor((c - lo) / gamma) gamma, one Fraction per coordinate
        return tuple(Fraction(a.numerator * g.denominator
                              + (n // d) * g.numerator * a.denominator,
                              a.denominator * g.denominator)
                     for (n, d), a in zip(self._gamma_quotients(x), lo))

    def on_grid(self, x) -> bool:
        """x lies on the box's gamma grid, or else on its face's lattice;
        ValueError if x lies outside the polytope."""
        return self._on_grid(x, active_set(self.poly, x))

    def _gamma_quotients(self, x) -> list[tuple[int, int]]:
        """(c - lo) / gamma for each coordinate c of x, as exact ratios
        (num, den > 0) of the ratios of c, lo and gamma."""
        g = self.gamma
        out = []
        for c, a in zip(x, self.poly.box_bounds[0]):
            n, d = to_ratio(c)
            out.append(((n * a.denominator - a.numerator * d) * g.denominator,
                        d * a.denominator * g.numerator))
        return out

    def _on_grid(self, x, frame: FaceFrame) -> bool:
        """x on the gamma grid of the box, or else on the lattice of its face
        (frame, the active set at x): one integer divisibility test per
        coordinate, no gcd."""
        if self.gamma is None:
            return on_lattice(frame, x, self.delta)
        return all(n % d == 0 for n, d in self._gamma_quotients(x))

    # ---- potential / neighbor ------------------------------------------

    def dim_null(self, x) -> int:
        return active_set(self.poly, x).dim

    def _grid_weight(self, x) -> tuple[int, Fraction]:
        """(dim_null(x), weight * dim_null(x)); ValueError off the grid."""
        frame = active_set(self.poly, x)
        if not self._on_grid(x, frame):
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
        """Non-SOSP grid points must strictly decrease the potential.

        ValueError off the grid or the polytope, and where x needs a
        negative-curvature step on a face of dimension 3 or more (no
        verdict is computed there; see the class docstring).
        """
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
