"""Discrete grid, color value regimes, and per-point value/gradient data.

Every corner of the lattice {0, ..., N}^2 (N = 6 * 2^n + 6) receives one of
five affine color values (Blue < Black < Red < Green < Orange) together with
a cardinal gradient.  The stored vector is grad f; the *named* direction
(Up/Down/Left/Right) is where -grad f points.  Corner second derivatives are
f_xx = f_yy = -1/2 with all mixed derivatives zero.

The piecewise clauses are evaluated in their listed order (first match
wins), with node-index formulas like k = floor((a + 4) / 6).
"""

from __future__ import annotations

import enum
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction

from sospgrid.iter_problems import IterInstance, solves

HALF = Fraction(1, 2)


class Color(enum.Enum):
    BLUE = "blue"
    BLACK = "black"
    RED = "red"
    GREEN = "green"
    ORANGE = "orange"


class Direction(enum.Enum):
    """Named direction of steepest descent; `.grad` is the stored grad f."""

    UP = (Fraction(0), -HALF)
    DOWN = (Fraction(0), HALF)
    LEFT = (HALF, Fraction(0))
    RIGHT = (-HALF, Fraction(0))

    @property
    def grad(self) -> tuple[Fraction, Fraction]:
        return self.value


# Color ordering: BLUE < BLACK < RED < GREEN < ORANGE at every grid point.
COLOR_ORDER = (Color.BLUE, Color.BLACK, Color.RED, Color.GREEN, Color.ORANGE)


@dataclass(frozen=True)
class CornerAssignment:
    value: Fraction
    direction: Direction
    color: Color

    @property
    def grad(self) -> tuple[Fraction, Fraction]:
        return self.direction.grad

    # All corners share the same pure second derivatives.
    f_xx = -HALF
    f_yy = -HALF
    f_xy = Fraction(0)


def regime_value(color: Color, a, b, N: int) -> Fraction:
    """Affine value of a color regime at (a, b) on the N-grid."""
    a = Fraction(a)
    b = Fraction(b)
    if color is Color.BLUE:
        return 10**4 * N - a - b
    if color is Color.BLACK:
        return (10**6 + 1) * N + a - b
    if color is Color.RED:
        return 10**4 * (10**4 - 2) * N - a + b
    if color is Color.GREEN:
        return 10**15 * N + a - b
    if color is Color.ORANGE:
        return 10**16 * N - a + b
    raise ValueError(f"unknown color {color!r}")


class _NodeView(Set):
    """Read-only set of the nodes k in [1, 2^n] that a rule on the table of
    C picks; iteration is in increasing k."""

    __slots__ = ("table",)

    def __init__(self, table: tuple[int, ...]):
        self.table = table

    def __iter__(self):
        return (k for k in range(1, len(self.table) + 1) if k in self)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({sorted(self)})"


class _Columns(_NodeView):
    """Columns = {k : C(k) != k}."""

    __slots__ = ()

    def __contains__(self, k) -> bool:
        return 1 <= k <= len(self.table) and self.table[k - 1] != k


class _Solutions(_NodeView):
    """Solutions = {k : solves(C, k)}, with C read from the table."""

    __slots__ = ()

    def _C(self, v: int) -> int:
        return self.table[v - 1]

    def __contains__(self, k) -> bool:
        return 1 <= k <= len(self.table) and solves(self._C, k)


def node_sets(inst: IterInstance) -> tuple[Set, Set]:
    """(Columns, Solutions): moving nodes, and nodes that solve the instance.

    Both are views of one table of C, in which each C(k) is read once: a
    table-backed instance lends its own table, and a procedure-backed one
    is read through inst.C.  Membership costs O(1); iteration, len and ==
    scan the table.
    """
    table = inst.table
    if table is None:
        table = tuple(map(inst.C, range(1, inst.size + 1)))
        if table[0] <= 1:
            raise ValueError("instance requires C(1) > 1")
    return _Columns(table), _Solutions(table)


def _grid_color(table: tuple[int, ...], columns: Set, N: int, a: int, b: int) -> Color:
    size = len(table)
    k4 = (a + 4) // 6
    in_k4 = 1 <= k4 <= size

    # Blue clauses.
    if in_k4 and k4 in columns and 6 * k4 - 3 <= a <= 6 * k4 - 1 and 3 <= b <= 6 * k4 + 2:
        return Color.BLUE
    if b == 2 and in_k4 and k4 in columns and a == 6 * k4 - 2:
        return Color.BLUE
    k0 = a // 6
    if 1 <= k0 <= size and (c0 := table[k0 - 1]) > k0 and c0 in columns:
        if 6 * k0 <= a <= 6 * k0 + 2 and 6 * k0 + 1 <= b <= 6 * k0 + 2:
            return Color.BLUE
    if b % 6 in (1, 2):
        l = b // 6
        k3 = (a + 3) // 6
        if l in columns and 1 <= k3 <= size and table[l - 1] > k3 > l:
            if k3 in columns and 6 * k3 <= a <= 6 * k3 + 2:
                return Color.BLUE
            if k3 not in columns and 6 * k3 - 3 <= a <= 6 * k3 + 2:
                return Color.BLUE

    # Black clauses.
    if b == 2:
        if in_k4 and k4 in columns and 6 * k4 - 1 <= a <= 6 * k4 + 1:
            return Color.BLACK
        if in_k4 and k4 not in columns and 6 * k4 - 4 <= a <= 6 * k4 + 1:
            return Color.BLACK
        if 6 * size + 2 <= a <= 6 * size + 4:
            return Color.BLACK

    # Green clauses.
    if 2 <= a <= N and 0 <= b <= 1:
        return Color.GREEN
    if 6 * size + 5 <= a <= N and 2 <= b <= 6 * size + 4:
        return Color.GREEN

    # Orange clauses.
    if 0 <= a <= 1 and 0 <= b <= N:
        return Color.ORANGE
    if 2 <= a <= N and 6 * size + 5 <= b <= N:
        return Color.ORANGE

    return Color.RED


def _grid_direction(
    table: tuple[int, ...], columns: Set, solutions: Set, N: int, a: int, b: int
) -> Direction:
    size = len(table)
    k4 = (a + 4) // 6
    in_k4 = 1 <= k4 <= size

    # Up clauses.
    if 2 <= a <= N and 0 <= b <= 1:
        return Direction.UP
    if in_k4 and k4 in columns and 6 * k4 - 2 <= a <= 6 * k4 - 1 and 2 <= b <= 6 * k4 + 1:
        return Direction.UP
    if in_k4 and k4 in solutions and 6 * k4 - 2 <= a <= 6 * k4 - 1 and b == 6 * k4 + 2:
        return Direction.UP
    k0 = a // 6
    if 1 <= k0 <= size and (c0 := table[k0 - 1]) > k0 and c0 in columns:
        if 6 * k0 <= a <= 6 * k0 + 2 and b == 6 * k0 + 1:
            return Direction.UP
    l = b // 6
    if b % 6 == 1 and 1 <= l <= size:
        cl = table[l - 1]
        k3 = (a + 3) // 6
        if l in columns and 1 <= k3 <= size and cl > k3 > l:
            if k3 in columns and 6 * k3 + 1 <= a <= 6 * k3 + 2:
                return Direction.UP
            if k3 not in columns and 6 * k3 - 3 <= a <= 6 * k3 + 2:
                return Direction.UP
        if in_k4 and k4 in columns and cl >= k4 > l and a == 6 * k4 - 3:
            return Direction.UP

    # Left clauses.
    if b == 2:
        if in_k4 and k4 in columns and 6 * k4 <= a <= 6 * k4 + 1:
            return Direction.LEFT
        if in_k4 and k4 not in columns and 6 * k4 - 4 <= a <= 6 * k4 + 1:
            return Direction.LEFT
        if 6 * size + 2 <= a <= 6 * size + 4:
            return Direction.LEFT
    if 6 * size + 5 <= a <= N and 2 <= b <= 6 * size + 4:
        return Direction.LEFT

    # Down clauses.
    if 2 <= a <= N and 6 * size + 5 <= b <= N:
        return Direction.DOWN
    if a == 6 * size + 4 and 3 <= b <= 6 * size + 4:
        return Direction.DOWN
    if in_k4 and k4 in solutions and 6 * k4 - 2 <= a <= 6 * k4 - 1 and 6 * k4 + 3 <= b <= 6 * size + 4:
        return Direction.DOWN
    if b == 3:
        k5 = (a + 5) // 6
        if 1 <= k5 <= size and k5 in columns and k5 > 1 and a == 6 * k5 - 5:
            return Direction.DOWN

    return Direction.RIGHT


class ColorField:
    """Corner-lattice assignment for one ITER instance."""

    def __init__(self, inst: IterInstance):
        self.inst = inst
        self.columns, self.solutions = node_sets(inst)
        self.table = self.columns.table
        self.N = 6 * len(self.table) + 6

    def assignment(self, a: int, b: int) -> CornerAssignment:
        N = self.N
        if not (0 <= a <= N and 0 <= b <= N):
            raise ValueError(f"({a}, {b}) outside the corner lattice [0, {N}]^2")
        color = _grid_color(self.table, self.columns, N, a, b)
        direction = _grid_direction(self.table, self.columns, self.solutions, N, a, b)
        return CornerAssignment(
            value=regime_value(color, a, b, N), direction=direction, color=color
        )

    def x_cell_node(self, a: int, b: int) -> int | None:
        """The solution k whose X cells contain Box(a, b), else None.

        The X cells of a solution k are Box(a, 6k + 2) for a in
        {6k - 3, 6k - 2, 6k - 1}: the cells where the SOSP encoding k sits.
        """
        k, rem = divmod(a + 3, 6)
        if rem <= 2 and b == 6 * k + 2 and k in self.solutions:
            return k
        return None
