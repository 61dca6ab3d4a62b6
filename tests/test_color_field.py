"""Color regimes, directions, and node sets on the corner lattice."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from sospgrid.color_field import (
    COLOR_ORDER,
    Color,
    ColorField,
    Direction,
    GridGeometry,
    node_sets,
    regime_value,
)
from sospgrid.iter_problems import IterInstance


def test_grid_size():
    assert GridGeometry(1).N == 18
    assert GridGeometry(2).N == 30
    assert GridGeometry(3).N == 54


@pytest.mark.parametrize("n", [1, 2])
def test_color_order_holds_everywhere(n):
    N = GridGeometry(n).N
    for a in range(N + 1):
        for b in range(N + 1):
            values = [regime_value(c, a, b, N) for c in COLOR_ORDER]
            assert values == sorted(values)
            assert len(set(values)) == 5


def test_regime_value_formulas():
    N = 18
    a, b = Fraction(7), Fraction(3)
    assert regime_value(Color.BLUE, a, b, N) == 10**4 * N - a - b
    assert regime_value(Color.BLACK, a, b, N) == (10**6 + 1) * N + a - b
    assert regime_value(Color.RED, a, b, N) == 10**4 * (10**4 - 2) * N - a + b
    assert regime_value(Color.GREEN, a, b, N) == 10**15 * N + a - b
    assert regime_value(Color.ORANGE, a, b, N) == 10**16 * N - a + b


def test_direction_gradients():
    # The stored vector is grad f; the name is where -grad f points.
    assert Direction.UP.grad == (0, Fraction(-1, 2))
    assert Direction.DOWN.grad == (0, Fraction(1, 2))
    assert Direction.LEFT.grad == (Fraction(1, 2), 0)
    assert Direction.RIGHT.grad == (Fraction(-1, 2), 0)


def test_node_sets_n1():
    columns, solutions = node_sets(IterInstance(1, (2, 2)))
    assert columns == {1}
    assert solutions == {1}


def test_node_sets_n2():
    columns, solutions = node_sets(IterInstance(2, (3, 4, 4, 1)))
    assert columns == {1, 2, 3, 4}
    # C(4) = 1 < 4 solves; C(2) = 4 > 2 with C(4) = 1 != 4 does not.
    assert solutions == {4}


def test_census_n1_matches_range_formulas():
    """Counts derived by hand from the affine region ranges for C = (2, 2)."""
    field = ColorField(IterInstance(1, (2, 2)))
    got = Counter(field.assignment(a, b).color.value
                  for a in range(field.N + 1) for b in range(field.N + 1))
    assert got == {"blue": 19, "black": 12, "green": 64, "orange": 72,
                   "red": 194}


def test_boundary_frame_directions():
    field = ColorField(IterInstance(1, (2, 2)))
    N = field.N
    # bottom edge (a >= 2) points up, top edge (a >= 2) points down,
    # left edge is orange, right-edge interior band is green/left.
    assert field.assignment(5, 0).direction is Direction.UP
    assert field.assignment(5, N).direction is Direction.DOWN
    assert field.assignment(0, 9).color is Color.ORANGE
    assert field.assignment(N, 9).color is Color.GREEN
    assert field.assignment(N, 9).direction is Direction.LEFT


def test_assignment_rejects_off_lattice():
    field = ColorField(IterInstance(1, (2, 2)))
    with pytest.raises(ValueError):
        field.assignment(-1, 0)
    with pytest.raises(ValueError):
        field.assignment(0, field.N + 1)


def test_values_are_regime_consistent():
    field = ColorField(IterInstance(2, (3, 4, 4, 1)))
    for (a, b) in [(0, 0), (7, 8), (20, 3), (29, 29), (13, 2)]:
        asn = field.assignment(a, b)
        assert asn.value == regime_value(asn.color, a, b, field.N)
        assert asn.f_xx == Fraction(-1, 2)
        assert asn.f_yy == Fraction(-1, 2)
        assert asn.f_xy == 0


def test_procedure_backed_field_reads_each_node_once():
    """Building a ColorField reads each C(k) of a procedure exactly once,
    and gives the node sets of the same map given as a table."""
    n = 10
    size = 1 << n

    def successor(v):
        z = (v * 0x9E3779B1) % (1 << 32)
        z ^= z >> 15
        return 2 + z % (size - 1) if v == 1 else 1 + z % size

    calls = Counter()

    def counted(v):
        calls[v] += 1
        return successor(v)

    field = ColorField(IterInstance(n, proc=counted))
    assert sum(calls.values()) == size
    table = tuple(successor(v) for v in range(1, size + 1))
    columns, solutions = node_sets(IterInstance(n, table=table))
    assert (field.columns, field.solutions) == (columns, solutions)
    assert 0 < len(solutions) < len(columns) <= size


def test_out_of_range_procedure_value_raises_on_every_call():
    inst = IterInstance(2, proc=lambda v: 5)
    for _ in range(2):
        with pytest.raises(ValueError):
            inst.C(1)
