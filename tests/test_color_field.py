"""Color regimes, directions, and node sets on the corner lattice."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sospgrid.box_certifier import classify_cell
from sospgrid.color_field import (
    COLOR_ORDER,
    Color,
    ColorField,
    Direction,
    node_sets,
    regime_value,
)
from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance, iter_is_solution


def test_grid_size():
    assert ColorField(IterInstance(1, (2, 2))).N == 18
    assert ColorField(IterInstance(2, (3, 4, 4, 1))).N == 30
    assert ColorField(IterInstance(3, proc=lambda v: 8)).N == 54


@pytest.mark.parametrize("n", [1, 2])
def test_color_order_holds_everywhere(n):
    N = 6 * 2**n + 6
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


def test_procedure_with_c1_equal_to_1_is_refused():
    with pytest.raises(ValueError, match=r"C\(1\) > 1"):
        ColorField(IterInstance(1, proc=lambda v: 1))


def test_out_of_range_procedure_value_raises_on_every_call():
    inst = IterInstance(2, proc=lambda v: 5)
    for _ in range(2):
        with pytest.raises(ValueError):
            inst.C(1)


def frozenset_node_sets(inst):
    """The node sets as the frozensets that node_sets once built."""
    columns = frozenset(k for k, ck in enumerate(inst.table, start=1) if ck != k)
    solutions = frozenset(k for k in range(1, inst.size + 1) if iter_is_solution(inst, k))
    return columns, solutions


@st.composite
def iter_tables(draw):
    """Valid tables with n <= 4 whose entries are fixed points, steps left
    and steps right, so that chains of two steps right end at a fixed point
    or not."""
    n = draw(st.integers(1, 4))
    size = 1 << n
    table = [draw(st.one_of(st.just(k), st.integers(1, size)))
             for k in range(1, size + 1)]
    table[0] = draw(st.integers(2, size))
    return IterInstance(n, tuple(table))


@settings(deadline=None, max_examples=200)
@given(iter_tables())
@example(IterInstance(2, (2, 3, 3, 1)))  # 1 -> 2 -> 3 = C(3): 2 solves, 1 does not
@example(IterInstance(3, (8, 2, 1, 4, 5, 6, 7, 8)))  # fixed points and one step left
def test_node_set_views_equal_the_frozensets(inst):
    columns, solutions = node_sets(inst)
    for view, ref in zip((columns, solutions), frozenset_node_sets(inst)):
        assert [k in view for k in range(-1, inst.size + 3)] == [
            k in ref for k in range(-1, inst.size + 3)]
        # A frozenset of ints iterates in hash-table order ({3, 16} gives
        # 16 first); a view iterates in increasing k.
        assert list(view) == sorted(ref)
        assert len(view) == len(ref)
        assert view == ref and ref == view and not view != ref
        assert view != ref | {inst.size + 1}


@pytest.mark.parametrize("n, table", [(1, (2, 2)), (2, (3, 4, 4, 1)), (2, (2, 3, 4, 4))])
def test_cells_read_off_the_views_equal_the_frozenset_field(n, table):
    """x_cell_node and classify_cell agree with a field that holds the
    frozensets, on every cell of criterion 6's instances."""
    inst = IterInstance(n, table)
    field, reference = ColorField(inst), ColorField(inst)
    reference.columns, reference.solutions = frozenset_node_sets(inst)
    for a in range(field.N):
        for b in range(field.N):
            assert field.x_cell_node(a, b) == reference.x_cell_node(a, b)
            assert classify_cell(field, a, b) == classify_cell(reference, a, b)


_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finaliser."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def hashed_map(seed: int, n: int):
    """The hash-defined map of the large-n benchmark: C(v) = 1 + mix64(key ^ v)
    mod 2^n, key = mix64(mix64(seed) ^ n), and C(1) drawn from 2..2^n."""
    size = 1 << n
    key = mix64(mix64(seed) ^ n)

    def C(v: int) -> int:
        z = mix64(key ^ v)
        return 2 + z % (size - 1) if v == 1 else 1 + z % size

    return C


def test_hashed_n16_build_reads_c_once_and_keeps_one_table():
    """An n = 16 hash-defined instance is built with 2^16 procedure calls
    into under 4 MB (the frozenset node sets kept 6.75 MB), and a fresh
    point is then evaluated without calling the procedure."""
    n = 16
    C = hashed_map(1, n)
    calls = [0]

    def counted(v):
        calls[0] += 1
        return C(v)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = build(IterInstance(n, proc=counted), "moderate")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert calls[0] == 1 << n
    assert retained < 4 * 2**20
    k = min(h.field.solutions)
    h.evaluate(Fraction(6 * k - 2, h.N) + Fraction(1, 3 * h.N),
               Fraction(6 * k + 2, h.N) + Fraction(1, 5 * h.N))
    assert calls[0] == 1 << n
