"""ITER instances: validation, solution predicate, brute-force search, IO."""

from __future__ import annotations

import pytest

from sospgrid.iter_problems import (
    IterInstance,
    iter_is_solution,
    iter_solve_brute,
    load_instance,
    save_instance,
)


def brute_is_solution(table: tuple[int, ...], v: int) -> bool:
    """Independent restatement of the solution predicate."""
    C = dict(enumerate(table, start=1))
    return C[v] < v or (C[v] > v and C[C[v]] == C[v])


def test_instance_validation():
    with pytest.raises(ValueError):
        IterInstance(1, (1, 2))  # C(1) must exceed 1
    with pytest.raises(ValueError):
        IterInstance(1, (2, 3))  # out of range
    with pytest.raises(ValueError):
        IterInstance(1, (2,))  # wrong size


@pytest.mark.parametrize(
    "n, table",
    [
        (1, (2, 2)),
        (1, (2, 1)),
        (2, (3, 4, 4, 1)),
        (2, (2, 3, 4, 4)),
        (3, (5, 1, 2, 8, 6, 6, 3, 8)),
    ],
)
def test_solution_predicate_matches_oracle(n, table):
    inst = IterInstance(n, table)
    for v in range(1, inst.size + 1):
        assert iter_is_solution(inst, v) == brute_is_solution(table, v)


@pytest.mark.parametrize(
    "n, table",
    [(1, (2, 2)), (2, (3, 4, 4, 1)), (3, (5, 1, 2, 8, 6, 6, 3, 8))],
)
def test_brute_solver_returns_a_solution(n, table):
    inst = IterInstance(n, table)
    v = iter_solve_brute(inst)
    assert iter_is_solution(inst, v)


def test_every_instance_has_a_solution():
    # C(1) > 1 forces either a decrease somewhere or a fixed point above it.
    n = 2
    import itertools

    for table in itertools.product(range(1, 5), repeat=4):
        if table[0] <= 1:
            continue
        inst = IterInstance(n, table)
        assert any(iter_is_solution(inst, v) for v in range(1, 5))


def test_io_roundtrip(tmp_path):
    inst = IterInstance(2, (3, 4, 4, 1))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    assert again.table == (3, 4, 4, 1)


# JSON true loads as a bool, which is an int, but it is not n = 1 or the
# node 1.
@pytest.mark.parametrize("payload", ['{"n": 1, "C": [1, 2]}',
                                     '{"n": true, "C": [2, 2]}',
                                     '{"n": 1, "C": [2, true]}'],
                         ids=["c1_is_1", "bool_n", "bool_node"])
def test_load_rejects_bad_payload(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValueError):
        load_instance(path)


@pytest.mark.parametrize("n", [100, 20000])
def test_load_names_the_table_size_by_n(tmp_path, n):
    """A table of the wrong length is refused by naming 2^n through n: 2^n
    in decimal has 31 digits at n = 100 and, at n = 20000, more than
    Python's int-to-string limit, which raised in place of this message."""
    path = tmp_path / "big.json"
    path.write_text(f'{{"n": {n}, "C": [2, 2]}}')
    with pytest.raises(ValueError) as err:
        load_instance(path)
    assert str(err.value) == f"table must have 2^n entries for n = {n}, got 2"
