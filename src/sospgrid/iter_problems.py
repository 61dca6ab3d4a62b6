"""ITER instances, their solution check, and a brute-force oracle.

An ITER instance is a total mapping C on {1, ..., 2^n} with C(1) > 1.  A
node v solves it iff C(v) < v, or C(v) > v and C(C(v)) = C(v): the rule
solves(C, v), which iter_is_solution and color_field's solution view both
read.  The reduction's local-search instance is
localopt_reduction.ReductionInstance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class IterInstance:
    """Successor mapping C on [2^n], table-backed or procedure-backed.

    The table is 1-indexed via ``table[v - 1]``.  A procedure (for large n)
    is called on every lookup, and its value range-checked each time;
    nothing is memoized, so it must be deterministic, side-effect-free and
    cheap.
    """

    n: int
    table: Optional[tuple[int, ...]] = None
    proc: Optional[Callable[[int], int]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if (self.table is None) == (self.proc is None):
            raise ValueError("exactly one of table/proc must be given")
        if self.table is not None:
            size = 1 << self.n
            if len(self.table) != size:
                raise ValueError(f"table must have 2^n entries for n = {self.n}, "
                                 f"got {len(self.table)}")
            for v, cv in enumerate(self.table, start=1):
                if not 1 <= cv <= size:
                    raise ValueError(f"C({v}) = {cv} out of range [1, {size}]")
            if self.table[0] <= 1:
                raise ValueError("instance requires C(1) > 1")

    @cached_property
    def size(self) -> int:
        return 1 << self.n

    def C(self, v: int) -> int:
        if not 1 <= v <= self.size:
            raise ValueError(f"node {v} out of range [1, {self.size}]")
        if self.table is not None:
            return self.table[v - 1]
        cv = self.proc(v)
        if not 1 <= cv <= self.size:
            raise ValueError(f"C({v}) = {cv} out of range [1, {self.size}]")
        return cv


def solves(C: Callable[[int], int], v: int) -> bool:
    """True iff node v solves ITER under the lookup C (module docstring)."""
    cv = C(v)
    return cv < v or (cv > v and C(cv) == cv)


def iter_is_solution(inst: IterInstance, v: int) -> bool:
    """True iff node v solves the instance (solves over inst.C)."""
    return solves(inst.C, v)


def iter_solve_brute(inst: IterInstance) -> int:
    """Least solution node, by exhaustive scan (table instances, n <= 20).

    One always exists: follow C from node 1 (C(1) > 1); the walk either
    steps left at some point or reaches a fixed point from its left.
    """
    if inst.table is None:
        raise ValueError("brute-force scan requires a table-backed instance")
    if inst.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force scan limited to n <= {BRUTE_FORCE_LIMIT}")
    for v in range(1, inst.size + 1):
        if iter_is_solution(inst, v):
            return v
    raise AssertionError("unreachable: every valid instance has a solution")


def load_instance(path: str | Path) -> IterInstance:
    """Load {"n": int, "C": [1-indexed ints]} from a JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "n" not in data or "C" not in data:
        raise ValueError('instance file must be {"n": int, "C": [ints]}')
    n = data["n"]
    table = data["C"]
    # type(v) is int: JSON's true and false load as bool, an int subclass.
    if type(n) is not int or not isinstance(table, list):
        raise ValueError('instance file must be {"n": int, "C": [ints]}')
    if not all(type(v) is int for v in table):
        raise ValueError("C entries must be integers")
    return IterInstance(n=n, table=tuple(table))


def save_instance(inst: IterInstance, path: str | Path) -> None:
    if inst.table is None:
        raise ValueError("only table-backed instances can be serialized")
    with open(path, "w") as fh:
        json.dump({"n": inst.n, "C": list(inst.table)}, fh)
        fh.write("\n")
