"""Correctness checks for the benchmark's operations.

Each check takes an operation's outputs as plain values and raises
CheckError when they are wrong.  The expected values come from computations
made here, apart from sospgrid: the ITER solution predicate, the X-cell
positions, the decoded node of a point, feasibility and the active-set
dimension on a rational polytope.  Where no independent computation exists
the check tests a property the method must have (f decreases, the potential
strictly drops).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence


class CheckError(AssertionError):
    """An operation's output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---- ITER structure --------------------------------------------------------


def is_iter_solution(C: Callable[[int], int], size: int, v) -> bool:
    """v solves ITER iff C(v) < v, or C(v) > v and C(C(v)) = C(v)."""
    if not isinstance(v, int) or not 1 <= v <= size:
        return False
    cv = C(v)
    return cv < v or (cv > v and C(cv) == cv)


def table_map(table: Sequence[int]) -> Callable[[int], int]:
    return lambda v: table[v - 1]


def grid_size(n: int) -> int:
    """N = 6 * 2^n + 6 cells per side."""
    return 6 * (1 << n) + 6


def x_cells(C: Callable[[int], int], n: int) -> frozenset:
    """The cells (6k-3 .. 6k-1, 6k+2) over every ITER solution k."""
    size = 1 << n
    return frozenset((a, 6 * k + 2)
                     for k in range(1, size + 1) if is_iter_solution(C, size, k)
                     for a in (6 * k - 3, 6 * k - 2, 6 * k - 1))


def cell_of(u, N: int) -> tuple[int, int]:
    """Cell of an unscaled point of [0, N]^2, the far edge in the last cell."""
    return tuple(min(math.floor(c), N - 1) for c in u)


def expected_decode(C: Callable[[int], int], n: int, x) -> Optional[int]:
    """ITER node an exact point of [0, 1]^2 must decode to, or None."""
    N = grid_size(n)
    a, b = cell_of([Fraction(c) * N for c in x], N)
    k = (a + 3) // 6
    if (1 <= k <= 1 << n and 6 * k - 3 <= a <= 6 * k - 1 and b == 6 * k + 2
            and is_iter_solution(C, 1 << n, k)):
        return k
    return None


# ---- rational polytopes {x : A x <= b} -------------------------------------


def feasible(A, b, x) -> bool:
    return all(sum(Fraction(ai) * xi for ai, xi in zip(row, x)) <= bi
               for row, bi in zip(A, b))


def dim_null(A, b, x) -> int:
    """d minus the rank of the rows active at x (exact, d = 2)."""
    active = [row for row, bi in zip(A, b)
              if sum(Fraction(ai) * xi for ai, xi in zip(row, x)) == bi]
    if not active:
        return 2
    for r1 in active:
        for r2 in active:
            if r1[0] * r2[1] - r1[1] * r2[0] != 0:
                return 0
    return 1


# ---- per-workload checks -----------------------------------------------------


def check_certify_setup(n: int, labels: dict, expected_x: frozenset) -> None:
    """classify_all covers N^2 cells and labels exactly the X cells "X"."""
    N = grid_size(n)
    require(len(labels) == N * N and all((a, b) in labels
                                         for a in range(N) for b in range(N)),
            f"classify_all returned {len(labels)} cells, expected N^2 = {N * N}")
    got_x = frozenset(cell for cell, kind in labels.items() if kind == "X")
    require(got_x == expected_x,
            f"X cells {sorted(got_x)} differ from the solution cells {sorted(expected_x)}")


def check_certify_cell(cell, N: int, expected_x: frozenset, label: str,
                       passed: bool) -> None:
    """X cells fail; boundary and every other interior cell pass."""
    a, b = cell
    if cell in expected_x:
        require(label == "X", f"cell {cell} over a solution labelled {label}")
        require(not passed, f"X cell {cell} passed its no-SOSP certificate")
    elif a in (0, N - 1) or b in (0, N - 1):
        require(label == "Boundary", f"boundary cell {cell} labelled {label}")
        require(passed, f"boundary cell {cell} failed its prox-gradient check")
    else:
        require(label not in ("X", "Boundary"),
                f"interior cell {cell} labelled {label}")
        require(passed, f"interior cell {cell} ({label}) failed certification")


def check_solve(converged: bool, decoded, is_solution: bool, f_start: Fraction,
                f_final: Fraction, exact_sosp: bool) -> None:
    require(converged, "snap_run did not converge")
    require(decoded is not None and is_solution,
            f"final point decodes to {decoded}, not an ITER solution")
    require(f_final < f_start, "f at the final point is not below f at the start")
    require(exact_sosp, "exact verify_sosp rejects the final point")


def check_reduce(kind: str, grid_ok: bool, p_x: Fraction, p_y: Fraction,
                 decoded_ok: bool) -> bool:
    """True for an improvement or a solution, False for a violation.

    grid_ok says that the rounded start point and the neighbour are feasible
    grid points; p_x and p_y are the exactly recomputed potentials.
    """
    require(grid_ok, "a rounded point is off the grid or infeasible")
    if kind == "violation":
        return False
    if kind == "solution":
        require(decoded_ok, "a solution verdict does not decode to an ITER solution")
        return True
    require(kind in ("improved-C1", "improved-C2"), f"unknown verdict {kind!r}")
    require(p_y < p_x, f"{kind}: the exact potential does not strictly drop")
    return True


def check_large_point(exact_passed: bool, hp_passed: bool, decoded,
                      expected: Optional[int], is_solution: bool) -> None:
    require(exact_passed == hp_passed,
            f"exact verdict {exact_passed} differs from hp verdict {hp_passed}")
    require(decoded == expected, f"point decodes to {decoded}, expected {expected}")
    if exact_passed:
        require(decoded is not None and is_solution,
                f"an SOSP decodes to {decoded}, not an ITER solution")
