"""The four workloads: what one operation is, its inputs, and its checks.

Each workload builds its instances in ``setup``, hands out the inputs of
round r with ``inputs(r)``, runs one operation with ``run`` (the only timed
call) and checks its output with ``check``, which returns False for an
operation that failed and raises checks.CheckError for a wrong output.
Program functions are called through their modules (``box_certifier.
certify_cell``), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from fractions import Fraction

from sospgrid import (biquintic, box_certifier, hard_instance, iter_problems,
                      snap_solver, stationarity)
from sospgrid._precision import hp, to_fraction
from sospgrid.localopt_reduction import ReductionInstance

import checks

EPS = Fraction(1, 100)  # eps_G = eps_H in every exact check


def _no_span(name):
    return nullcontext()


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.span = _no_span  # replaced by Tracer.span in a traced run

    def setup(self) -> None:
        raise NotImplementedError

    def verify_setup(self) -> None:
        """Checks on what setup built; run once, outside the timings."""

    def inputs(self, r: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def op_counts(self, inp, out) -> dict:
        """Work counts read from an operation's output (per-layer metrics)."""
        return {}


# ---------------------------------------------------------------------------
# certify: box_certifier on the two n = 1 instances.
# ---------------------------------------------------------------------------


class Certify(Workload):
    """One operation classifies and certifies one cell, as
    certification_report does for each of its N^2 cells.

    A round is a fixed systematic sample: every STRIDE-th non-X cell of
    each instance in report order, plus the middle X cell of C = (2, 2).
    It does not depend on the seed: a seeded sample of cells would make
    the cost of a round depend on the seed (X cells take 4.9-7.1 s,
    interior cells 0.17-0.65 s).
    """

    name = "certify"
    TABLES = ((2, 2), (2, 1))
    STRIDE = 16
    BOUNDARY_RESOLUTION = 5  # certification_report's defaults
    RESOLUTION = 51

    def setup(self) -> None:
        self.cases = []
        for table in self.TABLES:
            inst = iter_problems.IterInstance(1, table)
            self.cases.append((inst, hard_instance.build(inst, "unit")))

    def _expected_x(self, i: int) -> frozenset:
        return checks.x_cells(checks.table_map(self.TABLES[i]), 1)

    def verify_setup(self) -> None:
        for i, (inst, _) in enumerate(self.cases):
            labels = box_certifier.classify_all(inst)
            checks.check_certify_setup(
                1, {cell: lab.kind for cell, lab in labels.items()},
                self._expected_x(i))

    def cells(self) -> list:
        out = []
        for i, (_, h) in enumerate(self.cases):
            xs = self._expected_x(i)
            order = [(a, b) for a in range(h.N) for b in range(h.N)
                     if (a, b) not in xs]
            out += [(i, cell) for cell in order[::self.STRIDE]]
        k = next(v for v in range(1, 3) if checks.is_iter_solution(
            checks.table_map(self.TABLES[0]), 2, v))
        out.append((0, (6 * k - 2, 6 * k + 2)))
        return out

    def inputs(self, r: int) -> list:
        return self.cells()

    def run(self, inp):
        i, (a, b) = inp
        h = self.cases[i][1]
        with self.span("bench.classify"):
            label = box_certifier.classify_cell(h.field, a, b)
        if label.kind == "Boundary":
            with self.span("bench.boundary"):
                rep = box_certifier.boundary_prox_check(
                    h, [(a, b)], self.BOUNDARY_RESOLUTION)[0]
            return label.kind, rep.passed, self.BOUNDARY_RESOLUTION ** 2, False
        with self.span("bench.x_cell" if label.kind == "X" else "bench.interior"):
            rep = box_certifier.certify_cell(h, a, b, resolution=self.RESOLUTION)
        return label.kind, rep.passed, rep.sample_count, rep.refined

    def check(self, inp, out) -> bool:
        i, cell = inp
        kind, passed, _, _ = out
        checks.check_certify_cell(cell, self.cases[i][1].N, self._expected_x(i),
                                  kind, passed)
        return True

    def op_counts(self, inp, out) -> dict:
        return {"cells": 1, "samples": out[2], "refined": int(out[3])}


# ---------------------------------------------------------------------------
# solve: snap_run from the `sospgrid solve --seed s` starts.
# ---------------------------------------------------------------------------


class Solve(Workload):
    """One operation is ``sospgrid solve --seed s``: snap_run (adaptive,
    eps_G = eps_H = 1e-2, max_iter 20000, moderate scale) from the seeded
    start, then decode_scaled.  The round is the 15 solves of criterion 6's
    instances with s = 1..5, in that order, whatever the seed: their costs
    differ 200-fold, and a seeded order moved peak_rss_mb by up to 6 %,
    since the caches that fill before the longest solve stay in memory
    during it.
    """

    name = "solve"
    TABLES = ((2, 2), (3, 4, 4, 1), (2, 3, 4, 4))
    STARTS = (1, 2, 3, 4, 5)
    MAX_ITER = 20000

    def setup(self) -> None:
        self.cases = []
        for table in self.TABLES:
            inst = iter_problems.IterInstance(len(table).bit_length() - 1, table)
            h = hard_instance.build(inst, "moderate")
            self.cases.append((h, h.lipschitz_report(), h.domain_polytope(),
                               h.objective(exact=False)))

    @staticmethod
    def start(s: int) -> tuple:
        """The start point of `sospgrid solve --seed s` on [0, 1]^2."""
        rng = random.Random(s)
        return (Fraction(rng.randrange(1, 1000), 1000),
                Fraction(rng.randrange(1, 1000), 1000))

    def inputs(self, r: int) -> list:
        return [(i, s) for i in range(len(self.TABLES)) for s in self.STARTS]

    def run(self, inp):
        i, s = inp
        h, rec, poly, obj = self.cases[i]
        trace = snap_solver.snap_run(obj, poly, self.start(s), 1e-2, 1e-2,
                                     rec.L1, rec.L2, max_iter=self.MAX_ITER,
                                     adaptive=True)
        final = trace.final_point
        return trace, h.decode_scaled(final[0], final[1])

    def check(self, inp, out) -> bool:
        i, s = inp
        trace, decoded = out
        h, rec, poly, _ = self.cases[i]
        table = self.TABLES[i]
        x0 = self.start(s)
        final = tuple(to_fraction(c) for c in trace.final_point)
        f_start = h.evaluate(x0[0], x0[1], exact=True).f
        f_final = h.evaluate(final[0], final[1], exact=True).f
        exact = stationarity.verify_sosp(h.objective(exact=True), poly, final,
                                         EPS, EPS, rec.L1, exact=True)
        checks.check_solve(trace.converged, decoded,
                           checks.is_iter_solution(checks.table_map(table),
                                                   len(table), decoded),
                           f_start, f_final, exact.passed)
        return True

    def op_counts(self, inp, out) -> dict:
        return {"iterations": out[0].iterations}


# ---------------------------------------------------------------------------
# reduce: round_point + improvement_check on the moderate n = 1 instance.
# ---------------------------------------------------------------------------


class Reduce(Workload):
    """One operation rounds a raw point onto the grid (round_point) and runs
    improvement_check there, over the instance's box (floor-to-gamma grid)
    and over the box cut by x + y <= 3/2 (map_to_grid, exact projection).

    Some operations end in a "violation" verdict because of a fault in the
    program (see CHANGES.md); those count as failed.  So that the failed
    share is the same in every run, the raw points do not depend on the
    seed: they come from random.Random(POINTS_SEED).
    """

    name = "reduce"
    TABLE = (2, 2)
    CUT = ((1, 1), Fraction(3, 2))
    POINTS_SEED = 0
    BOX_POINTS = 40
    CUT_POINTS = 80
    DENOMINATOR = 10**6

    def setup(self) -> None:
        inst = iter_problems.IterInstance(1, self.TABLE)
        self.h = h = hard_instance.build(inst, "moderate")
        rec = h.lipschitz_report()
        box = h.domain_polytope()
        cut = box.with_cut(*self.CUT)
        obj = h.objective(exact=False)
        self.reductions = [ReductionInstance(obj, poly, EPS, EPS, rec.L, rec.L1, rec.L2)
                           for poly in (box, cut)]

    @classmethod
    def raw_points(cls) -> list:
        """(polytope index, raw point): uniform on the box, rejection-sampled
        into x + y <= 3/2 for the cut polytope."""
        rng = random.Random(cls.POINTS_SEED)
        den = cls.DENOMINATOR

        def draw():
            return (Fraction(rng.randrange(0, den + 1), den),
                    Fraction(rng.randrange(0, den + 1), den))

        out = [(0, draw()) for _ in range(cls.BOX_POINTS)]
        (a1, a2), rhs = cls.CUT
        while len(out) < cls.BOX_POINTS + cls.CUT_POINTS:
            p = draw()
            if a1 * p[0] + a2 * p[1] <= rhs:
                out.append((1, p))
        return out

    def inputs(self, r: int) -> list:
        return self.raw_points()

    def run(self, inp):
        k, raw = inp
        red = self.reductions[k]
        x = red.round_point(raw)
        return x, red.improvement_check(x)

    def _on_grid(self, red: ReductionInstance, x) -> bool:
        poly = red.poly
        if not checks.feasible(poly.A, poly.b, x):
            return False
        if red.gamma is not None:
            lo, _ = poly.box_bounds
            return all((c - l) % red.gamma == 0 for c, l in zip(x, lo))
        if checks.dim_null(poly.A, poly.b, x) == 2:
            # No active row: the face lattice is delta * Z^2.
            return all(c % red.delta == 0 for c in x)
        return red.on_grid(x)  # face lattices are the program's definition

    def potential(self, red: ReductionInstance, x) -> Fraction:
        f = self.h.evaluate(x[0], x[1], exact=True).f
        return f + red.weight * checks.dim_null(red.poly.A, red.poly.b, x)

    def check(self, inp, out) -> bool:
        k, _ = inp
        x, verdict = out
        red = self.reductions[k]
        y = verdict.g_x
        grid_ok = self._on_grid(red, x) and self._on_grid(red, y)
        if verdict.kind == "violation" or not grid_ok:
            return checks.check_reduce(verdict.kind, grid_ok, None, None, False)
        if verdict.kind == "solution":
            node = self.h.decode_scaled(x[0], x[1])
            ok = checks.is_iter_solution(checks.table_map(self.TABLE), 2, node)
            return checks.check_reduce(verdict.kind, True, None, None, ok)
        return checks.check_reduce(verdict.kind, True, self.potential(red, x),
                                   self.potential(red, y), False)


# ---------------------------------------------------------------------------
# large-n: hash-defined, procedure-backed instances.
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finaliser."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def hashed_map(seed: int, n: int):
    """C(v) = 1 + mix64(key ^ v) mod 2^n, key = mix64(mix64(seed) ^ n);
    C(1) is drawn from 2..2^n so that C(1) > 1."""
    size = 1 << n
    key = mix64(mix64(seed) ^ n)

    def C(v: int) -> int:
        z = mix64(key ^ v)
        return 2 + z % (size - 1) if v == 1 else 1 + z % size

    return C


def stationary_point(patch, a: int, b: int):
    """Damped Newton on grad f = 0 in Box(a, b), in hp; None unless it
    converges inside the cell.  It starts at local (1/2, 2^-30): the SOSP of
    a middle X cell lies just above the cell's lower edge (local y from
    3e-6 at n = 1 to 2e-8 at n = 16), and Newton from the centre leaves
    the cell.  Input generation only, never timed."""
    start = hp(2) ** -30
    x, y = hp(a) + hp(1) / 2, hp(b) + start
    tiny = hp(2) ** -150
    for _ in range(40):
        _, (fx, fy), ((fxx, fxy), (_, fyy)) = patch.eval(x, y, exact=False)
        det = fxx * fyy - fxy * fxy
        if det == 0:
            return None
        sx = (fy * fxy - fx * fyy) / det
        sy = (fx * fxy - fy * fxx) / det
        t = hp(1)
        while not (a < x + t * sx < a + 1 and b < y + t * sy < b + 1):
            t /= 2
            if t < start:
                return None
        x, y = x + t * sx, y + t * sy
        if t == 1 and abs(sx) + abs(sy) < tiny:
            return x, y
    return None


class LargeN(Workload):
    """One operation takes one point of [0, 1]^2 on a moderate-scale
    instance with n in NS: verify_sosp exact, verify_sosp hp, decode_scaled.

    Per instance, a round has one Newton-polished stationary point of an X
    cell, one uniform point of an X cell, and UNIFORM uniform points of the
    square, all drawn afresh from (seed, round), so the patch cache misses
    as it does for a user querying new points.
    """

    name = "large-n"
    NS = (16, 17, 18)
    UNIFORM = 4
    POINT_BITS = 40

    def setup(self) -> None:
        self.cases = []
        for n in self.NS:
            C = hashed_map(self.seed, n)
            h = hard_instance.build(iter_problems.IterInstance(n=n, proc=C),
                                    "moderate")
            self.cases.append((n, C, h, h.lipschitz_report(), h.domain_polytope()))

    def _solution_node(self, rng, C, n) -> int:
        while True:
            k = rng.randrange(1, (1 << n) + 1)
            if checks.is_iter_solution(C, 1 << n, k):
                return k

    def inputs(self, r: int) -> list:
        rng = random.Random(f"large-n:{self.seed}:{r}")
        one = 1 << self.POINT_BITS
        out = []
        for i, (n, C, h, _, _) in enumerate(self.cases):
            N = h.N

            def in_x_cell(a, b):
                return (i, ((a + Fraction(rng.randrange(1, one), one)) / N,
                            (b + Fraction(rng.randrange(1, one), one)) / N))

            # The middle X cell of a solution column holds an SOSP (see
            # stationary_point).  Its patch comes from patch_from_corners,
            # not h.patch, so that the timed operation finds the patch cache
            # as cold as any other fresh point does.
            k = self._solution_node(rng, C, n)
            a, b = 6 * k - 2, 6 * k + 2
            field = h.field
            patch = biquintic.patch_from_corners(
                a, b, field.assignment(a, b), field.assignment(a, b + 1),
                field.assignment(a + 1, b), field.assignment(a + 1, b + 1))
            pt = stationary_point(patch, a, b)
            out.append((i, tuple(to_fraction(c) / N for c in pt))
                       if pt is not None else in_x_cell(a, b))
            k = self._solution_node(rng, C, n)
            out.append(in_x_cell(6 * k - 3 + rng.randrange(3), 6 * k + 2))
            for _ in range(self.UNIFORM):
                out.append((i, (Fraction(rng.randrange(0, one + 1), one),
                                Fraction(rng.randrange(0, one + 1), one))))
        return out

    def run(self, inp):
        i, x = inp
        _, _, h, rec, poly = self.cases[i]
        exact = stationarity.verify_sosp(h.objective(exact=True), poly, x,
                                         EPS, EPS, rec.L1, exact=True)
        approx = stationarity.verify_sosp(h.objective(exact=False), poly, x,
                                          1e-2, 1e-2, rec.L1)
        return exact.passed, approx.passed, h.decode_scaled(x[0], x[1])

    def check(self, inp, out) -> bool:
        i, x = inp
        n, C, _, _, _ = self.cases[i]
        exact_passed, hp_passed, decoded = out
        checks.check_large_point(exact_passed, hp_passed, decoded,
                                 checks.expected_decode(C, n, x),
                                 checks.is_iter_solution(C, 1 << n, decoded))
        return True


WORKLOADS = {w.name: w for w in (Certify, Solve, Reduce, LargeN)}
