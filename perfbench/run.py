"""sospgrid benchmark: four workloads timed end to end, and per module.

Run from the root of a checkout (sospgrid is imported from ./src):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process, one thread, closed loop: an operation starts when the
previous one ends.  A run sets the workload up SETUP_REPEATS times, then
runs whole rounds of operations until the next round would end past
--seconds (at least one round), checking every output.  Every time it
reports is rescaled to a fixed reference speed (see refclock.py).  With
--trace 1 the run spends half its time untraced, then sets up afresh and
spends the other half recording spans around every call into a sospgrid
module (see spans.py).  It prints per-layer metrics and the tracing
overhead, and writes the spans to .perfbench/trace-<workload>-<seed>.json.
Workloads, metrics and reference figures are described in README.md.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
from refclock import REF_SECONDS, Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
IMPORT_REPEATS = 7  # an import takes 0.13-0.25 s from one second to the next
REF_AFTER_IMPORT = 5
WORKLOAD_NAMES = ("certify", "solve", "reduce", "large-n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Attempted, failed and timed operations of one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: list = []  # every operation, at reference speed
        self.ok: list[bool] = []
        self.raw_times: list[float] = []  # the same, as measured
        self.errors: list[str] = []
        self.work: dict = {}  # summed Workload.op_counts

    def add(self, workload, inp, out) -> None:
        """Checks one operation, whose time run_rounds has filed."""
        self.attempted += 1
        try:
            ok = workload.check(inp, out)
        except checks.CheckError as exc:
            self.errors.append(f"{inp!r:.200}: {exc}")
            ok = False
        self.ok.append(ok)
        if not ok:
            self.failed += 1
        for key, value in workload.op_counts(inp, out).items():
            self.work[key] = self.work.get(key, 0) + value

    @property
    def wall(self) -> float:
        """Summed duration of every operation, at reference speed."""
        return sum(self.times)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_times)

    def ok_times(self, raw: bool = False) -> list[float]:
        times = self.raw_times if raw else self.times
        return [t for t, ok in zip(times, self.ok) if ok]


def run_rounds(workload, seconds: float, tally: Tally, tracer=None) -> Clock:
    """Whole rounds, at least one, until the next would end past `seconds`.
    With a tracer, spans are recorded during each operation."""
    with Clock() as clock:
        if tracer is not None:
            tracer.now = lambda: time.perf_counter() - clock.paused
        start = time.perf_counter()
        r = 0
        while True:
            round_start = time.perf_counter()
            for inp in workload.inputs(r):
                if tracer is not None:
                    tracer.active = True
                with clock.timed(tally.raw_times, tally.times):
                    out = workload.run(inp)
                if tracer is not None:
                    tracer.active = False
                tally.add(workload, inp, out)
                out = None  # drop it now, or two outputs count in peak_rss_mb
            r += 1
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    return clock


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def import_seconds(src: str) -> float:
    """Median time of `import sospgrid` in IMPORT_REPEATS fresh interpreters,
    at reference speed.

    The run's own import would give one sample, taken at one moment of the
    machine's load.  Each child times the reference loop REF_AFTER_IMPORT
    times right after its import, in the same process, and its import
    time is rescaled by their median.  Each child is waited for.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import sospgrid; "
            "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
            "import refclock; "
            f"print(t, *(refclock.reference_sample() for _ in range({REF_AFTER_IMPORT})))")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, src, HERE], check=True,
                             stdout=subprocess.PIPE, text=True, timeout=120)
        seconds, *refs = map(float, out.stdout.split())
        times.append(seconds * REF_SECONDS / statistics.median(refs))
    return statistics.median(times)


def set_up(cls, seed: int):
    """SETUP_REPEATS fresh set-ups; returns the last workload and the
    seconds each took, at reference speed."""
    raw, times = [], []
    workload = None
    with Clock() as clock:
        for _ in range(SETUP_REPEATS):
            workload = None  # free the previous set-up first
            gc.collect()
            workload = cls(seed)
            with clock.timed(raw, times):
                workload.setup()
    return workload, times


def layer_metrics(layers, setup_summary, setup_counts, setup_s, summary,
                  counts, tally: Tally, untraced: Tally) -> dict:
    """Per-layer metrics of the traced phase (see README.md)."""
    ops = max(tally.attempted, 1)
    wall = tally.raw_wall  # span times are as measured
    op_counts = tally.work

    def pct(name):
        return 100 * summary.inclusive[name] / wall

    def per_op(value):
        return value / ops

    patch_calls = summary.calls["hard_instance.patch"]
    patch_misses = summary.child_counts[("hard_instance.patch",
                                         "biquintic.patch_from_corners")]
    iterations = op_counts.get("iterations", 0)
    objective_calls = summary.under("snap_solver.snap_run", "hard_instance.evaluate")
    cells = op_counts.get("cells", 0)
    overhead = 100 * ((tally.wall / tally.attempted)
                      / (untraced.wall / untraced.attempted) - 1)
    m = {
        "iter_problems.setup_oracle_calls": (setup_counts.get("iter_problems.C", 0), "count"),
        "iter_problems.oracle_calls_per_op": (per_op(counts.get("iter_problems.C", 0)), "count/op"),
        "color_field.node_sets_pct": (
            100 * setup_summary.inclusive["color_field.node_sets"] / setup_s, "%"),
        "color_field.assignments_per_op": (
            per_op(summary.calls["color_field.assignment"]), "count/op"),
        "color_field.assignment_pct": (pct("color_field.assignment"), "%"),
        "biquintic.patch_solves_per_op": (
            per_op(summary.calls["biquintic.patch_from_corners"]), "count/op"),
        "biquintic.patch_solve_pct": (pct("biquintic.patch_from_corners"), "%"),
        "biquintic.evals_hp_per_op": (per_op(summary.calls["biquintic.eval_hp"]), "count/op"),
        "biquintic.eval_hp_pct": (pct("biquintic.eval_hp"), "%"),
        "biquintic.eval_exact_pct": (pct("biquintic.eval_exact"), "%"),
        "hard_instance.evaluate_pct": (pct("hard_instance.evaluate"), "%"),
        "hard_instance.patch_hit_ratio": (
            1 - patch_misses / patch_calls if patch_calls else 0.0, "ratio"),
        "stationarity.verify_pct": (pct("stationarity.verify_sosp"), "%"),
        "stationarity.prox_gradient_pct": (pct("stationarity.proximal_gradient"), "%"),
        "stationarity.active_set_pct": (pct("stationarity.active_set"), "%"),
        "stationarity.min_eig_pct": (pct("stationarity.projected_hessian_min_eig"), "%"),
        "stationarity.project_pct": (pct("stationarity.project"), "%"),
        "snap_solver.iterations_per_op": (per_op(iterations), "count/op"),
        "snap_solver.objective_calls_per_op": (per_op(objective_calls), "count/op"),
        "snap_solver.objective_calls_per_iter": (
            objective_calls / iterations if iterations else 0.0, "ratio"),
        "snap_solver.line_search_pct": (pct("snap_solver.line_search"), "%"),
        "box_certifier.cells_per_s": (cells / tally.wall, "cells/s"),
        "box_certifier.interior_pct": (pct("bench.interior"), "%"),
        "box_certifier.x_cell_pct": (pct("bench.x_cell"), "%"),
        "box_certifier.boundary_pct": (pct("bench.boundary"), "%"),
        "box_certifier.classify_pct": (pct("bench.classify"), "%"),
        "box_certifier.samples_per_cell": (
            op_counts.get("samples", 0) / cells if cells else 0.0, "count"),
        "box_certifier.refined_cells_per_op": (per_op(op_counts.get("refined", 0)),
                                               "count/op"),
        "polytope_lattice.map_to_grid_pct": (pct("polytope_lattice.map_to_grid"), "%"),
        "polytope_lattice.bounces_per_op": (
            per_op(counts.get("polytope_lattice.bounces", 0)), "count/op"),
        "localopt_reduction.round_point_pct": (
            pct("localopt_reduction.round_point"), "%"),
        "localopt_reduction.potential_pct": (pct("localopt_reduction.potential"), "%"),
    }
    for layer in layers:
        m[f"{layer}.self_pct"] = (100 * summary.self_time[layer] / wall, "%")
    m["trace.overhead_pct"] = (overhead, "%")
    return m


def run_workload(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sospgrid", "__init__.py")):
        print(f"perfbench: no sospgrid sources under {src}", file=sys.stderr)
        return 2
    import_s = import_seconds(src)
    sys.path.insert(0, src)

    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workload, setup_times = set_up(cls, args.seed)
    workload.verify_setup()

    tally = Tally()
    if not args.trace:
        clock = run_rounds(workload, args.seconds, tally)
        phases = [tally]
    else:
        # Half the time untraced, then a fresh set-up and the same rounds
        # traced.  Both phases start with cold caches, so their mean
        # operation times give the overhead of tracing.
        untraced = Tally()
        run_rounds(workload, args.seconds / 2, untraced)
        workload = None
        gc.collect()
        tracer = spans.Tracer()
        tracer.install()
        workload = cls(args.seed)
        tracer.active = True
        t0 = time.perf_counter()
        workload.setup()
        traced_setup_s = time.perf_counter() - t0
        tracer.active = False
        setup_summary, setup_counts, setup_spans = tracer.take()
        workload.span = tracer.span
        run_rounds(workload, args.seconds / 2, tally, tracer)
        tracer.uninstall()
        phases = [untraced, tally]
    errors = [line for phase in phases for line in phase.errors]
    correct = not errors and tally.failed < tally.attempted
    for line in errors[:20]:
        print(f"CHECK FAILED {line}", file=sys.stderr)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if not args.trace:
        ok, raw_ok = tally.ok_times(), tally.ok_times(raw=True)
        nan = [float("nan")]
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "ops_per_s": (len(ok) / tally.wall, "ops/s"),
            "op_p50_ms": (1e3 * statistics.median(ok or nan), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        # As measured, for comparison; not part of the result.
        print(f"as measured: ops_per_s {len(raw_ok) / tally.raw_wall:.6g}, "
              f"op_p50_ms {1e3 * statistics.median(raw_ok or nan):.6g}; "
              f"reference loop median {1e3 * clock.median_sample():.4g} ms "
              f"(nominal {1e3 * REF_SECONDS:.4g} ms)")
        if len(ok) >= 100:
            print(f"op_p90_ms {1e3 * percentile(ok, 0.9):.6g} at reference speed "
                  f"({len(ok)} operations)")
    else:
        summary, counts, op_spans = tracer.take()
        metrics = layer_metrics(spans.LAYERS, setup_summary, setup_counts,
                                traced_setup_s, summary, counts, tally, untraced)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "names": tracer.names,
                       "setup_spans": [list(s) for s in setup_spans],
                       "spans": [list(s) for s in op_spans]}, fh)
            fh.write("\n")
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  "
          f"failed {failed}  correct {correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so that peak_rss_mb is its own)."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
