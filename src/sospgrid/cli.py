"""Command-line surface for the package.

Subcommands: gen, verify, render, solve, reduce, classify.
Exit codes: 0 success/pass, 1 semantic failure (e.g. not an SOSP,
certification failure), 2 usage or validation error.  High-precision
arithmetic runs at the fixed 192 bits of _precision; no subcommand sets it.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

import click

from .box_certifier import (ClassificationError, certification_report,
                            certify_labelled_cell, classify_all,
                            classify_cell)
from .color_field import ColorField
from .hard_instance import ScaleMode, build
from .iter_problems import IterInstance, iter_is_solution, load_instance
from .localopt_reduction import ReductionInstance
from .snap_solver import snap_run
from .stationarity import Polytope, verify_sosp

_COLOR_HEX = {
    "blue": "#1f77b4",
    "black": "#222222",
    "red": "#d62728",
    "green": "#2ca02c",
    "orange": "#ff7f0e",
}


def _load(path: str) -> IterInstance:
    try:
        return load_instance(path)
    except (OSError, ValueError, KeyError) as exc:
        raise click.UsageError(f"invalid instance file {path!r}: {exc}")


def _parse_number(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"cannot parse number {text!r}: {exc}")


def _eps_option(name: str, default: str, steps: bool):
    """An eps >= 0 read by _parse_number, and > 0 for a command that steps
    (its line search or grid needs it)."""
    def parse(ctx, param, text: str) -> Fraction:
        eps = _parse_number(text)
        if eps < 0 or steps and eps == 0:
            raise click.BadParameter(f"{text} must be {'>' if steps else '>='} 0")
        return eps
    return click.option(name, callback=parse, default=default,
                        show_default=True)


def _scale_option(default: str):
    """--scale, one of the ScaleMode values."""
    return click.option("--scale", type=click.Choice([m.value for m in ScaleMode]),
                        default=default, show_default=True)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@click.group()
def main() -> None:
    """Hard-instance toolkit: generation, verification, solving, rendering."""


@main.command()
@click.option("--instance", required=True, type=click.Path(exists=True))
@_scale_option("unit")
@click.option("--out", type=click.Path(), default=None)
def gen(instance: str, scale: str, out: str | None) -> None:
    """Summarize an instance: N, node sets, Lipschitz constants."""
    inst = _load(instance)
    h = build(inst, scale)
    rec = h.lipschitz_report()
    payload = {
        "n": inst.n,
        "N": h.N,
        "scale": scale,
        "columns": sorted(h.field.columns),
        "solutions": sorted(h.field.solutions),
        "lipschitz": {"L": str(rec.L), "L1": str(rec.L1), "L2": str(rec.L2),
                      "coeff_norm_bound": str(rec.coeff_norm_bound)},
    }
    _emit(payload, out)


@main.command()
@click.option("--instance", required=True, type=click.Path(exists=True))
@_scale_option("unit")
@click.option("-x", "x_text", required=True)
@click.option("-y", "y_text", required=True)
@_eps_option("--eps-g", "1e-4", steps=False)
@_eps_option("--eps-h", "1e-4", steps=False)
@click.option("--out", type=click.Path(), default=None)
def verify(instance, scale, x_text, y_text, eps_g, eps_h, out) -> None:
    """Check the (eps_G, eps_H)-SOSP conditions of f at a point, exactly."""
    inst = _load(instance)
    h = build(inst, scale)
    x, y = _parse_number(x_text), _parse_number(y_text)
    hi = h.domain_high
    if not (0 <= x <= hi and 0 <= y <= hi):
        raise click.UsageError(f"point ({x}, {y}) outside [0, {hi}]^2")
    poly = h.domain_polytope()
    L1 = h.lipschitz_report().L1
    report = verify_sosp(h.objective(), poly, (x, y), eps_g, eps_h, L1,
                         exact=True)
    payload = {
        "point": [str(x), str(y)],
        "scale": scale,
        "eps_g": float(eps_g),
        "eps_h": float(eps_h),
        "gpi_norm": str(report.gpi_norm),
        "lambda_min": str(report.lambda_min),
        "active": list(report.active_indices),
        "first_order": report.pass_first,
        "second_order": report.pass_second,
        "passed": report.passed,
        "decoded_solution": h.decode_scaled(x, y),
    }
    _emit(payload, out)
    sys.exit(0 if report.passed else 1)


def render_svg(inst: IterInstance) -> str:
    """Deterministic SVG: one colored square + descent arrow per grid point."""
    cell = 24
    field = ColorField(inst)
    N = field.N
    size = (N + 1) * cell
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    half = cell // 2
    arm = cell // 3
    head = max(cell // 8, 2)
    for b in range(N, -1, -1):
        for a in range(N + 1):
            c = field.assignment(a, b)
            px = a * cell
            py = (N - b) * cell
            fill = _COLOR_HEX[c.color.value]
            parts.append(
                f'<rect x="{px + 1}" y="{py + 1}" width="{cell - 2}" '
                f'height="{cell - 2}" fill="{fill}" class="pt-{c.color.value}"/>')
            cx, cy = px + half, py + half
            # Arrow points along -grad f (the named descent direction).
            dx, dy = {
                "UP": (0, -1), "DOWN": (0, 1), "LEFT": (-1, 0), "RIGHT": (1, 0),
            }[c.direction.name]
            x1, y1 = cx - dx * arm, cy - dy * arm
            x2, y2 = cx + dx * arm, cy + dy * arm
            hx, hy = -dy, dx  # perpendicular for the head
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="#ffffff" stroke-width="2"/>')
            parts.append(
                f'<polygon points="{x2},{y2} '
                f'{x2 - dx * head + hx * head},{y2 - dy * head + hy * head} '
                f'{x2 - dx * head - hx * head},{y2 - dy * head - hy * head}" '
                f'fill="#ffffff"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@main.command()
@click.option("--instance", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def render(instance: str, out: str) -> None:
    """Render the color/arrow field as a deterministic SVG."""
    inst = _load(instance)
    if inst.n > 6:
        raise click.UsageError(f"n = {inst.n} too large to render (max 6)")
    svg = render_svg(inst)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    click.echo(f"wrote {out} ({len(svg)} bytes)")


def solve_start(seed: int, hi) -> tuple[Fraction, Fraction]:
    """The start point of `sospgrid solve --seed seed` on [0, hi]^2."""
    rng = random.Random(seed)
    return (Fraction(rng.randrange(1, 1000), 1000) * hi,
            Fraction(rng.randrange(1, 1000), 1000) * hi)


@main.command()
@click.option("--instance", required=True, type=click.Path(exists=True))
@_scale_option("moderate")
@_eps_option("--eps-g", "1e-2", steps=True)
@_eps_option("--eps-h", "1e-2", steps=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-iter", type=click.IntRange(1, None), default=20000,
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def solve(instance, scale, eps_g, eps_h, seed, max_iter, out) -> None:
    """Run the adaptive solver from a seeded start point and decode the
    result."""
    inst = _load(instance)
    h = build(inst, scale)
    x0 = solve_start(seed, h.domain_high)
    rec = h.lipschitz_report()
    poly = h.domain_polytope()
    t0 = time.perf_counter()
    trace = snap_run(h.objective(exact=False), poly, x0, eps_g, eps_h,
                     rec.L1, rec.L2, max_iter=max_iter, adaptive=True)
    elapsed = time.perf_counter() - t0
    final = trace.final_point
    decoded = h.decode_scaled(final[0], final[1])
    payload = {
        "start": [str(x0[0]), str(x0[1])],
        "final": [str(final[0]), str(final[1])],
        "iterations": trace.iterations,
        "converged": trace.converged,
        "sosp_passed": trace.final_report.passed,
        "decoded_solution": decoded,
        "solution_valid": (decoded is not None
                           and iter_is_solution(inst, decoded)),
        "seconds": round(elapsed, 3),
        **trace.counts(),
    }
    _emit(payload, out)
    sys.exit(0 if trace.converged else 1)


def _reduction_bowl(dim: int):
    """Smooth synthetic objective: shifted quadratic bowl on [0, 1]^dim."""
    center = tuple(Fraction(1, 3) for _ in range(dim))

    def objective(x):
        diffs = [xi - ci for xi, ci in zip(x, center)]
        f = sum(d * d for d in diffs) / 2
        grad = tuple(diffs)
        hess = tuple(tuple(Fraction(1) if i == j else Fraction(0)
                           for j in range(dim)) for i in range(dim))
        return f, grad, hess

    return objective


@main.command()
@click.option("--dim", type=click.IntRange(1, 5), default=2, show_default=True,
              help="Dimension of the bowl.")
@_eps_option("--eps-g", "1e-2", steps=True)
@_eps_option("--eps-h", "1e-2", steps=True)
@click.option("--samples", type=click.IntRange(1, None), default=200,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def reduce(dim, eps_g, eps_h, samples, seed, out) -> None:
    """Sample the potential/neighbor improvement contract on a test bowl."""
    poly = Polytope.box(tuple(0 for _ in range(dim)),
                        tuple(1 for _ in range(dim)))
    objective = _reduction_bowl(dim)
    r = ReductionInstance(objective, poly, eps_g, eps_h,
                          L=1, L1=1, L2=1)
    rng = random.Random(seed)
    counts: dict[str, int] = {}
    for _ in range(samples):
        raw = tuple(Fraction(rng.randrange(0, 10**6), 10**6) for _ in range(dim))
        x = r.round_point(raw)
        verdict = r.improvement_check(x)
        counts[verdict.kind] = counts.get(verdict.kind, 0) + 1
    payload = {
        "dim": dim,
        "gamma": str(r.gamma) if r.gamma is not None else None,
        "weight": str(r.weight),
        "samples": samples,
        "verdicts": counts,
        "violations": counts.get("violation", 0),
    }
    _emit(payload, out)
    sys.exit(0 if payload["violations"] == 0 else 1)


@main.command()
@click.option("--instance", required=True, type=click.Path(exists=True))
@click.option("-a", "cell_a", type=int, default=None)
@click.option("-b", "cell_b", type=int, default=None)
@click.option("--certify", is_flag=True, default=False)
@click.option("--out", type=click.Path(), default=None)
def classify(instance, cell_a, cell_b, certify, out) -> None:
    """Classify cells; optionally run the numerical no-SOSP certificates.

    With -a and -b, --certify prints that cell's entry of the full report."""
    inst = _load(instance)
    if (cell_a is None) != (cell_b is None):
        raise click.UsageError("-a and -b must be given together")
    h = build(inst, ScaleMode.UNIT)
    N = h.N
    if cell_a is not None and not (0 <= cell_a < N and 0 <= cell_b < N):
        raise click.UsageError(
            f"cell ({cell_a}, {cell_b}) outside [0, {N - 1}]^2")
    try:
        if cell_a is not None:
            label = classify_cell(h.field, cell_a, cell_b)
            if certify:
                payload, cert_ok = certify_labelled_cell(h, cell_a, cell_b, label)
            else:
                payload = {"cell": [cell_a, cell_b], "label": label.kind,
                           "transforms": list(label.transforms)}
                cert_ok = True
            _emit(payload, out)
            sys.exit(0 if cert_ok else 1)
        if certify:
            report = certification_report(inst)
            _emit(report, out)
            sys.exit(0 if report["passed"] else 1)
        labels = classify_all(inst)
        counts: dict[str, int] = {}
        for label in labels.values():
            counts[label.kind] = counts.get(label.kind, 0) + 1
        _emit({"n": inst.n, "N": N, "counts": counts}, out)
    except ClassificationError as exc:
        click.echo(f"classification error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
