"""The exact Bernstein enclosure of a patch's gradient, and the Newton
polishes it lets certify_no_sosp skip."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sospgrid import bernstein
from sospgrid.bernstein import gradient_arrays, gradient_bounded
from sospgrid.biquintic import BoxPatch
from sospgrid.box_certifier import (
    EPS0,
    POLISH_TOL,
    _newton_polish,
    _targeted_offsets,
    cell_corner_data,
)
from sospgrid.hard_instance import ScaleMode, build
from sospgrid.iter_problems import IterInstance
from test_box_certifier import _synthetic_patch
from test_golden_dumps import load_script

ROOT_SCALE = bernstein._L4 * bernstein._L5  # the root arrays are over this times D


def _descend(patch: BoxPatch, path):
    """The f_x and f_y arrays, each with its scale, of the sub-box that the
    splits path ((axis, side), ...) reach, and that sub-box as [x0, x1, y0,
    y1]."""
    arrays = [(arr, ROOT_SCALE * patch.D) for arr in gradient_arrays(patch.K)]
    box = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    for axis, side in path:
        arrays = [(bernstein._split(arr, axis)[side],
                   scale << (len(arr) if axis == 0 else len(arr[0])) - 1)
                  for arr, scale in arrays]
        lo, hi = box[2 * axis:2 * axis + 2]
        mid = (lo + hi) / 2
        box[2 * axis:2 * axis + 2] = (lo, mid) if side == 0 else (mid, hi)
    return arrays, box


def _fields(patch: BoxPatch, x: Fraction, y: Fraction):
    return patch.point_fields((x.numerator, x.denominator), (y.numerator, y.denominator))


_HARD = build(IterInstance(2, (3, 4, 4, 1)), ScaleMode.UNIT)
_cells = st.tuples(st.integers(0, _HARD.field.N - 1), st.integers(0, _HARD.field.N - 1))
_random_patch = st.builds(
    lambda K, D: BoxPatch(0, 0, tuple(tuple(row) for row in K), D),
    st.lists(st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6),
             min_size=6, max_size=6),
    st.integers(1, 10**6))
_patches = st.one_of(_cells.map(lambda c: _HARD.patch(*c)), _random_patch)
_paths = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=8)


@settings(deadline=None, max_examples=60)
@given(_patches, _paths)
def test_corner_coefficients_are_the_exact_corner_values(patch, path):
    """After any dyadic splits, an array's corner coefficients over its
    scale are f_x and f_y at the sub-box's corners (point_fields)."""
    ((gx, sx), (gy, sy)), box = _descend(patch, path)
    for i, x in ((0, box[0]), (-1, box[1])):
        for j, y in ((0, box[2]), (-1, box[3])):
            F = _fields(patch, x, y)
            assert gx[i][j] * F.scale == F.gx * sx
            assert gy[i][j] * F.scale == F.gy * sy


@settings(deadline=None, max_examples=60)
@given(_patches, _paths, st.fractions(0, 1), st.fractions(0, 1))
def test_enclosure_brackets_the_exact_gradient(patch, path, tx, ty):
    """At a rational point of the sub-box, f_x and f_y lie between the least
    and the greatest coefficient of their arrays."""
    arrays, (x0, x1, y0, y1) = _descend(patch, path)
    F = _fields(patch, x0 + tx * (x1 - x0), y0 + ty * (y1 - y0))
    for (arr, scale), g in zip(arrays, (F.gx, F.gy)):
        flat = [b for row in arr for b in row]
        assert min(flat) * F.scale <= g * scale <= max(flat) * F.scale


def _bowl(c):
    """f with f_x = 0 and f_y = c + (y - 1/2)^2, whose least Bernstein
    coefficient is below c on the cell and reaches c after a split in y."""
    return {(0, 1): c + Fraction(1, 4), (0, 2): Fraction(-1, 2), (0, 3): Fraction(1, 3)}


_ABOVE = POLISH_TOL + Fraction(1, 10**30)


@pytest.mark.parametrize("terms, proved", [
    ({(1, 0): _ABOVE}, True), ({(1, 0): POLISH_TOL}, False),
    ({(1, 0): -POLISH_TOL}, False), ({(1, 0): -_ABOVE}, True),
    (_bowl(_ABOVE), True), (_bowl(POLISH_TOL), False)],
    ids=["above", "at", "at-negative", "above-negative", "bowl-above", "bowl-at"])
def test_bound_is_strict_at_the_tolerance(terms, proved):
    """f = c x has f_x = c everywhere, and the bowl's f_y has least value c:
    each is proved exactly when |c| > tol, also after splits."""
    assert gradient_bounded(_synthetic_patch(terms), POLISH_TOL) is proved


def test_refuses_the_degenerate_line_of_sosps():
    """f = (x - 1/53)^2 / 2 + (EPS0 / 2) y has f_x = 0 on the line x = 1/53
    and f_y = EPS0 / 2 everywhere, so exact SOSPs lie in the cell."""
    patch = _synthetic_patch({(2, 0): Fraction(1, 2), (1, 0): Fraction(-1, 53),
                    (0, 0): Fraction(1, 2 * 53 ** 2), (0, 1): EPS0 / 2})
    assert not gradient_bounded(patch, POLISH_TOL)
    assert not gradient_bounded(patch, EPS0)


def _criterion_6_keys(certification_reports):
    """(patch, worst sample) for each non-X key of criterion 6's reports,
    keyed as certification_report keys them; the worst sample is the exact
    grid or offset point whose float the report gives."""
    keys = {}
    instances = load_script("dump_certification").INSTANCES
    for (n, table), report in zip(instances, certification_reports):
        h = build(IterInstance(n, table), ScaleMode.UNIT)
        for entry in report["cells"]:
            if entry["label"] in ("Boundary", "X"):
                continue
            cert = entry["certificate"]
            patch = h.patch(*entry["cell"])
            offsets = tuple(_targeted_offsets(cell_corner_data(h.field, *entry["cell"])))
            key = (patch.K[0][1:], patch.K[1:], patch.D, offsets)
            if key in keys:
                continue
            res = cert["resolution"]
            coords = [Fraction(i + 1, res + 1) for i in range(res)]
            coords += [t for t in offsets if 0 < t < 1]
            exact = {float(t): t for t in reversed(coords)}  # the first of a float
            worst = tuple(exact.get(t) for t in cert["worst_point"])
            keys[key] = (patch, worst)
    return list(keys.values())


def test_proved_keys_leave_every_polish_empty(certification_reports):
    """Every key of criterion 6 that the enclosure proves, more than three
    in four of the non-X keys, is one where _newton_polish finds nothing
    from either start, the worst sample and the cell's centre."""
    keys = _criterion_6_keys(certification_reports)
    proved = [(patch, worst) for patch, worst in keys
              if gradient_bounded(patch, POLISH_TOL)]
    assert 4 * len(proved) > 3 * len(keys)
    for patch, worst in proved:
        assert None not in worst
        for start in (worst, (Fraction(1, 2),) * 2):
            assert _newton_polish(patch, *start) is None


def test_refuses_every_x_cell():
    for n, table in load_script("dump_certification").INSTANCES:
        h = build(IterInstance(n, table), ScaleMode.UNIT)
        x_cells = [(a, b) for a in range(h.field.N) for b in range(h.field.N)
                   if h.field.x_cell_node(a, b) is not None]
        assert x_cells
        for cell in x_cells:
            assert not gradient_bounded(h.patch(*cell), POLISH_TOL)
