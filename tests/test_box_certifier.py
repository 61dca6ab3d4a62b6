"""Cell taxonomy (pattern matching under the square's symmetries) and the
sampling certificates that rule out SOSPs cell by cell."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from sospgrid._precision import to_fraction
from sospgrid.biquintic import BoxPatch
from sospgrid.box_certifier import (
    ALL_TRANSFORMS,
    EPS0,
    ClassificationError,
    CornerData,
    _newton_polish,
    _targeted_offsets,
    boundary_prox_check,
    canonicalize,
    cell_corner_data,
    certify_cell,
    certify_no_sosp,
    classify_all,
    classify_cell,
)
from sospgrid.color_field import Direction
from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance


def x_cells_of(inst):
    from sospgrid.color_field import ColorField
    field = ColorField(inst)
    return {(a, 6 * k + 2)
            for k in field.solutions
            for a in (6 * k - 3, 6 * k - 2, 6 * k - 1)}


def test_transform_group_structure():
    data = CornerData((Fraction(1), Fraction(7), Fraction(-2), Fraction(30)),
                      (Direction.UP, Direction.LEFT,
                       Direction.RIGHT, Direction.DOWN))
    for kind in (1, 2, 3, 4, 5):
        assert canonicalize(data, (kind, kind)) == data
    # quarter turn has order 4
    assert canonicalize(data, (6,)) != data
    assert canonicalize(data, (6, 6, 6, 6)) == data
    with pytest.raises(ValueError):
        canonicalize(data, (7,))


def test_corner_data_matches_field(inst_n1):
    data = cell_corner_data(inst_n1, 4, 7)
    assert len(data.values) == 4 and len(data.arrows) == 4
    assert all(isinstance(v, Fraction) for v in data.values)


def test_classify_rejects_out_of_range(inst_n1):
    with pytest.raises(ValueError):
        classify_cell(inst_n1, -1, 0)
    with pytest.raises(ValueError):
        classify_cell(inst_n1, 18, 0)


def test_classify_all_n1_census(inst_n1):
    labels = classify_all(inst_n1)
    N = 18
    assert len(labels) == N ** 2
    counts = Counter(lab.kind for lab in labels.values())
    assert counts["Boundary"] == 4 * (N - 1)
    assert counts["X"] == 3  # one solution, three cells around it
    assert {(a, b) for (a, b), lab in labels.items()
            if lab.kind == "X"} == x_cells_of(inst_n1)
    # every interior cell got a catalogued label (no ClassificationError)
    assert sum(counts.values()) == N ** 2


def test_classify_all_n2_census(inst_n2):
    labels = classify_all(inst_n2)
    N = 30
    counts = Counter(lab.kind for lab in labels.values())
    assert counts["Boundary"] == 4 * (N - 1)
    assert counts["X"] == 3 * 1  # solutions = {4}
    assert {(a, b) for (a, b), lab in labels.items()
            if lab.kind == "X"} == x_cells_of(inst_n2)


def test_boundary_has_precedence_over_patterns(inst_n1):
    assert classify_cell(inst_n1, 0, 9).kind == "Boundary"
    assert classify_cell(inst_n1, 9, 17).kind == "Boundary"


def test_transform_sequences_are_catalogued(inst_n1):
    labels = classify_all(inst_n1)
    for lab in labels.values():
        if lab.kind in ("X", "Boundary"):
            assert lab.transforms == ()
        else:
            assert lab.transforms in ALL_TRANSFORMS


def test_certify_interior_cell_passes(hard_n1):
    lab = classify_cell(hard_n1.instance, 9, 9)
    assert lab.kind not in ("X", "Boundary")
    rep = certify_cell(hard_n1, 9, 9, resolution=15)
    assert rep.passed
    assert rep.sample_count > 0
    assert rep.worst_margin > 0
    assert not rep.failing


def test_certify_x_cell_finds_sosp(hard_n1):
    # negative control: the cells encoding the solution contain an SOSP
    for (a, b) in x_cells_of(hard_n1.instance):
        rep = certify_cell(hard_n1, a, b, resolution=15)
        assert not rep.passed
        assert rep.failing


def test_boundary_prox_check(hard_n1):
    cells = [(0, 5), (17, 9), (9, 0), (9, 17)]
    reports = boundary_prox_check(hard_n1, cells=cells, resolution=7)
    assert len(reports) == len(cells)
    for rep in reports:
        assert rep.passed


def test_refinement_resamples_iterator_offsets(hard_n1):
    # the refinement pass must see the same offsets as the first pass, also
    # when they come from a one-shot iterator
    patch = hard_n1.patch(4, 8)
    offsets = _targeted_offsets(cell_corner_data(hard_n1.field, 4, 8))
    from_list = certify_no_sosp(patch, resolution=15, extra_offsets=offsets,
                                _refine=21)
    from_iter = certify_no_sosp(patch, resolution=15,
                                extra_offsets=iter(offsets), _refine=21)
    assert from_list.refined and from_iter.refined
    assert from_iter.sample_count == from_list.sample_count


def _reference_sample(patch, x, y, eps):
    """Verdicts and margin at local (x, y) from the exact patch evaluation,
    with lambda_min at 512 bits."""
    _, (fx, fy), ((fxx, fxy), (_, fyy)) = patch.eval(patch.a + x, patch.b + y,
                                                     exact=True)
    with mpmath.workprec(512):
        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator
        lam = (mp(fxx) + mp(fyy)) / 2 - mpmath.sqrt(
            ((mp(fxx) - mp(fyy)) / 2) ** 2 + mp(fxy) ** 2)
        ok_lam = lam < -mp(eps)
        margin = float(max(mp(abs(fx)), mp(abs(fy)), -lam))
    return abs(fx) > eps, abs(fy) > eps, ok_lam, margin


def _reference_report(patch, coords, polish):
    eps = Fraction(EPS0)
    counts = [0, 0, 0]
    failing = []
    worst = [float("inf"), None]

    def record(x, y):
        *oks, margin = _reference_sample(patch, x, y, eps)
        counts[:] = [c + ok for c, ok in zip(counts, oks)]
        if margin < worst[0]:
            worst[:] = [margin, (float(x), float(y))]
        if not any(oks):
            failing.append((float(x), float(y)))

    for x in coords:
        for y in coords:
            record(x, y)
    if polish:
        for start in {worst[1], (0.5, 0.5)}:
            polished = _newton_polish(patch, *start)
            if polished is not None:
                record(*map(to_fraction, polished))
    return counts, failing, worst[1]


@pytest.mark.parametrize("cell", [(5, 2), (4, 8)],
                         ids=["group_b", "x_cell"])
def test_exact_kernel_matches_reference(hard_n1, cell):
    # one interior cell (Group B, eight targeted offsets) and one X cell
    patch = hard_n1.patch(*cell)
    offsets = _targeted_offsets(cell_corner_data(hard_n1.field, *cell))
    rep = certify_no_sosp(patch, resolution=7, extra_offsets=offsets,
                          _refine=0)
    coords = [Fraction(i + 1, 8) for i in range(7)]
    coords += [t for t in map(to_fraction, offsets) if 0 < t < 1]
    counts, failing, worst_point = _reference_report(patch, coords, True)
    assert [rep.gx_count, rep.gy_count, rep.lambda_count] == counts
    assert rep.failing == failing
    assert rep.worst_point == worst_point
    assert rep.passed == (cell != (4, 8))


def _synthetic_patch(i, j, c):
    coeffs = [[Fraction(0)] * 6 for _ in range(6)]
    coeffs[i][j] = Fraction(c)
    return BoxPatch(a=0, b=0, coeffs=tuple(map(tuple, coeffs)))


EPS = Fraction(EPS0)


@pytest.mark.parametrize("i, j, c", [(1, 0, EPS), (0, 2, -EPS / 2)],
                         ids=["gx_at_eps0", "lambda_at_minus_eps0"])
def test_criteria_are_strict_at_the_threshold(i, j, c):
    rep = certify_no_sosp(_synthetic_patch(i, j, c), resolution=9, _refine=0)
    assert not rep.passed
    assert rep.sample_count == 81
    assert len(rep.failing) == rep.sample_count
    assert rep.gx_count == rep.gy_count == rep.lambda_count == 0


@pytest.mark.parametrize("i, j, c", [(1, 0, 2 * EPS), (0, 2, -EPS)],
                         ids=["gx_above_eps0", "lambda_below_minus_eps0"])
def test_criteria_pass_beyond_the_threshold(i, j, c):
    rep = certify_no_sosp(_synthetic_patch(i, j, c), resolution=9, _refine=0)
    assert rep.passed
    assert rep.sample_count == 81
    assert not rep.failing
