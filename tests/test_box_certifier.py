"""Cell taxonomy (pattern matching under the square's symmetries) and the
sampling certificates that rule out SOSPs cell by cell."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from patch_reference import patch_of, reference_eval
from sospgrid._precision import to_fraction
from sospgrid import box_certifier
from sospgrid.box_certifier import (
    ALL_TRANSFORMS,
    EPS0,
    ClassificationError,
    CornerData,
    CriterionReport,
    GroupLabel,
    _newton_polish,
    _targeted_offsets,
    boundary_prox_check,
    canonicalize,
    cell_corner_data,
    certify_cell,
    certify_labelled_cell,
    certify_no_sosp,
    classify_all,
    classify_cell,
)
from sospgrid.color_field import ColorField, Direction
from sospgrid.hard_instance import build
from sospgrid.iter_problems import IterInstance
from sospgrid.stationarity import verify_sosp


EPS = Fraction(EPS0)


def _synthetic_patch(terms):
    """Unit-cell patch sum of c x^i y^j over terms {(i, j): c}."""
    coeffs = [[Fraction(0)] * 6 for _ in range(6)]
    for (i, j), c in terms.items():
        coeffs[i][j] = Fraction(c)
    return patch_of(coeffs)


def x_cells_of(inst):
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
    data = cell_corner_data(ColorField(inst_n1), 4, 7)
    assert len(data.values) == 4 and len(data.arrows) == 4
    assert all(isinstance(v, Fraction) for v in data.values)


def test_classify_rejects_out_of_range(inst_n1):
    field = ColorField(inst_n1)
    with pytest.raises(ValueError):
        classify_cell(field, -1, 0)
    with pytest.raises(ValueError):
        classify_cell(field, 18, 0)


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


def test_x_label_follows_the_x_cell_predicate(inst_n2):
    field = ColorField(inst_n2)
    x_cells = x_cells_of(inst_n2)
    for a in range(field.N):
        for b in range(field.N):
            is_x = classify_cell(field, a, b).kind == "X"
            assert is_x == (field.x_cell_node(a, b) is not None)
            assert is_x == ((a, b) in x_cells)


def test_boundary_has_precedence_over_patterns(inst_n1):
    field = ColorField(inst_n1)
    assert classify_cell(field, 0, 9).kind == "Boundary"
    assert classify_cell(field, 9, 17).kind == "Boundary"


def test_transform_sequences_are_catalogued(inst_n1):
    labels = classify_all(inst_n1)
    for lab in labels.values():
        if lab.kind in ("X", "Boundary"):
            assert lab.transforms == ()
        else:
            assert lab.transforms in ALL_TRANSFORMS


def test_certify_interior_cell_passes(hard_n1):
    lab = classify_cell(hard_n1.field, 9, 9)
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


def test_x_cell_passes_only_when_its_certificate_fails(hard_n1, monkeypatch):
    # the negative control is enforced: an X cell in which no SOSP is found
    # fails the report
    label = classify_cell(hard_n1.field, 4, 8)
    assert label.kind == "X"
    entry, passed = certify_labelled_cell(hard_n1, 4, 8, label, resolution=15)
    assert passed and not entry["certificate"]["passed"]
    monkeypatch.setattr(box_certifier, "certify_cell",
                        lambda h, a, b, resolution=51:
                        CriterionReport(cell=(a, b), resolution=resolution))
    entry, passed = certify_labelled_cell(hard_n1, 4, 8, GroupLabel("X"))
    assert entry["certificate"]["passed"] and not passed


@pytest.mark.parametrize("cell", [(3, 8), (4, 8)])
def test_polished_x_cell_point_is_an_exact_sosp(hard_n1, cell):
    a, b = cell
    half = Fraction(1, 2)
    polished = _newton_polish(hard_n1.patch(a, b), half, half)
    assert polished is not None
    x, y = a + polished[0], b + polished[1]
    rep = verify_sosp(hard_n1.objective(exact=True),
                      hard_n1.domain_polytope(), (x, y), EPS0, EPS0,
                      hard_n1.lipschitz_report().L1, exact=True)
    assert rep.passed
    assert hard_n1.decode_solution(x, y) == 1


def test_boundary_prox_check(hard_n1):
    cells = [(0, 5), (17, 9), (9, 0), (9, 17)]
    reports = boundary_prox_check(hard_n1, cells=cells, resolution=7)
    assert len(reports) == len(cells)
    for rep in reports:
        assert rep.passed


def test_refinement_resamples_iterator_offsets():
    # the refinement pass must see the same offsets as the first pass, also
    # when they come from a one-shot iterator.  f = 2 EPS0 x passes every
    # sample with margin 2 EPS0 < 10 EPS0: a near miss, so it is refined.
    patch = _synthetic_patch({(1, 0): 2 * EPS})
    offsets = [Fraction(1, 3), Fraction(1, 7), Fraction(5, 6)]
    from_list = certify_no_sosp(patch, resolution=15, extra_offsets=offsets,
                                _refine=21)
    from_iter = certify_no_sosp(patch, resolution=15,
                                extra_offsets=iter(offsets), _refine=21)
    assert from_list.refined and from_iter.refined
    assert from_list.passed and from_iter.passed
    assert from_iter.sample_count == from_list.sample_count == (21 + 3) ** 2


def test_refinement_keeps_a_failing_coarse_pass():
    # f = (x - 1/52)^2 / 2 + (EPS0 / 2) y fails all three criteria on the
    # line x = 1/52.  The line lies on the 51-point grid but not on the
    # 201-point one, and det H = 0 stops the Newton polish, so a refined
    # report would pass: a failing sample must end the certificate.
    patch = _synthetic_patch({(2, 0): Fraction(1, 2), (1, 0): Fraction(-1, 52),
                              (0, 0): Fraction(1, 2 * 52 ** 2),
                              (0, 1): EPS / 2})
    coarse = certify_no_sosp(patch, _refine=0)
    assert not coarse.passed and len(coarse.failing) == 51
    rep = certify_no_sosp(patch)
    assert not rep.passed and not rep.refined
    assert rep.resolution == 51
    assert rep.failing == coarse.failing


def _reference_sample(patch, x, y, eps):
    """Verdicts and margin at local (x, y) from the reference evaluation,
    with lambda_min at 512 bits."""
    _, (fx, fy), ((fxx, fxy), (_, fyy)) = reference_eval(patch, patch.a + x,
                                                         patch.b + y)
    with mpmath.workprec(512):
        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator
        lam = (mp(fxx) + mp(fyy)) / 2 - mpmath.sqrt(
            ((mp(fxx) - mp(fyy)) / 2) ** 2 + mp(fxy) ** 2)
        ok_lam = lam < -mp(eps)
        margin = float(max(mp(abs(fx)), mp(abs(fy)), -lam))
    return abs(fx) > eps, abs(fy) > eps, ok_lam, margin


def _reference_report(patch, coords):
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
    counts, failing, worst_point = _reference_report(patch, coords)
    assert [rep.gx_count, rep.gy_count, rep.lambda_count] == counts
    assert rep.failing == failing
    assert rep.worst_point == worst_point
    assert rep.passed == (cell != (4, 8))




@pytest.mark.parametrize("i, j, c", [(1, 0, EPS), (0, 2, -EPS / 2)],
                         ids=["gx_at_eps0", "lambda_at_minus_eps0"])
def test_criteria_are_strict_at_the_threshold(i, j, c):
    rep = certify_no_sosp(_synthetic_patch({(i, j): c}), resolution=9,
                          _refine=0)
    assert not rep.passed
    assert rep.sample_count == 81
    assert len(rep.failing) == rep.sample_count
    assert rep.gx_count == rep.gy_count == rep.lambda_count == 0


@pytest.mark.parametrize("i, j, c", [(1, 0, 2 * EPS), (0, 2, -EPS)],
                         ids=["gx_above_eps0", "lambda_below_minus_eps0"])
def test_criteria_pass_beyond_the_threshold(i, j, c):
    rep = certify_no_sosp(_synthetic_patch({(i, j): c}), resolution=9,
                          _refine=0)
    assert rep.passed
    assert rep.sample_count == 81
    assert not rep.failing
