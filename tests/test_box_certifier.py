"""Cell taxonomy (pattern matching under the square's symmetries) and the
sampling certificates that rule out SOSPs cell by cell."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patch_reference import patch_of, reference_eval
from sospgrid._precision import to_fraction
from sospgrid import box_certifier
from sospgrid.bernstein import gradient_bounded
from sospgrid.biquintic import Fields
from sospgrid.box_certifier import (
    ALL_TRANSFORMS,
    EPS0,
    POLISH_TOL,
    ClassificationError,
    CornerData,
    CriterionReport,
    GroupLabel,
    _GRID_BITS,
    _neg_lambda_min,
    _newton_polish,
    _polish_step,
    _record,
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
    for kind in (1, 2, 3, 5):
        assert canonicalize(data, (kind, kind)) == data
    for kind in (4, 6, 7):
        with pytest.raises(ValueError):
            canonicalize(data, (kind,))


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
    entry, passed = certify_labelled_cell(hard_n1, 4, 8, label)
    assert passed and not entry["certificate"]["passed"]
    monkeypatch.setattr(box_certifier, "certify_cell",
                        lambda h, a, b: CriterionReport(cell=(a, b),
                                                        resolution=51))
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
    assert hard_n1.decode_scaled(x, y) == 1


def test_boundary_prox_check(hard_n1):
    cells = [(0, 5), (17, 9), (9, 0), (9, 17)]
    reports = boundary_prox_check(hard_n1, cells=cells, resolution=7)
    assert len(reports) == len(cells)
    for rep in reports:
        assert rep.passed


def test_boundary_check_needs_unit_scale(inst_n1):
    """The cell's patch is unscaled while the box and L1 are the instance's:
    on a moderate instance the check would sample [0, 18]^2 against the
    unit box and pass with worst_norm 1.2e25.  Other scales are refused,
    and the unit report stands."""
    for mode in ("moderate", "aggressive"):
        with pytest.raises(ValueError, match="unit-scale"):
            boundary_prox_check(build(inst_n1, mode), [(0, 5)])
    rep = boundary_prox_check(build(inst_n1, "unit"), [(0, 5)])[0]
    assert rep.passed and rep.failing == []
    assert (rep.worst_norm, rep.worst_point) == (0.5, (0, 5))


def test_certify_cell_needs_unit_scale(inst_n1, hard_n1):
    """As for the boundary check: on a moderate or aggressive instance
    certify_cell returned the unit instance's certificates below, although
    the scaled objective's derivatives differ.  Other scales are refused,
    also through certify_labelled_cell, and the unit figures stand."""
    for mode in ("moderate", "aggressive"):
        h = build(inst_n1, mode)
        for a, b in ((5, 5), (4, 8)):
            with pytest.raises(ValueError, match="unit-scale"):
                certify_cell(h, a, b)
            with pytest.raises(ValueError, match="unit-scale"):
                certify_labelled_cell(h, a, b, classify_cell(h.field, a, b))
    interior, x_cell = certify_cell(hard_n1, 5, 5), certify_cell(hard_n1, 4, 8)
    assert interior.passed and f"{interior.worst_margin:.3g}" == "0.496"
    assert not x_cell.passed and f"{x_cell.worst_margin:.3g}" == "2.26e-53"


@pytest.mark.parametrize("resolution", [0, -1])
def test_certify_refuses_resolution_below_one(hard_n1, resolution):
    """A certificate needs a grid of at least one sample a side: with none,
    certify_cell passed a cell on its targeted offsets alone."""
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        certify_cell(hard_n1, 5, 5, resolution=resolution)
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        certify_no_sosp(hard_n1.patch(5, 5), resolution=resolution)
    assert certify_no_sosp(hard_n1.patch(5, 5), resolution=1).resolution == 1


@pytest.mark.parametrize("resolution", [1, 0, -1])
def test_boundary_check_refuses_resolution_below_two(hard_n1, resolution):
    """The ticks i / (resolution - 1) span the closed cell only from two on."""
    with pytest.raises(ValueError, match="resolution must be >= 2"):
        boundary_prox_check(hard_n1, [(0, 5)], resolution)
    assert boundary_prox_check(hard_n1, [(0, 5)], 2)[0].resolution == 2


def test_refinement_resamples_iterator_offsets():
    # the refinement pass must see the same offsets as the first pass, also
    # when they come from a one-shot iterator.  f = 2 EPS0 x passes every
    # sample with margin 2 EPS0 < 10 EPS0: a near miss, so it is refined.
    patch = _synthetic_patch({(1, 0): 2 * EPS0})
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
                              (0, 1): EPS0 / 2})
    coarse = certify_no_sosp(patch, _refine=0)
    assert not coarse.passed and len(coarse.failing) == 51
    rep = certify_no_sosp(patch)
    assert not rep.passed and not rep.refined
    assert rep.resolution == 51
    assert rep.failing == coarse.failing


def test_report_certifies_each_key_once(inst_n1, hard_n1, monkeypatch):
    # cells whose patches differ by a constant share one certificate, and
    # each copy is the certificate that cell would get on its own
    certify = box_certifier.certify_cell
    certified = []

    def counting_certify_cell(h, a, b):
        certified.append((a, b))
        return certify(h, a, b)

    monkeypatch.setattr(box_certifier, "certify_cell", counting_certify_cell)
    report = box_certifier.certification_report(inst_n1)
    monkeypatch.undo()
    entries = [e for e in report["cells"] if e["label"] != "Boundary"]
    assert report["passed"] and len(certified) < len(entries) / 2
    # The certified cells hold their own certificates; every other entry
    # is a copy.
    for entry in entries:
        if tuple(entry["cell"]) not in certified:
            label = GroupLabel(entry["label"], tuple(entry["transforms"]))
            assert entry == certify_labelled_cell(hard_n1, *entry["cell"],
                                                  label)[0]


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
    counts = [0, 0, 0]
    failing = []
    worst = [float("inf"), None]

    def record(x, y):
        *oks, margin = _reference_sample(patch, x, y, EPS0)
        counts[:] = [c + ok for c, ok in zip(counts, oks)]
        if margin < worst[0]:
            worst[:] = [margin, (x, y)]
        if not any(oks):
            failing.append((x, y))

    for x in coords:
        for y in coords:
            record(x, y)
    for start in dict.fromkeys([worst[1], (Fraction(1, 2),) * 2]):
        polished = _newton_polish(patch, *start)
        if polished is not None:
            record(*polished)
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




@pytest.mark.parametrize("i, j, c", [(1, 0, EPS0), (0, 2, -EPS0 / 2)],
                         ids=["gx_at_eps0", "lambda_at_minus_eps0"])
def test_criteria_are_strict_at_the_threshold(i, j, c):
    rep = certify_no_sosp(_synthetic_patch({(i, j): c}), resolution=9,
                          _refine=0)
    assert not rep.passed
    assert rep.sample_count == 81
    assert len(rep.failing) == rep.sample_count
    assert rep.gx_count == rep.gy_count == rep.lambda_count == 0


@pytest.mark.parametrize("i, j, c", [(1, 0, 2 * EPS0), (0, 2, -EPS0)],
                         ids=["gx_above_eps0", "lambda_below_minus_eps0"])
def test_criteria_pass_beyond_the_threshold(i, j, c):
    rep = certify_no_sosp(_synthetic_patch({(i, j): c}), resolution=9,
                          _refine=0)
    assert rep.passed
    assert rep.sample_count == 81
    assert not rep.failing


# ---------------------------------------------------------------------------
# The worst sample and the polish step against their plain references.
# ---------------------------------------------------------------------------


_neg_lambda_grid = np.frompyfunc(_neg_lambda_min, 4, 1)


def _record_whole_grid(report, xs, ys, F, eps):
    """Reference for _record: the margin max(g, -lambda_min) at every
    sample, and the first sample in row-major order with the least one."""
    F = Fields(None, *(np.array(m, dtype=object) for m in F[1:]))
    num, den = eps.numerator, eps.denominator
    eps_scaled = F.scale * num
    abs_gx, abs_gy = abs(F.gx), abs(F.gy)
    ok_gx = abs_gx * den > eps_scaled
    ok_gy = abs_gy * den > eps_scaled
    a = F.hxx * den + eps_scaled
    b = F.hyy * den + eps_scaled
    c = F.hxy * den
    ok_lam = (a < 0) | (b < 0) | (a * b < c * c)
    report.sample_count += ok_gx.size
    report.gx_count += int(ok_gx.sum())
    report.gy_count += int(ok_gy.sum())
    report.lambda_count += int(ok_lam.sum())
    margin = np.maximum(np.maximum(abs_gx, abs_gy) / F.scale,
                        _neg_lambda_grid(F.hxx, F.hyy, F.hxy, F.scale)
                        ).astype(float)
    i, j = np.unravel_index(np.argmin(margin), margin.shape)
    if margin[i, j] < report.worst_margin:
        report.worst_margin = float(margin[i, j])
        report.worst_point = (xs[i], ys[j])
    for i, j in zip(*np.nonzero(~(ok_gx | ok_gy | ok_lam))):
        report.failing.append((xs[i], ys[j]))
        report.passed = False


@pytest.fixture(scope="module")
def hard_c21():
    """n = 1 with C = (2, 1): every label kind, X included, occurs."""
    return build(IterInstance(1, (2, 1)))


def test_worst_sample_matches_the_whole_grid_on_every_label_kind(
        hard_c21, monkeypatch):
    first_of_kind = {}
    for (a, b), label in sorted(classify_all(hard_c21.instance).items()):
        first_of_kind.setdefault(label.kind, (a, b))
    assert set(first_of_kind) == {*"ABCDEFG", "G1", "G2", "G3", "G4", "X",
                                  "Boundary"}

    def report(cell):
        patch = hard_c21.patch(*cell)
        offsets = _targeted_offsets(cell_corner_data(hard_c21.field, *cell))
        return certify_no_sosp(patch, resolution=15, extra_offsets=offsets,
                               _refine=0).to_json()

    reports = {cell: report(cell) for cell in first_of_kind.values()}
    monkeypatch.setattr(box_certifier, "_record", _record_whole_grid)
    for cell, rep in reports.items():
        assert repr(rep) == repr(report(cell)), cell
    assert not reports[first_of_kind["X"]]["passed"]


_TINY = Fraction(1, 2**1100)  # below the least positive float
_FIRST = (Fraction(1, 8), Fraction(1, 8))  # the first sample


@pytest.mark.parametrize("terms, margin, point", [
    # f = 2 EPS0 x: every sample has margin 2 EPS0
    ({(1, 0): 2 * EPS0}, float(2 * EPS0), _FIRST),
    # f = -x^2/2 + 9x/8: margin max(|9/8 - x|, 1) = 1 everywhere; the
    # first sample has the largest g, exactly 1
    ({(2, 0): Fraction(-1, 2), (1, 0): Fraction(9, 8)}, 1.0, _FIRST),
    # f = TINY ((x - 1/2)^2 + (y - 1/2)^2): g rounds to 0.0 and
    # -lambda_min to -0.0, and the margin is g
    ({(2, 0): _TINY, (1, 0): -_TINY, (0, 2): _TINY, (0, 1): -_TINY,
      (0, 0): _TINY / 2}, 0.0, _FIRST),
], ids=["linear", "curvature_floor", "signed_zero"])
def test_worst_sample_is_the_first_of_a_tie(terms, margin, point):
    coords = [Fraction(i + 1, 8) for i in range(7)]
    F = _synthetic_patch(terms).fields(coords, coords)
    rep = CriterionReport(cell=(0, 0), resolution=7)
    _record(rep, coords, coords, F, EPS0)
    ref = CriterionReport(cell=(0, 0), resolution=7)
    _record_whole_grid(ref, coords, coords, F, EPS0)
    assert repr(rep) == repr(ref)  # repr tells 0.0 from -0.0
    assert repr((rep.worst_margin, rep.worst_point)) == repr((margin, point))


# Coefficients that make ties and sign changes of -lambda_min likely.
_coefficient = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 3),
                                EPS0, -EPS0, 2 * EPS0, -EPS0 / 2, 3 * EPS0])
_terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         _coefficient, max_size=5)
_offsets = st.lists(st.fractions(0, 1, max_denominator=64), max_size=3)


@settings(deadline=None, max_examples=60)
@given(_terms, _offsets, _offsets)
def test_worst_sample_matches_the_whole_grid_on_synthetic_patches(terms, ox, oy):
    patch = _synthetic_patch(terms)
    xs = [Fraction(i + 1, 8) for i in range(7)] + ox
    ys = [Fraction(i + 1, 6) for i in range(5)] + oy
    F = patch.fields(xs, ys)
    rep = CriterionReport(cell=(0, 0), resolution=7)
    _record(rep, xs, ys, F, EPS0)
    ref = CriterionReport(cell=(0, 0), resolution=7)
    _record_whole_grid(ref, xs, ys, F, EPS0)
    assert repr(rep) == repr(ref)


_ONE = 1 << _GRID_BITS  # the polish grid: local offsets are k / _ONE


def _step_point(X, Y, sx, sy, det, j):
    """(X, Y) + 2^-j (sx, sy) / det on the grid, each coordinate rounded
    half up, in exact rationals."""
    return tuple(Z + math.floor(Fraction(s << _GRID_BITS - j, det) + Fraction(1, 2))
                 for Z, s in ((X, sx), (Y, sy)))


def _inside(point):
    return all(0 < Z < _ONE for Z in point)


# Starts strictly inside the cell, where _newton_polish keeps its point; 1
# and _ONE - 1 are the grid points next to the walls.
_start = st.one_of(st.integers(1, _ONE - 1), st.integers(1, 2**48),
                   st.integers(_ONE - 2**48, _ONE - 1),
                   st.sampled_from([1, _ONE - 1]))
# A Newton step of about 2^e times the cell, as a numerator s over the
# shared det.  For e in -2..42 the first j inside the cell varies; for e in
# -195..-150 the step rounds to 0 on the 2^-192 grid for the last j.
_scaled_step = st.tuples(st.sampled_from([-1, 1]), st.integers(2**63, 2**64),
                         st.one_of(st.integers(-2, 42), st.integers(-195, -150),
                                   st.integers(-260, 50)),
                         st.integers(-3, 3))


@settings(deadline=None, max_examples=300)
@given(_start, _start, _scaled_step, _scaled_step,
       st.integers(1, 2**64), st.integers(0, 320), st.sampled_from([-1, 1]))
# Next to the wall x = 0, a step of -2^-183 cells reaches the wall for
# j <= 9 and rounds to 0 from j = 10 on, while y needs j >= 5: j = 10.
@example(1, _ONE // 2, (-1, 2**64, -183, 0), (1, 2**64, 3, 0), 1, 300, 1)
def test_polish_step_is_the_least_feasible_j(X, Y, step_x, step_y, det_mantissa,
                                             det_shift, det_sign):
    """The step taken is the point of some j < 40 strictly inside the cell,
    and no smaller j's point is; None only when no j < 40 fits."""
    det = det_sign * det_mantissa << det_shift
    sx, sy = ((sign * m * det >> 64 - e) + jitter
              for sign, m, e, jitter in (step_x, step_y))
    points = [_step_point(X, Y, sx, sy, det, j) for j in range(40)]
    found = _polish_step(X, Y, sx, sy, det)
    if found is None:
        assert not any(map(_inside, points))
    else:
        j = points.index(found)
        assert _inside(found) and not any(map(_inside, points[:j]))


@pytest.mark.parametrize("cell", [(1, 2), (1, 16)])
def test_polish_starts_at_the_exact_worst_sample(hard_n1, monkeypatch, cell):
    # In these column-1 cells the worst sample lies at the targeted offset
    # x = 1 - 1/gap, whose float rounding is the wall x = 1.0.  Every polish
    # must start from an exact point strictly inside the cell, the first
    # from the worst sample itself.  The gradient enclosure proves both
    # cells, so it is switched off here for the polishes to run.
    monkeypatch.setattr(box_certifier, "gradient_bounded", lambda patch, tol: False)
    worst, starts = [], []
    record, polish = box_certifier._record, box_certifier._newton_polish

    def recording_record(report, xs, ys, F, eps):
        record(report, xs, ys, F, eps)
        worst.append(report.worst_point)

    def recording_polish(patch, x0, y0):
        starts.append((x0, y0))
        return polish(patch, x0, y0)

    monkeypatch.setattr(box_certifier, "_record", recording_record)
    monkeypatch.setattr(box_certifier, "_newton_polish", recording_polish)
    certify_cell(hard_n1, *cell)
    grid_worst = worst[0]  # the first _record call samples the grid
    assert float(grid_worst[0]) == 1.0 and len(starts) == 2
    assert all(type(t) is Fraction and 0 < t < 1
               for start in starts for t in start)
    assert starts[0] == grid_worst


@pytest.mark.parametrize("cell", [(1, 2), (1, 16)])
def test_enclosure_skips_the_polish_of_proved_cells(hard_n1, monkeypatch, cell):
    # The gradient enclosure proves max(|f_x|, |f_y|) > POLISH_TOL on these
    # cells, so no polish runs, and the report is the one the polishes
    # would have left.
    assert gradient_bounded(hard_n1.patch(*cell), POLISH_TOL)
    starts = []
    polish = box_certifier._newton_polish

    def recording_polish(patch, x0, y0):
        starts.append((x0, y0))
        return polish(patch, x0, y0)

    monkeypatch.setattr(box_certifier, "_newton_polish", recording_polish)
    report = certify_cell(hard_n1, *cell)
    assert starts == []
    monkeypatch.setattr(box_certifier, "gradient_bounded", lambda patch, tol: False)
    assert certify_cell(hard_n1, *cell) == report
    assert len(starts) == 2 and all(polish(hard_n1.patch(*cell), *s) is None
                                    for s in starts)


def test_polish_start_below_the_grid_is_clamped_inside(monkeypatch):
    # f = (x^2 + y^2) / 2 has its worst sample at the offset 2^-200, which
    # rounds to the wall 0 of the 2^-192 grid: the polish starts at (1, 1).
    patch = _synthetic_patch({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    points = []  # every grid point a polish step leaves
    step = box_certifier._polish_step

    def recording_step(X, Y, sx, sy, det):
        points.append((X, Y))
        return step(X, Y, sx, sy, det)

    monkeypatch.setattr(box_certifier, "_polish_step", recording_step)
    rep = certify_no_sosp(patch, resolution=3,
                          extra_offsets=[Fraction(1, 2**200)], _refine=0)
    assert all(0 < t < _ONE for point in points for t in point)
    assert (1, 1) in points
    assert (Fraction(1, _ONE), Fraction(1, _ONE)) in rep.failing


# ---------------------------------------------------------------------------
# Classification over random ITER tables.
# ---------------------------------------------------------------------------


@st.composite
def _iter_tables(draw):
    n = draw(st.integers(1, 3))
    size = 1 << n
    rest = draw(st.lists(st.integers(1, size), min_size=size - 1,
                         max_size=size - 1))
    return IterInstance(n, (draw(st.integers(2, size)), *rest))


@settings(deadline=None, max_examples=25)
@given(_iter_tables())
def test_classify_all_on_random_tables(inst):
    C = dict(enumerate(inst.table, start=1))
    solutions = [k for k in C if C[k] < k or (C[k] > k and C[C[k]] == C[k])]
    labels = classify_all(inst)
    assert {cell for cell, lab in labels.items() if lab.kind == "X"} == {
        (a, 6 * k + 2) for k in solutions for a in range(6 * k - 3, 6 * k)}
