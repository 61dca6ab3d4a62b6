"""Cell taxonomy and numerical no-SOSP certification.

Every unit cell of the hard instance falls into one of the catalogued
corner patterns (Groups A-G and 1-4), is one of the three X cells sitting
on top of a solution column, or touches the domain boundary.  The pattern
table below was reconstructed by fitting the closed-form derivative
expressions of each group to the 12 free corner parameters of a biquintic
patch (see scripts/derive_patterns.py); classification tries the table
under the full 16-element symmetry group (reflections, transposition and
negation).

Certification is a sampling certificate, not a proof: on a dense interior
grid (plus targeted near-edge offsets and a Newton-polished stationary
candidate) every sample must satisfy |Gx| > eps0, |Gy| > eps0 or
lambda_min < -eps0.  Each sample's verdict is exact.  Sample coordinates
are rationals p/q, the patch coefficients are scaled to integers over
their common denominator, and the gradient and Hessian on the whole grid
are integer matrices over one known scale per sample.  The gradient tests
are integer comparisons; the curvature test is sqrt-free (lambda_min <
-eps0 iff H + eps0 I has a negative diagonal entry or determinant).  Only
the Newton polish and the irrational 1/sqrt(gap) offsets use
high-precision floats, and their points are made rational before they are
sampled.  The reported worst margin is rounded to float once, from exact
integers.  Boundary cells are checked the same way: the proximal step is
exact in rationals and ||g_pi||^2 > eps0^2 needs no square root.  X cells
contain a genuine SOSP and are expected to fail certification; they serve
as the negative control.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._precision import hp, hp_sqrt, to_fraction
from .biquintic import BoxPatch
from .color_field import ColorField, Direction
from .hard_instance import HardInstance
from .iter_problems import IterInstance

__all__ = [
    "ClassificationError",
    "GroupLabel",
    "CriterionReport",
    "BoundaryReport",
    "cell_corner_data",
    "canonicalize",
    "classify_cell",
    "classify_all",
    "certify_no_sosp",
    "certify_cell",
    "boundary_prox_check",
    "certification_report",
]

EPS0 = 1e-10

# Corner order used throughout: (0,0), (1,0), (0,1), (1,1) in cell-local
# coordinates (dx, dy).
CORNER_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))

_U = Direction.UP
_D = Direction.DOWN
_L = Direction.LEFT
_R = Direction.RIGHT


class ClassificationError(ValueError):
    """Raised when a cell matches no catalogued corner pattern."""


@dataclass(frozen=True)
class CornerData:
    """Values and descent arrows at the four corners of one cell."""

    values: tuple  # four exact rationals, corner order as above
    arrows: tuple  # four Direction members

    def pattern_string(self) -> str:
        tags = [f"({v}, {d.name})" for v, d in zip(self.values, self.arrows)]
        return "[00=%s 10=%s 01=%s 11=%s]" % tuple(tags)


@dataclass(frozen=True)
class GroupLabel:
    kind: str  # "A".."G", "G1".."G4", "X", "Boundary"
    transforms: tuple = ()  # canonicalizing transform sequence (kinds 1-6)

    def __str__(self) -> str:
        if self.transforms:
            return f"{self.kind}{list(self.transforms)}"
        return self.kind


# ---------------------------------------------------------------------------
# Transformations on corner data.
#
# Kind 1: reflection about the horizontal midline (swaps bottom/top corners,
#         flips the y-component of every arrow).
# Kind 2: reflection about the vertical midline.
# Kind 3: reflection about the main diagonal (transposition).
# Kind 4: reflection about the anti-diagonal.
# Kind 5: negation (values and gradients flip sign).
# Kind 6: quarter-turn rotation (composition of kinds 3 and 1).
# ---------------------------------------------------------------------------

_ARROW_FLIP_Y = {_U: _D, _D: _U, _L: _L, _R: _R}
_ARROW_FLIP_X = {_U: _U, _D: _D, _L: _R, _R: _L}
_ARROW_TRANSPOSE = {_U: _R, _R: _U, _D: _L, _L: _D}
_ARROW_ANTITRANSPOSE = {_U: _L, _L: _U, _D: _R, _R: _D}
_ARROW_NEGATE = {_U: _D, _D: _U, _L: _R, _R: _L}

# new_data[i] = old_data[perm[i]] under the corner permutation of each kind.
_TRANSFORM_TABLE = {
    1: ((2, 3, 0, 1), _ARROW_FLIP_Y, False),
    2: ((1, 0, 3, 2), _ARROW_FLIP_X, False),
    3: ((0, 2, 1, 3), _ARROW_TRANSPOSE, False),
    4: ((3, 1, 2, 0), _ARROW_ANTITRANSPOSE, False),
    5: ((0, 1, 2, 3), _ARROW_NEGATE, True),
}


def _apply_transform(data: CornerData, kind: int) -> CornerData:
    if kind == 6:  # quarter turn = transpose then vertical flip
        return _apply_transform(_apply_transform(data, 3), 1)
    perm, arrow_map, negate = _TRANSFORM_TABLE[kind]
    values = tuple(-data.values[p] if negate else data.values[p] for p in perm)
    arrows = tuple(arrow_map[data.arrows[p]] for p in perm)
    return CornerData(values, arrows)


def canonicalize(data: CornerData, transforms: Sequence[int]) -> CornerData:
    """Apply a sequence of transform kinds (1-6) to corner data."""
    for kind in transforms:
        if kind not in (1, 2, 3, 4, 5, 6):
            raise ValueError(f"unknown transform kind {kind}")
        data = _apply_transform(data, kind)
    return data


# The 16 symmetries: the dihedral group of the square times negation.
_DIHEDRAL = ((), (1,), (2,), (1, 2), (3,), (3, 1), (3, 2), (3, 1, 2))
ALL_TRANSFORMS = _DIHEDRAL + tuple((5,) + seq for seq in _DIHEDRAL)


# ---------------------------------------------------------------------------
# Pattern table (frozen output of scripts/derive_patterns.py).
#
# Groups A-G: per corner a (symbol, offset) pair plus an arrow.  Symbols are
# reference color values ordered by increasing magnitude; two corners with
# the same symbol must realize the same base value, and distinct symbols
# must be well separated.
# ---------------------------------------------------------------------------

_LETTER_PATTERNS = {
    #        00         10        01        11         arrows (00,10,01,11)
    "A": ((( 2, -1), (2,  0), (0,  0), (1, 0)), (_U, _U, _L, _R)),
    "B": ((( 1, -1), (1,  0), (0,  0), (2, 0)), (_U, _L, _U, _R)),
    "C": ((( 0,  1), (1, -1), (1,  1), (1, 0)), (_L, _R, _D, _R)),
    "D": ((( 0,  2), (1,  2), (0,  1), (0, 0)), (_U, _R, _U, _U)),
    "E": ((( 0,  0), (1, -1), (0, -1), (1, 0)), (_U, _R, _U, _R)),
    "F": ((( 0,  0), (0,  1), (1,  1), (1, 0)), (_L, _L, _R, _D)),
    "G": ((( 0,  0), (1, -1), (0, -1), (1, 0)), (_U, _D, _U, _D)),
}

# Groups 1-4: arrows plus corner-value inequalities.  Constraints are
# triples (i, j, k) meaning values[i] >= values[j] + k.
_NUMBER_PATTERNS = {
    "G1": ((_R, _R, _R, _R), ((2, 3, 1), (0, 1, 1))),
    "G2": ((_U, _U, _R, _R), ((2, 3, 1), (0, 1, -1), (1, 3, 1), (0, 2, 1))),
    "G3": ((_U, _U, _R, _U), ((2, 3, 1), (0, 1, -1), (1, 3, 1), (0, 2, 1))),
    "G4": ((_R, _U, _U, _U), ((2, 3, -1), (0, 1, 1), (1, 3, 1), (0, 2, 1))),
}

# Junction variants: corner patterns occurring where blue columns meet the
# red background (and where fixed-point nodes leave gaps in the column
# layout).  The catalogued group figures cover these cases individually;
# each is attached to the structurally nearest group.  All of them are
# FOSP-free, which the numerical certification re-checks on every run.
_VARIANT_PATTERNS = (
    ("G1", ((0, 0), (1, 0), (1, 2), (1, 1)), (_R, _R, _R, _R)),
    ("D",  ((0, 2), (1, 0), (0, 1), (0, 0)), (_U, _R, _U, _R)),
    ("E",  ((0, 1), (0, 0), (0, 0), (1, 0)), (_U, _R, _U, _R)),
    ("G3", ((1, 1), (1, 0), (0, 0), (1, 1)), (_R, _R, _U, _R)),
    ("G4", ((0, 1), (1, 0), (0, 0), (1, 1)), (_U, _R, _R, _R)),
)

# Distinct reference symbols in a letter pattern must be separated by more
# than any intra-pattern offset; actual color regimes are >> 2 apart.
_SYMBOL_SEPARATION = 2


def _match_letter(data: CornerData, pattern) -> bool:
    spec, arrows = pattern
    if data.arrows != arrows:
        return False
    bases: dict[int, Fraction] = {}
    for (sym, off), val in zip(spec, data.values):
        base = val - off
        if sym in bases:
            if bases[sym] != base:
                return False
        else:
            bases[sym] = base
    ordered = [bases[s] for s in sorted(bases)]
    return all(hi >= lo + _SYMBOL_SEPARATION for lo, hi in zip(ordered, ordered[1:]))


def _match_number(data: CornerData, pattern) -> bool:
    arrows, constraints = pattern
    if data.arrows != arrows:
        return False
    v = data.values
    return all(v[i] >= v[j] + k for i, j, k in constraints)


def cell_corner_data(field_or_inst, a: int, b: int) -> CornerData:
    """Exact corner values and arrows for cell Box(a, b)."""
    field = (field_or_inst if isinstance(field_or_inst, ColorField)
             else ColorField(field_or_inst))
    assigns = [field.assignment(a + dx, b + dy) for dx, dy in CORNER_ORDER]
    return CornerData(tuple(c.value for c in assigns),
                      tuple(c.direction for c in assigns))


def _x_cells(field: ColorField) -> frozenset:
    cells = set()
    for k in field.solutions:
        for a in (6 * k - 3, 6 * k - 2, 6 * k - 1):
            cells.add((a, 6 * k + 2))
    return frozenset(cells)


def classify_cell(field_or_inst, a: int, b: int) -> GroupLabel:
    """Deterministic taxonomy label for cell Box(a, b).

    Order of precedence: X cells (by position), Boundary cells (touching
    the domain edge), then Groups A-G and 1-4 via pattern matching under
    the transformation group.  An unmatched interior cell raises
    ClassificationError naming the corner pattern.
    """
    field = (field_or_inst if isinstance(field_or_inst, ColorField)
             else ColorField(field_or_inst))
    N = field.N
    if not (0 <= a <= N - 1 and 0 <= b <= N - 1):
        raise ValueError(f"cell ({a}, {b}) outside [0, {N - 1}]^2")
    if (a, b) in _x_cells(field):
        return GroupLabel("X")
    if a in (0, N - 1) or b in (0, N - 1):
        return GroupLabel("Boundary")
    data = cell_corner_data(field, a, b)
    for seq in ALL_TRANSFORMS:
        variant = canonicalize(data, seq)
        for kind, pattern in _LETTER_PATTERNS.items():
            if _match_letter(variant, pattern):
                return GroupLabel(kind, seq)
        for kind, pattern in _NUMBER_PATTERNS.items():
            if _match_number(variant, pattern):
                return GroupLabel(kind, seq)
    for seq in ALL_TRANSFORMS:
        variant = canonicalize(data, seq)
        for kind, spec, arrows in _VARIANT_PATTERNS:
            if _match_letter(variant, (spec, arrows)):
                return GroupLabel(kind, seq)
    raise ClassificationError(
        f"cell Box({a}, {b}) matches no pattern: corners {data.pattern_string()}")


def classify_all(inst: IterInstance) -> dict:
    """Labels for every cell; raises on any classification gap."""
    field = ColorField(inst)
    N = field.N
    return {(a, b): classify_cell(field, a, b)
            for a in range(N) for b in range(N)}


# ---------------------------------------------------------------------------
# Numerical certification.
# ---------------------------------------------------------------------------


@dataclass
class CriterionReport:
    """Sampling certificate for one cell (local coordinates in (0,1)^2)."""

    cell: tuple
    resolution: int
    sample_count: int = 0
    gx_count: int = 0
    gy_count: int = 0
    lambda_count: int = 0
    worst_margin: float = float("inf")
    worst_point: tuple = (float("nan"), float("nan"))
    failing: list = field(default_factory=list)
    refined: bool = False
    passed: bool = True

    def to_json(self) -> dict:
        return {
            "cell": list(self.cell),
            "resolution": self.resolution,
            "samples": self.sample_count,
            "criteria": {"gx": self.gx_count, "gy": self.gy_count,
                         "lambda": self.lambda_count},
            "worst_margin": self.worst_margin,
            "worst_point": list(self.worst_point),
            "failing": [list(p) for p in self.failing],
            "refined": self.refined,
            "passed": self.passed,
        }


def _scaled_coeffs(patch: BoxPatch):
    """Integer coefficient matrix K = D * C over the common denominator D."""
    D = math.lcm(*(c.denominator for row in patch.coeffs for c in row))
    K = np.array([[c.numerator * (D // c.denominator) for c in row]
                  for row in patch.coeffs], dtype=object)
    return K, D


def _scaled_rows(coords):
    """Integer rows q^5 t^p, q^5 (t^p)' and q^5 (t^p)'' (p = 0..5) of each
    coordinate t = p/q, and the scales q^5."""
    r0, r1, r2, scales = [], [], [], []
    for t in coords:
        num, den = t.numerator, t.denominator
        pn = [num ** e for e in range(6)]
        qn = [den ** e for e in range(8)]
        r0.append([pn[e] * qn[5 - e] for e in range(6)])
        r1.append([0] + [e * pn[e - 1] * qn[6 - e] for e in range(1, 6)])
        r2.append([0, 0] + [e * (e - 1) * pn[e - 2] * qn[7 - e]
                            for e in range(2, 6)])
        scales.append(qn[5])
    return tuple(np.array(r, dtype=object) for r in (r0, r1, r2, scales))


class _Fields(NamedTuple):
    """Exact derivative fields on a sample grid, all over one scale: the
    value of gx at sample (i, j) is gx[i, j] / scale[i, j], and so on."""

    gx: np.ndarray
    gy: np.ndarray
    hxx: np.ndarray
    hyy: np.ndarray
    hxy: np.ndarray
    scale: np.ndarray


def _fields(K, D: int, xs, ys) -> _Fields:
    """Gradient and Hessian of the patch on the xs x ys grid of rationals."""
    x0, x1, x2, sx = _scaled_rows(xs)
    y0, y1, y2, sy = _scaled_rows(ys)
    x0k, x1k = x0 @ K, x1 @ K
    return _Fields(gx=x1k @ y0.T, gy=x0k @ y1.T, hxx=(x2 @ K) @ y0.T,
                   hyy=x0k @ y2.T, hxy=x1k @ y1.T,
                   scale=np.outer(sx, sy) * D)


# Bits carried by an integer square root before its one rounding to float.
_SQRT_BITS = 120


def _isqrt_shifted(value: int):
    """(r, k) with r = floor(sqrt(value) * 2^k) carrying >= _SQRT_BITS bits."""
    k = max(0, _SQRT_BITS - value.bit_length() // 2)
    return math.isqrt(value << 2 * k), k


def _neg_lambda_min(hxx: int, hyy: int, hxy: int, scale: int) -> float:
    """-lambda_min of the Hessian [[hxx, hxy], [hxy, hyy]] / scale.

    -lambda_min = (sqrt(Q) - T) / (2 scale) with T = hxx + hyy and
    Q = (hxx - hyy)^2 + 4 hxy^2.  For T > 0 the difference is rewritten as
    -4 det / (sqrt(Q) + T), so that no step cancels.
    """
    t = hxx + hyy
    r, k = _isqrt_shifted((hxx - hyy) ** 2 + 4 * hxy * hxy)
    if t <= 0:
        return (r - (t << k)) / (2 * scale << k)
    det = hxx * hyy - hxy * hxy
    return (-2 * det << k) / (scale * (r + (t << k)))


_neg_lambda_grid = np.frompyfunc(_neg_lambda_min, 4, 1)


def _record(report: CriterionReport, xs, ys, F: _Fields, eps: Fraction):
    """Decide the three criteria exactly at every sample of the grid.

    |g| > eps is |G| * den > num * scale for eps = num/den; lambda_min <
    -eps holds iff H + eps I is not positive semidefinite, i.e. one of its
    diagonal entries or its determinant is negative.
    """
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
    # Each margin is rounded to float once, from exact integers, so the
    # worst sample is the first one with the least rounded margin.
    margin = np.maximum(np.maximum(abs_gx, abs_gy) / F.scale,
                        _neg_lambda_grid(F.hxx, F.hyy, F.hxy, F.scale)
                        ).astype(float)
    i, j = np.unravel_index(np.argmin(margin), margin.shape)
    if margin[i, j] < report.worst_margin:
        report.worst_margin = float(margin[i, j])
        report.worst_point = (float(xs[i]), float(ys[j]))
    for i, j in zip(*np.nonzero(~(ok_gx | ok_gy | ok_lam))):
        report.failing.append((float(xs[i]), float(ys[j])))
        report.passed = False


def _newton_polish(patch: BoxPatch, x0, y0, iters: int = 40):
    """Damped Newton on grad f = 0 inside the open unit cell (hp floats)."""
    x, y = hp(x0) + patch.a, hp(y0) + patch.b
    lo_x, hi_x = patch.a, patch.a + 1
    lo_y, hi_y = patch.b, patch.b + 1
    for _ in range(iters):
        _, (fx, fy), ((fxx, fxy), (_, fyy)) = patch.eval(x, y, exact=False)
        det = fxx * fyy - fxy * fxy
        if det == 0:
            return None
        sx = (-fx * fyy + fy * fxy) / det
        sy = (-fy * fxx + fx * fxy) / det
        step = hp(1)
        nx, ny = x + sx, y + sy
        while not (lo_x < nx < hi_x and lo_y < ny < hi_y):
            step = step / 2
            if step < 1e-12:
                return None
            nx, ny = x + sx * step, y + sy * step
        moved = abs(nx - x) + abs(ny - y)
        x, y = nx, ny
        if moved < 1e-40:
            break
    _, (fx, fy), _ = patch.eval(x, y, exact=False)
    if abs(fx) > 1e-6 or abs(fy) > 1e-6:  # did not converge to a FOSP
        return None
    return x - patch.a, y - patch.b


def certify_no_sosp(patch: BoxPatch, eps0: float = EPS0, resolution: int = 51,
                    extra_offsets: Iterable = (), polish: bool = True,
                    _refine: int = 201) -> CriterionReport:
    """Sample the three no-SOSP criteria over the cell interior.

    Every sample must satisfy |Gx| > eps0, |Gy| > eps0 or
    lambda_min < -eps0, decided exactly at a rational sample point.  The
    worst sample is Newton-polished toward the nearest interior stationary
    point so that genuine SOSPs (X cells) are actually found rather than
    straddled by the grid.  Cells whose worst margin falls below 10*eps0
    are re-sampled at the refinement resolution.
    """
    offsets = [t for t in map(to_fraction, extra_offsets) if 0 < t < 1]
    report = CriterionReport(cell=(patch.a, patch.b), resolution=resolution)
    # The coefficient matrix is expressed in cell-local coordinates.
    K, D = _scaled_coeffs(patch)
    eps = Fraction(eps0)
    coords = [Fraction(i + 1, resolution + 1)
              for i in range(resolution)] + offsets
    _record(report, coords, coords, _fields(K, D, coords, coords), eps)

    if polish:
        starts = {report.worst_point}
        # Also polish from a mid-cell start: near-edge worst samples can
        # drag Newton away from an interior stationary point.
        starts.add((0.5, 0.5))
        for wx, wy in starts:
            polished = _newton_polish(patch, wx, wy)
            if polished is None:
                continue
            px, py = ([to_fraction(t)] for t in polished)
            _record(report, px, py, _fields(K, D, px, py), eps)

    if (report.worst_margin < 10 * eps0 and _refine
            and resolution < _refine):
        fine = certify_no_sosp(patch, eps0, _refine, offsets,
                               polish=polish, _refine=0)
        fine.refined = True
        fine.resolution = _refine
        return fine
    return report


def _targeted_offsets(data: CornerData):
    """Near-edge sample offsets derived from the cell's color gaps.

    Letter patterns place degenerate behaviour within bands of width
    ~1/(gap between color regimes) of the cell edges; sample inside those
    bands explicitly.
    """
    bases = sorted(set(abs(v) for v in data.values))
    offsets = []
    for lo, hi in zip(bases, bases[1:]):
        gap = hi - lo
        if gap <= 4:
            continue
        inv = 1 / gap
        inv_sqrt = 1 / hp_sqrt(gap)
        offsets += [inv, 1 - inv, to_fraction(inv_sqrt),
                    to_fraction(1 - inv_sqrt)]
    return offsets


def certify_cell(h: HardInstance, a: int, b: int, eps0: float = EPS0,
                 resolution: int = 51, polish: bool = True) -> CriterionReport:
    """Certify one cell of a (unit-gain) hard instance."""
    data = cell_corner_data(h.field, a, b)
    return certify_no_sosp(h.patch(a, b), eps0, resolution,
                           extra_offsets=_targeted_offsets(data),
                           polish=polish)


# ---------------------------------------------------------------------------
# Boundary cells: proximal-gradient check.
# ---------------------------------------------------------------------------


@dataclass
class BoundaryReport:
    cell: tuple
    resolution: int
    worst_norm: float = float("inf")
    worst_point: tuple = (float("nan"), float("nan"))
    failing: list = field(default_factory=list)
    passed: bool = True

    def to_json(self) -> dict:
        return {
            "cell": list(self.cell),
            "resolution": self.resolution,
            "worst_norm": self.worst_norm,
            "worst_point": list(self.worst_point),
            "failing": [list(p) for p in self.failing],
            "passed": self.passed,
        }


def boundary_prox_check(h: HardInstance, cells: Iterable | None = None,
                        resolution: int = 11, eps0: float = EPS0) -> list:
    """Check ||g_pi|| > eps0 on samples of boundary cells.

    The box proximal gradient decouples per coordinate: either the step
    stays interior (g_pi = -grad f, and the gradient criteria apply) or a
    component overshoots the domain wall, in which case its contribution
    is at least the distance to the wall times L1.  The step is exact in
    rationals and the test is ||g_pi||^2 > eps0^2.
    """
    N = h.domain_high
    L1 = h.lipschitz_report().L1
    eps_sq = Fraction(eps0) ** 2
    if cells is None:
        last = N - 1
        cells = sorted({(a, b) for a in range(N) for b in range(N)
                        if a in (0, last) or b in (0, last)})
    reports = []
    ticks = [Fraction(i, resolution - 1) for i in range(resolution)]
    for (a, b) in cells:
        rep = BoundaryReport(cell=(a, b), resolution=resolution)
        F = _fields(*_scaled_coeffs(h.patch(a, b)), ticks, ticks)
        for i, tx in enumerate(ticks):
            for j, ty in enumerate(ticks):
                x, y = a + tx, b + ty
                scale = L1 * F.scale[i, j]
                sx = min(max(x - Fraction(F.gx[i, j]) / scale, 0), N)
                sy = min(max(y - Fraction(F.gy[i, j]) / scale, 0), N)
                norm_sq = L1 * L1 * ((sx - x) ** 2 + (sy - y) ** 2)
                r, k = _isqrt_shifted(norm_sq.numerator * norm_sq.denominator)
                norm = r / (norm_sq.denominator << k)
                if norm < rep.worst_norm:
                    rep.worst_norm = norm
                    rep.worst_point = (float(x), float(y))
                if norm_sq <= eps_sq:
                    rep.failing.append((float(x), float(y)))
                    rep.passed = False
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Whole-instance report.
# ---------------------------------------------------------------------------


def certification_report(inst: IterInstance, eps0: float = EPS0,
                         resolution: int = 51,
                         boundary_resolution: int = 5) -> dict:
    """Classify and certify every cell; JSON-serializable summary.

    Interior non-X cells run certify_no_sosp; Boundary cells run
    boundary_prox_check; X cells run certify_no_sosp as a negative
    control and are expected to fail.
    """
    from .hard_instance import ScaleMode, build

    h = build(inst, ScaleMode.UNIT)
    field = h.field
    N = field.N
    cells = []
    counts: dict[str, int] = {}
    ok = True
    for a in range(N):
        for b in range(N):
            label = classify_cell(field, a, b)
            counts[label.kind] = counts.get(label.kind, 0) + 1
            entry = {"cell": [a, b], "label": label.kind,
                     "transforms": list(label.transforms)}
            if label.kind == "Boundary":
                rep = boundary_prox_check(h, [(a, b)], boundary_resolution,
                                          eps0)[0]
                entry["boundary"] = rep.to_json()
                ok = ok and rep.passed
            else:
                rep = certify_cell(h, a, b, eps0, resolution)
                entry["certificate"] = rep.to_json()
                if label.kind == "X":
                    entry["expected_fail"] = True
                else:
                    ok = ok and rep.passed
            cells.append(entry)
    return {"n": inst.n, "N": N, "counts": counts, "passed": ok,
            "cells": cells}


def dump_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
