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
candidate) every sample must satisfy |Gx| > EPS0, |Gy| > EPS0 or
lambda_min < -EPS0, with EPS0 exactly 10^-10.  Only a passing near miss is
re-sampled on a finer grid; a cell with a failing sample keeps its coarse
report.  Each sample's verdict is exact.  Sample coordinates are rationals
p/q, and the gradient and Hessian on the whole grid come from the patch's
own exact integer kernel (BoxPatch.fields in biquintic) as rows of
Python integers over one known scale per sample.  One plain loop decides
every sample: the gradient tests are integer comparisons; the curvature
test is sqrt-free (lambda_min < -EPS0 iff H + EPS0 I has a negative
diagonal entry or determinant).  The Newton polish steps on the
2^-192 grid with the point kernel (BoxPatch.point_fields), from exact
starts strictly inside the cell; its damped step, the first of 2^-j
times the Newton step that stays inside the cell, is found by bisection
on j.  A polish keeps a point only where max(|f_x|, |f_y|) <= POLISH_TOL,
so certify_no_sosp skips both polishes of a cell when an exact Bernstein
enclosure of the gradient (bernstein.gradient_bounded, in integers on the
closed cell) proves max(|f_x|, |f_y|) > POLISH_TOL everywhere: the report
is the one the polishes would have left.  The 1/sqrt(gap) offsets are
integer square roots on that grid: no high-precision float is used.
Reports keep their points exact: floats appear only in to_json and in the
margin figures, each rounded once from exact integers.  The curvature part
of a sample's margin is read only where the gradient part leaves it a
chance to be the worst.
Boundary cells are checked the same way: the proximal step is exact in
rationals and ||g_pi||^2 > EPS0^2 needs no square root.  X cells contain
a genuine SOSP and must fail certification; they serve as the negative
control.  certification_report certifies once per key (the patch up to
an additive constant, the targeted offsets and the resolution) and copies
the certificate to every other interior or X cell with that key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

from ._precision import to_fraction
from .bernstein import gradient_bounded
from .biquintic import BoxPatch, Fields
from .color_field import ColorField, Direction
from .hard_instance import HardInstance, ScaleMode, build
from .iter_problems import IterInstance
from .stationarity import first_order_test, squared_norm

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
    "certify_labelled_cell",
    "certification_report",
]

EPS0 = Fraction(1, 10**10)
# A polished point is kept only where max(|f_x|, |f_y|) <= POLISH_TOL.
POLISH_TOL = Fraction(1, 10**6)
BOUNDARY_RESOLUTION = 5  # samples per side of a boundary cell in the report
_GRID_BITS = 192  # polished points and 1/sqrt(gap) offsets are k / 2^192

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
    transforms: tuple = ()  # canonicalizing transform sequence (kinds 1, 2, 3, 5)


# ---------------------------------------------------------------------------
# Transformations on corner data.
#
# Kind 1: reflection about the horizontal midline (swaps bottom/top corners,
#         flips the y-component of every arrow).
# Kind 2: reflection about the vertical midline.
# Kind 3: reflection about the main diagonal (transposition).
# Kind 5: negation (values and gradients flip sign).
# Sequences of these span the 16 symmetries (ALL_TRANSFORMS).
# ---------------------------------------------------------------------------

_ARROW_FLIP_Y = {_U: _D, _D: _U, _L: _L, _R: _R}
_ARROW_FLIP_X = {_U: _U, _D: _D, _L: _R, _R: _L}
_ARROW_TRANSPOSE = {_U: _R, _R: _U, _D: _L, _L: _D}
_ARROW_NEGATE = {_U: _D, _D: _U, _L: _R, _R: _L}

# new_data[i] = old_data[perm[i]] under the corner permutation of each kind.
_TRANSFORM_TABLE = {
    1: ((2, 3, 0, 1), _ARROW_FLIP_Y, False),
    2: ((1, 0, 3, 2), _ARROW_FLIP_X, False),
    3: ((0, 2, 1, 3), _ARROW_TRANSPOSE, False),
    5: ((0, 1, 2, 3), _ARROW_NEGATE, True),
}


def canonicalize(data: CornerData, transforms: Sequence[int]) -> CornerData:
    """Apply a sequence of transform kinds (1, 2, 3, 5) to corner data."""
    for kind in transforms:
        if kind not in _TRANSFORM_TABLE:
            raise ValueError(f"unknown transform kind {kind}")
        perm, arrow_map, negate = _TRANSFORM_TABLE[kind]
        data = CornerData(
            tuple(-data.values[p] if negate else data.values[p] for p in perm),
            tuple(arrow_map[data.arrows[p]] for p in perm))
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


def cell_corner_data(field: ColorField, a: int, b: int) -> CornerData:
    """Exact corner values and arrows for cell Box(a, b)."""
    assigns = [field.assignment(a + dx, b + dy) for dx, dy in CORNER_ORDER]
    return CornerData(tuple(c.value for c in assigns),
                      tuple(c.direction for c in assigns))


def classify_cell(field: ColorField, a: int, b: int) -> GroupLabel:
    """Deterministic taxonomy label for cell Box(a, b).

    Order of precedence: X cells (by position), Boundary cells (touching
    the domain edge), then Groups A-G and 1-4 via pattern matching under
    the transformation group.  An unmatched interior cell raises
    ClassificationError naming the corner pattern.
    """
    N = field.N
    if not (0 <= a <= N - 1 and 0 <= b <= N - 1):
        raise ValueError(f"cell ({a}, {b}) outside [0, {N - 1}]^2")
    if field.x_cell_node(a, b) is not None:
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
    worst_point: tuple = (float("nan"), float("nan"))  # exact once sampled
    failing: list = field(default_factory=list)  # exact sample points
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
            "worst_point": [float(t) for t in self.worst_point],
            "failing": [[float(t) for t in p] for p in self.failing],
            "refined": self.refined,
            "passed": self.passed,
        }


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


def _record(report: CriterionReport, xs, ys, F: Fields, eps: Fraction):
    """Decide the three criteria exactly at every sample of the grid.

    |g| > eps is |G| * den > num * scale for eps = num/den; lambda_min <
    -eps holds iff H + eps I is not positive semidefinite, i.e. one of its
    diagonal entries or its determinant is negative.
    """
    num, den = eps.numerator, eps.denominator
    g = []
    n_gx = n_gy = n_lam = 0
    for x, *row in zip(xs, F.gx, F.gy, F.hxx, F.hyy, F.hxy, F.scale):
        for y, gx, gy, hxx, hyy, hxy, scale in zip(ys, *row):
            eps_scaled = scale * num
            abs_gx, abs_gy = abs(gx), abs(gy)
            ok_gx = abs_gx * den > eps_scaled
            ok_gy = abs_gy * den > eps_scaled
            a = hxx * den + eps_scaled
            b = hyy * den + eps_scaled
            c = hxy * den
            ok_lam = a < 0 or b < 0 or a * b < c * c
            n_gx += ok_gx
            n_gy += ok_gy
            n_lam += ok_lam
            if not (ok_gx or ok_gy or ok_lam):
                report.failing.append((x, y))
                report.passed = False
            g.append((abs_gx if abs_gx >= abs_gy else abs_gy) / scale)
    report.sample_count += len(g)
    report.gx_count += n_gx
    report.gy_count += n_gy
    report.lambda_count += n_lam
    # A sample's margin is max(g, -lambda_min), g = max(|gx|, |gy|) / scale,
    # each rounded to float once from exact integers; the worst sample is
    # the first in row-major order with the least margin.  The margin is at
    # least g, so visiting samples by ascending g, -lambda_min is read only
    # while g does not exceed the least margin so far.
    best, best_k = float("inf"), -1
    for k in sorted(range(len(g)), key=g.__getitem__):
        gk = g[k]
        if gk > best:
            break
        i, j = divmod(k, len(ys))
        lam = _neg_lambda_min(*(m[i][j] for m in F[3:]))
        margin = gk if gk >= lam else lam  # g on a tie: 0.0, not -0.0
        if margin < best or (margin == best and k < best_k):
            best, best_k = margin, k
    if best < report.worst_margin:
        i, j = divmod(best_k, len(ys))
        report.worst_margin = best
        report.worst_point = (xs[i], ys[j])


_POLISH_STEPS = 40  # the step is 2^-j times the Newton step, j < 40
_POLISH_ITERS = 40  # Newton steps per polish


def _polish_step(X: int, Y: int, sx: int, sy: int, det: int):
    """The grid point (X, Y) + 2^-j (sx, sy) / det for the least j <
    _POLISH_STEPS that lies strictly inside the cell, or None.

    (X, Y) must lie strictly inside the cell: 0 < X, Y < 2^_GRID_BITS.
    Each coordinate's step is rounded half up to the grid.  From such a
    start a shorter step moves no farther, so the feasible j are all those
    from the first on, which bisection finds.
    """
    one = 1 << _GRID_BITS

    def point(j):
        nX = X + ((sx << _GRID_BITS - j + 1) + det) // (2 * det)
        nY = Y + ((sy << _GRID_BITS - j + 1) + det) // (2 * det)
        return (nX, nY) if 0 < nX < one and 0 < nY < one else None

    lo, hi = 0, _POLISH_STEPS - 1
    found = point(hi)
    while found is not None and lo < hi:
        mid = (lo + hi) // 2
        trial = point(mid)
        if trial is None:
            lo = mid + 1
        else:
            hi, found = mid, trial
    return found


def _newton_polish(patch: BoxPatch, x0: Fraction, y0: Fraction):
    """Damped Newton on grad f = 0 inside the open unit cell, in integers.

    The point is (X, Y) / 2^_GRID_BITS in local offsets, from (x0, y0)
    rounded to the grid and clamped strictly inside the cell; the step is
    the first of 1, 1/2, ..., 2^-39 times the exact Newton step that,
    rounded to the grid, stays inside too (_polish_step).  Returns
    Fractions or None."""
    one = 1 << _GRID_BITS
    X, Y = (min(max(round(t * one), 1), one - 1) for t in (x0, y0))
    for _ in range(_POLISH_ITERS):
        _, gx, gy, hxx, hyy, hxy, _ = patch.point_fields((X, one), (Y, one))
        det = hxx * hyy - hxy * hxy  # the fields' common scale cancels
        if det == 0:
            return None
        step = _polish_step(X, Y, gy * hxy - gx * hyy, gx * hxy - gy * hxx, det)
        if step is None:
            return None
        nX, nY = step
        moved, X, Y = abs(nX - X) + abs(nY - Y), nX, nY
        if moved * 10**40 < one:  # moved less than 1e-40
            break
    F = patch.point_fields((X, one), (Y, one))
    if max(abs(F.gx), abs(F.gy)) * POLISH_TOL.denominator > F.scale * POLISH_TOL.numerator:
        return None  # did not converge to a FOSP
    return Fraction(X, one), Fraction(Y, one)


def _sample(patch: BoxPatch, resolution: int, offsets: list,
            polish: bool) -> CriterionReport:
    """The report of the resolution x resolution grid plus the offsets,
    and, when polish holds, of the Newton-polished points."""
    report = CriterionReport(cell=(patch.a, patch.b), resolution=resolution)
    coords = [Fraction(i + 1, resolution + 1)
              for i in range(resolution)] + offsets
    _record(report, coords, coords, patch.fields(coords, coords), EPS0)
    if not polish:
        return report
    # Also polish from a mid-cell start: near-edge worst samples can drag
    # Newton away from an interior stationary point.
    for start in dict.fromkeys([report.worst_point, (Fraction(1, 2),) * 2]):
        polished = _newton_polish(patch, *start)
        if polished is None:
            continue
        px, py = ([t] for t in polished)
        _record(report, px, py, patch.fields(px, py), EPS0)
    return report


def certify_no_sosp(patch: BoxPatch, resolution: int = 51,
                    extra_offsets: Iterable = (),
                    _refine: int = 201) -> CriterionReport:
    """Sample the three no-SOSP criteria over the cell interior.

    Every sample must satisfy |Gx| > EPS0, |Gy| > EPS0 or
    lambda_min < -EPS0, decided exactly at a rational sample point.  The
    worst sample is Newton-polished toward the nearest interior stationary
    point so that genuine SOSPs (X cells) are actually found rather than
    straddled by the grid.  The polish is skipped when the exact Bernstein
    enclosure of the gradient (bernstein.gradient_bounded) proves
    max(|f_x|, |f_y|) > POLISH_TOL on the whole closed cell: every point a
    polish can return has max(|f_x|, |f_y|) <= POLISH_TOL, so the report is
    the one the polish would have left.  A near miss, a cell that passes
    with a worst margin below 10*EPS0, is re-sampled at the refinement
    resolution; a cell that fails is never re-sampled, since a failing
    sample stands.  ValueError for a resolution below 1.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    offsets = [t for t in map(to_fraction, extra_offsets) if 0 < t < 1]
    polish = not gradient_bounded(patch, POLISH_TOL)
    report = _sample(patch, resolution, offsets, polish)
    if (report.passed and report.worst_margin < 10 * EPS0
            and resolution < _refine):
        report = _sample(patch, _refine, offsets, polish)
        report.refined = True
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
        inv_sqrt = Fraction(math.isqrt(4**_GRID_BITS // gap), 1 << _GRID_BITS)
        offsets += [inv, 1 - inv, inv_sqrt, 1 - inv_sqrt]
    return offsets


def certify_cell(h: HardInstance, a: int, b: int,
                 resolution: int = 51) -> CriterionReport:
    """Certify one cell of a (unit-gain) hard instance."""
    data = cell_corner_data(h.field, a, b)
    return certify_no_sosp(h.patch(a, b), resolution,
                           extra_offsets=_targeted_offsets(data))


# ---------------------------------------------------------------------------
# Boundary cells: proximal-gradient check.
# ---------------------------------------------------------------------------


@dataclass
class BoundaryReport:
    cell: tuple
    resolution: int
    worst_norm: float = float("inf")
    worst_point: tuple = (float("nan"), float("nan"))  # exact once sampled
    failing: list = field(default_factory=list)  # exact sample points
    passed: bool = True

    def to_json(self) -> dict:
        return {
            "cell": list(self.cell),
            "resolution": self.resolution,
            "worst_norm": self.worst_norm,
            "worst_point": [float(t) for t in self.worst_point],
            "failing": [[float(t) for t in p] for p in self.failing],
            "passed": self.passed,
        }


def boundary_prox_check(h: HardInstance, cells: Iterable,
                        resolution: int = BOUNDARY_RESOLUTION) -> list:
    """Check ||g_pi|| > EPS0 on samples of the given boundary cells.

    g_pi is the proximal gradient on the domain box, exact in rationals:
    where the step x - grad/L1 overshoots a wall, g_pi is at least the
    distance to the wall times L1.  The test is ||g_pi||^2 > EPS0^2,
    stationarity.first_order_test as verify_sosp makes it.
    The ticks i / (resolution - 1) span the closed cell, so ValueError for a
    resolution below 2.  The cell's patch is in unscaled coordinates and
    the box and L1 in the instance's, so ValueError for an instance that
    is not at unit scale.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if h.mode is not ScaleMode.UNIT:
        raise ValueError(f"boundary_prox_check needs a unit-scale instance, "
                         f"got {h.mode.value}")
    poly = h.domain_polytope()
    L1 = h.lipschitz_report().L1
    reports = []
    ticks = [Fraction(i, resolution - 1) for i in range(resolution)]
    for (a, b) in cells:
        rep = BoundaryReport(cell=(a, b), resolution=resolution)
        F = h.patch(a, b).fields(ticks, ticks)
        for i, tx in enumerate(ticks):
            for j, ty in enumerate(ticks):
                x, y = a + tx, b + ty
                grad = [Fraction(g[i][j], F.scale[i][j]) for g in F[1:3]]
                within, gpi = first_order_test(poly, (x, y), grad, L1, EPS0)
                norm_sq = Fraction(*squared_norm(gpi))
                r, k = _isqrt_shifted(norm_sq.numerator * norm_sq.denominator)
                norm = r / (norm_sq.denominator << k)
                if norm < rep.worst_norm:
                    rep.worst_norm = norm
                    rep.worst_point = (x, y)
                if within:
                    rep.failing.append((x, y))
                    rep.passed = False
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Whole-instance report.
# ---------------------------------------------------------------------------


def _labelled_entry(label: GroupLabel, rep) -> tuple[dict, bool]:
    """The report entry of a classified cell from its BoundaryReport or
    CriterionReport, and whether it passes."""
    entry = {"cell": list(rep.cell), "label": label.kind,
             "transforms": list(label.transforms)}
    if label.kind == "Boundary":
        entry["boundary"] = rep.to_json()
        return entry, rep.passed
    entry["certificate"] = rep.to_json()
    if label.kind == "X":
        entry["expected_fail"] = True
        return entry, not rep.passed
    return entry, rep.passed


def certify_labelled_cell(h: HardInstance, a: int, b: int, label: GroupLabel,
                          resolution: int = 51) -> tuple[dict, bool]:
    """The report entry of one classified cell, and whether it passes.

    Boundary cells run boundary_prox_check at BOUNDARY_RESOLUTION; other
    cells run certify_cell at the given resolution.  X cells, the negative
    control, contain an SOSP: one passes here only if its certificate fails.
    """
    if label.kind == "Boundary":
        return _labelled_entry(label, boundary_prox_check(h, [(a, b)])[0])
    return _labelled_entry(label, certify_cell(h, a, b, resolution))


def certification_report(inst: IterInstance, resolution: int = 51) -> dict:
    """Classify and certify every cell (certify_labelled_cell);
    JSON-serializable summary.

    Cells that agree in all certify_no_sosp reads share one certificate:
    the patch's K but for K[0][0] (which only f, not its derivatives,
    reads; adding a constant to the four corner values changes it alone),
    D, the targeted offsets and the resolution.  A shared certificate is
    copied with the cell rewritten.
    """
    h = build(inst, ScaleMode.UNIT)
    field = h.field
    N = field.N
    cells = []
    counts: dict[str, int] = {}
    certificates: dict[tuple, CriterionReport] = {}
    ok = True
    for a in range(N):
        for b in range(N):
            label = classify_cell(field, a, b)
            counts[label.kind] = counts.get(label.kind, 0) + 1
            if label.kind == "Boundary":
                entry, passed = certify_labelled_cell(h, a, b, label, resolution)
            else:
                patch = h.patch(a, b)
                key = (patch.K[0][1:], patch.K[1:], patch.D, resolution,
                       tuple(_targeted_offsets(cell_corner_data(field, a, b))))
                if key not in certificates:
                    certificates[key] = certify_cell(h, a, b, resolution)
                entry, passed = _labelled_entry(
                    label, replace(certificates[key], cell=(a, b)))
            cells.append(entry)
            ok = ok and passed
    return {"n": inst.n, "N": N, "counts": counts, "passed": ok,
            "cells": cells}
