"""Assembled objective for an ITER instance.

Lazily builds interpolation patches over [0, N]^2, tracks the analytic
Lipschitz record, supports rescaling onto [0, 1]^2, and decodes points back
to ITER solutions.  A point is read in integer ratios (see _precision):
each coordinate p/q times the scale s is tested against the domain and
floor-divided into its cell (_cell_point), and the patch gets the unscaled
point as (p s, q) pairs.  evaluate, value and decode_scaled all find the
cell this way; outside the domain the first two raise and decode_scaled
gives None.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

from sospgrid._precision import to_fraction, to_ratio
from sospgrid.biquintic import BoxPatch, patch_from_corners
from sospgrid.color_field import ColorField
from sospgrid.iter_problems import IterInstance
from sospgrid.stationarity import Polytope

C0_AGGRESSIVE = 2**76
CACHE_CELLS = 4096  # patches kept, least recently used evicted first


class ScaleMode(enum.Enum):
    UNIT = "unit"  # objective on [0, N]^2, no rescale
    MODERATE = "moderate"  # f(Nx, Ny) / N on [0, 1]^2
    AGGRESSIVE = "aggressive"  # f(Nx, Ny) / (c0 N^4) on [0, 1]^2


class _OutsideDomain(ValueError):
    """A point outside the instance's domain."""


@dataclass(frozen=True)
class EvalResult:
    f: object
    grad: tuple
    hess: tuple
    cell: tuple[int, int]


class _Evaluation:
    """The (f, grad, hess) sequence that objective() returns; see there."""

    __slots__ = ("_h", "_x", "_y", "_exact", "_full")

    def __init__(self, h, x, y, exact):
        self._h, self._x, self._y, self._exact = h, x, y, exact
        self._full = None

    def _evaluated(self) -> tuple:
        if self._full is None:
            res = self._h.evaluate(self._x, self._y, exact=self._exact)
            self._full = (res.f, res.grad, res.hess)
        return self._full

    def __getitem__(self, i):
        if i == 0 and self._full is None:
            return self._h.value(self._x, self._y, exact=self._exact)
        return self._evaluated()[i]

    def __iter__(self):
        return iter(self._evaluated())

    def __len__(self) -> int:
        return len(self._evaluated())


@dataclass(frozen=True)
class LipschitzRecord:
    L: Fraction
    L1: Fraction
    L2: Fraction
    coeff_norm_bound: Fraction


class HardInstance:
    """Evaluable objective; immutable apart from an internal patch cache."""

    def __init__(self, inst: IterInstance, mode: ScaleMode = ScaleMode.UNIT):
        self.instance = inst
        self.mode = mode
        self.field = ColorField(inst)
        self.N = self.field.N
        self._cache: OrderedDict[tuple[int, int], BoxPatch] = OrderedDict()
        # The scale mode is a coordinate scale s and a value divisor v: the
        # objective is f(s x, s y) / v on [0, N/s]^2.
        N = self.N
        self._scale, self._divisor = {
            ScaleMode.UNIT: (1, 1),
            ScaleMode.MODERATE: (N, N),
            ScaleMode.AGGRESSIVE: (N, C0_AGGRESSIVE * N**4),
        }[mode]
        # The chain rule: f, grad f and hess f get the factors 1/v, s/v and
        # s^2/v, as integer (numerator, denominator) pairs.
        self._factors = tuple((q.numerator, q.denominator)
                              for q in map(self._chain, range(3)))

    def _chain(self, order: int) -> Fraction:
        """s^order / v: the factor on a derivative of that order."""
        return Fraction(self._scale**order, self._divisor)

    @property
    def domain_high(self) -> int:
        """Upper coordinate bound N/s of the (square) domain; lower bound is 0."""
        return self.N // self._scale

    def patch(self, a: int, b: int) -> BoxPatch:
        """Interpolation patch of Box(a, b) in unscaled coordinates."""
        if not (0 <= a <= self.N - 1 and 0 <= b <= self.N - 1):
            raise ValueError(f"Box({a}, {b}) outside the grid")
        key = (a, b)
        got = self._cache.get(key)
        if got is not None:
            self._cache.move_to_end(key)
            return got
        asn = self.field.assignment
        built = patch_from_corners(a, b, asn(a, b), asn(a, b + 1), asn(a + 1, b), asn(a + 1, b + 1))
        self._cache[key] = built
        if len(self._cache) > CACHE_CELLS:
            self._cache.popitem(last=False)
        return built

    def _cell_point(self, x, y):
        """(a, b, u, v): the cell Box(a, b) of a domain point and the point
        (u, v) = s (x, y) in unscaled coordinates, as integer (num, den)
        pairs: a coordinate p/q is read exactly (to_ratio), p s is tested
        against [0, N q] and the cell is min(p s // q, N - 1)."""
        s, N = self._scale, self.N
        out = []
        for t in (x, y):
            p, q = to_ratio(t)
            p *= s
            if not 0 <= p <= N * q:
                raise _OutsideDomain(f"({to_fraction(x)}, {to_fraction(y)}) "
                                     f"outside [0, {self.domain_high}]^2")
            out.append((min(p // q, N - 1), (p, q)))
        (a, u), (b, v) = out
        return a, b, u, v

    def evaluate(self, x, y, exact: bool = True) -> EvalResult:
        """f, grad f, hess f at a domain point, in the instance's scale mode."""
        a, b, u, v = self._cell_point(x, y)
        f, grad, hess = self.patch(a, b).eval(u, v, exact=exact,
                                              factors=self._factors)
        return EvalResult(f=f, grad=grad, hess=hess, cell=(a, b))

    def value(self, x, y, exact: bool = True):
        """f alone at a domain point: equal to evaluate(x, y, exact).f."""
        a, b, u, v = self._cell_point(x, y)
        return self.patch(a, b).value(u, v, exact=exact,
                                      factor=self._factors[0])

    def objective(self, exact: bool = True):
        """Callable x -> (f, grad, hess) for the solver/verifier modules.

        The result is read once and lazily: if [0] is read first, it is
        value(), which skips the gradient and the Hessian; any other read
        ([1], [2], unpacking, len) makes one evaluate() and keeps it.
        Both give the same f, bit for bit.
        """
        def call(pt):
            return _Evaluation(self, pt[0], pt[1], exact)
        return call

    def domain_polytope(self):
        """The instance's feasible box as a Polytope."""
        hi = self.domain_high
        return Polytope.box((0, 0), (hi, hi))

    def decode_scaled(self, x, y):
        """ITER solution k if the point lies in an X cell of k, else None."""
        try:
            a, b, _, _ = self._cell_point(x, y)
        except _OutsideDomain:
            return None
        return self.field.x_cell_node(a, b)

    def lipschitz_report(self) -> LipschitzRecord:
        """Analytic bounds: coefficient norm < 2^10 (2^55 N + 2), and from it
        L <= 10 * coeff < 2^70 N, L1 <= 90 * coeff < 2^73 N, L2 <= 2^75 N,
        times s/v, s^2/v and s^3/v in the scale mode."""
        N = self.N
        coeff = Fraction(2**10 * (2**55 * N + 2))
        return LipschitzRecord(L=2**70 * N * self._chain(1),
                               L1=2**73 * N * self._chain(2),
                               L2=2**75 * N * self._chain(3),
                               coeff_norm_bound=coeff)


def build(inst: IterInstance, mode: ScaleMode | str = ScaleMode.UNIT) -> HardInstance:
    if isinstance(mode, str):
        mode = ScaleMode(mode)
    return HardInstance(inst, mode=mode)
