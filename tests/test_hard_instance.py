"""Evaluable hard instances: the cell lookup and decoding, derivative
consistency against finite differences, Lipschitz bounds, and the scale
modes."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from patch_reference import reference_eval
from sospgrid._precision import hp, to_fraction
from sospgrid.biquintic import BoxPatch
from sospgrid.hard_instance import C0_AGGRESSIVE, EvalResult, ScaleMode, build
from sospgrid.iter_problems import IterInstance


def fd_derivatives(f, x, y, h):
    """Central-difference oracle for grad and Hessian (hp arithmetic)."""
    gx = (f(x + h, y) - f(x - h, y)) / (2 * h)
    gy = (f(x, y + h) - f(x, y - h)) / (2 * h)
    hxx = (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / (h * h)
    hyy = (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / (h * h)
    hxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h)
           + f(x - h, y - h)) / (4 * h * h)
    return (gx, gy), (hxx, hyy, hxy)


@pytest.fixture(scope="module")
def unit_n1():
    return build(IterInstance(1, (2, 2)))


def test_cell_lookup_basic(unit_n1):
    assert unit_n1.evaluate(Fraction(1, 2), Fraction(15, 2)).cell == (0, 7)
    assert unit_n1.evaluate(4, 8).cell == (4, 8)
    # far edge clamps into the last cell
    assert unit_n1.evaluate(unit_n1.N, unit_n1.N).cell == (unit_n1.N - 1, unit_n1.N - 1)
    with pytest.raises(ValueError):
        unit_n1.evaluate(-1, 0)


def test_decode_scaled_unit(unit_n1):
    # X cells for solution k = 1 sit at a in {3, 4, 5}, b = 8.
    assert unit_n1.decode_scaled(Fraction(7, 2), Fraction(17, 2)) == 1
    assert unit_n1.decode_scaled(Fraction(11, 2), Fraction(17, 2)) == 1
    assert unit_n1.decode_scaled(Fraction(7, 2), Fraction(15, 2)) is None
    assert unit_n1.decode_scaled(Fraction(1, 2), Fraction(1, 2)) is None
    assert unit_n1.decode_scaled(-1, Fraction(17, 2)) is None


def reference_decode(h, mode, x, y):
    """decode_scaled by the Fraction rule: the unscaled point s (x, y), None
    outside [0, N]^2, else the cell min(floor(u), N - 1) of each coordinate
    and its X-cell node."""
    N = h.N
    s = {ScaleMode.UNIT: 1, ScaleMode.MODERATE: N, ScaleMode.AGGRESSIVE: N}[mode]
    u, v = to_fraction(x) * s, to_fraction(y) * s
    if not (0 <= u <= N and 0 <= v <= N):
        return None
    return h.field.x_cell_node(min(math.floor(u), N - 1), min(math.floor(v), N - 1))


DECODE_INSTANCES = {mode: build(IterInstance(2, (3, 4, 4, 1)), mode) for mode in ScaleMode}


@st.composite
def decode_points(draw):
    """A scale mode and a point of its domain [0, hi]^2 or just outside it:
    cell walls, the far edge, 192-bit values, points one 2^-192 or one
    cell past an edge, and points of the X cells (21..23, 26) of node 4;
    each as Fractions or as hp values."""
    mode = draw(st.sampled_from(list(ScaleMode)))
    h = DECODE_INSTANCES[mode]
    hi, cell = h.domain_high, Fraction(h.domain_high, h.N)

    def fine():
        return Fraction(draw(st.integers(0, 2**192)), 2**192)

    def coord():
        kind = draw(st.sampled_from(["wall", "inside", "out"]))
        if kind == "wall":
            return draw(st.integers(0, h.N)) * cell
        if kind == "out":
            past = draw(st.sampled_from([Fraction(1, 2**192), cell, hi]))
            return draw(st.sampled_from([-past, hi + past]))
        return hi * fine()

    if draw(st.booleans()):
        x, y = (draw(st.integers(21, 23)) + fine()) * cell, (26 + fine()) * cell
    else:
        x, y = coord(), coord()
    if draw(st.booleans()):
        x, y = hp(x), hp(y)
    return mode, x, y


@settings(max_examples=300, deadline=None)
@given(decode_points())
@example((ScaleMode.MODERATE, Fraction(43, 60), Fraction(53, 60)))  # X cell (21, 26)
@example((ScaleMode.UNIT, 30, 30))
@example((ScaleMode.AGGRESSIVE, Fraction(1), Fraction(-1, 2**192)))
def test_decode_scaled_is_the_fraction_rule(case):
    """decode_scaled, which finds the cell by the integer lookup of
    evaluate, gives the node of the Fraction rule in every scale mode, and
    None outside the domain."""
    mode, x, y = case
    h = DECODE_INSTANCES[mode]
    assert h.decode_scaled(x, y) == reference_decode(h, mode, x, y)


def test_decode_scaled_moderate():
    h = build(IterInstance(1, (2, 2)), ScaleMode.MODERATE)
    assert h.decode_scaled(Fraction(7, 36), Fraction(17, 36)) == 1
    assert h.decode_scaled(Fraction(1, 36), Fraction(1, 36)) is None


def test_gradient_matches_finite_differences(unit_n1):
    rng = random.Random(7)
    h = hp("1e-5")
    for _ in range(30):
        a = rng.randrange(0, unit_n1.N)
        b = rng.randrange(0, unit_n1.N)
        x = a + hp(Fraction(rng.randrange(10**4, 9 * 10**4), 10**5))
        y = b + hp(Fraction(rng.randrange(10**4, 9 * 10**4), 10**5))
        patch = unit_n1.patch(a, b)

        def f(u, v):
            return patch.eval(u, v, exact=False)[0]

        _, (fx, fy), ((fxx, fxy), (_, fyy)) = patch.eval(x, y, exact=False)
        (gx, gy), (dxx, dyy, dxy) = fd_derivatives(f, x, y, h)
        gscale = max(1.0, abs(float(fx)), abs(float(fy)))
        hscale = max(1.0, abs(float(fxx)), abs(float(fyy)), abs(float(fxy)))
        assert abs(float(gx - fx)) <= 1e-6 * gscale
        assert abs(float(gy - fy)) <= 1e-6 * gscale
        assert abs(float(dxx - fxx)) <= 1e-6 * hscale
        assert abs(float(dyy - fyy)) <= 1e-6 * hscale
        assert abs(float(dxy - fxy)) <= 1e-6 * hscale


def test_lipschitz_bounds_sampled(unit_n1):
    rec = unit_n1.lipschitz_report()
    N = unit_n1.N
    # The recorded constants follow from the coefficient-norm bound:
    # L <= 10 |C|, L1 <= 90 |C| with |C| < 2^10 (2^55 N + 2).
    assert rec.coeff_norm_bound == 2**10 * (2**55 * N + 2)
    assert rec.L == 2**70 * N
    assert 10 * rec.coeff_norm_bound <= rec.L
    assert rec.L1 == 2**73 * N
    assert 90 * rec.coeff_norm_bound <= rec.L1
    assert rec.L2 == 2**75 * N
    rng = random.Random(13)
    for _ in range(300):
        x = Fraction(rng.randrange(0, 10**6), 10**6) * N
        y = Fraction(rng.randrange(0, 10**6), 10**6) * N
        res = unit_n1.evaluate(x, y, exact=False)
        (fx, fy) = res.grad
        ((fxx, fxy), (_, fyy)) = res.hess
        gnorm = (fx * fx + fy * fy) ** Fraction(1, 2)
        assert float(gnorm) <= float(rec.L)
        mean = (fxx + fyy) / 2
        gap = (fxx - fyy) / 2
        spec = abs(mean) + (gap * gap + fxy * fxy) ** Fraction(1, 2)
        assert float(spec) <= float(rec.L1)


def test_scale_mode_consistency():
    unit = build(IterInstance(1, (2, 2)), ScaleMode.UNIT)
    mod = build(IterInstance(1, (2, 2)), ScaleMode.MODERATE)
    N = unit.N
    x, y = Fraction(7, 36), Fraction(17, 36)
    ru = unit.evaluate(x * N, y * N)
    rm = mod.evaluate(x, y)
    # f(N x) / N, grad unchanged, Hessian scaled by N
    assert rm.f == ru.f / N
    assert rm.grad == ru.grad
    assert rm.hess == tuple(tuple(h * N for h in row) for row in ru.hess)


@pytest.mark.parametrize("mode", list(ScaleMode))
def test_hp_evaluation_rounds_the_exact_result_once(mode):
    """The scale mode's factor is applied to the exact value, so the hp path
    is hp() of the exact result, not a rounded value rounded again."""
    h = build(IterInstance(1, (2, 2)), mode)
    hi = h.domain_high
    rng = random.Random(8)
    for _ in range(200):
        x, y = (Fraction(rng.randrange(0, 10**6 + 1), 10**6) * hi
                for _ in range(2))
        ex, ap = h.evaluate(x, y, exact=True), h.evaluate(x, y, exact=False)
        assert ap.f == hp(ex.f)
        assert ap.grad == tuple(hp(g) for g in ex.grad)
        assert ap.hess == tuple(tuple(hp(v) for v in row) for row in ex.hess)


def test_moderate_lipschitz_scaling():
    unit = build(IterInstance(1, (2, 2)), ScaleMode.UNIT).lipschitz_report()
    mod = build(IterInstance(1, (2, 2)), ScaleMode.MODERATE).lipschitz_report()
    N = 18
    assert mod.L == unit.L
    assert mod.L1 == N * unit.L1
    assert mod.L2 == N * N * unit.L2


def test_aggressive_mode_unit_constants():
    agg = build(IterInstance(1, (2, 2)), ScaleMode.AGGRESSIVE)
    rec = agg.lipschitz_report()
    assert float(rec.L) <= 1 and float(rec.L1) <= 1 and float(rec.L2) <= 1
    res = agg.evaluate(Fraction(1, 3), Fraction(2, 3))
    assert res.cell == (6, 12)


def test_domain_polytope(unit_n1):
    poly = unit_n1.domain_polytope()
    assert poly.contains((0, 0)) and poly.contains((unit_n1.N, unit_n1.N))
    assert not poly.contains((-1, 0))


def test_objective_callable(unit_n1):
    obj = unit_n1.objective(exact=True)
    f, grad, hess = obj((Fraction(5, 2), Fraction(7, 2)))
    res = unit_n1.evaluate(Fraction(5, 2), Fraction(7, 2))
    assert (f, grad, hess) == (res.f, res.grad, res.hess)
    assert len(obj((1, 1))) == 3


def value_read_points(h, rng):
    """Random 192-bit dyadic points of the domain [0, 1]^2, then cell edges,
    cell corners and the far edge x = 1, which lies in cell N - 1."""
    N = h.N
    pts = [(Fraction(rng.getrandbits(192), 2**192),
            Fraction(rng.getrandbits(192), 2**192)) for _ in range(40)]
    for _ in range(10):
        k, t = Fraction(rng.randrange(N + 1), N), Fraction(rng.getrandbits(192), 2**192)
        pts += [(k, t), (t, k)]
    pts += [(Fraction(rng.randrange(N + 1), N), Fraction(rng.randrange(N + 1), N))
            for _ in range(10)]
    pts += [(1, Fraction(rng.getrandbits(192), 2**192)), (1, 1), (1, 0), (0, 0)]
    return pts


@pytest.mark.parametrize("table", [(2, 2), (3, 4, 4, 1)])
def test_value_read_is_evaluate_f(table):
    """Reading [0] of an objective result alone (a value-only read) gives
    evaluate's f bit for bit, in both number paths."""
    h = build(IterInstance(len(table).bit_length() - 1, table), "moderate")
    for pt in value_read_points(h, random.Random(len(table))):
        for exact in (True, False):
            f = h.evaluate(*pt, exact=exact).f
            assert h.objective(exact)(pt)[0] == f
            assert h.value(*pt, exact=exact) == f
            assert type(h.value(*pt, exact=exact)) is type(f)


def test_value_read_skips_the_full_evaluation(moderate_n1, monkeypatch):
    """[0] read first computes f alone; unpacking evaluates once, and the
    reads after it share that one evaluation."""
    calls = 0
    full_eval = BoxPatch.eval

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return full_eval(self, *args, **kwargs)

    monkeypatch.setattr(BoxPatch, "eval", counted)
    obj = moderate_n1.objective(exact=False)
    pt = (Fraction(3, 7), Fraction(5, 9))
    res = obj(pt)
    f = res[0]
    assert calls == 0
    f2, grad, hess = obj(pt)
    assert calls == 1 and f2 == f
    res = obj(pt)
    assert tuple(res) == (f, grad, hess) and res[0] == f and res[2] == hess
    assert calls == 2
    with pytest.raises(ValueError):
        obj((Fraction(3, 2), 0))[0]


def located_evaluation(h, mode, x, y, exact):
    """evaluate(x, y, exact) the long way: the unscaled point s (x, y) as
    Fractions, its cell min(floor(u), N - 1), the reference evaluator there
    and the chain rule's factors 1/v, s/v, s^2/v applied to the exact
    values."""
    N = h.N
    s, div = {ScaleMode.UNIT: (1, 1), ScaleMode.MODERATE: (N, N),
              ScaleMode.AGGRESSIVE: (N, C0_AGGRESSIVE * N**4)}[mode]
    u, v = to_fraction(x) * s, to_fraction(y) * s
    assert 0 <= u <= N and 0 <= v <= N
    a, b = min(math.floor(u), N - 1), min(math.floor(v), N - 1)
    f, (fx, fy), ((fxx, fxy), (_, fyy)) = reference_eval(h.patch(a, b), u, v)
    f, fx, fy, fxx, fxy, fyy = (w * Fraction(s**k, div) for w, k in (
        (f, 0), (fx, 1), (fy, 1), (fxx, 2), (fxy, 2), (fyy, 2)))
    if not exact:
        f, fx, fy, fxx, fxy, fyy = map(hp, (f, fx, fy, fxx, fxy, fyy))
    return EvalResult(f=f, grad=(fx, fy), hess=((fxx, fxy), (fxy, fyy)), cell=(a, b))


@pytest.mark.parametrize("mode", list(ScaleMode))
def test_integer_cell_lookup_is_locate_then_eval(mode):
    """value and evaluate, which find the cell in integers, equal the
    Fraction floor and the reference evaluation at the exact point in every scale mode:
    at Fractions and hp values, at x = 0, on cell walls and at x =
    domain_high, which lies in cell N - 1.  A point outside the domain
    raises the same ValueError as before."""
    h = build(IterInstance(1, (2, 2)), mode)
    hi, wall = h.domain_high, Fraction(h.domain_high, h.N)  # wall: one cell
    rng = random.Random(13)
    coords = [0, hi, wall, 7 * wall, (h.N - 1) * wall, hp(hi), hp(7 * wall)]
    coords += [hi * Fraction(rng.getrandbits(192), 2**192) for _ in range(4)]
    coords += [hp(hi * Fraction(rng.getrandbits(100), 2**100)) for _ in range(4)]
    for x in coords:
        for y in rng.sample(coords, 4):
            for exact in (True, False):
                want = located_evaluation(h, mode, x, y, exact)
                got = h.evaluate(x, y, exact=exact)
                assert got == want
                assert all(type(g) is type(w) for g, w in zip(
                    (got.f, *got.grad, *got.hess[0]), (want.f, *want.grad, *want.hess[0])))
                assert h.value(x, y, exact=exact) == want.f
    assert h.evaluate(hi, hi).cell == (h.N - 1, h.N - 1)
    tiny = Fraction(1, 2**200)
    for x, y in ((-tiny, 0), (0, hi + tiny), (hp(-1), hp(hi)), (2 * hi, Fraction(1, 3))):
        message = re.escape(f"({to_fraction(x)}, {to_fraction(y)}) outside [0, {hi}]^2")
        for read in (h.evaluate, h.value):
            with pytest.raises(ValueError, match=message):
                read(x, y)
