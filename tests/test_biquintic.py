"""Biquintic coefficient solve against a dense 36x36 oracle, plus the
Hermite corner conditions and cross-cell continuity."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from patch_reference import patch_of, reference_eval
from sospgrid._precision import hp, hp_quotient, to_fraction
from sospgrid.biquintic import (
    A_INV,
    A_INV2,
    A_MATRIX,
    assemble_corner_block,
    patch_from_corners,
    solve_coefficients,
)
from sospgrid.color_field import ColorField
from sospgrid.iter_problems import IterInstance


def dense_solve_36(V):
    """Oracle: solve the 36x36 tensor-product system by Gaussian elimination.

    Unknowns c[p][q]; equation (i, j) reads
    sum_pq A[i][p] A[j][q] c[p][q] = V[i][j].
    """
    M = []
    rhs = []
    for i in range(6):
        for j in range(6):
            M.append([Fraction(A_MATRIX[i][p] * A_MATRIX[j][q])
                      for p in range(6) for q in range(6)])
            rhs.append(Fraction(V[i][j]))
    n = 36
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
                rhs[r] -= f * rhs[col]
    return tuple(tuple(rhs[p * 6 + q] for q in range(6)) for p in range(6))


def random_block(rng) -> tuple:
    return tuple(tuple(Fraction(rng.randrange(-100, 101), rng.randrange(1, 11))
                       for _ in range(6)) for _ in range(6))


def test_a_inverse_is_exact():
    for i in range(6):
        for j in range(6):
            got = sum(A_MATRIX[i][k] * A_INV[k][j] for k in range(6))
            assert got == (1 if i == j else 0)
            assert A_INV2[i][j] == 2 * A_INV[i][j]


def test_solve_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(25):
        V = random_block(rng)
        assert solve_coefficients(V).coeffs == dense_solve_36(V)


def test_hermite_corner_conditions():
    """The patch reproduces V's functionals at the four corners exactly."""
    rng = random.Random(23)
    V = random_block(rng)
    patch = solve_coefficients(V)

    def functionals(x, y):
        f, (fx, fy), ((fxx, _), (fxy, fyy)) = patch.eval(x, y)
        return f, fx, fy, fxx, fyy, fxy

    for u in (0, 1):
        for v in (0, 1):
            f, fx, fy, fxx, fyy, fxy = functionals(u, v)
            assert f == V[u][v]
            assert fx == V[2 + u][v]
            assert fy == V[u][2 + v]
            assert fxx == V[4 + u][v]
            assert fyy == V[u][4 + v]
            assert fxy == V[2 + u][2 + v]


def test_corner_blocks_zero_mixed_derivatives():
    """Blocks built from corner assignments put 0 in every mixed slot, so
    the interpolant's corner f_xy vanishes."""
    field = ColorField(IterInstance(1, (2, 2)))
    patch = patch_from_corners(
        4, 7,
        field.assignment(4, 7), field.assignment(4, 8),
        field.assignment(5, 7), field.assignment(5, 8))
    for u in (4, 5):
        for v in (7, 8):
            _, _, ((_, fxy), (_, _)) = patch.eval(Fraction(u), Fraction(v))
            assert fxy == 0


def assert_canonical_solve(V, patch):
    """patch is C = K / D for the exact solution C of A C A^T = V, with D
    the least common denominator: D > 0 and gcd(D, all K) = 1."""
    oracle = dense_solve_36(V)
    assert all(Fraction(patch.K[i][j], patch.D) == oracle[i][j]
               for i in range(6) for j in range(6))
    assert patch.D > 0
    assert math.gcd(patch.D, *(k for row in patch.K for k in row)) == 1


def test_eval_rejects_outside_points():
    patch = patch_of([[0] * 6] * 6, a=2, b=3)
    with pytest.raises(ValueError):
        patch.eval(Fraction(4), Fraction(3))
    with pytest.raises(ValueError):
        patch.value(Fraction(4), Fraction(3))


def corner_block(field, a, b):
    asn = field.assignment
    return assemble_corner_block(asn(a, b), asn(a, b + 1), asn(a + 1, b), asn(a + 1, b + 1))


def hard_blocks():
    """(a, b, V) of a few cells of two hard instances, X cells and boundary
    included."""
    for inst, cells in ((IterInstance(1, (2, 2)), [(4, 8), (5, 2), (0, 9), (9, 9)]),
                        (IterInstance(2, (3, 4, 4, 1)), [(22, 26), (3, 7), (28, 28)])):
        field = ColorField(inst)
        for a, b in cells:
            yield a, b, corner_block(field, a, b)


def hard_patches():
    for a, b, V in hard_blocks():
        yield solve_coefficients(V, a=a, b=b)


def n16_blocks():
    """(a, b, V) of a few cells of a procedure-backed n = 16 instance, whose
    corner values reach 2^72: grid corners, cells of its largest solution's
    column and the middle X cell of its least solution."""
    size = 1 << 16

    def successor(v):
        z = (v * 0x9E3779B97F4A7C15) % (1 << 64)
        z = ((z ^ (z >> 29)) * 0xBF58476D1CE4E5B9) % (1 << 64)
        z ^= z >> 32
        return 2 + z % (size - 1) if v == 1 else 1 + z % size

    field = ColorField(IterInstance(16, proc=successor))
    k, top = min(field.solutions), max(field.solutions)
    N = field.N
    for a, b in ((0, 0), (N - 1, N - 1), (0, N - 1), (6 * k - 2, 6 * k + 2),
                 (6 * top, 6 * top + 5), (6 * top - 3, N - 1)):
        yield a, b, corner_block(field, a, b)


def test_solve_is_exact_and_canonical_on_hard_data():
    blocks = list(n16_blocks())
    assert max(abs(v).numerator.bit_length() for _, _, V in blocks
               for row in V for v in row) > 70
    for a, b, V in [*hard_blocks(), *blocks]:
        assert_canonical_solve(V, solve_coefficients(V, a=a, b=b))


big_rationals = st.builds(Fraction, st.integers(-2**96, 2**96), st.integers(1, 2**12))


@settings(deadline=None, max_examples=15)
@given(st.lists(big_rationals, min_size=36, max_size=36))
def test_solve_is_exact_and_canonical_on_large_blocks(entries):
    V = tuple(tuple(entries[6 * i:6 * i + 6]) for i in range(6))
    assert_canonical_solve(V, solve_coefficients(V))


def test_patch_holds_only_its_integer_matrix(hard_n1):
    """After every reader has run, a cached patch still holds just (a, b,
    K, D): no derived matrix is kept beside K."""
    patch = hard_n1.patch(4, 8)
    patch.eval(Fraction(9, 2), Fraction(17, 2))
    patch.value(Fraction(9, 2), Fraction(17, 2))
    patch.fields([Fraction(1, 3)], [Fraction(1, 5)])
    assert set(vars(patch)) == {"a", "b", "K", "D"}
    assert len(patch.K) == 6
    assert all(len(row) == 6 and all(type(k) is int for k in row) for row in patch.K)


def random_offset(rng):
    """A dyadic or non-dyadic rational in [0, 1], cell edges included."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randrange(2))
    if kind == 1:
        bits = rng.choice((3, 40, 192))
        return Fraction(rng.randrange(2**bits + 1), 2**bits)
    den = rng.randrange(2, 10**12)
    return Fraction(rng.randrange(den + 1), den)


def test_exact_eval_matches_reference():
    rng = random.Random(41)
    patches = [solve_coefficients(random_block(rng), a=rng.randrange(-3, 4),
                                  b=rng.randrange(-3, 4)) for _ in range(8)]
    patches += list(hard_patches())
    for patch in patches:
        for _ in range(12):
            x = patch.a + random_offset(rng)
            y = patch.b + random_offset(rng)
            got = patch.eval(x, y)
            assert got == reference_eval(patch, x, y)
            f, (fx, fy), ((fxx, fxy), (_, fyy)) = got
            assert all(type(v) is Fraction for v in (f, fx, fy, fxx, fxy, fyy))


def test_hp_eval_tracks_exact_eval():
    """Each hp output is the exact value rounded once: within 2^-188 of it,
    relative, at 192-bit points."""
    rng = random.Random(5)
    patches = [solve_coefficients(random_block(rng)) for _ in range(3)]
    patches += list(hard_patches())[:2]
    for patch in patches:
        for _ in range(10):
            x = to_fraction(hp(patch.a + Fraction(rng.getrandbits(192), 2**192)))
            y = to_fraction(hp(patch.b + Fraction(rng.getrandbits(192), 2**192)))
            fe, ge, he = patch.eval(x, y)
            ff, gf, hf = patch.eval(hp(x), hp(y), exact=False)
            exact = (fe, *ge, *he[0], *he[1])
            rounded = (ff, *gf, *hf[0], *hf[1])
            for e, r in zip(exact, rounded):
                assert abs(to_fraction(r) - e) <= abs(e) / 2**188


def test_value_is_eval_f():
    """value() is eval()[0] bit for bit, with its factor, in both number
    paths."""
    rng = random.Random(17)
    patches = [solve_coefficients(random_block(rng), a=1, b=-2) for _ in range(3)]
    patches += list(hard_patches())
    factors = ((3, 7), (5, 11), (1, 13))
    for patch in patches:
        for _ in range(8):
            x = patch.a + random_offset(rng)
            y = patch.b + random_offset(rng)
            for exact in (True, False):
                f = patch.eval(x, y, exact=exact, factors=factors)[0]
                assert patch.value(x, y, exact=exact, factor=factors[0]) == f
            assert patch.value(x, y) == patch.eval(x, y)[0]


def test_adjacent_cells_agree_on_shared_edges():
    """Spot continuity check on the hard instance (full sweep in acceptance)."""
    field = ColorField(IterInstance(1, (2, 2)))

    def patch(a, b):
        return patch_from_corners(
            a, b,
            field.assignment(a, b), field.assignment(a, b + 1),
            field.assignment(a + 1, b), field.assignment(a + 1, b + 1))

    samples = [Fraction(i, 4) for i in range(5)]
    for (a, b) in [(3, 7), (7, 3), (10, 10)]:
        left, right = patch(a, b), patch(a + 1, b)
        lo, hi = patch(a, b), patch(a, b + 1)
        for t in samples:
            assert left.eval(a + 1, b + t) == right.eval(a + 1, b + t)
            assert lo.eval(a + t, b + 1) == hi.eval(a + t, b + 1)


def test_corner_block_layout():
    field = ColorField(IterInstance(1, (2, 2)))
    c00 = field.assignment(0, 0)
    c01 = field.assignment(0, 1)
    c10 = field.assignment(1, 0)
    c11 = field.assignment(1, 1)
    V = assemble_corner_block(c00, c01, c10, c11)
    assert V[0][0] == c00.value and V[1][1] == c11.value
    assert V[2][0] == c00.grad[0] and V[0][2] == c00.grad[1]
    assert V[4][0] == c00.f_xx and V[0][4] == c00.f_yy


@pytest.fixture(scope="module")
def kernel_patches():
    """The hard patches, and two random-block patches anchored off the
    origin."""
    rng = random.Random(29)
    return [*hard_patches(), *(solve_coefficients(random_block(rng), a=a, b=b)
                               for a, b in ((3, -2), (-5, 7)))]


def test_grid_kernel_is_the_point_kernel_at_every_sample(kernel_patches):
    """fields on a 3 x 5 grid holds at [i][j] the point kernel's gradient,
    Hessian and scale at (xs[i], ys[j]), and no f: a transposed layout or
    a row read with the wrong x cannot pass on a non-square grid."""
    long = Fraction(10**60 - 1, 10**60 + 3**100)
    xs = [Fraction(0), Fraction(1, 3), long]
    ys = [Fraction(1), Fraction(2, 7), long, Fraction(0), Fraction(5, 6)]
    for patch in kernel_patches:
        F = patch.fields(xs, ys)
        assert F.f is None
        assert all(len(m) == 3 and all(len(row) == 5 for row in m) for m in F[1:])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                point = patch.point_fields(x.as_integer_ratio(), y.as_integer_ratio())
                assert tuple(m[i][j] for m in F[1:]) == point[1:]


@st.composite
def offset_pairs(draw):
    """A local offset in [0, 1] as an integer (num, den) pair: 0, 1 or a
    rational with a short, 192-bit dyadic or long denominator, then often
    times a common factor, so that the pair is not reduced."""
    den = draw(st.one_of(st.integers(1, 2**12), st.just(2**192),
                         st.integers(1, 2**200)))
    num = draw(st.one_of(st.just(0), st.just(den), st.integers(0, den)))
    common = draw(st.one_of(st.just(1), st.integers(2, 2**64)))
    return num * common, den * common


@settings(deadline=None, max_examples=80)
@given(st.data(), offset_pairs(), offset_pairs())
def test_point_kernel_is_the_grid_kernel_and_the_reference(kernel_patches, data, dx, dy):
    """point_fields at (possibly unreduced) integer pairs is the 1 x 1 grid
    of fields at the same rationals: the same six integers (the grid holds
    no f) on reduced pairs, the same ratios otherwise.  eval reads it at
    absolute integer pairs and at numbers alike, and equals the reference
    evaluator exactly, and rounded once on the hp path."""
    patch = data.draw(st.sampled_from(kernel_patches))
    u, v = Fraction(*dx), Fraction(*dy)
    point = patch.point_fields(dx, dy)
    grid = tuple(m[0][0] for m in patch.fields([u], [v])[1:])
    assert all(type(n) is int for n in point)
    assert [Fraction(n, point.scale) for n in point[1:6]] == \
        [Fraction(n, grid[5]) for n in grid[:5]]
    if dx == u.as_integer_ratio() and dy == v.as_integer_ratio():
        assert point[1:] == grid
    x, y = patch.a + u, patch.b + v
    want = reference_eval(patch, x, y)
    pairs = ((patch.a * dx[1] + dx[0], dx[1]), (patch.b * dy[1] + dy[0], dy[1]))
    assert patch.eval(x, y) == patch.eval(*pairs) == want

    def rounded(result):
        f, (fx, fy), ((fxx, fxy), (_, fyy)) = result
        return hp(f), (hp(fx), hp(fy)), ((hp(fxx), hp(fxy)), (hp(fxy), hp(fyy)))

    assert patch.eval(*pairs, exact=False) == patch.eval(x, y, exact=False) == rounded(want)
    # An hp point is read at its exact value, which stays inside the cell.
    xr, yr = hp(x), hp(y)
    assert patch.eval(xr, yr, exact=False) == rounded(
        reference_eval(patch, to_fraction(xr), to_fraction(yr)))
    f = want[0]
    assert patch.value(*pairs) == patch.value(x, y) == f
    assert patch.value(*pairs, exact=False) == hp(f) == hp_quotient(*f.as_integer_ratio())
