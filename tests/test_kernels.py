import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlmkl import kernels
from mlmkl.errors import (
    DegenerateRecursionError,
    ParseError,
    ShapeError,
    UnsupportedDegreeError,
    ZeroVectorError,
)
from mlmkl import svm
from mlmkl.kernels import (
    KernelFamily,
    KernelRows,
    KernelSpec,
    cross_gram,
    evaluate,
    gram,
    j_n,
    parse_kernel,
)

import oracle
from conftest import direction_blobs

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def arc_cosine(x, y, degree, depth=1):
    """The library's arc-cosine kernel value for one pair."""
    return evaluate(KernelSpec(KernelFamily.ARC_COSINE, degree=degree, depth=depth), x, y)


def angle(x, y):
    """The angle the library's kernels see, read back from the degree-0
    arc-cosine kernel k_0 = 1 - theta / pi."""
    return math.pi * (1.0 - arc_cosine(x, y, 0))


# ---------------------------------------------------------------------------
# angular factors


def test_j_at_zero():
    assert j_n(0.0, 0) == math.pi
    assert j_n(0.0, 1) == math.pi
    assert j_n(0.0, 2) == pytest.approx(3 * math.pi, abs=0)


def test_j_at_right_angle():
    # J_0 = pi/2, J_1 = sin(pi/2) = 1, J_2 = (pi/2)(1 + 0) = pi/2
    assert j_n(math.pi / 2, 0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert j_n(math.pi / 2, 1) == pytest.approx(1.0, abs=1e-15)
    assert j_n(math.pi / 2, 2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_j_at_pi():
    # all three vanish at opposite directions
    for n in (0, 1, 2):
        assert j_n(math.pi, n) == pytest.approx(0.0, abs=1e-14)


def test_j_vectorized_matches_scalar():
    thetas = np.linspace(0.0, math.pi, 37)
    for n in (0, 1, 2):
        vec = j_n(thetas, n)
        scl = np.array([j_n(float(t), n) for t in thetas])
        np.testing.assert_array_equal(vec, scl)


def test_j_rejects_bad_degree():
    with pytest.raises(UnsupportedDegreeError):
        j_n(0.3, 3)
    with pytest.raises(UnsupportedDegreeError):
        j_n(0.3, -1)
    with pytest.raises(UnsupportedDegreeError):
        j_n(0.3, 1.5)


# ---------------------------------------------------------------------------
# angles


def test_angle_orthogonal_and_self():
    assert angle(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert angle(E1, E1) == 0.0
    assert angle(E1, -E1) == pytest.approx(math.pi, abs=1e-15)


def test_angle_scale_free():
    x = np.array([0.3, -1.2, 0.7])
    assert angle(x, 2.0 * x) <= 1e-6
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.normal(size=(2, 5))
        assert angle(a, b) == pytest.approx(angle(3.0 * a, 0.25 * b), abs=1e-9)
        assert angle(a, b) == pytest.approx(oracle.angle(a, b), abs=1e-9)


def test_angle_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        angle(np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# arc-cosine values


def test_arc_cosine_orthogonal_frozen_values():
    # theta = pi/2: k_0 = 1/2, k_1 = 1/pi, k_2 = 1/2
    assert arc_cosine(E1, E2, 0) == pytest.approx(0.5, abs=1e-15)
    assert arc_cosine(E1, E2, 1) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert arc_cosine(E1, E2, 2) == pytest.approx(0.5, abs=1e-15)


def test_arc_cosine_two_level_orthogonal():
    # level 1 gives k = 1/2 with unit self-kernels, so the second level
    # sees cos = 1/2, theta = pi/3, and J_0/pi = 1 - 1/3 = 2/3
    assert arc_cosine(E1, E2, 0, depth=2) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_degree0_self_is_one_at_any_depth():
    rng = np.random.default_rng(1)
    for depth in (1, 2, 3, 5):
        x = rng.normal(size=7)
        assert arc_cosine(x, x, 0, depth) == pytest.approx(1.0, abs=1e-12)


def test_degree1_self_is_squared_norm():
    rng = np.random.default_rng(2)
    for depth in (1, 2, 3):
        x = rng.normal(size=6)
        assert arc_cosine(x, x, 1, depth) == pytest.approx(
            float(np.dot(x, x)), rel=1e-12
        )


def test_degree0_scale_invariance():
    rng = np.random.default_rng(4)
    for depth in (1, 2):
        for _ in range(25):
            x, y = rng.normal(size=(2, 8))
            base = arc_cosine(x, y, 0, depth)
            scaled = arc_cosine(5.0 * x, 0.01 * y, 0, depth)
            assert scaled == pytest.approx(base, abs=1e-12)


def test_arc_cosine_range_degree0():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.normal(size=(2, 4))
        v = arc_cosine(x, y, 0)
        assert 0.0 <= v <= 1.0


def test_arc_cosine_rejects_zero_vector_and_bad_degree():
    with pytest.raises(ZeroVectorError):
        arc_cosine(np.zeros(2), E1, 0)
    with pytest.raises(UnsupportedDegreeError):
        arc_cosine(E1, E2, 3)
    with pytest.raises(ValueError):
        arc_cosine(E1, E2, 1, depth=0)
    with pytest.raises(ShapeError):
        arc_cosine(E1, np.ones(3), 0)


def test_deep_composition_finite_on_unit_norm():
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(2, 9))
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    for n in (0, 1, 2):
        for depth in range(1, 7):
            assert np.isfinite(arc_cosine(x, y, n, depth))


# ---------------------------------------------------------------------------
# other families


def test_gaussian_values():
    def gaussian(x, y, gamma):
        return evaluate(KernelSpec(KernelFamily.GAUSSIAN, gamma=gamma), x, y)

    assert gaussian(E1, E1, 0.7) == 1.0
    d2 = 2.0  # |e1 - e2|^2
    assert gaussian(E1, E2, 0.3) == pytest.approx(math.exp(-0.3 * d2), abs=1e-15)
    with pytest.raises(ValueError):
        gaussian(E1, E2, 0.0)


def test_polynomial_and_linear_values():
    def polynomial(x, y, degree, coef0, scale):
        spec = KernelSpec(KernelFamily.POLYNOMIAL, degree=degree, coef0=coef0, scale=scale)
        return evaluate(spec, x, y)

    x = np.array([1.0, 2.0])
    y = np.array([3.0, -1.0])
    assert evaluate(KernelSpec(KernelFamily.LINEAR), x, y) == pytest.approx(1.0)
    assert polynomial(x, y, 3, coef0=1.0, scale=1.0) == pytest.approx((1.0 + 1.0) ** 3)
    assert polynomial(x, y, 2, coef0=0.5, scale=2.0) == pytest.approx((2.0 + 0.5) ** 2)


def test_evaluate_dispatch_matches_gram_entries():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.1, 1.0, size=(6, 5))
    for text in ("linear", "rbf(gamma=0.4)", "poly(degree=2,coef0=1,scale=1)",
                 "arccos(n=1,L=2)"):
        spec = parse_kernel(text)
        g = gram(x, spec).values
        for i in (0, 3):
            for j in (1, 4):
                assert g[i, j] == pytest.approx(oracle.evaluate(spec, x[i], x[j]), rel=1e-10)
                assert evaluate(spec, x[i], x[j]) == pytest.approx(g[i, j], rel=1e-10)


@pytest.mark.parametrize(
    "text",
    ["linear", "rbf(gamma=0.3)", "poly(degree=3,coef0=0.5,scale=2)",
     "arccos(n=0,L=1)", "arccos(n=1,L=2)", "arccos(n=2,L=1)", "arccos(n=2,L=3)"],
)
def test_evaluate_matches_oracle(text):
    # distinct pairs go through cross_gram, equal ones through gram: both
    # must agree with the pointwise closed forms, equal pairs at angle zero
    spec = parse_kernel(text)
    rng = np.random.default_rng(14)
    for _ in range(200):
        x, y = rng.uniform(0.05, 1.0, size=(2, int(rng.integers(2, 12))))
        for a, b in ((x, y), (y, x), (x, x)):
            assert evaluate(spec, a, b) == pytest.approx(oracle.evaluate(spec, a, b), rel=1e-10)


# ---------------------------------------------------------------------------
# Gram matrices


def layouts(x):
    """The rows of ``x`` in C order, in F order and column-strided."""
    return x, np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]


@pytest.mark.parametrize(
    "text",
    ["linear", "rbf(gamma=0.5)", "poly(degree=3,coef0=1,scale=1)",
     "arccos(n=0,L=1)", "arccos(n=1,L=1)", "arccos(n=2,L=1)",
     "arccos(n=0,L=3)", "arccos(n=1,L=3)"],
)
def test_gram_symmetric_and_psd(text):
    rng = np.random.default_rng(8)
    x = rng.uniform(0.05, 1.0, size=(300, 6))
    # at this size numpy's product of the strided rows with their transpose
    # is asymmetric
    for rows in layouts(x):
        k = gram(rows, parse_kernel(text)).values
        np.testing.assert_array_equal(k, k.T)
        eig = np.linalg.eigvalsh(k)
        assert eig[0] >= -1e-8 * max(eig[-1], 1e-30)


def test_gram_exact_diagonals():
    # the pinned zero angle gives J_n(0) exactly at every level, so the
    # diagonals are pinned bit for bit, across slab boundaries too
    rng = np.random.default_rng(9)
    x = rng.uniform(0.05, 1.0, size=(300, 7))
    r = np.linalg.norm(x, axis=1)
    for depth in (1, 2, 3, 4):
        k0 = gram(x, KernelSpec(KernelFamily.ARC_COSINE, degree=0, depth=depth)).values
        assert np.all(np.diag(k0) == 1.0)
    for depth in (1, 2, 3):
        k1 = gram(x, KernelSpec(KernelFamily.ARC_COSINE, degree=1, depth=depth)).values
        assert np.all(np.diag(k1) == r * r)
    kg = gram(x, parse_kernel("rbf(gamma=2)")).values
    assert np.all(np.diag(kg) == 1.0)


def test_gram_frozen_two_point_value():
    k = gram(np.vstack([E1, E2]), parse_kernel("arccos(n=0,L=1)")).values
    np.testing.assert_allclose(k, [[1.0, 0.5], [0.5, 1.0]], rtol=0, atol=1e-15)


def test_gram_matches_pointwise():
    # blocks run the levels in cosine space, pointwise oracle.arc_cosine by
    # the recursion on self-kernels and angles, which shares none of their
    # steps: they agree within a few 1e-15 of the block's largest value, on
    # rows of either sign, at every degree and depth
    for x, y in arc_cosine_inputs():
        x, y = x[:16], y[:16]
        for degree in (0, 1, 2):
            for depth in (1, 2, 3):
                spec = KernelSpec(KernelFamily.ARC_COSINE, degree=degree, depth=depth)
                for block, rows in ((gram(x, spec).values, x), (cross_gram(y, x, spec), y)):
                    want = np.array([[oracle.evaluate(spec, a, b) for b in x] for a in rows])
                    assert np.max(np.abs(block - want)) <= 4e-15 * np.max(np.abs(want))


def test_cross_gram_consistent_with_gram():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.05, 1.0, size=(20, 5))
    for text in ("linear", "rbf(gamma=0.8)", "poly(degree=2,coef0=1,scale=1)",
                 "arccos(n=0,L=1)", "arccos(n=1,L=1)"):
        spec = parse_kernel(text)
        np.testing.assert_allclose(
            cross_gram(x, x, spec), gram(x, spec).values, rtol=0, atol=1e-8
        )


def test_cross_gram_deep_arccos_duplicate_rows():
    # composing arccos amplifies the round-off of a zero angle (arccos is
    # ill-conditioned at 1), so same-point cross values are only accurate
    # to about 1e-4 at depth 2 while distinct pairs stay tight
    rng = np.random.default_rng(12)
    x = rng.uniform(0.05, 1.0, size=(12, 5))
    spec = parse_kernel("arccos(n=0,L=2)")
    c = cross_gram(x, x, spec)
    g = gram(x, spec).values
    off = ~np.eye(12, dtype=bool)
    np.testing.assert_allclose(c[off], g[off], rtol=0, atol=1e-8)
    np.testing.assert_allclose(np.diag(c), np.diag(g), rtol=0, atol=1e-4)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("depth", [1, 2])
def test_cross_gram_duplicate_rows_stay_at_round_off_for_degrees_1_and_2(degree, depth):
    # J_0 has slope -1 at theta = 0, so a duplicate's unpinned angle of
    # ~1e-8 moves a degree-0 value (above); J_1 and J_2 are flat there,
    # so a duplicate's degree-1 or -2 value stays at round-off
    rng = np.random.default_rng(12)
    x = rng.uniform(0.05, 1.0, size=(200, 30))
    spec = KernelSpec(KernelFamily.ARC_COSINE, degree=degree, depth=depth)
    c = cross_gram(x, x, spec)
    g = gram(x, spec).values
    np.testing.assert_allclose(np.diag(c), np.diag(g), rtol=1e-14, atol=0)


def arc_cosine_inputs():
    """Nonnegative rows, as pixels are, and rows of either sign, whose
    cosines reach towards -1."""
    rng = np.random.default_rng(16)
    yield rng.uniform(0.05, 1.0, size=(300, 7)), rng.uniform(0.05, 1.0, size=(200, 7))
    yield rng.normal(size=(300, 7)), rng.normal(size=(200, 7))


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_j_n_from_the_cosine_matches_the_angle_oracle(degree, depth):
    # blocks take J_n from the cosine with one arccos; the oracle takes
    # j_n(arccos(c)), three transcendental passes, on the same cosines
    spec = KernelSpec(KernelFamily.ARC_COSINE, degree=degree, depth=depth)
    for x, y in arc_cosine_inputs():
        g = gram(x, spec).values
        g_want = oracle.arc_cosine_block(x, x, degree, depth, same=True)
        c = cross_gram(y, x, spec)
        c_want = oracle.arc_cosine_block(y, x, degree, depth, same=False)
        assert_same_bits(np.diag(g), np.diag(g_want))
        if degree == 0:
            assert_same_bits(g, g_want)
            assert_same_bits(c, c_want)
        else:
            assert np.max(np.abs(g - g_want)) <= 1e-15 * np.max(np.abs(g_want))
            assert np.max(np.abs(c - c_want)) <= 1e-15 * np.max(np.abs(c_want))


def test_j_n_from_the_cosine_is_exact_at_both_ends():
    for degree, at_one in ((0, math.pi), (1, math.pi), (2, 3.0 * math.pi)):
        got = kernels._j_n_of_cosine(np.array([1.0, -1.0]), degree)
        assert got[0] == at_one == j_n(0.0, degree)
        assert got[1] == 0.0


EVERY_FAMILY = ["arccos(n=%d,L=%d)" % (n, depth) for n in (0, 1, 2) for depth in (1, 2, 3)]
EVERY_FAMILY += ["rbf(gamma=0.5)", "poly(degree=3,coef0=1,scale=0.5)", "linear"]


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("text", EVERY_FAMILY)
def test_slab_blocks_match_one_pass_oracle(text):
    # the elementwise steps run slab by slab over one product of dot
    # products; at row counts around a slab's height, and for a block wider
    # than a slab (one row per slab), the bits are those of one pass
    spec = parse_kernel(text)
    rng = np.random.default_rng(14)
    cols = rng.uniform(0.05, 1.0, size=(257, 6))
    height = kernels._slab_rows(cols.shape[0])
    for n in (1, height - 1, height, height + 1, 300):
        rows = rng.uniform(0.05, 1.0, size=(n, 6))
        rows[n // 2] = cols[n % 257]  # one coincident pair
        for x in layouts(rows):
            xr = kernels._as_matrix(x, "rows")
            assert_same_bits(cross_gram(x, cols, spec),
                             oracle.kernel_block(xr, cols, spec, same=False))
    # a Gram's slab height shrinks as it grows; n0 rows are one slab, one
    # more row splits the diagonal between two
    n0 = next(n for n in range(1, 2000) if kernels._slab_rows(n) <= n)
    for n in (1, n0 - 1, n0, n0 + 1, 300):
        x = rng.uniform(0.05, 1.0, size=(n, 6))
        for rows in layouts(x):
            xr = kernels._as_matrix(rows, "samples")
            assert_same_bits(gram(rows, spec).values,
                             oracle.kernel_block(xr, xr, spec, same=True))
    wide = rng.uniform(0.05, 1.0, size=(kernels._slab_rows(1) + 5, 6))
    assert kernels._slab_rows(wide.shape[0]) == 1
    assert_same_bits(cross_gram(cols[:3], wide, spec),
                     oracle.kernel_block(cols[:3], wide, spec, same=False))


# a vertex, a zero weight, an exact 1 and three mixed weights
COMBINATIONS = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0), (0.0, 0.25, 0.75),
                (0.2, 0.3, 0.5)]


@pytest.mark.parametrize("text", EVERY_FAMILY)
def test_weighted_blocks_match_the_per_kernel_sum_oracle(text):
    # one product per block; each weighted kernel's values, slab by slab,
    # have the bits of its own whole block scaled and added in order, with
    # the family first (on a copy of each slab) and last (on the slab itself)
    others = (parse_kernel("rbf(gamma=0.5)"), parse_kernel("arccos(n=2,L=1)"))
    rng = np.random.default_rng(17)
    cols = rng.uniform(0.05, 1.0, size=(257, 6))
    height = kernels._slab_rows(cols.shape[0])
    n0 = next(n for n in range(1, 2000) if kernels._slab_rows(n) <= n)
    for specs in ((parse_kernel(text),) + others, others + (parse_kernel(text),)):
        for mu in COMBINATIONS:
            combination = tuple(zip(mu, specs))
            for n in (height, height + 1):
                rows = rng.uniform(0.05, 1.0, size=(n, 6))
                rows[n // 2] = cols[n % 257]  # one coincident pair
                assert_same_bits(cross_gram(rows, cols, combination),
                                 oracle.weighted_block(rows, cols, specs, mu, same=False))
            for n in (n0, n0 + 1):
                x = rng.uniform(0.05, 1.0, size=(n, 6))
                assert_same_bits(gram(x, combination).values,
                                 oracle.weighted_block(x, x, specs, mu, same=True))


def test_a_combination_evaluates_only_its_kernels_of_nonzero_weight():
    # the arc-cosine kernel would fail on the zero row; a spec alone is one
    # kernel of weight 1, and a combination needs a nonzero weight
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    arc, linear = parse_kernel("arccos(n=1,L=1)"), parse_kernel("linear")
    np.testing.assert_array_equal(gram(x, ((0.0, arc), (1.0, linear))).values, x @ x.T)
    assert_same_bits(cross_gram(x, x, ((1.0, linear),)), cross_gram(x, x, linear))
    with pytest.raises(ZeroVectorError):
        gram(x, ((0.5, arc), (0.5, linear)))
    for rows in (x, x[:0]):  # the one weights check, whatever the row count
        with pytest.raises(ValueError, match="all zero"):
            cross_gram(rows, x, ((0.0, arc), (0.0, linear)))


@pytest.mark.parametrize("text", EVERY_FAMILY)
def test_kernel_values_fill_and_return_the_dots_they_are_given(text):
    # every family writes its values over the dot products, so neither a
    # block's slab nor a kernel row is copied back
    spec = parse_kernel(text)
    x = np.random.default_rng(15).uniform(0.05, 1.0, size=(7, 4))
    terms = kernels._row_terms(x, spec)
    for same in (None, 0):
        dots = x @ x.T
        assert kernels._kernel_values(dots, terms[..., :, None], terms[..., None, :], spec,
                                      same) is dots
    assert_same_bits(dots, gram(x, spec).values)


@pytest.mark.parametrize("text", EVERY_FAMILY)
def test_kernel_rows_equal_the_gram_rows(text):
    # a row's dot products are a one-row product, so the row equals the
    # Gram's to round-off; the arc-cosine and Gaussian diagonals are pinned
    # as the Gram pins them, so they match bit for bit, while a linear or
    # polynomial diagonal is a dot product in both and agrees to round-off
    spec = parse_kernel(text)
    pinned = spec.family in (KernelFamily.ARC_COSINE, KernelFamily.GAUSSIAN)
    x = np.random.default_rng(16).uniform(0.05, 1.0, size=(150, 6))
    for samples in layouts(x):
        want = gram(samples, spec).values
        rows = KernelRows(samples, spec)
        assert rows.n == len(rows) == 150 and rows.computed == 0
        order = np.random.default_rng(17).permutation(150)
        for count, i in enumerate(order, 1):
            row = rows[i]
            assert rows.computed == count
            assert np.abs(row - want[i]).max() <= 1e-12 * np.abs(want[i]).max()
            if pinned:
                assert row[i].tobytes() == want[i, i].tobytes()
            else:
                assert row[i] == pytest.approx(want[i, i], rel=1e-14)
        # a row read again is the one computed, not a second computation
        again = rows[order[0]]
        assert rows.computed == 150
        assert again.tobytes() == rows[order[0]].tobytes()


@pytest.mark.parametrize("text", EVERY_FAMILY)
def test_kernel_rows_diagonal_equals_the_gram_diagonal(text):
    # computed once through _kernel_values from x_i . x_i, without a row:
    # the arc-cosine and Gaussian entries are pinned as gram pins them, so
    # they match bit for bit; a linear or polynomial entry is a dot
    # product in both and agrees to round-off
    spec = parse_kernel(text)
    pinned = spec.family in (KernelFamily.ARC_COSINE, KernelFamily.GAUSSIAN)
    x = np.random.default_rng(18).uniform(0.05, 1.0, size=(150, 6))
    for samples in layouts(x):
        want = np.diagonal(gram(samples, spec).values)
        rows = KernelRows(samples, spec)
        diagonal = rows.diagonal
        assert rows.computed == 0 and rows.diagonal is diagonal
        if pinned:
            assert_same_bits(diagonal, want)
        else:
            np.testing.assert_allclose(diagonal, want, rtol=1e-14, atol=0)


def test_kernel_rows_read_only_indices_in_range():
    x = np.random.default_rng(19).uniform(0.05, 1.0, size=(5, 3))
    rows = KernelRows(x, parse_kernel("arccos(n=1,L=1)"))
    for bad in (-1, 5, -6):
        with pytest.raises(IndexError):
            rows[bad]
    for bad in (1.0, slice(0, 2), np.array([0, 1])):
        with pytest.raises(TypeError):
            rows[bad]
    assert rows.computed == 0
    assert_same_bits(rows[np.int64(4)], rows[4])
    assert rows.computed == 1
    with pytest.raises(IndexError):  # not the last row, once it is computed
        rows[-1]


def test_a_row_whose_computation_raised_is_computed_again(monkeypatch):
    # the slot is claimed only after the row is written, so a failed row
    # leaves no slot that a later read would return unwritten
    spec = parse_kernel("arccos(n=1,L=1)")
    x = np.random.default_rng(20).uniform(0.05, 1.0, size=(5, 3))
    want = gram(x, spec).values
    rows = KernelRows(x, spec)
    kernel_values = kernels._kernel_values

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(kernels, "_kernel_values", interrupted)
    with pytest.raises(KeyboardInterrupt):
        rows[4]
    assert rows.computed == 0
    monkeypatch.setattr(kernels, "_kernel_values", kernel_values)
    row = rows[4]
    assert rows.computed == 1
    assert np.abs(row - want[4]).max() <= 1e-12 * np.abs(want[4]).max()
    assert row[4].tobytes() == want[4, 4].tobytes()
    kept = row.copy()
    rows[0]  # the next row takes the next slot
    assert rows.computed == 2
    assert_same_bits(rows[4], kept)


def test_kernel_rows_check_their_samples_at_construction():
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ZeroVectorError):
        KernelRows(x, parse_kernel("arccos(n=1,L=1)"))
    KernelRows(x, parse_kernel("rbf(gamma=0.5)"))  # a zero row is fine for rbf
    with pytest.raises(ShapeError):
        KernelRows(np.zeros((0, 2)), parse_kernel("linear"))
    with pytest.raises(ShapeError):
        KernelRows(np.ones(3), parse_kernel("linear"))


def test_a_multiclass_train_computes_fewer_rows_than_it_has():
    # the machines share the rows, and SMO reads only the rows of the
    # pairs it steps on
    x, y = direction_blobs(100, 30, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], noise=0.2, seed=4)
    rows = KernelRows(x, parse_kernel("arccos(n=1,L=1)"))
    model = svm.train_multiclass(rows, y, c=10.0)
    assert model.n_support <= rows.computed < 300


@pytest.mark.parametrize("text", ["arccos(n=1,L=2)", "rbf(gamma=0.5)"])
def test_blocks_peak_near_their_output(text):
    # the one product of dot products is the output; every elementwise
    # step's temporaries are slab-sized
    spec = parse_kernel(text)
    rng = np.random.default_rng(15)
    rows = rng.uniform(0.05, 1.0, size=(2000, 20))
    cols = rng.uniform(0.05, 1.0, size=(1500, 20))
    tracemalloc.start()
    try:
        cross = cross_gram(rows, cols, spec)
        cross_peak = tracemalloc.get_traced_memory()[1]
        del cross
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        k = gram(cols, spec)
        gram_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert cross_peak <= 1.1 * 2000 * 1500 * 8
    assert gram_peak <= 1.1 * k.values.nbytes


# ---------------------------------------------------------------------------
# the slab walk in two halves


@pytest.fixture
def parks(monkeypatch):
    """The threads that park OpenBLAS's pool, one entry per park, with a
    split walk possible on any build: the park is a counter that calls this
    build's park where it has one."""
    calls = []
    real = kernels._BLAS_SHUTDOWN

    def park():
        calls.append(threading.get_ident())
        return 0 if real is None else real()

    monkeypatch.setattr(kernels, "_BLAS_SHUTDOWN", park)
    return calls


ARC_1 = parse_kernel("arccos(n=1,L=1)")


def serially(fn):
    """``fn()`` with the slab walk serial, as without the park symbol."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "_BLAS_SHUTDOWN", None)
        return fn()


def slab_threads():
    """A per-slab rule that centres each row and records the thread that
    ran it, and that list of threads."""
    threads = []

    def finish(slab):
        threads.append(threading.get_ident())
        slab -= slab.mean(axis=1)[:, None]

    return finish, threads


@pytest.mark.parametrize("text", EVERY_FAMILY)
@pytest.mark.parametrize("n", [10, 40, 43])  # 2, 8 and 9 slabs of 5 rows, the last one short
def test_the_split_walk_has_the_serial_walks_bits(monkeypatch, parks, text, n):
    # each half takes the same per-slab steps and the gram's diagonal pins,
    # which cross the split; the caller parks the pool once per block
    monkeypatch.setattr(kernels, "_SLAB_BYTES", 8 * n * 5)
    spec = parse_kernel(text)
    rng = np.random.default_rng(21)
    x = rng.uniform(0.05, 1.0, size=(n, 6))
    cols = rng.uniform(0.05, 1.0, size=(n, 6))
    cols[n - 2] = x[n - 3]  # a coincident pair in the helper's half
    for block in (lambda: gram(x, spec).values, lambda: cross_gram(x, cols, spec)):
        want = serially(block)
        parks.clear()
        assert_same_bits(block(), want)
        assert parks == [threading.get_ident()]


@pytest.mark.parametrize("interval, repeats", [(None, 1), (1e-6, 30)])
def test_a_split_combination_with_a_finish_rule_has_the_serial_bits(monkeypatch, parks, interval,
                                                                     repeats):
    # three kernels, one of weight zero, and a row-by-row rule that each
    # half applies to its own slabs; with the interpreter lock handed over
    # as often as it can be, the two threads still finish every slab once
    # and lose no write
    specs = (parse_kernel("arccos(n=1,L=2)"), parse_kernel("rbf(gamma=0.5)"),
             parse_kernel("poly(degree=2,coef0=1,scale=1)"))
    combination = tuple(zip((0.25, 0.0, 0.75), specs))
    rng = np.random.default_rng(22)
    x = rng.uniform(0.05, 1.0, size=(45, 6))
    cols = rng.uniform(0.05, 1.0, size=(30, 6))
    monkeypatch.setattr(kernels, "_SLAB_BYTES", 8 * 30 * 4)  # 12 slabs, the last one short
    assert_same_bits(gram(x, combination).values, serially(lambda: gram(x, combination).values))
    finish, threads = slab_threads()
    want = serially(lambda: cross_gram(x, cols, combination, _finish=finish))
    assert set(threads) == {threading.get_ident()} and len(threads) == 12
    previous = sys.getswitchinterval()
    sys.setswitchinterval(interval or previous)
    try:
        for _ in range(repeats):
            threads.clear()
            assert_same_bits(cross_gram(x, cols, combination, _finish=finish), want)
            assert len(set(threads)) == 2 and len(threads) == 12
    finally:
        sys.setswitchinterval(previous)
    assert len(parks) == 1 + repeats


@pytest.mark.parametrize("condition", ["no park symbol", "another thread", "one slab"])
def test_the_walk_stays_serial_and_parks_nothing(monkeypatch, parks, condition):
    rng = np.random.default_rng(23)
    x = rng.uniform(0.05, 1.0, size=(45, 6))
    cols = rng.uniform(0.05, 1.0, size=(30, 6))
    if condition != "one slab":  # 12 slabs
        monkeypatch.setattr(kernels, "_SLAB_BYTES", 8 * 30 * 4)
    if condition == "no park symbol":
        monkeypatch.setattr(kernels, "_BLAS_SHUTDOWN", None)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    if condition == "another thread":
        other.start()
    finish, threads = slab_threads()
    try:
        want = serially(lambda: cross_gram(x, cols, ARC_1, _finish=finish))
        threads.clear()
        assert_same_bits(cross_gram(x, cols, ARC_1, _finish=finish), want)
        if condition == "one slab":  # as a block of a few rows, and evaluate, always are
            gram(x[:3], parse_kernel("rbf(gamma=0.5)"))
            evaluate(parse_kernel("arccos(n=0,L=2)"), x[0], x[1])
    finally:
        release.set()
        if condition == "another thread":
            other.join(10)
    assert not other.is_alive()
    assert set(threads) == {threading.get_ident()}
    assert parks == []


@pytest.mark.parametrize("failing", ["both", "helper"])
def test_the_helper_is_joined_and_the_first_halfs_exception_wins(monkeypatch, parks, failing):
    # as a serial walk would raise the first half's first
    caller = threading.get_ident()
    rng = np.random.default_rng(24)
    x = rng.uniform(0.05, 1.0, size=(45, 6))
    cols = rng.uniform(0.05, 1.0, size=(30, 6))
    monkeypatch.setattr(kernels, "_SLAB_BYTES", 8 * 30 * 4)

    def finish(slab):
        if threading.get_ident() != caller:
            raise ArithmeticError("the second half")
        if failing == "both":
            raise LookupError("the first half")

    with pytest.raises(LookupError if failing == "both" else ArithmeticError):
        cross_gram(x, cols, ARC_1, _finish=finish)
    assert len(parks) == 1 and threading.active_count() == 1


def test_the_helper_walks_in_the_callers_error_state(parks):
    # rows 300 on, all in the helper's half of 40 slabs, overflow a
    # degree-3 polynomial; numpy's error state is the caller's there too
    rng = np.random.default_rng(25)
    rows = rng.uniform(0.5, 1.0, size=(400, 4))
    rows[300:] *= 1e110
    cols = rng.uniform(0.5, 1.0, size=(3000, 4))
    spec = parse_kernel("poly(degree=3)")
    assert kernels._slab_rows(3000) == 10  # 40 slabs, split at row 200
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        cross_gram(rows, cols, spec)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        k = cross_gram(rows, cols, spec)
    assert np.isinf(k[300:]).all() and np.isfinite(k[:300]).all()
    assert len(parks) == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_walks_in_halves_too(parks):
    # no helper thread outlives its walk, so a child forked after one has
    # none to wait for; the alarm ends a child that hangs
    x = np.random.default_rng(26).uniform(0.05, 1.0, size=(300, 6))  # 3 slabs
    want = gram(x, ARC_1).values
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(5)
            same = gram(x, ARC_1).values.tobytes() == want.tobytes()
            code = 0 if same and len(parks) == 2 else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert len(parks) == 1


def test_a_symbol_numpys_openblas_lacks_is_none():
    assert kernels._openblas("no_such_symbol_") is None


NO_LIBRARY = """
import ctypes, json, sys
import numpy as np

def no_library(*args, **kwargs):
    raise OSError("cannot open shared object file")

ctypes.CDLL = no_library
from mlmkl import kernels, kpca
kernels._SLAB_BYTES = int(sys.argv[1])
rng = np.random.default_rng(27)
cross = kernels.cross_gram(rng.uniform(0.05, 1.0, size=(11, 6)),
                           rng.uniform(0.05, 1.0, size=(30, 6)),
                           kernels.parse_kernel("arccos(n=1,L=2)"))
print(json.dumps([kpca.SOLVER, kernels._BLAS_SHUTDOWN is None, cross.tobytes().hex()]))
"""


def test_without_numpys_openblas_each_caller_takes_its_fallback(monkeypatch, parks):
    # where numpy's linear algebra cannot be opened, kernel PCA runs eigh and
    # the slab walk stays on the caller's thread, with this process's bits
    slab_bytes = 8 * 30 * 4  # 11 rows of 30 columns: 3 slabs, the last one short
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", NO_LIBRARY, str(slab_bytes)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    solver, serial, bits = json.loads(result.stdout)
    assert solver == "eigh" and serial
    monkeypatch.setattr(kernels, "_SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(27)
    cross = cross_gram(rng.uniform(0.05, 1.0, size=(11, 6)), rng.uniform(0.05, 1.0, size=(30, 6)),
                       parse_kernel("arccos(n=1,L=2)"))
    assert len(parks) == 1  # walked in halves here
    assert cross.tobytes().hex() == bits


def test_cross_gram_shapes_and_edges():
    rng = np.random.default_rng(13)
    x = rng.uniform(0.1, 1.0, size=(6, 4))
    y = rng.uniform(0.1, 1.0, size=(3, 4))
    spec = parse_kernel("rbf(gamma=1)")
    assert cross_gram(y, x, spec).shape == (3, 6)
    # no rows go through the general code of every family and of a combination
    combination = ((0.25, parse_kernel("arccos(n=1,L=2)")), (0.0, parse_kernel("linear")),
                   (0.75, spec))
    for kernel in [parse_kernel(text) for text in EVERY_FAMILY] + [combination]:
        empty = cross_gram(np.zeros((0, 4)), x, kernel)
        assert empty.shape == (0, 6) and empty.dtype == np.float64 and empty.flags.c_contiguous
    with pytest.raises(ShapeError):
        cross_gram(y, np.zeros((0, 4)), spec)
    with pytest.raises(ShapeError):
        cross_gram(y, rng.uniform(size=(5, 7)), spec)


# (row scale, kernel) where an arc-cosine level's scale, or the power of it
# that scales its values, leaves the normal float range: the values were all
# zeros (the first two) or held inf (the third), or failed only after numpy's
# overflow warnings (the fourth); the fifth's norms underflow to 0, and its
# rows, none of them zero, were called zero rows
OUT_OF_RANGE = [(1e-100, "arccos(n=1,L=2)"), (1e-80, "arccos(n=2,L=2)"),
                (1e100, "arccos(n=1,L=2)"), (1e100, "arccos(n=2,L=2)"),
                (1e-170, "arccos(n=1,L=1)")]


@pytest.mark.parametrize("scale,text", OUT_OF_RANGE)
def test_an_arc_cosine_scale_out_of_the_float_range_raises(scale, text):
    # each row set is checked on its own, so a KernelRows fails as it is
    # built, and a cross fails when either its rows or its columns alone
    # leave the range
    x = np.random.default_rng(0).uniform(0.1, 1.1, size=(5, 4))
    spec = parse_kernel(text)
    far = x * scale
    for block in (lambda: gram(far, spec), lambda: cross_gram(far[:2], far, spec),
                  lambda: KernelRows(far, spec), lambda: cross_gram(far[:2], x, spec),
                  lambda: cross_gram(x[:2], far, spec)):
        with pytest.raises(DegenerateRecursionError, match="leaves the float range"):
            block()


def test_the_range_check_runs_once_per_arc_cosine_kernel_per_row_set(monkeypatch):
    # never per slab or per kernel row: the factors and their check belong
    # to the row set
    calls = []
    check_scale = kernels._check_scale

    def counted(factors, degree):
        calls.append(factors.shape)
        check_scale(factors, degree)

    monkeypatch.setattr(kernels, "_check_scale", counted)
    x = np.random.default_rng(21).uniform(0.05, 1.0, size=(300, 4))
    arc, deep = parse_kernel("arccos(n=1,L=1)"), parse_kernel("arccos(n=2,L=3)")
    assert kernels._slab_rows(300) < 150  # gram walks more than one slab
    gram(x, arc)
    assert calls == [(1, 300)]
    calls.clear()
    gram(x, ((0.5, arc), (0.25, parse_kernel("linear")), (0.25, deep)))
    assert calls == [(1, 300), (3, 300)]
    calls.clear()
    cross_gram(x[:200], x, deep)
    assert calls == [(3, 200), (3, 300)]
    calls.clear()
    rows = KernelRows(x, deep)
    for i in range(100):
        rows[i]
    rows.diagonal
    assert calls == [(3, 300)] and rows.computed == 100


def test_a_zero_row_is_a_row_of_zeros():
    # named by its index among rows too small for the range, which fail
    # the range check; a tiny row whose norm does not underflow keeps its bits
    x = np.random.default_rng(0).uniform(0.1, 1.1, size=(5, 4))
    spec = parse_kernel("arccos(n=0,L=1)")
    tiny = x * 1e-170
    tiny[3] = 0.0
    with pytest.raises(ZeroVectorError, match="^arc-cosine kernel undefined for zero row 3$"):
        gram(tiny, spec)
    assert_same_bits(gram(x * 2.0**-500, spec).values, gram(x, spec).values)


@pytest.mark.parametrize("text", ["arccos(n=%d,L=2)" % n for n in (0, 1, 2)])
@pytest.mark.parametrize("power", [-120, 120])
def test_arc_cosine_values_near_the_float_range_scale_exactly(text, power):
    # k_n at depth L is homogeneous of degree 2 n**L, and a power of two
    # scales every step exactly: rows scaled by 2**power get the values
    # times 2**(power * 2 n**L), bit for bit, within the range checked
    x = np.random.default_rng(0).uniform(0.1, 1.1, size=(5, 4))
    spec = parse_kernel(text)
    a = 2.0**power
    factor = a ** (2 * spec.degree**spec.depth)
    assert_same_bits(gram(x * a, spec).values, gram(x, spec).values * factor)
    assert_same_bits(cross_gram(x[:2] * a, x * a, spec), cross_gram(x[:2], x, spec) * factor)
    assert_same_bits(KernelRows(x * a, spec)[1], KernelRows(x, spec)[1] * factor)


def test_gram_rejects_bad_input():
    with pytest.raises(ShapeError):
        gram(np.zeros((0, 3)), parse_kernel("linear"))
    with pytest.raises(ShapeError):
        gram(np.ones(5), parse_kernel("linear"))
    with pytest.raises(ZeroVectorError):
        gram(np.array([[1.0, 0.0], [0.0, 0.0]]), parse_kernel("arccos(n=0,L=1)"))


def test_gram_matrix_type_validation():
    with pytest.raises(ShapeError):
        kernels.GramMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ShapeError):
        kernels.GramMatrix(np.ones((2, 3)))


def test_gram_matrix_check_finds_every_asymmetric_pair():
    # the check walks slabs of rows; a pair broken one ulp on either side of
    # a slab edge or at the far corner, and a NaN on the diagonal, all fail
    n = 700
    step = kernels._slab_rows(n)
    assert 1 < step < n - step
    a = np.random.default_rng(16).uniform(size=(n, n))
    v = a + a.T
    kernels.GramMatrix(v)
    pairs = [(0, n - 1), (n - 1, 0), (n - 2, n - 1), (n - 1, n - 2)]
    for edge in range(step, n, step):
        pairs += [(edge - 1, edge), (edge, edge - 1), (edge - 1, n - 1), (edge, 0)]
    for i, j in pairs:
        bad = v.copy()
        bad[i, j] = np.nextafter(bad[i, j], np.inf)
        with pytest.raises(ShapeError, match="not exactly symmetric"):
            kernels.GramMatrix(bad)
    for i in (0, step - 1, step, n - 1):
        bad = v.copy()
        bad[i, i] = np.nan
        with pytest.raises(ShapeError, match="not exactly symmetric"):
            kernels.GramMatrix(bad)
    kernels.GramMatrix(np.array([[2.0]]))
    with pytest.raises(ShapeError, match="not exactly symmetric"):
        kernels.GramMatrix(np.array([[np.nan]]))


def test_gram_matrix_check_peaks_at_a_few_slabs():
    v = np.random.default_rng(17).uniform(size=(3000, 3000))
    v += v.T
    tracemalloc.start()
    try:
        kernels.GramMatrix(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# spec parsing


@pytest.mark.parametrize(
    "text",
    ["linear", "rbf(gamma=0.01)", "rbf(gamma=2)", "poly(degree=3,coef0=1,scale=1)",
     "poly(degree=2,coef0=0.5,scale=2.5)", "arccos(n=0,L=1)", "arccos(n=2,L=6)"],
)
def test_parse_canonical_roundtrip(text):
    spec = parse_kernel(text)
    assert spec.canonical() == text
    assert parse_kernel(spec.canonical()) == spec


def test_parse_aliases():
    assert parse_kernel("gaussian(gamma=1)").family is KernelFamily.GAUSSIAN
    assert parse_kernel("arc_cosine(n=1)").family is KernelFamily.ARC_COSINE
    assert parse_kernel("polynomial(degree=2)").family is KernelFamily.POLYNOMIAL


@pytest.mark.parametrize(
    "text",
    ["fourier(gamma=1)", "rbf(gamma=0)", "rbf(sigma=1)", "arccos(n=3)",
     "arccos(n=0.5)", "rbf(gamma=abc)", "rbf gamma 1", "", "arccos(n=1,L=0)"],
)
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_kernel(text)


@pytest.mark.parametrize(
    "text",
    ["rbf(gamma=inf)", "rbf(gamma=nan)", "poly(degree=2,coef0=nan)", "poly(coef0=-inf)",
     "poly(scale=inf)", "poly(scale=nan)", "poly(degree=inf)", "arccos(n=inf)",
     "arccos(n=1,L=nan)"],
)
def test_parse_rejects_non_finite_parameters(text):
    # each parsed once and failed later: a misleading symmetry error in the
    # fit, an all-inf Gram, or a bare OverflowError from canonical()
    with pytest.raises(ParseError):
        parse_kernel(text)


@pytest.mark.parametrize("text,key", [
    ("rbf(gamma=1,gamma=2)", "gamma"), ("arccos(n=1,n=2)", "n"),
    ("arccos(n=1,L=2,L=2)", "L"), ("poly(degree=2, scale=1 ,scale=3)", "scale"),
])
def test_parse_rejects_a_repeated_parameter(text, key):
    # the last value used to win silently
    with pytest.raises(ParseError, match="^repeated parameter '%s' in " % key):
        parse_kernel(text)


def test_spec_rejects_non_finite_parameters():
    for kwargs in ({"gamma": np.inf}, {"gamma": np.nan}):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec(KernelFamily.GAUSSIAN, **kwargs)
    for kwargs in ({"coef0": np.nan}, {"coef0": np.inf}, {"scale": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec(KernelFamily.POLYNOMIAL, degree=2, **kwargs)


def test_spec_validation():
    with pytest.raises(UnsupportedDegreeError):
        KernelSpec(KernelFamily.ARC_COSINE, degree=5)
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.GAUSSIAN, gamma=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.POLYNOMIAL, degree=0)
