import dataclasses
import tracemalloc

import numpy as np
import pytest

from mlmkl import umkl
from mlmkl.config import LayerConfig
from mlmkl.errors import InvalidBasisSizeError, NumericalFailureError, ShapeError
from mlmkl.kernels import _SLAB_BYTES, GramMatrix, gram, parse_kernel
from mlmkl.umkl import (
    KernelWeights,
    LocalBases,
    QpForm,
    assemble_qp,
    build_local_bases,
    combine,
    minimize_qp,
    problem_from_features,
    solve_simplex_qp,
)
from oracle import local_bases, objective_scalar, qp_from_linear_gram

SPECS = [parse_kernel("rbf(gamma=0.5)"), parse_kernel("linear"),
         parse_kernel("arccos(n=1,L=1)")]


def test_rows_whose_squared_distances_would_overflow_are_named():
    x = np.random.default_rng(0).uniform(0.1, 1.1, size=(8, 5))
    x[3] *= 1e160  # its squared norm overflows
    with pytest.raises(NumericalFailureError, match="^squared distances from row 3 overflow$"):
        problem_from_features(x, SPECS, 2)
    x[3] /= 1e160
    # finite squared norms of 1.44e308, but their distance, 2.88e308, overflows
    x[2], x[5] = 1.2e154 * np.eye(5)[:2]
    with pytest.raises(NumericalFailureError, match="^squared distances from row 2 overflow$"):
        build_local_bases(x @ x.T, 2)
    # an eighth of the float range is the largest squared norm taken
    x[2], x[5] = np.sqrt(np.finfo(np.float64).max / 8) * np.eye(5)[:2]
    build_local_bases(x @ x.T, 2)


GAMMA = 0.1


def random_problem(rng, n=12, m=3, basis_size=3, dim=4):
    """Rows and their gamma-free weight problem."""
    x = rng.uniform(0.05, 1.0, size=(n, dim))
    return x, problem_from_features(x, SPECS[:m], basis_size=basis_size)


# ---------------------------------------------------------------------------
# local bases


def test_bases_collinear_frozen():
    # points 0, 1, 10 on a line; nearest non-self neighbours are 1, 0, 1
    p = np.outer([0.0, 1.0, 10.0], [0.0, 1.0, 10.0])
    lb = build_local_bases(p, 1)
    assert lb.indices.ravel().tolist() == [1, 0, 1]


def test_bases_exclude_self_and_tie_to_smaller_index():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    lb = build_local_bases(x @ x.T, 1)
    assert np.all(lb.indices[:, 0] != np.arange(4))
    # rows 1 and 2 coincide; row 3 is equidistant from them and must pick 1
    assert lb.indices[3, 0] == 1
    assert lb.indices[1, 0] == 2
    assert lb.indices[2, 0] == 1


@pytest.mark.parametrize("n", [50, 300, 500])
@pytest.mark.parametrize("k", [1, 5, 10, 40])
def test_bases_match_stable_sort_on_ties(n, k):
    rng = np.random.default_rng(n + k)
    # small integer rows tie at many distances; duplicated rows tie at zero
    integer_rows = rng.integers(0, 3, size=(n, 4)).astype(np.float64)
    duplicated_rows = rng.uniform(size=(n // 7, 6))[rng.integers(0, n // 7, size=n)]
    for x in (integer_rows, duplicated_rows):
        p = x @ x.T
        np.testing.assert_array_equal(build_local_bases(p, k).indices, local_bases(p, k))


def test_bases_size_validation():
    p = np.eye(4)
    for bad in (0, 4, -1, 2.5):
        with pytest.raises(InvalidBasisSizeError):
            build_local_bases(p, bad)


def test_local_bases_type_rejects_self():
    with pytest.raises(ValueError):
        LocalBases(np.array([[0], [0]]))


@pytest.mark.parametrize("rows", ["uniform", "binary"])
def test_bases_peak_memory_is_one_distance_matrix(rows):
    # the distances are built, partitioned and cut a slab of rows at a time,
    # so beside the input only a few slabs live, ties or not: no n x n
    # distance matrix
    rng = np.random.default_rng(12)
    x = (rng.uniform(size=(1000, 20)) if rows == "uniform"
         else rng.integers(0, 2, size=(1000, 12)).astype(np.float64))
    p = x @ x.T
    tracemalloc.start()
    try:
        build_local_bases(p, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * _SLAB_BYTES < p.nbytes / 5


# ---------------------------------------------------------------------------
# objective and QP agreement


def test_qp_matches_scalar_objective():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, prob = random_problem(rng, n=rng.integers(6, 15),
                                 basis_size=int(rng.integers(1, 5)))
        qp = assemble_qp(prob, GAMMA)
        for _ in range(10):
            mu = rng.dirichlet(np.ones(prob.m))
            a = qp.value(mu)
            b = objective_scalar(x, prob, GAMMA, mu)
            assert a == pytest.approx(b, rel=1e-8, abs=1e-8)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    x, prob = random_problem(rng)
    qp = assemble_qp(prob, GAMMA)
    h = 1e-5
    for _ in range(5):
        mu = rng.dirichlet(np.ones(3))
        g = qp.gradient(mu)
        for t in range(3):
            e = np.zeros(3)
            e[t] = h
            fd = (objective_scalar(x, prob, GAMMA, mu + e)
                  - objective_scalar(x, prob, GAMMA, mu - e)) / (2 * h)
            assert g[t] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_qp_matrix_is_psd():
    rng = np.random.default_rng(4)
    for _ in range(10):
        qp = assemble_qp(random_problem(rng, n=int(rng.integers(8, 20)))[1], GAMMA)
        eig = np.linalg.eigvalsh(qp.w)
        assert eig[0] >= -1e-8 * max(eig[-1], 1e-30)


def test_constant_term_reduces_to_half_trace():
    # identity base Gram: zero on every off-diagonal basis entry, so with
    # gamma = 0 the objective is the untouched reconstruction energy
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 3))
    p = x @ x.T
    linear = problem_from_features(x, [parse_kernel("linear")], basis_size=3)
    prob = dataclasses.replace(linear, entries=np.zeros((8, 3, 1)))
    val = objective_scalar(x, prob, 0.0, np.array([1.0]))
    assert val == pytest.approx(0.5 * np.trace(p), rel=1e-12)
    qp = assemble_qp(prob, 0.0)
    assert qp.value(np.array([1.0])) == pytest.approx(val, rel=1e-10)


def test_problem_validation():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 3))
    prob = problem_from_features(x, [parse_kernel("linear")], basis_size=2)
    local, bases = prob.local_gram, prob.bases
    for bad in (-0.5, np.nan, np.inf):  # with LayerConfig's text
        with pytest.raises(ValueError) as raised:
            assemble_qp(prob, bad)
        with pytest.raises(ValueError) as want:
            LayerConfig(kernels=(parse_kernel("linear"),), width=1, gamma=bad)
        assert str(raised.value) == str(want.value)
    with pytest.raises(ValueError):
        umkl.UmklProblem(np.zeros((6, 2, 0)), local, bases)
    for bad in (np.zeros((6, 3, 1)), np.zeros((5, 2, 1)), np.zeros((6, 2))):
        with pytest.raises(ShapeError):
            umkl.UmklProblem(bad, local, bases)
    for bad in (local[:5], local[:, :2, :2], local[:, 0]):
        with pytest.raises(ShapeError):
            umkl.UmklProblem(prob.entries, bad, bases)


# ---------------------------------------------------------------------------
# solver


def test_solver_identity_quadratic_stays_uniform():
    qp = QpForm(np.eye(2), np.zeros(2), 0.0)
    mu, objs = minimize_qp(qp)
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-12)
    assert objs[-1] == pytest.approx(0.5, abs=1e-12)


def test_solver_pure_linear_hits_vertex():
    qp = QpForm(np.zeros((2, 2)), np.array([0.0, 1.0]), 0.0)
    mu, _ = minimize_qp(qp)
    np.testing.assert_allclose(mu, [1.0, 0.0], atol=1e-12)


def test_solver_monotone_and_dominates_vertices():
    rng = np.random.default_rng(9)
    for trial in range(60):
        m = int(rng.integers(2, 15))
        # every other W is rank-deficient, so whole faces are flat or singular
        rank = m + 2 if trial % 2 else int(rng.integers(1, m))
        a = rng.normal(size=(rank, m)) * rng.uniform(0.1, 3.0, size=m)
        qp = QpForm(a.T @ a, rng.normal(size=m), float(rng.normal()))
        mu, objs = minimize_qp(qp)
        assert all(x >= y - 1e-12 for x, y in zip(objs, objs[1:]))
        final = objs[-1]
        assert final <= qp.value(np.full(m, 1.0 / m)) + 1e-12
        for t in range(m):
            e = np.zeros(m)
            e[t] = 1.0
            assert final <= qp.value(e) + 1e-9
        # KKT: equal gradients on the support, none lower off it
        g = qp.gradient(mu)
        support = mu > 0.0
        level = g[support].mean()
        np.testing.assert_allclose(g[support], level, rtol=0, atol=1e-9)
        assert np.all(g[~support] >= level - 1e-9)


def test_solver_single_kernel():
    qp = QpForm(np.array([[2.0]]), np.array([-1.0]), 0.5)
    w = solve_simplex_qp(qp)
    np.testing.assert_array_equal(w.mu, [1.0])


def test_solver_rejects_nan_coefficients():
    qp = QpForm(np.zeros((2, 2)), np.array([np.nan, 0.0]), 0.0)
    with pytest.raises(NumericalFailureError):
        minimize_qp(qp)


# ---------------------------------------------------------------------------
# weights and combination


def test_weights_validation():
    KernelWeights(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        KernelWeights(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        KernelWeights(np.array([0.6, 0.6]))
    with pytest.raises(ShapeError):
        KernelWeights(np.zeros((2, 2)))


def test_combine_frozen_value():
    # orthonormal rows: the linear Gram is the identity, and the degree-0
    # arc-cosine kernel is 1 - theta / pi = 1/2 off the diagonal
    kernels = [parse_kernel("linear"), parse_kernel("arccos(n=0,L=1)")]
    out = combine(np.eye(2), kernels, KernelWeights(np.array([0.5, 0.5])))
    np.testing.assert_allclose(out.values, [[1.0, 0.25], [0.25, 1.0]], atol=0)


def test_combine_skips_zero_weights(built_grams):
    # a zero-weight kernel is never evaluated: the arc-cosine kernel would
    # fail on the zero row, and its Gram is not built
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    kernels = [parse_kernel("linear"), parse_kernel("arccos(n=1,L=1)")]
    out = combine(x, kernels, KernelWeights(np.array([1.0, 0.0])))
    np.testing.assert_array_equal(out.values, x @ x.T)
    assert built_grams == kernels[:1]


def test_combine_scales_each_gram_in_place():
    # a Gram scaled in place has the bits of weight times Gram, and at a
    # vertex the sum holds that one Gram, not also a scaled copy of it
    x = np.random.default_rng(16).uniform(0.05, 1.0, size=(1500, 20))
    kernels = [parse_kernel("rbf(gamma=0.5)"), parse_kernel("arccos(n=1,L=2)")]
    mu = np.array([0.3, 0.7])
    expected = mu[0] * gram(x, kernels[0]).values + mu[1] * gram(x, kernels[1]).values
    assert combine(x, kernels, KernelWeights(mu)).values.tobytes() == expected.tobytes()
    tracemalloc.start()
    try:
        out = combine(x, kernels, KernelWeights(np.array([0.0, 1.0])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.values.nbytes


def test_a_three_kernel_combine_holds_one_gram_and_checks_it_once(monkeypatch):
    # one product takes every weighted kernel's values, slab by slab: a Gram
    # per kernel made the peak three times the result and checked each
    checks = []
    check = GramMatrix.__post_init__
    monkeypatch.setattr(GramMatrix, "__post_init__",
                        lambda k: checks.append(k.n) or check(k))
    x = np.random.default_rng(19).uniform(0.05, 1.0, size=(1200, 20))
    tracemalloc.start()
    try:
        out = combine(x, SPECS, KernelWeights(np.array([0.2, 0.3, 0.5])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.values.nbytes
    assert checks == [1200]


def test_problem_from_strided_rows_is_exactly_symmetric():
    # numpy multiplies a column-strided matrix by its transpose with a
    # general product whose result is not symmetric; the rows are copied,
    # so strided rows give the bits of their contiguous copy
    x = np.random.default_rng(3).uniform(0.05, 1.0, size=(300, 12))[:, ::2]
    assert not (x.flags.c_contiguous or x.flags.f_contiguous)
    assert not np.array_equal(x @ x.T, (x @ x.T).T)
    prob = problem_from_features(x, SPECS, basis_size=4)
    copy = problem_from_features(np.ascontiguousarray(x), SPECS, basis_size=4)
    np.testing.assert_array_equal(prob.local_gram, prob.local_gram.transpose(0, 2, 1))
    np.testing.assert_array_equal(prob.local_gram, copy.local_gram)
    np.testing.assert_array_equal(prob.entries, copy.entries)
    np.testing.assert_array_equal(prob.bases.indices, copy.bases.indices)


def test_problem_holds_no_n_by_n_array():
    # the QP reads P = x x^T at each sample and its bases only, so the
    # problem keeps those (n, k+1, k+1) blocks and drops P
    n = 300
    x = np.random.default_rng(13).uniform(size=(n, 20))
    prob = problem_from_features(x, SPECS, basis_size=10)
    values = [getattr(prob, f.name) for f in dataclasses.fields(prob)]
    values += [getattr(prob.bases, f.name) for f in dataclasses.fields(prob.bases)]
    assert "gamma" not in {f.name for f in dataclasses.fields(prob)}
    assert all(np.size(v) != n * n for v in values if isinstance(v, np.ndarray))
    assert prob.local_gram.shape == (n, 11, 11)


@pytest.mark.parametrize("dim", [5, 784])
@pytest.mark.parametrize("n", [37, 301, 1003])
def test_qp_from_local_grams_matches_full_linear_gram_bit_for_bit(n, dim):
    # the weights, hence the model files, stay those of the QP assembled
    # from the full linear Gram only if every coefficient has the same bits
    x = np.random.default_rng(n * dim).normal(size=(n, dim)) / np.sqrt(dim)
    prob = problem_from_features(x, SPECS, basis_size=10)
    for gamma in (0.0, 0.05, 0.1, 1.0):
        qp = assemble_qp(prob, gamma)
        w, z, constant = qp_from_linear_gram(x, prob, gamma)
        np.testing.assert_array_equal(qp.w, w)
        np.testing.assert_array_equal(qp.z, z)
        assert qp.constant == constant


PIN_SPECS = [parse_kernel("arccos(n=%d,L=%d)" % (n, depth)) for n in (0, 1, 2)
             for depth in (1, 2, 3)] + [parse_kernel("rbf(gamma=0.5)"),
                                        parse_kernel("poly(degree=3,coef0=1,scale=0.5)"),
                                        parse_kernel("linear")]


@pytest.mark.parametrize("dim", [5, 784])
@pytest.mark.parametrize("n", [37, 301, 1003])  # not multiples of a SIMD width
def test_problem_entries_are_the_gram_entries_bit_for_bit(n, dim):
    # the QP's entries come from the linear Gram gathered at the bases; the
    # weights, hence the model files, stay those of the full Grams only if
    # every elementwise step gives the same bits on the gathered values
    x = np.random.default_rng(n + dim).normal(size=(n, dim)) / np.sqrt(dim)
    prob = problem_from_features(x, PIN_SPECS, basis_size=10)
    cols = np.arange(n)[:, None]
    assert prob.entries.shape == (n, 10, len(PIN_SPECS))
    assert np.all(np.isfinite(prob.entries))
    for t, spec in enumerate(PIN_SPECS):
        full = gram(x, spec).values[prob.bases.indices, cols]
        np.testing.assert_array_equal(prob.entries[..., t], full, err_msg=str(spec))


def test_combine_validates_lengths():
    x = np.eye(3)
    k = parse_kernel("linear")
    with pytest.raises(ShapeError):
        combine(x, [k, k], KernelWeights(np.array([1.0])))
    with pytest.raises(ShapeError):
        combine(x, [k], KernelWeights(np.array([0.5, 0.5])))


def test_end_to_end_weights_on_simplex():
    rng = np.random.default_rng(10)
    _, prob = random_problem(rng, n=18, basis_size=4)
    w = solve_simplex_qp(assemble_qp(prob, GAMMA))
    assert np.all(w.mu >= 0.0)
    assert w.mu.sum() == pytest.approx(1.0, abs=1e-10)
    assert len(w) == 3
