import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from mlmkl import kpca
from mlmkl.errors import DegenerateGramError, NumericalFailureError, ShapeError
from mlmkl.kernels import GramMatrix, cross_gram, gram, parse_kernel

import oracle
from conftest import assert_equal_to_round_off


def linear_gram(x):
    return gram(x, parse_kernel("linear"))


def test_centered_gram_rows_sum_to_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(14, 5))
    centered, row_means, total_mean = kpca.center_gram(linear_gram(x).values)
    assert np.abs(centered.sum(axis=0)).max() < 1e-9
    assert np.abs(centered.sum(axis=1)).max() < 1e-9
    # not mirrored: symmetric to round-off, and only the upper triangle is read
    assert np.abs(centered - centered.T).max() <= 1e-15 * np.abs(centered).max()
    assert row_means.shape == (14,)
    assert total_mean == pytest.approx(row_means.mean())


@pytest.mark.parametrize("text", ["rbf(gamma=0.5)", "arccos(n=1,L=2)", "linear"])
def test_center_gram_matches_one_pass_oracle(text):
    # the upper triangle is the one both eigensolvers read
    spec = parse_kernel(text)
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 300, 1000):
        k = gram(rng.uniform(0.05, 1.0, size=(n, 6)), spec)
        centered, row_means, total_mean = kpca.center_gram(k)
        want = oracle.center_gram(k.values)
        upper = np.triu_indices(n)
        assert centered[upper].tobytes() == want[0][upper].tobytes()
        assert row_means.tobytes() == want[1].tobytes()
        assert total_mean == want[2]


@pytest.mark.parametrize("text", ["rbf(gamma=0.5)", "arccos(n=1,L=2)", "linear"])
def test_center_gram_takes_its_row_means_once_with_unchanged_bits(monkeypatch, text):
    # the Gram's own row means are its row means: center_gram hands them to
    # _center instead of letting it take them a second time, and the whole
    # matrix keeps the bits of the rule that takes them itself
    x = np.random.default_rng(10).uniform(0.05, 1.0, size=(300, 6))
    k = gram(x, parse_kernel(text)).values
    want = kpca._center(k, k.mean(axis=1), float(k.mean()), np.empty(k.shape))
    own = []
    center = kpca._center
    monkeypatch.setattr(
        kpca, "_center", lambda *args, **kw: own.append(kw.get("own_means")) or center(*args, **kw)
    )
    centered, row_means, _ = kpca.center_gram(k)
    assert centered.tobytes() == want.tobytes()
    assert len(own) == 1 and own[0] is row_means


def test_fit_may_consume_its_gram_with_the_same_bits():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.1, 1.0, size=(40, 8))
    k = gram(x, parse_kernel("rbf(gamma=0.7)"))
    g = k.values.copy()
    want = kpca.fit(g.copy(), 6)

    def same_bits(model):
        return all(np.asarray(getattr(model, name)).tobytes()
                   == np.asarray(getattr(want, name)).tobytes()
                   for name in ("alphas", "eigenvalues", "row_means", "total_mean"))

    held = g.copy()
    assert same_bits(kpca.fit(g, 6))
    assert g.tobytes() == held.tobytes()  # without overwrite the Gram is untouched
    assert same_bits(kpca.fit(g, 6, overwrite=True))
    assert g.tobytes() != held.tobytes()  # consumed: no second n x n array
    assert same_bits(kpca.fit(k, 6, overwrite=True))
    assert k.values.tobytes() != held.tobytes()


def test_linear_kernel_reproduces_pca():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 6)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1, 0.05])
    model = kpca.fit(linear_gram(x), 4)

    xc = x - x.mean(axis=0)
    cov_vals, cov_vecs = np.linalg.eigh(xc.T @ xc)
    pca = xc @ cov_vecs[:, ::-1][:, :4]

    proj = model.training_projections()
    assert proj.shape == (30, 4)
    for j in range(4):
        a, b = proj[:, j], pca[:, j]
        sign = np.sign(a @ b)
        np.testing.assert_allclose(a, sign * b, atol=1e-8)


def test_training_projections_match_transform_on_training_gram():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.1, 1.0, size=(20, 8))
    spec = parse_kernel("rbf(gamma=0.7)")
    k = gram(x, spec)
    model = kpca.fit(k, 5)
    again = kpca.transform(model, k.values)
    np.testing.assert_allclose(again, model.training_projections(), atol=1e-9)


def test_projection_variance_equals_eigenvalue_over_n():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 4))
    model = kpca.fit(linear_gram(x), 3)
    proj = model.training_projections()
    for j in range(3):
        col = proj[:, j]
        assert col.mean() == pytest.approx(0.0, abs=1e-9)
        assert (col ** 2).mean() == pytest.approx(model.eigenvalues[j] / 25.0, rel=1e-9)


def test_eigenvalues_match_scipy():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(16, 5))
    k = linear_gram(x)
    model = kpca.fit(k, 4)
    centered, _, _ = kpca.center_gram(k.values)
    ref = scipy.linalg.eigh(centered, eigvals_only=True)[::-1][:4]
    np.testing.assert_allclose(model.eigenvalues, ref, rtol=1e-10, atol=1e-8)


def test_out_of_sample_transform():
    rng = np.random.default_rng(5)
    train = rng.uniform(size=(18, 6))
    test = rng.uniform(size=(7, 6))
    spec = parse_kernel("poly(degree=2,coef0=1,scale=1)")
    model = kpca.fit(gram(train, spec), 4)
    out = kpca.transform(model, cross_gram(test, train, spec))
    assert out.shape == (7, 4)
    # a test point that duplicates a training point lands on its projection
    dup = kpca.transform(model, cross_gram(train[3:4], train, spec))
    np.testing.assert_allclose(dup[0], model.training_projections()[3], atol=1e-8)


def test_transform_empty_rows():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(9, 3))
    model = kpca.fit(linear_gram(x), 2)
    out = kpca.transform(model, np.zeros((0, 9)))
    assert out.shape == (0, 2)


def test_an_eigh_failure_is_a_numerical_failure(monkeypatch):
    # LinAlgError is a ValueError, which a candidate's fit does not catch
    def eigh(a, UPLO):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(kpca, "_DSYEVR", None)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    x = np.random.default_rng(6).normal(size=(9, 3))
    with pytest.raises(NumericalFailureError,
                       match="^eigh failed: Eigenvalues did not converge$"):
        kpca.fit(linear_gram(x), 2)


def test_transform_rejects_wrong_width():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(9, 3))
    model = kpca.fit(linear_gram(x), 2)
    with pytest.raises(ShapeError):
        kpca.transform(model, np.zeros((4, 8)))


def test_rank_deficient_gram_warns_and_truncates():
    # identity Gram centers to rank n-1 with equal eigenvalues 1
    k = GramMatrix(np.eye(3))
    with pytest.warns(UserWarning, match="2"):
        model = kpca.fit(k, 3)
    assert model.n_components == 2
    np.testing.assert_allclose(model.eigenvalues, [1.0, 1.0], atol=1e-12)


def test_constant_gram_is_degenerate():
    with pytest.raises(DegenerateGramError):
        kpca.fit(GramMatrix(np.ones((5, 5))), 1)


def test_component_count_validation():
    k = GramMatrix(np.eye(4))
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError):
            kpca.fit(k, bad)
    # asking beyond the usable spectrum truncates rather than failing
    with pytest.warns(UserWarning):
        model = kpca.fit(k, 5)
    assert model.n_components == 3
    # a raw matrix must be exactly symmetric, not quietly cut to its upper triangle
    with pytest.raises(ShapeError):
        kpca.fit(np.array([[2.0, 0.5], [0.4, 1.0]]), 1)


def _recording_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return fn(*args), [str(w.message) for w in caught]


def test_leading_components_equal_a_fresh_fit():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(15, 4))
    # the linear Gram of 4-wide rows has 4 usable components, so 6 warns
    for k, n in ((gram(x, parse_kernel("rbf(gamma=0.3)")), 6), (linear_gram(x), 3),
                 (linear_gram(x), 6)):
        full, _ = _recording_warnings(kpca.fit, k, 10)
        got, got_warned = _recording_warnings(kpca.leading, full, n)
        want, want_warned = _recording_warnings(kpca.fit, k, n)
        assert got_warned == want_warned
        # a solve for fewer pairs rounds differently; the centring is shared
        assert_equal_to_round_off(got.alphas, want.alphas)
        assert_equal_to_round_off(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.row_means, want.row_means)
        assert got.total_mean == want.total_mean
        # at the model's own count, its own bits
        same = kpca.leading(full, full.n_components)
        np.testing.assert_array_equal(same.alphas, full.alphas)
        np.testing.assert_array_equal(same.eigenvalues, full.eigenvalues)
    assert want_warned == ["requested 6 components but only 4 eigenvalues are usable"]


SOLVER_CASES = {
    "rbf": (lambda x: gram(x, parse_kernel("rbf(gamma=0.3)")), 8),
    "arccos": (lambda x: gram(x, parse_kernel("arccos(n=1,L=2)")), 8),
    # 3-wide rows: a rank-3 centred Gram, so 6 components warn
    "short_spectrum": (lambda x: linear_gram(x[:, :3]), 6),
    "all_pairs": (lambda x: gram(x[:12], parse_kernel("rbf(gamma=0.3)")), 20),
    "two_rows": (lambda x: GramMatrix(np.array([[2.0, 0.5], [0.5, 1.0]])), 2),
    "one_row": (lambda x: GramMatrix(np.array([[1.5]])), 1),
}


# the subset solver's own tests: without it both paths are eigh
needs_dsyevr = pytest.mark.skipif(kpca._DSYEVR is None, reason="numpy's LAPACK has no dsyevr")


@needs_dsyevr
@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_subset_solver_matches_the_full_eigh(monkeypatch, case):
    make, n_components = SOLVER_CASES[case]
    k = make(np.random.default_rng(10).uniform(0.05, 1.0, size=(40, 6)))

    def fit_or_raise():
        try:
            return _recording_warnings(kpca.fit, k, n_components)
        except DegenerateGramError as exc:
            return str(exc), []

    subset, subset_warned = fit_or_raise()
    monkeypatch.setattr(kpca, "_DSYEVR", None)  # the fallback: all pairs from eigh
    full, full_warned = fit_or_raise()
    assert subset_warned == full_warned
    if case == "one_row":  # a centred 1 x 1 Gram is 0
        assert subset == full == "centered Gram has no positive eigenvalue (max 0.0)"
        return
    assert subset.n_components == full.n_components
    bound = 1e-12 * full.eigenvalues[0]
    assert np.abs(subset.eigenvalues - full.eigenvalues).max() <= bound
    vectors = [m.alphas * np.sqrt(m.eigenvalues) for m in (subset, full)]
    assert np.abs(vectors[0] - vectors[1]).max() <= bound
    np.testing.assert_array_equal(subset.row_means, full.row_means)
    assert subset.total_mean == full.total_mean
    if case == "short_spectrum":
        assert full_warned == ["requested 6 components but only 3 eigenvalues are usable"]
    if case == "all_pairs":  # a centred Gram has a null vector
        assert full_warned == ["requested 20 components but only 11 eigenvalues are usable"]


@pytest.mark.parametrize("solver", ["dsyevr", "eigh"])
def test_eigensolvers_read_only_the_upper_triangle(monkeypatch, solver):
    if solver == "dsyevr" and kpca._DSYEVR is None:
        pytest.skip("numpy's LAPACK has no dsyevr")
    if solver == "eigh":
        monkeypatch.setattr(kpca, "_DSYEVR", None)
    x = np.random.default_rng(12).uniform(0.05, 1.0, size=(60, 6))
    centered, _, _ = kpca.center_gram(gram(x, parse_kernel("arccos(n=1,L=2)")))
    poisoned = centered.copy()
    poisoned[np.tril_indices(60, -1)] = np.nan
    want = kpca._top_eigenpairs(centered, 10)
    got = kpca._top_eigenpairs(poisoned, 10)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@needs_dsyevr
def test_fit_holds_no_n_by_n_eigenvector_matrix():
    # the centred Gram is the one n x n array; the eigensolver adds n x k
    n, k = 2000, 60
    x = np.random.default_rng(11).uniform(0.05, 1.0, size=(n, 10))
    g = gram(x, parse_kernel("rbf(gamma=0.3)"))
    tracemalloc.start()
    try:
        kpca.fit(g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * n * 8


def test_sign_convention_is_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(12, 4))
    k = linear_gram(x)
    a = kpca.fit(k, 3)
    b = kpca.fit(k, 3)
    np.testing.assert_array_equal(a.alphas, b.alphas)
    # largest-magnitude coordinate of every eigenvector is positive
    for j in range(3):
        col = a.alphas[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0
