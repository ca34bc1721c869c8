import dataclasses
import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from conftest import (
    assert_equal_to_round_off, digits_like, direction_blobs, loo_nearest_neighbour_accuracy,
)
from mlmkl import data, featsel, kernels, kpca, pipeline
from mlmkl.config import ClassifierConfig, ExperimentConfig
from mlmkl.errors import (
    ChecksumError,
    DegenerateLabelsError,
    DegenerateRecursionError,
    ModelIOError,
    NonFiniteInputError,
    NumericalFailureError,
    RowCountError,
    ShapeError,
    TruncatedModelError,
    UnsupportedVersionError,
    ZeroVectorError,
)
from mlmkl.kernels import parse_kernel
from mlmkl.pipeline import LayerConfig, fit_layer, transform_layer
from mlmkl.umkl import KernelWeights

RBF = parse_kernel("rbf(gamma=0.2)")
LINEAR = parse_kernel("linear")
ARC = parse_kernel("arccos(n=1,L=1)")


def blob_data(n_per_class=25, dim=30, seed=0):
    return direction_blobs(n_per_class, dim, [(0, 8), (15, 23)], seed=seed)


def default_configs():
    # the second layer's 6-wide input bounds its usable spectrum, so ask
    # for exactly that many components instead of the 3*width default
    return [
        LayerConfig(kernels=(RBF, LINEAR), width=6, basis_size=5),
        LayerConfig(kernels=(ARC, LINEAR), width=4, kpca_components=6, basis_size=5),
    ]


# ---------------------------------------------------------------------------
# single layer against a from-scratch oracle


def test_single_linear_layer_is_pca_plus_univariate_screen():
    x, y = blob_data()
    cfg = LayerConfig(kernels=(LINEAR,), width=5, kpca_components=10, basis_size=3)
    layer, reduced = fit_layer(x, y, cfg)

    # with one base kernel the combination weight is forced to 1
    np.testing.assert_array_equal(layer.weights.mu, [1.0])

    # oracle: plain PCA scores of the centered data matrix
    xc = x - x.mean(axis=0)
    _, sing, vt = np.linalg.svd(xc, full_matrices=False)
    scores = xc @ vt[:10].T

    # oracle: rank those directions by the one-way F statistic
    fstats = np.array([
        scipy.stats.f_oneway(*(scores[y == c, j] for c in np.unique(y))).statistic
        for j in range(10)
    ])
    keep = np.argsort(-fstats, kind="stable")[:5]

    np.testing.assert_array_equal(layer.selected, keep)
    for col, ref_col in enumerate(keep):
        a, b = reduced[:, col], scores[:, ref_col]
        sign = np.sign(a @ b)
        np.testing.assert_allclose(a, sign * b, atol=1e-6)


def test_layer_transform_matches_fit_representation():
    # every row a fit row (their training projections) or a subsample (a
    # training cross): the training rows are where transform_layer puts them
    x, y = blob_data()
    cfg = LayerConfig(kernels=(RBF, LINEAR), width=4, basis_size=4)
    for fit_idx in (None, np.arange(0, 50, 2)):
        layer, reduced = fit_layer(x, y, cfg, fit_idx=fit_idx)
        again = transform_layer(layer, x)
        np.testing.assert_allclose(again, reduced, rtol=0.0, atol=1e-9)


def test_transform_layer_projects_its_own_cross_in_place(monkeypatch):
    # a layer fitted on 400 rows, applied to 2000 in one block: the cross is
    # 6.4 MB and the projection is centred in it, not in a copy, with the
    # same bits
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 2000)
    x, y = blob_data(n_per_class=200)
    layer, _ = fit_layer(x, y, LayerConfig(kernels=(ARC,), width=4, basis_size=4))
    new = blob_data(n_per_class=1000, seed=1)[0]
    cross = pipeline.combined_cross(new, layer.fit_sample, layer.kernels, layer.weights)
    kept = cross.copy()
    want = kpca.transform(layer.kpca, cross)
    assert cross.tobytes() == kept.tobytes()  # the public transform leaves it alone
    tracemalloc.start()
    try:
        got = transform_layer(layer, new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 1.25 * cross.nbytes  # a copy would make it 2x


def test_subsampled_layer_used_exact_rows_for_fit_points():
    x, y = blob_data(n_per_class=30)
    cfg = LayerConfig(kernels=(RBF, LINEAR), width=4, basis_size=4)
    fit_idx = np.arange(0, 60, 2)
    layer, reduced = fit_layer(x, y, cfg, fit_idx=fit_idx)
    np.testing.assert_array_equal(layer.fit_sample, x[fit_idx])
    # the sampled rows land exactly on their training projections
    np.testing.assert_allclose(
        reduced[fit_idx], layer.kpca.training_projections(), atol=1e-9
    )


def test_fit_layer_is_the_composition_of_its_stages():
    x, y = blob_data(n_per_class=30)
    cfg = LayerConfig(kernels=(RBF, LINEAR), width=4, gamma=0.3, basis_size=4)
    fit_idx = np.arange(0, 60, 2)
    layer, reduced = fit_layer(x, y, cfg, fit_idx=fit_idx)
    # as a grid search runs them: one gamma-free problem for every gamma,
    # kernel PCA at a larger component count cut down to this one
    problem = pipeline.problem_from_features(x[fit_idx], cfg.kernels, cfg.basis_size)
    weights = pipeline.solve_simplex_qp(pipeline.assemble_qp(problem, cfg.gamma))
    k_fit = pipeline.combine(x[fit_idx], cfg.kernels, weights)
    kp = kpca.leading(kpca.fit(k_fit, 2 * cfg.components), cfg.components)
    # the fit rows take their training projections, the others their cross
    rest = np.setdiff1d(np.arange(60), fit_idx)
    projected = np.empty((60, cfg.components))
    projected[fit_idx] = kp.training_projections()
    projected[rest] = kpca.transform(
        kp, pipeline.combined_cross(x[rest], x[fit_idx], cfg.kernels, weights))
    ranking, feats = featsel.select(projected, y, cfg.width)
    np.testing.assert_array_equal(x[fit_idx], layer.fit_sample)
    np.testing.assert_array_equal(weights.mu, layer.weights.mu)
    # the layer keeps the selected components only, in their order; a kPCA
    # solved for more pairs agrees with the layer's own to round-off
    assert_equal_to_round_off(kp.alphas[:, ranking.selected], layer.kpca.alphas)
    assert_equal_to_round_off(kp.eigenvalues[ranking.selected], layer.kpca.eigenvalues)
    np.testing.assert_array_equal(kp.row_means, layer.kpca.row_means)
    assert kp.total_mean == layer.kpca.total_mean
    assert layer.kpca.alphas.flags.c_contiguous  # as a loaded copy's, for the same bits
    assert_equal_to_round_off(ranking.scores, layer.scores)
    np.testing.assert_array_equal(ranking.selected, layer.selected)
    assert_equal_to_round_off(feats, reduced)


def test_fit_layer_releases_the_linear_gram_before_kpca(live_linear_grams):
    # P = x x^T is n x n and only the weight problem's construction reads it
    x, y = blob_data(n_per_class=30)
    cfg = LayerConfig(kernels=(RBF, LINEAR), width=4, basis_size=4)
    fit_layer(x, y, cfg, fit_idx=np.arange(0, 60, 2))
    assert live_linear_grams == [0]


@pytest.mark.skipif(kpca._DSYEVR is None, reason="numpy's eigh returns all n eigenvectors")
def test_fit_layer_holds_no_second_gram_once_combined(monkeypatch):
    # 400 fit rows make a 1.28 MB Gram.  kPCA centres it in its own buffer,
    # which the eigensolver then overwrites, and the fit rows take their
    # training projections: nothing allocated after combine is half its size
    x, y = blob_data(n_per_class=200)
    combine = pipeline.combine

    def traced_combine(*args):
        k = combine(*args)
        tracemalloc.start()
        return k

    monkeypatch.setattr(pipeline, "combine", traced_combine)
    try:
        fit_layer(x, y, LayerConfig(kernels=(RBF, LINEAR), width=4, basis_size=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * 400 ** 2


def test_a_subsampled_layer_holds_a_few_blocks_of_its_training_cross(monkeypatch):
    # 8000 training rows against 400 fit rows: their whole cross is 25.6 MB,
    # and a copy of it was centred for each width.  The rows that are not
    # fit rows go through in blocks, 1.6 MB each at 500 rows
    x, y = blob_data(n_per_class=4000)
    cfg = LayerConfig(kernels=(ARC, RBF), width=4, basis_size=4)
    fit_idx = np.sort(np.random.default_rng(0).choice(8000, size=400, replace=False))
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 500)
    tracemalloc.start()
    try:
        layer, reduced = fit_layer(x, y, cfg, fit_idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduced.shape == (8000, 4)
    assert peak < 0.25 * 8 * 8000 * 400


def test_fit_layer_releases_the_combined_gram_after_kpca(live_fit_grams):
    # kPCA turns the combined Gram into its eigensolver's workspace, so the
    # training projections or cross, featsel and the validation cross run
    # without that dead n x n array
    x, y = blob_data(n_per_class=30)
    cfg = LayerConfig(kernels=(RBF, LINEAR), width=4, basis_size=4)
    fit_layer(x, y, cfg)
    fit_layer(x, y, cfg, fit_idx=np.arange(0, 60, 2))
    pipeline.fit_layer_grid(x, y, [[cfg, dataclasses.replace(cfg, width=3)]], valid=x[:10])
    assert live_fit_grams == [0, 0, 0, 0]


def test_a_three_kernel_combined_cross_holds_one_block():
    # one product takes every weighted kernel's values, slab by slab: a
    # block per kernel made the peak three times the result
    rng = np.random.default_rng(18)
    rows = rng.uniform(0.05, 1.0, size=(1500, 20))
    cols = rng.uniform(0.05, 1.0, size=(1000, 20))
    weights = KernelWeights(np.array([0.2, 0.3, 0.5]))
    tracemalloc.start()
    try:
        cross = pipeline.combined_cross(rows, cols, (RBF, LINEAR, ARC), weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cross.nbytes


def test_vertex_weights_build_one_base_gram(built_grams):
    # the weight QP reads kernel entries at the bases only, so a layer
    # whose weights are a vertex builds the full Gram of that kernel alone
    x, y = blob_data()
    cfg = LayerConfig(kernels=(ARC, RBF, LINEAR), width=4, basis_size=5)
    layer, _ = fit_layer(x, y, cfg)
    assert np.count_nonzero(layer.weights.mu) == 1
    assert built_grams == [cfg.kernels[int(np.argmax(layer.weights.mu))]]


def test_transform_layer_rejects_wrong_dimension():
    x, y = blob_data()
    layer, _ = fit_layer(x, y, LayerConfig(kernels=(LINEAR,), width=3, basis_size=3))
    with pytest.raises(ShapeError):
        transform_layer(layer, np.zeros((4, 7)))


# ---------------------------------------------------------------------------
# full stack


@pytest.fixture
def layer_inputs(monkeypatch):
    """The (features, fit_idx) of every ``pipeline.fit_layer`` call, and the
    rows that it returned, in call order."""
    calls = []
    real = pipeline.fit_layer

    def spy(features, labels, config, fit_idx=None):
        layer, rep = real(features, labels, config, fit_idx)
        calls.append((features, fit_idx, rep))
        return layer, rep

    monkeypatch.setattr(pipeline, "fit_layer", spy)
    return calls


def test_fit_builds_requested_depth_and_widths(layer_inputs):
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=0, seed=3)
    assert model.n_layers == 2
    assert model.widths == (6, 4)
    assert [rep.shape for _, _, rep in layer_inputs] == [(50, 6), (50, 4)]
    assert model.layers[0].input_dim == 30
    assert model.layers[1].input_dim == 6
    assert model.metadata["seed"] == 3
    assert model.metadata["classifier"] == "arccos(n=1,L=1)"
    assert len(model.metadata["data_sha256"]) == 64
    assert [c["width"] for c in model.metadata["layer_configs"]] == [6, 4]


def test_fit_predict_beats_chance_and_transform_is_consistent():
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=0, svm_c=10.0)
    rep = pipeline.transform(model, x)
    assert rep.shape == (50, 4)
    pred = pipeline.predict(model, x)
    assert np.mean(pred == y) == 1.0
    # representation separates the classes at least as well as raw pixels
    raw = loo_nearest_neighbour_accuracy(x, y)
    learned = loo_nearest_neighbour_accuracy(rep, y)
    assert learned >= raw - 1e-12


def test_duplicate_rows_get_identical_outputs():
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=0)
    doubled = np.vstack([x[7:8], x[7:8]])
    rep = pipeline.transform(model, doubled)
    np.testing.assert_array_equal(rep[0], rep[1])


def test_fit_subsample_path_records_sorted_indices(layer_inputs):
    x, y = blob_data(n_per_class=40)
    model = pipeline.fit(x, y, default_configs(), subsample=48, seed=11)
    inputs = [x] + [rep for _, _, rep in layer_inputs]  # each layer's input
    rng = np.random.default_rng(11)
    assert len(layer_inputs) == model.n_layers
    for layer, rows, (features, fit_idx, _) in zip(model.layers, inputs, layer_inputs):
        idx = pipeline.draw_fit_rows(rng, rows.shape[0], 48)
        assert idx is not None and idx.size == 48
        assert np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(fit_idx, idx)
        np.testing.assert_array_equal(features, rows)
        np.testing.assert_array_equal(layer.fit_sample, rows[idx])
    assert model.metadata["subsample"] == 48
    pred = pipeline.predict(model, x)
    assert pred.shape == (80,)


# ---------------------------------------------------------------------------
# predict in row blocks


def test_blocked_predict_and_transform_agree_with_the_whole_batch(monkeypatch):
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=0)
    new = blob_data(n_per_class=100, seed=1)[0]
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", new.shape[0])  # one block
    whole, labels = pipeline.transform(model, new), pipeline.predict(model, new)
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 64)  # three blocks and 8 rows
    np.testing.assert_array_equal(pipeline.predict(model, new), labels)
    assert_equal_to_round_off(pipeline.transform(model, new), whole)


def test_a_one_row_tail_goes_through_an_arc_cosine_layer(monkeypatch):
    # the last block is the one row left over, which the arc-cosine layer
    # takes alone
    x, y = blob_data()
    model = pipeline.fit(x, y, [LayerConfig(kernels=(ARC,), width=3, basis_size=4)],
                         subsample=0)
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 9)
    whole, labels = pipeline.transform(model, x[:9]), pipeline.predict(model, x[:9])
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 4)  # 4 + 4 + 1 rows
    np.testing.assert_array_equal(pipeline.predict(model, x[:9]), labels)
    assert_equal_to_round_off(pipeline.transform(model, x[:9]), whole)
    # rows of the wrong width stop before the first block, named by the batch's shape
    with pytest.raises(ShapeError, match=r"^expected rows of dimension 30, got shape \(9, 29\)$"):
        pipeline.predict(model, x[:9, :29])
    # a zero row is named by its place in the batch, not in its block
    for row in (6, 8):
        rows = x[:9].copy()
        rows[row] = 0.0
        for entry in (pipeline.transform, pipeline.predict):
            with pytest.raises(ZeroVectorError, match="^arc-cosine kernel undefined for "
                                                      "zero row %d$" % row):
                entry(model, rows)


def test_no_rows_give_no_labels():
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=0)
    assert pipeline.transform(model, np.zeros((0, 30))).shape == (0, 4)
    labels = pipeline.predict(model, np.zeros((0, 30)))
    assert labels.shape == (0,) and labels.dtype == model.classifier.classes.dtype


def test_rows_too_large_for_the_arc_cosine_classifier_raise_rather_than_predict():
    # their features' norms overflow: the decision values were NaN and every
    # row was predicted the first class
    x, y = blob_data()
    model = pipeline.fit(x, y, [LayerConfig(kernels=(LINEAR,), width=4, basis_size=5)],
                         subsample=0)
    assert model.classifier.kernel == ClassifierConfig.kernel == ARC
    np.testing.assert_array_equal(pipeline.predict(model, x[y == 1]), 1)
    with pytest.raises(DegenerateRecursionError, match="leaves the float range"):
        pipeline.predict(model, x[y == 1] * 1e155)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_rows_whose_decision_values_are_not_finite_raise_rather_than_predict(monkeypatch):
    # a polynomial kernel has no range check: its values overflow to inf,
    # the decision values were NaN and every row was predicted class 0
    x, y = direction_blobs(10, 30, [(0, 8), (15, 23), (4, 27), (10, 19)])
    model = pipeline.fit(x, y, [LayerConfig(kernels=(LINEAR,), width=4, basis_size=5)],
                         subsample=0, classifier=parse_kernel("poly(degree=3)"))
    rows = np.stack([x[y == c][0] for c in (1, 2, 3)])
    np.testing.assert_array_equal(pipeline.predict(model, rows), [1, 2, 3])
    with pytest.raises(NumericalFailureError, match="^non-finite decision values in row 0$"):
        pipeline.predict(model, rows * 1e110)
    # a row is named by its place in the batch, not in its block
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 2)
    rows[2] *= 1e110
    with pytest.raises(NumericalFailureError, match="^non-finite decision values in row 2$"):
        pipeline.predict(model, rows)


def test_rows_whose_linear_gram_overflows_fail_the_layer():
    # their neighbour distances were NaN, which left the tie cut no
    # neighbours and ended in numpy's broadcast error
    x = np.random.default_rng(0).uniform(0.1, 1.1, size=(80, 5)) * 1e160
    y = np.arange(80) % 3
    cfg = LayerConfig(kernels=(parse_kernel("rbf(gamma=0.05)"),), width=4, basis_size=5)
    message = "squared distances from row 0 overflow"
    with pytest.raises(NumericalFailureError, match="^%s$" % message):
        fit_layer(x, y, cfg)
    (cell,) = pipeline.fit_layer_grid(x, y, [[cfg]])
    assert type(cell) is NumericalFailureError and str(cell) == message


def test_predict_makes_the_kernel_terms_of_each_fit_set_once(monkeypatch):
    # each layer's fit rows and the classifier's support vectors are crossed
    # with every block of the batch; their terms are made once per batch,
    # each block's own once per block
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=0)
    new = blob_data(n_per_class=5, seed=1)[0]
    calls = []
    row_terms = kernels._row_terms
    monkeypatch.setattr(kernels, "_row_terms",
                        lambda rows, spec: calls.append(rows.shape[0]) or row_terms(rows, spec))
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 4)  # 4 + 4 + 2 rows
    pipeline.predict(model, new)
    want = []
    for n_fit, weighted in [(layer.fit_sample.shape[0], np.count_nonzero(layer.weights.mu))
                            for layer in model.layers] + [(model.classifier.n_support, 1)]:
        want += [n_fit] * weighted + [4] * weighted + [4] * weighted + [2] * weighted
    assert calls == want


def test_predict_holds_a_few_blocks_of_cross_gram(monkeypatch):
    # fitted on 300 rows and applied to 4000: the batch's cross-Gram against
    # the fit rows would be 9.6 MB, a 256-row block's is 0.61 MB
    x, y = blob_data(n_per_class=150)
    model = pipeline.fit(x, y, default_configs(), subsample=0)
    new = blob_data(n_per_class=2000, seed=1)[0]
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 256)
    tracemalloc.start()
    try:
        labels = pipeline.predict(model, new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.shape == (4000,)
    assert peak <= 4 * 8 * 256 * 300


def test_classifier_predict_requires_support_vectors():
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=0)
    model.classifier.support_vectors = None
    with pytest.raises(ValueError):
        pipeline.predict(model, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_and_predict_reject_non_finite_features(bad):
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=0)
    dirty = x.copy()
    dirty[3, 5] = bad
    with pytest.raises(NonFiniteInputError, match=r"\(3, 5\)"):
        pipeline.fit(dirty, y, default_configs(), subsample=0)
    for entry in (pipeline.transform, pipeline.predict):
        with pytest.raises(NonFiniteInputError, match=r"\(3, 5\)"):
            entry(model, dirty)


@pytest.mark.parametrize("gamma,arc_weighted", [(0.5, False), (50.0, True)])
def test_zero_row_fails_with_an_arc_cosine_kernel_whatever_its_weight(gamma, arc_weighted):
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(120, 8))
    y = (x[:, 0] > 0.5).astype(int)
    kernels = (ARC, parse_kernel("rbf(gamma=%r)" % gamma))
    cfg = LayerConfig(kernels=kernels, width=3)
    model = pipeline.fit(x, y, [cfg], subsample=0)
    assert (model.layers[0].weights.mu[0] > 0.0) == arc_weighted
    for entry in (pipeline.transform, pipeline.predict):
        with pytest.raises(ZeroVectorError, match="zero row 1"):
            entry(model, np.vstack([x[:1], np.zeros((1, 8))]))
    # a zero training row fails the fit, named by its place among the
    # training rows whether it is a fit row (row 8 is fit row 5) or not
    fit_rows = np.sort(np.random.default_rng(0).choice(120, size=60, replace=False))
    outside = np.setdiff1d(np.arange(120), fit_rows)[0]
    for row in (outside, fit_rows[5]):
        zeroed = x.copy()
        zeroed[row] = 0.0
        with pytest.raises(ZeroVectorError, match="zero row %d$" % row):
            pipeline.fit(zeroed, y, [cfg], subsample=60, seed=0)


@pytest.fixture
def no_layer(monkeypatch):
    """Fails the test if ``pipeline.fit`` reaches its first layer."""
    monkeypatch.setattr(pipeline, "fit_layer", lambda *a, **kw: pytest.fail("a layer was fitted"))


@pytest.mark.parametrize("labels,error,message", [
    (lambda y: y[:-1], ShapeError, "labels shape (49,) does not match 50 samples"),
    (lambda y: y[:, None], ShapeError, "labels shape (50, 1) does not match 50 samples"),
    (lambda y: np.zeros_like(y), DegenerateLabelsError, "need at least two classes, got 1"),
], ids=["one_short", "column", "one_class"])
def test_fit_checks_the_labels_before_the_first_layer(monkeypatch, labels, error, message):
    # bad labels used to fail in featsel, after layer 1's Gram, QP and kPCA
    monkeypatch.setattr(kpca, "fit", lambda *a, **kw: pytest.fail("kpca.fit was called"))
    x, y = blob_data()
    with pytest.raises(error) as caught:
        pipeline.fit(x, labels(y), default_configs(), subsample=0)
    assert str(caught.value) == message


@pytest.mark.parametrize("c", [np.inf, np.nan])
def test_fit_rejects_a_non_finite_svm_c(no_layer, c):
    x, y = blob_data()
    with pytest.raises(ValueError, match="^C must be finite, got %s$" % c):
        pipeline.fit(x, y, default_configs(), subsample=0, svm_c=c)


@pytest.mark.parametrize("classifier", [None, "arccos(n=1,L=1)"])
def test_fit_rejects_a_classifier_that_is_not_a_kernel_before_the_layers(no_layer, classifier):
    x, y = blob_data()
    with pytest.raises(TypeError, match="classifier must be a KernelSpec, got"):
        pipeline.fit(x, y, default_configs(), subsample=0, classifier=classifier)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_fit_rejects_a_bad_svm_tol(no_layer, tol):
    x, y = blob_data()
    rule = "positive" if np.isfinite(tol) else "finite"
    with pytest.raises(ValueError, match=r"^tol must be %s, got %s$" % (rule, tol)):
        pipeline.fit(x, y, default_configs(), subsample=0, svm_tol=tol)


@pytest.mark.parametrize("gamma", [-0.1, np.inf, np.nan])
def test_layer_config_rejects_a_negative_or_non_finite_gamma(gamma):
    # an infinite gamma used to pass here and fail in the weight QP
    rule = "nonnegative and finite" if np.isfinite(gamma) else "finite"
    with pytest.raises(ValueError, match=r"^gamma must be %s, got %s$" % (rule, gamma)):
        LayerConfig(kernels=(RBF,), width=2, gamma=gamma)


def test_fit_requires_a_layer(no_layer):
    x, y = blob_data()
    with pytest.raises(ValueError, match="^layers must hold at least one LayerConfig$"):
        pipeline.fit(x, y, [], subsample=0)


@pytest.mark.parametrize("settings,error,message", [
    ({"svm_c": -1.0}, ValueError, "C must be positive, got -1.0"),
    ({"svm_c": 0}, ValueError, "C must be positive, got 0.0"),
    ({"configs": [LayerConfig(kernels=(RBF,), width=2), "linear"]}, TypeError,
     "layers[1] must be a LayerConfig, got 'linear'"),
    ({"subsample": -1}, RowCountError, "subsample must be >= 0, got -1"),
], ids=["svm_c_negative", "svm_c_zero", "layer_not_a_layer_config", "subsample_negative"])
def test_fit_checks_every_setting_before_the_first_layer(no_layer, settings, error, message):
    # a bad C or a stray layer used to fail only after every layer was fitted
    x, y = blob_data()
    kwargs = dict({"configs": default_configs(), "subsample": 0}, **settings)
    with pytest.raises(error) as caught:
        pipeline.fit(x, y, **kwargs)
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# model files


def fitted_model(seed=0, subsample=0):
    x, y = blob_data()
    model = pipeline.fit(x, y, default_configs(), subsample=subsample, seed=seed)
    return x, y, model


def test_save_load_roundtrip_is_bitwise(tmp_path):
    x, y, model = fitted_model()
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    back = pipeline.load(path)
    assert back.widths == model.widths
    assert back.metadata == model.metadata
    np.testing.assert_array_equal(
        pipeline.transform(back, x), pipeline.transform(model, x)
    )
    np.testing.assert_array_equal(pipeline.predict(back, x), pipeline.predict(model, x))
    for la, lb in zip(model.layers, back.layers):
        np.testing.assert_array_equal(la.kpca.alphas, lb.kpca.alphas)
        np.testing.assert_array_equal(la.selected, lb.selected)
        assert la.kernels == lb.kernels


def test_the_data_fingerprint_is_the_digest_of_the_rows_bytes_in_any_layout():
    # the rows are hashed in place, not through a copy of their bytes, with
    # the digest of their .tobytes() (C order) whatever their layout
    x, y = blob_data()
    for rows in (x, np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]):
        want = hashlib.sha256(struct.pack("<QQ", *rows.shape) + rows.tobytes()
                              + y.astype(np.int64).tobytes()).hexdigest()
        assert pipeline._fingerprint(rows, y) == want
        assert pipeline._fingerprint(rows, np.repeat(y, 2)[::2]) == want  # strided labels


def test_a_saved_layer_holds_its_kept_components_only(tmp_path):
    _, _, model = fitted_model(subsample=40)
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    blob = path.read_bytes()
    assert b"fit_indices" not in blob and b"subsampled" not in blob
    back = pipeline.load(path)
    for cfg, layer in zip(default_configs(), back.layers):
        assert layer.kpca.alphas.shape == (layer.fit_sample.shape[0], cfg.width)
        assert layer.kpca.eigenvalues.shape == (cfg.width,)
        assert layer.scores.shape == (cfg.components,)  # every component computed
        assert not hasattr(layer, "fit_indices")


def test_a_model_file_lists_its_arrays_layer_by_layer_then_the_classifier(tmp_path):
    _, _, model = fitted_model()
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[12:16])  # after magic (8) and version (4)
    header = json.loads(blob[24:24 + header_len])
    layer = ["weights", "alphas", "eigenvalues", "row_means", "scores", "selected", "fit_sample"]
    classifier = ["classes", "support", "dual_coef", "biases", "support_vectors"]
    assert header["arrays"] == (["layer0/" + name for name in layer]
                                + ["layer1/" + name for name in layer]
                                + ["classifier/" + name for name in classifier])


def test_same_seed_refit_gives_identical_file(tmp_path):
    x, y = blob_data(n_per_class=40)
    cfgs = default_configs()
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    pipeline.save(pipeline.fit(x, y, cfgs, subsample=48, seed=5), a)
    pipeline.save(pipeline.fit(x, y, cfgs, subsample=48, seed=5), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_the_file(tmp_path):
    x, y = blob_data(n_per_class=40)
    cfgs = default_configs()
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    pipeline.save(pipeline.fit(x, y, cfgs, subsample=48, seed=5), a)
    pipeline.save(pipeline.fit(x, y, cfgs, subsample=48, seed=6), b)
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("split", [None, (30, 10)])
def test_train_saves_the_model_of_fit_on_its_training_rows(tmp_path, split):
    # train and fit run one layer loop: with the unpacked settings, fit on
    # the rows that train's split draws writes the same file
    x, y = digits_like(20, n_classes=2, seed=0)
    dataset = data.Dataset(x, y)
    layers = (LayerConfig(kernels=(parse_kernel("rbf(gamma=0.05)"), LINEAR), width=4,
                          basis_size=5),
              LayerConfig(kernels=(ARC, LINEAR), width=3, kpca_components=4, basis_size=5))
    config = ExperimentConfig(layers=layers, subsample=25, split=split,
                              classifier=ClassifierConfig(ARC, 10.0, 1e-3))
    model, report = pipeline.train(dataset, config, seed=4)
    rows = dataset if split is None else data.split(dataset, *split, seed=4)[0]
    a, b = tmp_path / "train.bin", tmp_path / "fit.bin"
    pipeline.save(model, a)
    pipeline.save(pipeline.fit(rows.features, rows.labels, config.layers, subsample=25, seed=4,
                               classifier=ARC, svm_c=10.0, svm_tol=1e-3), b)
    assert a.read_bytes() == b.read_bytes()
    assert (report["n_train"], report["n_valid"]) == (rows.n, 0 if split is None else 10)
    assert [row["layer"] for row in report["layers"]] == [1, 2]
    has_valid = split is not None
    assert [row["valid_error_percent"] is not None for row in report["layers"]] == [has_valid] * 2
    assert (report["validation_error_percent"] is not None) == has_valid
    assert report["classifier"]["support_vectors"] == model.classifier.n_support


def test_corrupted_payload_is_rejected(tmp_path):
    _, _, model = fitted_model()
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        pipeline.load(path)


def test_truncated_file_is_rejected(tmp_path):
    _, _, model = fitted_model()
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    blob = path.read_bytes()
    for cut in (10, len(blob) - 5):
        path.write_bytes(blob[:cut])
        with pytest.raises(TruncatedModelError):
            pipeline.load(path)


def test_trailing_bytes_are_rejected(tmp_path):
    _, _, model = fitted_model()
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ModelIOError):
        pipeline.load(path)


def _signed_again(blob, payload):
    """The model file ``blob`` with ``payload`` for its arrays' bytes, and
    its declared length and digest made to fit."""
    start = 8 + pipeline._PREFIX.size
    version, header_len, _ = pipeline._PREFIX.unpack(blob[8:start])
    head = blob[start:start + header_len]
    body = (blob[:8] + pipeline._PREFIX.pack(version, header_len, start + header_len
                                             + len(payload) + 32) + head + payload)
    return body + hashlib.sha256(body).digest()


def _payload(blob):
    start = 8 + pipeline._PREFIX.size
    _, header_len, total = pipeline._PREFIX.unpack(blob[8:start])
    return blob[start + header_len:total - 32]


def test_bytes_after_the_last_array_are_rejected(tmp_path):
    _, _, model = fitted_model()
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    blob = path.read_bytes()
    path.write_bytes(_signed_again(blob, _payload(blob)))
    pipeline.load(path)  # signed again as it was, it loads
    path.write_bytes(_signed_again(blob, _payload(blob) + b"\0" * 8))
    with pytest.raises(ModelIOError, match="the digest starts"):
        pipeline.load(path)


def test_a_last_array_that_claims_more_rows_does_not_read_the_digest(tmp_path):
    # the last array is the support vectors; one more row of them is 32
    # bytes, which the file holds only as its digest
    _, _, model = fitted_model()
    n, width = model.classifier.support_vectors.shape
    assert width * 8 == 32
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    payload = _payload(path.read_bytes())
    old, new = (b"'shape': (%d, %d)" % (rows, width) for rows in (n, n + 1))
    at = payload.rindex(old)
    end = payload.index(b"\n", at)
    grow = len(new) - len(old)
    assert payload[end - grow:end] == b" " * grow  # the header's padding absorbs a wider shape
    payload = payload[:at] + new + payload[at + len(old):end - grow] + payload[end:]
    path.write_bytes(_signed_again(path.read_bytes(), payload))
    with pytest.raises(ModelIOError, match="the digest starts"):
        pipeline.load(path)


def test_load_holds_the_file_and_its_arrays_not_a_copy_of_the_payload(tmp_path):
    # the arrays read from the file's own bytes: a 2 MB model peaks at the
    # file, its arrays and a chunk of numpy's reader, 2.27x the file, where
    # a copy of the payload made it 3.27x
    x, y = direction_blobs(300, 400, [(0, 8), (15, 23)], seed=0)
    model = pipeline.fit(x, y, [LayerConfig(kernels=(RBF, LINEAR), width=4, basis_size=5)])
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    size = path.stat().st_size
    assert size > 1.9e6
    tracemalloc.start()
    try:
        back = pipeline.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.layers[0].fit_sample.tobytes() == model.layers[0].fit_sample.tobytes()
    assert peak < 2.5 * size


@pytest.mark.parametrize("version", [1, 9])  # 1: layers held every kPCA component
def test_unknown_version_is_rejected(tmp_path, version):
    _, _, model = fitted_model()
    path = tmp_path / "model.bin"
    pipeline.save(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = version  # little-endian version field sits right after the magic
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        pipeline.load(path)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(ModelIOError):
        pipeline.load(path)


def test_save_requires_support_vectors(tmp_path):
    _, _, model = fitted_model()
    model.classifier.support_vectors = None
    with pytest.raises(ValueError):
        pipeline.save(model, tmp_path / "model.bin")


def _shorten(obj, name):
    object.__setattr__(obj, name, getattr(obj, name)[:-1])  # also on frozen dataclasses


@pytest.mark.parametrize(
    "match,corrupt",
    [
        ("weights", lambda m: setattr(m.layers[0], "weights", KernelWeights([1.0]))),
        ("fit_sample", lambda m: _shorten(m.layers[0], "fit_sample")),
        ("row means", lambda m: _shorten(m.layers[0].kpca, "row_means")),
        ("eigenvalues", lambda m: _shorten(m.layers[0].kpca, "eigenvalues")),
        ("scores", lambda m: setattr(m.layers[1], "scores",
                                     m.layers[1].scores[:m.layers[1].selected.max()])),
        ("selected", lambda m: m.layers[1].selected.__setitem__(0, -1)),
        ("chain", lambda m: setattr(m.layers[1], "fit_sample", m.layers[1].fit_sample[:, 1:])),
        ("dual_coef", lambda m: setattr(m.classifier, "dual_coef", m.classifier.dual_coef[:, 1:])),
        ("biases", lambda m: _shorten(m.classifier, "biases")),
        ("support vectors", lambda m: _shorten(m.classifier, "support_vectors")),
    ],
)
def test_load_rejects_arrays_that_do_not_fit_together(tmp_path, match, corrupt):
    _, _, model = fitted_model(subsample=40)
    corrupt(model)
    path = tmp_path / "model.bin"
    pipeline.save(model, path)  # with a valid checksum
    with pytest.raises(ModelIOError, match=match):
        pipeline.load(path)
