"""Greedy layerwise construction of multi-layer multiple kernel machines.

Each layer is fitted on the current representation of the training set
and never revisited: combination weights for the layer's base kernels
come from the unsupervised reconstruction objective, kernel PCA turns
the combined Gram matrix into coordinates, and a univariate ANOVA test
keeps the ``width`` most label-relevant ones.  The reduced coordinates
feed the next layer; after the last layer a kernel SVM is trained on
the final representation.

There is one layer path, ``fit_layer_grid``: it fits a gamma x width grid
of one kernel set's candidates and shares each stage between them.
``fit_layer`` is its one-candidate call, and ``search.grid_search`` runs it
for every candidate grid of ``mlmkl cv``.  A row of the grid builds its
combined Gram, kernel PCA and projections once, before any width, and
calls ``kpca.fit`` and ``kpca.leading`` directly, so a short spectrum warns
from ``kpca`` alone.

A row of the grid centres its combined Gram in place for kernel PCA, whose
eigensolver then overwrites it, so a layer holds one n x n array.  The fit
rows take their training projections.  Every other row, a training row
outside the subsample, a validation row of ``train`` or ``cv``, or a new
row of ``transform`` and ``predict``, goes through one blocked projection
(``_project``), ``_BLOCK_ROWS`` rows at a time: ``combined_cross``, whose
slab walk centres each slab by kPCA's row rule as it finishes it, while
the slab is in cache, and then one product with the kept components
(``kpca.transform`` of the centred cross), with the fit rows' kernel
terms made once.  The classifier takes new rows in the same blocks, so no
memory grows with the rows pushed through but their projections.

There is one layer loop too, shared by ``fit`` and ``train``: it fits the
layers greedily and then the classifier.  ``train`` splits a dataset by its
config's ``split`` and also pushes the validation rows through each layer,
scores them with a probe SVM (``probe_error``, which ``mlmkl cv`` also
uses) and times each stage: its report is what ``mlmkl train`` prints.

``config`` owns the settings: ``LayerConfig`` and ``DEFAULT_SUBSAMPLE`` are
re-exported here, the classifier defaults are ``ClassifierConfig``'s, and
``fit`` checks its settings as an ``ExperimentConfig`` before any layer.

Layers may fit their Gram matrices on a random subsample of the rows
(the whole training set is still pushed through the fitted layer), which
keeps the cubic eigendecomposition affordable.  All randomness flows
from one integer seed, so a fit is reproducible bit for bit; the model
serializer below is deterministic too (fixed header layout, sorted JSON
keys, raw array segments, sha256 trailer), hence two fits with the same
seed produce byte-identical files.  One table, ``_LAYER_ARRAYS``, lays out
a layer's arrays for both ``save`` and ``load``.
"""
from __future__ import annotations

import hashlib
import io
import json
import struct
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import data, featsel, kpca, svm
from .config import DEFAULT_SUBSAMPLE, ClassifierConfig, ExperimentConfig, LayerConfig
from .errors import (
    ChecksumError,
    MlmklError,
    ModelIOError,
    NonFiniteInputError,
    ParseError,
    ShapeError,
    TruncatedModelError,
    UnsupportedVersionError,
)
from .kernels import (
    KernelFamily, KernelRows, _as_matrix, _column_terms, _nonzero_rows, cross_gram, gram,
    parse_kernel,
)
from .kpca import KpcaModel
from .svm import SvmModel
from .umkl import (
    KernelWeights,
    assemble_qp,
    combine,
    problem_from_features,
    solve_simplex_qp,
)

__all__ = [
    "LayerConfig",
    "LayerModel",
    "MlmklModel",
    "DEFAULT_SUBSAMPLE",
    "combined_cross",
    "draw_fit_rows",
    "LayerFit",
    "fit_layer_grid",
    "fit_layer",
    "transform_layer",
    "fit",
    "TrainResult",
    "train",
    "layer_row",
    "transform",
    "predict",
    "train_classifier",
    "classifier_predict",
    "error_percent",
    "probe_error",
    "save",
    "load",
]

@dataclass
class LayerModel:
    """A fitted layer: what is needed to push new points through it."""

    kernels: tuple
    weights: KernelWeights
    kpca: KpcaModel  # the kept components only, in ``selected`` order
    scores: np.ndarray  # ANOVA F per kernel principal component computed
    selected: np.ndarray  # indices of the kept components among those, best first
    fit_sample: np.ndarray  # rows the Grams were built on, in layer input space

    def __post_init__(self):
        n_fit, n_comp = self.kpca.alphas.shape
        sel = self.selected
        has_scores = bool(np.all(sel < self.scores.size))  # every kept index has an F score
        checks = {
            "weights": len(self.weights) == len(self.kernels),
            "fit_sample": self.fit_sample.ndim == 2 and self.fit_sample.shape[0] == n_fit,
            "scores": self.scores.ndim == 1 and has_scores,
            "selected": sel.shape == (n_comp,) and np.issubdtype(sel.dtype, np.integer)
            and bool(np.all(sel >= 0)) and has_scores,
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            raise ShapeError(
                "layer %s do not fit %d kernels, %d fit rows and %d components"
                % (", ".join(bad), len(self.kernels), n_fit, n_comp)
            )

    @property
    def width(self):
        return self.selected.size

    @property
    def input_dim(self):
        return self.fit_sample.shape[1]


def combined_cross(rows, cols, kernels, weights, col_terms=None, _finish=None):
    """Combined kernel block k(rows_i, cols_j) under simplex ``weights``;
    ``col_terms``, when given, are the columns' terms, and ``_finish`` the
    private per-slab rule, as ``cross_gram`` takes them.

    A zero row fails with ``ZeroVectorError`` when the layer has an
    arc-cosine kernel, whatever its weight, as it fails the layer's fit:
    one of nonzero weight finds it in the row norms it takes, and one of
    weight zero, which is not evaluated, is checked here.
    """
    spec = tuple(zip(weights.mu, kernels))
    if any(k.family is KernelFamily.ARC_COSINE and not w for w, k in spec):
        _nonzero_rows(np.asarray(rows, dtype=np.float64))
    return cross_gram(rows, cols, spec, col_terms, _finish=_finish)


# Rows that a layer or the classifier takes at a time outside its fit rows,
# so that a batch holds a block's cross-Gram, not the batch's.  At 1024 rows
# a block keeps the throughput of the whole batch.
_BLOCK_ROWS = 1024


def _in_blocks(x, step, out, at=None):
    """``out`` with the rows ``at`` of ``x`` (every row when None) set to
    ``step`` of them, ``_BLOCK_ROWS`` rows at a time in order; a row that
    an error names is named by its place in ``x``."""
    n = len(x) if at is None else at.size
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS) if at is None else at[start:start + _BLOCK_ROWS]
        try:
            out[rows] = step(x[rows])
        except MlmklError as exc:
            if exc.row is None:
                raise
            raise type(exc)(exc.reason, int(np.arange(len(x))[rows][exc.row])) from None
    return out


def _project(x, kp, fit_rows, kernels, weights, at=None):
    """The rows ``at`` of ``x`` (every row when None) through the kernel
    PCA ``kp`` of a layer fitted on ``fit_rows``, into the same rows of a
    new array with a row per row of ``x``: ``combined_cross``, centred
    slab by slab by kPCA's rule (``kpca._center``) as the kernel walk
    finishes each slab, then one product with the components,
    ``_BLOCK_ROWS`` rows at a time, with the fit rows' kernel terms made
    once.  The bits are ``kpca.transform``'s of the block's cross.  This is
    the one way a row that is not a fit row reaches a layer's components."""
    terms = _column_terms(fit_rows, tuple(zip(weights.mu, kernels)))

    def center(slab):
        kpca._center(slab, kp.row_means, kp.total_mean, slab)

    def step(rows):
        cross = combined_cross(rows, fit_rows, kernels, weights, terms, center)
        return kpca.transform(kp, cross, _centered=True)

    return _in_blocks(x, step, np.empty((len(x), kp.n_components)), at)


def draw_fit_rows(rng, n, subsample):
    """Sorted positions of ``subsample`` of ``n`` rows drawn by ``rng``
    without replacement, or None (every row) when ``subsample`` is 0 or
    not below ``n``; ``subsample`` is an ``ExperimentConfig``'s, so it is
    not negative."""
    if subsample and subsample < n:
        return np.sort(rng.choice(n, size=subsample, replace=False))
    return None


class LayerFit(NamedTuple):
    """One fitted candidate of ``fit_layer_grid``."""

    layer: LayerModel
    train: np.ndarray  # every training row through the layer
    valid: np.ndarray | None  # the validation rows through it, when given
    score: object  # what ``score(train, valid)`` returned, when given


def fit_layer_grid(features, labels, grid, fit_idx=None, valid=None, score=None):
    """Fit every candidate of one kernel set's ``grid`` of ``LayerConfig``s,
    a row per gamma and a column per width, on the rows ``fit_idx`` of
    ``features`` (None means all of them); every row is transformed.

    Returns, row by row, each candidate's ``LayerFit``, or the
    ``MlmklError`` that stopped it: every failure that data can cause on
    the layer path, ``score``'s included, is one.  Any other exception is a
    bug and propagates.  A layer with an arc-cosine kernel checks every
    training row for zeros first, so a zero row is named by its place
    among them.  The candidates share the stages: one weight problem, one
    QP per gamma, and per distinct weight vector one combined Gram, which
    its kernel PCA at the largest component count consumes as the
    eigensolver's workspace, and the projections at that count of every
    training row and, given ``valid`` rows, of those, all made before any
    width, so a failure among them stops every candidate of the row.  The
    fit rows take their training projections; every other row goes through
    the components ``_BLOCK_ROWS`` rows at a time (``_project``), so no
    cross of all rows is held.  Each width takes the leading columns, and
    each candidate its selected ones.  Gamma enters only the QP, so rows
    whose weights are equal get the same cells, computed once;
    ``score(train, valid)`` runs on each freshly fitted candidate.  A
    candidate at the largest count has the bits of the same layer fitted
    alone; one at a smaller count gets the leading components of that
    kernel PCA, which equal its own to round-off (``kpca.leading``), not
    bit for bit.
    """
    x, kernels = _as_matrix(features, "features"), grid[0][0].kernels
    # a copy either way, made once: every candidate's layer keeps it as its fit rows
    xs = np.array(x, copy=True) if fit_idx is None else x[fit_idx]
    try:
        if any(spec.family is KernelFamily.ARC_COSINE for spec in kernels):
            _nonzero_rows(x)
        problem = problem_from_features(xs, kernels, grid[0][0].basis_size)
    except MlmklError as exc:
        return [exc] * sum(map(len, grid))
    counts = [cand.components for cand in grid[0]]
    top = counts.index(max(counts))
    fit = np.arange(x.shape[0]) if fit_idx is None else fit_idx
    rest = np.setdiff1d(np.arange(x.shape[0]), fit)  # the training rows that are not fit rows

    def fit_row(row, weights):
        """(kernel PCA or None, cells) of a row of candidates with ``weights``."""
        kp = None
        try:
            # the combined Gram becomes the eigensolver's workspace
            kp = kpca.fit(combine(xs, kernels, weights), counts[top], overwrite=True)
            # fit warned for the top candidate, leading warns for the rest, all
            # before any projection, as each candidate fitted alone would
            kps = [kp if i == top else kpca.leading(kp, n) for i, n in enumerate(counts)]
            train = _project(x, kp, xs, kernels, weights, at=rest)
            train[fit] = kp.training_projections()
            reduced = None if valid is None else _project(valid, kp, xs, kernels, weights)
        except MlmklError as exc:
            return kp, [exc] * len(row)
        row_cells = []
        for cand, kc in zip(row, kps):
            try:
                # training rows are ranked on every component of the
                # candidate's; the layer keeps, and projects new rows onto,
                # the selected ones
                ranking, feats = featsel.select(train[:, :kc.n_components], labels, cand.width)
                sel = ranking.selected
                kept = replace(kc, alphas=np.ascontiguousarray(kc.alphas[:, sel]),
                               eigenvalues=kc.eigenvalues[sel])
                layer = LayerModel(kernels=kernels, weights=weights, kpca=kept,
                                   scores=ranking.scores, selected=sel, fit_sample=xs)
                valid_feats = None if reduced is None else reduced[:, sel]
                scored = None if score is None else score(feats, valid_feats)
                row_cells.append(LayerFit(layer, feats, valid_feats, scored))
            except MlmklError as exc:
                row_cells.append(exc)
        return kp, row_cells

    seen = {}  # weights.mu bytes -> fit_row's result
    cells = []
    for row in grid:
        try:
            weights = solve_simplex_qp(assemble_qp(problem, row[0].gamma))
        except MlmklError as exc:
            cells += [exc] * len(row)
            continue
        key = weights.mu.tobytes()
        if key not in seen:
            seen[key] = fit_row(row, weights)
        elif seen[key][0] is not None:
            for cand in row:  # the kPCA warnings of each candidate fitted alone
                kpca.leading(seen[key][0], cand.components)
        cells += seen[key][1]
    return cells


def fit_layer(features, labels, config, fit_idx=None):
    """Fit one layer and return it with the transformed training rows: the
    one-candidate call of ``fit_layer_grid``, which raises what stopped it.

    ``fit_idx`` selects the rows used for the Gram matrices (None means
    all of them); every row of ``features`` is transformed regardless.
    """
    (fitted,) = fit_layer_grid(features, labels, [[config]], fit_idx)
    if isinstance(fitted, Exception):
        raise fitted
    return fitted.layer, fitted.train


def transform_layer(layer, features):
    """Push new rows through a fitted layer, ``_BLOCK_ROWS`` at a time."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.input_dim:
        raise ShapeError(
            "expected rows of dimension %d, got shape %r" % (layer.input_dim, x.shape)
        )
    return _project(x, layer.kpca, layer.fit_sample, layer.kernels, layer.weights)


@dataclass
class MlmklModel:
    layers: list
    classifier: SvmModel
    metadata: dict

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("model needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.input_dim != prev.width:
                raise ShapeError(
                    "layer chain broken: width %d feeds input of dimension %d"
                    % (prev.width, cur.input_dim)
                )
        sv = self.classifier.support_vectors
        if sv is not None and sv.shape[1] != self.layers[-1].width:
            raise ShapeError(
                "classifier support vectors have dimension %d, final width is %d"
                % (sv.shape[1], self.layers[-1].width)
            )

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def widths(self):
        return tuple(l.width for l in self.layers)


def _fingerprint(x, y):
    """sha256 of the rows' shape, their float64 bytes in C order and the
    labels' int64 bytes: the digest of their ``.tobytes()``, read in place
    from C-ordered arrays, not copied."""
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", *x.shape))
    h.update(memoryview(np.ascontiguousarray(x, dtype=np.float64)))
    h.update(memoryview(np.ascontiguousarray(y, dtype=np.int64)))
    return h.hexdigest()


# Bytes of the largest classifier Gram that is built whole.  Above it, SMO
# computes each kernel row the first time a machine reads it: one-vs-rest
# machines read about a third of the rows, and reading rows overtakes
# building the whole Gram near 3000 rows.
_DENSE_GRAM_BYTES = 100 * 2**20


def train_classifier(features, labels, kernel, c=ClassifierConfig.c, tol=ClassifierConfig.tol):
    """Kernel SVM on a feature matrix; the support rows are kept on the model.

    Up to ``_DENSE_GRAM_BYTES`` of Gram the machines read the dense
    ``gram``; above it they share a ``KernelRows``, whose rows equal the
    Gram's to round-off, so a model may differ from the dense path's."""
    x = np.asarray(features, dtype=np.float64)
    k = gram(x, kernel) if 8 * x.shape[0] ** 2 <= _DENSE_GRAM_BYTES else KernelRows(x, kernel)
    machine = svm.train_multiclass(k, labels, c=c, tol=tol, kernel=kernel)
    machine.support_vectors = np.array(x[machine.support], copy=True)
    return machine


def classifier_predict(machine, features):
    """Predict labels for feature rows with a classifier that kept its
    support vectors, ``_BLOCK_ROWS`` rows at a time, with the support
    vectors' kernel terms made once."""
    if machine.support_vectors is None or machine.kernel is None:
        raise ValueError("classifier carries no support vectors or kernel")
    x, sv, kernel = _as_matrix(features, "rows"), machine.support_vectors, machine.kernel
    terms = _column_terms(sv, kernel)
    return _in_blocks(x, lambda rows: svm.predict(machine, cross_gram(rows, sv, kernel, terms)),
                      np.empty(x.shape[0], dtype=machine.classes.dtype))


def error_percent(predicted, actual):
    return 100.0 * float(np.mean(np.asarray(predicted) != np.asarray(actual)))


def probe_error(train_feats, y_train, test_feats, y_test, classifier, cap):
    """Validation error of an SVM trained on (at most ``cap``) feature rows."""
    m = min(cap, train_feats.shape[0])
    machine = train_classifier(
        train_feats[:m], y_train[:m], classifier.kernel, c=classifier.c, tol=classifier.tol,
    )
    return error_percent(classifier_predict(machine, test_feats), y_test)


def _finite(features):
    x = np.asarray(features, dtype=np.float64)
    finite = np.isfinite(x)
    if not finite.all():
        first = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NonFiniteInputError("features hold nan or inf, first at index %s" % (first,))
    return x


def layer_row(index, layer):
    """The report row of the layer at 0-based ``index``: its kernels and weights."""
    return {"layer": index + 1, "kernels": [k.canonical() for k in layer.kernels],
            "mu": [float(w) for w in layer.weights.mu]}


def _stack(features, labels, config, seed, valid=None):
    """The one layer loop, of ``fit`` and ``train``: ``config``'s layers
    fitted greedily on the rows, then its classifier on the last layer's.

    Returns the model, the report of its layers and its classifier, and
    the ``valid`` rows (a ``data.Dataset`` or None) through every layer;
    each layer's row then holds the error of a probe SVM on them.  The
    rows and labels are checked before the first layer, as ``config``, an
    ``ExperimentConfig``, was checked when it was built.
    """
    x = _as_matrix(_finite(features), "features")
    y, _ = featsel.check_labels(labels, x.shape[0])
    rng = np.random.default_rng(seed)
    rep, valid_rep = x, None if valid is None else valid.features
    layers, rows = [], []
    clock = time.perf_counter()
    for index, cfg in enumerate(config.layers):
        layer, rep = fit_layer(rep, y, cfg, draw_fit_rows(rng, rep.shape[0], config.subsample))
        layers.append(layer)
        rows.append(dict(layer_row(index, layer), seconds=time.perf_counter() - clock,
                         valid_error_percent=None))
        if valid is not None:
            valid_rep = transform_layer(layer, valid_rep)
            try:
                rows[-1]["valid_error_percent"] = probe_error(
                    rep, y, valid_rep, valid.labels, config.classifier, config.probe_cap)
            except MlmklError as exc:
                m = min(config.probe_cap, rep.shape[0])
                raise type(exc)("layer %d validation probe on %d training rows (probe_cap %d): %s"
                                % (index + 1, m, config.probe_cap, exc)) from None
        clock = time.perf_counter()
    clf = config.classifier
    machine = train_classifier(rep, y, clf.kernel, c=clf.c, tol=clf.tol)
    report = {"layers": rows, "classifier": {
        "kernel": machine.kernel.canonical(), "C": machine.c,
        "support_vectors": machine.n_support, "seconds": time.perf_counter() - clock}}
    metadata = {
        "seed": int(seed),
        "subsample": int(config.subsample),
        "classifier": clf.kernel.canonical(),
        "svm_c": clf.c,
        "svm_tol": clf.tol,
        "data_sha256": _fingerprint(x, y),
        "layer_configs": [cfg.to_dict() for cfg in config.layers],
    }
    return MlmklModel(layers=layers, classifier=machine, metadata=metadata), report, valid_rep


def fit(
    features,
    labels,
    configs,
    subsample=DEFAULT_SUBSAMPLE,
    seed=0,
    classifier=ClassifierConfig.kernel,
    svm_c=ClassifierConfig.c,
    svm_tol=ClassifierConfig.tol,
):
    """Train the full stack: layers greedily, then the SVM on top.

    The arguments are built into an ``ExperimentConfig``, so every setting
    is checked, and the labels as ``featsel`` checks them, before the first
    layer; the layers are fitted by the loop that ``train`` runs, and the
    model is ``train``'s for that config on the same rows without a split.
    """
    config = ExperimentConfig(layers=configs, subsample=subsample,
                              classifier=ClassifierConfig(classifier, svm_c, svm_tol))
    return _stack(features, labels, config, seed)[0]


class TrainResult(NamedTuple):
    model: MlmklModel
    report: dict  # the fit's part of what ``mlmkl train --format json`` prints


def train(dataset, config, seed=0):
    """Fit ``config``'s stack on ``dataset``, a ``data.Dataset``, as
    ``mlmkl train`` does, and report each stage.

    A ``config.split`` draws the training and validation rows with
    ``seed``, which also draws each layer's fit rows.  The report holds the
    row counts ``n_train`` and ``n_valid``, per layer its kernels, ``mu``,
    seconds and ``valid_error_percent`` (the error of a probe SVM on at
    most ``config.probe_cap`` rows of the layer's output), the classifier's
    kernel, C, support vectors and seconds, ``validation_error_percent``
    and the total seconds.  Without validation rows the errors are None.
    """
    start = time.perf_counter()
    rows, valid = dataset, None
    if config.split is not None:
        rows, valid = data.split(dataset, config.split[0], config.split[1], seed=seed)
    model, report, valid_rep = _stack(rows.features, rows.labels, config, seed, valid)
    report.update(n_train=rows.n, n_valid=0, validation_error_percent=None)
    if valid is not None:
        report.update(n_valid=valid.n, validation_error_percent=error_percent(
            classifier_predict(model.classifier, valid_rep), valid.labels))
    report["seconds"] = time.perf_counter() - start
    return TrainResult(model, report)


def transform(model, features):
    """Final-layer representation of new rows: the batch through each
    layer in turn, ``_BLOCK_ROWS`` rows at a time.

    A batch of at most one block has the bits of its rows pushed through
    whole; in a larger one a row's values may differ from those at
    round-off, since BLAS rounds a product by its shape."""
    x = _finite(features)
    for layer in model.layers:
        x = transform_layer(layer, x)
    return x


def predict(model, features):
    """Class labels for new rows: ``transform``, then the classifier,
    ``_BLOCK_ROWS`` rows at a time."""
    return classifier_predict(model.classifier, transform(model, features))


# ---------------------------------------------------------------------------
# model files
#
# layout: magic (8) | version u32 | header length u32 | total file length u64
#         | JSON header | concatenated .npy segments | sha256 of all prior bytes
#
# Arrays are written with numpy's own .npy encoder in the order listed in
# the header, so the byte stream is a pure function of the model content.
# Since version 2 a layer stores its selected kPCA components only; files of
# another version fail to load.

_MAGIC = b"MLMKLBIN"
_VERSION = 2
_PREFIX = struct.Struct("<IIQ")


# Each layer's arrays in file order, as (name, value of a layer), and the
# classifier's, by their ``SvmModel`` field names: ``_manifest`` writes them
# and ``load`` reads them back.
_LAYER_ARRAYS = (
    ("weights", lambda layer: layer.weights.mu),
    ("alphas", lambda layer: layer.kpca.alphas),
    ("eigenvalues", lambda layer: layer.kpca.eigenvalues),
    ("row_means", lambda layer: layer.kpca.row_means),
    ("scores", lambda layer: layer.scores),
    ("selected", lambda layer: layer.selected),
    ("fit_sample", lambda layer: layer.fit_sample),
)
_CLASSIFIER_ARRAYS = ("classes", "support", "dual_coef", "biases", "support_vectors")


def _manifest(model):
    clf = model.classifier
    if clf.support_vectors is None or clf.kernel is None:
        raise ValueError("cannot save a classifier without support vectors and kernel")
    arrays = [("layer%d/%s" % (index, name), value(layer))
              for index, layer in enumerate(model.layers) for name, value in _LAYER_ARRAYS]
    arrays += [("classifier/" + name, getattr(clf, name)) for name in _CLASSIFIER_ARRAYS]
    header = {
        "format": "mlmkl-model",
        "layers": [{"kernels": [k.canonical() for k in layer.kernels],
                    "total_mean": layer.kpca.total_mean} for layer in model.layers],
        "classifier": {
            "kernel": clf.kernel.canonical(),
            "c": clf.c,
        },
        "metadata": model.metadata,
        "arrays": [name for name, _ in arrays],
    }
    return header, arrays


def save(model, path):
    """Write a model file; byte-identical for equal models.  The arrays'
    bytes are hashed and written where they were encoded, not copied into
    one whole file first."""
    header, arrays = _manifest(model)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = io.BytesIO()
    for _, arr in arrays:
        np.lib.format.write_array(
            payload, np.ascontiguousarray(arr), version=(1, 0), allow_pickle=False
        )
    with payload.getbuffer() as arrays_bytes:
        total = 8 + _PREFIX.size + len(header_bytes) + arrays_bytes.nbytes + 32
        head = _MAGIC + _PREFIX.pack(_VERSION, len(header_bytes), total) + header_bytes
        digest = hashlib.sha256(head)
        digest.update(arrays_bytes)
        with open(path, "wb") as fh:
            fh.write(head)
            fh.write(arrays_bytes)
            fh.write(digest.digest())


def _finite_content(name, value):
    """``value`` of a model file, which must be finite: a NaN or inf that
    predict reads makes every row's prediction the first class.  A layer's
    F scores may hold +inf, featsel's score of a perfectly separating
    component."""
    v = np.asarray(value)
    if np.issubdtype(v.dtype, np.inexact):
        bad = np.isnan(v) | (v == -np.inf) if name.endswith("/scores") else ~np.isfinite(v)
        if bad.any():
            raise ModelIOError("%s holds nan or inf" % name)
    return value


def load(path):
    """Read a model file back; inverse of ``save``.  A file whose arrays
    do not fit together, or hold a NaN or inf, fails here, not at predict
    time."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = 8 + _PREFIX.size
    if len(blob) < start:
        raise TruncatedModelError("file is only %d bytes" % len(blob))
    if blob[:8] != _MAGIC:
        raise ModelIOError("not a model file (bad magic)")
    version, header_len, total = _PREFIX.unpack(blob[8:start])
    if version != _VERSION:
        raise UnsupportedVersionError(
            "file has format version %d, this build reads %d" % (version, _VERSION)
        )
    if len(blob) < total:
        raise TruncatedModelError(
            "file is %d bytes but declares %d" % (len(blob), total)
        )
    if len(blob) > total:
        raise ModelIOError("%d bytes of trailing data" % (len(blob) - total))
    if hashlib.sha256(memoryview(blob)[: total - 32]).digest() != blob[total - 32 :]:
        raise ChecksumError("content does not match its sha256 digest")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelIOError("unreadable header: %s" % exc) from None
    stream = io.BytesIO(blob)  # shares the bytes of ``blob``, unlike a slice of it
    stream.seek(start + header_len)
    arrays = {}
    try:
        for name in header["arrays"]:
            arrays[name] = np.lib.format.read_array(stream, allow_pickle=False)
        if stream.tell() != total - 32:  # unread bytes, or an array read into the digest
            raise ModelIOError("the arrays end at byte %d, the digest starts at %d"
                               % (stream.tell(), total - 32))

        def finite_arrays(prefix, names):
            return {name: _finite_content(prefix + name, arrays[prefix + name])
                    for name in names}

        layers = []
        for index, lh in enumerate(header["layers"]):
            prefix = "layer%d/" % index
            kernels = tuple(parse_kernel(s) for s in lh["kernels"])
            a = finite_arrays(prefix, [name for name, _ in _LAYER_ARRAYS])
            model_k = KpcaModel(
                alphas=a["alphas"],
                eigenvalues=a["eigenvalues"],
                row_means=a["row_means"],
                total_mean=_finite_content(prefix + "total_mean", float(lh["total_mean"])),
            )
            layers.append(LayerModel(kernels=kernels, weights=KernelWeights(a["weights"]),
                                     kpca=model_k, scores=a["scores"], selected=a["selected"],
                                     fit_sample=a["fit_sample"]))
        ch = header["classifier"]
        machine = SvmModel(kernel=parse_kernel(ch["kernel"]),
                           **finite_arrays("classifier/", _CLASSIFIER_ARRAYS),
                           c=_finite_content("classifier/c", float(ch["c"])))
        return MlmklModel(layers=layers, classifier=machine, metadata=header["metadata"])
    except (KeyError, ValueError, IndexError, ShapeError, ParseError,
            TypeError, OverflowError) as exc:  # TypeError: e.g. a number for a list
        raise ModelIOError("malformed model content: %s" % exc) from None
