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
for every candidate grid of ``mlmkl cv``.

``config`` owns the settings: ``LayerConfig`` and ``DEFAULT_SUBSAMPLE`` are
re-exported here, the classifier defaults are ``ClassifierConfig``'s, and
``fit`` checks its settings as an ``ExperimentConfig`` before any layer.

Layers may fit their Gram matrices on a random subsample of the rows
(the whole training set is still pushed through the fitted layer), which
keeps the cubic eigendecomposition affordable.  All randomness flows
from one integer seed, so a fit is reproducible bit for bit; the model
serializer below is deterministic too (fixed header layout, sorted JSON
keys, raw array segments, sha256 trailer), hence two fits with the same
seed produce byte-identical files.
"""
from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import featsel, kpca, svm
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
    KernelFamily, KernelRows, _as_matrix, _row_norms, cross_gram, gram, parse_kernel,
)
from .kpca import KpcaModel
from .svm import SvmModel
from .umkl import (
    KernelWeights,
    assemble_qp,
    combine,
    problem_from_features,
    solve_simplex_qp,
    weighted_sum,
)

__all__ = [
    "LayerConfig",
    "LayerModel",
    "MlmklModel",
    "DEFAULT_SUBSAMPLE",
    "combined_cross",
    "draw_fit_rows",
    "training_cross",
    "LayerFit",
    "fit_layer_grid",
    "fit_layer",
    "transform_layer",
    "fit",
    "transform",
    "predict",
    "train_classifier",
    "classifier_predict",
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


def combined_cross(rows, cols, kernels, weights):
    """Combined kernel block k(rows_i, cols_j) under simplex ``weights``.

    A zero row fails with ``ZeroVectorError`` when the layer has an
    arc-cosine kernel, whatever its weight, as it fails the layer's fit.
    """
    if any(spec.family is KernelFamily.ARC_COSINE for spec in kernels):
        _row_norms(np.asarray(rows, dtype=np.float64))
    return weighted_sum(weights.mu, lambda t: cross_gram(rows, cols, kernels[t]))


def draw_fit_rows(rng, n, subsample):
    """Sorted positions of ``subsample`` of ``n`` rows drawn by ``rng``
    without replacement, or None (every row) when ``subsample`` is 0 or
    not below ``n``; ``subsample`` is an ``ExperimentConfig``'s, so it is
    not negative."""
    if subsample and subsample < n:
        return np.sort(rng.choice(n, size=subsample, replace=False))
    return None


def training_cross(rows, fit_idx, kernels, weights, k_fit):
    """Combined kernel rows of every training row against the fit rows
    ``rows[fit_idx]`` (all rows when ``fit_idx`` is None), whose combined
    Gram is ``k_fit``."""
    if fit_idx is None:
        return k_fit.values
    cross = combined_cross(rows, rows[fit_idx], kernels, weights)
    # fit rows get their exact same-set kernel values, not the
    # round-off-limited recomputation
    cross[fit_idx] = k_fit.values
    return cross


class LayerFit(NamedTuple):
    """One fitted candidate of ``fit_layer_grid``."""

    layer: LayerModel
    train: np.ndarray  # every training row through the layer
    valid: np.ndarray | None  # the validation rows through it, when given
    score: object  # what ``score(train, valid)`` returned, when given


def _kpca(source, n_components):
    """Kernel PCA of ``n_components`` components: fitted on a Gram, or the
    leading ones of a fitted ``KpcaModel``.  Both go through one call, so a
    short spectrum warns from one source location whether a candidate's
    components were computed or reused, and Python's default filter, which
    shows a text once per location, shows a reused row's warnings no more
    often than a fresh row's."""
    step = kpca.leading if isinstance(source, KpcaModel) else kpca.fit
    return step(source, n_components)


def fit_layer_grid(features, labels, grid, fit_idx=None, valid=None, score=None):
    """Fit every candidate of one kernel set's ``grid`` of ``LayerConfig``s,
    a row per gamma and a column per width, on the rows ``fit_idx`` of
    ``features`` (None means all of them); every row is transformed.

    Returns, row by row, each candidate's ``LayerFit``, or the exception
    that stopped it where a candidate fitted alone would stop.  The
    candidates share the stages: one weight problem, one QP per gamma, and
    per distinct weight vector one combined Gram, one kernel PCA at the
    largest component count, one training cross and, given ``valid`` rows,
    one validation cross.  Gamma enters only the QP, so rows whose weights
    are equal get the same cells, computed once; ``score(train, valid)``
    runs on each freshly fitted candidate.  A candidate at the largest
    count has the bits of the same layer fitted alone; one at a smaller
    count gets the leading components of that kernel PCA, which equal its
    own to round-off (``kpca.leading``), not bit for bit.
    """
    failures = (MlmklError, ValueError)
    x, kernels = _as_matrix(features, "features"), grid[0][0].kernels
    xs = x if fit_idx is None else x[fit_idx]
    try:
        problem = problem_from_features(xs, kernels, grid[0][0].basis_size)
    except failures as exc:
        return [exc] * sum(map(len, grid))
    counts = [cand.components for cand in grid[0]]
    top = counts.index(max(counts))

    def fit_row(row, weights):
        """(kernel PCA or None, cells) of a row of candidates with ``weights``."""
        try:
            k_fit = combine(xs, kernels, weights)
            kp = _kpca(k_fit, counts[top])
        except failures as exc:
            return None, [exc] * len(row)
        sample = np.array(x, copy=True) if fit_idx is None else xs  # x[fit_idx] is a copy
        # each cross is built once, where a candidate fitted on its own would
        # build it, so a failure reaches the same candidates
        train_cross = valid_cross = None
        row_cells = []
        for i, cand in enumerate(row):
            try:
                # fit warned for the top candidate, leading warns for the rest
                kc = kp if i == top else _kpca(kp, cand.components)
                if train_cross is None:
                    train_cross = training_cross(x, fit_idx, kernels, weights, k_fit)
                # training rows are ranked on every component; the layer
                # keeps, and projects new rows onto, the selected ones
                ranking, train = featsel.select(kpca.transform(kc, train_cross), labels,
                                                cand.width)
                sel = ranking.selected
                kept = replace(kc, alphas=np.ascontiguousarray(kc.alphas[:, sel]),
                               eigenvalues=kc.eigenvalues[sel])
                layer = LayerModel(kernels=kernels, weights=weights, kpca=kept,
                                   scores=ranking.scores, selected=sel, fit_sample=sample)
                reduced = None
                if valid is not None:
                    if valid_cross is None:
                        valid_cross = combined_cross(valid, xs, kernels, weights)
                    reduced = kpca.transform(kept, valid_cross)
                scored = None if score is None else score(train, reduced)
                row_cells.append(LayerFit(layer, train, reduced, scored))
            except failures as exc:
                row_cells.append(exc)
        return kp, row_cells

    seen = {}  # weights.mu bytes -> fit_row's result
    cells = []
    for row in grid:
        try:
            weights = solve_simplex_qp(assemble_qp(problem, row[0].gamma))
        except failures as exc:
            cells += [exc] * len(row)
            continue
        key = weights.mu.tobytes()
        if key not in seen:
            seen[key] = fit_row(row, weights)
        elif seen[key][0] is not None:
            for cand in row:  # the kPCA warnings of each candidate fitted alone
                _kpca(seen[key][0], cand.components)
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
    """Push new rows through a fitted layer."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.input_dim:
        raise ShapeError(
            "expected rows of dimension %d, got shape %r" % (layer.input_dim, x.shape)
        )
    cross = combined_cross(x, layer.fit_sample, layer.kernels, layer.weights)
    return kpca._center_and_project(layer.kpca, cross, cross)


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
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", *x.shape))
    h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.int64).tobytes())
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
    support vectors."""
    if machine.support_vectors is None or machine.kernel is None:
        raise ValueError("classifier carries no support vectors or kernel")
    cross = cross_gram(features, machine.support_vectors, machine.kernel)
    return svm.predict(machine, cross)


def _finite(features):
    x = np.asarray(features, dtype=np.float64)
    finite = np.isfinite(x)
    if not finite.all():
        first = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NonFiniteInputError("features hold nan or inf, first at index %s" % (first,))
    return x


def fit(
    features,
    labels,
    configs,
    subsample=DEFAULT_SUBSAMPLE,
    seed=0,
    classifier=ClassifierConfig.kernel,
    svm_c=ClassifierConfig.c,
    svm_tol=ClassifierConfig.tol,
    callback=None,
):
    """Train the full stack: layers greedily, then the SVM on top.

    ``callback(index, layer, representation)`` runs after each layer is
    fitted, with the training rows already pushed through it; useful for
    per-layer diagnostics without a second pass.  Every setting is
    checked, as an ``ExperimentConfig``, and the labels as ``featsel``
    checks them, before the first layer.
    """
    clf = ClassifierConfig(classifier, svm_c, svm_tol)
    configs = ExperimentConfig(layers=configs, subsample=subsample, classifier=clf).layers
    x = _as_matrix(_finite(features), "features")
    y, _ = featsel.check_labels(labels, x.shape[0])
    rng = np.random.default_rng(seed)
    rep = x
    layers = []
    for index, cfg in enumerate(configs):
        layer, rep = fit_layer(rep, y, cfg, draw_fit_rows(rng, rep.shape[0], subsample))
        layers.append(layer)
        if callback is not None:
            callback(index, layer, rep)
    machine = train_classifier(rep, y, clf.kernel, c=clf.c, tol=clf.tol)
    metadata = {
        "seed": int(seed),
        "subsample": int(subsample),
        "classifier": clf.kernel.canonical(),
        "svm_c": clf.c,
        "svm_tol": clf.tol,
        "data_sha256": _fingerprint(x, y),
        "layer_configs": [cfg.to_dict() for cfg in configs],
    }
    return MlmklModel(layers=layers, classifier=machine, metadata=metadata)


def transform(model, features):
    """Final-layer representation of new rows."""
    rep = _finite(features)
    for layer in model.layers:
        rep = transform_layer(layer, rep)
    return rep


def predict(model, features):
    """Class labels for new rows."""
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


def _manifest(model):
    if model.classifier.support_vectors is None or model.classifier.kernel is None:
        raise ValueError("cannot save a classifier without support vectors and kernel")
    arrays = []
    layer_headers = []
    for index, layer in enumerate(model.layers):
        prefix = "layer%d/" % index
        arrays.append((prefix + "weights", layer.weights.mu))
        arrays.append((prefix + "alphas", layer.kpca.alphas))
        arrays.append((prefix + "eigenvalues", layer.kpca.eigenvalues))
        arrays.append((prefix + "row_means", layer.kpca.row_means))
        arrays.append((prefix + "scores", layer.scores))
        arrays.append((prefix + "selected", layer.selected))
        arrays.append((prefix + "fit_sample", layer.fit_sample))
        layer_headers.append({"kernels": [k.canonical() for k in layer.kernels],
                              "total_mean": layer.kpca.total_mean})
    clf = model.classifier
    arrays.append(("classifier/classes", clf.classes))
    arrays.append(("classifier/support", clf.support))
    arrays.append(("classifier/dual_coef", clf.dual_coef))
    arrays.append(("classifier/biases", clf.biases))
    arrays.append(("classifier/support_vectors", clf.support_vectors))
    header = {
        "format": "mlmkl-model",
        "layers": layer_headers,
        "classifier": {
            "kernel": clf.kernel.canonical(),
            "c": clf.c,
        },
        "metadata": model.metadata,
        "arrays": [name for name, _ in arrays],
    }
    return header, arrays


def save(model, path):
    """Write a model file; byte-identical for equal models."""
    header, arrays = _manifest(model)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = io.BytesIO()
    for _, arr in arrays:
        np.lib.format.write_array(
            payload, np.ascontiguousarray(arr), version=(1, 0), allow_pickle=False
        )
    payload = payload.getvalue()
    total = 8 + _PREFIX.size + len(header_bytes) + len(payload) + 32
    body = _MAGIC + _PREFIX.pack(_VERSION, len(header_bytes), total) + header_bytes + payload
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(digest)


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
    if hashlib.sha256(blob[: total - 32]).digest() != blob[total - 32 :]:
        raise ChecksumError("content does not match its sha256 digest")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelIOError("unreadable header: %s" % exc) from None
    stream = io.BytesIO(blob[start + header_len : total - 32])
    arrays = {}
    try:
        for name in header["arrays"]:
            arrays[name] = np.lib.format.read_array(stream, allow_pickle=False)

        def array(name):
            return _finite_content(name, arrays[name])

        layers = []
        for index, lh in enumerate(header["layers"]):
            prefix = "layer%d/" % index
            kernels = tuple(parse_kernel(s) for s in lh["kernels"])
            model_k = KpcaModel(
                alphas=array(prefix + "alphas"),
                eigenvalues=array(prefix + "eigenvalues"),
                row_means=array(prefix + "row_means"),
                total_mean=_finite_content(prefix + "total_mean", float(lh["total_mean"])),
            )
            layers.append(
                LayerModel(
                    kernels=kernels,
                    weights=KernelWeights(array(prefix + "weights")),
                    kpca=model_k,
                    scores=array(prefix + "scores"),
                    selected=array(prefix + "selected"),
                    fit_sample=array(prefix + "fit_sample"),
                )
            )
        ch = header["classifier"]
        machine = SvmModel(
            classes=array("classifier/classes"),
            support=array("classifier/support"),
            dual_coef=array("classifier/dual_coef"),
            biases=array("classifier/biases"),
            c=_finite_content("classifier/c", float(ch["c"])),
            kernel=parse_kernel(ch["kernel"]),
            support_vectors=array("classifier/support_vectors"),
        )
        return MlmklModel(layers=layers, classifier=machine, metadata=header["metadata"])
    except (KeyError, ValueError, IndexError, ShapeError, ParseError,
            TypeError, OverflowError) as exc:  # TypeError: e.g. a number for a list
        raise ModelIOError("malformed model content: %s" % exc) from None
