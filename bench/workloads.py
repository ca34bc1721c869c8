"""The benchmark's workloads and the operations each one runs.

Every workload is a closed loop: one process issues one operation at a time,
a train, an eval or a cv.  Each is the work of one `mlmkl` subcommand,
reached through the public API:

  train  pipeline.fit + pipeline.save        (the work of `mlmkl train`)
  eval   pipeline.load + pipeline.predict    (the work of `mlmkl eval`)
  cv     mlmkl.cli.main(["cv", ..., "--jobs", "1"]) on an amat file

The workloads differ in size and config, so that each puts a different layer
on top; BENCHMARK.json says why each was chosen.  The program's own seed is
fixed at 0; the benchmark seed only makes the inputs.

Every workload runs all three operations so that it reports every end-to-end
metric.

Every operation checks its output: kernel weights lie on the simplex,
predictions are class ids of the model, the cv report selects one candidate
per layer, every train writes the same bytes and every eval and cv gives the
same error, and the held-out errors stay under a ceiling.  For the seeds in
``reference.json`` the errors, the kernel weights, the support vector count
and the cv ``best_config`` must also match the recorded values.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import synth

# README two-layer config: layer 1 sees 784 pixels and is Gram-bound, layer 2
# sees 60 features and is eigensolver-bound.
README_LAYERS = (
    {"kernels": ["arccos(n=1,L=2)", "rbf(gamma=0.005)", "rbf(gamma=0.02)"], "width": 60},
    {"kernels": ["arccos(n=1,L=2)", "rbf(gamma=1)", "rbf(gamma=10)"], "width": 60},
)
CHEAP_LAYER = ({"kernels": ["arccos(n=1,L=2)", "rbf(gamma=0.005)"], "width": 30},)


@dataclass(frozen=True)
class Workload:
    name: str
    train_rows: int
    test_rows: int
    train_config: dict  # config-file form: layers, subsample, classifier
    cv_rows: int
    cv_config: dict  # config-file form with split and cv sections
    # For any seed a held-out error above this is a wrong answer, not noise:
    # the data put it near 5.5%, 5% wrong labels plus the class overlap.
    error_ceiling_pct: float = 15.0


WORKLOADS = {
    w.name: w
    for w in (
        # Layer stages at 3000 rows do most of the train, the SVM little.  Its
        # cv is a grid: 2 gammas x 2 widths x 2 repeats x 2 C on 1600 amat
        # rows, 20 small fit_layer calls where 4 Gram sets and 8
        # eigendecompositions would do, plus amat parsing and probe SVMs.
        Workload(
            name="stack3k",
            train_rows=3000,
            # eval of 1000 rows lasts about 0.6 s and does not hold steady
            test_rows=4000,
            train_config={"layers": list(README_LAYERS), "subsample": 3000},
            cv_rows=1600,
            cv_config={
                "layers": list(README_LAYERS),
                "subsample": 1200,
                "split": {"train": 1200, "valid": 400},
                "cv": {"gamma": [0.05, 0.1], "width": [30, 60], "svm_c": [1.0, 10.0],
                       "repeats": 2},
            },
        ),
        # The 6000x6000 classifier Gram and SMO dominate time and peak memory;
        # its cv validates the same cheap layer once, 1200 rows against 1800.
        Workload(
            name="classifier6k",
            train_rows=6000,
            test_rows=6000,
            train_config={
                "layers": list(CHEAP_LAYER),
                "subsample": 1000,
                "classifier": {"C": 10.0},
            },
            cv_rows=3000,
            cv_config={
                "layers": list(CHEAP_LAYER),
                "subsample": 1000,
                "split": {"train": 1200, "valid": 1800},
                "classifier": {"C": 10.0},
                "cv": {"gamma": [0.1], "width": [30], "svm_c": [10.0], "repeats": 1},
            },
        ),
    )
}


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def plain_call(name, fn, *args):
    """The untraced stand-in for ``Tracer.span``."""
    return fn(*args)


class Session:
    """The inputs of one workload and the operations on them.

    ``span(name, fn, *args)`` runs each operation's timed work; the traced run
    passes ``Tracer.span`` so that every operation is a root span.
    """

    def __init__(self, mlmkl, workload, seed, workdir, reference=None):
        self.mlmkl = mlmkl
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.model_path = os.path.join(workdir, "model.mlmkl")
        self.cv_data_path = os.path.join(workdir, "cv.amat")
        self.cv_config_path = os.path.join(workdir, "cv.json")
        self.model_sha = None
        self.test_error = None
        self.cv_error = None
        self.cv_best_config = None
        self.model_summary = None

    def set_up(self):
        """Make every input from the seed and write the cv files; returns seconds."""
        w = self.workload
        start = time.perf_counter()
        self.x_train, self.y_train = synth.make(self.seed, w.train_rows, synth.TRAIN)
        self.x_test, self.y_test = synth.make(self.seed, w.test_rows, synth.TEST)
        x_cv, y_cv = synth.make(self.seed, w.cv_rows, synth.CV)
        data = self.mlmkl.data
        data.write_amat(data.Dataset(x_cv, y_cv), self.cv_data_path)
        with open(self.cv_config_path, "w") as fh:
            json.dump(w.cv_config, fh)
        self.train_config = self.mlmkl.config.parse_config(w.train_config)
        return time.perf_counter() - start

    # -- operations ----------------------------------------------------------

    def _fit_and_save(self):
        cfg = self.train_config
        pipeline = self.mlmkl.pipeline
        model = pipeline.fit(
            self.x_train,
            self.y_train,
            cfg.layers,
            subsample=cfg.subsample,
            seed=0,
            classifier=cfg.classifier.kernel,
            svm_c=cfg.classifier.c,
            svm_tol=cfg.classifier.tol,
        )
        pipeline.save(model, self.model_path)
        return model

    def train(self, span=plain_call):
        start = time.perf_counter()
        model = span("bench.train", self._fit_and_save)
        seconds = time.perf_counter() - start
        for index, layer in enumerate(model.layers):
            mu = np.asarray(layer.weights.mu)
            if not (np.all(mu >= 0.0) and abs(float(mu.sum()) - 1.0) <= 1e-9):
                raise CheckFailed("layer %d weights %r are not on the simplex" % (index, mu))
        self.model_summary = {
            "mu": [[float(w) for w in layer.weights.mu] for layer in model.layers],
            "support_vectors": int(model.classifier.n_support),
        }
        if self.reference is not None:
            self._check_model(self.model_summary)
        with open(self.model_path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        if self.model_sha is not None and sha != self.model_sha:
            raise CheckFailed("model file differs from the previous train's")
        self.model_sha = sha
        return {"train_s": seconds}

    def _load_and_predict(self):
        model = self.mlmkl.pipeline.load(self.model_path)
        return model, self.mlmkl.pipeline.predict(model, self.x_test)

    def evaluate(self, span=plain_call):
        start = time.perf_counter()
        model, predicted = span("bench.eval", self._load_and_predict)
        seconds = time.perf_counter() - start
        predicted = np.asarray(predicted)
        if predicted.shape != self.y_test.shape:
            raise CheckFailed("predicted shape %r for %d rows" % (predicted.shape, self.y_test.size))
        if not np.all(np.isin(predicted, model.classifier.classes)):
            raise CheckFailed("predictions include ids that are not classes of the model")
        error = 100.0 * float(np.mean(predicted != self.y_test))
        self.test_error = _repeatable("test error", self.test_error, error)
        self._check_error("test_error_pct", error)
        return {
            "eval_rows_per_s": self.y_test.size / seconds,
            "test_error_pct": error,
        }

    def _cv_main(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.mlmkl.cli.main(
                ["cv", "--config", self.cv_config_path, "--train", self.cv_data_path,
                 "--format", "json", "--jobs", "1", "--seed", "0"]
            )
        return code, out.getvalue()

    def cross_validate(self, span=plain_call):
        start = time.perf_counter()
        code, text = span("cli.cv", self._cv_main)
        seconds = time.perf_counter() - start
        if code != 0:
            raise CheckFailed("mlmkl cv exited with code %r" % (code,))
        report = json.loads(text)
        for index, candidates in enumerate(report["layers"]):
            if sum(bool(c["selected"]) for c in candidates) != 1:
                raise CheckFailed("cv layer %d does not select exactly one candidate" % index)
            if any(c["mean_error_percent"] is None for c in candidates):
                raise CheckFailed("cv layer %d has a failed candidate" % index)
        if sum(bool(c["selected"]) for c in report["svm_c"]) != 1:
            raise CheckFailed("cv does not select exactly one C")
        error = float(report["best_mean_error_percent"])
        self.cv_error = _repeatable("cv error", self.cv_error, error)
        self._check_error("cv_best_error_pct", error)
        self.cv_best_config = report["best_config"]
        if self.reference is not None and report["best_config"] != self.reference["cv_best_config"]:
            raise CheckFailed(
                "cv best_config %s differs from the reference %s"
                % (json.dumps(report["best_config"], sort_keys=True),
                   json.dumps(self.reference["cv_best_config"], sort_keys=True))
            )
        return {"cv_s": seconds, "cv_best_error_pct": error}

    def _check_model(self, summary):
        """Kernel weights to round-off, support vector count to 3%.

        On these data a different solver answer can leave the held-out
        error unchanged; it moves the weights or the support set."""
        expected = self.reference["model"]
        for index, (got, want) in enumerate(zip(summary["mu"], expected["mu"])):
            if len(got) != len(want) or np.max(np.abs(np.subtract(got, want))) > 1e-6:
                raise CheckFailed("layer %d weights %r, reference %r" % (index, got, want))
        sv, want = summary["support_vectors"], expected["support_vectors"]
        if abs(sv - want) > 0.03 * want:
            raise CheckFailed("%d support vectors, reference %d" % (sv, want))

    def _check_error(self, name, value):
        ceiling = self.workload.error_ceiling_pct
        if not value <= ceiling:
            raise CheckFailed("%s %.4f above the ceiling %.1f" % (name, value, ceiling))
        if self.reference is not None:
            expected = self.reference[name]
            if abs(value - expected) > self.reference["tolerance_pct"]:
                raise CheckFailed("%s %.4f, reference %.4f" % (name, value, expected))


def _repeatable(what, previous, value):
    if previous is not None and value != previous:
        raise CheckFailed("%s %r differs from the previous run's %r" % (what, value, previous))
    return value
