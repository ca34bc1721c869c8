"""Greedy per-layer grid search, the work behind ``mlmkl cv``.

Each layer keeps the (kernel set, gamma, width) candidate whose probe SVM
has the lowest mean validation error over repeated splits; the next layer
searches on the winner's features, and the SVM C is chosen last, reusing
the winner's probe errors at the classifier's own C.  The search fits no
layer itself: each (repeat, kernel set) is one ``pipeline.fit_layer_grid``
call, the layer path that ``fit_layer`` runs for one candidate, which
shares the stages between the candidates (one weight problem, one QP per
gamma, and one combined Gram, kernel PCA and pair of crosses per distinct
weight vector).  The search adds the probe SVM, trained once per freshly
fitted candidate.
"""
from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import data, pipeline
from .config import config_to_dict
from .errors import ConfigError
from .pipeline import LayerConfig

__all__ = ["CvResult", "grid_search", "error_percent", "probe_error"]


def error_percent(predicted, actual):
    return 100.0 * float(np.mean(np.asarray(predicted) != np.asarray(actual)))


def probe_error(train_feats, y_train, test_feats, y_test, classifier, cap):
    """Validation error of an SVM trained on (at most ``cap``) feature rows."""
    m = min(cap, train_feats.shape[0])
    machine = pipeline.train_classifier(
        train_feats[:m], y_train[:m], classifier.kernel, c=classifier.c, tol=classifier.tol,
    )
    return error_percent(pipeline.classifier_predict(machine, test_feats), y_test)


class CvResult(NamedTuple):
    report: dict  # what ``mlmkl cv --format json`` prints
    notes: dict  # (layer, candidate) index pair -> why that candidate failed


def _probe_kernel_set(split, fit_idx, grid, classifier, cap):
    """(error, note, train features, valid features) of each candidate of
    one kernel set on one repeat, fitted by ``pipeline.fit_layer_grid``;
    ``grid`` has a row per gamma and a column per width.  A candidate that
    fails (e.g. a width beyond the usable spectrum) gets an infinite error
    and the note that ``fit_layer`` would raise for it alone.  The probe SVM
    runs once per freshly fitted candidate: rows whose weights are equal
    share their cells.
    """
    y_train, y_valid = split["y_train"], split["y_valid"]
    cells = pipeline.fit_layer_grid(
        split["train"], y_train, grid, fit_idx, valid=split["valid"],
        score=lambda train, valid: probe_error(train, y_train, valid, y_valid, classifier, cap),
    )
    return [(np.inf, str(c), None, None) if isinstance(c, Exception)
            else (c.score, None, c.train, c.valid) for c in cells]


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(calls, jobs):
    """Results of picklable no-argument calls, on up to ``jobs`` processes
    and no more than the usable cores.

    A spawned worker loads its BLAS while it starts, before any initializer
    could run, and a BLAS starts a thread per usable core, so the workers
    are spawned with each BLAS thread variable that the caller has not set
    at (usable cores // workers); the caller's environment is restored.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    workers = min(jobs, len(calls), cores)
    if workers < 2:
        return [call() for call in calls]
    unset = [var for var in _BLAS_THREADS if var not in os.environ]
    try:
        for var in unset:
            os.environ[var] = str(max(1, cores // workers))
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            return [f.result() for f in [pool.submit(call) for call in calls]]
    finally:
        for var in unset:
            os.environ.pop(var, None)


def grid_search(dataset, config, seed=0, jobs=1):
    """Greedy per-layer search of ``config.cv`` on ``dataset``.

    Repeat r splits ``dataset`` by ``config.split`` with seed ``seed + r``;
    up to ``jobs`` spawned processes, no more than the usable cores, share
    each layer's (repeat, kernel set) pairs and split the cores between
    their BLAS pools, so with ``jobs > 1`` a calling script needs a
    ``__main__`` guard.  The SVM C is chosen last; at the classifier's own
    C each repeat's error is that of the last layer's winning probe, which
    trained the same SVM on the same rows.
    """
    cv = config.cv
    if cv is None:
        raise ConfigError("config has no 'cv' section")
    if config.split is None or config.split[1] < 1:
        raise ConfigError("cv needs a split with a nonempty validation set")
    splits, rngs = [], []
    for r in range(cv.repeats):
        train, valid = data.split(dataset, config.split[0], config.split[1], seed=seed + r)
        splits.append({"train": train.features, "y_train": train.labels,
                       "valid": valid.features, "y_valid": valid.labels})
        rngs.append(np.random.default_rng(seed + r))
    report = {"layers": [], "seed": seed, "repeats": cv.repeats}
    notes = {}
    chosen = []
    for li, base in enumerate(config.layers):
        grids = [
            [[LayerConfig(kernels=ks, width=w, gamma=g, basis_size=base.basis_size)
              for w in cv.widths or (base.width,)] for g in cv.gammas or (base.gamma,)]
            for ks in cv.kernel_sets or (base.kernels,)
        ]
        candidates = [cand for grid in grids for row in grid for cand in row]
        calls = []
        for split, rng in zip(splits, rngs):
            fit_idx = pipeline.draw_fit_rows(rng, split["train"].shape[0], config.subsample)
            calls += [partial(_probe_kernel_set, split, fit_idx, grid, config.classifier,
                              config.probe_cap) for grid in grids]
        done = _run(calls, jobs)
        # cells[r][ci]: candidate ci on repeat r
        cells = [sum(done[r * len(grids):(r + 1) * len(grids)], []) for r in range(cv.repeats)]
        errors = np.array([[cell[0] for cell in row] for row in cells]).T
        for row in cells:  # the last repeat's note wins
            notes.update(((li, ci), cell[1]) for ci, cell in enumerate(row)
                         if cell[1] is not None)
        feasible = np.all(np.isfinite(errors), axis=1)
        if not np.any(feasible):
            raise ConfigError("every layer %d candidate failed, e.g.: %s"
                              % (li + 1, notes.get((li, 0), "unknown")))
        means = np.full(len(candidates), np.inf)
        stds = np.full(len(candidates), np.inf)
        means[feasible] = errors[feasible].mean(axis=1)
        stds[feasible] = errors[feasible].std(axis=1)
        best = int(np.argmin(means))  # ties go to the earliest grid entry
        report["layers"].append([
            {"kernels": [k.canonical() for k in cand.kernels], "gamma": float(cand.gamma),
             "width": int(cand.width), "selected": ci == best,
             "mean_error_percent": float(means[ci]) if feasible[ci] else None,
             "std_error_percent": float(stds[ci]) if feasible[ci] else None}
            for ci, cand in enumerate(candidates)
        ])
        chosen.append(candidates[best])
        for split, row in zip(splits, cells):
            split["train"], split["valid"] = row[best][2], row[best][3]

    c_rows = []
    for c in cv.svm_c:
        if c == config.classifier.c:  # the last layer's winning probes trained this SVM
            per_rep = errors[best]
        else:
            per_rep = [probe_error(s["train"], s["y_train"], s["valid"], s["y_valid"],
                                   replace(config.classifier, c=c), config.probe_cap)
                       for s in splits]
        c_rows.append({"C": float(c), "mean_error_percent": float(np.mean(per_rep)),
                       "std_error_percent": float(np.std(per_rep)), "selected": False})
    best_c = int(np.argmin([row["mean_error_percent"] for row in c_rows]))
    c_rows[best_c]["selected"] = True
    best_config = replace(config, layers=tuple(chosen), cv=None,
                          classifier=replace(config.classifier, c=cv.svm_c[best_c]))
    report.update(svm_c=c_rows, best_config=config_to_dict(best_config),
                  best_mean_error_percent=c_rows[best_c]["mean_error_percent"],
                  best_std_error_percent=c_rows[best_c]["std_error_percent"])
    return CvResult(report, notes)
