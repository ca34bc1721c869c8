"""Greedy per-layer grid search, the work behind ``mlmkl cv``.

Each layer keeps the (kernel set, gamma, width) candidate whose probe SVM
has the lowest mean validation error over repeated splits (the candidates
are ``config.candidate_grids`` of the configured layer); the next layer
searches on the winner's features, and the SVM C is chosen last, reusing
the winner's probe errors at the classifier's own C.  The search fits no
layer itself: each (repeat, kernel set) is one ``pipeline.fit_layer_grid``
call, the layer path that ``fit_layer`` runs for one candidate, which
shares the stages between the candidates (one weight problem, one QP per
gamma, and one combined Gram, kernel PCA and pair of crosses per distinct
weight vector).  The search adds the probe SVM as the grid's ``score``,
trained once per freshly fitted candidate, so a candidate on a repeat is
its ``LayerFit``, whose ``score`` is its probe error and whose ``train``
and ``valid`` rows feed the next layer, or the exception that stopped it,
whose text is the candidate's note.  A repeat is its labels, its
generator of fit rows and its current features.  The search runs in the
calling process, one (repeat, kernel set) after another; BLAS spreads the
large stages over the cores.
"""
from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import data, pipeline
from .config import candidate_grids, config_to_dict
from .errors import ConfigError

__all__ = ["CvResult", "grid_search"]


class CvResult(NamedTuple):
    report: dict  # what ``mlmkl cv --format json`` prints
    notes: dict  # (layer, candidate) index pair -> why that candidate failed


def grid_search(dataset, config, seed=0):
    """Greedy per-layer search of ``config.cv`` on ``dataset``.

    Each candidate is its configured layer with the kernels, gamma and
    width that ``cv`` lists in place of the layer's own; every other field
    is the layer's.

    Repeat r splits ``dataset`` by ``config.split`` with seed ``seed + r``.
    The SVM C is chosen last; at the classifier's own C each repeat's error
    is that of the last layer's winning probe, which trained the same SVM
    on the same rows.
    """
    cv = config.cv
    if cv is None:
        raise ConfigError("config has no 'cv' section")
    if config.split is None or config.split[1] < 1:
        raise ConfigError("cv needs a split with a nonempty validation set")
    labels, rngs, feats = [], [], []  # per repeat: (train, valid) labels, generator, features
    for r in range(cv.repeats):
        train, valid = data.split(dataset, config.split[0], config.split[1], seed=seed + r)
        labels.append((train.labels, valid.labels))
        rngs.append(np.random.default_rng(seed + r))
        feats.append((train.features, valid.features))
    report = {"layers": [], "seed": seed, "repeats": cv.repeats}
    notes = {}
    chosen = []
    for li, base in enumerate(config.layers):
        grids = candidate_grids(base, cv)
        candidates = [cand for grid in grids for row in grid for cand in row]
        cells = []  # cells[r][ci]: candidate ci on repeat r, its LayerFit or what stopped it
        for (y_train, y_valid), rng, (train, valid) in zip(labels, rngs, feats):
            fit_idx = pipeline.draw_fit_rows(rng, train.shape[0], config.subsample)

            def probe(train_feats, valid_feats):
                return pipeline.probe_error(train_feats, y_train, valid_feats, y_valid,
                                            config.classifier, config.probe_cap)

            cells.append([cell for grid in grids for cell in pipeline.fit_layer_grid(
                train, y_train, grid, fit_idx, valid=valid, score=probe)])
        errors = np.array([[np.inf if isinstance(cell, Exception) else cell.score
                            for cell in row] for row in cells]).T
        for row in cells:  # the last repeat's note wins
            notes.update(((li, ci), str(cell)) for ci, cell in enumerate(row)
                         if isinstance(cell, Exception))
        feasible = np.all(np.isfinite(errors), axis=1)
        if not np.any(feasible):
            raise ConfigError("every layer %d candidate failed, e.g.: %s"
                              % (li + 1, notes[li, 0]))
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
        feats = [(row[best].train, row[best].valid) for row in cells]

    c_rows = []
    for c in cv.svm_c:
        if c == config.classifier.c:  # the last layer's winning probes trained this SVM
            per_rep = errors[best]
        else:
            per_rep = [pipeline.probe_error(train, y_train, valid, y_valid,
                                            replace(config.classifier, c=c), config.probe_cap)
                       for (y_train, y_valid), (train, valid) in zip(labels, feats)]
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
