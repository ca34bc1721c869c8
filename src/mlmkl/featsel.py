"""Supervised feature ranking by one-way analysis of variance.

Each feature is scored independently: F = MS_between / MS_within over
the class grouping.  Features that are constant within every class but
differ between classes get +inf (perfectly informative under this
criterion); features constant everywhere get 0.  Selection keeps the
``width`` highest-scoring features, ties resolved toward the smaller
feature index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, InvalidWidthError, ShapeError

__all__ = ["FeatureRanking", "anova_f_scores", "check_labels", "select"]


@dataclass(frozen=True)
class FeatureRanking:
    scores: np.ndarray  # (d,) F statistic per feature
    order: np.ndarray  # (d,) feature indices, best first
    selected: np.ndarray  # (width,) the kept prefix of ``order``


def check_labels(labels, n):
    """Labels of ``n`` rows, of at least two classes, and their classes."""
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ShapeError("labels shape %r does not match %d samples" % (y.shape, n))
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateLabelsError("need at least two classes, got %d" % classes.size)
    return y, classes


def anova_f_scores(features, labels):
    """One-way ANOVA F statistic of every feature against the labels."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("features must be 2-d, got shape %r" % (x.shape,))
    y, classes = check_labels(labels, x.shape[0])
    n, d = x.shape
    c = classes.size
    grand = x.mean(axis=0)
    ss_between = np.zeros(d)
    ss_within = np.zeros(d)
    for cls in classes:
        block = x[y == cls]
        mean_c = block.mean(axis=0)
        ss_between += block.shape[0] * (mean_c - grand) ** 2
        ss_within += ((block - mean_c) ** 2).sum(axis=0)
    ms_between = ss_between / (c - 1)
    ms_within = ss_within / (n - c) if n > c else np.zeros(d)
    scores = np.zeros(d)
    ok = ms_within > 0.0
    scores[ok] = ms_between[ok] / ms_within[ok]
    scores[~ok & (ms_between > 0.0)] = np.inf
    return scores


def select(features, labels, width):
    """Keep the ``width`` best features; returns the ranking and the
    reduced matrix with columns in descending-score order."""
    scores = anova_f_scores(features, labels)
    d = scores.size
    if not isinstance(width, (int, np.integer)) or not 1 <= width <= d:
        raise InvalidWidthError("width must be an integer in [1, %d], got %r" % (d, width))
    order = np.argsort(-scores, kind="stable")
    selected = order[:width].copy()
    x = np.asarray(features, dtype=np.float64)
    return FeatureRanking(scores=scores, order=order, selected=selected), x[:, selected]
