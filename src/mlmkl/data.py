"""Dataset container and loader for the 28x28 digit benchmark format.

The on-disk format is the plain-text amat layout: one row per sample,
785 whitespace-separated numbers, 784 pixel intensities followed by the
class label.  Blank lines are skipped.  Pixels are clamped into [0, 1] on
load; labels must be integers in 0..9.  Non-finite values (nan, inf, -inf)
are rejected, never clamped.

``load_amat`` parses a file in one pass of numpy's C text reader and checks
the result as whole arrays: 785 columns, every value finite, every label a
digit.  It reads each number to the same bits as Python's ``float()``, but
accepts only ASCII decimal tokens: ``1_0`` and non-ASCII digits, which
``float()`` reads, are rejected.  A rejected file, and only such a file, is
read a second time, one line at a time, to name its first bad line in the
``ParseError``.  ``write_amat`` writes each pixel to 17 significant digits,
which ``load_amat`` reads back bit for bit.
"""
from __future__ import annotations

import codecs
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, RowCountError, ShapeError

__all__ = ["Dataset", "load_amat", "write_amat", "split"]

_PIXELS = 784
_COLUMNS = _PIXELS + 1


@dataclass(frozen=True)
class Dataset:
    """Image rows in [0, 1] with integer digit labels."""

    features: np.ndarray  # (n, 784) float64
    labels: np.ndarray  # (n,) int64
    name: str = ""

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        if x.ndim != 2 or x.shape[1] != _PIXELS:
            raise ShapeError("features must be (n, %d), got shape %r" % (_PIXELS, x.shape))
        if x.shape[0] < 1:
            raise ShapeError("dataset must contain at least one sample")
        if y.shape != (x.shape[0],):
            raise ShapeError("labels shape %r does not match %d rows" % (y.shape, x.shape[0]))
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError("labels must be integers")
        if y.min() < 0 or y.max() > 9:
            raise ValueError("labels must lie in 0..9")
        if not np.all(np.isfinite(x)):
            raise ValueError("pixel values must be finite")
        if x.min() < 0.0 or x.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y.astype(np.int64, copy=False))

    @property
    def n(self):
        return self.features.shape[0]


def load_amat(path):
    """Parse an amat file, preserving row order."""
    with open(path, "r") as fh:
        try:
            with warnings.catch_warnings():
                # an empty file is reported below as "no samples"
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                values = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:  # UnicodeDecodeError included
            values = None
    if values is not None and values.shape[1] == _COLUMNS and np.all(np.isfinite(values)):
        labels = values[:, -1]
        if np.all((labels >= 0) & (labels <= 9) & (labels == np.trunc(labels))):
            return Dataset(
                features=np.clip(values[:, :-1], 0.0, 1.0),
                labels=labels.astype(np.int64),
                name=os.path.basename(path),
            )
    raise _first_fault(path)


def _first_fault(path):
    """The ParseError for a file that ``load_amat`` rejected: the first line
    that fails a check, read one line at a time, or "no samples"."""
    rows = 0
    with open(path, "r", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode(fh.encoding)
            except UnicodeEncodeError:
                encoding = codecs.lookup(fh.encoding).name
                return ParseError("row is not %s text" % encoding, line=lineno)
            parts = line.split()
            if not parts:
                continue  # tolerate blank lines (common as trailing newline)
            if len(parts) != _COLUMNS:
                return ParseError(
                    "expected %d values per row, got %d" % (_COLUMNS, len(parts)),
                    line=lineno,
                )
            try:
                # the whole-file parser on this line alone, so that it rejects
                # the tokens it rejected there
                values = np.loadtxt([line], dtype=np.float64, comments=None)
            except ValueError:
                return ParseError("non-numeric value in row", line=lineno)
            if not np.all(np.isfinite(values)):
                return ParseError("non-finite value in row", line=lineno)
            label = values[-1]
            if label != int(label) or not 0 <= label <= 9:
                return ParseError("label %g is not a digit class" % label, line=lineno)
            rows += 1
    if rows == 0:
        return ParseError("no samples in %r" % path)
    return ParseError("%r was rejected as a whole but passes line by line" % path)


def write_amat(dataset, path):
    """Write rows back out in the amat layout, each pixel as ``%.17g``:
    enough digits for every float64, so ``load_amat`` reads back the same
    bits."""
    row = " ".join(["%.17g"] * _PIXELS) + " %d\n"
    with open(path, "w") as fh:
        for x, y in zip(dataset.features, dataset.labels.tolist()):
            fh.write(row % (*x.tolist(), y))


def split(dataset, n_train, n_valid, seed=0):
    """Disjoint random train/validation subsets drawn without replacement."""
    if n_train < 1 or n_valid < 0:
        raise RowCountError("need n_train >= 1 and n_valid >= 0")
    if n_train + n_valid > dataset.n:
        raise RowCountError(
            "cannot draw %d + %d rows from %d" % (n_train, n_valid, dataset.n)
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    tr = perm[:n_train]
    va = perm[n_train : n_train + n_valid]
    train = Dataset(dataset.features[tr], dataset.labels[tr], name=dataset.name + "[train]")
    if n_valid == 0:
        return train, None
    valid = Dataset(dataset.features[va], dataset.labels[va], name=dataset.name + "[valid]")
    return train, valid
