"""Dataset container and loaders for the 28x28 digit benchmark formats.

Two on-disk formats are understood: the plain-text amat layout (one row
per sample, 785 whitespace-separated numbers: 784 pixel intensities
followed by the class label) and the big-endian IDX image/label pair.
Pixels are clamped into [0, 1] on load; labels must be integers in 0..9.
Non-finite values (nan, inf, -inf) are rejected, never clamped.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, RowCountError, ShapeError

__all__ = ["Dataset", "load_amat", "write_amat", "load_idx", "split"]

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
    rows = []
    labels = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue  # tolerate blank lines (common as trailing newline)
            if len(parts) != _COLUMNS:
                raise ParseError(
                    "expected %d values per row, got %d" % (_COLUMNS, len(parts)),
                    line=lineno,
                )
            try:
                values = np.array(parts, dtype=np.float64)
            except ValueError:
                raise ParseError("non-numeric value in row", line=lineno) from None
            if not np.all(np.isfinite(values)):
                raise ParseError("non-finite value in row", line=lineno)
            label = values[-1]
            if label != int(label) or not 0 <= label <= 9:
                raise ParseError("label %g is not a digit class" % label, line=lineno)
            rows.append(np.clip(values[:-1], 0.0, 1.0))
            labels.append(int(label))
    if not rows:
        raise ParseError("no samples in %r" % path)
    return Dataset(
        features=np.vstack(rows),
        labels=np.array(labels, dtype=np.int64),
        name=os.path.basename(path),
    )


def write_amat(dataset, path):
    """Write rows back out in the amat layout (load_amat inverts this)."""
    with open(path, "w") as fh:
        for x, y in zip(dataset.features, dataset.labels):
            fh.write(" ".join("%.10g" % v for v in x))
            fh.write(" %d\n" % y)


def _read_exact(fh, count, what, path):
    buf = fh.read(count)
    if len(buf) != count:
        raise ParseError("truncated %s in %r" % (what, path))
    return buf


def load_idx(images_path, labels_path):
    """Load a big-endian IDX image/label file pair."""
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, "header", images_path))
        if magic != 0x00000803:
            raise ParseError("bad image magic 0x%08x in %r" % (magic, images_path))
        raw = _read_exact(fh, n * rows * cols, "pixel data", images_path)
    features = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    with open(labels_path, "rb") as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, "header", labels_path))
        if magic != 0x00000801:
            raise ParseError("bad label magic 0x%08x in %r" % (magic, labels_path))
        if n_labels != n:
            raise ParseError(
                "label count %d does not match %d images" % (n_labels, n)
            )
        labels = np.frombuffer(_read_exact(fh, n, "label data", labels_path), dtype=np.uint8)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise ParseError("label %d of item %d is not a digit class in %r"
                         % (labels[bad[0]], bad[0], labels_path))
    return Dataset(
        features=features,
        labels=labels.astype(np.int64),
        name=os.path.basename(images_path),
    )


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
