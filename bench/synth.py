"""Synthetic digit-shaped data for the benchmark.

Rows are 784 pixels in [0, 1] with labels 0..9, like the amat digit files.
Each class owns a group of 120 pixels on a ring of 700; neighbouring groups
share 50 pixels, and every row also lights part of a neighbouring class's
group, so the classes overlap and a clean held-out error below one percent
remains at a thousand training rows.  On top of that a fixed 5% of the rows
carry a wrong label, which sets the floor of every held-out error.

Pixels are multiples of 1/256, so the amat text format round-trips them
exactly and a file written at set-up reads back as the same matrix.

The seed draws the pixel groups and every pixel value.  The class sequence
and which rows carry a wrong label depend only on the stream and the row
count, not on the seed: every split the program draws with a fixed seed then
holds the same number of wrong labels, and held-out error moves little from
seed to seed.
"""
from __future__ import annotations

import numpy as np

PIXELS = 784
CLASSES = 10
RING = 700
GROUP = 120
STRIDE = 70
P_ON = 0.45  # share of a class's own group lit in one row
LEAK = 0.5  # share of P_ON lit in the group of one neighbouring class
BACKGROUND = 0.03  # share of all pixels lit faintly
LABEL_NOISE = 0.05

# streams: independent row sets that share one seed's pixel groups
TRAIN, TEST, CV = 1, 2, 3

_LAYOUT = 7919  # fixed entropy for the class sequence and the wrong labels


def pixel_groups(seed):
    """(CLASSES, GROUP) pixel indices of each class's group for one seed."""
    perm = np.random.default_rng([seed, 0]).permutation(PIXELS)
    ring = (STRIDE * np.arange(CLASSES)[:, None] + np.arange(GROUP)[None, :]) % RING
    return perm[ring]


def _light(x, rng, cols, share):
    lit = rng.random(cols.shape) < share
    rows = np.broadcast_to(np.arange(x.shape[0])[:, None], cols.shape)
    x[rows[lit], cols[lit]] = rng.uniform(0.4, 1.0, int(lit.sum()))


def make(seed, n, stream):
    """``n`` rows of one stream: (features (n, 784) float64, labels (n,) int64)."""
    layout = np.random.default_rng([_LAYOUT, stream, n])
    clean = layout.permutation(np.arange(n) % CLASSES)
    wrong = layout.choice(n, size=int(round(LABEL_NOISE * n)), replace=False)
    labels = clean.copy()
    labels[wrong] = (clean[wrong] + layout.integers(1, CLASSES, wrong.size)) % CLASSES

    rng = np.random.default_rng([seed, stream, n])
    groups = pixel_groups(seed)
    faint = rng.random((n, PIXELS)) < BACKGROUND
    x = np.zeros((n, PIXELS))
    x[faint] = rng.uniform(0.0, 0.6, int(faint.sum()))
    own = np.zeros((n, PIXELS))
    _light(own, rng, groups[clean], P_ON)
    side = rng.choice(np.array([-1, 1]), size=n)
    neighbour = np.zeros((n, PIXELS))
    _light(neighbour, rng, groups[(clean + side) % CLASSES], P_ON * LEAK)
    np.maximum(x, own, out=x)
    np.maximum(x, neighbour, out=x)
    x = np.minimum(np.floor(x * 256.0), 255.0) / 256.0
    return x, labels.astype(np.int64)
