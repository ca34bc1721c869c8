#!/usr/bin/env python3

"""
The full stack on synthetic digit-like data
===========================================

Greedy layerwise training: every layer learns its kernel weights
without labels, extracts kernel principal coordinates, and keeps the
most class-informative ones; an SVM sits on the final representation.
Synthetic classes differ in which coordinate groups are active, the
same way digit classes differ in which pixels are on.
"""

import tempfile
import os

import numpy as np

from mlmkl import pipeline
from mlmkl.kernels import parse_kernel
from mlmkl.pipeline import LayerConfig

rng = np.random.default_rng(0)

# --- synthetic data: four classes, 784 coordinates, class-specific
#     active pixel groups plus background noise
n_per_class = 40
groups = [rng.choice(784, size=12, replace=False) for _ in range(4)]


def draw(n_each, seed):
    gen = np.random.default_rng(seed)
    xs, ys = [], []
    for cls, hot in enumerate(groups):
        x = np.abs(gen.normal(0.0, 0.15, size=(n_each, 784)))
        x[:, hot] += 0.7
        xs.append(np.clip(x, 0.0, 1.0))
        ys.append(np.full(n_each, cls))
    order = gen.permutation(n_each * len(groups))
    return np.vstack(xs)[order], np.concatenate(ys)[order]


x_train, y_train = draw(n_per_class, seed=1)
x_test, y_test = draw(20, seed=2)

# --- two layers, each choosing among an angle kernel, a Gaussian and
#     the plain inner product
configs = [
    LayerConfig(
        kernels=(parse_kernel("arccos(n=1,L=2)"),
                 parse_kernel("rbf(gamma=0.1)"),
                 parse_kernel("linear")),
        width=12,
    ),
    LayerConfig(
        kernels=(parse_kernel("arccos(n=1,L=1)"),
                 parse_kernel("rbf(gamma=5)"),
                 parse_kernel("linear")),
        width=6,
        kpca_components=12,  # the 12-wide input bounds the usable rank
    ),
]


model = pipeline.fit(x_train, y_train, configs, subsample=0, seed=0, svm_c=10.0)

for index, layer in enumerate(model.layers):
    parts = "  ".join(
        "%s %.3f" % (k.canonical(), w) for k, w in zip(layer.kernels, layer.weights.mu)
    )
    print("layer %d weights: %s" % (index + 1, parts))
    print("          representation %d x %d" % (len(x_train), layer.width))

pred_train = pipeline.predict(model, x_train)
pred_test = pipeline.predict(model, x_test)
print("\ntrain error: %.2f%%" % (100.0 * np.mean(pred_train != y_train)))
print("test error:  %.2f%%" % (100.0 * np.mean(pred_test != y_test)))

# --- the model file is a deterministic function of data, config, seed
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.bin")
    pipeline.save(model, path)
    size = os.path.getsize(path)
    back = pipeline.load(path)
    same = np.array_equal(pipeline.predict(back, x_test), pred_test)
print("\nmodel file: %d bytes, reload predicts identically: %s" % (size, same))
