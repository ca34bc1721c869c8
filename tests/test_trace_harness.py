"""The benchmark's trace harness patches the program's functions by name
(``bench/spans.py``); a renamed target must fail here, not only in a
traced benchmark run."""
import sys
from pathlib import Path

import pytest

import mlmkl
from conftest import digits_like, direction_blobs
from mlmkl import data, pipeline, search
from mlmkl.config import parse_config
from mlmkl.kernels import parse_kernel
from mlmkl.pipeline import LayerConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402

# the span "kernels.gram_classifier" wraps the dense classifier Gram, which a
# run with the cut-over at 0 never builds: its classifiers read kernel rows
needs_dense_classifier = pytest.mark.skipif(
    pipeline._DENSE_GRAM_BYTES == 0, reason="every classifier reads kernel rows"
)


@needs_dense_classifier
def test_tracer_records_the_layer_stages_of_a_fit_and_predict():
    x, y = direction_blobs(20, 12, [(0, 3), (6, 9)], seed=0)
    kernels = (parse_kernel("arccos(n=1,L=1)"), parse_kernel("rbf(gamma=0.5)"))
    configs = [LayerConfig(kernels=kernels, width=4, basis_size=4),
               LayerConfig(kernels=kernels, width=3, kpca_components=4, basis_size=4)]
    tracer = spans.Tracer()
    tracer.install(mlmkl)
    try:
        model = pipeline.fit(x, y, configs, subsample=30)
        predicted = pipeline.predict(model, x[:5])
    finally:
        tracer.uninstall()
    assert predicted.shape == (5,)
    recorded = {s.name for s in tracer.spans}
    for name in ("umkl.problem", "umkl.assemble", "umkl.combine", "kernels.gram_base",
                 "kernels.gram_classifier", "kernels.cross_gram", "pipeline.fit_layer"):
        assert name in recorded, name
    # uninstall put every original back
    assert not hasattr(pipeline.fit_layer, "__wrapped__")
    assert not hasattr(mlmkl.kernels.gram, "__wrapped__")


def test_tracer_records_the_layer_stages_of_a_grid_search():
    x, y = digits_like(20, seed=1)
    experiment = parse_config({
        "layers": [{"kernels": ["arccos(n=1,L=1)", "rbf(gamma=0.5)"], "width": 3,
                    "basis_size": 4}],
        "subsample": 20,
        "split": {"train": 30, "valid": 10},
        "cv": {"gamma": [0.1], "width": [3], "svm_c": [1.0], "repeats": 1},
    })
    tracer = spans.Tracer()
    tracer.install(mlmkl)
    try:
        search.grid_search(data.Dataset(x, y), experiment, seed=0)
    finally:
        tracer.uninstall()
    recorded = {s.name for s in tracer.spans}
    for name in ("umkl.problem", "umkl.assemble", "umkl.qp", "umkl.combine", "kpca.fit"):
        assert name in recorded, name


def traced(call):
    """The spans that ``call()`` records under the installed tracer."""
    tracer = spans.Tracer()
    tracer.install(mlmkl)
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer


def test_every_fit_layer_span_holds_the_layer_stages():
    # the bench's per-layer breakdown reads the stages below each fit_layer
    x, y = direction_blobs(20, 12, [(0, 3), (6, 9)], seed=0)
    kernels = (parse_kernel("arccos(n=1,L=1)"), parse_kernel("rbf(gamma=0.5)"))
    configs = [LayerConfig(kernels=kernels, width=4, basis_size=4),
               LayerConfig(kernels=kernels, width=3, kpca_components=4, basis_size=4)]
    tracer = traced(lambda: pipeline.fit(x, y, configs, subsample=30))
    layers = [i for i, s in enumerate(tracer.spans) if s.name == "pipeline.fit_layer"]
    assert len(layers) == 2
    for root in layers:
        stages = tracer.stages(root)
        for name in ("umkl.problem", "umkl.assemble", "umkl.qp", "umkl.combine", "kpca.fit",
                     "kpca.transform", "featsel.select"):
            assert name in stages, (root, name)


def test_a_grid_search_runs_the_layer_stages_but_not_fit_layer():
    # so the bench's pipeline.fit_layer_calls counts the layers of a train only
    x, y = digits_like(20, seed=1)
    experiment = parse_config({
        "layers": [{"kernels": ["arccos(n=1,L=1)", "rbf(gamma=0.5)"], "width": 3,
                    "basis_size": 4}],
        "subsample": 20,
        "split": {"train": 30, "valid": 10},
        "cv": {"gamma": [0.1, 0.2], "width": [3], "svm_c": [1.0], "repeats": 1},
    })
    tracer = traced(lambda: search.grid_search(data.Dataset(x, y), experiment, seed=0))
    recorded = {s.name for s in tracer.spans}
    assert "featsel.select" in recorded
    assert "pipeline.fit_layer" not in recorded
