"""The benchmark's trace harness patches the program's functions by name
(``bench/spans.py``); a renamed target must fail here, not only in a
traced benchmark run."""
import sys
from pathlib import Path

import mlmkl
from conftest import digits_like, direction_blobs
from mlmkl import data, pipeline, search
from mlmkl.config import parse_config
from mlmkl.kernels import parse_kernel
from mlmkl.pipeline import LayerConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402


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
