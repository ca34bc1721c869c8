"""``search.grid_search`` runs the layer stages once per distinct weight
vector: gamma enters only the weight QP, so gammas that learn equal
weights share the combined Gram, kernel PCA, crosses and probe SVMs."""
import os
from functools import partial

import numpy as np
import pytest

from conftest import direction_blobs
from mlmkl import data, kpca, pipeline, search, umkl
from mlmkl.config import parse_config
from mlmkl.umkl import KernelWeights

# on the corpus below both gammas put all weight on the rbf kernel
KERNELS = ["arccos(n=1,L=1)", "rbf(gamma=0.01)"]
GAMMAS = [0.05, 0.5]


def corpus():
    rng = np.random.default_rng(7)
    pool = rng.choice(784, size=40, replace=False)
    groups = [rng.choice(pool, size=16, replace=False) for _ in range(3)]
    x, y = direction_blobs(20, 784, groups, noise=0.3, lift=0.3, seed=7)
    return data.Dataset(x, y)


def experiment(gammas, repeats=2, svm_c=(10,)):
    return parse_config({
        "layers": [{"kernels": KERNELS, "width": 3, "basis_size": 5}],
        "subsample": 30,
        "split": {"train": 40, "valid": 20},
        "classifier": {"kernel": "arccos(n=1,L=1)", "C": 10},
        "cv": {"kernels": [KERNELS], "gamma": gammas, "width": [3, 5],
               "svm_c": list(svm_c), "repeats": repeats},
    })


@pytest.fixture
def kpca_fits(monkeypatch):
    """The component counts that ``kpca.fit`` is called with."""
    fits = []
    fit = kpca.fit
    monkeypatch.setattr(kpca, "fit", lambda k, n: fits.append(n) or fit(k, n))
    return fits


def test_gammas_with_equal_weights_share_one_layer_fit(monkeypatch, built_grams, kpca_fits):
    solved = []
    minimize_qp = umkl.minimize_qp
    monkeypatch.setattr(umkl, "minimize_qp",
                        lambda qp: solved.append(minimize_qp(qp)) or solved[-1])
    result = search.grid_search(corpus(), experiment(GAMMAS), seed=0)
    # one QP per (repeat, gamma), all at the same vertex
    assert len(solved) == 4
    assert all(np.array_equal(mu, [0.0, 1.0]) for mu, _ in solved)
    # per repeat: one combined Gram of the weighted kernel and one kPCA
    assert [spec.canonical() for spec in built_grams] == [KERNELS[1]] * 2
    assert kpca_fits == [15, 15]
    rows = result.report["layers"][0]
    assert [row["mean_error_percent"] for row in rows[:2]] == \
        [row["mean_error_percent"] for row in rows[2:]]


def test_gammas_with_different_weights_get_their_own_cells(monkeypatch, kpca_fits):
    # each gamma its own vertex, so no two rows may share cells
    vertex = {g: KernelWeights(np.eye(2)[i]) for i, g in enumerate(GAMMAS)}
    monkeypatch.setattr(pipeline, "assemble_qp", lambda problem, gamma: gamma)
    monkeypatch.setattr(pipeline, "solve_simplex_qp", lambda gamma: vertex[gamma])
    cfg = experiment(GAMMAS, repeats=1)
    grid = [[pipeline.LayerConfig(kernels=cfg.layers[0].kernels, width=w, gamma=g, basis_size=5)
             for w in cfg.cv.widths] for g in GAMMAS]
    train, valid = data.split(corpus(), 40, 20, seed=0)
    split = {"train": train.features, "y_train": train.labels,
             "valid": valid.features, "y_valid": valid.labels}
    fit_idx = np.arange(0, 40, 2)
    both = search._probe_kernel_set(split, fit_idx, grid, cfg.classifier, cfg.probe_cap)
    assert len(kpca_fits) == 2
    alone = [cell for row in grid
             for cell in search._probe_kernel_set(split, fit_idx, [row], cfg.classifier,
                                                  cfg.probe_cap)]
    assert len(both) == len(alone) == 4
    for got, want in zip(both, alone):
        assert got[:2] == want[:2]
        np.testing.assert_array_equal(got[2], want[2])
        np.testing.assert_array_equal(got[3], want[3])
    assert not np.array_equal(both[0][2], both[2][2])


def test_search_releases_the_linear_gram_before_kpca(live_linear_grams):
    search.grid_search(corpus(), experiment(GAMMAS), seed=0)
    assert live_linear_grams == [0, 0]


@pytest.mark.parametrize("svm_c, trained", [((10,), 0), ((1, 10), 1), ((1, 3), 2)])
def test_c_grid_trains_no_svm_the_winning_probe_trained(monkeypatch, svm_c, trained):
    """The C stage trains (len(svm_c) - 1) x repeats SVMs when the
    classifier's own C (10) is in the grid, len(svm_c) x repeats if not."""
    calls = []  # C of each train_classifier call
    layer_calls = []  # len(calls) after each kernel set's probes
    train_classifier = pipeline.train_classifier
    probe_kernel_set = search._probe_kernel_set

    def probes(*args):
        cells = probe_kernel_set(*args)
        layer_calls.append(len(calls))
        return cells

    monkeypatch.setattr(pipeline, "train_classifier",
                        lambda *a, **kw: calls.append(kw["c"]) or train_classifier(*a, **kw))
    monkeypatch.setattr(search, "_probe_kernel_set", probes)
    result = search.grid_search(corpus(), experiment(GAMMAS, svm_c=svm_c), seed=0)
    c_stage = calls[layer_calls[-1]:]
    assert len(c_stage) == trained * 2 and 10 not in c_stage
    assert [row["C"] for row in result.report["svm_c"]] == list(svm_c)


def test_workers_get_their_share_of_the_cores_and_the_caller_keeps_its_environment(
        monkeypatch):
    for var in search._BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # set by the caller, so left alone
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    before = dict(os.environ)
    seen = search._run([partial(os.getenv, var) for var in search._BLAS_THREADS], jobs=2)
    assert dict(os.environ) == before
    assert seen == ["2", "2", "3"]  # 4 cores, 2 workers


def test_workers_are_capped_at_the_usable_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert search._run([os.getpid] * 3, jobs=4) == [os.getpid()] * 3
