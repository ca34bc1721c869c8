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
from mlmkl.errors import (
    DegenerateGramError, InvalidBasisSizeError, InvalidWidthError, NumericalFailureError,
)
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
    probes, crosses = [], []  # rows of each probe SVM and of each combined cross
    train_classifier, combined_cross = pipeline.train_classifier, pipeline.combined_cross
    monkeypatch.setattr(pipeline, "train_classifier", lambda x, *a, **kw: probes.append(
        len(x)) or train_classifier(x, *a, **kw))
    monkeypatch.setattr(pipeline, "combined_cross", lambda rows, *a: crosses.append(
        len(rows)) or combined_cross(rows, *a))
    result = search.grid_search(corpus(), experiment(GAMMAS), seed=0)
    # per repeat: one probe SVM per width, not per (gamma, width), and one
    # cross of the 40 training rows and one of the 20 validation rows
    assert probes == [40] * 4
    assert sorted(crosses) == [20, 20, 40, 40]
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


def fail_the_qp_at(monkeypatch, gamma):
    assemble, solve = pipeline.assemble_qp, pipeline.solve_simplex_qp

    def solve_or_fail(qp):
        if qp[0] == gamma:
            raise NumericalFailureError("no weights at gamma %r" % gamma)
        return solve(qp[1])

    monkeypatch.setattr(pipeline, "assemble_qp", lambda problem, g: (g, assemble(problem, g)))
    monkeypatch.setattr(pipeline, "solve_simplex_qp", solve_or_fail)


def fail_the_combine_of_the_first_vertex(monkeypatch, gammas):
    # gammas alternate between the two vertices, the first of which fails
    vertex = {g: KernelWeights(np.eye(2)[i % 2]) for i, g in enumerate(gammas)}
    combine = pipeline.combine

    def combine_or_fail(x, kernels, weights):
        if weights.mu[0] == 1.0:
            raise DegenerateGramError("no Gram at weights %r" % (weights.mu.tolist(),))
        return combine(x, kernels, weights)

    monkeypatch.setattr(pipeline, "assemble_qp", lambda problem, gamma: gamma)
    monkeypatch.setattr(pipeline, "solve_simplex_qp", lambda gamma: vertex[gamma])
    monkeypatch.setattr(pipeline, "combine", combine_or_fail)


# stage -> (its failure, which of the 3 gammas x 2 widths it stops)
FAILING_STAGES = {
    "problem": (InvalidBasisSizeError, [[1, 1], [1, 1], [1, 1]]),
    "qp": (NumericalFailureError, [[1, 1], [0, 0], [0, 0]]),
    "combine": (DegenerateGramError, [[1, 1], [0, 0], [1, 1]]),
    "width": (InvalidWidthError, [[0, 1], [0, 1], [0, 1]]),
}


@pytest.mark.filterwarnings("ignore:requested")
@pytest.mark.parametrize("stage", sorted(FAILING_STAGES))
def test_a_failing_stage_stops_the_candidates_it_stops_when_fitted_alone(monkeypatch, stage):
    gammas = [0.05, 0.5, 5.0]
    if stage == "qp":
        fail_the_qp_at(monkeypatch, gammas[0])
    if stage == "combine":
        fail_the_combine_of_the_first_vertex(monkeypatch, gammas)
    cfg = experiment(gammas, repeats=1)
    # 20 fit rows: a basis of 20 neighbours and a width of 40 do not fit
    grid = [[pipeline.LayerConfig(kernels=cfg.layers[0].kernels, width=w, gamma=g,
                                  basis_size=20 if stage == "problem" else 5)
             for w in ([3, 40] if stage == "width" else [3, 5])] for g in gammas]
    train, valid = data.split(corpus(), 40, 20, seed=0)
    split = {"train": train.features, "y_train": train.labels,
             "valid": valid.features, "y_valid": valid.labels}
    fit_idx = np.arange(0, 40, 2)
    fitted = pipeline.fit_layer_grid(split["train"], split["y_train"], grid, fit_idx,
                                     valid=split["valid"])
    probed = search._probe_kernel_set(split, fit_idx, grid, cfg.classifier, cfg.probe_cap)
    alone = [cell for row in grid
             for cell in search._probe_kernel_set(split, fit_idx, [row], cfg.classifier,
                                                  cfg.probe_cap)]
    assert [cell[:2] for cell in probed] == [cell[:2] for cell in alone]
    error, stopped = FAILING_STAGES[stage]
    assert [isinstance(f, Exception) for f in fitted] == [bool(s) for row in stopped for s in row]
    candidates = [cand for row in grid for cand in row]
    for cand, f, cell in zip(candidates, fitted, probed):
        if isinstance(f, Exception):
            assert type(f) is error and cell[0] == np.inf and cell[1] == str(f)
            with pytest.raises(error) as raised:
                pipeline.fit_layer(split["train"], split["y_train"], cand, fit_idx)
            assert type(raised.value) is error and str(raised.value) == str(f)
        else:
            layer, reduced = pipeline.fit_layer(split["train"], split["y_train"], cand, fit_idx)
            assert cell[1] is None and np.isfinite(cell[0])
            np.testing.assert_array_equal(reduced, f.train)
            np.testing.assert_array_equal(reduced, cell[2])
            np.testing.assert_array_equal(layer.selected, f.layer.selected)


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
