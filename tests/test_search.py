"""``search.grid_search`` runs the layer stages once per distinct weight
vector: gamma enters only the weight QP, so gammas that learn equal
weights share the combined Gram, kernel PCA, crosses and probe SVMs."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_equal_to_round_off, direction_blobs
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


def experiment(gammas, repeats=2, svm_c=(10,), **layer):
    return parse_config({
        "layers": [dict({"kernels": KERNELS, "width": 3, "basis_size": 5}, **layer)],
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


@pytest.mark.parametrize("change,message", [
    (lambda cfg: replace(cfg, cv=replace(cfg.cv, svm_c=())), "svm_c must not be empty"),
    (lambda cfg: replace(cfg, cv=replace(cfg.cv, repeats=0)), "repeats must be >= 1, got 0"),
    (lambda cfg: replace(cfg, probe_cap=0), "probe_cap must be >= 1, got 0"),
], ids=["svm_c_empty", "repeats_zero", "probe_cap_zero"])
def test_a_bad_setting_built_in_code_fails_before_any_layer_fit(monkeypatch, change, message):
    # an empty svm_c used to run the whole layer search, then fail in argmin
    monkeypatch.setattr(pipeline, "fit_layer_grid",
                        lambda *a, **kw: pytest.fail("a layer was fitted"))
    with pytest.raises(ValueError, match="^%s$" % message):
        search.grid_search(corpus(), change(experiment(GAMMAS)), seed=0)


def test_candidates_are_the_configured_layer_with_the_searched_fields_replaced(kpca_fits):
    # every candidate, and the winner, keeps the layer's kpca_components
    # (12) rather than the default three times each candidate's width
    result = search.grid_search(corpus(), experiment(GAMMAS[:1], kpca_components=12), seed=0)
    assert kpca_fits == [12, 12]
    assert result.report["best_config"]["layers"][0]["kpca_components"] == 12


def probed_grid(train, valid, fit_idx, grid, cfg):
    """``fit_layer_grid`` of ``grid`` on one split, scored by the search's probe SVM."""
    def probe(train_feats, valid_feats):
        return search.probe_error(train_feats, train.labels, valid_feats, valid.labels,
                                  cfg.classifier, cfg.probe_cap)

    return pipeline.fit_layer_grid(train.features, train.labels, grid, fit_idx,
                                   valid=valid.features, score=probe)


def outcome(cell):
    """(error, note) of a cell as the search reads it."""
    return (np.inf, str(cell)) if isinstance(cell, Exception) else (cell.score, None)


def test_gammas_with_different_weights_get_their_own_cells(monkeypatch, kpca_fits):
    # each gamma its own vertex, so no two rows may share cells
    vertex = {g: KernelWeights(np.eye(2)[i]) for i, g in enumerate(GAMMAS)}
    monkeypatch.setattr(pipeline, "assemble_qp", lambda problem, gamma: gamma)
    monkeypatch.setattr(pipeline, "solve_simplex_qp", lambda gamma: vertex[gamma])
    cfg = experiment(GAMMAS, repeats=1)
    grid = [[pipeline.LayerConfig(kernels=cfg.layers[0].kernels, width=w, gamma=g, basis_size=5)
             for w in cfg.cv.widths] for g in GAMMAS]
    train, valid = data.split(corpus(), 40, 20, seed=0)
    fit_idx = np.arange(0, 40, 2)
    both = probed_grid(train, valid, fit_idx, grid, cfg)
    assert len(kpca_fits) == 2
    alone = [cell for row in grid for cell in probed_grid(train, valid, fit_idx, [row], cfg)]
    assert len(both) == len(alone) == 4
    for got, want in zip(both, alone):
        assert outcome(got) == outcome(want)
        np.testing.assert_array_equal(got.train, want.train)
        np.testing.assert_array_equal(got.valid, want.valid)
    assert not np.array_equal(both[0].train, both[2].train)


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
    fit_idx = np.arange(0, 40, 2)
    fitted = pipeline.fit_layer_grid(train.features, train.labels, grid, fit_idx,
                                     valid=valid.features)
    probed = probed_grid(train, valid, fit_idx, grid, cfg)
    alone = [cell for row in grid for cell in probed_grid(train, valid, fit_idx, [row], cfg)]
    assert [outcome(cell) for cell in probed] == [outcome(cell) for cell in alone]
    error, stopped = FAILING_STAGES[stage]
    assert [isinstance(f, Exception) for f in fitted] == [bool(s) for row in stopped for s in row]
    candidates = [cand for row in grid for cand in row]
    for cand, f, cell in zip(candidates, fitted, probed):
        if isinstance(f, Exception):
            assert type(f) is error and outcome(cell) == (np.inf, str(f))
            with pytest.raises(error) as raised:
                pipeline.fit_layer(train.features, train.labels, cand, fit_idx)
            assert type(raised.value) is error and str(raised.value) == str(f)
        else:
            layer, reduced = pipeline.fit_layer(train.features, train.labels, cand, fit_idx)
            assert outcome(cell)[1] is None and np.isfinite(outcome(cell)[0])
            # a row's kPCA is solved at its largest count: bit for bit the
            # lone fit there, and to round-off at a smaller count
            if cand.components == max(c.components for c in grid[0]):
                np.testing.assert_array_equal(reduced, f.train)
            else:
                assert_equal_to_round_off(reduced, f.train)
            np.testing.assert_array_equal(f.train, cell.train)
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
    fit_layer_grid = pipeline.fit_layer_grid

    def probes(*args, **kwargs):
        cells = fit_layer_grid(*args, **kwargs)
        layer_calls.append(len(calls))
        return cells

    monkeypatch.setattr(pipeline, "train_classifier",
                        lambda *a, **kw: calls.append(kw["c"]) or train_classifier(*a, **kw))
    monkeypatch.setattr(pipeline, "fit_layer_grid", probes)
    result = search.grid_search(corpus(), experiment(GAMMAS, svm_c=svm_c), seed=0)
    c_stage = calls[layer_calls[-1]:]
    assert len(c_stage) == trained * 2 and 10 not in c_stage
    assert [row["C"] for row in result.report["svm_c"]] == list(svm_c)

