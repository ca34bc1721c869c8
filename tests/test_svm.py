import numpy as np
import pytest

import oracle
from conftest import brute_force_svm_dual, direction_blobs, svm_dual_value
from mlmkl import pipeline, svm
from mlmkl.config import ClassifierConfig
from mlmkl.errors import DegenerateLabelsError, ShapeError
from mlmkl.kernels import GramMatrix, KernelRows, cross_gram, gram, parse_kernel

LINEAR = parse_kernel("linear")


def test_two_point_problem_exact():
    # points 1 and 3 on a line, hard margin: alpha = 2/|x1-x2|^2 = 0.5
    x = np.array([[1.0], [3.0]])
    y = np.array([1, -1])
    machine = svm.train_binary(gram(x, LINEAR), y, c=10.0)
    np.testing.assert_allclose(machine.alpha, [0.5, 0.5], atol=1e-9)
    assert machine.bias == pytest.approx(2.0, abs=1e-9)
    assert machine.converged
    # the midpoint sits exactly on the boundary
    k_mid = cross_gram(np.array([[2.0]]), x, LINEAR)
    decision = k_mid @ (machine.alpha * y) + machine.bias
    assert decision[0] == pytest.approx(0.0, abs=1e-9)


def test_box_clipping_engages():
    x = np.array([[1.0], [3.0]])
    y = np.array([1, -1])
    machine = svm.train_binary(gram(x, LINEAR), y, c=0.2)
    np.testing.assert_allclose(machine.alpha, [0.2, 0.2], atol=1e-12)


def test_kkt_within_tolerance_random_problems():
    rng = np.random.default_rng(0)
    for trial in range(8):
        n = int(rng.integers(10, 40))
        x = rng.normal(size=(n, 3))
        y = np.where(rng.random(n) < 0.5, -1, 1)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        k = gram(x, LINEAR)
        c = float(rng.choice([0.1, 1.0, 10.0]))
        machine = svm.train_binary(k, y, c=c, tol=1e-3)
        assert machine.converged
        assert svm.kkt_violation(k, y, machine.alpha, c) <= 1e-3
        assert np.all(machine.alpha >= -1e-15)
        assert np.all(machine.alpha <= c + 1e-15)
        assert float(machine.alpha @ y) == pytest.approx(0.0, abs=1e-10)


def test_dual_objective_matches_projected_gradient():
    rng = np.random.default_rng(1)
    for trial in range(5):
        n = 16
        x = rng.normal(size=(n, 2))
        y = np.where(x[:, 0] + 0.3 * rng.normal(size=n) > 0, 1, -1)
        if len(np.unique(y)) < 2:
            continue
        kv = gram(x, LINEAR).values + 1e-8 * np.eye(n)
        kv = (kv + kv.T) / 2.0
        c = 1.0
        machine = svm.train_binary(kv, y, c=c, tol=1e-5)
        ref = brute_force_svm_dual(kv, y, c)
        ours = svm.dual_objective(kv, y, machine.alpha)
        theirs = svm_dual_value(kv, y, ref)
        assert ours <= theirs + 1e-3
        assert abs(ours - theirs) <= 1e-3 * max(1.0, abs(theirs))


def test_separable_blobs_train_clean():
    x, y = direction_blobs(30, 40, [(0, 10), (20, 30)], seed=2)
    spec = parse_kernel("rbf(gamma=0.1)")
    k = gram(x, spec)
    signed = np.where(y == 0, -1, 1)
    machine = svm.train_binary(k, signed, c=10.0)
    decision = k.values @ (machine.alpha * signed) + machine.bias
    assert np.all(np.sign(decision) == signed)


def test_binary_input_validation():
    k = gram(np.array([[0.0], [1.0]]), LINEAR)
    with pytest.raises(DegenerateLabelsError):
        svm.train_binary(k, np.array([1, 1]), c=1.0)
    with pytest.raises(ValueError):
        svm.train_binary(k, np.array([1, 2]), c=1.0)
    with pytest.raises(ValueError):
        svm.train_binary(k, np.array([1, -1]), c=0.0)
    with pytest.raises(ShapeError):
        svm.train_binary(np.array([[1.0, 0.5], [0.4, 1.0]]), np.array([1, -1]), c=1.0)
    with pytest.raises(ShapeError):
        svm.train_binary(k, np.array([1, -1, 1]), c=1.0)


@pytest.mark.parametrize("c", [np.inf, np.nan])
def test_a_non_finite_c_is_rejected(c):
    # an infinite C would snap every alpha update to 0 and return an
    # all-zero machine marked converged
    x = np.array([[0.0], [1.0], [3.0], [4.0]])
    text = "^C must be finite, got %s$" % c  # ClassifierConfig's text
    with pytest.raises(ValueError, match=text):
        ClassifierConfig(c=c)
    with pytest.raises(ValueError, match=text):
        svm.train_binary(gram(x, LINEAR), np.array([1, 1, -1, -1]), c=c)
    with pytest.raises(ValueError, match=text):
        svm.train_multiclass(gram(x, LINEAR), np.array([0, 0, 1, 2]), c=c)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_a_non_positive_or_non_finite_tol_is_rejected(tol):
    # 0, -1 and nan ran to max_iter and only warned; inf stopped at once
    # with an all-zero machine marked converged
    x = np.array([[0.0], [1.0], [3.0], [4.0]])
    # ClassifierConfig's text
    text = "^tol must be %s, got %s$" % ("positive" if np.isfinite(tol) else "finite", tol)
    with pytest.raises(ValueError, match=text):
        ClassifierConfig(tol=tol)
    with pytest.raises(ValueError, match=text):
        svm.train_binary(gram(x, LINEAR), np.array([1, 1, -1, -1]), c=1.0, tol=tol)
    with pytest.raises(ValueError, match=text):
        svm.train_multiclass(gram(x, LINEAR), np.array([0, 0, 1, 2]), c=1.0, tol=tol)


def test_multiclass_one_vs_rest_recovers_classes():
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    x = np.vstack([c + 0.3 * rng.normal(size=(20, 2)) for c in centers])
    y = np.repeat([3, 7, 1], 20)
    k = gram(x, parse_kernel("rbf(gamma=0.5)"))
    model = svm.train_multiclass(k, y, c=10.0)
    np.testing.assert_array_equal(model.classes, [1, 3, 7])
    assert model.dual_coef.shape == (3, model.n_support)
    cross = k.values[:, model.support]
    pred = svm.predict(model, cross)
    assert np.mean(pred == y) == 1.0


def test_multiclass_needs_two_classes():
    k = gram(np.array([[0.0], [1.0]]), LINEAR)
    with pytest.raises(DegenerateLabelsError):
        svm.train_multiclass(k, np.array([4, 4]))


def test_prediction_ties_break_to_smaller_class_id():
    model = svm.SvmModel(
        classes=np.array([2, 5], dtype=np.int64),
        support=np.array([0], dtype=np.int64),
        dual_coef=np.zeros((2, 1)),
        biases=np.zeros(2),
        c=1.0,
    )
    pred = svm.predict(model, np.ones((3, 1)))
    np.testing.assert_array_equal(pred, [2, 2, 2])


def test_predict_empty_input():
    model = svm.SvmModel(
        classes=np.array([0, 1], dtype=np.int64),
        support=np.array([0], dtype=np.int64),
        dual_coef=np.zeros((2, 1)),
        biases=np.zeros(2),
        c=1.0,
    )
    assert svm.predict(model, np.zeros((0, 1))).shape == (0,)


def test_decision_values_shape_check():
    model = svm.SvmModel(
        classes=np.array([0, 1], dtype=np.int64),
        support=np.array([0, 1], dtype=np.int64),
        dual_coef=np.zeros((2, 2)),
        biases=np.zeros(2),
        c=1.0,
    )
    with pytest.raises(ShapeError):
        svm.decision_values(model, np.zeros((3, 5)))


def test_gram_matrix_and_ndarray_agree():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 2))
    y = np.where(x[:, 0] > 0, 1, -1)
    if len(np.unique(y)) < 2:
        y[0] = -y[0]
    k = gram(x, LINEAR)
    a = svm.train_binary(k, y, c=1.0)
    b = svm.train_binary(k.values, y, c=1.0)
    np.testing.assert_array_equal(a.alpha, b.alpha)
    assert a.bias == b.bias
    a = svm.train_multiclass(k, y, c=1.0)
    b = svm.train_multiclass(k.values, y, c=1.0)
    np.testing.assert_array_equal(a.dual_coef, b.dual_coef)
    np.testing.assert_array_equal(a.biases, b.biases)
    with pytest.raises(ShapeError):
        svm.train_multiclass(k.values + np.triu(np.ones((12, 12)), 1), y)


def _assert_same_as_oracle(kv, y, c, max_iter=1_000_000, rule=oracle.movable):
    alpha, bias, iterations, converged = oracle.smo(kv, y, c, max_iter=max_iter, rule=rule)
    machine = svm.train_binary(kv, y, c, max_iter=max_iter)
    assert machine.alpha.tobytes() == alpha.tobytes()
    assert np.float64(machine.bias).tobytes() == np.float64(bias).tobytes()
    assert (machine.iterations, machine.converged) == (iterations, converged)
    return machine


def test_smo_matches_the_oracle_on_ties_and_both_bounds():
    rng = np.random.default_rng(5)
    x = np.round(rng.normal(size=(30, 2)))  # repeated rows, so ties in f all along
    x = np.vstack([x, x[:10]])
    y = np.where(x[:, 0] + rng.normal(size=40) > 0, 1.0, -1.0)
    kv = gram(x, LINEAR).values
    machines = {c: _assert_same_as_oracle(kv, y, c) for c in (0.05, 1.0, 100.0)}
    assert all(machine.converged for machine in machines.values())
    # overlapping classes at a small C put alphas at 0 and at C
    alpha = machines[0.05].alpha
    assert np.any(alpha == 0.0) and np.any(alpha == 0.05)


def test_smo_matches_the_oracle_one_vs_rest():
    x, labels = direction_blobs(25, 12, [[0, 1], [2, 3], [4, 5]], noise=0.4, lift=0.5, seed=3)
    kv = gram(x, parse_kernel("arccos(n=1,L=1)")).values
    for cls in range(3):
        _assert_same_as_oracle(kv, np.where(labels == cls, 1.0, -1.0), 10.0)


def test_smo_matches_the_oracle_when_it_stops_early():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1e8, 5e7]])
    y = np.array([1.0, -1.0, -1.0])
    kv = gram(x, LINEAR).values
    with pytest.warns(UserWarning, match="SMO stopped"):
        machine = _assert_same_as_oracle(kv, y, 10.0)  # the kernel scale empties the box
    assert machine.iterations == 2 and not machine.converged
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 3))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    with pytest.warns(UserWarning, match="SMO stopped"):
        machine = _assert_same_as_oracle(gram(x, LINEAR).values, y, 1.0, max_iter=3)
    assert machine.iterations == 3 and not machine.converged


def test_smo_stops_when_one_set_empties_as_the_oracle_does(monkeypatch):
    # the dual's equality keeps both movable sets nonempty under the real
    # rule, so a rule under which a negative at C cannot move up stands in
    def stuck_at_c(rule):
        def stuck(y, alpha, c):
            up, down = rule(y, alpha, c)
            return up & ((y > 0) | (alpha < c)), down
        return stuck

    x = np.array([[1.0], [3.0], [4.0]])
    y = np.array([1.0, -1.0, -1.0])
    kv = gram(x, LINEAR).values
    monkeypatch.setattr(svm, "_movable", stuck_at_c(svm._movable))
    machine = _assert_same_as_oracle(kv, y, 0.2, rule=stuck_at_c(oracle.movable))
    can_up = svm._movable(y, machine.alpha, 0.2)[0]
    assert machine.iterations >= 1 and not can_up.any()  # emptied by a step


@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_rows_train_the_dense_model_to_tolerance(monkeypatch, seed):
    # one problem on both sides of the cut-over: at it the classifier reads
    # the dense Gram, one byte below it a KernelRows, whose rows differ at
    # round-off; the dense Gram is the oracle of the row-source model
    groups = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    x, y = direction_blobs(100, 30, groups, noise=0.5, lift=0.4, seed=seed)
    test, _ = direction_blobs(50, 30, groups, noise=0.5, lift=0.4, seed=seed + 100)
    spec = parse_kernel("arccos(n=1,L=1)")
    c, tol = 10.0, ClassifierConfig.tol
    sources = []
    train_multiclass = svm.train_multiclass
    monkeypatch.setattr(svm, "train_multiclass",
                        lambda k, *args, **kw: sources.append(type(k)) or train_multiclass(k, *args, **kw))
    models = []
    for cut_over in (8 * 400 * 400, 8 * 400 * 400 - 1):
        monkeypatch.setattr(pipeline, "_DENSE_GRAM_BYTES", cut_over)
        models.append(pipeline.train_classifier(x, y, spec, c=c, tol=tol))
    assert sources == [GramMatrix, KernelRows]
    dense, rows = models
    np.testing.assert_array_equal(pipeline.classifier_predict(rows, test),
                                  pipeline.classifier_predict(dense, test))

    def alphas(model):
        coef = np.zeros((model.classes.size, 400))
        coef[:, model.support] = model.dual_coef
        return np.abs(coef)  # alpha_s y_s with y_s = +-1

    assert np.abs(alphas(rows) - alphas(dense)).max() <= 1e-6 * c
    k = gram(x, spec)
    for r, cls in enumerate(rows.classes):
        yb = np.where(y == cls, 1.0, -1.0)
        assert svm.kkt_violation(k, yb, alphas(rows)[r], c) <= tol * (1 + 1e-9)
    assert abs(rows.n_support - dense.n_support) <= 0.03 * dense.n_support
