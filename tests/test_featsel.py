import numpy as np
import pytest
import scipy.stats

from mlmkl import featsel
from mlmkl.errors import DegenerateLabelsError, InvalidWidthError, MlmklError, ShapeError
from mlmkl.featsel import anova_f_scores, select


def test_hand_computed_f_statistic():
    # two groups {0,1,2} and {4,5,6}: MSb = 24, MSw = 1, pooled over 4 dof
    x = np.array([[0.0], [1.0], [2.0], [4.0], [5.0], [6.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    scores = anova_f_scores(x, y)
    assert scores[0] == pytest.approx(24.0, rel=1e-12)


def test_matches_scipy_f_oneway():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    x[y == 2, 0] += 2.0
    scores = anova_f_scores(x, y)
    for j in range(6):
        groups = [x[y == c, j] for c in range(3)]
        ref = scipy.stats.f_oneway(*groups).statistic
        assert scores[j] == pytest.approx(ref, rel=1e-10)


def test_sentinel_values():
    # column 0: groups internally constant but different -> infinite score
    # column 1: globally constant -> 0/0, scored zero
    # column 2: informative
    x = np.array([
        [1.0, 5.0, 0.1],
        [1.0, 5.0, 0.2],
        [3.0, 5.0, 3.1],
        [3.0, 5.0, 3.0],
    ])
    y = np.array([0, 0, 1, 1])
    scores = anova_f_scores(x, y)
    assert np.isposinf(scores[0])
    assert scores[1] == 0.0
    assert 0.0 < scores[2] < np.inf


def test_row_permutation_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(25, 4))
    y = rng.integers(0, 2, size=25)
    perm = rng.permutation(25)
    np.testing.assert_allclose(
        anova_f_scores(x, y), anova_f_scores(x[perm], y[perm]), rtol=1e-10
    )


def test_affine_invariance_per_feature():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    scaled = x * np.array([10.0, 0.01, 3.0]) + np.array([-5.0, 2.0, 100.0])
    np.testing.assert_allclose(anova_f_scores(x, y), anova_f_scores(scaled, y), rtol=1e-8)


def test_select_orders_by_score_then_index():
    x = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 2.0],
        [1.0, 1.0, 8.0],
        [1.0, 1.0, 9.0],
    ])
    y = np.array([0, 0, 1, 1])
    ranking, reduced = select(x, y, 2)
    # columns 0 and 1 are identical (tied scores); both beat no one here
    # since all three are infinite-or-finite mix: check stability instead
    scores = ranking.scores
    assert scores[0] == scores[1]
    order = ranking.order
    first_tie = [i for i in order if scores[i] == scores[0]]
    assert first_tie == sorted(first_tie)
    assert reduced.shape == (4, 2)
    np.testing.assert_array_equal(reduced, x[:, ranking.selected])


def test_select_keeps_score_order():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 8))
    y = rng.integers(0, 2, size=50)
    x[y == 1, 5] += 4.0
    x[y == 1, 2] += 1.5
    ranking, reduced = select(x, y, 3)
    assert ranking.selected[0] == 5
    s = ranking.scores
    assert all(s[a] >= s[b] for a, b in zip(ranking.order, ranking.order[1:]))
    assert reduced.shape == (50, 3)


def test_select_full_width_is_permutation():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 5))
    y = rng.integers(0, 2, size=20)
    ranking, reduced = select(x, y, 5)
    assert sorted(ranking.selected.tolist()) == [0, 1, 2, 3, 4]
    np.testing.assert_array_equal(reduced, x[:, ranking.selected])


def test_width_bounds():
    x = np.zeros((4, 3))
    x[2:] = 1.0
    y = np.array([0, 0, 1, 1])
    for bad in (0, 4, -2):
        with pytest.raises(InvalidWidthError) as caught:
            select(x, y, bad)
        assert isinstance(caught.value, MlmklError) and isinstance(caught.value, ValueError)
        assert str(caught.value) == "width must be an integer in [1, 3], got %d" % bad


def test_degenerate_labels():
    x = np.random.default_rng(5).normal(size=(6, 2))
    with pytest.raises(DegenerateLabelsError):
        anova_f_scores(x, np.zeros(6, dtype=int))


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        anova_f_scores(np.zeros((4, 2)), np.array([0, 1]))


def test_select_checks_its_inputs_once_and_in_order(monkeypatch):
    # the features, then the labels, then the width, each checked once
    calls = []
    check_labels = featsel.check_labels

    def counted(labels, n):
        calls.append(n)
        return check_labels(labels, n)

    monkeypatch.setattr(featsel, "check_labels", counted)
    x = np.random.default_rng(6).normal(size=(6, 3))
    y = np.array([0, 1, 0, 1, 0, 1])
    select(x, y, 2)
    assert calls == [6]
    for features, labels, error in [(x[0], y, ShapeError), (x, y[:4], ShapeError),
                                    (x, np.zeros(6), DegenerateLabelsError)]:
        with pytest.raises(error):
            select(features, labels, 0)
