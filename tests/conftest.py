"""Shared fixtures and independent reference solvers used across tests.

The reference solvers here are deliberately written with different
algorithms than the library (exhaustive grids, bisection projections,
dense eigendecompositions) so agreement is evidence, not tautology.
"""
import weakref

import numpy as np
import pytest

import mlmkl.featsel
import mlmkl.kernels
import mlmkl.kpca
import mlmkl.pipeline
import mlmkl.umkl
from mlmkl.kernels import KernelSpec


@pytest.fixture
def built_grams(monkeypatch):
    """The specs whose Grams ``kernels.gram`` evaluates, in call order: the
    one spec it is called with, or those of nonzero weight in a combination."""
    built = []
    gram = mlmkl.kernels.gram

    def recorded(x, spec):
        built.extend([spec] if isinstance(spec, KernelSpec) else [s for w, s in spec if w])
        return gram(x, spec)

    monkeypatch.setattr(mlmkl.kernels, "gram", recorded)
    return built


@pytest.fixture
def live_linear_grams(monkeypatch):
    """Per ``kpca.fit`` call, how many of the n x n linear Grams P = x x^T
    that ``umkl.problem_from_features`` built are still alive on entry."""
    refs, live = [], []
    build_local_bases = mlmkl.umkl.build_local_bases
    fit = mlmkl.kpca.fit

    def bases(p, basis_size):
        refs.append(weakref.ref(p))
        return build_local_bases(p, basis_size)

    def counted_fit(k, n_components, **options):
        live.append(sum(ref() is not None for ref in refs))
        return fit(k, n_components, **options)

    monkeypatch.setattr(mlmkl.umkl, "build_local_bases", bases)
    monkeypatch.setattr(mlmkl.kpca, "fit", counted_fit)
    return live


@pytest.fixture
def live_fit_grams(monkeypatch):
    """Per ``featsel.select`` call, how many of the combined Grams that
    ``pipeline.combine`` returned are still alive on entry."""
    refs, live = [], []
    combine = mlmkl.pipeline.combine
    select = mlmkl.featsel.select

    def tracked(*args):
        k = combine(*args)
        refs.append(weakref.ref(k.values))
        return k

    def counted_select(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        return select(*args, **kwargs)

    monkeypatch.setattr(mlmkl.pipeline, "combine", tracked)
    monkeypatch.setattr(mlmkl.featsel, "select", counted_select)
    return live


def direction_blobs(n_per_class, dim, hot_groups, noise=0.1, lift=0.85, seed=0):
    """Classes that differ in which coordinates are active.

    Angle-based kernels distinguish directions, not magnitudes, so
    synthetic classes live along different coordinate groups (the same
    way digit classes differ in which pixels are on).  Values land in
    [0, 1] like image intensities.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for cls, hots in enumerate(hot_groups):
        x = np.abs(rng.normal(0.0, noise, size=(n_per_class, dim)))
        for h in hots:
            x[:, h] += lift
        blocks.append(x)
        labels.append(np.full(n_per_class, cls))
    x = np.clip(np.vstack(blocks), 0.0, 1.0)
    y = np.concatenate(labels)
    perm = rng.permutation(x.shape[0])
    return x[perm], y[perm]


def digits_like(n_per_class, n_classes=2, seed=0):
    """784-wide direction blobs shaped like the digit datasets."""
    rng = np.random.default_rng(seed + 12345)
    groups = [rng.choice(784, size=12, replace=False) for _ in range(n_classes)]
    return direction_blobs(n_per_class, 784, groups, seed=seed)


def write_amat(path, features, labels):
    with open(path, "w") as fh:
        for row, label in zip(features, labels):
            fh.write(" ".join("%.8g" % v for v in row))
            fh.write(" %d\n" % label)


# ---------------------------------------------------------------------------
# reference solvers


def project_box_hyperplane(v, y, c):
    """Euclidean projection onto {0 <= a <= c, a . y = 0} for labels in {-1, 1}.

    The projection is a(nu) = clip(v - nu y, 0, c) for the nu that zeroes
    g(nu) = y . a(nu).  g is piecewise linear and non-increasing with
    breakpoints where a coordinate hits a bound, so evaluate it at every
    breakpoint and interpolate on the bracketing segment.
    """
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    knots = np.sort(np.concatenate([v * y, (v - c) * y]))
    gvals = np.clip(v[None, :] - knots[:, None] * y[None, :], 0.0, c) @ y
    below = np.nonzero(gvals <= 0.0)[0]
    if below.size == 0:
        nu = knots[-1]
    elif below[0] == 0:
        nu = knots[0]
    else:
        j = below[0]
        drop = gvals[j - 1] - gvals[j]
        if drop <= 0.0:
            nu = knots[j]
        else:
            nu = knots[j - 1] + (knots[j] - knots[j - 1]) * gvals[j - 1] / drop
    return np.clip(v - nu * y, 0.0, c)


def brute_force_svm_dual(kernel, y, c, iters=30000):
    """Projected gradient on the SVM dual with exact feasible projection.

    Slow and simple on purpose; used as the independent optimum for the
    sequential solver to match.
    """
    k = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    q = (y[:, None] * y[None, :]) * k
    lip = float(np.linalg.eigvalsh(q)[-1])
    step = 1.0 / lip if lip > 0 else 1.0
    alpha = np.zeros(y.size)
    for _ in range(iters):
        grad = q @ alpha - 1.0
        moved = project_box_hyperplane(alpha - step * grad, y, c)
        done = np.max(np.abs(moved - alpha)) < 1e-14
        alpha = moved
        if done:
            break
    return alpha


def svm_dual_value(kernel, y, alpha):
    y = np.asarray(y, dtype=np.float64)
    s = alpha * y
    return 0.5 * float(s @ np.asarray(kernel) @ s) - float(alpha.sum())


def simplex_grid(m, step=0.01):
    """All points of the regular grid on the (m-1)-simplex."""
    ticks = int(round(1.0 / step))
    if m == 2:
        a = np.arange(ticks + 1) / ticks
        return np.column_stack([a, 1.0 - a])
    if m == 3:
        pts = []
        for i in range(ticks + 1):
            for j in range(ticks + 1 - i):
                pts.append((i / ticks, j / ticks, (ticks - i - j) / ticks))
        return np.array(pts)
    raise NotImplementedError("grid only spans m in {2, 3}")


def loo_nearest_neighbour_accuracy(x, y):
    """Leave-one-out 1-NN training accuracy."""
    x = np.asarray(x, dtype=np.float64)
    d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d, np.inf)
    nearest = np.argmin(d, axis=1)
    return float(np.mean(y[nearest] == y))


def assert_equal_to_round_off(got, want):
    """``got`` equals ``want`` entry by entry within 1e-12 of the largest
    |entry| of ``want``: how closely two eigensolves of one matrix for
    different numbers of pairs agree."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.abs(want).max(initial=0.0)
    diff = np.abs(got - want).max(initial=0.0)
    assert diff <= 1e-12 * scale, "differs by %.3g of the largest |entry|" % (diff / scale)
