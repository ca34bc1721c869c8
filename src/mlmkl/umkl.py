"""Unsupervised learning of kernel combination weights.

Given base Gram matrices K_1..K_m over one sample set, find simplex
weights mu (mu_t >= 0, sum mu_t = 1) for the combined kernel
K = sum_t mu_t K_t by asking that each point be well reconstructed by
its kernel-weighted nearest neighbours in input space:

    J(mu) = 1/2 sum_i || x_i - sum_{j in B_i} k_ij x_j ||^2
            + gamma sum_i sum_{j in B_i} k_ij ||x_i - x_j||^2

where k_ij are entries of the combined kernel, B_i is the set of the
basis_size nearest neighbours of x_i (self excluded) and gamma trades
reconstruction against distortion.  Expanding the squared norm through
the linear Gram P = X X^T makes J a convex quadratic in mu:

    J(mu) = mu^T W mu + z^T mu + 1/2 sum_i P_ii
    W[s][t] = 1/2 sum_i (k_{s,i} o d_i)^T P (k_{t,i} o d_i)
    z[t]    = sum_i (gamma v_i o d_i - p_i o d_i)^T k_{t,i}

with d_i the 0/1 indicator of B_i, k_{t,i} column i of K_t, p_i column i
of P and v_i column i of the squared-distance matrix.  W is PSD (it is a
Gram matrix of masked kernel columns under P restricted to the bases),
so the problem is a convex QP over the simplex, which a primal
active-set method solves exactly: it walks from the best vertex across
simplex faces, taking the exact minimum of each, until the KKT
conditions hold.

Sample i's terms read P only on {i} and B_i, and gamma only scales
them.  So ``problem_from_features`` keeps, per sample, its bases, the
kernel entries at them and its (k+1) x (k+1) local linear Gram, and
drops the n x n P; ``assemble_qp(problem, gamma)`` builds the QP of any
gamma from that.

Once the weights are found, ``combine`` builds the combined Gram as one
product per weighted block: one ``kernels.gram`` of the (mu_t, K_t)
pairs, which evaluates only the kernels of nonzero weight, sums their
weighted values into one matmul of dot products and checks the sum's
symmetry once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import _real
from .errors import InvalidBasisSizeError, NumericalFailureError, ShapeError
from .kernels import _as_matrix, _kernel_values, _row_terms, _slab_rows

__all__ = [
    "KernelWeights",
    "LocalBases",
    "UmklProblem",
    "QpForm",
    "build_local_bases",
    "problem_from_features",
    "assemble_qp",
    "minimize_qp",
    "solve_simplex_qp",
    "combine",
]


@dataclass(frozen=True)
class KernelWeights:
    """Point on the probability simplex: nonnegative, sums to one."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        if mu.ndim != 1 or mu.size < 1:
            raise ShapeError("weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(mu)):
            raise ValueError("weights must be finite")
        if np.any(mu < 0.0):
            raise ValueError("weights must be nonnegative, got %r" % (mu,))
        if abs(float(mu.sum()) - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1, got sum %r" % float(mu.sum()))
        object.__setattr__(self, "mu", mu)

    def __len__(self):
        return self.mu.size


@dataclass(frozen=True)
class LocalBases:
    """Per-sample nearest-neighbour index sets of equal size, self excluded."""

    indices: np.ndarray  # (n, basis_size) int, each row sorted ascending

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 2:
            raise ShapeError("basis indices must be 2-d, got shape %r" % (idx.shape,))
        n, k = idx.shape
        if not (1 <= k <= n - 1):
            raise InvalidBasisSizeError("basis size %d not in [1, %d]" % (k, n - 1))
        if np.any(idx < 0) or np.any(idx >= n):
            raise ValueError("basis indices out of range")
        rows = np.arange(n)[:, None]
        if np.any(idx == rows):
            raise ValueError("a sample may not appear in its own basis")
        object.__setattr__(self, "indices", idx.astype(np.int64, copy=False))


def build_local_bases(linear_gram, basis_size):
    """Nearest neighbours of each sample in input-space distance.

    Distances come from the linear Gram (||x_i - x_j||^2 = P_ii + P_jj
    - 2 P_ij, clipped at zero), a slab of rows at a time; the sample
    itself is excluded and ties are broken toward the smaller index.  A
    row whose squared norm P_ii is above an eighth of the float range, or
    not finite, raises ``NumericalFailureError`` naming it: its distances
    could overflow, and NaN or inf distances rank no neighbours.
    """
    p = np.asarray(linear_gram, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ShapeError("linear Gram must be square, got shape %r" % (p.shape,))
    n = p.shape[0]
    if not (isinstance(basis_size, (int, np.integer)) and 1 <= basis_size <= n - 1):
        raise InvalidBasisSizeError(
            "basis size must be an integer in [1, %d], got %r" % (n - 1, basis_size)
        )
    d = np.diag(p)
    # ||x_i - x_j||^2 <= 2 (P_ii + P_jj): squared norms within an eighth of
    # the float range keep each distance, and each term of it, finite
    small = d <= np.finfo(np.float64).max / 8
    if not small.all():
        raise NumericalFailureError("squared distances from row %d overflow" % np.argmin(small))
    indices = np.empty((n, basis_size), dtype=np.int64)
    step = _slab_rows(n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        block = d[rows, None] + d[None, :]
        block -= 2.0 * p[rows]
        np.maximum(block, 0.0, out=block)
        np.fill_diagonal(block[:, start:], np.inf)
        # every distance below the k-th smallest, then as many of the ties at
        # it as slots are left, smallest index first (a running count)
        kth = np.partition(block, basis_size - 1, axis=1)[:, basis_size - 1:basis_size]
        keep = block < kth
        tied = block == kth
        slots = basis_size - np.count_nonzero(keep, axis=1)
        over = np.nonzero(np.count_nonzero(tied, axis=1) > slots)[0]
        tied[over] &= np.cumsum(tied[over], axis=1) <= slots[over, None]
        keep |= tied
        indices[rows] = np.nonzero(keep)[1].reshape(-1, basis_size)
    return LocalBases(indices)


@dataclass(frozen=True)
class UmklProblem:
    """Everything the weight QP reads about one sample set, for any gamma."""

    entries: np.ndarray  # (n, basis_size, m): K_t[bases[i, a], i] at [i, a, t]
    local_gram: np.ndarray  # (n, basis_size + 1, basis_size + 1): P on [i, bases[i]]^2
    bases: LocalBases

    def __post_init__(self):
        t = np.asarray(self.entries, dtype=np.float64)
        g = np.asarray(self.local_gram, dtype=np.float64)
        n, k = self.bases.indices.shape
        if t.ndim != 3 or t.shape[:2] != (n, k) or g.shape != (n, k + 1, k + 1):
            raise ShapeError("entries %r and local Grams %r do not fit %d rows of %d bases"
                             % (t.shape, g.shape, n, k))
        if t.shape[2] < 1:
            raise ValueError("need at least one base kernel")
        object.__setattr__(self, "entries", t)
        object.__setattr__(self, "local_gram", g)

    @property
    def m(self):
        return self.entries.shape[2]


def problem_from_features(features, specs, basis_size):
    """Neighbour bases, each kernel's entries at them and each sample's
    local linear Gram, all from P = x x^T, which is dropped on return."""
    x = _as_matrix(features, "features")
    with np.errstate(over="ignore", invalid="ignore"):  # build_local_bases fails what overflows
        p = x @ x.T  # exactly symmetric for the contiguous rows of _as_matrix
    bases = build_local_bases(p, basis_size)
    idx, cols = bases.indices, np.arange(x.shape[0])[:, None]
    ext = np.concatenate([cols, idx], axis=1)  # each sample, then its bases
    local = p[ext[:, :, None], ext[:, None, :]]
    terms = [_row_terms(x, s) for s in specs]
    entries = [_kernel_values(p[idx, cols], r[..., idx], r[..., cols], s, same=None)
               for r, s in zip(terms, specs)]
    return UmklProblem(np.stack(entries, axis=2), local, bases)


def _weights_array(mu, m):
    arr = np.asarray(getattr(mu, "mu", mu), dtype=np.float64)
    if arr.shape != (m,):
        raise ShapeError("expected %d weights, got shape %r" % (m, arr.shape))
    return arr


@dataclass(frozen=True)
class QpForm:
    """J(mu) = mu^T w mu + z^T mu + constant, with w symmetric PSD."""

    w: np.ndarray
    z: np.ndarray
    constant: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        z = np.asarray(self.z, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or z.shape != (w.shape[0],):
            raise ShapeError("inconsistent QP shapes %r, %r" % (w.shape, z.shape))
        if not np.array_equal(w, w.T):
            raise ShapeError("QP matrix must be exactly symmetric")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)

    @property
    def m(self):
        return self.z.size

    def value(self, mu):
        mu = _weights_array(mu, self.m)
        return float(mu @ self.w @ mu + self.z @ mu + self.constant)

    def gradient(self, mu):
        mu = _weights_array(mu, self.m)
        return 2.0 * (self.w @ mu) + self.z


def assemble_qp(problem, gamma):
    """Collapse the per-sample objective at locality penalty ``gamma``
    into an m x m quadratic form."""
    gamma = _real("gamma", gamma)  # LayerConfig's check
    t = problem.entries
    g = problem.local_gram
    # P among each sample's bases, contiguous like the block gathered from the
    # full P used to be, so einsum takes the same path and gives the same bits
    p_sub = np.ascontiguousarray(g[:, 1:, 1:])
    half = np.einsum("iab,ibt->iat", p_sub, t)
    w = 0.5 * np.einsum("ias,iat->st", t, half)
    w = 0.5 * (w + w.T)
    p_col = g[:, 1:, 0]  # P between each sample's bases and the sample
    d = g[:, 0, 0]  # P_ii
    # build_local_bases' squared distances at the basis, same expression: bit-identical
    v_col = np.maximum(np.diagonal(p_sub, axis1=1, axis2=2) + d[:, None] - 2.0 * p_col, 0.0)
    z = np.einsum("ia,iat->t", gamma * v_col - p_col, t)
    constant = 0.5 * float(d.sum())
    return QpForm(w, z, constant)


_MAX_STEPS = 1000  # random QPs of up to 14 kernels finish in under 25 steps
_RTOL = 1e-12  # zero threshold, relative to the largest gradient or curvature


def _face_direction(wf, gf, tol):
    """Descent direction on one simplex face, in its free coordinates.

    Works in an orthonormal basis of {p : sum(p) = 0}.  Returns the
    equality-constrained Newton step and True; or, when the reduced
    Hessian is singular and the reduced gradient has a component in its
    null space, that flat descent direction and False.
    """
    k = gf.size
    basis = np.linalg.qr(np.eye(k, k - 1) - np.eye(k, k - 1, -1))[0]
    eig, vec = np.linalg.eigh(basis.T @ (2.0 * wf) @ basis)
    coef = vec.T @ (basis.T @ gf)
    flat = eig <= _RTOL * eig.max()
    if np.any(np.abs(coef[flat]) > tol):
        return -(basis @ (vec[:, flat] @ coef[flat])), False
    return -(basis @ (vec[:, ~flat] @ (coef[~flat] / eig[~flat]))), True


def minimize_qp(qp):
    """Exact minimum over the simplex by a primal active-set method.

    Starts at the best vertex (ties to the smaller index) with only that
    index free.  Each step moves along the face of the free indices: the
    Newton step, or a flat descent direction when the face is singular,
    cut short where a weight hits zero, which then leaves the free set.
    At the minimum of a face the index with the most negative multiplier
    g_j - mean(g_free) is freed; once none is negative, beyond a
    tolerance relative to the largest possible gradient, the KKT
    conditions hold and the weights are optimal.  Returns the weights
    and the objective values, the starting vertex first and one per step,
    non-increasing up to rounding.
    """
    if not (np.all(np.isfinite(qp.w)) and np.all(np.isfinite(qp.z))):
        raise NumericalFailureError("QP coefficients are not finite")
    w, z = qp.w, qp.z
    tol = _RTOL * (2.0 * np.abs(w).max() + np.abs(z).max())
    free = np.array([np.argmin(np.diag(w) + z)])
    mu = np.zeros(qp.m)
    mu[free] = 1.0
    objs = [qp.value(mu)]
    stationary = True
    for _ in range(_MAX_STEPS):
        g = qp.gradient(mu)
        if stationary:
            mult = g - g[free].mean()
            mult[free] = np.inf
            j = np.argmin(mult)
            if mult[j] >= -tol:
                return mu, objs
            free = np.sort(np.append(free, j))
        wf = w[np.ix_(free, free)]
        d, newton = _face_direction(wf, g[free], tol)
        if newton:
            step = 1.0
        else:  # to the blocking bound, unless the direction curves up before it
            curv = d @ wf @ d
            step = -(g[free] @ d) / (2.0 * curv) if curv > 0.0 else np.inf
        shrink = d < 0.0
        ratios = np.full(free.size, np.inf)
        ratios[shrink] = -mu[free][shrink] / d[shrink]
        block = np.argmin(ratios)
        blocked = ratios[block] < step
        mu[free] = np.maximum(mu[free] + min(step, ratios[block]) * d, 0.0)
        if blocked:
            mu[free[block]] = 0.0
            free = np.delete(free, block)
        stationary = free.size == 1 or (newton and not blocked)
        objs.append(qp.value(mu))
    raise NumericalFailureError("active-set solver did not finish in %d steps" % _MAX_STEPS)


def solve_simplex_qp(qp):
    """Minimize the QP over the simplex (``minimize_qp``); returns the weights."""
    mu, _ = minimize_qp(qp)
    return KernelWeights(mu)


def combine(samples, specs, weights):
    """Convex combination sum_t mu_t K_t of the Grams of ``specs`` over
    ``samples``: one ``kernels.gram`` of the weighted kernels, which makes
    one product and evaluates only the kernels of nonzero weight."""
    w = _weights_array(weights, len(specs))
    return kernels.gram(samples, tuple(zip(w, specs)))
