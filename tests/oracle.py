"""Pointwise reference kernels and the brute-force weight objective.

The library builds every kernel value as part of a block (``gram``,
``cross_gram``) and the weight objective as an m x m quadratic form
(``assemble_qp``).  The functions here compute the same quantities one
pair, or one sample, at a time from the closed forms in the
``mlmkl.kernels`` and ``mlmkl.umkl`` docstrings, with ``math`` for the
angular factors, so agreement with the library is evidence, not
tautology.  Only ``KernelSpec`` (the description of a kernel) is shared,
except by ``kernel_block``: it applies the library's elementwise steps in
one pass to a whole block, the reference for the slab-by-slab blocks of
``gram`` and ``cross_gram``, and ``weighted_block`` sums such blocks, one
per kernel, the reference for a weighted combination's one product.
``arc_cosine_block`` builds an arc-cosine block by the angle path, J_n of
theta = arccos(c) with ``kernels.j_n``, the reference for the library's
J_n from the cosine.  The weight objective and the neighbour bases are
computed from the full n x n linear Gram, which the library does not
keep, and ``center_gram`` centres a whole Gram at once and mirrors it, the
reference for the upper triangle of ``kpca.center_gram``.  ``smo`` is the
SVM trainer with its movable sets rebuilt from scratch at every step, the
reference for the incremental bookkeeping of ``svm.train_binary``; it
also keeps the first-order (maximal violating pair) choice of the second
index, which the library no longer makes.  ``load_amat`` and ``write_amat``
are the amat reader and writer that handle one row and one value at a time,
the references for ``mlmkl.data``'s whole-file parse and one-format rows.
"""
import math
import os

import numpy as np

from mlmkl.data import Dataset
from mlmkl.errors import ParseError
from mlmkl.kernels import KernelFamily, _kernel_values, _row_terms, j_n as angle_j_n

# J_n(0) / pi: J_0(0) = pi, J_1(0) = pi, J_2(0) = 3 pi
J0_OVER_PI = {0: 1.0, 1: 1.0, 2: 3.0}


def _pair(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("need two vectors of one length, got %r and %r" % (x.shape, y.shape))
    return x, y


def angle(x, y):
    """Angle in [0, pi] between two nonzero vectors; 0 for equal ones."""
    x, y = _pair(x, y)
    nx = math.sqrt(float(np.dot(x, x)))
    ny = math.sqrt(float(np.dot(y, y)))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angle undefined for a zero vector")
    if np.array_equal(x, y):
        return 0.0
    c = float(np.dot(x, y)) / (nx * ny)
    return math.acos(min(1.0, max(-1.0, c)))


def j_n(theta, degree):
    """Angular factor J_n(theta) of the arc-cosine family for one angle."""
    s, c = math.sin(theta), math.cos(theta)
    if degree == 0:
        return math.pi - theta
    if degree == 1:
        return s + (math.pi - theta) * c
    if degree == 2:
        return 3.0 * s * c + (math.pi - theta) * (1.0 + 2.0 * c * c)
    raise ValueError("arc-cosine degree must be 0, 1 or 2, got %r" % (degree,))


def _level(sq_x, sq_y, inner, degree, identical):
    """One composition level for a single pair: ``sq_x`` and ``sq_y`` are
    the current self-kernel values k(x,x), k(y,y), ``inner`` is k(x,y)."""
    if sq_x <= 0.0 or sq_y <= 0.0:
        raise ValueError("non-positive self-kernel (%r, %r)" % (sq_x, sq_y))
    prod = sq_x * sq_y
    if identical:
        return J0_OVER_PI[degree] * prod ** (degree / 2.0)
    theta = math.acos(min(1.0, max(-1.0, inner / math.sqrt(prod))))
    return prod ** (degree / 2.0) * (j_n(theta, degree) / math.pi)


def arc_cosine(x, y, degree, depth=1):
    """Arc-cosine kernel of activation order ``degree`` composed ``depth``
    times, by the recursion on self-kernels of the kernels docstring."""
    x, y = _pair(x, y)
    sq_x = float(np.dot(x, x))
    sq_y = float(np.dot(y, y))
    if sq_x == 0.0 or sq_y == 0.0:
        raise ValueError("arc-cosine kernel undefined for a zero vector")
    identical = np.array_equal(x, y)
    k = float(np.dot(x, y))
    for _ in range(depth):
        k = _level(sq_x, sq_y, k, degree, identical)
        sq_x = J0_OVER_PI[degree] * sq_x**degree
        sq_y = J0_OVER_PI[degree] * sq_y**degree
    return k


def kernel_block(x_rows, x_cols, spec, same):
    """Kernel block of the rows of ``x_rows`` against those of ``x_cols``
    (the same array when ``same``, whose diagonal is then pinned): the
    elementwise steps over the whole ``x_rows @ x_cols.T`` at once."""
    r = _row_terms(x_rows, spec)
    c = r if same else _row_terms(x_cols, spec)
    return _kernel_values(x_rows @ x_cols.T, r[..., :, None], c[..., None, :], spec,
                          0 if same else None)


def weighted_block(x_rows, x_cols, specs, weights, same):
    """Combined block sum_t weights[t] k_t as whole blocks, one kernel at a
    time: each kernel of nonzero weight gets its own product and
    ``kernel_block``, scaled in place, and the blocks are added in
    ascending t.  The reference for the library's one product per
    weighted block."""
    out = None
    for spec, w in zip(specs, weights):
        if w == 0.0:
            continue
        block = kernel_block(x_rows, x_cols, spec, same)
        block *= w
        if out is None:
            out = block
        else:
            out += block
    return out


def arc_cosine_block(x_rows, x_cols, degree, depth, same):
    """Arc-cosine block of the rows of ``x_rows`` against those of
    ``x_cols`` (the same array when ``same``, whose diagonal is then pinned)
    by the angle path, over the whole block at once: each level's cosines,
    divided and clipped (and pinned) as the library does, become
    theta = arccos(c) and then ``kernels.j_n(theta, degree)``, which takes
    cos and sin of theta again.  The reference for the library's J_n
    computed from the cosine itself."""
    r = np.linalg.norm(x_rows, axis=1)[:, None]
    c = r.T if same else np.linalg.norm(x_cols, axis=1)[None, :]
    c0 = J0_OVER_PI[degree]
    s_rows, s_cols = r * r, c * c
    k = x_rows @ x_cols.T
    for level in range(depth):
        if level == 0:
            scale = r * c
        else:
            s_rows, s_cols = c0 * s_rows**degree, c0 * s_cols**degree
            scale = np.sqrt(s_rows * s_cols)
        k /= scale
        np.clip(k, -1.0, 1.0, out=k)
        if same:
            np.fill_diagonal(k, 1.0)
        k = angle_j_n(np.arccos(k), degree)
        k /= np.pi
        k *= scale**degree
    return k


def gaussian(x, y, gamma):
    """exp(-gamma ||x - y||^2)."""
    x, y = _pair(x, y)
    d = x - y
    return math.exp(-gamma * float(np.dot(d, d)))


def polynomial(x, y, degree, coef0=1.0, scale=1.0):
    """(scale <x, y> + coef0)^degree."""
    x, y = _pair(x, y)
    return (scale * float(np.dot(x, y)) + coef0) ** degree


def linear(x, y):
    """<x, y>."""
    x, y = _pair(x, y)
    return float(np.dot(x, y))


def evaluate(spec, x, y):
    """k(x, y) under a ``KernelSpec``."""
    if spec.family is KernelFamily.ARC_COSINE:
        return arc_cosine(x, y, spec.degree, spec.depth)
    if spec.family is KernelFamily.GAUSSIAN:
        return gaussian(x, y, spec.gamma)
    if spec.family is KernelFamily.POLYNOMIAL:
        return polynomial(x, y, spec.degree, spec.coef0, spec.scale)
    return linear(x, y)


def _linear_gram(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    return x @ x.T


def objective_scalar(x, problem, gamma, mu):
    """J(mu) of the rows ``x`` with the bases and kernel entries of their
    ``UmklProblem``, summed sample by sample from the full linear Gram;
    the reference that the assembled QP must match.

    Accepts any weight vector, on the simplex or off it, so finite
    differences can probe the neighbourhood of a feasible point.
    """
    w = np.asarray(mu, dtype=np.float64)
    if w.shape != (problem.m,):
        raise ValueError("expected %d weights, got shape %r" % (problem.m, w.shape))
    p = _linear_gram(x)
    total = 0.5 * float(np.trace(p))
    for i, b in enumerate(problem.bases.indices):
        # combined kernel entries k(x_j, x_i) at the basis of sample i
        a = sum(wt * problem.entries[i, :, t] for t, wt in enumerate(w))
        # ||x_i - x_j||^2 = P_ii + P_jj - 2 P_ij, clipped at the round-off floor
        dist = np.maximum(p[i, i] + p[b, b] - 2.0 * p[b, i], 0.0)
        total += -float(a @ p[b, i]) + 0.5 * float(a @ p[np.ix_(b, b)] @ a)
        total += gamma * float(a @ dist)
    return total


def qp_from_linear_gram(x, problem, gamma):
    """(w, z, constant) of the weight QP assembled from the full n x n
    linear Gram of the rows ``x``, gathered at the bases of ``problem``:
    the assembly that ``assemble_qp`` must reproduce bit for bit from each
    sample's local Gram alone."""
    p = _linear_gram(x)
    idx = problem.bases.indices
    cols = np.arange(idx.shape[0])[:, None]
    t = problem.entries
    p_sub = p[idx[:, :, None], idx[:, None, :]]
    half = np.einsum("iab,ibt->iat", p_sub, t)
    w = 0.5 * np.einsum("ias,iat->st", t, half)
    w = 0.5 * (w + w.T)
    p_col = p[idx, cols]
    d = np.diag(p)
    v_col = np.maximum(d[idx] + d[cols] - 2.0 * p_col, 0.0)
    z = np.einsum("ia,iat->t", gamma * v_col - p_col, t)
    return w, z, 0.5 * float(np.trace(p))


def local_bases(linear_gram, basis_size):
    """Neighbour bases by a stable sort of every row of squared distances:
    the ``basis_size`` nearest samples, self excluded, ties to the smaller
    index, each row ascending.  The reference for ``build_local_bases``."""
    p = np.asarray(linear_gram, dtype=np.float64)
    d = np.diag(p)
    m = np.maximum(d[:, None] + d[None, :] - 2.0 * p, 0.0)
    np.fill_diagonal(m, np.inf)
    order = np.argsort(m, axis=1, kind="stable")
    return np.sort(order[:, :basis_size], axis=1)


def center_gram(k):
    """Double-centred Gram, its row means and its total mean, over the whole
    matrix at once: k - r_i - r_j + t, then the upper triangle copied onto
    the lower."""
    k = np.asarray(k, dtype=np.float64)
    row_means = k.mean(axis=1)
    total_mean = float(k.mean())
    centered = k - row_means[:, None]
    centered -= row_means[None, :]
    centered += total_mean
    lower = np.tril_indices(k.shape[0], -1)
    centered[lower] = centered.T[lower]
    return centered, row_means, total_mean


def movable(y, alpha, c):
    """Masks of the indices whose alpha can move along +y_i and along -y_i."""
    pos = y > 0
    up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
    down = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
    return up, down


def smo(kv, y, c, tol=1e-3, max_iter=1_000_000, rule=movable, second_order=True):
    """SMO as ``svm.train_binary`` defines it, with both movable masks
    rebuilt by ``rule`` from the whole of alpha at every step: (alpha,
    bias, iterations, converged) for kernel values ``kv`` and +1/-1 labels
    ``y``.  i maximizes f over the up set and the stop rule is the maximal
    violating pair's gap; j is that pair's (the first-order rule) unless
    ``second_order``, when it maximizes (f_i - f_t)^2 / a_it over the t of
    the down set with f_t < f_i, a_it = (K_tt - 2 K_it) + K_ii, summed in
    the order whose bits the library's halved sum has, and clamped below
    at 1e-12.  The library keeps the masks as penalty arrays updated at
    the two moved indices, so bit-for-bit agreement pins that bookkeeping."""
    kv = np.asarray(kv, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = kv.shape[0]
    diag = np.diagonal(kv)
    alpha = np.zeros(n)
    f = y.copy()
    pos = y > 0
    it = 0
    while True:
        can_up, can_dn = rule(y, alpha, c)
        if not (can_up.any() and can_dn.any()):
            violation = 0.0
            break
        i = int(np.argmax(np.where(can_up, f, -np.inf)))
        j = int(np.argmin(np.where(can_dn, f, np.inf)))
        violation = f[i] - f[j]
        if violation <= tol or it == max_iter:
            break
        if second_order:
            below = can_dn & (f < f[i])
            a = np.maximum(diag - 2.0 * kv[i] + diag[i], 1e-12)
            gain = np.where(below, (f[i] - f) ** 2, 0.0) / a
            j = int(np.argmax(gain))
        ai, aj = alpha[i], alpha[j]
        if pos[i] != pos[j]:
            lo, hi = max(0.0, aj - ai), min(c, c + aj - ai)
        else:
            lo, hi = max(0.0, ai + aj - c), min(c, ai + aj)
        eta = kv[i, i] + kv[j, j] - 2.0 * kv[i, j]
        if eta <= 0.0:
            eta = 1e-12
        aj_new = min(hi, max(lo, aj - y[j] * (f[i] - f[j]) / eta))
        d_j = aj_new - aj
        if d_j == 0.0:
            break
        d_i = -y[i] * y[j] * d_j
        snap = 1e-12 * c
        ai_new = min(c, max(0.0, ai + d_i))
        if ai_new < snap:
            ai_new = 0.0
        elif ai_new > c - snap:
            ai_new = c
        if aj_new < snap:
            aj_new = 0.0
        elif aj_new > c - snap:
            aj_new = c
        alpha[i] = ai_new
        alpha[j] = aj_new
        f -= kv[i] * (y[i] * d_i) + kv[j] * (y[j] * d_j)
        it += 1
    converged = violation <= tol
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        bias = float(f[free].mean())
    else:
        can_up, can_dn = rule(y, alpha, c)
        hi = float(np.max(f[can_up])) if can_up.any() else 0.0
        lo = float(np.min(f[can_dn])) if can_dn.any() else 0.0
        bias = 0.5 * (hi + lo)
    return alpha, bias, it, converged


_COLUMNS = 785  # 784 pixels, then the label


def load_amat(path):
    """Parse an amat file, preserving row order."""
    rows = []
    labels = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue  # tolerate blank lines (common as trailing newline)
            if len(parts) != _COLUMNS:
                raise ParseError(
                    "expected %d values per row, got %d" % (_COLUMNS, len(parts)),
                    line=lineno,
                )
            try:
                values = np.array(parts, dtype=np.float64)
            except ValueError:
                raise ParseError("non-numeric value in row", line=lineno) from None
            if not np.all(np.isfinite(values)):
                raise ParseError("non-finite value in row", line=lineno)
            label = values[-1]
            if label != int(label) or not 0 <= label <= 9:
                raise ParseError("label %g is not a digit class" % label, line=lineno)
            rows.append(np.clip(values[:-1], 0.0, 1.0))
            labels.append(int(label))
    if not rows:
        raise ParseError("no samples in %r" % path)
    return Dataset(
        features=np.vstack(rows),
        labels=np.array(labels, dtype=np.int64),
        name=os.path.basename(path),
    )


def write_amat(dataset, path):
    """Write rows back out in the amat layout (load_amat inverts this)."""
    with open(path, "w") as fh:
        for x, y in zip(dataset.features, dataset.labels):
            fh.write(" ".join("%.10g" % v for v in x))
            fh.write(" %d\n" % y)
