"""Kernel support vector machines trained by sequential minimal optimization.

The binary trainer minimizes the standard dual

    D(alpha) = 1/2 alpha^T Q alpha - sum_i alpha_i,
    Q_ij = y_i y_j K_ij,   0 <= alpha_i <= C,   sum_i alpha_i y_i = 0

by repeatedly picking the maximal violating pair: with f = y - K(alpha o y)
(so f_i = -E_i, the negative prediction error), select i maximizing f over
the set of indices whose alpha can increase along +y_i and j minimizing f
over those that can decrease, stop when f_i - f_j <= tol, and solve the
two-variable subproblem in closed form with box clipping.  The two sets
are kept from step to step as penalties, 0 on the set and -inf (up) or
+inf (down) off it, updated only at the two indices a step moves, so each
selection is one argmax of f + penalty (f + 0.0 is f up to the sign of a
zero, which argmax does not see) and the f update runs in two buffers.
The bias is the mean of f over free support vectors when any exist,
otherwise the midpoint of the final violating pair.

Multiclass classification is one-vs-rest over ascending class ids with
prediction by maximal decision value; argmax resolves ties toward the
smaller class id.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import ClassifierConfig, _real
from .errors import DegenerateLabelsError, ShapeError
from .kernels import GramMatrix, _gram_values

__all__ = [
    "BinarySvm",
    "SvmModel",
    "train_binary",
    "train_multiclass",
    "decision_values",
    "predict",
    "kkt_violation",
    "dual_objective",
]


def _signed_labels(y, n):
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ShapeError("labels shape %r does not match %d samples" % (y.shape, n))
    pos = y == 1.0
    neg = y == -1.0
    if not np.all(pos | neg):
        raise ValueError("binary labels must be +1/-1")
    if not (pos.any() and neg.any()):
        raise DegenerateLabelsError("both classes must be present")
    return y


@dataclass
class BinarySvm:
    alpha: np.ndarray  # (n,) in [0, C]
    bias: float
    iterations: int
    converged: bool


def _movable(y, alpha, c):
    """Whether each alpha can move along +y_i and along -y_i, given the
    +1/-1 labels: masks for arrays, booleans for one index."""
    pos, neg = y > 0, y < 0
    up = (pos & (alpha < c)) | (neg & (alpha > 0.0))
    down = (pos & (alpha > 0.0)) | (neg & (alpha < c))
    return up, down


def train_binary(k, y, c, tol=ClassifierConfig.tol, max_iter=1_000_000):
    """Train one binary machine on a precomputed kernel matrix."""
    kv = _gram_values(k)
    n = kv.shape[0]
    y = _signed_labels(y, n)
    # ClassifierConfig's checks: an infinite C snaps every alpha update to 0,
    # an infinite tol stops at once with alpha = 0
    c, tol = _real("C", c, positive=True), _real("tol", tol, positive=True)
    alpha = np.zeros(n)
    f = y.copy()  # f = y - K (alpha o y), currently alpha = 0
    # the movable sets as penalties added to f before the arg-extremum:
    # 0 on the set, -inf (up) or +inf (down) off it, and the set sizes
    can_up, can_dn = _movable(y, alpha, c)
    pen_up = np.where(can_up, 0.0, -np.inf)
    pen_dn = np.where(can_dn, 0.0, np.inf)
    n_up, n_dn = int(can_up.sum()), int(can_dn.sum())
    buf, step = np.empty(n), np.empty(n)
    violation = np.inf
    it = 0
    while it < max_iter:
        if not (n_up and n_dn):
            violation = 0.0
            break
        i = int(np.add(f, pen_up, out=buf).argmax())
        j = int(np.add(f, pen_dn, out=buf).argmin())
        # the pair's scalars as Python floats: numpy's IEEE arithmetic
        # without its per-scalar overhead
        violation = float(f[i] - f[j])
        if violation <= tol:
            break
        yi, yj = float(y[i]), float(y[j])
        ai, aj = float(alpha[i]), float(alpha[j])
        if yi != yj:
            lo, hi = max(0.0, aj - ai), min(c, c + aj - ai)
        else:
            lo, hi = max(0.0, ai + aj - c), min(c, ai + aj)
        eta = float(kv[i, i] + kv[j, j] - 2.0 * kv[i, j])
        if eta <= 0.0:
            eta = 1e-12
        aj_new = min(hi, max(lo, aj - yj * violation / eta))
        d_j = aj_new - aj
        if d_j == 0.0:
            break  # fp-empty box (kernel scale swamps the step); stop honestly
        d_i = -yi * yj * d_j
        # snap to the box edge when an update lands within round-off of it,
        # otherwise a variable 1 ulp inside the bound can stall later pairs
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
        # f -= kv[i] * (y_i d_i) + kv[j] * (y_j d_j), without temporaries
        np.multiply(kv[i], yi * d_i, out=buf)
        np.multiply(kv[j], yj * d_j, out=step)
        buf += step
        f -= buf
        for t, y_t, before, after in ((i, yi, ai, ai_new), (j, yj, aj, aj_new)):
            was_up, was_dn = _movable(y_t, before, c)
            up, down = _movable(y_t, after, c)
            if up != was_up:
                n_up += 1 if up else -1
                pen_up[t] = 0.0 if up else -np.inf
            if down != was_dn:
                n_dn += 1 if down else -1
                pen_dn[t] = 0.0 if down else np.inf
        it += 1
    converged = violation <= tol
    if not converged:
        warnings.warn(
            "SMO stopped after %d iterations with violation %g" % (it, violation),
            stacklevel=2,
        )
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        bias = float(f[free].mean())
    else:
        can_up, can_dn = _movable(y, alpha, c)
        hi = float(np.max(f[can_up])) if can_up.any() else 0.0
        lo = float(np.min(f[can_dn])) if can_dn.any() else 0.0
        bias = 0.5 * (hi + lo)
    return BinarySvm(alpha=alpha, bias=bias, iterations=it, converged=converged)


def kkt_violation(k, y, alpha, c):
    """Largest violating-pair gap of a dual point; <= 0 means optimal."""
    kv = _gram_values(k)
    y = _signed_labels(y, kv.shape[0])
    alpha = np.asarray(alpha, dtype=np.float64)
    f = y - kv @ (alpha * y)
    can_up, can_dn = _movable(y, alpha, c)
    if not (can_up.any() and can_dn.any()):
        return 0.0
    return float(np.max(f[can_up]) - np.min(f[can_dn]))


def dual_objective(k, y, alpha):
    """1/2 (alpha o y)^T K (alpha o y) - sum alpha."""
    kv = _gram_values(k)
    y = _signed_labels(y, kv.shape[0])
    alpha = np.asarray(alpha, dtype=np.float64)
    s = alpha * y
    return 0.5 * float(s @ kv @ s) - float(alpha.sum())


@dataclass
class SvmModel:
    """One-vs-rest multiclass machine over a shared support set.

    ``dual_coef[r, s]`` is alpha_s * y_s of machine r restricted to the
    support indices; prediction of a cross-kernel block against the
    support set is ``cross @ dual_coef.T + biases``.  ``support_vectors``
    optionally carries the support samples in whatever representation
    the kernel expects, so the model can be applied to raw new points.
    """

    classes: np.ndarray  # (r,) ascending class ids
    support: np.ndarray  # (s,) indices into the training set
    dual_coef: np.ndarray  # (r, s)
    biases: np.ndarray  # (r,)
    c: float
    kernel: object = None  # KernelSpec used on the feature representation
    support_vectors: np.ndarray | None = None
    iterations: tuple = field(default_factory=tuple)

    def __post_init__(self):
        r, s = self.classes.shape[0], self.support.shape[0]
        sv = self.support_vectors
        if (
            self.classes.ndim != 1
            or self.support.ndim != 1
            or self.dual_coef.shape != (r, s)
            or self.biases.shape != (r,)
            or (sv is not None and (sv.ndim != 2 or sv.shape[0] != s))
        ):
            raise ShapeError(
                "classes %r, support %r, dual_coef %r, biases %r and support vectors %r disagree"
                % (self.classes.shape, self.support.shape, self.dual_coef.shape,
                   self.biases.shape, None if sv is None else sv.shape)
            )

    @property
    def n_support(self):
        return self.support.size


def train_multiclass(k, y, c=ClassifierConfig.c, tol=ClassifierConfig.tol, kernel=None):
    """One binary machine per class, sharing one support index set."""
    if not isinstance(k, GramMatrix):
        k = GramMatrix(np.asarray(k, dtype=np.float64))  # checked once for all machines
    n = k.n
    y = np.asarray(y)
    if y.shape != (n,):
        raise ShapeError("labels shape %r does not match %d samples" % (y.shape, n))
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateLabelsError("need at least two classes, got %d" % classes.size)
    coef_full = np.zeros((classes.size, n))
    biases = np.zeros(classes.size)
    iterations = []
    for r, cls in enumerate(classes):
        yb = np.where(y == cls, 1.0, -1.0)
        machine = train_binary(k, yb, c, tol=tol)
        coef_full[r] = machine.alpha * yb
        biases[r] = machine.bias
        iterations.append(machine.iterations)
    support = np.nonzero(np.any(coef_full != 0.0, axis=0))[0]
    return SvmModel(
        classes=classes.astype(np.int64, copy=False)
        if np.issubdtype(classes.dtype, np.integer)
        else classes,
        support=support.astype(np.int64),
        dual_coef=coef_full[:, support].copy(),
        biases=biases,
        c=float(c),
        kernel=kernel,
        iterations=tuple(iterations),
    )


def decision_values(model, cross):
    """Per-class decision values for kernel rows against the support set."""
    c = np.asarray(cross, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != model.n_support:
        raise ShapeError(
            "cross matrix must be (t, %d), got shape %r" % (model.n_support, c.shape)
        )
    return c @ model.dual_coef.T + model.biases[None, :]


def predict(model, cross):
    """Class ids with the largest decision value, ties to the smaller id."""
    d = decision_values(model, cross)
    if d.shape[0] == 0:
        return model.classes[:0].copy()
    return model.classes[np.argmax(d, axis=1)]
