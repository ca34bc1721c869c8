"""Kernel support vector machines trained by sequential minimal optimization.

The binary trainer minimizes the standard dual

    D(alpha) = 1/2 alpha^T Q alpha - sum_i alpha_i,
    Q_ij = y_i y_j K_ij,   0 <= alpha_i <= C,   sum_i alpha_i y_i = 0

two variables at a time.  With f = y - K(alpha o y) (so f_i = -E_i, the
negative prediction error), each step takes i maximizing f over the set of
indices whose alpha can increase along +y_i, and j by the second-order
rule of Fan, Chen & Lin (JMLR 2005): over the t that can decrease along
-y_t with f_t < f_i, the largest gain (f_i - f_t)^2 / a_it, with
a_it = K_ii + K_tt - 2 K_it clamped below at 1e-12, which is twice
the decrease of D that the pair's unclipped step would make.  It then solves
the two-variable subproblem in closed form with box clipping.  The stop
rule is the maximal violating pair's: stop when f_i - min f over the
decreasing set <= tol, which is what ``kkt_violation`` measures.  The
penalties alone hold the two sets from step to step: 0 on the set and
-inf (up) or +inf (down) off it, rewritten only at the two indices a step
moves, so each extremum is one arg-extremum of f + penalty (f + 0.0 is f
up to the sign of a zero, which argmax does not see), a set is empty
exactly when its arg-extremum lands on an infinite penalty, and the
gain and the f update each run in the same two buffers.
The bias is the mean of f over free support vectors when any exist,
otherwise the midpoint of the final violating pair.

The trainers read the kernel a row at a time, ``k[i]``, from a dense Gram
(a ``GramMatrix`` or an array, checked for exact symmetry) or from a
``KernelRows`` that computes each row the first time it is read; one
source is shared by all machines of a multiclass train, so a row is
computed once.  The gain reads half the kernel's diagonal, taken once
per machine from a dense Gram's diagonal or from ``KernelRows.diagonal``,
which is computed once per source without any row.  A step reads rows i and j, and eta = k_i[i] +
k_j[j] - 2 k_i[j].  ``kkt_violation`` and ``dual_objective`` take a dense
Gram.

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
from .featsel import check_labels
from .kernels import GramMatrix, KernelRows, _gram_values

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
    violation: float  # the final gap f_i - f_j of the maximal violating pair


def _movable(y, alpha, c):
    """Whether each alpha can move along +y_i and along -y_i, given the
    +1/-1 labels: masks for arrays, booleans for one index."""
    pos, neg = y > 0, y < 0
    up = (pos & (alpha < c)) | (neg & (alpha > 0.0))
    down = (pos & (alpha > 0.0)) | (neg & (alpha < c))
    return up, down


def _snapped(a, c):
    """``a`` put in the box [0, C], at its edge when within round-off of
    it: a variable 1 ulp inside a bound can stall later pairs."""
    snap = 1e-12 * c
    return 0.0 if a < snap else c if a > c - snap else a


def train_binary(k, y, c, tol=ClassifierConfig.tol, max_iter=1_000_000):
    """Train one binary machine on a kernel's rows: a dense Gram or a
    ``KernelRows``.  The machine's ``violation`` is the maximal violating
    pair's gap at the alphas returned, also after ``max_iter`` steps; it is
    <= tol exactly when ``converged``."""
    rows = k if isinstance(k, KernelRows) else _gram_values(k)
    n = len(rows)
    y = _signed_labels(y, n)
    # ClassifierConfig's checks: an infinite C snaps every alpha update to 0,
    # an infinite tol stops at once with alpha = 0
    c, tol = _real("C", c, positive=True), _real("tol", tol, positive=True)
    alpha = np.zeros(n)
    f = y.copy()  # f = y - K (alpha o y), currently alpha = 0
    # half the diagonal, for a_it / 2 = (K_tt / 2 - K_it) + K_ii / 2 in two
    # passes; halving is exact, so the gain (f_i - f_t)^2 / (a_it / 2) is
    # exactly twice (f_i - f_t)^2 / a_it and has the same argmax
    half = 0.5 * (rows.diagonal if isinstance(rows, KernelRows) else np.diagonal(rows))
    # the movable sets, held only as penalties added to f before the
    # arg-extremum: 0 on the set, -inf (up) or +inf (down) off it
    can_up, can_dn = _movable(y, alpha, c)
    pen_up = np.where(can_up, 0.0, -np.inf)
    pen_dn = np.where(can_dn, 0.0, np.inf)
    buf, step = np.empty(n), np.empty(n)
    it = 0
    while True:
        i = int(np.add(f, pen_up, out=buf).argmax())
        j = int(np.add(f, pen_dn, out=buf).argmin())
        if pen_up[i] or pen_dn[j]:  # an empty set: its extremum is off it
            violation = 0.0
            break
        # the pair's scalars as Python floats: numpy's IEEE arithmetic
        # without its per-scalar overhead
        fi = float(f[i])
        violation = fi - float(f[j])
        if violation <= tol or it == max_iter:
            break
        ki = rows[i]
        # j maximizes the gain (f_i - f_t)^2 / a_it over the down set, in
        # the two buffers: f_i - (f + pen_dn) is -inf off the set, and the
        # clip at 0 drops it and every t with f_t >= f_i; the minimal f
        # has gain > 0, as f_i - f_min > tol
        np.subtract(fi, buf, out=buf)
        np.maximum(buf, 0.0, out=buf)
        buf *= buf
        # a_it / 2, with a_it clamped below at 1e-12, eta's floor
        np.subtract(half, ki, out=step)
        step += half[i]
        np.maximum(step, 0.5e-12, out=step)
        buf /= step
        j = int(buf.argmax())
        kj = rows[j]
        yi, yj = float(y[i]), float(y[j])
        ai, aj = float(alpha[i]), float(alpha[j])
        if yi != yj:
            lo, hi = max(0.0, aj - ai), min(c, c + aj - ai)
        else:
            lo, hi = max(0.0, ai + aj - c), min(c, ai + aj)
        eta = float(ki[i] + kj[j] - 2.0 * ki[j])
        if eta <= 0.0:
            eta = 1e-12
        aj_new = min(hi, max(lo, aj - yj * (fi - float(f[j])) / eta))
        d_j = aj_new - aj
        if d_j == 0.0:
            break  # fp-empty box (kernel scale swamps the step); stop honestly
        d_i = -yi * yj * d_j
        alpha[i] = ai_new = _snapped(ai + d_i, c)
        alpha[j] = aj_new = _snapped(aj_new, c)
        # f -= k_i * (y_i d_i) + k_j * (y_j d_j), without temporaries
        np.multiply(ki, yi * d_i, out=buf)
        np.multiply(kj, yj * d_j, out=step)
        buf += step
        f -= buf
        for t, y_t, a_t in ((i, yi, ai_new), (j, yj, aj_new)):
            up, down = _movable(y_t, a_t, c)
            pen_up[t] = 0.0 if up else -np.inf
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
    return BinarySvm(alpha=alpha, bias=bias, iterations=it, converged=converged,
                     violation=violation)


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
    # per machine, in class order, as ``train_multiclass`` left them; a
    # loaded model has none
    iterations: tuple = field(default_factory=tuple)
    converged: tuple = field(default_factory=tuple)
    violations: tuple = field(default_factory=tuple)

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
    """One binary machine per class, sharing one support index set and
    one kernel: a dense Gram or a ``KernelRows``, whose rows all machines
    share."""
    if not isinstance(k, (GramMatrix, KernelRows)):
        k = GramMatrix(np.asarray(k, dtype=np.float64))  # checked once for all machines
    n = k.n
    y, classes = check_labels(y, n)
    coef_full = np.zeros((classes.size, n))
    biases = np.zeros(classes.size)
    machines = []
    for r, cls in enumerate(classes):
        yb = np.where(y == cls, 1.0, -1.0)
        machine = train_binary(k, yb, c, tol=tol)
        coef_full[r] = machine.alpha * yb
        biases[r] = machine.bias
        machines.append(machine)
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
        iterations=tuple(m.iterations for m in machines),
        converged=tuple(m.converged for m in machines),
        violations=tuple(m.violation for m in machines),
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
    return model.classes[np.argmax(decision_values(model, cross), axis=1)]
