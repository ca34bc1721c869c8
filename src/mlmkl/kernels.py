"""Base kernel families and Gram matrix construction.

Four families are supported: linear, polynomial, Gaussian and the
arc-cosine family.  The arc-cosine kernel of activation order n between
x and y is

    k_n(x, y) = (1/pi) ||x||^n ||y||^n J_n(theta),   theta = angle(x, y)

with the closed-form angular factors

    J_0(theta) = pi - theta
    J_1(theta) = sin(theta) + (pi - theta) cos(theta)
    J_2(theta) = 3 sin(theta) cos(theta) + (pi - theta)(1 + 2 cos^2(theta))

and composes with itself to imitate a deep network: given the level-L
values, the level-(L+1) kernel is

    k^(L+1)(x, y) = (1/pi) [k^(L)(x,x) k^(L)(y,y)]^(n/2) J_n(theta^(L))

where theta^(L) is the angle induced by the level-L kernel.  Degree 0
produces values in [0, 1] independent of input scale; degree 1 of a
vector with itself reproduces ||x||^2 at every level.

Every block (``gram``, ``cross_gram``) is one matmul of dot products,
``x_rows @ x_cols.T``, which becomes the output; the family's elementwise
steps (the arc-cosine levels below; or the squared distance and exp) then
run on it slab by slab, a few rows of about ``_SLAB_BYTES`` at a time, in
place.  Each step is elementwise, so a slab gets the bits the whole block
would get in one pass, while its operands stay in cache and no temporary
is bigger than a slab: a block peaks at its output plus a few slabs.  A
caller may finish each slab there too, by a rule that treats each row on
its own (kernel PCA centres a layer's cross so, ``pipeline._project``).
The dot products themselves are not computed per slab: a product of a few
rows does not always have the bits of those rows of the whole product.

The arc-cosine levels run in cosine space.  A row's level-L self-kernel is
J_n(0)/pi times the level before's to the n (J_n(0) = pi, pi, 3 pi), so
the scale of a level-L value, [k^(L)(x,x) k^(L)(y,y)]^(1/2), is J_n(0)/pi
times the scale^n that the level-L value carries, and the next level's
cosine is exactly J_n(theta^(L)) / J_n(0): no level but the first and the
last needs a scale.  A block makes the first cosines as the dots over
||x|| ||y||, then per level clips, pins, takes J_n from the cosine with
one arccos and multiplies by 1/J_n(0), or at the last level by 1/pi, and
then by (a_x a_y)^n, where a_x^2 is x's self-kernel at the level before
the last: at depth 1 a_x is ||x|| and the first level's scale serves
again.  The norms and a are made once per row set (``_row_terms``), so no
entry is divided by a scale or square-rooted after the first level.

A layer's kernel is a weighted combination sum_t w_t k_t, and it too is
one product per weighted block: ``gram`` and ``cross_gram`` take (w_t,
k_t) pairs, evaluate each kernel of nonzero weight on a copy of each
slab's dot products (the last kernel on the slab itself) and sum the
weighted values in ascending t, with the bits of summing each kernel's
own whole block.

Numerical care: arccos is ill-conditioned near cos = 1, so a dot-product
round-off of one ulp turns into an angle of ~1e-8.  Same-set Gram
construction therefore pins theta = 0 on the diagonal at every
composition level, and ``evaluate`` takes a pair of exactly equal
inputs as a one-row Gram, so their angle is pinned too.  The diagonals
are exact because of it: a pinned level's J_n is J_n(0) exactly, so the
last level's J_n (1/pi) is exactly 1 for degrees 0 and 1, which makes the
degree-0 diagonal exactly 1 and the degree-1 one exactly a_x a_x, the
squared norm at every depth (each later self-kernel of degree 1 is
||x||^2 again, and sqrt(||x||^2) is ||x|| itself).  An unpinned duplicate
costs degree 0 only: J_0 has slope -1 at theta = 0, so its value moves by
~1e-8 at the first level and ~4e-5 at the second, while J_1 and J_2 are
flat there and their duplicates stay at round-off.  The arc-cosine
factors of a row set, its norms and each later level's self-kernels, are
made once per set (``_row_terms``), and its range is checked there: a set
whose scales, or the power of them that scales the values, leave the
normal float range raises ``DegenerateRecursionError``, as its values
would be zeros, inf or NaN.  Two sets that pass bound every pair between
them, so no block, slab or kernel row is checked again.  A row that is
not all zeros is no zero row, even when its norm underflows: it fails the
range check.
"""
from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateRecursionError,
    ParseError,
    ShapeError,
    UnsupportedDegreeError,
    ZeroVectorError,
)

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "GramMatrix",
    "KernelRows",
    "parse_kernel",
    "j_n",
    "gram",
    "cross_gram",
    "evaluate",
]

# J_n(0) / pi, exact: J_0(0) = pi, J_1(0) = pi, J_2(0) = 3*pi.
_J0_OVER_PI = {0: 1.0, 1: 1.0, 2: 3.0}
# 1 / J_n(0), which turns a level's J_n into the next level's cosine, and
# 1 / pi, which the last level's J_n is multiplied by: a product by 1/pi
# costs about a third of a division by pi, and it is exact at J_n(0),
# since pi (1/pi) and (3 pi)(1/pi) round to exactly 1 and 3
_INV_J0 = {n: 1.0 / (v * math.pi) for n, v in _J0_OVER_PI.items()}
_INV_PI = 1.0 / math.pi


def _check_degree(degree):
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
        raise UnsupportedDegreeError("degree must be an integer, got %r" % (degree,))
    if degree not in (0, 1, 2):
        raise UnsupportedDegreeError(
            "arc-cosine degree must be 0, 1 or 2, got %d" % degree
        )


class KernelFamily(Enum):
    ARC_COSINE = "arccos"
    GAUSSIAN = "rbf"
    POLYNOMIAL = "poly"
    LINEAR = "linear"


def _fmt_num(value):
    # integers print bare so that canonical strings stay short and stable
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return "%d" % int(f)
    return repr(f)


@dataclass(frozen=True)
class KernelSpec:
    """Tagged description of one base kernel.

    Only the fields relevant to ``family`` matter; the rest keep their
    defaults and are ignored.  ``degree`` is the activation order n for
    the arc-cosine family and the exponent for the polynomial family;
    ``depth`` is the number of arc-cosine composition levels L.
    """

    family: KernelFamily
    degree: int = 0
    depth: int = 1
    gamma: float = 1.0
    coef0: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family is KernelFamily.ARC_COSINE:
            _check_degree(self.degree)
            if not isinstance(self.depth, (int, np.integer)) or self.depth < 1:
                raise ValueError("depth must be a positive integer, got %r" % (self.depth,))
        elif self.family is KernelFamily.GAUSSIAN:
            if not 0 < self.gamma < np.inf:
                raise ValueError("rbf gamma must be positive and finite, got %r" % (self.gamma,))
        elif self.family is KernelFamily.POLYNOMIAL:
            if not isinstance(self.degree, (int, np.integer)) or self.degree < 1:
                raise ValueError(
                    "polynomial degree must be a positive integer, got %r" % (self.degree,)
                )
            if not 0 < self.scale < np.inf:
                raise ValueError(
                    "polynomial scale must be positive and finite, got %r" % (self.scale,)
                )
            if not np.isfinite(self.coef0):
                raise ValueError("polynomial coef0 must be finite, got %r" % (self.coef0,))

    def canonical(self):
        """Unambiguous text form; ``parse_kernel`` inverts it exactly."""
        params = ",".join(
            "%s=%s" % (key, "%d" % getattr(self, f) if integer else _fmt_num(getattr(self, f)))
            for key, f, integer, _ in _PARAMS[self.family]
        )
        return "%s(%s)" % (self.family.value, params) if params else self.family.value

    def __str__(self):
        return self.canonical()


# Each family's parameters in text order: (text key, KernelSpec field,
# integer?, default when the text leaves it out).  ``canonical`` writes
# them and ``parse_kernel`` reads them, so each inverts the other.
_PARAMS = {
    KernelFamily.ARC_COSINE: (("n", "degree", True, 0), ("L", "depth", True, 1)),
    KernelFamily.GAUSSIAN: (("gamma", "gamma", False, 1.0),),
    KernelFamily.POLYNOMIAL: (
        ("degree", "degree", True, 2), ("coef0", "coef0", False, 1.0),
        ("scale", "scale", False, 1.0),
    ),
    KernelFamily.LINEAR: (),
}

_FAMILY_ALIASES = {
    "arccos": KernelFamily.ARC_COSINE,
    "arc_cosine": KernelFamily.ARC_COSINE,
    "rbf": KernelFamily.GAUSSIAN,
    "gaussian": KernelFamily.GAUSSIAN,
    "poly": KernelFamily.POLYNOMIAL,
    "polynomial": KernelFamily.POLYNOMIAL,
    "linear": KernelFamily.LINEAR,
}

_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def parse_kernel(text):
    """Parse a kernel description like ``arccos(n=1,L=2)`` or ``rbf(gamma=0.01)``."""
    if not isinstance(text, str):
        raise ParseError("kernel spec must be a string, got %r" % (text,))
    m = _SPEC_RE.match(text)
    if m is None:
        raise ParseError("cannot parse kernel spec %r" % text)
    name, body = m.group(1), m.group(2)
    family = _FAMILY_ALIASES.get(name)
    if family is None:
        raise ParseError("unknown kernel family %r in %r" % (name, text))
    params = {}
    if body:
        for piece in body.split(","):
            if "=" not in piece:
                raise ParseError("expected key=value, got %r in %r" % (piece, text))
            key, _, raw = piece.partition("=")
            key = key.strip()
            raw = raw.strip()
            try:
                value = float(raw)
            except ValueError:
                raise ParseError("bad numeric value %r in %r" % (raw, text)) from None
            if key in params:
                raise ParseError("repeated parameter %r in %r" % (key, text))
            params[key] = value

    fields = {}
    for key, field, integer, default in _PARAMS[family]:
        value = params.pop(key, default)
        if integer:
            if not float(value).is_integer():  # False for inf and nan too
                raise ParseError("%s must be an integer in %r" % (key, text))
            value = int(value)
        fields[field] = value
    try:
        spec = KernelSpec(family, **fields)
    except (ValueError, UnsupportedDegreeError) as exc:
        raise ParseError("invalid kernel parameters in %r: %s" % (text, exc)) from None
    if params:
        raise ParseError("unknown parameter %r for %s in %r" % (sorted(params)[0], name, text))
    return spec


# ---------------------------------------------------------------------------
# Gram matrices


def j_n(theta, degree):
    """Angular factor J_n(theta) of the arc-cosine family, n in {0, 1, 2}.

    Accepts a scalar or an ndarray of angles in [0, pi].  This is the
    closed form in theta, which the test oracle uses; kernel blocks
    evaluate J_n from the cosine instead (``_j_n_of_cosine``).
    """
    _check_degree(degree)
    t = np.asarray(theta, dtype=np.float64)
    if degree == 0:
        out = np.pi - t
    elif degree == 1:  # sin(t) + (pi - t) cos(t), bit for bit, with fewer temporaries
        out = np.cos(t)
        out *= np.pi - t
        out += np.sin(t)
    else:
        c = np.cos(t)
        out = 3.0 * np.sin(t) * c + (np.pi - t) * (1.0 + 2.0 * c * c)
    if out.ndim == 0:
        return float(out)
    return out


# Bytes of one slab: a pass over a large matrix (a kernel block, the
# symmetry check, neighbour distances, kPCA centring) walks it a few rows
# of this size at a time, so each step runs on an array that stays in a
# core's cache and no temporary is bigger.
_SLAB_BYTES = 256 * 1024


def _slab_rows(n_cols):
    """Rows per slab of a matrix with ``n_cols`` columns, at least one."""
    return max(1, _SLAB_BYTES // (8 * n_cols))


@dataclass(frozen=True)
class GramMatrix:
    """Square kernel matrix over one sample set, exactly symmetric.

    The constructor is the one place that checks exact symmetry, a slab
    of rows against the same columns at a time: every pair is compared,
    and a NaN anywhere, the diagonal included, fails.
    """

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not isinstance(v, np.ndarray) or v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError("Gram matrix must be square 2-d, got %r" % (np.shape(v),))
        if v.shape[0] < 1:
            raise ShapeError("Gram matrix needs at least one sample")
        if v.dtype != np.float64:
            raise ShapeError("Gram matrix must be float64, got %s" % v.dtype)
        n = v.shape[0]
        step = _slab_rows(n)
        for s in range(0, n, step):
            if not np.array_equal(v[s:s + step, s:], v[s:, s:s + step].T):
                raise ShapeError("Gram matrix is not exactly symmetric")

    @property
    def n(self):
        return self.values.shape[0]


def _gram_values(k):
    """Values of a kernel matrix: a GramMatrix's as they are, a raw
    array's once its GramMatrix has checked them."""
    if not isinstance(k, GramMatrix):
        k = GramMatrix(np.asarray(k, dtype=np.float64))
    return k.values


def _as_matrix(x, name):
    """Rows as a float64 matrix, copied only when strided: numpy computes
    ``x @ x.T`` exactly symmetric when ``x`` is C- or F-contiguous, not
    always when it is strided."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError("%s must be 2-d (samples x features), got shape %r" % (name, arr.shape))
    if not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        arr = np.ascontiguousarray(arr)
    return arr


def _nonzero_rows(x):
    """``x``, whose rows the arc-cosine kernel needs nonzero: the first
    zero row raises ``ZeroVectorError``.  Only a row whose entries are all
    zero is one: a norm that underflows to 0 or overflows to inf fails the
    kernel's range check instead."""
    zero = ~x.any(axis=1)
    if zero.any():
        raise ZeroVectorError("arc-cosine kernel undefined for zero row", int(np.argmax(zero)))
    return x


def _row_terms(x, spec):
    """What each row of ``x`` brings to its kernel values: squared norms
    for rbf, zeros for the linear and polynomial kernels, and for
    arc-cosine a (2, n) array: each row's norm ||x||, which turns dot
    products into the first level's cosines, and a, where a**2 is the
    self-kernel that the last level scales by: a is the norm at depth 1
    and the square root of the last level factor after it.  The level
    factors are what ``_check_scale`` reads: the row norms, then each later
    level's self-kernels J_n(0)/pi s**n, where s is the level before's
    self-kernel (at level 2, the squared norm).  An arc-cosine row set's
    range is checked here, once; one without rows has nothing to check."""
    if spec.family is KernelFamily.ARC_COSINE:
        f = np.empty((spec.depth, x.shape[0]))
        with np.errstate(over="ignore"):  # an overflow fails the range check
            s = f[0] = np.linalg.norm(_nonzero_rows(x), axis=1)
            for level in range(1, spec.depth):
                s = f[level] = _J0_OVER_PI[spec.degree] * (s * s if level == 1 else s)**spec.degree
        if x.shape[0]:
            _check_scale(f, spec.degree)
        return np.stack([f[0], f[0] if spec.depth == 1 else np.sqrt(f[-1])])
    if spec.family is KernelFamily.GAUSSIAN:
        return np.einsum("ij,ij->i", x, x)
    return np.zeros(x.shape[0])


def _j_n_of_cosine(c, degree):
    """J_n(arccos c), in place, from clipped cosines ``c``: cos(theta) is c
    itself, sin(theta) is sqrt((1 - c)(1 + c)) and one arccos gives
    pi - theta, where ``j_n`` of arccos(c) takes three transcendental
    passes.  (1 - c)(1 + c) rather than 1 - c*c keeps sin(theta) as
    accurate as sin(arccos(c)) near c = -1.  At c = 1 both sin(theta) and
    theta are exactly 0, so J_n(0) = pi, pi, 3 pi exactly; degree 0 is
    ``j_n``'s own pi - theta, bit for bit.
    """
    if degree == 0:
        return np.subtract(np.pi, np.arccos(c, out=c), out=c)
    sin = np.subtract(1.0, c)
    sin *= np.add(1.0, c)
    np.sqrt(sin, out=sin)
    pi_minus_theta = np.arccos(c)
    np.subtract(np.pi, pi_minus_theta, out=pi_minus_theta)
    if degree == 1:  # sin + (pi - theta) c
        c *= pi_minus_theta
        c += sin
        return c
    # 3 sin c + (pi - theta)(1 + 2 c^2)
    sin *= 3.0
    sin *= c
    c *= c
    c *= 2.0
    c += 1.0
    c *= pi_minus_theta
    c += sin
    return c


def _check_scale(factors, degree):
    """Raise ``DegenerateRecursionError`` unless every arc-cosine level of
    one row set, its ``factors`` as ``_row_terms`` makes them, has scales
    in the normal float range, outside which its values would be zeros,
    inf or NaN.  A level's scale is the product of two rows' factors (under
    a square root after level 1), and J_n(0)/pi scale**degree bounds its
    values.  IEEE products and roots are monotone, so the factors'
    extremes bound every pair of the set, and two sets that pass bound
    every pair between them too: checking each row set once covers every
    block of them.  The check reads the extremes alone, as Python floats,
    which overflow to inf without a warning.  2**-1022 is the least normal
    float."""
    for level, s in enumerate(factors, 1):
        p = tuple(float(v) * float(v) for v in (s.min(), s.max()))
        lo, hi = map(math.sqrt, p) if level > 1 else p
        bounds = (*p, math.prod([lo] * degree), _J0_OVER_PI[degree] * math.prod([hi] * degree))
        if not all(2.0**-1022 <= b < math.inf for b in bounds):
            raise DegenerateRecursionError("arc-cosine level %d leaves the float range" % level)


def _arc_cosine_values(k, r, c, degree, depth, same):
    """Arc-cosine kernel values from dot products ``k`` (overwritten) and
    the terms (``_row_terms``) ``r`` of their rows and ``c`` of their
    columns, already range-checked.  The levels run in cosine space: the
    first level's cosines are the dots over ||x|| ||y||, and each later
    level's are the level before's J_n / J_n(0), since its scale cancels
    (the module docstring).  Only the last level's J_n is taken times 1/pi
    and then scaled, by (a_x a_y)**n; at depth 1 a is the norm, so that
    scale is the first level's, kept.  ``same`` (as in ``_kernel_values``)
    pins the diagonal angle to zero at every level, so the diagonal's J_n
    is J_n(0) exactly: the degree-0 diagonal is exactly 1 and the degree-1
    one exactly a_x a_x, the squared norm.
    """
    scale = np.multiply(r[0], c[0])
    k /= scale
    for level in range(depth):
        np.clip(k, -1.0, 1.0, out=k)
        _pin(k, same, 1.0)
        _j_n_of_cosine(k, degree)
        k *= _INV_J0[degree] if level < depth - 1 else _INV_PI
    if degree:
        if depth > 1:
            np.multiply(r[1], c[1], out=scale)
        # scale**degree, bit for bit, without a slab for the power
        k *= np.multiply(scale, scale, out=scale) if degree == 2 else scale
    return k


def _pin(k, same, value):
    """Set the pinned entries of a block to ``value``: row i, column
    same + i of a 2-d block, every entry of a 1-d one (a diagonal), none
    when ``same`` is None."""
    if same is None:
        return
    if k.ndim == 1:
        k.fill(value)
    else:
        np.fill_diagonal(k[:, same:], value)


def _kernel_values(dots, r, c, spec, same):
    """Fill ``dots``, dot products, with their kernel values, elementwise,
    and return it; ``r`` are the ``_row_terms`` of their rows and ``c`` of
    their columns, broadcast to them behind an arc-cosine kernel's leading
    axis of two terms (indexed ``[..., rows, None]`` and ``[..., None, :]``,
    which fits every family).  ``same`` is the column of the
    block's first diagonal entry, whose diagonal (row i, column same + i)
    is pinned as a same-set Gram's, or None for a block without one.  A
    1-d ``dots`` with ``same`` set is a same-set diagonal, x_i . x_i, and
    every entry is pinned."""
    if spec.family is KernelFamily.ARC_COSINE:
        return _arc_cosine_values(dots, r, c, spec.degree, spec.depth, same)
    if spec.family is KernelFamily.GAUSSIAN:
        # in the order of r + c - 2 dots and exp(-gamma * sq), so the bits
        # are those of the plain expression
        dots *= 2.0
        np.subtract(r + c, dots, out=dots)
        np.maximum(dots, 0.0, out=dots)
        _pin(dots, same, 0.0)
        dots *= -spec.gamma
        return np.exp(dots, out=dots)
    if spec.family is KernelFamily.POLYNOMIAL:
        dots *= spec.scale
        dots += spec.coef0
        dots **= spec.degree
    return dots


def _weighted_terms(spec):
    """The (weight, KernelSpec) pairs a block evaluates: a KernelSpec is
    one kernel of weight 1, and a combination, a sequence of (weight,
    KernelSpec) pairs, keeps its pairs of nonzero weight."""
    terms = [(1.0, spec)] if isinstance(spec, KernelSpec) else [(w, s) for w, s in spec if w]
    if not terms:
        raise ValueError("kernel weights are all zero")
    return terms


def _column_terms(cols, spec):
    """The row terms (``_row_terms``) of ``cols`` under ``spec``, one
    KernelSpec or a combination, as ``cross_gram`` makes them for its
    columns: a caller that crosses many row blocks with the same columns
    makes them once and passes them to each block."""
    return [_row_terms(_as_matrix(cols, "cols"), s) for _, s in _weighted_terms(spec)]


def _kernel_block(x_rows, x_cols, terms, same, c=None, finish=None):
    """Block sum_t w_t k_t of the rows of ``x_rows`` against those of
    ``x_cols`` (the same array when ``same``) over the (w_t, k_t) ``terms``:
    one matmul of dot products, then slab by slab each kernel's elementwise
    steps (``_kernel_values``) on a copy of the slab, the last kernel's on
    the slab itself.  Each value is scaled unless its weight is 1 and added
    in ascending t, ((w_0 k_0 + w_1 k_1) + w_2 k_2), the bits of summing
    whole weighted blocks: one addition gives the same bits either way
    round.  ``c`` are the columns' ``_column_terms`` when the caller has
    them already.  ``finish``, when given, is applied in place to each
    slab of finished values while it is still in cache; a rule that treats
    each row on its own gives the bits of applying it to the whole block."""
    r = [_row_terms(x_rows, s) for _, s in terms]
    c = c or (r if same else [_row_terms(x_cols, s) for _, s in terms])
    k = x_rows @ x_cols.T
    step = _slab_rows(k.shape[1])
    for start in range(0, k.shape[0], step):
        rows = slice(start, start + step)
        for t, (w, spec) in enumerate(terms):
            dots = k[rows] if t == len(terms) - 1 else k[rows].copy()
            value = _kernel_values(dots, r[t][..., rows, None], c[t][..., None, :], spec,
                                   start if same else None)
            if w != 1.0:
                value *= w
            total = value if t == 0 else np.add(value, total, out=value)
        if finish is not None:
            finish(k[rows])
    return k


def gram(samples, spec):
    """Kernel matrix of one sample set with itself, under ``spec``: one
    KernelSpec, or a combination sum_t w_t k_t given as a sequence of
    (w_t, KernelSpec) pairs, of which only the kernels of nonzero weight
    are evaluated.

    Returns a GramMatrix whose diagonal is computed at theta = 0 for
    angle-based kernels.  Its values are exactly symmetric without a
    copy of one triangle onto the other: every family is an elementwise
    function of ``x @ x.T``, which numpy computes exactly symmetric for
    the contiguous rows ``_as_matrix`` hands over, and of row terms that
    enter each (i, j) and (j, i) entry by the same commutative operation.
    That function runs on row slabs of the one product, with each slab's
    part of the diagonal pinned, so the bits are those of one pass over
    the whole matrix; a combination's are those of its weighted Grams
    summed in order.  Peak memory is the n x n result plus a few slabs,
    however many kernels are combined.
    """
    x = _as_matrix(samples, "samples")
    if x.shape[0] < 1:
        raise ShapeError("need at least one sample")
    return GramMatrix(_kernel_block(x, x, _weighted_terms(spec), same=True))


def cross_gram(rows, cols, spec, col_terms=None, *, _finish=None):
    """Rectangular kernel block k(rows_i, cols_j), under one KernelSpec or
    a combination of them, as for ``gram``.  ``col_terms``, when given,
    are ``_column_terms(cols, spec)``, made once for every block of rows
    crossed with the same columns; the values have the same bits either
    way.  ``_finish`` is private: a row-by-row rule that the slab walk
    applies to each slab of values as it finishes it (``_kernel_block``),
    which is how a layer centres its cross for kernel PCA.

    ``rows`` may be empty, which yields a 0 x n block; ``cols`` may not,
    and a combination needs a nonzero weight whatever the row count.
    Unlike ``gram``, coincident row/col pairs are not detected, so a
    duplicated point resolves its zero angle only to arccos round-off
    (about 1e-8 at the first level).  Only degree 0 feels it: its value
    moves by ~1e-8 at L=1 and ~4e-5 at L=2, while degrees 1 and 2, flat at
    theta = 0, stay at round-off.
    The kernels' elementwise steps run on row slabs of the one product
    ``rows @ cols.T``, with the bits of one pass over the whole block;
    peak memory is the block plus a few slabs.
    """
    xr = _as_matrix(rows, "rows")
    xc = _as_matrix(cols, "cols")
    if xc.shape[0] < 1:
        raise ShapeError("need at least one column sample")
    if xr.shape[1] != xc.shape[1]:
        raise ShapeError(
            "feature dimensions differ: %d vs %d" % (xr.shape[1], xc.shape[1])
        )
    return _kernel_block(xr, xc, _weighted_terms(spec), same=False, c=col_terms, finish=_finish)


class KernelRows:
    """Rows of one sample set's Gram, each computed the first time it is read.

    ``rows[i]`` is row i of ``gram(samples, spec)`` to round-off: its dot
    products are the one-row product ``x[i:i+1] @ x.T``, whose bits need
    not be those of the whole product's row i, and its diagonal entry is
    pinned as ``gram`` pins it, so an arc-cosine or Gaussian row's
    diagonal is the Gram's bit for bit.  Rows are kept, in the order they
    are first read, in one n x n buffer that is written from its start:
    only the rows computed become resident memory, and the buffer is freed
    as one block.  (Rows stored at their own index would touch most of the
    buffer's pages, as large arrays are backed by huge pages.)  Rows are
    never recomputed, and a returned row stays valid while the source
    lives.  Only an index in [0, n) is read; any other raises
    ``IndexError``.  ``diagonal`` is the Gram's diagonal, computed without
    any row.  No check of symmetry is made, as no matrix exists to check.
    """

    def __init__(self, samples, spec):
        x = _as_matrix(samples, "samples")
        if x.shape[0] < 1:
            raise ShapeError("need at least one sample")
        self._x, self._spec = x, spec
        self._terms = _row_terms(x, spec)
        n = x.shape[0]
        self._buffer = np.empty((n, n))
        self._slot = np.full(n, -1, dtype=np.int64)
        self.computed = 0  # rows computed so far, the buffer's written prefix

    @property
    def n(self):
        return self._x.shape[0]

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        i = operator.index(i)
        if not 0 <= i < self.n:
            raise IndexError("row %d out of range for %d samples" % (i, self.n))
        slot = self._slot[i]
        if slot < 0:
            # the slot is claimed only once its row is written, so a row
            # whose computation raised is computed again on its next read
            slot = self.computed
            row = self._buffer[slot:slot + 1]
            np.matmul(self._x[i:i + 1], self._x.T, out=row)
            terms = self._terms
            _kernel_values(row, terms[..., i:i + 1, None], terms[..., None, :], self._spec, same=i)
            self._slot[i] = slot
            self.computed += 1
        return self._buffer[slot]

    @functools.cached_property
    def diagonal(self):
        """The Gram's diagonal, computed once and without any row: the
        dot products x_i . x_i through ``_kernel_values``, each entry pinned
        as ``gram`` pins its diagonal, so an arc-cosine or Gaussian diagonal
        is the Gram's bit for bit and a linear or polynomial one equals it
        to round-off."""
        x = self._x
        return _kernel_values(np.einsum("ij,ij->i", x, x), self._terms, self._terms, self._spec,
                              same=0)


def evaluate(spec, x, y):
    """One kernel value k(x, y) under ``spec``, from the block path.

    Exactly equal inputs are evaluated as a one-row ``gram``, so their
    angle is pinned to zero; any other pair as a 1 x 1 ``cross_gram``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.array_equal(x, y):
        return float(gram(x[None], spec).values[0, 0])
    return float(cross_gram(x[None], y[None], spec)[0, 0])
