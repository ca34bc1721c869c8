"""Kernel principal component analysis on a precomputed Gram matrix.

The Gram matrix is double-centered in feature space,

    K' = K - 1_n K - K 1_n + 1_n K 1_n,

in one whole-array pass, k_ij - r_i - r_j + t in that order, with r the
fit set's row means and t its total mean.  New rows are centred against
the fit set by the same rule, r_i then being the new row's own mean: a
rule of each row alone (``_center``), so a layer centres its cross slab by
slab inside the kernel walk that makes it, with the bits of centring the
whole cross.  The centred Gram is symmetric only to round-off and is not
mirrored: both eigensolvers read its upper triangle alone.  Its leading
eigenpairs are computed, and the eigenvectors are rescaled by
1/sqrt(lambda) so that projecting a centered kernel row onto them yields
unit-variance principal directions in feature space.  Components whose
eigenvalue falls below 1e-10 times the largest are dropped as numerically
rank-deficient.  With a linear kernel the result coincides with ordinary
PCA scores up to per-component sign.

Each rule is one function.  ``leading`` decides how many components are
kept, and warns from one line of this module when fewer are usable than
asked for, whoever called it; ``fit`` returns the leading ones of its
usable pairs.  ``transform`` centres new rows' cross-Gram into a new
array and projects it; a layer's walk hands it a cross it has centred
already.  The fit rows themselves need no cross: their projections are
sqrt(lambda) v (``KpcaModel.training_projections``).
``fit(k, n, overwrite=True)`` centres the Gram in its own buffer and hands
it to the eigensolver as its workspace, so on ``dsyevr`` a fit holds one
n x n array; on the ``eigh`` fallback it holds two (below).

The eigensolver is LAPACK's ``dsyevr`` with RANGE='I', asked for only the
top min(n_components, n) pairs: an exact method (tridiagonal reduction,
then bisection and inverse iteration for the chosen pairs), which skips
the other n - k eigenvectors and the n x n matrix that would hold them.
It is looked up once, at import, as ``scipy_LAPACKE_dsyevr64_`` (64-bit
ints) through ``kernels._openblas``, the package's one handle on the
OpenBLAS that numpy's own linear algebra links, so the package needs
nothing beyond numpy.  Where that library or symbol is missing (numpy 1.x
wheels, conda/MKL, a system LAPACK), ``fit`` calls ``np.linalg.eigh`` and
keeps the top pairs.  That fallback computes all n eigenvectors into a
second n x n array: a 1500-row rbf fit of 60 components with
``overwrite`` peaked 1.04 Grams above the Gram under tracemalloc, against
0.12 on ``dsyevr``, and took about twice as long.  ``SOLVER`` says which
one runs ("dsyevr" or "eigh").  The two agree to round-off, a few 1e-15 of
the largest eigenvalue, not bit for bit; so do a fit at one component count
and the leading components of a fit at a larger one (``leading``), which
is why a ``cv`` candidate equals the same layer fitted alone to round-off.
Either solver's failure (``dsyevr``'s nonzero info, ``eigh``'s
``LinAlgError``) raises ``NumericalFailureError``, so a layer's candidate
fails by the package's own error on both paths.  ``transform`` of no rows
is the general code on none: a (0, p) float64 array.
"""
from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGramError, NumericalFailureError, ShapeError
from .kernels import _gram_values, _openblas

__all__ = ["SOLVER", "KpcaModel", "center_gram", "fit", "leading", "transform"]

_EIGENVALUE_CUTOFF = 1e-10
_COL_MAJOR = 102  # LAPACK_COL_MAJOR

# LAPACKE's dsyevr with 64-bit ints, or None where numpy's LAPACK lacks it
_i64, _real = ctypes.c_int64, ctypes.c_double
_DSYEVR = _openblas("scipy_LAPACKE_dsyevr64_", _i64, [
    ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, _i64,  # layout jobz range uplo n
    np.ctypeslib.ndpointer(np.float64, 2, flags="C_CONTIGUOUS"), _i64,  # a lda
    _real, _real, _i64, _i64, _real,  # vl vu il iu abstol
    ctypes.POINTER(_i64), np.ctypeslib.ndpointer(np.float64, 1),  # m w
    np.ctypeslib.ndpointer(np.float64, 2, flags="F_CONTIGUOUS"), _i64,  # z ldz
    np.ctypeslib.ndpointer(np.int64, 1),  # isuppz
])
SOLVER = "eigh" if _DSYEVR is None else "dsyevr"


def _top_eigenpairs(a, k):
    """The ``k`` largest eigenvalues of the symmetric C-contiguous float64
    ``a``, descending, and their unit eigenvectors as columns.  Only the
    upper triangle of ``a`` is read, and ``a`` is overwritten.  Either
    solver's failure raises ``NumericalFailureError``."""
    if _DSYEVR is None:
        try:
            lams, vecs = np.linalg.eigh(a, UPLO="U")
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError("eigh failed: %s" % exc) from None
        return lams[::-1][:k], vecs[:, ::-1][:, :k]
    n = a.shape[0]
    lams = np.empty(n)
    vecs = np.empty((n, k), order="F")
    found = ctypes.c_int64()
    # read column-major, the C-ordered upper triangle is the lower one
    info = _DSYEVR(_COL_MAJOR, b"V", b"I", b"L", n, a, n, 0.0, 0.0, n - k + 1, n, 0.0,
                   ctypes.byref(found), lams, vecs, n, np.empty(2 * k, dtype=np.int64))
    if info != 0 or found.value != k:
        raise NumericalFailureError(
            "dsyevr failed with info %d, %d of %d eigenpairs" % (info, found.value, k)
        )
    return lams[:k][::-1], vecs[:, ::-1]


def center_gram(k):
    """Double-center a Gram matrix.

    Returns the centered matrix together with the per-row means and the
    total mean of the input, which are exactly what is needed to center
    kernel evaluations against new points later.  The matrix is the Gram
    centred against its own statistics by the rule that centres new rows,
    k_ij - r_i - r_j + t, which is symmetric only to round-off: both
    eigensolvers read its upper triangle alone.
    """
    return _center_gram(_gram_values(k))


def _center_gram(v, out=None):
    """``center_gram`` of the float64 Gram values ``v`` into ``out``, which
    may be ``v``, or into a new array."""
    row_means = v.mean(axis=1)
    total_mean = float(v.mean())
    # a Gram's own row means are the fit set's: computed once, used as both
    return _center(v, row_means, total_mean, out, own_means=row_means), row_means, total_mean


@dataclass(frozen=True)
class KpcaModel:
    """Fitted components: everything needed to project new kernel rows."""

    alphas: np.ndarray  # (n_fit, p) eigenvectors scaled by 1/sqrt(eigenvalue)
    eigenvalues: np.ndarray  # (p,) positive; descending from fit, in selected order in a layer
    row_means: np.ndarray  # (n_fit,) row means of the uncentered fit Gram
    total_mean: float

    def __post_init__(self):
        a = self.alphas
        shapes = (self.row_means.shape, self.eigenvalues.shape)
        if a.ndim != 2 or shapes != (a.shape[:1], a.shape[1:]):
            raise ShapeError(
                "alphas %r, eigenvalues %r and row means %r disagree"
                % (a.shape, self.eigenvalues.shape, self.row_means.shape)
            )

    @property
    def n_fit(self):
        return self.alphas.shape[0]

    @property
    def n_components(self):
        return self.alphas.shape[1]

    def training_projections(self):
        """Projections of the fit samples themselves: sqrt(lambda_j) v_j."""
        return self.alphas * self.eigenvalues[None, :]


def _check_count(n_components):
    if not isinstance(n_components, (int, np.integer)) or n_components < 1:
        raise ValueError("n_components must be a positive integer, got %r" % (n_components,))


def fit(k, n_components, *, overwrite=False):
    """Extract the leading kernel principal components.

    Keeps at most ``n_components`` directions, fewer (with a warning)
    when the centered spectrum has fewer eigenvalues above the relative
    cutoff.  A spectrum with no positive eigenvalue at all means the
    centered Gram carries no variance and is rejected.

    With ``overwrite`` the Gram is centred in its own buffer, which the
    eigensolver then overwrites, so ``dsyevr`` makes no second n x n array
    (the ``eigh`` fallback's eigenvectors are one): ``k`` must then be a
    writeable C-contiguous float64 array or ``GramMatrix``, as
    ``umkl.combine`` returns, and the caller must not read it afterwards.
    Without it ``k`` is untouched.  The model is the same either way, bit
    for bit.
    """
    _check_count(n_components)
    v = _gram_values(k)
    centered, row_means, total_mean = _center_gram(v, v if overwrite else np.empty(v.shape))
    # only the top pairs are computed: when fewer of them than asked for are
    # above the cutoff, they are all the usable ones there are
    lams, vecs = _top_eigenpairs(centered, min(n_components, centered.shape[0]))
    lam_max = float(lams[0])
    if not lam_max > 0.0:
        raise DegenerateGramError(
            "centered Gram has no positive eigenvalue (max %r)" % lam_max
        )
    usable = int(np.sum(lams > _EIGENVALUE_CUTOFF * lam_max))
    lams = lams[:usable].copy()
    vecs = vecs[:, :usable].copy()
    # deterministic sign: make the largest-magnitude entry of each vector
    # positive (the first of equal ones), in one pass by its sign, +-1.0:
    # a product by -1.0 negates exactly
    vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(usable)])
    alphas = vecs / np.sqrt(lams)[None, :]
    model = KpcaModel(alphas=alphas, eigenvalues=lams, row_means=row_means,
                      total_mean=total_mean)
    return leading(model, n_components)


def leading(model, n_components):
    """The first ``n_components`` components of ``model``, or all of them,
    with a warning, when it has fewer: the one keep-and-warn rule, which
    ``fit`` applies to its usable pairs, so the warning comes from one
    line whoever called it.

    On a model that ``fit`` returned for at least ``n_components``, this is
    what ``fit`` returns for ``n_components`` on the same Gram, with the
    same warning, so one eigendecomposition serves every smaller count.
    The values agree to round-off (within 1e-12 of the largest entry), not
    bit for bit, since a subset solve for fewer pairs rounds differently.
    A model of no more than ``n_components`` is returned itself, uncopied.
    """
    _check_count(n_components)
    if model.n_components < n_components:
        message = "requested %d components but only %d eigenvalues are usable" % (
            n_components, model.n_components)
        warnings.warn(message)
    if model.n_components <= n_components:
        return model
    return replace(model, alphas=model.alphas[:, :n_components].copy(),
                   eigenvalues=model.eigenvalues[:n_components].copy())


def transform(model, cross, _centered=False):
    """Project new points given their kernel values against the fit set.

    ``cross`` has one row per new point and one column per fit sample.
    Centering uses the stored fit-set statistics, so the projection is
    consistent with the training-time geometry.  The centred rows go to a
    new array, and ``cross`` is left as it is.  ``_centered`` is private:
    True when the caller has centred ``cross`` by this rule (``_center``)
    already, as a layer's kernel walk does slab by slab, so that only the
    product is left, with the same bits.
    """
    c = np.asarray(cross, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != model.n_fit:
        raise ShapeError(
            "cross matrix must be (t, %d), got shape %r" % (model.n_fit, c.shape)
        )
    if not _centered:
        c = _center(c, model.row_means, model.total_mean)
    return c @ model.alphas


def _center(cross, row_means, total_mean, out=None, own_means=None):
    """Centre the float64 ``cross`` against a fit set's ``row_means`` and
    ``total_mean`` into ``out``: cross - its own row means - row_means +
    total_mean, in that order.  ``own_means`` are ``cross.mean(axis=1)``
    when the caller has them already.  ``out`` may be ``cross``; None
    makes a new array, laid out as ``cross``."""
    if own_means is None:
        own_means = cross.mean(axis=1)
    out = np.subtract(cross, own_means[:, None], out=out)
    out -= row_means[None, :]
    out += total_mean
    return out

