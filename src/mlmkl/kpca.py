"""Kernel principal component analysis on a precomputed Gram matrix.

The Gram matrix is double-centered in feature space,

    K' = K - 1_n K - K 1_n + 1_n K 1_n,

in one whole-array pass, k_ij - r_i - r_j + t in that order, with r the
fit set's row means and t its total mean.  New rows are centred against
the fit set by the same rule, r_i then being the new row's own mean.  The
centred Gram is symmetric only to round-off and is not mirrored: both
eigensolvers read its upper triangle alone.  Its leading eigenpairs are
computed, and the eigenvectors are rescaled by 1/sqrt(lambda) so that
projecting a centered kernel row onto them yields unit-variance principal
directions in feature space.  Components whose eigenvalue falls below
1e-10 times the largest are dropped as numerically rank-deficient.  With a
linear kernel the result coincides with ordinary PCA scores up to
per-component sign.

The eigensolver is LAPACK's ``dsyevr`` with RANGE='I', asked for only the
top min(n_components, n) pairs: an exact method (tridiagonal reduction,
then bisection and inverse iteration for the chosen pairs), which skips
the other n - k eigenvectors and the n x n matrix that would hold them.
It is looked up once, at import, as ``scipy_LAPACKE_dsyevr64_`` (64-bit
ints) in the OpenBLAS that numpy's own linear algebra links, so the
package needs nothing beyond numpy.  Where numpy links a LAPACK without
that symbol (numpy 1.x wheels, conda/MKL, a system LAPACK), ``fit`` calls
``np.linalg.eigh`` and keeps the top pairs.  ``SOLVER`` says which one
runs ("dsyevr" or "eigh").  The two agree to round-off, a few 1e-15 of
the largest eigenvalue, not bit for bit; so do a fit at one component count
and the leading components of a fit at a larger one (``leading``), which
is why a ``cv`` candidate equals the same layer fitted alone to round-off.
"""
from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGramError, NumericalFailureError, ShapeError
from .kernels import _gram_values

__all__ = ["SOLVER", "KpcaModel", "center_gram", "fit", "leading", "transform"]

_EIGENVALUE_CUTOFF = 1e-10
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


def _find_dsyevr():
    """LAPACKE's ``dsyevr`` with 64-bit ints from the LAPACK that numpy's
    linear algebra links, or None where that library does not export it."""
    try:
        # dlsym on the extension module also searches the libraries it links
        routine = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_dsyevr64_
    except (AttributeError, OSError):
        return None
    i64, real = ctypes.c_int64, ctypes.c_double
    routine.restype = i64
    routine.argtypes = [
        ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, i64,  # layout jobz range uplo n
        np.ctypeslib.ndpointer(np.float64, 2, flags="C_CONTIGUOUS"), i64,  # a lda
        real, real, i64, i64, real,  # vl vu il iu abstol
        ctypes.POINTER(i64), np.ctypeslib.ndpointer(np.float64, 1),  # m w
        np.ctypeslib.ndpointer(np.float64, 2, flags="F_CONTIGUOUS"), i64,  # z ldz
        np.ctypeslib.ndpointer(np.int64, 1),  # isuppz
    ]
    return routine


_DSYEVR = _find_dsyevr()
SOLVER = "eigh" if _DSYEVR is None else "dsyevr"


def _top_eigenpairs(a, k):
    """The ``k`` largest eigenvalues of the symmetric C-contiguous float64
    ``a``, descending, and their unit eigenvectors as columns.  Only the
    upper triangle of ``a`` is read, and ``a`` is overwritten."""
    if _DSYEVR is None:
        lams, vecs = np.linalg.eigh(a, UPLO="U")
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
    v = _gram_values(k)
    row_means = v.mean(axis=1)
    total_mean = float(v.mean())
    # a Gram's own row means are the fit set's: computed once, used as both
    centered = _center(v, row_means, total_mean, np.empty(v.shape), own_means=row_means)
    return centered, row_means, total_mean


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


def _warn_short(n_components, usable):
    warnings.warn(
        "requested %d components but only %d eigenvalues are usable"
        % (n_components, usable),
        stacklevel=3,
    )


def fit(k, n_components):
    """Extract the leading kernel principal components.

    Keeps at most ``n_components`` directions, fewer (with a warning)
    when the centered spectrum has fewer eigenvalues above the relative
    cutoff.  A spectrum with no positive eigenvalue at all means the
    centered Gram carries no variance and is rejected.
    """
    _check_count(n_components)
    centered, row_means, total_mean = center_gram(k)
    # only the top pairs are computed: when fewer of them than asked for are
    # above the cutoff, they are all the usable ones there are
    lams, vecs = _top_eigenpairs(centered, min(n_components, centered.shape[0]))
    lam_max = float(lams[0])
    if not lam_max > 0.0:
        raise DegenerateGramError(
            "centered Gram has no positive eigenvalue (max %r)" % lam_max
        )
    usable = int(np.sum(lams > _EIGENVALUE_CUTOFF * lam_max))
    keep = min(n_components, usable)
    if keep < n_components:
        _warn_short(n_components, usable)
    lams = lams[:keep].copy()
    vecs = vecs[:, :keep].copy()
    # deterministic sign: make the largest-magnitude entry of each vector positive
    for j in range(keep):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    alphas = vecs / np.sqrt(lams)[None, :]
    return KpcaModel(alphas=alphas, eigenvalues=lams, row_means=row_means, total_mean=total_mean)


def leading(model, n_components):
    """The first ``n_components`` components of a model that ``fit``
    returned for at least that many.

    What ``fit`` returns for ``n_components`` on the same Gram, with the
    same warning when fewer are usable, so one eigendecomposition serves
    every smaller count.  The values agree to round-off (within 1e-12 of
    the largest entry), not bit for bit, since a subset solve for fewer
    pairs rounds differently; at ``model.n_components`` they are the
    model's own bits.
    """
    _check_count(n_components)
    keep = min(n_components, model.n_components)
    if keep < n_components:
        _warn_short(n_components, model.n_components)
    return KpcaModel(
        alphas=model.alphas[:, :keep].copy(),
        eigenvalues=model.eigenvalues[:keep].copy(),
        row_means=model.row_means,
        total_mean=model.total_mean,
    )


def transform(model, cross):
    """Project new points given their kernel values against the fit set.

    ``cross`` has one row per new point and one column per fit sample.
    Centering uses the stored fit-set statistics, so the projection is
    consistent with the training-time geometry.
    """
    c = np.asarray(cross, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != model.n_fit:
        raise ShapeError(
            "cross matrix must be (t, %d), got shape %r" % (model.n_fit, c.shape)
        )
    return _center_and_project(model, c, np.empty_like(c))


def _center(cross, row_means, total_mean, out, own_means=None):
    """Centre the float64 ``cross`` against a fit set's ``row_means`` and
    ``total_mean`` into ``out``: cross - its own row means - row_means +
    total_mean, in that order.  ``own_means`` are ``cross.mean(axis=1)``
    when the caller has them already.  ``out`` may be ``cross``."""
    if own_means is None:
        own_means = cross.mean(axis=1)
    np.subtract(cross, own_means[:, None], out=out)
    out -= row_means[None, :]
    out += total_mean
    return out


def _center_and_project(model, cross, out):
    """Centre the float64 (t, n_fit) ``cross`` into ``out`` and project it.
    ``out`` may be ``cross`` itself when the caller built it and no longer
    needs it, so that no second t x n array is held."""
    if cross.shape[0] == 0:
        return np.zeros((0, model.n_components))
    return _center(cross, model.row_means, model.total_mean, out) @ model.alphas
