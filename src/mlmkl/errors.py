"""Exception types raised across the package.

Everything inherits from MlmklError so callers can catch library failures
with a single except clause while still being able to tell apart the
interesting cases (bad input files, corrupted models, numerical collapse).
"""


class MlmklError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MlmklError):
    """Operands have incompatible or unexpected array shapes."""


class NonFiniteInputError(MlmklError, ValueError):
    """Input features hold nan, inf or -inf."""


class RowCountError(MlmklError, ValueError):
    """A requested number of rows is negative or more than the data holds."""


class ZeroVectorError(MlmklError):
    """An input vector has zero norm where a direction is required.

    Carries the offending 0-based row, so that rows passed on in blocks
    can be named by their place in the whole batch.
    """

    def __init__(self, reason, row=None):
        super().__init__(reason if row is None else "%s %d" % (reason, row))
        self.reason, self.row = reason, row


class UnsupportedDegreeError(MlmklError):
    """Arc-cosine degree outside the closed-form set {0, 1, 2}."""


class DegenerateRecursionError(MlmklError):
    """An arc-cosine level's scale, or the power of it that scales the
    values, leaves the normal float range, where the values would be zeros,
    inf or NaN."""


class InvalidBasisSizeError(MlmklError):
    """Requested local basis size is not in [1, n-1]."""


class InvalidWidthError(MlmklError, ValueError):
    """A requested number of kept features is not in [1, the number of features]."""


class NumericalFailureError(MlmklError):
    """A solver met NaN or Inf, or did not finish, and cannot continue."""


class DegenerateGramError(MlmklError):
    """A Gram matrix has no usable spectrum (e.g. all eigenvalues <= 0)."""


class DegenerateLabelsError(MlmklError):
    """A supervised step received fewer than two distinct classes."""


class ParseError(MlmklError):
    """A data file does not conform to its declared format.

    Carries the offending 1-based line number when that is meaningful.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ConfigError(MlmklError):
    """An experiment configuration is malformed or contradictory."""


class ModelIOError(MlmklError):
    """A saved model file cannot be read back."""


class UnsupportedVersionError(ModelIOError):
    """Model file was written by a newer format revision."""


class TruncatedModelError(ModelIOError):
    """Model file is shorter than its header claims."""


class ChecksumError(ModelIOError):
    """Model file content does not match its recorded digest."""
