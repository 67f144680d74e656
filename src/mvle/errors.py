"""Exception types shared across the package.

Every error raised on a contract violation derives from :class:`MvleError`,
so callers (including the CLI) can catch one base type and still branch on
the specific failure when they need to.
"""


class MvleError(Exception):
    """Base class for all package-specific errors."""


class NonSymmetricError(MvleError):
    """Input matrix violates the symmetry tolerance."""


class NoConvergenceError(MvleError):
    """LAPACK reports an eigendecomposition failed, or PLS extracts no component."""


class SingularDegreeError(MvleError):
    """A degree entry is zero or negative where positivity is required."""


class SingularMatrixError(MvleError):
    """LAPACK finds a ridge system singular despite its required lambda > 0."""


class RaggedRowsError(MvleError):
    """CSV rows do not all have the same number of fields."""


class NonNumericCellError(MvleError):
    """A CSV cell could not be parsed as a number."""


class LabelOutOfRangeError(MvleError):
    """A label is not an integer in 1..class_count."""


class LengthMismatchError(MvleError):
    """Two sequences that must align have different lengths."""


class ClassTooSmallError(MvleError):
    """A class has too few samples in some view for the requested operation."""


class KTooLargeError(MvleError):
    """Requested neighbor count exceeds n - 1 for the view."""


class ClassCountMismatchError(MvleError):
    """Bag-of-neighbors inputs disagree on the number of classes."""


class IsolatedSampleError(MvleError):
    """A sample has zero total edge weight in the joint graph."""


class DimTooLargeError(MvleError):
    """Requested embedding dimension exceeds what the input supports."""


class OrderTooLargeError(MvleError):
    """An eigenproblem's order exceeds the largest the package will solve."""


class DimMismatchError(MvleError):
    """Feature dimension at predict time differs from training."""


class UnpairedViewsError(MvleError):
    """A paired-view method received views with different sample counts."""


class VcDimMismatchError(MvleError):
    """View-consistency coupling requires all views to share one dimension."""


class UnknownMethodError(MvleError):
    """A method name is not one of the supported identifiers."""


class ConfigError(MvleError):
    """A run configuration contains an unknown key or an invalid value."""


class ModelFormatError(MvleError, ValueError):
    """A saved model is not valid JSON or not a document of the expected format."""
