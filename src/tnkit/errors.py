"""Exception types raised across the package.

Every error subclasses :class:`TnkitError` so callers can catch the package's
failures with a single except clause; most also subclass the matching builtin
(``ValueError`` for contract violations, ``ArithmeticError`` for numerical
breakdown) so generic handling keeps working.
"""


class TnkitError(Exception):
    """Base class for all tnkit errors."""


# --- tensor core -----------------------------------------------------------


class ElementCountMismatch(TnkitError, ValueError):
    """Reshape target holds a different number of elements than the source."""


class InvalidPermutation(TnkitError, ValueError):
    """Permutation is not a bijection on the tensor's axes."""


class ExtentMismatch(TnkitError, ValueError):
    """Paired axes (or operands) have different extents/shapes."""


class InvalidAxis(TnkitError, ValueError):
    """Axis index out of range, repeated, or axis lists of unequal length."""


class RankUnsupported(TnkitError, ValueError):
    """Operation only defined for a specific rank (e.g. an SVD of a non-matrix)."""


# --- decompositions --------------------------------------------------------


class NumericalFailure(TnkitError, ArithmeticError):
    """Underlying numerical routine failed to converge or produced garbage."""


class NotHermitian(TnkitError, ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotSquare(TnkitError, ValueError):
    """Matrix is not square."""


class AllZero(TnkitError, ValueError):
    """Input vector/matrix is identically zero."""


# --- MPS -------------------------------------------------------------------


class BadLength(TnkitError, ValueError):
    """Vector length is not d**N for any integer N >= 1."""


class NotNormalized(TnkitError, ValueError):
    """State vector does not have unit norm within tolerance."""


class TooLarge(TnkitError, ValueError):
    """Problem size exceeds the guarded cap for a dense/bruteforce path."""


class ShapeMismatch(TnkitError, ValueError):
    """Operator or tensor shape incompatible with the target sites."""


class BadOrder(TnkitError, ValueError):
    """Site indices violate the required ordering (e.g. i < j)."""


class Singular(TnkitError, ValueError):
    """Gauge matrix is singular or too ill-conditioned to invert."""


# --- MPO / models ----------------------------------------------------------


class TooFewSites(TnkitError, ValueError):
    """Chain too short for the requested coupling range."""


class BadXi(TnkitError, ValueError):
    """Decay length must be positive and finite."""


class BadBeta(TnkitError, ValueError):
    """Inverse temperature must be positive and finite."""


class UnsupportedModel(TnkitError, ValueError):
    """Algorithm does not support this model (e.g. TEBD needs NN terms only)."""


# --- iterative solvers / evolution -----------------------------------------


class NoConvergence(TnkitError, ArithmeticError):
    """Iterative eigensolver did not reach tolerance within the iteration cap."""


# --- CLI -------------------------------------------------------------------


class ParseError(TnkitError, ValueError):
    """Config file is not valid JSON / not a JSON object."""


class ValidationError(TnkitError, ValueError):
    """Config contents violate the schema; message names the offending field."""
