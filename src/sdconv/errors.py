"""Exception types raised across the package.

Every error subclasses :class:`SdconvError` so callers (and the CLI) can
distinguish domain errors from programming errors with one except clause.
"""


class SdconvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SdconvError, ValueError):
    """Malformed field-element, polynomial, matrix or selector text."""


class NotPrime(SdconvError, ValueError):
    """Field characteristic is not a prime number."""


class ReducibleModulus(SdconvError, ValueError):
    """Supplied modulus polynomial factors over the prime field."""


class DegreeMismatch(SdconvError, ValueError):
    """Supplied modulus polynomial does not have degree l."""


class FieldMismatch(SdconvError, ValueError):
    """Operands belong to different fields."""


class DivisionByZero(SdconvError, ZeroDivisionError):
    """Inversion of zero or division by the zero polynomial."""


class DimensionMismatch(SdconvError, ValueError):
    """Matrix or vector dimensions are incompatible."""


class ShapeUnsupported(SdconvError, ValueError):
    """Operation requires a k x n matrix with k <= n."""


class NotSquare(SdconvError, ValueError):
    """Operation requires a square matrix."""


class RankDeficient(SdconvError, ValueError):
    """Matrix does not have full row rank."""


class NotSelfDual(SdconvError, ValueError):
    """Input code fails the self-duality check."""


class NotOrthogonalScaled(SdconvError, ValueError):
    """Transform matrix M does not satisfy M * M^T = lambda * I."""


class NotUnit(SdconvError, ValueError):
    """Scale factor or determinant is not a nonzero constant."""


class NotPermutation(SdconvError, ValueError):
    """Matrix is not a permutation matrix."""


class BadScalars(SdconvError, ValueError):
    """Scalars a, b violate a^2 + b^2 = 0 or are zero."""


class BadVector(SdconvError, ValueError):
    """Extension row vector violates its orthogonality constraint."""


class FieldObstruction(SdconvError, ValueError):
    """The field admits no scalars with a^2 + b^2 = 0 (no square root of -1)."""


class NotBinary(SdconvError, ValueError):
    """Operation is only defined over the two-element field."""


class MalformedInput(SdconvError, ValueError):
    """A value is not the matrix or list of steps it stands for, or a matrix
    lacks the structure required by the completion machinery."""


class NotTriangularPattern(SdconvError, ValueError):
    """Matrix does not have the double upper-triangular support pattern."""


class OutOfRange(SdconvError, ValueError):
    """Numeric argument (degree, bound, dimension or coefficient) is out of range."""


class SearchSpaceTooLarge(SdconvError, RuntimeError):
    """Exhaustive search or field size would exceed its fixed cap."""
