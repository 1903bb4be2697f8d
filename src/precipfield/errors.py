"""Exception hierarchy shared across the package."""


class PrecipError(Exception):
    """Base class for all package errors."""


class DomainError(PrecipError):
    """Input outside the mathematical domain of an operation."""


class NonpositiveMean(PrecipError):
    """Implied Gamma mean is nonpositive; the fit is unusable at this site."""


class NonpositiveVariance(PrecipError):
    """Implied Gamma variance is nonpositive."""


class NumericalError(PrecipError):
    """A numerical routine failed to converge or a matrix is not PD."""


class EmbeddingFailure(NumericalError):
    """Circulant embedding stayed indefinite after maximum enlargement."""


class OutOfDomain(DomainError):
    """Point lies outside the interpolation hull of a grid."""


class SeparationDetected(PrecipError):
    """Probit likelihood diverges: classes are perfectly separable."""


class DegenerateOccurrence(PrecipError):
    """Training data is all-wet or all-dry; occurrence model unidentifiable."""


class RangeUnidentifiable(PrecipError):
    """No day carries the pairwise information needed to estimate a range."""


class InsufficientData(PrecipError):
    """Too few usable records for the requested fit."""


class NoTrainingData(PrecipError):
    """No history available before the requested valid date."""


class NotFound(PrecipError):
    """Requested key (e.g. a date) is absent."""


class ParseError(PrecipError):
    """Malformed input file; carries a line number where possible."""


class ValidationError(PrecipError):
    """Input violates a dataset invariant."""


class DegenerateMatrixWarning(UserWarning):
    """Duplicate coordinates make a correlation matrix near-singular."""
