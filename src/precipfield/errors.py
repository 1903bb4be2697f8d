"""Exception hierarchy shared across the package. Each class's ``exit_code``
is the exit status of a ``precipfield`` command that it ends."""


class PrecipError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class DataError(PrecipError):
    """Base class for errors in the input data or in what a fit can learn
    from it."""

    exit_code = 3


class DomainError(PrecipError):
    """Input outside the mathematical domain of an operation."""


class NonpositiveMean(PrecipError):
    """Implied Gamma mean is nonpositive; the fit is unusable at this site."""


class NonpositiveVariance(PrecipError):
    """Implied Gamma variance is nonpositive."""


class NumericalError(PrecipError):
    """A numerical routine failed to converge or a matrix is not PD."""

    exit_code = 4


class EmbeddingFailure(NumericalError):
    """Circulant embedding stayed indefinite after maximum enlargement."""


class SeparationDetected(DataError):
    """Probit likelihood diverges: classes are perfectly separable."""


class DegenerateOccurrence(DataError):
    """Training data is all-wet or all-dry; occurrence model unidentifiable."""


class RangeUnidentifiable(DataError):
    """No day carries the pairwise information needed to estimate a range."""


class InsufficientData(DataError):
    """Too few usable records for the requested fit."""


class NoTrainingData(DataError):
    """No history available before the requested valid date."""


class NotFound(DataError):
    """Requested key (e.g. a date) is absent."""


class ParseError(DataError):
    """Malformed input file; carries a line number where possible."""


class ValidationError(DataError):
    """Input violates a dataset invariant."""


class UsageError(PrecipError):
    """A command's flags or config file are missing, malformed or inconsistent."""


class DegenerateMatrixWarning(UserWarning):
    """Duplicate coordinates make a correlation matrix near-singular."""
