"""Exception hierarchy shared across the package."""

__all__ = [
    "StwcrError",
    "InvalidParameterError",
    "EvaluationError",
    "SolverError",
    "EstimationError",
    "DatasetParseError",
    "HarnessError",
]


class StwcrError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(StwcrError, ValueError):
    """A tuning parameter or argument is outside its valid domain."""


class EvaluationError(StwcrError, ArithmeticError):
    """A numeric evaluation produced NaN/inf; carries the offending term."""


class SolverError(StwcrError, RuntimeError):
    """A model fit failed (non-convergence or singular system)."""


class EstimationError(StwcrError, RuntimeError):
    """An estimator precondition or postcondition was violated."""


class DatasetParseError(StwcrError, ValueError):
    """A data file could not be parsed; message names row/column."""


class HarnessError(StwcrError, RuntimeError):
    """The Monte Carlo harness hit too many failed replications."""
