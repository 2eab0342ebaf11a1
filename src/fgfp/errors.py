"""Exception types shared across the package."""

from __future__ import annotations


class FgfpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FgfpError):
    """Operands have incompatible dimensions."""


class DomainError(FgfpError):
    """A point lies outside the space that owns the operation."""


class ExpressionError(FgfpError):
    """Malformed map expression; carries the offending character position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EvaluationError(FgfpError):
    """A map evaluation hit a division by zero or a non-finite value."""


class SampleError(FgfpError):
    """The sample of the requested size, or the constant estimate's terms
    over it, cannot be allocated."""


class SeedConditionError(FgfpError):
    """The starting pair violates the launch condition of the iteration."""


class SolveError(FgfpError):
    """Iteration failed mid-run; ``trace`` holds the steps completed so far."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class ProblemFileError(FgfpError):
    """A problem file failed schema validation; ``where`` is the JSON path."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)
