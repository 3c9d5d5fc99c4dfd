"""Exception types shared across the package."""

__all__ = ["DomainError", "ConvergenceError", "FloorError"]


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """A numerical failure with no trustworthy finite result: an iterative
    routine that exhausted its budget before reaching tolerance, a nan
    result, or a non-finite value that JSON output cannot carry."""


class FloorError(ConvergenceError):
    """A step-size ladder hit the round-off floor before a fit was possible."""
