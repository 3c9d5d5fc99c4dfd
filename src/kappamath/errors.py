"""Exception types shared across the package."""

__all__ = ["DomainError", "ConvergenceError", "FloorError"]


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget before reaching tolerance."""


class FloorError(RuntimeError):
    """A step-size ladder hit the round-off floor before a fit was possible."""
