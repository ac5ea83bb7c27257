"""Exceptions shared across the package."""


class InfeasibleAlphaError(RuntimeError):
    """No finite radius can satisfy the requested error budget."""


class UnsupportedMethodError(ValueError):
    """The requested method does not support this bound or problem type."""


class InternalCheckError(RuntimeError):
    """An internal invariant failed: a defect in the package, not in the input."""
