"""Exception types shared across the package, and its one integer check."""

from numbers import Integral


class ValidationError(ValueError):
    """Input violates a structural precondition (shape, symmetry, schema...)."""


class DisconnectedError(ValidationError):
    """A graph-derived metric was requested for a disconnected threshold graph."""

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = components


class NumericalError(RuntimeError):
    """A numerical procedure failed (divergence, non-finite values)."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def _check_int(name: str, value) -> None:
    """ValidationError naming `value` unless it is an int or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
