"""Exception types shared across the package, and one integer check that raises them."""

from numbers import Integral


class PreconditionError(ValueError):
    """An input violates a documented precondition of an operation."""


class DegeneratePartitionError(PreconditionError):
    """A partition contains a zero-volume bin where positive volume is required."""


def require_int(minimum: int, **values) -> None:
    """Raise :class:`PreconditionError` naming the first value not an integer >= ``minimum``."""
    for name, value in values.items():
        if not isinstance(value, Integral) or value < minimum:
            raise PreconditionError(f"{name} must be an integer >= {minimum}, got {value!r}")
