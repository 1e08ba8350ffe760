"""Exception types shared across the package, and the field type check
that raises one."""

from __future__ import annotations


class SgaError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SgaError, ValueError):
    """An argument violates a documented precondition."""


class ShapeError(SgaError, ValueError):
    """Array dimensions do not match the configured feature layout."""


class NumericError(SgaError, ArithmeticError):
    """A computation produced non-finite values."""


class GenerationError(SgaError, RuntimeError):
    """Synthetic generation could not satisfy its constraints."""


class DegenerateGeometryError(SgaError, ValueError):
    """Input geometry does not constrain the requested estimate."""


class WeightsFormatError(SgaError, ValueError):
    """A weights file is malformed or lists wrong tensor names."""


def check_types(params, kind, what: str, names: tuple[str, ...],
                keys: dict[str, str] | None = None) -> None:
    """Reject a field of `params` that is not of the numbers ABC `kind`, or
    is a bool. `keys` maps a field to its key in the config document where
    the two names differ; errors use the key."""
    for name in names:
        value = getattr(params, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            key = (keys or {}).get(name, name)
            raise InvalidInputError(f"{key} must be {what}, got {value!r}")


class ConfigError(SgaError, ValueError):
    """A configuration value violates its constraint.

    Carries the dotted field name so callers can report precisely.
    """

    def __init__(self, field: str, constraint: str):
        self.field = field
        self.constraint = constraint
        super().__init__(f"config field '{field}': {constraint}")
