"""Exception types shared across the package."""


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


class InvariantError(SgaError, RuntimeError):
    """An internal invariant failed: a defect in the package, not in its input."""


class WeightsFormatError(SgaError, ValueError):
    """A weights file is malformed or lists wrong tensor names."""


class ConfigError(SgaError, ValueError):
    """A configuration value violates its constraint.

    Carries the dotted field name so callers can report precisely.
    """

    def __init__(self, field: str, constraint: str):
        self.field = field
        self.constraint = constraint
        super().__init__(f"config field '{field}': {constraint}")
