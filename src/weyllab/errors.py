"""Exception types shared across the package, and the one rule that binds
a JSON object to the keyword parameters of the function it configures."""

import inspect
import numbers


class WeylLabError(Exception):
    """Base class for all package errors."""


class InvariantViolation(WeylLabError):
    """A constructed object fails one of its documented invariants."""


class DomainError(WeylLabError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureFailure(WeylLabError):
    """Adaptive quadrature stalled before reaching the requested accuracy."""


class StepFailure(WeylLabError):
    """ODE integration could not meet its tolerance."""


class DegenerateInput(WeylLabError):
    """Input too close to a degeneracy for the requested formula."""


class CoverFailure(WeylLabError):
    """Good-cover construction exceeded its family budget."""


class SolverFailure(WeylLabError):
    """Eigenvalue bracketing or root finding broke down."""

    def __init__(self, message, mode=None, bracket=None):
        super().__init__(message)
        self.mode = mode
        self.bracket = bracket


class IncompleteSpectrum(WeylLabError):
    """A spectrum does not extend far enough for the requested computation."""


class ConfigError(WeylLabError):
    """An experiment configuration failed schema validation."""


def json_object(value, where: str) -> dict:
    """``value`` if it is a JSON object, else ConfigError naming ``where``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got "
                          f"{type(value).__name__}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def number(value, where: str) -> float:
    """``value`` as a float if it is a number (not a boolean), else
    ConfigError naming ``where``."""
    if not _is_number(value):
        raise ConfigError(f"{where} must be a number, got "
                          f"{type(value).__name__}")
    return float(value)


def bind(fn, fields, where: str) -> dict:
    """``fields``, once they bind to the keyword parameters of ``fn``; an
    unknown or missing key, or a value that is not a number where the
    parameter's default is one, raises ConfigError naming ``where`` and the
    key."""
    signature = inspect.signature(fn)
    try:
        signature.bind(**json_object(fields, where))
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    for key, value in fields.items():
        if _is_number(signature.parameters[key].default):
            number(value, f"{where}: {key!r}")
    return fields
