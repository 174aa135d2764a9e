"""Exception types shared across the package."""


class WeylLabError(Exception):
    """Base class for all package errors."""


class InvariantViolation(WeylLabError):
    """A constructed object fails one of its documented invariants."""


class DomainError(WeylLabError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureFailure(WeylLabError):
    """Adaptive quadrature stalled before reaching the requested accuracy."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


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


class IncompleteInput(WeylLabError):
    """A factor spectrum is truncated below the requested cutoff."""


class WindowTooSmall(WeylLabError):
    """Smoothing window exceeds the available spectral range."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class ConfigError(WeylLabError):
    """An experiment configuration failed schema validation."""
