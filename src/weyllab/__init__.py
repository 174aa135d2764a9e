"""weyllab: desk-scale spectral geometry and geodesic-dynamics laboratory."""

__version__ = "0.1.0"

from .errors import (ConfigError, CoverFailure, DegenerateInput,
                     DomainError, IncompleteSpectrum, InvariantViolation,
                     QuadratureFailure, SolverFailure, StepFailure,
                     WeylLabError)

__all__ = [
    "__version__",
    "ConfigError", "CoverFailure", "DegenerateInput", "DomainError",
    "IncompleteSpectrum", "InvariantViolation", "QuadratureFailure",
    "SolverFailure", "StepFailure", "WeylLabError",
]
