"""Entropy-production audits of small light-harvesting models.

The package bundles a Lindblad dynamics core, per-bath heat-current and
entropy accounting, a zoo of closed-form solar-conversion models, a
ten-level antenna + pigment-complex trace, and sweep/CLI layers that
regenerate the audit tables. The closed forms and the CLI's closed-form
commands run on the standard library; the Lindblad names below load
numpy on first use.
"""

from .audit import ThermoReport, bose_occupation, second_law_verdict
from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NumericsError,
    SolarAuditError,
    StateValidationError,
    SteadyStateConvergenceError,
    TruncationOverflowError,
)
from .lazy import lazy_names

__getattr__ = lazy_names(__name__, {
    "solaraudit.core": ("DensityMatrix", "DissipationChannel", "LindbladGenerator",
                        "floor_positivity", "liouvillian_apply", "propagate", "steady_state"),
    "solaraudit.thermo": ("entropy_production", "entropy_rate", "heat_current"),
})

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateSteadyStateError",
    "DensityMatrix",
    "DimensionMismatchError",
    "DissipationChannel",
    "LindbladGenerator",
    "NumericsError",
    "SolarAuditError",
    "StateValidationError",
    "SteadyStateConvergenceError",
    "ThermoReport",
    "TruncationOverflowError",
    "bose_occupation",
    "entropy_production",
    "entropy_rate",
    "floor_positivity",
    "heat_current",
    "liouvillian_apply",
    "propagate",
    "second_law_verdict",
    "steady_state",
    "__version__",
]
