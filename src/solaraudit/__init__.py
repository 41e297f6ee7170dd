"""Entropy-production audits of small light-harvesting models.

The package bundles a Lindblad dynamics core, per-bath heat-current and
entropy accounting, a zoo of closed-form solar-conversion models, a
ten-level antenna + pigment-complex trace, and sweep/CLI layers that
regenerate the audit tables.
"""

from .core import (
    DensityMatrix,
    DissipationChannel,
    LindbladGenerator,
    floor_positivity,
    liouvillian_apply,
    propagate,
    steady_state,
)
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
from .thermo import (
    ThermoReport,
    bose_occupation,
    entropy_production,
    entropy_rate,
    heat_current,
    second_law_verdict,
)

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
