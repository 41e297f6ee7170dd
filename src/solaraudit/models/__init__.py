"""The model zoo and the one table of models with closed-form reports.
The sink-driven models (decay, donor-acceptor, photocell) are rings that
cycle.py solves. The closed forms load with the package, on the standard
library; the numpy names (the dressed ladder, collective.py) load on
first use."""

from ..errors import ConfigError, NumericsError
from ..lazy import lazy_names
from .three_level import (
    LADDER,
    ThreeLevelParams,
    BirthDeathRates,
    birth_death_rates,
    decay_generator,
    decay_report,
    decay_steady_populations,
    hamiltonian_transfer_report,
)
from .donor_acceptor import (
    DonorAcceptorParams,
    donor_acceptor_generator,
    donor_acceptor_report,
    donor_acceptor_steady_state,
)
from .photocell import (
    PhotocellParams,
    photocell_generator,
    photocell_report,
    photocell_steady_state,
)

__getattr__ = lazy_names(__name__, {
    "solaraudit.models.ladder": LADDER,
    "solaraudit.models.collective": (
        "CollectiveReservoirParams", "OscillatorLimitReport", "compare_with_oscillator_limit"),
})

# model name -> (config section of its parameters, params class, report).
# The config schemas (one key per params field), the sweep model choice,
# the sweep's section lookup and the CLI's report commands (model name
# with '-' for '_') all read this table.
MODELS = {
    "toy_decay": ("toy", ThreeLevelParams, decay_report),
    "toy_ham": ("toy", ThreeLevelParams, hamiltonian_transfer_report),
    "donor_acceptor": ("donor_acceptor", DonorAcceptorParams, donor_acceptor_report),
    "photocell": ("photocell", PhotocellParams, photocell_report),
}


def model_report(model, values, where=""):
    """Build the model's params from values and return its report.

    A value the params or the report rejects is a ConfigError, and a failed
    computation a NumericsError; either message is prefixed with `where`.
    """
    _, params_cls, report = MODELS[model]
    try:
        return report(params_cls(**values))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{exc}")
    except NumericsError as exc:
        if not where:
            raise
        raise NumericsError(f"{where}{exc}") from exc


__all__ = [
    "MODELS",
    "model_report",
    "ThreeLevelParams",
    "BirthDeathRates",
    "birth_death_rates",
    "decay_generator",
    "decay_report",
    "decay_steady_populations",
    "dressed_frequency",
    "dressed_product_state",
    "excitation_growth_rate",
    "group_number_operator",
    "hamiltonian_transfer_generator",
    "hamiltonian_transfer_report",
    "require_truncation_ok",
    "transfer_block_hamiltonian",
    "DonorAcceptorParams",
    "donor_acceptor_generator",
    "donor_acceptor_report",
    "donor_acceptor_steady_state",
    "PhotocellParams",
    "photocell_generator",
    "photocell_report",
    "photocell_steady_state",
    "CollectiveReservoirParams",
    "OscillatorLimitReport",
    "compare_with_oscillator_limit",
]
