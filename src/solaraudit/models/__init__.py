"""The model zoo and the one table of models with closed-form reports.
The sink-driven models (decay, donor-acceptor, photocell) are rings that
cycle.py solves. Every name here loads its module at its first lookup:
the closed forms on the standard library, the numpy names (the dressed
ladder, collective.py) with numpy, and a command loads only its own
model's module."""

import sys

from ..errors import ConfigError, NumericsError
from ..lazy import lazy_names

# the dressed ladder's names, which three_level.py also serves
LADDER = ("dressed_frequency", "transfer_block_hamiltonian", "hamiltonian_transfer_generator",
          "group_number_operator", "dressed_product_state", "excitation_growth_rate",
          "require_truncation_ok")

# module -> the public names it gives this package
_NAMES = {
    "solaraudit.models.cycle": (),
    "solaraudit.models.three_level": (
        "ThreeLevelParams", "BirthDeathRates", "birth_death_rates", "decay_generator",
        "decay_report", "decay_steady_populations", "hamiltonian_transfer_report"),
    "solaraudit.models.donor_acceptor": (
        "DonorAcceptorParams", "donor_acceptor_generator", "donor_acceptor_report",
        "donor_acceptor_steady_state"),
    "solaraudit.models.photocell": (
        "PhotocellParams", "photocell_generator", "photocell_report", "photocell_steady_state"),
    "solaraudit.models.ladder": LADDER,
    "solaraudit.models.collective": (
        "CollectiveReservoirParams", "OscillatorLimitReport", "compare_with_oscillator_limit"),
}
_lazy = lazy_names(__name__, _NAMES)


def __getattr__(name):
    # kept after the first lookup, so that later ones are plain attribute reads
    value = globals()[name] = _lazy(name)
    return value


class _Models(dict):
    """A dict whose entries are (config section, params class, report),
    stored as (section, params name, report name) until their first lookup
    by key, which reads those names off this package: a lookup loads only
    its own model's module. Iteration over items or values gives entries
    as stored; their first field is the section either way."""

    def __getitem__(self, model):
        section, params, report = entry = super().__getitem__(model)
        if isinstance(report, str):
            package = sys.modules[__name__]
            entry = self[model] = section, getattr(package, params), getattr(package, report)
        return entry


# model name -> (config section of its parameters, params class, report).
# The config schemas (one key per params field), the sweep model choice,
# the sweep's section lookup and the CLI's report commands (model name
# with '-' for '_') all read this table.
MODELS = _Models({
    "toy_decay": ("toy", "ThreeLevelParams", "decay_report"),
    "toy_ham": ("toy", "ThreeLevelParams", "hamiltonian_transfer_report"),
    "donor_acceptor": ("donor_acceptor", "DonorAcceptorParams", "donor_acceptor_report"),
    "photocell": ("photocell", "PhotocellParams", "photocell_report"),
})


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


__all__ = ["MODELS", "model_report", *(name for names in _NAMES.values() for name in names)]
