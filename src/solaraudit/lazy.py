"""Module attributes that load their module on first lookup (PEP 562).

The closed-form layer runs on the standard library, and numpy loads only
with the master-equation layer (core, thermo, fmo, models.ladder and
models.collective). A module that names objects of both layers gets the
numpy layer's through lazy_names.
"""

from importlib import import_module


def lazy_names(module, names):
    """A __getattr__ for the module named `module`, given names: {dotted
    module path: the attribute names it provides}. Each lookup reads the
    name off its module afresh, so that a name rebound there is seen."""
    where = {name: path for path, group in names.items() for name in group}

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(import_module(where[name]), name)

    return __getattr__
