"""Layered run parameters: shipped defaults, then a user file, then flags.

Config files use a minimal dialect: [section] headers, key = value lines,
'#' comments. Every key a command accepts lives in the shipped defaults
file, so the code itself carries no parameter values. Unknown sections or
keys are errors rather than silent no-ops, and duplicates are rejected.
"""

import dataclasses
import math
from collections.abc import Mapping
from functools import lru_cache
from importlib import resources

from .errors import ConfigError, read_user_text
from .models import MODELS

DEFAULTS_RESOURCE = "data/defaults.cfg"


def parse_config_text(text, where="config"):
    """Parse config text into {section: {key: raw string}}."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{where} line {lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"{where} line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key or not value:
            raise ConfigError(
                f"{where} line {lineno}: expected '[section]' or 'key = value', got {line!r}"
            )
        if current is None:
            raise ConfigError(f"{where} line {lineno}: key {key!r} outside any [section]")
        if key in current:
            raise ConfigError(f"{where} line {lineno}: duplicate key {key!r}")
        current[key] = value
    return sections


def parse_config_file(path):
    return parse_config_text(read_user_text(path, "config file"), where=str(path))


def _to_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _to_auto_float(raw):
    if raw == "auto":
        return None
    return _to_float(raw)


def _choice(*options):
    def convert(raw):
        if raw not in options:
            raise ValueError(f"must be one of: {', '.join(options)}")
        return raw

    return convert


def _params_schema(params_cls):
    """A model's section: one key per init field of its params dataclass,
    converted by the field's annotation (int, str, else a finite float) and
    also accepting 'auto' where the field defaults to None."""
    return {
        field.name: _to_auto_float
        if field.default is None
        else {int: int, str: str}.get(field.type, _to_float)
        for field in dataclasses.fields(params_cls)
        if field.init
    }


def _fmo_schema():
    from .fmo import FmoConfig  # loads numpy, so only where [fmo] is used

    return _params_schema(FmoConfig)


class _Schemas(Mapping):
    """Section name -> schema; one given as a function is built at its first lookup."""

    def __init__(self, schemas):
        self._schemas = schemas

    def __getitem__(self, name):
        if callable(self._schemas[name]):
            self._schemas[name] = self._schemas[name]()
        return self._schemas[name]

    def __iter__(self):
        return iter(self._schemas)

    def __len__(self):
        return len(self._schemas)


SCHEMAS = _Schemas({
    **{section: _params_schema(params_cls) for section, params_cls, _ in MODELS.values()},
    "fmo": _fmo_schema,
    "sweep": {
        "model": _choice(*MODELS),
        "axis": str,
        "axis_start": _to_float,
        "axis_stop": _to_auto_float,
        "axis_points": int,
    },
    "compare_power": {
        "omega_abs": _to_float,
        "omega_rc": _to_float,
        "gamma": _to_float,
        "t_abs": _to_float,
        "ratio_start": _to_float,
        "ratio_stop": _to_float,
        "ratio_points": int,
    },
})


def convert_section(name, raw_map, where="config"):
    """Type-check one section's raw strings against its schema."""
    if name not in SCHEMAS:
        raise ConfigError(
            f"{where}: unknown section [{name}]; known sections: "
            + ", ".join(sorted(SCHEMAS))
        )
    schema = SCHEMAS[name]
    unknown = sorted(set(raw_map) - set(schema))
    if unknown:
        raise ConfigError(
            f"{where}: unknown keys in [{name}]: " + ", ".join(unknown)
        )
    typed = {}
    for key, raw in raw_map.items():
        try:
            typed[key] = schema[key](raw)
        except ValueError as exc:
            detail = str(exc) or "malformed value"
            raise ConfigError(f"{where}: key {key!r} in [{name}]: {detail} (got {raw!r})")
    return typed


def validate_sections(raw_sections, where="config"):
    """Type-check every section of a parsed file, catching typos early."""
    return {
        name: convert_section(name, raw_map, where=where)
        for name, raw_map in raw_sections.items()
    }


@lru_cache(maxsize=1)
def _default_sections():
    text = resources.files("solaraudit").joinpath(DEFAULTS_RESOURCE).read_text()
    return parse_config_text(text, where="defaults")


def default_section(name):
    """Typed copy of one section of the shipped defaults."""
    defaults = _default_sections()
    if name not in defaults:
        raise ConfigError(f"defaults have no section [{name}]")
    return convert_section(name, defaults[name], where="defaults")
