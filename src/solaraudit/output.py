"""Deterministic CSV and JSON emission.

Numbers are rendered at 12 significant digits so that repeated runs with
identical inputs produce byte-identical output. Non-finite values become
'nan'/'inf' cells in CSV and null in JSON. Cells are str, int or float
(numpy's float64 is a float); a bool is in no schema.
"""

import json
import math
import sys

from .errors import ConfigError


def format_number(value):
    return "%.12g" % value


def _format_cell(value):
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of any output schema")
    if isinstance(value, (str, int)):
        return str(value)
    if isinstance(value, float):
        return format_number(value)
    raise TypeError(f"cannot format {type(value).__name__} as a CSV cell")


def emit_csv(header, rows, footers=()):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    lines.extend(footers)
    return "\n".join(lines) + "\n"


def sanitize_json(obj):
    """Recursively convert to plain JSON types with rounded floats."""
    if obj is None or isinstance(obj, (str, int)):  # bool is an int
        return obj
    if isinstance(obj, float):
        return float(format_number(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def emit_json(payload):
    return json.dumps(sanitize_json(payload), indent=2, sort_keys=True) + "\n"


def write_output(text, path=None):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}")
