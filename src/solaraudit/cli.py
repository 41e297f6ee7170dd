"""Command-line entry point.

    solaraudit <command> [--config FILE] [--key value ...]
                         [--format csv|json] [--out PATH]

Commands evaluate one model and print its audit table. Parameters layer
as shipped defaults, then the --config file, then --key flags. Exit code
2 flags configuration problems, 3 numerical failures.
"""

import math
import sys
from functools import partial

from . import config as cfg
from .errors import ConfigError, NumericsError
from .models import MODELS, model_report
from .output import emit_csv, emit_json, format_number, write_output
from .sweeps import AUTO_AXIS_STOP, SweepSpec, defined_stop, power_comparison, run_sweep

REPORT_HEADER = ("j_abs", "j_loss", "power", "ratio", "sigma", "verdict")

MODEL_UNITS = {
    "energy": "model units",
    "time": "1/energy",
    "power": "energy per time, positive into the system",
}

TRACE_UNITS = {
    "time": "ps",
    "current": "cm^-1 per ps",
    "sigma": "nat per ps",
}


def _parse_argv(argv):
    if not argv or argv[0] in ("-h", "--help", "help"):
        return None
    command = argv[0]
    if command not in COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; commands: " + ", ".join(COMMANDS)
        )
    config_path = None
    fmt = "csv"
    out = None
    overrides = {}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--") or len(arg) <= 2:
            raise ConfigError(f"unexpected argument {arg!r}; flags look like --key value")
        key = arg[2:]
        if key == "help":
            return None
        i += 1
        if i >= len(argv):
            raise ConfigError(f"flag --{key} needs a value")
        value = argv[i]
        i += 1
        if key == "config":
            config_path = value
        elif key == "format":
            if value not in ("csv", "json"):
                raise ConfigError(f"--format must be csv or json, got {value!r}")
            fmt = value
        elif key == "out":
            out = value
        else:
            overrides[key] = value
    return command, config_path, fmt, out, overrides


def _section_params(section, file_sections, overrides):
    params = dict(cfg.default_section(section))
    params.update(file_sections.get(section, {}))
    params.update(cfg.convert_section(section, overrides, where="flags"))
    return params


def _sweep_params(file_sections, overrides):
    """Sweep settings come from [sweep]; the swept model's fixed values
    come from its own section. Each flag goes to the one section whose
    schema has its key, sweep keys first, so --model picks the model
    section wherever it sits in argv."""
    sweep_flags = {k: v for k, v in overrides.items() if k in cfg.SCHEMAS["sweep"]}
    sweep_params = _section_params("sweep", file_sections, sweep_flags)
    model = sweep_params["model"]
    section = MODELS[model][0]
    model_flags = {k: v for k, v in overrides.items() if k not in sweep_flags}
    unknown = sorted("--" + k for k in model_flags if k not in cfg.SCHEMAS[section])
    if unknown:
        raise ConfigError(f"unknown flags for a sweep over {model}: " + ", ".join(unknown))
    return sweep_params, _section_params(section, file_sections, model_flags)


def _grid(start, stop, points):
    """np.linspace(start, stop, points) of numpy 2, bit for bit, as a list:
    point i is i * step + start, or i / div * delta + start where the step
    underflows to 0, and the last point is stop."""
    div, delta = points - 1, stop - start
    step = delta / div
    grid = [stop] * points  # one allocation: a count too large fails here
    for i in range(div):
        grid[i] = i * step + start if step else i / div * delta + start
    return grid


def _linspace(start, stop, points, what):
    if points < 2:
        raise ConfigError(f"{what} needs at least 2 points, got {points}")
    if not stop > start:
        raise ConfigError(f"{what} needs stop > start, got {start} .. {stop}")
    if not math.isfinite(stop - start):  # no finite step spans it
        raise ConfigError(f"{what} needs a finite stop - start, got {start} .. {stop}")
    try:
        return _grid(start, stop, points)
    except MemoryError:
        raise ConfigError(f"{what} of {points} points does not fit in memory")


def _report(model, file_sections, overrides):
    params = _section_params(MODELS[model][0], file_sections, overrides)
    r = model_report(model, params)
    rows = [(r.j_abs, r.j_loss, r.power, r.ratio, r.sigma, r.verdict)]
    return REPORT_HEADER, rows, model.replace("_", "-"), params, MODEL_UNITS, ()


def _sweep(file_sections, overrides):
    sweep_params, fixed = _sweep_params(file_sections, overrides)
    start, stop, points = (sweep_params[k] for k in ("axis_start", "axis_stop", "axis_points"))
    grid = _linspace(start, AUTO_AXIS_STOP if stop is None else stop, points, "sweep grid")
    if stop is None:
        stop = defined_stop(sweep_params["model"], fixed, sweep_params["axis"], grid)
        sweep_params["axis_stop"] = stop
        grid = _linspace(start, stop, points, "sweep grid")
    spec = SweepSpec(
        model=sweep_params["model"],
        axis=sweep_params["axis"],
        grid=grid,
        fixed=fixed,
    )
    table = run_sweep(spec)
    header = ("axis",) + REPORT_HEADER
    params = {**sweep_params, **fixed}
    return header, table.rows(), spec.model, params, MODEL_UNITS, table.violations


def _compare_power(file_sections, overrides):
    params = _section_params("compare_power", file_sections, overrides)
    grid = _linspace(
        params["ratio_start"], params["ratio_stop"], params["ratio_points"], "ratio grid"
    )
    result = power_comparison(
        omega_abs=params["omega_abs"],
        omega_rc=params["omega_rc"],
        gamma=params["gamma"],
        t_abs=params["t_abs"],
        ratio_grid=grid,
    )
    header = ("ratio", "p_dec", "p_ham")
    return header, result.rows(), "compare_power", params, MODEL_UNITS, ()


def _fmo_trace(file_sections, overrides):
    from .fmo import FmoConfig, sigma_trace  # the one command that loads numpy

    params = _section_params("fmo", file_sections, overrides)
    grid = _linspace(0.0, params["t_max_ps"], params["n_times"], "time grid")
    try:
        trace = sigma_trace(FmoConfig(**params), grid)
    except ValueError as exc:
        raise ConfigError(str(exc))
    rows = list(zip(trace.t_ps, trace.j_abs, trace.j_loss, trace.sink_flow, trace.sigma))
    header = ("t_ps", "j_abs", "j_loss", "sink_flow", "sigma")
    return header, rows, "fmo", params, TRACE_UNITS, ()


# command -> function of (file sections, flag overrides) returning the table
# it prints: (header, rows, model, params, units, violations), each violation
# interval a CSV footer
COMMANDS = {
    **{model.replace("_", "-"): partial(_report, model) for model in MODELS},
    "fmo-trace": _fmo_trace,
    "sweep": _sweep,
    "compare-power": _compare_power,
}

USAGE = (
    __doc__
    + "\nCommands: "
    + ", ".join(COMMANDS)
    + "\nSweep models: "
    + ", ".join(MODELS)
    + "\n"
)


def _run_command(command, config_path, fmt, out, overrides):
    file_sections = {} if config_path is None else cfg.validate_sections(
        cfg.parse_config_file(config_path), where=config_path
    )
    header, rows, model, params, units, violations = COMMANDS[command](file_sections, overrides)
    if fmt == "csv":
        text = emit_csv(header, rows, [
            f"# violation: {format_number(lo)}..{format_number(hi)}" for lo, hi in violations
        ])
    else:
        text = emit_json(
            {
                "model": model,
                "params": params,
                "units": units,
                "rows": rows,
                "violations": violations,
            }
        )
    write_output(text, out)


def main(argv):
    try:
        parsed = _parse_argv(argv)
        if parsed is None:
            sys.stdout.write(USAGE)
            return 0
        _run_command(*parsed)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
