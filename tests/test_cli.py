"""End-to-end checks of the command-line surface.

Commands run in-process through main(argv) so exit codes, stdout, and
stderr can be asserted directly; one test runs the console-script entry
point declared in pyproject.toml from this checkout, in a subprocess the
way the generated wrapper does, so no install is needed. Output rows are
cross-checked against the library API, which assembles the same reports
without going through the config layering.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10 has no stdlib TOML reader
    tomllib = None

import solaraudit
from solaraudit import cli, config as cfg
from solaraudit.cli import main
from solaraudit.models import ThreeLevelParams, decay_report
from solaraudit.output import emit_csv, emit_json, format_number

REPORT_HEADER = "j_abs,j_loss,power,ratio,sigma,verdict"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ENTRY_POINT = "solaraudit.cli:entry"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_lines(out):
    lines = out.splitlines()
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    footers = [ln for ln in lines[1:] if ln.startswith("#")]
    return lines[0], rows, footers


def test_help_paths(capsys):
    code, out, err = run_cli(capsys)
    assert code == 0 and err == ""
    assert "Commands:" in out
    for command in ("toy-decay", "sweep", "fmo-trace", "compare-power"):
        assert command in out
    for argv in (["-h"], ["--help"], ["help"], ["toy-decay", "--help"]):
        code_i, out_i, err_i = run_cli(capsys, *argv)
        assert code_i == 0 and out_i == out and err_i == ""


def test_unknown_command(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unknown command" in err


def test_malformed_argv(capsys):
    code, _, err = run_cli(capsys, "toy-decay", "--t_loss")
    assert code == 2 and "needs a value" in err
    code, _, err = run_cli(capsys, "toy-decay", "0.5")
    assert code == 2 and "unexpected argument" in err
    code, _, err = run_cli(capsys, "toy-decay", "--", "x")
    assert code == 2 and "unexpected argument" in err
    code, _, err = run_cli(capsys, "toy-decay", "--format", "xml")
    assert code == 2 and "--format must be csv or json" in err


def test_report_csv_shape(capsys):
    for command in ("toy-decay", "toy-ham", "donor-acceptor", "photocell"):
        code, out, err = run_cli(capsys, command)
        assert code == 0 and err == ""
        header, rows, footers = csv_lines(out)
        assert header == REPORT_HEADER
        assert len(rows) == 1 and footers == []
        assert len(rows[0]) == 6
        assert rows[0][5] in ("consistent", "violation", "undefined")
        for cell in rows[0][:5]:
            float(cell)


def test_report_landmark_ratios(capsys):
    # Defaults put the load transition half a hot gap below recycling,
    # so both multi-level cycles report an extraction ratio of 1/2.
    for command in ("donor-acceptor", "photocell"):
        _, out, _ = run_cli(capsys, command)
        _, rows, _ = csv_lines(out)
        assert float(rows[0][3]) == pytest.approx(0.5, rel=1e-12)
    _, out, _ = run_cli(capsys, "toy-decay")
    _, rows, _ = csv_lines(out)
    assert float(rows[0][3]) == pytest.approx(0.6, rel=1e-12)


def test_report_row_matches_library_route(capsys):
    _, out, _ = run_cli(capsys, "toy-decay")
    report = decay_report(ThreeLevelParams(**cfg.default_section("toy")))
    cells = [
        format_number(x)
        for x in (report.j_abs, report.j_loss, report.power, report.ratio, report.sigma)
    ]
    cells.append(report.verdict)
    assert out.splitlines()[1] == ",".join(cells)


def test_json_payload_shape(capsys):
    code, out, _ = run_cli(capsys, "toy-decay", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"model", "params", "rows", "units", "violations"}
    assert payload["model"] == "toy-decay"
    assert payload["violations"] == []
    assert isinstance(payload["units"], dict) and payload["units"]
    assert len(payload["rows"]) == 1 and len(payload["rows"][0]) == 6
    # auto rates pass through the layering as nulls
    assert payload["params"]["gamma_h"] is None
    assert payload["params"]["gamma_c"] is None
    assert payload["params"]["omega_abs"] == 1.0


def test_flag_override_flips_verdict(capsys):
    _, out, _ = run_cli(capsys, "toy-decay")
    assert out.splitlines()[1].endswith(",consistent")
    _, out, _ = run_cli(capsys, "toy-decay", "--t_loss", "0.9")
    assert out.splitlines()[1].endswith(",violation")


def test_config_file_layering(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[toy]\nt_loss = 0.2\n")
    _, out, _ = run_cli(capsys, "toy-decay", "--config", str(path), "--format", "json")
    params = json.loads(out)["params"]
    assert params["t_loss"] == 0.2
    assert params["omega_rc"] == 0.5
    _, out, _ = run_cli(
        capsys, "toy-decay", "--config", str(path), "--t_loss", "0.4", "--format", "json"
    )
    assert json.loads(out)["params"]["t_loss"] == 0.4


def test_config_file_errors(capsys, tmp_path):
    cases = {
        "unknown_key.cfg": ("[toy]\nbogus = 1\n", "unknown keys in [toy]: bogus"),
        "unknown_section.cfg": ("[nope]\nx = 1\n", "unknown section [nope]"),
        "dup_key.cfg": ("[toy]\ngamma = 1\ngamma = 2\n", "duplicate key"),
        "stray_key.cfg": ("gamma = 1\n", "outside any [section]"),
        "bad_line.cfg": ("[toy]\ngamma\n", "expected '[section]' or 'key = value'"),
        "empty_section.cfg": ("[ ]\ngamma = 1\n", "line 1: empty section name"),
        "dup_section.cfg": ("[toy]\ngamma = 1\n[toy]\n", "line 3: duplicate section [toy]"),
    }
    for name, (text, needle) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run_cli(capsys, "toy-decay", "--config", str(path))
        assert code == 2 and err.startswith("error: ")
        assert needle in err
    code, _, err = run_cli(capsys, "toy-decay", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and "cannot read config file" in err


def test_bad_values_exit_2(capsys):
    code, _, err = run_cli(capsys, "toy-decay", "--omega_abs", "banana")
    assert code == 2 and "omega_abs" in err
    code, _, err = run_cli(capsys, "toy-decay", "--omega_rc", "2.5")
    assert code == 2 and "omega_rc" in err
    code, _, err = run_cli(capsys, "toy-decay", "--nope", "3")
    assert code == 2 and "unknown keys in [toy]: nope" in err
    code, _, err = run_cli(capsys, "donor-acceptor", "--omega_beta", "-1")
    assert code == 2 and err == "error: recycle gap omega_beta - omega_b must be positive\n"
    # non-finite values are rejected where flags are converted
    for argv in (
        ("toy-decay", "--gamma", "nan"),
        ("photocell", "--gamma_h", "inf"),
        ("toy-decay", "--t_abs", "inf"),
        ("fmo-trace", "--t_sun", "nan"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "must be finite" in err, argv
    # values the params accept but the closed-form report does not
    for argv, needle in (
        (("toy-ham", "--gamma", "0.1"), "weak coupling"),
        (("compare-power", "--gamma", "0.1"), "temperature ratio 0.02: hamiltonian"),
        (("sweep", "--model", "toy_ham", "--gamma", "0.1"), "sweep point omega_ratio = "),
        (("toy-ham", "--gamma", "0"), "both bath rates positive"),
        (("toy-decay", "--gamma", "0"), "gamma_c is zero"),
        (("compare-power", "--gamma", "0"), "gamma_c is zero"),
        (("toy-decay", "--gamma_h", "0"), "gamma_h is zero"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and needle in err, argv


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sweep")
    assert code == 0
    target = tmp_path / "table.csv"
    code, silent, _ = run_cli(capsys, "sweep", "--out", str(target))
    assert code == 0 and silent == ""
    assert target.read_text() == out
    code, _, err = run_cli(capsys, "sweep", "--out", str(tmp_path / "nodir" / "x.csv"))
    assert code == 2 and "cannot write output file" in err


def test_sweep_csv_footer_marks_onset(capsys):
    code, out, _ = run_cli(capsys, "sweep")
    assert code == 0
    header, rows, footers = csv_lines(out)
    assert header == "axis," + REPORT_HEADER
    assert len(rows) == 50 and all(len(r) == 7 for r in rows)
    assert len(footers) == 1 and footers[0].startswith("# violation: ")
    lo, hi = (float(tok) for tok in footers[0][len("# violation: ") :].split(".."))
    onset = 2.0 * (1.0 - 0.05) / (1.0 + 0.05)
    assert abs(lo - onset) < 1e-3
    assert hi == pytest.approx(1.98, rel=1e-12)


def test_sweep_json_violations(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"model", "params", "rows", "units", "violations"}
    assert payload["model"] == "toy_decay"
    assert len(payload["rows"]) == 50 and len(payload["rows"][0]) == 7
    assert len(payload["violations"]) == 1
    lo, hi = payload["violations"][0]
    assert abs(lo - 2.0 * 0.95 / 1.05) < 1e-3
    assert hi == pytest.approx(1.98, rel=1e-12)


def test_sweep_default_stop_stays_inside_the_model_domain(capsys):
    # the default axis_stop (auto) ends the donor-acceptor and photocell
    # grids at 0.98, inside their omega_ratio domain x < 0.99, and is the
    # same as naming it; an explicit stop past the domain still fails and
    # names the first point outside it
    for model in ("donor_acceptor", "photocell"):
        bare = run_cli(capsys, "sweep", "--model", model, "--format", "json")
        assert bare[0] == 0 and json.loads(bare[1])["params"]["axis_stop"] == 0.98
        named = run_cli(capsys, "sweep", "--model", model, "--axis_stop", "auto", "--format", "json")
        assert named == bare
        code, out, err = run_cli(capsys, "sweep", "--model", model, "--axis_stop", "1.98")
        assert code == 2 and out == ""
        assert err.startswith("error: sweep point omega_ratio = 1.02: recycle gap")
    # where the whole 0.02..1.98 grid is defined, auto is 1.98 at any start
    for argv in (("--axis", "temp_ratio"), ("--model", "toy_ham", "--axis_start", "0.1")):
        auto = run_cli(capsys, "sweep", *argv, "--format", "json")
        assert auto[0] == 0 and auto == run_cli(
            capsys, "sweep", *argv, "--axis_stop", "1.98", "--format", "json"
        )


def test_sweep_flag_namespaces(capsys):
    # --t_loss belongs to the model section, --axis_points to [sweep],
    # and the model choice applies no matter where it sits in argv.
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--axis_points",
        "7",
        "--t_loss",
        "0.5",
        "--model",
        "toy_ham",
    )
    assert code == 0
    _, rows, footers = csv_lines(out)
    assert len(rows) == 7 and footers == []
    assert all(r[6] == "consistent" for r in rows)


def test_sweep_unknown_flag(capsys):
    code, _, err = run_cli(capsys, "sweep", "--omega_beta", "0.4")
    assert code == 2
    assert "unknown flags for a sweep over toy_decay: --omega_beta" in err
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "donor_acceptor", "--omega_beta", "0.4",
        "--axis_start", "0.1", "--axis_stop", "0.3", "--axis_points", "3",
    )
    assert code == 0 and out.count("\n") >= 4
    # a model key and a sweep key route to their sections; the unknown
    # key is still named
    code, out, err = run_cli(
        capsys, "sweep", "--t_loss", "0.5", "--axis_points", "3", "--omega_x1", "1.0",
    )
    assert code == 2 and out == ""
    assert "unknown flags for a sweep over toy_decay: --omega_x1" in err


def test_auto_only_where_params_default_to_none(capsys):
    # a closed-form section is its params dataclass's fields; 'auto' is a
    # value only where the field defaults to None
    for fmt in ("csv", "json"):
        plain = run_cli(capsys, "toy-decay", "--format", fmt)
        assert plain[0] == 0
        assert run_cli(capsys, "toy-decay", "--gamma_h", "auto", "--format", fmt) == plain
    for argv, key in (
        (("donor-acceptor", "--gamma_h", "auto"), "gamma_h"),
        (("photocell", "--gamma_x", "auto"), "gamma_x"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and repr(key) in err, argv


def test_grid_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis_points", "1")
    assert code == 2 and "at least 2 points" in err
    code, _, err = run_cli(capsys, "sweep", "--axis_start", "2", "--axis_stop", "1")
    assert code == 2 and "stop > start" in err
    code, _, err = run_cli(capsys, "compare-power", "--ratio_points", "1")
    assert code == 2 and "at least 2 points" in err


def test_unallocatable_grid_exits_2(capsys, monkeypatch):
    # the grid's one-step list allocation raises MemoryError up front for
    # a count it cannot allocate; stand in for it rather than asking for it
    def grid(start, stop, points):
        raise MemoryError(f"cannot allocate {points} points")

    monkeypatch.setattr(cli, "_grid", grid)
    for argv in (
        ("sweep", "--axis_points", "100000000000"),
        ("fmo-trace", "--n_times", "100000000000"),
        ("compare-power", "--ratio_points", "100000000000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "100000000000 points does not fit in memory" in err


def bits(values):
    return [float(x).hex() for x in values]


# finite start < stop, magnitudes up to 1e300 of either sign
SPANS = st.tuples(*[st.floats(min_value=-1e300, max_value=1e300)] * 2).filter(
    lambda ab: ab[0] != ab[1]
).map(sorted)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(SPANS, st.integers(min_value=2, max_value=2000))
def test_grid_is_numpy_linspace_bit_for_bit(span, points):
    start, stop = span
    assert bits(cli._grid(start, stop, points)) == bits(np.linspace(start, stop, points))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.floats(min_value=-1e-310, max_value=1e-310), st.integers(3, 2000), st.data())
def test_grid_with_an_underflowing_step_is_numpy_linspace(start, points, data):
    # a span of a few subnormal steps over many points: the step is 0
    stop = start + data.draw(st.integers(1, (points - 1) // 2)) * 5e-324
    assert (stop - start) / (points - 1) == 0.0
    assert bits(cli._grid(start, stop, points)) == bits(np.linspace(start, stop, points))


def test_default_time_grid_is_numpy_linspace():
    fmo = cfg.default_section("fmo")
    grid = cli._linspace(0.0, fmo["t_max_ps"], fmo["n_times"], "time grid")
    assert bits(grid) == bits(np.linspace(0.0, 10.0, 201))


def test_compare_power_csv(capsys):
    code, out, _ = run_cli(capsys, "compare-power")
    assert code == 0
    header, rows, footers = csv_lines(out)
    assert header == "ratio,p_dec,p_ham"
    assert len(rows) == 60 and footers == []
    assert all(float(r[1]) < 0.0 for r in rows)
    code, out, _ = run_cli(capsys, "compare-power", "--ratio_points", "7")
    assert code == 0 and len(csv_lines(out)[1]) == 7


def test_fmo_trace_quick(capsys):
    code, out, err = run_cli(
        capsys, "fmo-trace", "--t_max_ps", "0.2", "--n_times", "5"
    )
    assert code == 0 and err == ""
    header, rows, _ = csv_lines(out)
    assert header == "t_ps,j_abs,j_loss,sink_flow,sigma"
    assert len(rows) == 5
    times = [float(r[0]) for r in rows]
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.2, rel=1e-12)
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row)


def test_fmo_trace_numerics_exit(capsys):
    code, out, err = run_cli(capsys, "fmo-trace", "--t_sun", "1.0")
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ")


def test_fmo_trace_huge_time_span(capsys):
    # exact propagation takes any span in one step: after 1e300 ps all
    # population sits in the trap and nothing flows
    code, out, err = run_cli(capsys, "fmo-trace", "--n_times", "2", "--t_max_ps", "1e300")
    assert code == 0 and err == ""
    _, rows, _ = csv_lines(out)
    assert rows[-1][0] == "1e+300"
    assert all(abs(float(cell)) <= 1e-12 for cell in rows[-1][1:])
    # a span whose |L dt| overflows is a numerical failure, reported on one
    # line with no warning or traceback
    code, out, err = run_cli(capsys, "fmo-trace", "--n_times", "2", "--t_max_ps", "1e308")
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1


def test_occupation_underflow_exits_3(capsys):
    # a hot gap of 1000 temperatures underflows the Bose occupation to zero
    for argv in (
        ("toy-decay", "--t_abs", "1e-3"),
        ("donor-acceptor", "--t_abs", "1e-3"),
        ("photocell", "--t_abs", "1e-3"),
        ("sweep", "--model", "photocell", "--t_abs", "1e-3", "--axis_stop", "0.98"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("numerical failure: ") and "hot occupation vanished" in err


def test_fmo_trace_extreme_values_exit_cleanly(capsys):
    # values that pass config validation but break the model build: a
    # degenerate occupation or a channel rate that is not finite is a
    # numerical failure
    for flag, value, expected in (
        ("omega_ant", "1e-300", 3),
        ("t_sun", "1e300", 3),
        ("mu_ant_ind", "1e300", 3),
        ("mu_fmo", "1e-300", 3),
        ("mu_fmo", "1e-320", 3),
        ("omega_ant", "5e-324", 3),
        ("omega_ant", "1e-320", 3),
        ("vib_cutoff", "1e-320", 3),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fmo-trace", "--n_times", "3", f"--{flag}", value)
        assert code == expected and out == "", (flag, value, code)
        assert "Traceback" not in err and len(err.splitlines()) == 1, (flag, value)
        prefix = "error: " if expected == 2 else "numerical failure: "
        assert err.startswith(prefix), (flag, value)
    # a rate whose heat-current residue scale overflows runs without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "fmo-trace", "--n_times", "3", "--gamma_rad", "1e300")
    assert code == 0 and err == ""


def test_rate_underflow_exits_3_without_warning(capsys):
    overflow = (
        ("toy-decay", "--gamma_h", "1e-320"),
        ("toy-decay", "--gamma_c", "1e-320"),
        ("donor-acceptor", "--gamma_h", "1e-320"),
        ("donor-acceptor", "--gamma_h", "1e-320", "--t_abs", "0.3"),
        ("photocell", "--gamma_h", "1e-320"),
        ("photocell", "--gamma_x", "1e-320", "--gamma_load", "1e-10"),
    )
    # currents that come out subnormal have lost digits of their ratio
    subnormal = (
        ("toy-decay", "--gamma", "1e-320"),
        ("toy-ham", "--gamma_h", "1e-320"),
        ("toy-ham", "--gamma", "1e-320"),
        ("donor-acceptor", "--gamma_load", "1e-320"),
        ("photocell", "--gamma_load", "1e-320"),
        ("compare-power", "--gamma", "1e-320"),
        ("sweep", "--gamma", "1e-320"),
    )
    # a failure inside a sweep or a power comparison names its point
    where = {
        "compare-power": "temperature ratio 0.02: ",
        "sweep": "sweep point omega_ratio = 0.02: ",
    }
    for argv in overflow + subnormal:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        reason = "cycle ratios overflow" if argv in overflow else "subnormal report"
        assert err.startswith("numerical failure: " + where.get(argv[0], "") + reason), argv


def test_nan_cells(capsys):
    # With the sink switched off the cycle stalls: zero currents make the
    # extraction ratio nan, which must print as a 'nan' cell and a JSON null.
    argv = ("toy-decay", "--gamma", "0", "--gamma_h", "1e-4", "--gamma_c", "1e-4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    _, rows, _ = csv_lines(out)
    assert rows[0][3] == "nan"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0][3] is None


def test_emission_rejects_cells_and_values_of_no_schema():
    # the commands emit str, int and float (numpy's float64 among them) only
    cells = ((True, "boolean cells"), (1j, "cannot format complex"), (np.int64(1), "cannot format int64"))
    for cell, needle in cells:
        with pytest.raises(TypeError, match=needle):
            emit_csv(["x"], [[cell]])
    for value, needle in (({1.0}, "cannot serialize set"), (np.arange(2), "cannot serialize ndarray")):
        with pytest.raises(TypeError, match=needle):
            emit_json({"rows": [value]})


def test_byte_determinism(capsys):
    for fmt in ("csv", "json"):
        _, first, _ = run_cli(capsys, "sweep", "--format", fmt)
        _, second, _ = run_cli(capsys, "sweep", "--format", fmt)
        assert first == second


def test_defaults_hold_exactly_each_schema():
    # a key a schema gains but the defaults lack would reach the params
    # constructor missing: a TypeError traceback instead of exit 2
    for name, schema in cfg.SCHEMAS.items():
        assert sorted(cfg.default_section(name)) == sorted(schema), name
    assert cfg.default_section("toy")["gamma_h"] is None
    assert cfg.default_section("fmo")["gamma_ant_fmo"] is None
    with pytest.raises(cfg.ConfigError, match=r"defaults have no section \[nope\]"):
        cfg.default_section("nope")


def test_config_round_trip_handcrafted():
    text = "\n".join(
        (
            "[toy]  # scheme parameters",
            "omega_abs = 1.5e0",
            "omega_rc = 0.3",
            "gamma = 2e-4",
            "gamma_h = auto",
            "gamma_c = 0.007",
            "t_abs = 2.0",
            "t_loss = 0.1",
        )
    )
    typed = cfg.validate_sections(cfg.parse_config_text(text))
    assert typed["toy"]["gamma_h"] is None
    assert typed["toy"]["omega_abs"] == 1.5


def run_python(code, cwd, *argv):
    """Run `python -c code` in a child process whose PYTHONPATH leads with
    the package under test."""
    package_root = str(Path(solaraudit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_console_script_subprocess(tmp_path):
    # The console script is a wrapper that imports the [project.scripts]
    # target and exits with its return value; run that in a child process,
    # with PYTHONPATH pointing at the package under test rather than at
    # whatever `solaraudit` happens to be installed or on PATH. The child
    # starts in an empty directory, since `python -c` puts the cwd ahead
    # of PYTHONPATH on sys.path.
    if tomllib is not None:
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["solaraudit"] == ENTRY_POINT
    module, func = ENTRY_POINT.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"

    def run(*argv):
        return run_python(code, tmp_path, *argv)

    proc = run("toy-decay")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == REPORT_HEADER
    proc = run("toy-decay", "--omega_rc", "9")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


def test_cli_leaves_scipy_linalg_unimported(tmp_path):
    # importing scipy.sparse costs a command ~0.2 s and ~20 MB of resident
    # memory. Generators are numpy triplets and propagation is numpy on
    # either path, so no command may load any scipy module. numpy.ma, which
    # np.unique loads in numpy 2.4, costs 8-21 ms and ~1.2 MB cold.
    code = (
        "import contextlib, io, sys\n"
        "import solaraudit\n"
        "from solaraudit.cli import main\n"
        "closed = [['toy-decay'], ['toy-ham'], ['donor-acceptor'], ['photocell'],\n"
        "          ['compare-power'], ['sweep', '--model', 'toy_decay'],\n"
        "          ['sweep', '--model', 'toy_ham'], ['sweep', '--model', 'donor_acceptor'],\n"
        "          ['sweep', '--model', 'photocell'], ['fmo-trace', '--n_times', '3']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in closed]\n"
        "print(codes, sorted(m for m in sys.modules\n"
        "                    if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0, 0, 0, 0, 0] []"]


def test_closed_form_commands_leave_numpy_unimported(tmp_path):
    # numpy is most of a closed-form command's start-up; it loads only with
    # the master-equation layer (core, thermo, fmo, the dressed ladder and
    # collective), which the package names load on first use
    config = tmp_path / "toy.cfg"
    config.write_text("[toy]\nt_loss = 0.5\n")
    out = tmp_path / "out.csv"
    argvs = [["--help"], ["toy-decay", "--config", str(config)], ["toy-ham", "--out", str(out)]]
    for fmt in ("csv", "json"):
        for command in ("toy-decay", "toy-ham", "donor-acceptor", "photocell", "compare-power"):
            argvs.append([command, "--format", fmt])
        for model in ("toy_decay", "toy_ham", "donor_acceptor", "photocell"):
            argvs.append(["sweep", "--model", model, "--format", fmt])
    code = (
        "import contextlib, io, json, sys\n"
        "import solaraudit, solaraudit.models\n"
        "print('numpy' in sys.modules)\n"
        "from solaraudit.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code, 'numpy' in sys.modules)\n"
        "for module in (solaraudit, solaraudit.models):\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python(code, tmp_path, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", *["0 False"] * len(argvs), "True"]
    assert out.read_text().splitlines()[0] == REPORT_HEADER


def test_small_generators_leave_scipy_unimported(tmp_path):
    # the steady-state audit of the zoo: an FMO thermal control (dim 9)
    # and a decay generator, steady state and per-bath heat currents; nor
    # numpy.ma, which np.unique would load (test_cli_leaves_scipy_linalg_unimported)
    code = (
        "import math, sys\n"
        "from solaraudit import config, heat_current, steady_state\n"
        "from solaraudit.fmo import build_model, default_config\n"
        "from solaraudit.models import ThreeLevelParams, decay_generator\n"
        "thermal = build_model(default_config(gamma_sink=0.0, lambda_geo=1e-4)).generator\n"
        "decay = decay_generator(ThreeLevelParams(**config.default_section('toy')))\n"
        "for gen in (thermal, decay):\n"
        "    rho = steady_state(gen)\n"
        "    currents = [heat_current(gen, b, rho) for b in ('abs', 'loss', 'sink')]\n"
        "    print(all(map(math.isfinite, currents)))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "True", "[]"]


def test_large_propagation_leaves_scipy_unimported(tmp_path):
    # a reachable set above 16^2 coordinates takes the Taylor action, which
    # is numpy too: the dim-40 chain from an even superposition of its top
    # 17 levels reaches 290 coordinates
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from solaraudit import DensityMatrix, DissipationChannel, LindbladGenerator, propagate\n"
        "dim = 40\n"
        "lower = np.zeros((dim, dim))\n"
        "lower[0, dim - 1] = 1.0\n"
        "gen = LindbladGenerator(np.diag(np.arange(dim, dtype=float)),\n"
        "                        [DissipationChannel(lower, 0.05, 'loss', dim - 1.0)])\n"
        "v = np.zeros(dim)\n"
        "v[dim - 17:] = 1.0\n"
        "rho0 = DensityMatrix.pure(v)\n"
        "print(np.count_nonzero(gen._reached(rho0.entries.reshape(-1) != 0)[0]))\n"
        "states = propagate(gen, rho0, [0.0, 4.0])\n"
        "print(round(17 * states[-1].population(dim - 1) / np.exp(-0.2), 9))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["290", "1.0", "[]"]


def test_module_runs_the_cli(tmp_path):
    # `python -m solaraudit.cli` runs the same entry point as the script
    package_root = str(Path(solaraudit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "solaraudit.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    proc = run("toy-decay")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == REPORT_HEADER
    proc = run("toy-decay", "--omega_rc", "9")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
