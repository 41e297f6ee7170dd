"""The CLI's exit-code contract, driven through every numeric key.

Every command gets every numeric key of its config sections set to each
of a list of hostile values, with warnings turned into errors, and a
seeded hypothesis property sets 2-4 of them at once; the string keys and
the user files get bad names and bad contents. Whatever the
value, the run exits 0, 2 (config error) or 3 (numerical failure);
stderr carries no traceback and no warning; a failed run prints nothing
on stdout and one line on stderr; no printed row whose currents or
sigma are not finite, or whose currents are subnormal, gets a verdict
other than `undefined`; and a table without a verdict column (fmo-trace,
compare-power) prints only finite numbers.
"""

import math
import sys
import warnings
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from solaraudit import config as cfg
from solaraudit.cli import main
from solaraudit.fmo import SITE_DATA_RESOURCE
from solaraudit.models import MODELS

VALUES = ("nan", "inf", "-inf", "0", "-0", "1e-300", "1e300", "-1", "1e-320", "3", "abc")

# small grids keep the fuzz fast; the donor-acceptor and photocell
# domains end near omega_ratio = 1, so their sweeps stop before it
COMMAND_ARGS = {
    "fmo-trace": ("fmo", ["--n_times", "3"]),
    "compare-power": ("compare_power", ["--ratio_points", "3"]),
    **{m.replace("_", "-"): (MODELS[m][0], []) for m in MODELS},
}
SHORT_AXIS = {"donor_acceptor": ["--axis_stop", "0.98"], "photocell": ["--axis_stop", "0.98"]}


def numeric_keys(section):
    # every key whose shipped default is a number or 'auto'
    return [
        key
        for key, value in cfg.default_section(section).items()
        if value is None or isinstance(value, (int, float))
    ]


def cases():
    """(test id prefix, argv before the fuzzed flag, fuzzed key)."""
    for command, (section, base) in COMMAND_ARGS.items():
        for key in numeric_keys(section):
            yield command, [command, *base], key
    for model, (section, _, _) in MODELS.items():
        base = ["sweep", "--model", model, "--axis_points", "3", *SHORT_AXIS.get(model, [])]
        for key in numeric_keys("sweep") + numeric_keys(section):
            yield f"sweep-{model}", base, key


CASES = [
    pytest.param([*base, f"--{key}", value], id=f"{label}-{key}={value}")
    for label, base, key in cases()
    for value in VALUES
]


# (test id, argv, part of the one error line) of runs that must exit 2;
# {tmp} stands for a directory holding the files write_user_files makes
STRING_CASES = [
    ("data_file-missing", ["fmo-trace", "--data_file", "{tmp}/missing.txt"],
     "cannot read site data file {tmp}/missing.txt"),
    ("data_file-directory", ["fmo-trace", "--data_file", "{tmp}"],
     "cannot read site data file {tmp}"),
    ("data_file-empty", ["fmo-trace", "--data_file", ""], "cannot read site data file"),
    ("data_file-not-utf8", ["fmo-trace", "--data_file", "{tmp}/utf16.txt"],
     "cannot read site data file {tmp}/utf16.txt"),
    ("data_file-nan-energy", ["fmo-trace", "--data_file", "{tmp}/nan_energy.txt"],
     "site_energies must be finite"),
    ("data_file-nan-coupling", ["fmo-trace", "--data_file", "{tmp}/nan_coupling.txt"],
     "couplings must be finite"),
    # two uncoupled sites at one energy: a zero relaxation gap
    ("data_file-shared-energy", ["fmo-trace", "--data_file", "{tmp}/shared_energy.txt"],
     "spectral density needs omega > 0, got 0.0"),
    ("config-not-utf8", ["toy-decay", "--config", "{tmp}/utf16.txt"],
     "cannot read config file {tmp}/utf16.txt"),
    ("axis-bogus", ["sweep", "--axis", "bogus", "--axis_points", "3"], "'bogus'"),
    ("model-bogus", ["sweep", "--model", "bogus"], "'bogus'"),
]


def write_user_files(root):
    text = resources.files("solaraudit").joinpath(SITE_DATA_RESOURCE).read_text()
    (root / "utf16.txt").write_text(text, encoding="utf-16")
    (root / "nan_energy.txt").write_text(text.replace("12410.0", "nan"))
    (root / "nan_coupling.txt").write_text(text.replace("-104.1", "nan"))
    energies = ["12100.0", "12200.0", "12200.0", "12300.0", "12400.0", "12500.0", "12600.0"]
    (root / "shared_energy.txt").write_text("\n".join(energies + [" ".join(["0.0"] * 7)] * 7))


@pytest.mark.parametrize(
    "argv, needle", [pytest.param(argv, needle, id=name) for name, argv, needle in STRING_CASES]
)
def test_exit_code_contract_string_keys(capsys, tmp_path, argv, needle):
    write_user_files(tmp_path)
    code, err = check_contract(capsys, [arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert code == 2 and needle.replace("{tmp}", str(tmp_path)) in err, err


def test_exit_code_contract_rates_before_a_zero_gap(capsys, tmp_path):
    # the relaxation pairs before the zero gap are built, and their
    # overflowing rates rejected, before the spectral density sees the gap
    write_user_files(tmp_path)
    data_file = f"{tmp_path}/shared_energy.txt"
    code, err = check_contract(capsys, ["fmo-trace", "--data_file", data_file, "--vib_reorganization", "1e308"])
    assert code == 3 and "loss rate overflows" in err, err


@pytest.mark.parametrize("argv", CASES)
def test_exit_code_contract(capsys, argv):
    check_contract(capsys, argv)


# (test id, fmo-trace flags, part of the one error line) of key pairs whose
# rates overflow: a numerical failure that names the overflowed quantity
OVERFLOW_CASES = [
    ("heat-operator-vib", ["--vib_reorganization", "1e8", "--t_loss_k", "1e300"],
     "heat operator of bath 'loss' is not finite"),
    ("heat-operator-sink", ["--t_loss_k", "1e300", "--gamma_sink", "1e8"],
     "heat operator of bath 'loss' is not finite"),
    ("thermal-rate", ["--vib_reorganization", "1e150", "--t_loss_k", "1e200"],
     "loss rate overflows"),
    ("abs-rate-before-gap", ["--gamma_rad", "1e307", "--omega_ant", "12000"], "abs rate overflows"),
    ("transfer-rate-before-gap", ["--gamma_ant_fmo", "1e308", "--omega_ant", "12300"], "loss rate overflows"),
    # the transfer's base rates gamma_ant_fmo * bright_k are taken on plain
    # floats, where a numpy scalar would warn as it overflows
    ("transfer-base-rate", ["--gamma_ant_fmo", "1e308"], "loss rate overflows"),
]


@pytest.mark.parametrize(
    "flags, needle", [pytest.param(flags, needle, id=name) for name, flags, needle in OVERFLOW_CASES]
)
def test_exit_code_contract_overflowing_rates(capsys, flags, needle):
    code, err = check_contract(capsys, ["fmo-trace", "--n_times", "3", *flags])
    assert code == 3 and needle in err, err


# (test id, argv, exit code, part of the one error line) of key combinations
# whose intermediate products overflowed on numpy scalars, with a warning
MULTI_KEY_CASES = [
    ("drude-density", ["fmo-trace", "--n_times", "3", "--mu_fmo", "0.5", "--vib_cutoff", "1e200",
                       "--vib_reorganization", "1e150"], 3, "loss rate overflows"),
    ("compare-power-t_loss", ["compare-power", "--ratio_points", "3", "--ratio_stop", "1e200",
                              "--t_abs", "1e300"], 2, "t_loss must be finite"),
    # a grid whose span stop - start overflows
    ("compare-power-span", ["compare-power", "--ratio_start", "-1e308", "--ratio_stop", "1e308"],
     2, "error: ratio grid needs a finite stop - start, got -1e+308 .. 1e+308\n"),
    ("sweep-span", ["sweep", "--axis_start", "-1e308", "--axis_stop", "1e308"],
     2, "error: sweep grid needs a finite stop - start, got -1e+308 .. 1e+308\n"),
    # a stiff generator whose propagated states no longer close the books:
    # the trace's first-law check names the row before entropy_rate sees it
    ("stiff-first-law", ["fmo-trace", "--n_times", "3", "--t_loss_k", "1e150", "--gamma_ant_fmo", "1e8"],
     3, "numerical failure: first law violated at t = 5.0 ps: Tr[H rho_dot] differs from "
        "j_abs + j_loss + sink_flow by 1.422e-01 of |j_abs|\n"),
    # a closed-form report whose books do not close: j_loss and power cancel
    # on a scale ~1e8 times |j_abs|
    ("photocell-first-law", ["photocell", "--omega_beta", "1e8", "--t_abs", "0.05"],
     3, "numerical failure: first law violated: j_abs + j_loss + power = 1.355e-20\n"),
]


@pytest.mark.parametrize(
    "argv, expected, needle",
    [pytest.param(argv, code, needle, id=name) for name, argv, code, needle in MULTI_KEY_CASES],
)
def test_exit_code_contract_multi_key(capsys, argv, expected, needle):
    code, err = check_contract(capsys, argv)
    assert code == expected and needle in err, err


# every command and sweep base with its numeric keys, and the grid's values
# plus moderate ones, for key combinations drawn by a seeded property
BASES = {}
for label, base, key in cases():
    BASES.setdefault(label, (base, []))[1].append(key)
MULTI_KEY_VALUES = VALUES + ("0.5", "2", "1e8", "1e-8", "1e150", "1e200", "5e-324")


@st.composite
def multi_key_argv(draw):
    base, keys = draw(st.sampled_from(list(BASES.values())))
    argv = list(base)
    for key in draw(st.lists(st.sampled_from(keys), min_size=2, max_size=4, unique=True)):
        argv += [f"--{key}", draw(st.sampled_from(MULTI_KEY_VALUES))]
    return argv


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=multi_key_argv())
def test_exit_code_contract_key_combinations(capsys, argv):
    check_contract(capsys, argv)


def check_contract(capsys, argv):
    """Run argv, assert the contract and return (exit code, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    out, err = captured.out, captured.err
    assert code in (0, 2, 3), code
    assert "Traceback" not in err and "Warning" not in err, err
    if code:
        assert out == "" and len(err.splitlines()) == 1, err
        return code, err
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    if "verdict" not in names:
        # a table without verdicts has only numbers to offer
        for line in lines[1:]:
            assert all(math.isfinite(float(cell)) for cell in line.split(",")), line
        return code, err
    for line in lines[1:]:
        row = dict(zip(names, line.split(",")))
        currents = [float(row[k]) for k in ("j_abs", "j_loss", "power")]
        finite = all(math.isfinite(x) for x in currents + [float(row["sigma"])])
        # a subnormal current has lost the digits its ratio is judged on
        normal = all(x == 0.0 or abs(x) >= sys.float_info.min for x in currents)
        assert (finite and normal) or row["verdict"] == "undefined", line
    return code, err
