"""The CLI's exit-code contract, driven through every numeric key.

Every command gets every numeric key of its config sections set to each
of a list of hostile values, with warnings turned into errors. Whatever
the value, the run exits 0, 2 (config error) or 3 (numerical failure);
stderr carries no traceback and no warning; a failed run prints nothing
on stdout and one line on stderr; and no printed row whose currents or
sigma are not finite gets a verdict other than `undefined`.
"""

import math
import warnings

import pytest

from solaraudit import config as cfg
from solaraudit.cli import main
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


@pytest.mark.parametrize("argv", CASES)
def test_exit_code_contract(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    out, err = captured.out, captured.err
    assert code in (0, 2, 3), code
    assert "Traceback" not in err and "Warning" not in err, err
    if code:
        assert out == "" and len(err.splitlines()) == 1, err
        return
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    if "verdict" not in names:
        return
    for line in lines[1:]:
        row = dict(zip(names, line.split(",")))
        finite = all(math.isfinite(float(row[k])) for k in ("j_abs", "j_loss", "power", "sigma"))
        assert finite or row["verdict"] == "undefined", line
