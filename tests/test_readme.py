"""README's Python API example, run verbatim with its stdout captured, so
the documented API keeps working as the code beneath it changes."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_block():
    """The first python code block under README's "## Python API" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_python_api_example_runs_verbatim(capsys):
    exec(compile(python_api_block(), str(README), "exec"), {"__name__": "readme"})
    report, current = capsys.readouterr().out.splitlines()
    assert report.startswith("ThermoReport(") and "verdict='consistent'" in report
    # the Lindblad route's absorbed current is the closed form's
    j_abs = float(re.search(r"\bj_abs=([^,]+),", report).group(1))
    assert float(current) == pytest.approx(j_abs, rel=1e-9)
