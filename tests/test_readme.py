"""README's Python API example, run verbatim with its stdout captured, and
the names of its module list, each looked up on its module, so the
documented API keeps working as the code beneath it changes."""

import importlib
import re
from operator import attrgetter
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


def module_list():
    """(modules, other backticked names) per bullet of README's "Modules:"
    list; the other names belong to the bullet's first module."""
    block = README.read_text(encoding="utf-8").split("\nModules:\n", 1)[1].split("\n\n", 1)[0]
    for bullet in block.split("\n- ")[1:]:
        names = re.findall(r"`([^`]+)`", bullet)
        modules = [n for n in names if n.startswith("solaraudit.")]
        yield pytest.param(modules, [n for n in names if n not in modules], id=modules[0])


@pytest.mark.parametrize("modules, names", module_list())
def test_readme_module_list_names_resolve(modules, names):
    # every backticked name in README's module list is an attribute of its
    # module (a dotted one such as cycle.Ring attribute by attribute)
    first, *_ = (importlib.import_module(m) for m in modules)
    for name in names:
        attrgetter(name)(first)
