"""Self-checks of the benchmark: its oracles catch wrong numbers, and its
seed is an argument that drives the zoo-audit points and lands in the result.

    python3 -m pytest benchmarks/test_selfcheck.py

About 40 s: it runs fmo-trace and a few zoo-audit points for real.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def _corrupt_one_value(csv_text, row, col):
    lines = csv_text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-5))
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def _error_rate(workload, oracle):
    records, _, _, _ = run.run_ops(workload, oracle, seed=0, seconds=0.0, traced=False)
    return sum(1 for r in records if r.status != "ok") / len(records)


def test_corrupting_one_reference_value_raises_error_rate():
    oracle = workloads.FMO_TRACE.oracle()
    assert _error_rate(workloads.FMO_TRACE, oracle) == 0.0
    corrupted = dict(oracle)
    corrupted["fmo-trace.csv"] = _corrupt_one_value(oracle["fmo-trace.csv"], row=100, col=1)
    assert _error_rate(workloads.FMO_TRACE, corrupted) == 1.0


def test_closed_form_oracle_rejects_a_moved_digit_but_not_the_12th():
    reference = (workloads.ORACLES / "toy-decay.csv").read_text()
    check = workloads.check_cli_output
    check(reference, reference, "csv", workloads.CLOSED_RTOL, workloads.CLOSED_ATOL)
    header, rows, _ = workloads.parse_csv(reference)
    last_digit = ",".join(header) + "\n" + ",".join(
        "%.12g" % (c * (1 + 3e-12)) if isinstance(c, float) else c for c in rows[0]
    ) + "\n"
    check(last_digit, reference, "csv", workloads.CLOSED_RTOL, workloads.CLOSED_ATOL)
    with pytest.raises(workloads.Wrong):
        check(_corrupt_one_value(reference, 0, 0), reference, "csv",
              workloads.CLOSED_RTOL, workloads.CLOSED_ATOL)


def test_ladder_oracle_rejects_a_wrong_growth_rate():
    ref = workloads.LadderWorkload().oracle()["n_group"]
    workloads.check_ladder(ref, ref)
    slower = [ref[0] + 0.999 * (n - ref[0]) for n in ref]
    with pytest.raises(workloads.Wrong):
        workloads.check_ladder(slower, ref)


def test_zoo_oracle_catches_a_wrong_closed_form(monkeypatch):
    from dataclasses import replace

    import numpy as np
    from solaraudit import models

    zoo = workloads.ZooWorkload()
    point = workloads.zoo_point(np.random.default_rng(3), "decay")
    assert zoo.run(point, None)[0] == "ok"
    original = models.decay_report

    def off_by_a_permille(p):
        rep = original(p)
        return replace(rep, j_abs=1.001 * rep.j_abs, j_loss=1.001 * rep.j_loss,
                       power=1.001 * rep.power, sink_flow=1.001 * rep.sink_flow)

    monkeypatch.setattr(models, "decay_report", off_by_a_permille)
    assert zoo.run(point, None)[0] == "wrong"


def test_zoo_points_are_drawn_from_the_seed():
    zoo = workloads.ZooWorkload()
    first = [next(zoo.rounds(seed)) for seed in (1, 1, 2)]
    assert first[0] == first[1]
    assert first[0] != first[2]
    assert sorted(kind for kind, _ in first[0]) == sorted(workloads.ZOO_ROUND)


def test_seed_is_required_and_recorded():
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "zoo-audit",
           "--seconds", "0.1", "--trace", "0"]
    missing = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert missing.returncode != 0
    done = subprocess.run(cmd + ["--seed", "7"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    assert detail["seed"] == 7
    assert detail["inputs"].startswith("seeded")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0


def test_fixed_workloads_say_the_seed_does_not_change_them():
    for name in ("fmo-trace", "ladder", "cli-closed"):
        assert run.inputs_note(workloads.WORKLOADS[name]).startswith("fixed shipped-default")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "zoo-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
