"""Record the reference outputs the benchmark's oracles compare against.

    python3 benchmarks/make_oracles.py

Writes benchmarks/oracles/: the stdout of every CLI command the fmo-trace
and cli-closed workloads run (commands that exit non-zero get no file and
are checked for first-law closure instead), and ladder.json with the
group number <N> at each grid time of the ladder workload. Run it only on
a commit whose outputs are known to be right; the references in the
repository were recorded from the unmodified program.
"""

import json
import subprocess
import sys

from workloads import (
    CLI_CLOSED,
    CLI_CODE,
    FMO_TRACE,
    ORACLES,
    ROOT,
    SRC,
    child_env,
    ladder_group_numbers,
)


def main():
    ORACLES.mkdir(exist_ok=True)
    for ref_name, argv in FMO_TRACE.commands + CLI_CLOSED.commands:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CODE, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=300,
        )
        path = ORACLES / ref_name
        if proc.returncode == 0:
            path.write_text(proc.stdout)
            print(f"wrote {path.name}")
        else:
            path.unlink(missing_ok=True)
            print(f"skipped {ref_name}: exit {proc.returncode}")

    sys.path.insert(0, str(SRC))
    n_group = ladder_group_numbers()
    (ORACLES / "ladder.json").write_text(json.dumps({"n_group": n_group}, indent=1) + "\n")
    print("wrote ladder.json")


if __name__ == "__main__":
    main()
