"""Run one solaraudit benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from `src/` next to this
directory. Ops run one after another in a closed loop until --seconds have
passed (whole rounds for cli-closed, at least MIN_OPS ops). With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 each op runs
once untraced and once traced, and the last line carries the per-layer
metrics and the tracing overhead. The lines before it are a one-row table
and a `detail` JSON record (seed, inputs, environment, sample counts,
failures). `--workload all` runs every workload in its own process and
prints one table row per workload. README.md explains the workloads and
metrics.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

from tracing import SPAN_TARGETS, Tracer, self_times
from workloads import ROOT, SRC, WORKLOADS, child_env

SETUP_REPS = 5
IMPORT_REPS = 3
# a plain run goes on past --seconds until this many ops are done, so that
# the ladder's ~10 s ops still give a median of three
MIN_OPS = 3
# The host this was built on runs the same code 20-40 % slower for seconds
# to an hour at a time (CPU time moves with wall time, so it is not
# scheduling). A short fixed probe runs between timed steps, and each run's
# times are multiplied by CALIBRATION_REF_S / (median probe time): they
# read as seconds on a host that runs the probe in CALIBRATION_REF_S. Raw
# wall times and the factor are kept in the detail record.
CALIBRATION_LOOPS = 40_000
CALIBRATION_REF_S = 0.0030
SETUP_CODE = (
    "import time; t = time.perf_counter(); import solaraudit.cli; "
    "print(time.perf_counter() - t); print(solaraudit.cli.__file__)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
}

LAYER_CALLS = (
    "core.liouvillian_apply",
    "core.density_matrix",
    "core.floor_positivity",
    "thermo.heat_current",
    "thermo.entropy_production",
)
LAYER_SIZES = ("core.jump_bytes", "core.superop_nnz", "core.superop_bytes", "core.dim", "core.channels")
IMPORT_PACKAGES = ("numpy", "scipy", "solaraudit")


def median(values):
    return statistics.median(values) if values else 0.0


def python_child(args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=120, check=True,
    )


def calibrate(cpu):
    """Seconds a fixed pure-Python loop takes now on one CPU: a probe of
    host speed."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        return time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, cpus)


class HostProbe:
    """Probe times sampled between the timed steps of one run. Successive
    probes run on each usable CPU in turn, since ops and their BLAS threads
    may run on any of them."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples = []

    def sample(self, after_seconds):
        """Probe before the next step; more often after long steps, so that
        a run of a few long ops still gets a steady median."""
        for _ in range(min(10, 1 + int(after_seconds / 0.25))):
            self.samples.append(calibrate(self.cpus[len(self.samples) % len(self.cpus)]))

    def factor(self):
        """Multiplier from this run's wall times to reference-speed times."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def measure_setup(reps):
    """Seconds to import solaraudit.cli, each in a fresh interpreter, and
    the host-speed factor around them."""
    times = []
    probe = HostProbe()
    for _ in range(reps):
        probe.sample(times[-1] if times else 0.5)
        lines = python_child(["-c", SETUP_CODE]).stdout.split()
        if not os.path.realpath(lines[1]).startswith(os.path.realpath(SRC) + os.sep):
            raise RuntimeError(f"solaraudit imported from {lines[1]}, not from {SRC}")
        times.append(float(lines[0]))
    probe.sample(times[-1])
    return times, probe.factor()


def import_breakdown(reps, factor):
    """Median self time per top-level package, from `python -X importtime`,
    at reference speed."""
    samples = {pkg: [] for pkg in IMPORT_PACKAGES}
    for _ in range(reps):
        stderr = python_child(["-X", "importtime", "-c", "import solaraudit.cli"]).stderr
        totals = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, module = line[len("import time:"):].split("|")
            top = module.strip().split(".")[0]
            if top in totals:
                totals[top] += int(self_us)
        for pkg in IMPORT_PACKAGES:
            samples[pkg].append(totals[pkg] * 1e-6 * factor)
    return {f"import.{pkg}_s": median(v) for pkg, v in samples.items()}


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": cpu_model(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the env override."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class OpRecord(NamedTuple):
    traced: bool
    seconds: float  # raw wall time
    status: str  # "ok", "error" or "wrong"
    detail: str


def run_ops(workload, oracle, seed, seconds, traced):
    """Closed loop over the workload's rounds. In a traced run each op runs
    untraced and then traced on the same input. Returns the OpRecords, the
    loop's wall time, the host-speed factor and the tracer."""
    tracer = Tracer() if traced else None
    records = []
    rounds = workload.rounds(seed)
    if traced:
        # one untimed op first: the first op in a process pays for a fresh
        # heap, which would otherwise always land on the untraced side
        first = next(rounds)
        workload.run(first[0], oracle)
        rounds = itertools.chain([first], rounds)
    probe = HostProbe()
    start = time.perf_counter()
    for batch in rounds:
        for op in batch:
            for with_trace in ((False, True) if traced else (False,)):
                op_id = len(records)
                probe.sample(records[-1].seconds if records else 0.0)
                if with_trace and workload.in_process:
                    tracer.op = op_id
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    status, detail, exported = workload.run(op, oracle, traced=with_trace)
                finally:
                    elapsed = time.perf_counter() - t0
                    if with_trace and workload.in_process:
                        tracer.restore()
                if exported is not None:
                    tracer.absorb(exported, op_id)
                records.append(OpRecord(with_trace, elapsed, status, detail))
        if time.perf_counter() - start >= seconds and (traced or len(records) >= MIN_OPS):
            break
    wall = time.perf_counter() - start
    probe.sample(records[-1].seconds)
    return records, wall, probe.factor(), tracer


def tail(durations):
    """The highest of the 99th, 95th, 90th and 75th percentiles of op time
    with at least ten samples beyond it, and that percentile. With too few
    ops for any of them (under 40), it is the median."""
    n = len(durations)
    pct = next((p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10), 50)
    if n == 1:
        return durations[0], pct
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1], pct


def end_to_end(records, factor, setup, workload):
    """Times at reference speed; `setup` is already rescaled."""
    durations = [r.seconds * factor for r in records]
    ok = sum(1 for r in records if r.status == "ok")
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    tail_value, _ = tail(durations)
    return {
        "setup_s": setup,
        "op_p50_s": median(durations),
        "op_tail_s": tail_value,
        "ops_per_s": ok / sum(durations),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "success_rate": ok / len(records),
    }


def per_layer(records, factor, tracer, imports):
    traced = [r for r in records if r.traced]
    n = len(traced)
    totals, calls = self_times(tracer.spans)
    metrics = {}
    for span in SPAN_TARGETS:  # self time per traced op
        metrics[f"{span}_s"] = totals.get(span, 0.0) * factor / n
    for span in LAYER_CALLS:
        metrics[f"{span}_calls"] = calls.get(span, 0) / n
    for name in LAYER_SIZES:
        metrics[name] = tracer.sizes.get(name, 0)
    evals = tracer.counts.get("sweeps.point_evals", 0)
    metrics["sweeps.point_evals"] = evals / n
    metrics["sweeps.grid_share"] = tracer.counts.get("sweeps.grid_points", 0) / evals if evals else 0.0
    metrics["output.bytes"] = tracer.counts.get("output.bytes", 0) / n
    metrics.update(imports)
    traced_p50 = median([r.seconds for r in traced]) * factor
    metrics["trace.op_p50_s"] = traced_p50
    untraced_p50 = median([r.seconds for r in records if not r.traced]) * factor
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    return metrics


def inputs_note(workload):
    if workload.seeded:
        return "seeded: parameter points are drawn from --seed"
    return "fixed shipped-default inputs; --seed does not change them"


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name == "output.bytes":
        return "B"
    if name == "sweeps.grid_share":
        return "share"
    return "count"


def run_one(args):
    if not (SRC / "solaraudit" / "__init__.py").is_file():
        print(f"error: no solaraudit sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    setup, setup_factor = measure_setup(SETUP_REPS)
    imports = import_breakdown(IMPORT_REPS, setup_factor) if args.trace else {}
    if workload.in_process:
        sys.path.insert(0, str(SRC))
        import solaraudit

        if not os.path.realpath(solaraudit.__file__).startswith(os.path.realpath(SRC) + os.sep):
            raise RuntimeError(f"solaraudit imported from {solaraudit.__file__}, not from {SRC}")
    oracle = workload.oracle()
    records, wall, factor, tracer = run_ops(
        workload, oracle, args.seed, args.seconds, bool(args.trace)
    )

    if args.trace:
        values = per_layer(records, factor, tracer, imports)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(records, factor, median(setup) * setup_factor, workload)
        units = END_TO_END_UNITS
    failures = [r for r in records if r.status != "ok"]
    untraced = [r for r in records if not r.traced]
    _, tail_pct = tail([r.seconds for r in untraced])
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs": inputs_note(workload),
        "trace": bool(args.trace),
        "environment": env,
        "setup_raw_s": setup,
        "setup_host_factor": setup_factor,
        "op_p50_raw_s": median([r.seconds for r in untraced]),
        "host_factor": factor,
        "ops_untraced": len(untraced),
        "ops_traced": len(records) - len(untraced),
        "op_tail_percentile": tail_pct,
        "error_rate": len(failures) / len(records),
        "wall_s": wall,
        "failures": sorted({f"{r.status}: {r.detail}" for r in failures})[:20],
        "missing_trace_targets": tracer.missing if tracer else [],
    }
    names = list(values)
    print("workload " + " ".join(f"{name}[{units[name]}]" for name in names))
    print(workload.name + " " + " ".join(f"{values[name]:.6g}" for name in names))
    print("error_rate " + f"{detail['error_rate']:.6g} ({len(failures)}/{len(records)})")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not any(r.status == "wrong" for r in records),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, one table row per workload."""
    header = None
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = last["metrics"]
        if header is None:
            header = list(metrics)
            print(f"{'workload':12s} {'error_rate':>10s} " + " ".join(
                f"{m + '[' + metrics[m]['unit'] + ']':>16s}" for m in header))
        error_rate = f"{last['failed']}/{last['attempted']}"
        print(f"{name:12s} {error_rate:>10s} " + " ".join(
            f"{metrics[m]['value']:16.6g}" for m in header))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
