"""The four benchmark workloads: their inputs, one op each, and the oracles.

An op returns a status: "ok", "error" (the program raised or exited
non-zero) or "wrong" (it finished but its output fails the oracle).
Oracles compare numbers with tolerances, never byte hashes, so a change that
only moves trailing digits (exact instead of RK4 propagation, say) passes
and a wrong number fails. README.md says why each workload exists.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from launch import SPANS_MARKER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = BENCH_DIR / "oracles"

# what the `solaraudit` console script runs
CLI_CODE = "from solaraudit.cli import entry; entry()"
OP_TIMEOUT_S = 120

# fmo-trace: exact propagation moves these columns by up to 2e-10 relative
# against the RK4 reference, a wrong current moves them by far more
TRACE_RTOL = 1e-7
TRACE_ATOL = 1e-9  # times the column's largest magnitude
# closed forms print 12 significant digits
CLOSED_RTOL = 1e-9
CLOSED_ATOL = 1e-12
# sweep onsets are bisected to EDGE_TOL = 1e-6; another bisection order
# may land anywhere inside that bracket
EDGE_ATOL = 2e-6
# the Lindblad-versus-closed-form tolerance of tests/test_sweeps.py
ZOO_RTOL = 1e-7
LADDER_N_MAX = 60
LADDER_N0_RTOL = 1e-9
LADDER_GROWTH_RTOL = 1e-7
FIRST_LAW_RTOL = 1e-9
VERDICTS = ("consistent", "violation", "undefined")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Wrong(Exception):
    """Output that contradicts the oracle."""


# ------------------------------------------------------------ comparisons


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text):
    lines = text.splitlines()
    footers = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(body))))
    if not table:
        raise Wrong("empty CSV output")
    header, rows = table[0], [[_cell(c) for c in row] for row in table[1:]]
    return header, rows, footers


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def rows_close(got, ref, rtol, atol, where):
    """Rows match cell by cell: text exactly, numbers within
    rtol * |ref| + atol * (largest magnitude in the reference column)."""
    if len(got) != len(ref):
        raise Wrong(f"{where}: {len(got)} rows, expected {len(ref)}")
    width = len(ref[0]) if ref else 0
    scale = [
        max((abs(r[c]) for r in ref if _number(r[c]) and math.isfinite(r[c])), default=0.0)
        for c in range(width)
    ]
    for i, (g, r) in enumerate(zip(got, ref)):
        if len(g) != len(r):
            raise Wrong(f"{where} row {i}: {len(g)} cells, expected {len(r)}")
        for c, (a, b) in enumerate(zip(g, r)):
            if _number(a) and _number(b):
                if math.isnan(b) and math.isnan(a):
                    continue
                if not abs(a - b) <= rtol * abs(b) + atol * scale[c]:
                    raise Wrong(f"{where} row {i} col {c}: {a!r} vs reference {b!r}")
            elif a != b:
                raise Wrong(f"{where} row {i} col {c}: {a!r} vs reference {b!r}")


def values_close(got, ref, rtol, atol, where):
    """Recursive comparison of plain JSON values."""
    if _number(got) and _number(ref):
        if not abs(got - ref) <= rtol * abs(ref) + atol:
            raise Wrong(f"{where}: {got!r} vs reference {ref!r}")
    elif isinstance(got, dict) and isinstance(ref, dict):
        if sorted(got) != sorted(ref):
            raise Wrong(f"{where}: keys {sorted(got)} vs reference {sorted(ref)}")
        for key in ref:
            values_close(got[key], ref[key], rtol, atol, f"{where}.{key}")
    elif isinstance(got, list) and isinstance(ref, list):
        if len(got) != len(ref):
            raise Wrong(f"{where}: length {len(got)} vs reference {len(ref)}")
        for i, (a, b) in enumerate(zip(got, ref)):
            values_close(a, b, rtol, atol, f"{where}[{i}]")
    elif got != ref:
        raise Wrong(f"{where}: {got!r} vs reference {ref!r}")


def _violation_edges(footers):
    edges = []
    for line in footers:
        if not line.startswith("# violation: "):
            raise Wrong(f"unexpected footer {line!r}")
        lo, hi = line[len("# violation: "):].split("..")
        edges.append([float(lo), float(hi)])
    return edges


def check_cli_output(text, reference, fmt, rtol, atol):
    """Compare one command's stdout with its stored reference output."""
    if fmt == "csv":
        header, rows, footers = parse_csv(text)
        ref_header, ref_rows, ref_footers = parse_csv(reference)
        if header != ref_header:
            raise Wrong(f"header {header} vs reference {ref_header}")
        rows_close(rows, ref_rows, rtol, atol, "csv")
        values_close(_violation_edges(footers), _violation_edges(ref_footers), 0.0, EDGE_ATOL, "violations")
        return
    got, ref = json.loads(text), json.loads(reference)
    if sorted(got) != sorted(ref):
        raise Wrong(f"json keys {sorted(got)} vs reference {sorted(ref)}")
    nan_rows = [[math.nan if c is None else c for c in row] for row in got["rows"]]
    nan_ref = [[math.nan if c is None else c for c in row] for row in ref["rows"]]
    rows_close(nan_rows, nan_ref, rtol, atol, "json rows")
    values_close(got["violations"], ref["violations"], 0.0, EDGE_ATOL, "violations")
    for key in ref:
        if key not in ("rows", "violations"):
            values_close(got[key], ref[key], CLOSED_RTOL, 0.0, key)


def check_report_rows(text, fmt):
    """Oracle for a sweep with no stored reference (one that failed when
    the references were recorded): every row closes the first law and
    carries a known verdict."""
    if fmt == "csv":
        header, rows, _ = parse_csv(text)
    else:
        rows = json.loads(text)["rows"]
        header = ["axis", "j_abs", "j_loss", "power", "ratio", "sigma", "verdict"]
    if header != ["axis", "j_abs", "j_loss", "power", "ratio", "sigma", "verdict"] or not rows:
        raise Wrong(f"unexpected sweep table header {header} or no rows")
    for i, (_, j_abs, j_loss, power, _, _, verdict) in enumerate(rows):
        if verdict not in VERDICTS:
            raise Wrong(f"row {i}: unknown verdict {verdict!r}")
        if not all(_number(v) and math.isfinite(v) for v in (j_abs, j_loss, power)):
            raise Wrong(f"row {i}: non-finite current")
        if abs(j_abs + j_loss + power) > FIRST_LAW_RTOL * max(abs(j_abs), abs(j_loss), 1e-300):
            raise Wrong(f"row {i}: first law not closed")


# ------------------------------------------------------------ CLI workloads


class CliWorkload:
    """Ops that each run one CLI command in a fresh interpreter, as a user
    of the console script does. Inputs are the shipped defaults; the seed
    does not change them."""

    in_process = False
    seeded = False

    def __init__(self, name, commands, rtol, atol):
        self.name = name
        self.commands = commands  # [(oracle file name, argv)]
        self.rtol = rtol
        self.atol = atol

    def oracle(self):
        refs = {}
        for ref_name, _ in self.commands:
            path = ORACLES / ref_name
            refs[ref_name] = path.read_text() if path.exists() else None
        return refs

    def rounds(self, seed):
        while True:
            yield list(self.commands)

    def run(self, op, oracle, traced=False):
        """Returns (status, detail, exported spans or None)."""
        ref_name, argv = op
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "launch.py"), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_CODE, *argv]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "error", f"{ref_name}: no exit within {OP_TIMEOUT_S} s", None
        spans = None
        stderr = proc.stderr
        if traced:
            head, _, tail = stderr.rpartition(SPANS_MARKER)
            if tail:
                spans = json.loads(tail)
                stderr = head
        if proc.returncode != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            return "error", f"exit {proc.returncode}: {last[0]}", spans
        fmt = "json" if "json" in argv else "csv"
        try:
            reference = oracle.get(ref_name)
            if reference is None:
                check_report_rows(proc.stdout, fmt)
            else:
                check_cli_output(proc.stdout, reference, fmt, self.rtol, self.atol)
        except (Wrong, ValueError, KeyError, TypeError) as exc:
            return "wrong", f"{ref_name}: {exc}", spans
        return "ok", "", spans


def _closed_commands():
    commands = []
    for fmt in ("csv", "json"):
        for command in ("toy-decay", "toy-ham", "donor-acceptor", "photocell", "compare-power"):
            commands.append((f"{command}.{fmt}", [command, "--format", fmt]))
        for model in ("toy_decay", "toy_ham", "donor_acceptor", "photocell"):
            commands.append(
                (f"sweep-{model}.{fmt}", ["sweep", "--model", model, "--format", fmt])
            )
    return commands


FMO_TRACE = CliWorkload("fmo-trace", [("fmo-trace.csv", ["fmo-trace"])], TRACE_RTOL, TRACE_ATOL)
CLI_CLOSED = CliWorkload("cli-closed", _closed_commands(), CLOSED_RTOL, CLOSED_ATOL)


# ------------------------------------------------------------ ladder


def ladder_group_numbers():
    """One ladder op: the dressed transfer ladder and product start of the
    tier-1 test test_mutual_information_stays_small_from_product_start,
    built, assembled and propagated to the grid times, with the truncation
    check. Returns the group number <N> at each grid time.

    The test runs n_max=120 (dim 363, 960 channels, 2.0 GB of dense jumps).
    That ~10 s op fits three times in a 20 s run, and on a noisy 2-vCPU VM
    a set of ten such runs spread by 0.34 (interquartile range over median).
    n_max=60 (dim 183, 480 channels) keeps the op's shape: build and
    assembly dominate the time, dense jumps dominate the memory."""
    import numpy as np
    from solaraudit import core, models

    omega_rc = 1.8
    omega_abs = 3.0
    p = models.ThreeLevelParams(
        omega_abs=omega_abs,
        omega_rc=omega_rc,
        gamma=omega_rc / 100.0,
        t_abs=(omega_abs + 0.5 * omega_rc) / math.log(2.0),
        t_loss=(omega_abs - 0.5 * omega_rc) / 5.0,
        gamma_h=1.0,
        gamma_c=1.0,
    )
    n_max = LADDER_N_MAX
    bd = models.birth_death_rates(p)
    sys_pops = np.array([bd.rho_minus, bd.rho_plus, bd.rho_two])
    ns = np.arange(n_max + 1)
    x = np.pi * (ns - n_max / 2.0) / (n_max - 6)
    osc = np.where(
        np.abs(x) < np.pi / 2.0, np.cos(np.clip(x, -np.pi / 2.0, np.pi / 2.0)) ** 4, 0.0
    )
    osc /= osc.sum()
    rho0 = core.DensityMatrix(np.kron(np.diag(sys_pops), np.diag(osc)).astype(complex))
    gen = models.hamiltonian_transfer_generator(p, n_max)
    states = core.propagate(gen, rho0, np.linspace(0.0, 1.6, 9))
    models.require_truncation_ok(states, n_max)
    number = np.diag(models.group_number_operator(n_max)).real
    return [float(number @ np.diag(st.entries).real) for st in states]


class LadderWorkload:
    """The dressed transfer ladder in-process; the input is fixed and the
    seed does not change it."""

    name = "ladder"
    in_process = True
    seeded = False

    def oracle(self):
        return json.loads((ORACLES / "ladder.json").read_text())

    def rounds(self, seed):
        while True:
            yield [None]

    def run(self, op, oracle, traced=False):
        from solaraudit.errors import SolarAuditError

        try:
            n_group = ladder_group_numbers()
        except (SolarAuditError, ValueError) as exc:
            return "error", f"{type(exc).__name__}: {exc}", None
        try:
            check_ladder(n_group, oracle["n_group"])
        except Wrong as exc:
            return "wrong", str(exc), None
        return "ok", "", None


def check_ladder(n_group, ref):
    """<N>(0) within LADDER_N0_RTOL and its growth since t=0 within
    LADDER_GROWTH_RTOL: the growth is 0.4 % of <N>, so checking <N>
    alone would let a wrong rate through."""
    if len(n_group) != len(ref):
        raise Wrong(f"{len(n_group)} states, expected {len(ref)}")
    if abs(n_group[0] - ref[0]) > LADDER_N0_RTOL * abs(ref[0]):
        raise Wrong(f"<N>(0) = {n_group[0]!r}, reference {ref[0]!r}")
    for k in range(1, len(ref)):
        grown, ref_grown = n_group[k] - n_group[0], ref[k] - ref[0]
        if abs(grown - ref_grown) > LADDER_GROWTH_RTOL * abs(ref_grown):
            raise Wrong(f"<N> growth to t{k} = {grown!r}, reference {ref_grown!r}")


# ------------------------------------------------------------ zoo audit


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _draw_decay(rng):
    omega_abs = _uniform(rng, 0.5, 2.0)
    omega_rc = _uniform(rng, 0.1, 1.4) * omega_abs
    omega_plus = omega_abs + 0.5 * omega_rc
    omega_minus = omega_abs - 0.5 * omega_rc
    return dict(
        omega_abs=omega_abs,
        omega_rc=omega_rc,
        gamma=_uniform(rng, 1e-5, min(1e-3, omega_rc / 25.0)),
        t_abs=omega_plus / _uniform(rng, 0.2, 5.0),
        t_loss=omega_minus / _uniform(rng, 0.3, 6.0),
    )


def _draw_donor_acceptor(rng):
    omega_b = _uniform(rng, 0.0, 0.4)
    hot_gap = _uniform(rng, 0.8, 2.5)
    omega_alpha = omega_b + _uniform(rng, 0.35, 0.75) * hot_gap
    omega_beta = omega_b + _uniform(rng, 0.1, 1.2) * (omega_alpha - omega_b)
    return dict(
        omega_b=omega_b,
        omega_a=omega_b + hot_gap,
        omega_alpha=omega_alpha,
        omega_beta=omega_beta,
        gamma_h=_uniform(rng, 0.05, 1.0),
        gamma_c=_uniform(rng, 0.05, 1.0),
        gamma_cb=_uniform(rng, 0.05, 1.0),
        gamma_load=_uniform(rng, 0.05, 1.0),
        t_abs=_uniform(rng, 1.5, 6.0),
        t_loss=_uniform(rng, 0.3, 1.2),
    )


def _draw_photocell(rng):
    omega_b = _uniform(rng, 0.0, 0.4)
    hot_gap = _uniform(rng, 1.0, 3.0)
    omega_x1 = omega_b + hot_gap
    omega_x2 = omega_x1 - _uniform(rng, 0.1, 0.3) * hot_gap
    omega_alpha = omega_x2 - _uniform(rng, 0.1, 0.3) * hot_gap
    omega_beta = omega_b + _uniform(rng, 0.1, 1.2) * (omega_alpha - omega_b)
    return dict(
        omega_b=omega_b,
        omega_x1=omega_x1,
        omega_x2=omega_x2,
        omega_alpha=omega_alpha,
        omega_beta=omega_beta,
        gamma_h=_uniform(rng, 0.05, 1.0),
        gamma_x=_uniform(rng, 0.05, 1.0),
        gamma_c=_uniform(rng, 0.05, 1.0),
        gamma_cb=_uniform(rng, 0.05, 1.0),
        gamma_load=_uniform(rng, 0.05, 1.0),
        t_abs=_uniform(rng, 1.5, 6.0),
        t_loss=_uniform(rng, 0.3, 1.2),
    )


def _draw_fmo_thermal(rng):
    # thermal control of the trace model: no sink, so only thermal baths
    return dict(
        gamma_sink=0.0,
        t_sun=_uniform(rng, 4500.0, 6500.0),
        t_loss_k=_uniform(rng, 250.0, 350.0),
        lambda_geo=float(10.0 ** rng.uniform(-5.0, -4.0)),
    )


# kind -> (params class, generator, closed-form report) names in
# solaraudit.models, looked up at call time so traced wrappers apply
ZOO_MODELS = {
    "decay": ("ThreeLevelParams", "decay_generator", "decay_report", _draw_decay),
    "donor_acceptor": (
        "DonorAcceptorParams",
        "donor_acceptor_generator",
        "donor_acceptor_report",
        _draw_donor_acceptor,
    ),
    "photocell": ("PhotocellParams", "photocell_generator", "photocell_report", _draw_photocell),
}
# one round of points. Whole rounds keep the model mix, and so the median
# op, independent of the seed; decay comes twice because criteria 01/02
# and the sweep cross-check audit it most, which also puts the median
# inside one model's cluster of op times instead of on a gap between two.
ZOO_ROUND = ("decay", "decay", "donor_acceptor", "photocell", "fmo_thermal")
# a draw whose current ratio sits this close to the Carnot bound has no
# robust verdict at the Lindblad route's accuracy, so it is redrawn
VERDICT_MARGIN = 1e-5


def _clear_verdict(kind, params):
    from solaraudit import models

    if kind == "fmo_thermal":
        return True
    cls, _, report, _ = ZOO_MODELS[kind]
    rep = getattr(models, report)(getattr(models, cls)(**params))
    tau = params["t_loss"] / params["t_abs"]
    return abs(rep.ratio - tau) > VERDICT_MARGIN * tau


def zoo_point(rng, kind):
    """One seeded parameter point of the given model: (kind, params)."""
    draw = _draw_fmo_thermal if kind == "fmo_thermal" else ZOO_MODELS[kind][3]
    while True:
        params = draw(rng)
        if _clear_verdict(kind, params):
            return kind, params


class ZooWorkload:
    """Many small steady-state audits, one seeded parameter point per op,
    in rounds of ZOO_ROUND."""

    name = "zoo-audit"
    in_process = True
    seeded = True

    def oracle(self):
        return None  # closed forms and conservation laws, computed per point

    def rounds(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        while True:
            yield [zoo_point(rng, str(kind)) for kind in rng.permutation(ZOO_ROUND)]

    def run(self, op, oracle, traced=False):
        from solaraudit import core, fmo, models, thermo
        from solaraudit.errors import SolarAuditError

        kind, params = op
        try:
            if kind == "fmo_thermal":
                model = fmo.build_model(fmo.default_config(**params))
                gen = model.generator
                temps = (model.t_abs_cm, model.t_loss_cm)
            else:
                cls, generator, report, _ = ZOO_MODELS[kind]
                p = getattr(models, cls)(**params)
                gen = getattr(models, generator)(p)
                temps = (p.t_abs, p.t_loss)
            rho = core.steady_state(gen)
            j = {bath: thermo.heat_current(gen, bath, rho) for bath in core.BATH_IDS}
            verdict = thermo.second_law_verdict(j["abs"], j["loss"], *temps)
            if kind != "fmo_thermal":
                rep = getattr(models, report)(p)
        except (SolarAuditError, ValueError) as exc:
            return "error", f"{kind}: {type(exc).__name__}: {exc}", None
        scale = max(abs(j["abs"]), abs(j["loss"]))
        if kind == "fmo_thermal":
            # only thermal baths: the steady state moves no net energy and
            # produces entropy (Spohn), so the verdict must be consistent
            closure = abs(j["abs"] + j["loss"])
            if j["sink"] != 0.0 or closure > ZOO_RTOL * scale or verdict != "consistent":
                return "wrong", f"{kind} {params}: currents {j}, verdict {verdict}", None
            return "ok", "", None
        ref_scale = max(abs(rep.j_abs), abs(rep.j_loss))
        for got, ref in ((j["abs"], rep.j_abs), (j["loss"], rep.j_loss), (j["sink"], rep.sink_flow)):
            if abs(got - ref) > ZOO_RTOL * ref_scale:
                return "wrong", f"{kind} {params}: Lindblad {j} vs closed form {rep}", None
        if verdict != rep.verdict:
            return "wrong", f"{kind} {params}: verdict {verdict} vs closed form {rep.verdict}", None
        return "ok", "", None


WORKLOADS = {w.name: w for w in (FMO_TRACE, LadderWorkload(), ZooWorkload(), CLI_CLOSED)}
