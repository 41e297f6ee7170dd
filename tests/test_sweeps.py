"""Axis sweeps, violation-interval bisection, and the two-scheme power table."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from solaraudit import config as cfg
from solaraudit import heat_current, steady_state, sweeps
from solaraudit.errors import ConfigError
from solaraudit.models import MODELS, ThreeLevelParams, decay_generator
from solaraudit.models.cycle import Ring
from solaraudit.sweeps import (
    AUTO_AXIS_STOP,
    EDGE_TOL,
    SweepSpec,
    defined_stop,
    power_comparison,
    run_sweep,
)
from solaraudit.thermo import second_law_verdict

TOY_FIXED = dict(omega_abs=1.0, gamma=1e-4, t_abs=1.0, t_loss=0.05)
DA_FIXED = dict(
    omega_b=0.0,
    omega_a=1.0,
    omega_alpha=0.99,
    omega_beta=0.49,
    gamma_h=1e-3,
    gamma_c=1e-3,
    gamma_cb=1e-3,
    gamma_load=1e-3,
    t_abs=1.0,
    t_loss=0.05,
)


def test_spec_validation():
    grid = np.linspace(0.1, 1.0, 5)
    with pytest.raises(ConfigError, match="unknown sweep model"):
        SweepSpec(model="fmo", axis="omega_ratio", grid=grid, fixed={})
    with pytest.raises(ConfigError, match="trace command"):
        SweepSpec(model="toy_decay", axis="time", grid=grid, fixed={})
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        SweepSpec(model="toy_decay", axis="coupling", grid=grid, fixed={})
    with pytest.raises(ConfigError, match="at least 2"):
        SweepSpec(model="toy_decay", axis="omega_ratio", grid=[0.5], fixed={})
    with pytest.raises(ConfigError, match="strictly increasing"):
        SweepSpec(model="toy_decay", axis="omega_ratio", grid=[0.5, 0.4], fixed={})
    with pytest.raises(ConfigError, match="finite"):
        SweepSpec(model="toy_decay", axis="omega_ratio", grid=[0.5, np.inf], fixed={})


def test_out_of_domain_point_is_a_config_error():
    spec = SweepSpec(
        model="toy_decay", axis="omega_ratio", grid=[1.0, 2.05], fixed=TOY_FIXED
    )
    with pytest.raises(ConfigError, match="sweep point"):
        run_sweep(spec)
    beta_crash = SweepSpec(
        model="donor_acceptor", axis="omega_ratio", grid=[0.5, 0.995], fixed=DA_FIXED
    )
    with pytest.raises(ConfigError, match="sweep point"):
        run_sweep(beta_crash)


def test_toy_decay_violation_onset():
    spec = SweepSpec(
        model="toy_decay",
        axis="omega_ratio",
        grid=np.linspace(0.02, 1.98, 50),
        fixed=TOY_FIXED,
    )
    table = run_sweep(spec)
    assert len(table.violations) == 1
    lo, hi = table.violations[0]
    # the analytic boundary: current ratio equals the temperature ratio
    tau = TOY_FIXED["t_loss"] / TOY_FIXED["t_abs"]
    onset = 2.0 * (1.0 - tau) / (1.0 + tau)
    assert abs(lo - onset) < 1e-4
    assert hi == spec.grid[-1]
    # brute-force scan of the same closed forms brackets the same edge
    fine = np.linspace(0.02, 1.98, 4001)
    flags = [spec.point_report(x).verdict == "violation" for x in fine]
    first = fine[flags.index(True)]
    assert first - (fine[1] - fine[0]) <= lo <= first
    rows = table.rows()
    assert len(rows) == 50
    assert [r[0] for r in rows] == [float(x) for x in spec.grid]
    assert all(r[6] in ("consistent", "violation") for r in rows)


def test_donor_acceptor_violation_onset():
    spec = SweepSpec(
        model="donor_acceptor",
        axis="omega_ratio",
        grid=np.linspace(0.5, 0.97, 25),
        fixed=DA_FIXED,
    )
    table = run_sweep(spec)
    assert len(table.violations) == 1
    lo, hi = table.violations[0]
    assert abs(lo - 0.95) < 1e-3
    assert hi == spec.grid[-1]


@pytest.mark.parametrize("model", ["donor_acceptor", "photocell"])
def test_ring_omega_ratio_matches_the_hand_written_rule(model):
    # the sink's destination level is its source level - x * the absorption
    # gap, read off the ring's LINKS: the same float operations as writing
    # out each model's levels, so the same bits at every default grid point
    section = MODELS[model][0]
    fixed = cfg.default_section(section)
    start, points = (cfg.default_section("sweep")[k] for k in ("axis_start", "axis_points"))
    stop = defined_stop(model, fixed, "omega_ratio", np.linspace(start, AUTO_AXIS_STOP, points))
    top = "omega_a" if model == "donor_acceptor" else "omega_x1"
    for x in np.linspace(start, stop, points).tolist():
        values = sweeps._apply_axis(model, fixed, "omega_ratio", x)
        by_hand = fixed["omega_alpha"] - x * (fixed[top] - fixed["omega_b"])
        assert values == dict(fixed, omega_beta=by_hand)
        assert np.float64(values["omega_beta"]).tobytes() == np.float64(by_hand).tobytes()


@dataclass(frozen=True)
class TriangleParams:
    """A three-level ring whose level and rate fields no model uses."""

    e_ground: float
    e_bright: float
    e_store: float
    g_pump: float
    g_out: float
    g_back: float
    t_abs: float
    t_loss: float

    LEVELS = ("e_ground", "e_bright", "e_store")
    LINKS = (
        ("absorption", 0, 1, "abs", "g_pump"),
        ("load", 1, 2, "sink", "g_out"),
        ("recycle", 2, 0, "loss", "g_back"),
    )

    def __post_init__(self):
        object.__setattr__(self, "_ring", Ring.of(self, self.LEVELS, self.LINKS))


def test_a_new_ring_model_sweeps_without_a_sweeps_edit(monkeypatch):
    # omega_ratio lowers e_store to e_bright - x (e_bright - e_ground), so
    # the current ratio is 1 - x and the verdict flips at 1 - t_loss / t_abs
    monkeypatch.setitem(MODELS, "triangle", ("triangle", TriangleParams, lambda p: p._ring.report()))
    fixed = dict(e_ground=0.0, e_bright=1.0, e_store=0.5, g_pump=1e-3, g_out=1e-3,
                 g_back=1e-3, t_abs=1.0, t_loss=0.05)
    spec = SweepSpec(model="triangle", axis="omega_ratio", grid=np.linspace(0.5, 0.99, 25), fixed=fixed)
    table = run_sweep(spec)
    for x, report in zip(np.asarray(spec.grid).tolist(), table.reports):
        assert report.ratio == pytest.approx(1.0 - x, rel=1e-12)
        assert report == TriangleParams(**dict(fixed, e_store=1.0 - x))._ring.report()
    ((lo, hi),) = table.violations
    assert abs(lo - 0.95) < 1e-3 and hi == spec.grid[-1]
    assert defined_stop("triangle", fixed, "omega_ratio", np.linspace(0.5, 1.5, 11)) == 0.9


def test_transfer_scheme_never_violates():
    spec = SweepSpec(
        model="toy_ham",
        axis="omega_ratio",
        grid=np.linspace(0.02, 1.98, 30),
        fixed=dict(TOY_FIXED, t_loss=0.5),
    )
    table = run_sweep(spec)
    assert table.violations == ()
    assert all(r.sigma >= -1e-9 for r in table.reports)


def test_temp_ratio_axis():
    spec = SweepSpec(
        model="toy_decay",
        axis="temp_ratio",
        grid=np.linspace(0.1, 1.5, 36),
        fixed=dict(TOY_FIXED, omega_rc=0.5),
    )
    table = run_sweep(spec)
    assert len(table.violations) == 1
    lo, hi = table.violations[0]
    # ratio = 0.6 for omega_rc = omega_abs/2, so the verdict flips there
    assert abs(lo - 0.6) < 1e-4
    assert hi == spec.grid[-1]
    assert all(r.ratio == pytest.approx(0.6, rel=1e-12) for r in table.reports)


def test_sweep_verdicts_match_numeric_oracle():
    spec = SweepSpec(
        model="toy_decay",
        axis="omega_ratio",
        grid=np.linspace(0.05, 1.9, 50),
        fixed=TOY_FIXED,
    )
    table = run_sweep(spec)
    rng = np.random.default_rng(31)
    for idx in rng.choice(np.asarray(spec.grid).size, size=25, replace=False):
        x = float(spec.grid[idx])
        rep = table.reports[idx]
        p = ThreeLevelParams(
            omega_abs=1.0, omega_rc=x, gamma=1e-4, t_abs=1.0, t_loss=0.05
        )
        gen = decay_generator(p)
        rho = steady_state(gen)
        j_abs = heat_current(gen, "abs", rho)
        j_loss = heat_current(gen, "loss", rho)
        assert abs(j_abs - rep.j_abs) < 1e-7 * max(1.0, abs(rep.j_abs))
        assert abs(j_loss - rep.j_loss) < 1e-7 * max(1.0, abs(rep.j_loss))
        assert second_law_verdict(j_abs, j_loss, 1.0, 0.05) == rep.verdict


def test_sweep_deterministic():
    spec = SweepSpec(
        model="toy_decay",
        axis="omega_ratio",
        grid=np.linspace(0.1, 1.9, 20),
        fixed=TOY_FIXED,
    )
    first = run_sweep(spec)
    again = run_sweep(spec)
    assert first.rows() == again.rows()
    assert first.violations == again.violations


def test_power_comparison_signs_and_crossing():
    grid = np.linspace(0.02, 1.2, 60)
    comp = power_comparison(1.0, 0.5, 1e-3, 1.0, grid)
    assert np.all(np.asarray(comp.p_decay) < 0.0)
    boundary = (2.0 - 0.5) / (2.0 + 0.5)
    assert comp.zero_crossing == pytest.approx(boundary, abs=EDGE_TOL)
    # single bath: the decay bookkeeping claims extraction, the resolved
    # transfer scheme refuses it
    at_one = np.argmin(np.abs(grid - 1.0))
    assert comp.p_decay[at_one] < 0.0
    assert comp.p_transfer[at_one] > 0.0
    # deep cold: both schemes run as engines
    assert comp.p_transfer[0] < 0.0
    rows = comp.rows()
    assert len(rows) == 60
    assert rows[0][0] == grid[0]


def test_power_comparison_without_crossing():
    comp = power_comparison(1.0, 0.5, 1e-3, 1.0, np.linspace(0.05, 0.3, 6))
    assert comp.zero_crossing is None
    assert np.all(np.asarray(comp.p_transfer) < 0.0)


def test_power_comparison_crossing_at_an_exact_zero(monkeypatch):
    # a transfer power of exactly 0 on the right-hand point of the first
    # step that touches zero is the crossing itself, with no bisection
    p_ham = {0.2: 1.0, 0.5: 0.0, 0.8: -1.0}

    def report(model, values, where):
        return SimpleNamespace(power=p_ham[values["t_loss"]] if model == "toy_ham" else -1.0)

    monkeypatch.setattr(sweeps, "model_report", report)
    assert power_comparison(1.0, 0.5, 1e-3, 1.0, [0.2, 0.5, 0.8]).zero_crossing == 0.5


def test_power_comparison_grid_errors():
    with pytest.raises(ConfigError, match="at least 2"):
        power_comparison(1.0, 0.5, 1e-3, 1.0, [0.5])
    with pytest.raises(ConfigError, match="strictly increasing"):
        power_comparison(1.0, 0.5, 1e-3, 1.0, [0.5, 0.4])
    # a non-finite grid is refused up front, as a sweep's is, not at its
    # first non-finite point
    for grid in ([0.5, np.nan], [np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5]):
        with pytest.raises(ConfigError, match="^ratio grid must be finite$"):
            power_comparison(1.0, 0.5, 1e-3, 1.0, grid)
    with pytest.raises(ConfigError, match="temperature ratio"):
        power_comparison(1.0, 0.5, 1e-3, 1.0, [0.0, 0.5])
