"""Three-level engine: both extraction schemes against independent oracles."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from solaraudit import (
    DensityMatrix,
    NumericsError,
    TruncationOverflowError,
    heat_current,
    liouvillian_apply,
    propagate,
    steady_state,
)
from solaraudit.models import (
    ThreeLevelParams,
    birth_death_rates,
    decay_generator,
    decay_report,
    decay_steady_populations,
    dressed_frequency,
    dressed_product_state,
    excitation_growth_rate,
    group_number_operator,
    hamiltonian_transfer_generator,
    hamiltonian_transfer_report,
    model_report,
    require_truncation_ok,
    transfer_block_hamiltonian,
)
from solaraudit.config import default_section
from solaraudit import core
from solaraudit.core import ChannelTable, DissipationChannel, LindbladGenerator, Triplets
from solaraudit.models.three_level import _index
from solaraudit.thermo import bose_occupation

from dissipator_oracle import dense_jumps, dissipator_action, gibbs_state


def classical_rate_matrix(p):
    """Population rate matrix of the decay scheme, built jump by jump.

    w[i, j] is the rate from level j to level i; the Lindblad populations
    obey dp/dt = w p because every jump operator is a single basis shift.
    """
    n_h, n_c = p.ring().occupations()
    w = np.zeros((3, 3))
    w[2, 0] = p.gamma_h * n_h
    w[0, 2] = p.gamma_h * (1.0 + n_h)
    w[2, 1] = p.gamma_c * n_c
    w[1, 2] = p.gamma_c * (1.0 + n_c)
    w[0, 1] = p.gamma
    w -= np.diag(w.sum(axis=0))
    return w


def classical_steady_populations(w):
    _, _, vh = np.linalg.svd(w)
    pops = vh[-1].real
    pops /= pops.sum()
    return pops


def random_decay_params(rng, tiny_cold=False):
    omega_abs = rng.uniform(0.5, 3.0)
    omega_rc = rng.uniform(0.1, 1.5) * omega_abs
    p = ThreeLevelParams(
        omega_abs=omega_abs,
        omega_rc=omega_rc,
        gamma=rng.uniform(1e-4, 1e-2),
        t_abs=rng.uniform(0.3, 3.0),
        t_loss=(omega_abs - 0.5 * omega_rc) / rng.uniform(60.0, 200.0)
        if tiny_cold
        else rng.uniform(0.02, 1.0),
        gamma_h=rng.uniform(1e-4, 1e-2),
        gamma_c=rng.uniform(1e-4, 1e-2),
    )
    return p


# ------------------------------------------------------------------ validation


def test_params_validation():
    with pytest.raises(ValueError):
        ThreeLevelParams(omega_abs=1.0, omega_rc=2.5, gamma=0.1, t_abs=1.0, t_loss=0.1)
    with pytest.raises(ValueError):
        ThreeLevelParams(omega_abs=1.0, omega_rc=0.0, gamma=0.1, t_abs=1.0, t_loss=0.1)
    with pytest.raises(ValueError):
        ThreeLevelParams(omega_abs=-1.0, omega_rc=0.5, gamma=0.1, t_abs=1.0, t_loss=0.1)
    with pytest.raises(ValueError):
        ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=-0.1, t_abs=1.0, t_loss=0.1)
    with pytest.raises(ValueError):
        ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.1, t_abs=0.0, t_loss=0.1)
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.003, t_abs=1.0, t_loss=0.1)
    assert p.gamma_h == p.gamma == p.gamma_c
    assert p.omega_plus == pytest.approx(1.25)
    assert p.omega_minus == pytest.approx(0.75)


def test_params_reject_non_finite_values():
    base = dict(omega_abs=1.0, omega_rc=0.5, gamma=0.003, t_abs=1.0, t_loss=0.1)
    for name in (*base, "gamma_h", "gamma_c"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ThreeLevelParams(**{**base, name: value})


def test_weak_coupling_guard():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.1, gamma=0.01, t_abs=1.0, t_loss=0.1)
    with pytest.raises(ValueError):
        p.require_weak_coupling()
    with pytest.raises(ValueError):
        birth_death_rates(p)


# ---------------------------------------------------------------- decay scheme


def test_decay_steady_populations_match_classical_null_space():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_decay_params(rng)
        closed = decay_steady_populations(p)
        oracle = classical_steady_populations(classical_rate_matrix(p))
        assert np.max(np.abs(closed - oracle)) < 1e-10
        assert closed.sum() == pytest.approx(1.0, abs=1e-12)


def test_decay_steady_populations_match_lindblad_null_space():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = random_decay_params(rng)
        closed = decay_steady_populations(p)
        rho = steady_state(decay_generator(p))
        numeric = np.array([rho.population(i) for i in range(3)])
        assert np.max(np.abs(closed - numeric)) < 1e-8


def test_generator_stationary_at_closed_form():
    p = ThreeLevelParams(
        omega_abs=1.3, omega_rc=0.7, gamma=0.004, t_abs=1.1, t_loss=0.08,
        gamma_h=0.002, gamma_c=0.006,
    )
    rho = DensityMatrix(np.diag(decay_steady_populations(p)))
    residual = liouvillian_apply(decay_generator(p), rho)
    assert np.max(np.abs(residual)) < 1e-10


def test_sink_channel_moves_population_down_at_rate_gamma():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=1.0, t_loss=0.1)
    gen = decay_generator(p)
    assert np.count_nonzero(gen.table.bath_id == "sink") == 1
    rho = DensityMatrix(np.diag([0.2, 0.5, 0.3]))
    d = dissipator_action(gen.table, rho, "sink")
    assert d[0, 0].real == pytest.approx(p.gamma * 0.5, rel=1e-14)
    assert d[1, 1].real == pytest.approx(-p.gamma * 0.5, rel=1e-14)
    assert d[2, 2].real == pytest.approx(0.0, abs=1e-16)


def test_long_time_propagation_reaches_steady_state():
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.05, t_abs=1.5, t_loss=0.1,
        gamma_h=0.2, gamma_c=0.2,
    )
    target = decay_steady_populations(p)
    rho0 = DensityMatrix.pure([1.0, 0.0, 0.0])
    horizon = 50.0 / p.gamma
    path = propagate(decay_generator(p), rho0, np.array([0.0, horizon, 2.0 * horizon]))
    late = np.array([path[1].population(i) for i in range(3)])
    assert np.max(np.abs(late - target)) < 1e-6
    very_late = np.array([path[2].population(i) for i in range(3)])
    assert np.max(np.abs(very_late - target)) < 1e-7


def test_equal_rate_cold_vacuum_population_formula():
    # with equal rates and an effectively empty cold bath the excited
    # population collapses to 1/(1 + 2 exp(omega_plus / t_abs))
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = random_decay_params(rng, tiny_cold=True)
        p = ThreeLevelParams(
            omega_abs=p.omega_abs, omega_rc=p.omega_rc, gamma=p.gamma,
            t_abs=p.t_abs, t_loss=p.t_loss, gamma_h=p.gamma, gamma_c=p.gamma,
        )
        expected = 1.0 / (1.0 + 2.0 * math.exp(p.omega_plus / p.t_abs))
        assert decay_steady_populations(p)[1] == pytest.approx(expected, rel=1e-8)


def test_decay_report_first_law_and_landmark_violation():
    # tau = t_loss/t_abs = 0.5 with x = omega_rc/omega_abs = 1.5 sits far
    # above the extraction threshold: the audit must flag the violation
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=1.5, gamma=0.001, t_abs=1.0, t_loss=0.5)
    rep = decay_report(p)
    assert rep.j_abs > 0.0
    assert rep.j_loss < 0.0
    assert rep.power < 0.0
    assert rep.j_abs + rep.j_loss + rep.power == pytest.approx(0.0, abs=1e-15)
    assert rep.sigma < 0.0
    assert rep.verdict == "violation"


def test_decay_verdict_consistent_in_safe_regime():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.001, t_abs=1.0, t_loss=0.05)
    rep = decay_report(p)
    assert rep.verdict == "consistent"
    assert rep.sigma > 0.0
    assert rep.ratio == pytest.approx(p.omega_minus / p.omega_plus, rel=1e-12)


def test_gibbs_limit_without_sink_at_equal_temperatures():
    t = 0.8
    p = ThreeLevelParams(
        omega_abs=1.2, omega_rc=0.6, gamma=0.0, t_abs=t, t_loss=t,
        gamma_h=0.01, gamma_c=0.02,
    )
    gen = decay_generator(p)
    rho = steady_state(gen)
    gibbs = gibbs_state(gen.hamiltonian, t)
    assert np.max(np.abs(rho.entries - gibbs.entries)) < 1e-10


def test_decay_without_sink_in_cold_vacuum_is_absorbing():
    # no sink and an empty cold bath: |1> is reached and never left, so the
    # steady state is |1><1| and no current flows
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.0, t_abs=1.0, t_loss=1e-3,
        gamma_h=1e-3, gamma_c=1e-3,
    )
    assert decay_steady_populations(p).tolist() == [0.0, 1.0, 0.0]
    rep = decay_report(p)
    assert (rep.j_abs, rep.j_loss, rep.power) == (0.0, 0.0, 0.0)
    assert rep.verdict == "undefined"


def test_trace_preserved_along_decay_trajectory():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.01, t_abs=1.0, t_loss=0.05)
    rho0 = DensityMatrix.pure([0.0, 0.0, 1.0])
    for rho in propagate(decay_generator(p), rho0, np.linspace(0.0, 200.0, 9)):
        assert abs(np.trace(rho.entries) - 1.0) < 1e-10


# --------------------------------------------------------- birth-death ladder


def test_birth_death_identity_two_forms():
    rng = np.random.default_rng(17)
    for _ in range(100):
        omega_abs = rng.uniform(0.5, 3.0)
        p = ThreeLevelParams(
            omega_abs=omega_abs,
            omega_rc=rng.uniform(0.1, 1.5) * omega_abs,
            gamma=1e-5,
            t_abs=rng.uniform(0.3, 3.0),
            t_loss=rng.uniform(0.05, 1.0),
            gamma_h=rng.uniform(1e-4, 1e-2),
            gamma_c=rng.uniform(1e-4, 1e-2),
        )
        bd = birth_death_rates(p)
        direct = bd.birth - bd.death
        boltz = bd.k1 * (
            math.exp(-p.omega_plus / p.t_abs) - math.exp(-p.omega_minus / p.t_loss)
        )
        assert direct == pytest.approx(boltz, abs=1e-12 * max(1.0, abs(bd.k1)))


def test_birth_death_landmark_net_rate():
    # n_h = 1 (hot bath at omega_plus/ln 2), empty cold bath, equal rates:
    # the net ladder rate collapses to gamma_h / 7
    g = 0.003
    omega_abs, omega_rc = 1.0, 0.5
    omega_plus = omega_abs + 0.5 * omega_rc
    omega_minus = omega_abs - 0.5 * omega_rc
    p = ThreeLevelParams(
        omega_abs=omega_abs, omega_rc=omega_rc, gamma=1e-5,
        t_abs=omega_plus / math.log(2.0), t_loss=omega_minus / 60.0,
        gamma_h=g, gamma_c=g,
    )
    bd = birth_death_rates(p)
    assert bd.net == pytest.approx(g / 7.0, rel=1e-12)


def test_birth_death_equal_rate_closed_forms():
    g = 0.002
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=1e-5, t_abs=2.0, t_loss=0.3,
        gamma_h=g, gamma_c=g,
    )
    n_h, n_c = p.ring().occupations()
    bd = birth_death_rates(p)
    assert bd.rho_plus == pytest.approx(
        (2.0 + n_h + n_c) / (4.0 + 3.0 * n_h + 3.0 * n_c), rel=1e-12
    )
    assert bd.k1 == pytest.approx(
        g * (1.0 + n_h) * (1.0 + n_c) / (4.0 + 3.0 * n_h + 3.0 * n_c), rel=1e-12
    )


def test_transfer_report_extracts_work_in_engine_regime():
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=1e-3, t_abs=2.0, t_loss=0.2
    )
    rep = hamiltonian_transfer_report(p)
    assert rep.power < 0.0
    assert rep.j_abs > 0.0
    assert rep.j_loss < 0.0
    assert rep.sigma >= 0.0
    assert rep.verdict == "consistent"
    assert rep.j_abs + rep.j_loss + rep.power == pytest.approx(0.0, abs=1e-18)


def test_transfer_sigma_nonnegative_on_parameter_grid():
    for x in np.linspace(0.05, 1.9, 20):
        for tau in np.linspace(0.05, 0.95, 20):
            p = ThreeLevelParams(
                omega_abs=1.0, omega_rc=x, gamma=1e-4, t_abs=1.0, t_loss=tau
            )
            rep = hamiltonian_transfer_report(p)
            assert rep.sigma >= -1e-9
            assert rep.verdict == "consistent"


def test_transfer_power_sign_tracks_carnot_style_threshold():
    # power vanishes at tau* = omega_minus / omega_plus and only below it
    # does the repository grow
    p_lo = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=1e-4, t_abs=1.0, t_loss=0.55)
    p_hi = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=1e-4, t_abs=1.0, t_loss=0.65)
    assert hamiltonian_transfer_report(p_lo).power < 0.0
    assert hamiltonian_transfer_report(p_hi).power > 0.0


# ------------------------------------------------------------- dressed ladder


def test_dressed_frequency_ground_doublet():
    assert dressed_frequency(0, 0.04) == pytest.approx(2.0 * math.sqrt(0.04), rel=1e-15)
    with pytest.raises(ValueError):
        dressed_frequency(-1, 0.04)
    with pytest.raises(ValueError):
        dressed_frequency(0, 0.0)


def test_block_hamiltonian_spectrum_matches_ladder_formula():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.01, t_abs=1.0, t_loss=0.1)
    n_max, j = 8, 2.0
    h = transfer_block_hamiltonian(p, n_max) - p.omega_rc * j * np.eye(3 * (n_max + 1))
    expected = []
    for n in range(1, n_max + 1):
        center = p.omega_rc * (n - 0.5 - j)
        gap = math.sqrt(p.gamma * n)
        expected += [center - gap, center + gap]
    expected.append(-p.omega_rc * (j + 0.5))
    expected.append(p.omega_rc * (n_max + 0.5 - j))
    expected += [p.omega_abs + p.omega_rc * (n - j) for n in range(n_max + 1)]
    got = np.linalg.eigvalsh(h)
    assert np.max(np.abs(got - np.sort(expected))) < 1e-10


def test_block_hamiltonian_commutes_with_group_number():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=1.0, t_loss=0.1)
    n_max = 6
    h = transfer_block_hamiltonian(p, n_max) - p.omega_rc * 1.5 * np.eye(3 * (n_max + 1))
    number = group_number_operator(n_max)
    assert np.max(np.abs(h @ number - number @ h)) < 1e-12


def test_channels_shift_group_number_by_bath():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.005, t_abs=1.5, t_loss=0.1)
    n_max = 10
    gen = hamiltonian_transfer_generator(p, n_max)
    number = group_number_operator(n_max)
    for a, bath in zip(dense_jumps(gen.table), gen.table.bath_id):
        comm = a @ number - number @ a
        if bath == "abs":
            # hot jumps move exactly one repository quantum
            matches_down = np.max(np.abs(comm - a)) < 1e-12
            matches_up = np.max(np.abs(comm + a)) < 1e-12
            assert matches_down or matches_up
        else:
            assert np.max(np.abs(comm)) < 1e-12


def test_growth_rate_identity_small_ladder():
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2,
        gamma_h=0.01, gamma_c=0.01,
    )
    n_max = 12
    gen = hamiltonian_transfer_generator(p, n_max)
    rho = dressed_product_state(p, n_max)
    bd = birth_death_rates(p)
    rate = excitation_growth_rate(gen, rho, n_max)
    assert rate == pytest.approx(bd.net, rel=1e-9)


def test_dressed_product_state_structure():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2)
    n_max = 12
    rho = dressed_product_state(p, n_max, tail=0.2)
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
    entries = rho.entries
    # no weight in group 0 or at the truncation edge
    assert entries[_index(2, 0, n_max), _index(2, 0, n_max)].real == 0.0
    assert entries[_index(1, 0, n_max), _index(1, 0, n_max)].real == 0.0
    require_truncation_ok([rho], n_max)
    with pytest.raises(ValueError):
        dressed_product_state(p, n_max, tail=1.0)
    with pytest.raises(ValueError):
        dressed_product_state(p, 1)


def test_transfer_jumps_are_two_entry_csr():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2)
    n_max = 6
    gen = hamiltonian_transfer_generator(p, n_max)
    dim = 3 * (n_max + 1)

    def ket(sigma, n):
        v = np.zeros(dim)
        v[_index(sigma, n, n_max)] = 1.0
        return v

    # per doublet and sign: hot lowering, hot raising, cold lowering, cold raising
    expected = []
    for n in range(n_max):
        for sign in (+1, -1):
            dressed = (ket(0, n + 1) + sign * ket(1, n)) / math.sqrt(2.0)
            for two, bath in ((ket(2, n + 1), "abs"), (ket(2, n), "loss")):
                lower = np.outer(dressed, two.conj())
                expected += [(lower, bath), (lower.conj().T, bath)]
    table = gen.table
    assert table.rate.size == len(expected) and isinstance(table.jump, Triplets)
    assert np.array_equal(np.bincount(table.jump.row // dim), [2] * len(expected))
    for a, tag, (ref, bath) in zip(dense_jumps(table), table.bath_id, expected):
        assert np.array_equal(a, ref)
        assert tag == bath


def transfer_channels_one_by_one(p, n_max):
    """The transfer ladder's 8 n_max channels as one-channel tables, built
    one jump at a time in the generator's order: per doublet n and sign,
    the hot then the cold bath, the lowering then the raising jump."""
    dim = 3 * (n_max + 1)
    n_h, n_c = p.ring().occupations()
    inv = 1.0 / math.sqrt(2.0)
    channels = []
    for n in range(n_max):
        doublet = [_index(0, n + 1, n_max), _index(1, n, n_max)]
        split = 0.5 * dressed_frequency(n, p.gamma)
        for sign in (+1, -1):
            dressed = (inv, sign * inv)
            for two, rate, n_bath, bath, gap in (
                (_index(2, n + 1, n_max), p.gamma_h, n_h, "abs", p.omega_plus - sign * split),
                (_index(2, n, n_max), p.gamma_c, n_c, "loss", p.omega_minus - sign * split),
            ):
                down = Triplets(doublet, [two, two], dressed, (dim, dim))
                up = Triplets([two, two], doublet, dressed, (dim, dim))
                channels.append(DissipationChannel(down, 0.5 * rate * (1 + n_bath), bath, gap))
                channels.append(DissipationChannel(up, 0.5 * rate * n_bath, bath, gap))
    return channels


def test_transfer_table_matches_channels_built_one_by_one():
    # the ladder's channel table, built by index arithmetic, gives the
    # generator of its channels listed one by one, to the last bit
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2,
        gamma_h=0.01, gamma_c=0.01,
    )
    for n_max in (6, 20):
        gen = hamiltonian_transfer_generator(p, n_max)
        h = transfer_block_hamiltonian(p, n_max)
        ref = LindbladGenerator(h, transfer_channels_one_by_one(p, n_max))
        lmat, lref = gen.superoperator, ref.superoperator
        for x in ("row", "col", "data"):
            assert getattr(lmat, x).tobytes() == getattr(lref, x).tobytes()
        for bath, q in ref.heat_operators.items():
            if bath == "sink":
                assert q is None and gen.heat_operators[bath] is None
            else:
                assert q.tobytes() == gen.heat_operators[bath].tobytes()
        assert gen.table.rate.size == ref.table.rate.size == 8 * n_max
        for x in ("row", "col", "data"):
            assert getattr(gen.table.jump, x).tobytes() == getattr(ref.table.jump, x).tobytes()
        for got, want in zip(gen.table[1:], ref.table[1:]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_transfer_generator_builds_no_channel_objects(monkeypatch):
    # the ladder hands the generator one table of all its channels and
    # builds no one-channel table on the way
    calls, joined = [], []
    channel, join = core.DissipationChannel, ChannelTable.joined.__func__

    def spy_channel(*args, **kwargs):
        calls.append(args)
        return channel(*args, **kwargs)

    def spy_join(cls, tables, dim):
        joined.append(tables)
        return join(cls, tables, dim)

    for name, module in list(sys.modules.items()):
        if name.startswith("solaraudit") and getattr(module, "DissipationChannel", None) is channel:
            monkeypatch.setattr(module, "DissipationChannel", spy_channel)
    monkeypatch.setattr(ChannelTable, "joined", classmethod(spy_join))
    p = ThreeLevelParams(omega_abs=3.0, omega_rc=1.8, gamma=0.018, t_abs=1.3, t_loss=0.42)
    gen = hamiltonian_transfer_generator(p, 60)
    assert gen.table.rate.size == 480 and not calls
    assert len(joined) == 1 and [t.rate.size for t in joined[0]] == [480]


def benchmark_tracer():
    """benchmarks/tracing.py's Tracer, installed."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer().install()


def test_traced_ladder_build_reads_the_generator():
    # benchmarks/tracing.py reads a generator's channel count and jump
    # bytes; a change that breaks those reads fails here, not only in a
    # traced benchmark run
    tracer = benchmark_tracer()
    try:
        p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2)
        hamiltonian_transfer_generator(p, 6)
    finally:
        tracer.restore()
    assert tracer.missing == []
    assert tracer.sizes["core.channels"] == 48 and tracer.sizes["core.jump_bytes"] > 0


def test_traced_ladder_propagation_validates_each_state_once():
    # core.density_matrix counts DensityMatrix constructions: the start,
    # then one per propagated state, each under the core.propagate span,
    # whichever way propagate validates it (core.propagate is read after
    # install, which rebinds it)
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2)
    gen = hamiltonian_transfer_generator(p, 6)
    tracer = benchmark_tracer()
    try:
        states = core.propagate(gen, dressed_product_state(p, 6), 0.5 * np.arange(9))
    finally:
        tracer.restore()
    assert tracer.missing == []
    names = [span[0] for span in tracer.spans]
    inside = [span[0] for span in tracer.spans if span[3] == names.index("core.propagate")]
    assert names.count("core.density_matrix") == len(states) == 9
    assert inside.count("core.density_matrix") == len(states) - 1


def test_truncation_guard_raises_on_edge_weight():
    n_max = 10
    dim = 3 * (n_max + 1)
    pops = np.zeros(dim)
    pops[_index(2, n_max, n_max)] = 1.0
    rho = DensityMatrix(np.diag(pops))
    with pytest.raises(TruncationOverflowError):
        require_truncation_ok([rho], n_max)


def test_transfer_generator_guards():
    p = ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=1.0, t_loss=0.1)
    with pytest.raises(ValueError):
        hamiltonian_transfer_generator(p, 0)
    with pytest.raises(ValueError):
        # half the top dressed splitting exceeds the cold gap
        hamiltonian_transfer_generator(p, 40)
    strong = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.1, gamma=0.01, t_abs=1.0, t_loss=0.1
    )
    with pytest.raises(ValueError):
        hamiltonian_transfer_generator(strong, 5)


def test_zero_bath_rates_leave_number_eigenstate_constant():
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=1.0, t_loss=0.1,
        gamma_h=0.0, gamma_c=0.0,
    )
    n_max = 10
    gen = hamiltonian_transfer_generator(p, n_max)
    dim = 3 * (n_max + 1)
    pops = np.zeros(dim)
    pops[_index(2, 3, n_max)] = 1.0
    rho0 = DensityMatrix(np.diag(pops))
    for rho in propagate(gen, rho0, np.linspace(0.0, 20.0, 5)):
        assert np.max(np.abs(rho.entries - rho0.entries)) < 1e-12


def vn_entropy(mat):
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-14]
    return float(-(w * np.log(w)).sum())


def mutual_information(rho, n_max):
    blocks = rho.entries.reshape(3, n_max + 1, 3, n_max + 1)
    rho_sys = np.einsum("injn->ij", blocks)
    rho_osc = np.einsum("inim->nm", blocks)
    return vn_entropy(rho_sys) + vn_entropy(rho_osc) - vn_entropy(rho.entries)


def test_mutual_information_stays_small_from_product_start():
    # fast repository, omega_rc = 100 gamma. Starting from a product of the
    # conditional engine state and a broad repository window, the joint
    # state stays approximately factorized: the residual correlation of the
    # relaxed ladder scales as the squared log-slope of the window, about
    # 6.4/width^2, so a wide smooth window keeps it below 1e-3 through the
    # whole rebalancing transient.
    omega_rc = 1.8
    gamma = omega_rc / 100.0
    omega_abs = 3.0
    p = ThreeLevelParams(
        omega_abs=omega_abs, omega_rc=omega_rc, gamma=gamma,
        t_abs=(omega_abs + 0.5 * omega_rc) / math.log(2.0),
        t_loss=(omega_abs - 0.5 * omega_rc) / 5.0,
        gamma_h=1.0, gamma_c=1.0,
    )
    n_max = 120
    bd = birth_death_rates(p)
    sys_pops = np.array([bd.rho_minus, bd.rho_plus, bd.rho_two])
    ns = np.arange(n_max + 1)
    width = n_max - 6
    x = np.pi * (ns - n_max / 2.0) / width
    osc = np.where(
        np.abs(x) < np.pi / 2.0,
        np.cos(np.clip(x, -np.pi / 2.0, np.pi / 2.0)) ** 4,
        0.0,
    )
    osc /= osc.sum()
    rho0 = DensityMatrix(np.kron(np.diag(sys_pops), np.diag(osc)).astype(complex))
    gen = hamiltonian_transfer_generator(p, n_max)
    states = propagate(gen, rho0, np.linspace(0.0, 1.6, 9))
    require_truncation_ok(states, n_max)
    values = [mutual_information(rho, n_max) for rho in states]
    assert abs(values[0]) < 1e-12
    assert max(values) <= 1e-3


def test_heat_current_matches_transfer_report_scaling():
    # exact generator vs birth-death reduction: currents agree to the
    # secular accuracy O(sqrt(gamma)/omega_rc) once the ladder is settled
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=2.5e-3, t_abs=2.0, t_loss=0.2,
        gamma_h=2.5e-3, gamma_c=2.5e-3,
    )
    n_max = 6
    gen = hamiltonian_transfer_generator(p, n_max)
    rho = dressed_product_state(p, n_max)
    rep = hamiltonian_transfer_report(p)
    j_abs = heat_current(gen, "abs", rho)
    assert j_abs == pytest.approx(rep.j_abs, rel=0.05)


def test_model_report_names_only_a_given_point():
    # without a point to name the error passes as raised; at a point it is
    # re-raised under the point's prefix, chained from the original
    values = {**default_section("toy"), "gamma": 1e-320}
    with pytest.raises(NumericsError) as bare:
        model_report("toy_decay", values)
    assert bare.value.__context__ is None
    assert str(bare.value).startswith("subnormal report")
    with pytest.raises(NumericsError) as named:
        model_report("toy_decay", values, "point 1: ")
    assert str(named.value) == "point 1: " + str(bare.value)
    assert isinstance(named.value.__cause__, NumericsError)
