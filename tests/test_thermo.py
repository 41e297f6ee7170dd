"""Heat currents, entropy rate, and second-law verdicts against oracles."""

import warnings

import numpy as np
import pytest

from solaraudit import (
    DensityMatrix,
    DimensionMismatchError,
    DissipationChannel,
    LindbladGenerator,
    NumericsError,
    ThermoReport,
    bose_occupation,
    entropy_production,
    entropy_rate,
    heat_current,
    liouvillian_apply,
    propagate,
    second_law_verdict,
    steady_state,
)
from solaraudit.models import ThreeLevelParams, decay_generator, decay_steady_populations
from solaraudit.thermo import thermal_pairs

from dissipator_oracle import dense_jumps, dissipator_action


def vn_entropy(rho):
    w = np.linalg.eigvalsh(np.asarray(rho))
    w = w[w > 1e-14]
    return float(-(w * np.log(w)).sum())


# ------------------------------------------------------------ bose occupation


def test_bose_occupation_values():
    t = 0.9
    assert bose_occupation(t * np.log(2.0), t) == pytest.approx(1.0, rel=1e-12)
    assert bose_occupation(800.0, 1.0) == pytest.approx(0.0, abs=1e-300)


def test_bose_occupation_detailed_balance_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        omega = rng.uniform(0.1, 10.0)
        t = rng.uniform(0.05, 5.0)
        n = bose_occupation(omega, t)
        assert n / (1.0 + n) == pytest.approx(np.exp(-omega / t), rel=1e-12)


def test_bose_occupation_monotone_in_temperature():
    values = [bose_occupation(1.0, t) for t in (0.2, 0.5, 1.0, 3.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bose_occupation_extreme_ratios():
    # a gap/temperature ratio that underflows to zero or below the normal
    # range has no finite occupation; one that overflows (numpy scalars
    # included) is empty
    for omega in (5e-324, 1e-320):
        with pytest.raises(NumericsError, match="occupation diverges"):
            bose_occupation(omega, 4000.0)
    assert np.isfinite(bose_occupation(1e-300, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bose_occupation(np.float64(100.0), 5e-324) == 0.0


def test_bose_occupation_rejects_nonpositive():
    with pytest.raises(ValueError):
        bose_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        bose_occupation(1.0, -0.5)


# --------------------------------------------------------------- thermal_pairs


def test_thermal_pair_detailed_balance():
    omega, t, g0 = 1.2, 0.6, 0.01
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    pair = thermal_pairs("loss", t, [lower], [omega], [g0])
    down, up = pair.rate
    assert up / down == pytest.approx(np.exp(-omega / t), rel=1e-12)
    assert pair.bath_id.tolist() == ["loss", "loss"]
    n = bose_occupation(omega, t)
    assert down == pytest.approx(g0 * (1 + n), rel=1e-14)
    assert up == pytest.approx(g0 * n, rel=1e-14)
    assert np.array_equal(dense_jumps(pair), [lower, lower.T])


def test_sink_bath_carries_no_temperature():
    jump = np.zeros((2, 2), dtype=complex)
    jump[0, 1] = 1.0
    for temperature in (1.0, None):
        with pytest.raises(ValueError, match="^sink baths have no thermal occupation$"):
            thermal_pairs("sink", temperature, [jump], [1.0], [0.1])
    with pytest.raises(ValueError, match="^thermal bath 'abs' needs temperature > 0, got None$"):
        thermal_pairs("abs", None, [jump], [1.0], [0.1])
    ch = DissipationChannel(jump, 0.1, "sink", 1.0)
    assert ch.rate == 0.1 and ch.bath_id == "sink"
    with pytest.raises(ValueError, match="channel rate must be >= 0"):
        thermal_pairs("loss", 1.0, [jump], [1.0], [-0.1])


def test_thermal_pair_rate_that_is_not_finite_is_a_numerical_failure():
    # the pair's rates reach the channel as they come out; the channel
    # names the bath, the gap and the value, without a warning
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bath, t, g0 in (("loss", 1e200, 1e150), ("abs", 1.0, np.inf)):
            needle = f"{bath} rate overflows: inf at Bohr frequency 1.2"
            with pytest.raises(NumericsError, match=needle):
                thermal_pairs(bath, t, [lower], [1.2], [g0])
        # pair by pair: an earlier pair's rate fails before a later pair's
        # occupation, and that occupation before a later pair's rate
        with pytest.raises(NumericsError, match="^loss rate overflows: inf at Bohr frequency 1.2$"):
            thermal_pairs("loss", [1e200, -1.0], [lower, lower], [1.2, 1.0], [1e150, 0.1])
        with pytest.raises(ValueError, match="^thermal bath 'loss' needs temperature > 0, got -1.0$"):
            thermal_pairs("loss", [-1.0, 1e200], [lower, lower], [1.0, 1.2], [0.1, 1e150])


# ------------------------------------------------------------------ heat current


def test_heat_currents_toy_decay_steady_state():
    # at the stationary state the currents are +/- gap times the cycle flux
    p = ThreeLevelParams(
        omega_abs=1.1, omega_rc=0.6, gamma=0.002, t_abs=1.3, t_loss=0.07
    )
    gen = decay_generator(p)
    rho = DensityMatrix(np.diag(decay_steady_populations(p)))
    flux = p.gamma * rho.population(1)
    assert heat_current(gen, "abs", rho) == pytest.approx(p.omega_plus * flux, rel=1e-10)
    assert heat_current(gen, "loss", rho) == pytest.approx(
        -p.omega_minus * flux, rel=1e-10
    )


def test_heat_current_projector_jump_on_mixed_state_is_zero():
    h = np.diag([0.0, 1.0]).astype(complex)
    proj = np.diag([1.0, 0.0]).astype(complex)
    gen = LindbladGenerator(h, [DissipationChannel(proj, 0.3, "loss", 0.0)])
    assert heat_current(gen, "loss", DensityMatrix.maximally_mixed(2)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_heat_current_unknown_bath_rejected():
    gen = decay_generator(
        ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.001, t_abs=1.0, t_loss=0.05)
    )
    rho = DensityMatrix.maximally_mixed(3)
    with pytest.raises(ValueError):
        heat_current(gen, "work", rho)


def test_heat_current_rejects_non_hermitian_array():
    # Tr[rho Q_b] is real for a Hermitian rho; a raw array's anti-Hermitian
    # part shows up as an imaginary residue
    rng = np.random.default_rng(4)
    h = rng.normal(size=(3, 3))
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gen = LindbladGenerator(h + h.T, [DissipationChannel(a, 0.3, "loss", 0.0, check_bohr=False)])
    rho = DensityMatrix.maximally_mixed(3).entries
    assert np.isfinite(heat_current(gen, "loss", rho))
    s = rng.normal(size=(3, 3))
    with pytest.raises(NumericsError, match="imaginary residue"):
        heat_current(gen, "loss", rho + 0.1j * (s + s.T))


def test_heat_current_rejects_state_of_wrong_dimension():
    gen = decay_generator(
        ThreeLevelParams(omega_abs=1.0, omega_rc=0.5, gamma=0.001, t_abs=1.0, t_loss=0.05)
    )
    with pytest.raises(DimensionMismatchError):
        heat_current(gen, "abs", DensityMatrix.maximally_mixed(2))


def test_heat_current_matches_brute_force_sum():
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.003, t_abs=0.9, t_loss=0.2,
        gamma_h=0.004, gamma_c=0.001,
    )
    gen = decay_generator(p)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho = DensityMatrix(rho / rho.trace())
    for bath in ("abs", "loss", "sink"):
        expected = np.trace(dissipator_action(gen.table, rho, bath) @ gen.hamiltonian).real
        assert heat_current(gen, bath, rho) == pytest.approx(expected, abs=1e-15)


# ------------------------------------------------------------------ entropy rate


def test_entropy_rate_zero_for_zero_rhodot():
    rho = DensityMatrix.maximally_mixed(3)
    assert entropy_rate(rho, np.zeros((3, 3))) == 0.0


def test_entropy_rate_matches_finite_difference_for_dephasing():
    # pure dephasing of a superposition: entropy must grow, and the
    # analytic rate must match a central difference of S(rho(t))
    gamma = 0.4
    h = np.diag([0.0, 1.0]).astype(complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    gen = LindbladGenerator(h, [DissipationChannel(sz, gamma, "loss", 0.0)])
    rho0 = DensityMatrix.pure([np.sqrt(0.5), np.sqrt(0.5)])
    t0 = 0.25
    rho_t = propagate(gen, rho0, np.array([0.0, t0]))[-1]
    rate = entropy_rate(rho_t, liouvillian_apply(gen, rho_t))
    assert rate > 0.0
    dt = 1e-6
    lo = propagate(gen, rho0, np.array([0.0, t0 - dt]))[-1]
    hi = propagate(gen, rho0, np.array([0.0, t0 + dt]))[-1]
    numeric = (vn_entropy(hi.entries) - vn_entropy(lo.entries)) / (2.0 * dt)
    assert rate == pytest.approx(numeric, rel=1e-6)


def test_entropy_rate_finite_at_pure_state():
    gamma = 0.1
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    gen = LindbladGenerator(
        np.diag([0.0, 1.0]).astype(complex),
        [DissipationChannel(lower, gamma, "loss", 1.0)],
    )
    rho = DensityMatrix.pure([0.0, 1.0])
    rate = entropy_rate(rho, liouvillian_apply(gen, rho))
    assert np.isfinite(rate)


def test_entropy_rate_rejects_non_hermitian_rhodot():
    rho = DensityMatrix.maximally_mixed(2)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericsError):
        entropy_rate(rho, bad)


def test_isolated_eigenstate_has_zero_entropy_production():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = entropy_production(rho, np.zeros((2, 2)), (0.0, 0.0), (1.0, 0.5))
    assert sigma == 0.0


def test_entropy_production_assembles_terms():
    rho = DensityMatrix.maximally_mixed(2)
    rho_dot = np.zeros((2, 2))
    sigma = entropy_production(rho, rho_dot, (0.3, -0.1), (2.0, 0.5))
    assert sigma == pytest.approx(-(0.3 / 2.0) - (-0.1 / 0.5), abs=1e-15)
    for temperatures in ((0.0, 0.5), (2.0, -0.5)):
        with pytest.raises(ValueError, match="temperatures must be positive"):
            entropy_production(rho, rho_dot, (0.3, -0.1), temperatures)


def test_spohn_inequality_thermal_relaxation():
    # a single thermal bath: sigma(t) >= 0 along any relaxation path
    omega, t, g0 = 1.0, 0.4, 0.15
    h = np.diag([0.0, omega]).astype(complex)
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    gen = LindbladGenerator(h, thermal_pairs("loss", t, [lower], [omega], [g0]))
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T))
    for rho in propagate(gen, rho0, np.linspace(0.0, 30.0, 16)):
        rho_dot = liouvillian_apply(gen, rho)
        j = heat_current(gen, "loss", rho)
        sigma = entropy_rate(rho, rho_dot) - j / t
        assert sigma >= -1e-12


# ----------------------------------------------------------------- verdicts


def test_second_law_verdict_branches():
    # absorbing from the hot bath: ratio must reach tau
    assert second_law_verdict(1.0, -0.5, 1.0, 0.4) == "consistent"
    assert second_law_verdict(1.0, -0.3, 1.0, 0.4) == "violation"
    # dumping into the hot bath: inequality flips
    assert second_law_verdict(-1.0, 0.5, 1.0, 0.4) == "violation"
    assert second_law_verdict(-1.0, 0.5, 1.0, 0.6) == "consistent"
    # negligible absorber current: no verdict
    assert second_law_verdict(1e-20, -1.0, 1.0, 0.4) == "undefined"
    assert second_law_verdict(0.0, 0.0, 1.0, 0.4) == "undefined"


def test_second_law_verdict_boundary_tolerance():
    tau = 0.5
    assert second_law_verdict(1.0, -tau * (1.0 - 1e-12), 1.0, tau) == "consistent"
    assert second_law_verdict(1.0, -tau * (1.0 - 1e-6), 1.0, tau) == "violation"


def test_second_law_verdict_undefined_for_non_finite_currents():
    for j_abs, j_loss in ((np.nan, -0.5), (1.0, np.nan), (np.inf, -0.5), (1.0, -np.inf)):
        assert second_law_verdict(j_abs, j_loss, 1.0, 0.4) == "undefined"


def test_second_law_verdict_rejects_bad_temperatures():
    with pytest.raises(ValueError):
        second_law_verdict(1.0, -0.5, 0.0, 0.5)


# ------------------------------------------------------------- thermo report


def test_thermo_report_enforces_first_law():
    ThermoReport(
        j_abs=1.0, j_loss=-0.4, power=-0.6, sigma=0.1, ratio=0.4, verdict="consistent"
    )
    with pytest.raises(ValueError):
        ThermoReport(
            j_abs=1.0, j_loss=-0.4, power=-0.3, sigma=0.1, ratio=0.4, verdict="consistent"
        )
    with pytest.raises(ValueError, match="verdict must be one of"):
        ThermoReport(1.0, -0.4, -0.6, 0.1, 0.4, "plausible")


def test_thermo_report_rejects_non_finite_fields():
    # a NaN slips past the first-law comparison, so it is refused up front
    nan, inf = float("nan"), float("inf")
    for fields in (
        (nan, nan, nan, nan, nan),
        (nan, -0.4, -0.6, 0.1, 0.4),
        (1.0, inf, -0.6, 0.1, 0.4),
        (1.0, -0.4, -inf, 0.1, 0.4),
        (1.0, -0.4, -0.6, inf, 0.4),
    ):
        with pytest.raises(NumericsError):
            ThermoReport(*fields, "consistent")
    # a nan ratio with finite currents is a legitimate report
    ThermoReport(0.0, 0.0, 0.0, 0.0, nan, "undefined")
