"""Finite collective reservoir vs oscillator limit, against spin-algebra oracles."""

import math

import numpy as np
import pytest

from solaraudit.models import (
    CollectiveReservoirParams,
    ThreeLevelParams,
    compare_with_oscillator_limit,
    dressed_frequency,
)


def _params(gamma=0.01, omega_rc=0.5):
    return ThreeLevelParams(
        omega_abs=2.0,
        omega_rc=omega_rc,
        gamma=gamma,
        t_abs=3.0,
        t_loss=0.4,
    )


def spin_oracle_levels(p, j, count):
    """Two-band collective spectrum from raw angular momentum matrices.

    The reservoir is a spin j; its coupling to the two transfer levels is
    sqrt(gamma/(2j)) (|1><0| J- + |0><1| J+), with matrix elements taken
    from <m+1|J+|m> = sqrt(j(j+1) - m(m+1)). No rescaled ladder amplitudes
    anywhere, so this is independent of the package construction.
    """
    m = np.arange(-j, j + 1, dtype=float)
    dim_r = m.size
    jz = np.diag(m)
    amp = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    jp = np.diag(amp, -1)
    jm = jp.T
    band = np.diag([0.0, p.omega_rc])
    swap = np.zeros((2, 2))
    swap[1, 0] = 1.0
    h = (
        np.kron(band, np.eye(dim_r))
        + np.kron(np.eye(2), p.omega_rc * jz)
        + math.sqrt(p.gamma / (2.0 * j)) * (np.kron(swap, jm) + np.kron(swap.T, jp))
    )
    return np.linalg.eigvalsh(h)[:count]


def oscillator_levels_analytic(p, j, n_max, count):
    """Oscillator-limit spectrum as a sorted list of 2x2 doublet energies.

    Each pair (|1, nu>, |0, nu+1>) is degenerate at omega_rc (nu + 1 - j)
    and splits by the dressed gap 2 sqrt(gamma (nu+1)); the empty lower
    band and the top upper rung stay uncoupled.
    """
    levels = [-j * p.omega_rc, p.omega_rc * (n_max + 1.0 - j)]
    for nu in range(n_max):
        center = p.omega_rc * (nu + 1.0 - j)
        half = math.sqrt(p.gamma * (nu + 1.0))
        levels += [center - half, center + half]
    return np.sort(np.array(levels))[:count]


def test_reservoir_params_validation():
    with pytest.raises(ValueError):
        CollectiveReservoirParams(j=0)
    with pytest.raises(ValueError):
        CollectiveReservoirParams(j=3.0)
    with pytest.raises(ValueError, match="overflow"):
        CollectiveReservoirParams(j=13)
    with pytest.raises(ValueError):
        CollectiveReservoirParams(j=4, n_max=1)
    with pytest.raises(ValueError):
        CollectiveReservoirParams(j=4, low_count=0)
    with pytest.raises(ValueError):
        CollectiveReservoirParams(j=4, low_count=50)
    hp = CollectiveReservoirParams(j=4)
    assert hp.n_max == 8
    assert hp.low_count == 5


def test_comparison_rejects_strong_coupling_and_zero_gamma():
    with pytest.raises(ValueError):
        compare_with_oscillator_limit(
            _params(gamma=0.01, omega_rc=0.01), CollectiveReservoirParams(j=4)
        )
    with pytest.raises(ValueError, match="gamma"):
        compare_with_oscillator_limit(_params(gamma=0.0), CollectiveReservoirParams(j=4))


def test_collective_levels_match_spin_algebra_oracle():
    p = _params()
    for j in (4, 6, 8):
        rep = compare_with_oscillator_limit(p, CollectiveReservoirParams(j=j, low_count=7))
        oracle = spin_oracle_levels(p, j, 7)
        assert np.max(np.abs(rep.collective_levels - oracle)) < 1e-12


def test_oscillator_levels_match_closed_ladder():
    p = _params()
    hp = CollectiveReservoirParams(j=5, low_count=9)
    rep = compare_with_oscillator_limit(p, hp)
    oracle = oscillator_levels_analytic(p, 5, hp.n_max, 9)
    assert np.max(np.abs(rep.oscillator_levels - oracle)) < 1e-12


def test_empty_reservoir_ground_energy():
    p = _params()
    for j in (4, 12):
        rep = compare_with_oscillator_limit(p, CollectiveReservoirParams(j=j))
        ground_collective, ground_oscillator = rep.collective_levels[0], rep.oscillator_levels[0]
        assert ground_collective == pytest.approx(-j * p.omega_rc, abs=1e-12)
        assert ground_oscillator == pytest.approx(-j * p.omega_rc, abs=1e-12)
        assert abs(ground_collective - ground_oscillator) < 1e-13


def test_single_excitation_splitting_is_dressed_gap():
    p = _params()
    rep = compare_with_oscillator_limit(p, CollectiveReservoirParams(j=8))
    gap = dressed_frequency(0, p.gamma)
    assert gap == pytest.approx(2.0 * math.sqrt(p.gamma), rel=1e-15)
    splitting_collective, splitting_oscillator = (
        levels[2] - levels[1] for levels in (rep.collective_levels, rep.oscillator_levels))
    assert splitting_oscillator == pytest.approx(gap, rel=1e-12)
    # the first doublet closes on itself in both models (the 2j/(2j) factor
    # is exactly 1 there), so the splitting agrees and the finite-size
    # correction only enters from the second rung up
    assert splitting_collective == pytest.approx(gap, rel=1e-12)
    assert np.max(np.abs(rep.collective_levels - rep.oscillator_levels)[:3]) < 1e-12
    assert rep.max_deviation > 1e-4


def test_deviation_scales_inversely_with_j():
    # compared levels reach two reservoir quanta, far below the 8..24
    # two-level units behind these j values, so the low-excitation
    # expansion applies and the residual must halve when j doubles
    p = _params()
    for j_small in (4, 6):
        dev_small = compare_with_oscillator_limit(
            p, CollectiveReservoirParams(j=j_small)
        ).max_deviation
        dev_large = compare_with_oscillator_limit(
            p, CollectiveReservoirParams(j=2 * j_small)
        ).max_deviation
        ratio = dev_small / dev_large
        assert 1.7 <= ratio <= 2.3
        expected = (1.0 - math.sqrt(1.0 - 0.5 / j_small)) / (
            1.0 - math.sqrt(1.0 - 0.25 / j_small)
        )
        assert ratio == pytest.approx(expected, rel=1e-10)


def test_max_deviation_closed_form():
    # with five levels the worst residual is the second doublet's shrunken
    # coupling: sqrt(2 gamma) (1 - sqrt(1 - 1/(2j)))
    p = _params()
    for j in (4, 8, 12):
        rep = compare_with_oscillator_limit(p, CollectiveReservoirParams(j=j))
        expected = math.sqrt(2.0 * p.gamma) * (1.0 - math.sqrt(1.0 - 0.5 / j))
        assert rep.max_deviation == pytest.approx(expected, rel=1e-10)
