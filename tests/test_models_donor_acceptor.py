"""Donor-acceptor and five-level photocell cycles against rate-equation oracles."""

import warnings

import numpy as np
import pytest

from solaraudit import NumericsError, heat_current, steady_state
from solaraudit.models import (
    DonorAcceptorParams,
    PhotocellParams,
    donor_acceptor_generator,
    donor_acceptor_report,
    donor_acceptor_steady_state,
    photocell_generator,
    photocell_report,
    photocell_steady_state,
)

from dissipator_oracle import gibbs_state


def da_rate_matrix(p):
    """Population rate matrix of the four-level cycle, basis (b, a, alpha, beta).

    w[i, j] is the rate from level j to level i. Built transition by
    transition from the bath occupations, independently of the package's
    chained-ratio solution.
    """
    n_h, n_c, big_n = p.ring().occupations()
    w = np.zeros((4, 4))
    w[1, 0] = p.gamma_h * n_h
    w[0, 1] = p.gamma_h * (1.0 + n_h)
    w[2, 1] = p.gamma_c * (1.0 + n_c)
    w[1, 2] = p.gamma_c * n_c
    w[3, 2] = p.gamma_load
    w[0, 3] = p.gamma_cb * (1.0 + big_n)
    w[3, 0] = p.gamma_cb * big_n
    for j in range(4):
        w[j, j] = -w[:, j].sum()
    return w


def photocell_rate_matrix(p):
    """Rate matrix of the five-level cycle, basis (b, x1, x2, alpha, beta)."""
    n_h, n_x, n_2c, big_n = p.ring().occupations()
    w = np.zeros((5, 5))
    w[1, 0] = p.gamma_h * n_h
    w[0, 1] = p.gamma_h * (1.0 + n_h)
    w[2, 1] = p.gamma_x * (1.0 + n_x)
    w[1, 2] = p.gamma_x * n_x
    w[3, 2] = p.gamma_c * (1.0 + n_2c)
    w[2, 3] = p.gamma_c * n_2c
    w[4, 3] = p.gamma_load
    w[0, 4] = p.gamma_cb * (1.0 + big_n)
    w[4, 0] = p.gamma_cb * big_n
    for j in range(5):
        w[j, j] = -w[:, j].sum()
    return w


def null_space_populations(w):
    _, _, vh = np.linalg.svd(w)
    pops = vh[-1].real
    pops /= pops.sum()
    return pops


def random_da_params(rng, either_load_sign=False):
    omega_b = rng.uniform(0.0, 0.4)
    hot_gap = rng.uniform(0.8, 2.5)
    omega_a = omega_b + hot_gap
    omega_alpha = omega_b + rng.uniform(0.35, 0.75) * hot_gap
    if either_load_sign and rng.random() < 0.5:
        omega_beta = omega_alpha + rng.uniform(0.02, 0.2) * hot_gap
    else:
        omega_beta = omega_b + rng.uniform(0.1, 0.9) * (omega_alpha - omega_b)
    return DonorAcceptorParams(
        omega_b=omega_b,
        omega_a=omega_a,
        omega_alpha=omega_alpha,
        omega_beta=omega_beta,
        gamma_h=rng.uniform(0.05, 1.0),
        gamma_c=rng.uniform(0.05, 1.0),
        gamma_cb=rng.uniform(0.05, 1.0),
        gamma_load=rng.uniform(0.05, 1.0),
        t_abs=rng.uniform(1.5, 6.0),
        t_loss=rng.uniform(0.3, 1.2),
    )


def random_photocell_params(rng):
    omega_b = rng.uniform(0.0, 0.4)
    hot_gap = rng.uniform(1.0, 3.0)
    omega_x1 = omega_b + hot_gap
    omega_x2 = omega_x1 - rng.uniform(0.1, 0.3) * hot_gap
    omega_alpha = omega_x2 - rng.uniform(0.1, 0.3) * hot_gap
    omega_beta = omega_b + rng.uniform(0.1, 0.9) * (omega_alpha - omega_b)
    return PhotocellParams(
        omega_b=omega_b,
        omega_x1=omega_x1,
        omega_x2=omega_x2,
        omega_alpha=omega_alpha,
        omega_beta=omega_beta,
        gamma_h=rng.uniform(0.05, 1.0),
        gamma_x=rng.uniform(0.05, 1.0),
        gamma_c=rng.uniform(0.05, 1.0),
        gamma_cb=rng.uniform(0.05, 1.0),
        gamma_load=rng.uniform(0.05, 1.0),
        t_abs=rng.uniform(1.5, 6.0),
        t_loss=rng.uniform(0.3, 1.2),
    )


def _da(**over):
    base = dict(
        omega_b=0.0,
        omega_a=1.5,
        omega_alpha=0.8,
        omega_beta=0.5,
        gamma_h=0.2,
        gamma_c=0.3,
        gamma_cb=0.25,
        gamma_load=0.1,
        t_abs=2.0,
        t_loss=0.5,
    )
    base.update(over)
    return DonorAcceptorParams(**base)


def _pc(**over):
    base = dict(
        omega_b=0.0,
        omega_x1=2.0,
        omega_x2=1.4,
        omega_alpha=1.1,
        omega_beta=0.1,
        gamma_h=0.2,
        gamma_x=0.4,
        gamma_c=0.3,
        gamma_cb=0.25,
        gamma_load=0.1,
        t_abs=2.5,
        t_loss=0.5,
    )
    base.update(over)
    return PhotocellParams(**base)


# (params builder, overrides, the one error message): each of the first
# inputs per class breaks one check only, with a tie where the bound is
# strict; the rest break several and pin the order: gaps, then thermal
# rates, both in ring order, then the sink rate, then the temperatures
RING_CHECKS = [
    (_da, dict(omega_b=1.5, omega_beta=2.0), "absorption gap omega_a - omega_b must be positive"),
    (_da, dict(omega_alpha=1.5), "relaxation gap omega_a - omega_alpha must be positive"),
    (_da, dict(omega_beta=0.0), "recycle gap omega_beta - omega_b must be positive"),
    (_da, dict(gamma_h=0.0), "gamma_h must be positive"),
    (_da, dict(gamma_c=-0.3), "gamma_c must be positive"),
    (_da, dict(gamma_cb=0.0), "gamma_cb must be positive"),
    (_da, dict(gamma_load=-0.1), "gamma_load must be nonnegative"),
    (_da, dict(t_abs=0.0), "t_abs and t_loss must be positive"),
    (_da, dict(t_loss=-0.5), "t_abs and t_loss must be positive"),
    (_pc, dict(omega_b=2.0, omega_beta=2.1), "absorption gap omega_x1 - omega_b must be positive"),
    (_pc, dict(omega_x2=2.0), "cascade gap omega_x1 - omega_x2 must be positive"),
    (_pc, dict(omega_alpha=1.4), "separation gap omega_x2 - omega_alpha must be positive"),
    (_pc, dict(omega_beta=0.0), "recycle gap omega_beta - omega_b must be positive"),
    (_pc, dict(gamma_h=0.0), "gamma_h must be positive"),
    (_pc, dict(gamma_x=0.0), "gamma_x must be positive"),
    (_pc, dict(gamma_c=-1.0), "gamma_c must be positive"),
    (_pc, dict(gamma_cb=0.0), "gamma_cb must be positive"),
    (_pc, dict(gamma_load=-0.5), "gamma_load must be nonnegative"),
    (_pc, dict(t_abs=-2.0), "t_abs and t_loss must be positive"),
    (_pc, dict(t_loss=0.0), "t_abs and t_loss must be positive"),
    (_da, dict(omega_a=0.0), "absorption gap omega_a - omega_b must be positive"),
    (_da, dict(gamma_load=-1.0, gamma_cb=0.0), "gamma_cb must be positive"),
    (_da, dict(omega_beta=0.0, omega_alpha=1.5), "relaxation gap omega_a - omega_alpha must be positive"),
    (_da, dict(gamma_h=0.0, omega_beta=0.0), "recycle gap omega_beta - omega_b must be positive"),
    (_da, dict(t_abs=0.0, gamma_load=-1.0), "gamma_load must be nonnegative"),
    (_da, dict(gamma_load=-1.0, t_abs=np.inf), "t_abs must be finite, got inf"),
    (_pc, dict(omega_x1=0.0), "absorption gap omega_x1 - omega_b must be positive"),
    (_pc, dict(omega_beta=0.0, omega_x2=2.0), "cascade gap omega_x1 - omega_x2 must be positive"),
    (_pc, dict(gamma_cb=0.0, gamma_x=0.0), "gamma_x must be positive"),
    (_pc, dict(gamma_load=-1.0, gamma_cb=0.0), "gamma_cb must be positive"),
    (_pc, dict(t_loss=0.0, gamma_load=-1.0), "gamma_load must be nonnegative"),
]


@pytest.mark.parametrize(
    "build, over, message",
    [pytest.param(*case, id=f"{case[0].__name__}-{'-'.join(case[1])}") for case in RING_CHECKS],
)
def test_ring_params_checks_and_their_order(build, over, message):
    with pytest.raises(ValueError) as info:
        build(**over)
    assert str(info.value) == message


def test_donor_acceptor_params_reject_non_finite_values():
    for name in ("omega_b", "omega_a", "omega_alpha", "omega_beta", "gamma_h",
                 "gamma_c", "gamma_cb", "gamma_load", "t_abs", "t_loss"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                _da(**{name: value})


def test_donor_acceptor_matches_rate_matrix_null_space():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_da_params(rng)
        pops = donor_acceptor_steady_state(p)
        oracle = null_space_populations(da_rate_matrix(p))
        assert np.max(np.abs(pops - oracle)) < 1e-10


def test_donor_acceptor_matches_lindblad_steady_state():
    rng = np.random.default_rng(12)
    for _ in range(25):
        p = random_da_params(rng)
        rho = steady_state(donor_acceptor_generator(p))
        diag = np.real(np.diag(rho.entries))
        assert np.max(np.abs(diag - donor_acceptor_steady_state(p))) < 1e-8
        coherences = rho.entries - np.diag(np.diag(rho.entries))
        assert np.max(np.abs(coherences)) < 1e-10


def test_donor_acceptor_populations_normalized():
    rng = np.random.default_rng(13)
    for _ in range(100):
        pops = donor_acceptor_steady_state(random_da_params(rng, either_load_sign=True))
        assert np.all(pops >= 0.0)
        assert abs(pops.sum() - 1.0) < 1e-12


def test_donor_acceptor_gibbs_limit():
    p = _da(gamma_load=0.0, t_abs=0.7, t_loss=0.7)
    h = np.diag([p.omega_b, p.omega_a, p.omega_alpha, p.omega_beta])
    gibbs = np.real(np.diag(gibbs_state(h, 0.7).entries))
    assert np.max(np.abs(donor_acceptor_steady_state(p) - gibbs)) < 1e-8
    rho = steady_state(donor_acceptor_generator(p))
    assert np.max(np.abs(rho.entries - gibbs_state(h, 0.7).entries)) < 1e-8


def test_donor_acceptor_zero_hot_occupation_raises():
    with pytest.raises(NumericsError, match="hot occupation"):
        donor_acceptor_steady_state(_da(t_abs=1e-3))


def test_underflowed_rate_raises_without_warning():
    # a rate 1e-320 against O(0.1) rates overflows a cycle ratio, or
    # underflows a rate product to zero; neither may reach inf * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for steady, p in (
            (donor_acceptor_steady_state, _da(gamma_h=1e-320)),
            (donor_acceptor_steady_state, _da(gamma_c=1e-320)),
            (donor_acceptor_steady_state, _da(gamma_h=1e-320, t_abs=0.3)),
            (photocell_steady_state, _pc(gamma_h=1e-320)),
            (photocell_steady_state, _pc(gamma_x=1e-320)),
            (photocell_steady_state, _pc(gamma_x=1e-320, gamma_load=1e-10)),
        ):
            with pytest.raises(NumericsError, match="cycle ratios overflow"):
                steady(p)


def test_donor_acceptor_current_signs():
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = random_da_params(rng, either_load_sign=True)
        rep = donor_acceptor_report(p)
        assert rep.j_abs > 0.0
        assert rep.j_loss < 0.0
        if p.omega_beta < p.omega_alpha:
            assert rep.power < 0.0


def test_donor_acceptor_ratio_closed_form():
    # drop through the load of 0.3 against an absorption gap of 1.5
    assert donor_acceptor_report(_da()).ratio == pytest.approx(0.8, rel=1e-12)
    # degenerate load levels: everything absorbed is rejected again
    flat = _da(omega_alpha=0.6, omega_beta=0.6)
    assert donor_acceptor_report(flat).ratio == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(15)
    for _ in range(20):
        p = random_da_params(rng, either_load_sign=True)
        expected = 1.0 + (p.omega_beta - p.omega_alpha) / (p.omega_a - p.omega_b)
        assert donor_acceptor_report(p).ratio == pytest.approx(expected, rel=1e-12)


def test_donor_acceptor_ratio_independent_of_temperatures():
    # same level structure and couplings, two unrelated temperature pairs;
    # the current ratio from the numeric steady state must not move
    rng = np.random.default_rng(16)
    for _ in range(5):
        geometry = random_da_params(rng)
        ratios = []
        for t_abs, t_loss in ((2.0, 0.5), (4.9, 1.13)):
            p = DonorAcceptorParams(
                omega_b=geometry.omega_b,
                omega_a=geometry.omega_a,
                omega_alpha=geometry.omega_alpha,
                omega_beta=geometry.omega_beta,
                gamma_h=geometry.gamma_h,
                gamma_c=geometry.gamma_c,
                gamma_cb=geometry.gamma_cb,
                gamma_load=geometry.gamma_load,
                t_abs=t_abs,
                t_loss=t_loss,
            )
            gen = donor_acceptor_generator(p)
            rho = steady_state(gen)
            ratios.append(-heat_current(gen, "loss", rho) / heat_current(gen, "abs", rho))
        assert abs(ratios[0] - ratios[1]) < 1e-9
        expected = 1.0 + (geometry.omega_beta - geometry.omega_alpha) / (geometry.omega_a - geometry.omega_b)
        assert ratios[0] == pytest.approx(expected, rel=1e-8)


def test_donor_acceptor_report_first_law_and_sink():
    p = _da(t_abs=3.0)
    rep = donor_acceptor_report(p)
    assert abs(rep.j_abs + rep.j_loss + rep.power) < 1e-14
    assert rep.sink_flow == rep.power
    gen = donor_acceptor_generator(p)
    rho = steady_state(gen)
    assert heat_current(gen, "abs", rho) == pytest.approx(rep.j_abs, rel=1e-8)
    assert heat_current(gen, "loss", rho) == pytest.approx(rep.j_loss, rel=1e-8)
    assert heat_current(gen, "sink", rho) == pytest.approx(rep.power, rel=1e-8)


def test_donor_acceptor_verdict_flips_at_equal_temperatures():
    # cold solar regime: entropy flows downhill, machine is consistent
    solar = donor_acceptor_report(_da(t_abs=20.0, t_loss=0.4))
    assert solar.sigma > 0.0
    assert solar.verdict == "consistent"
    # equal temperatures with work still extracted: nothing pays the
    # entropy bill, the two-bath balance goes negative
    flat = donor_acceptor_report(_da(t_abs=1.0, t_loss=1.0))
    assert flat.power < 0.0
    assert flat.sigma < 0.0
    assert flat.verdict == "violation"


def test_photocell_params_reject_non_finite_values():
    for name in ("omega_b", "omega_x1", "omega_x2", "omega_alpha", "omega_beta",
                 "gamma_h", "gamma_x", "gamma_c", "gamma_cb", "gamma_load",
                 "t_abs", "t_loss"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                _pc(**{name: value})


def test_photocell_matches_rate_matrix_null_space():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = random_photocell_params(rng)
        pops = photocell_steady_state(p)
        oracle = null_space_populations(photocell_rate_matrix(p))
        assert np.max(np.abs(pops - oracle)) < 1e-10


def test_photocell_matches_lindblad_steady_state():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = random_photocell_params(rng)
        rho = steady_state(photocell_generator(p))
        diag = np.real(np.diag(rho.entries))
        assert np.max(np.abs(diag - photocell_steady_state(p))) < 1e-8


def test_photocell_populations_normalized():
    rng = np.random.default_rng(23)
    for _ in range(100):
        pops = photocell_steady_state(random_photocell_params(rng))
        assert np.all(pops >= 0.0)
        assert abs(pops.sum() - 1.0) < 1e-12


def test_photocell_gibbs_limit():
    p = _pc(gamma_load=0.0, t_abs=0.8, t_loss=0.8)
    h = np.diag([p.omega_b, p.omega_x1, p.omega_x2, p.omega_alpha, p.omega_beta])
    gibbs = np.real(np.diag(gibbs_state(h, 0.8).entries))
    assert np.max(np.abs(photocell_steady_state(p) - gibbs)) < 1e-8


def test_photocell_zero_hot_occupation_raises():
    with pytest.raises(NumericsError, match="hot occupation"):
        photocell_steady_state(_pc(t_abs=1e-3))


def test_photocell_current_signs():
    rng = np.random.default_rng(24)
    for _ in range(60):
        rep = photocell_report(random_photocell_params(rng))
        assert rep.j_abs > 0.0
        assert rep.j_loss < 0.0
        assert rep.power < 0.0


def test_photocell_ratio_closed_form():
    # load drop of 1.0 against an absorption gap of 2.0
    assert photocell_report(_pc()).ratio == pytest.approx(0.5, rel=1e-12)
    rng = np.random.default_rng(25)
    for _ in range(20):
        p = random_photocell_params(rng)
        expected = 1.0 + (p.omega_beta - p.omega_alpha) / (p.omega_x1 - p.omega_b)
        assert photocell_report(p).ratio == pytest.approx(expected, rel=1e-12)


def test_photocell_ratio_independent_of_temperatures():
    rng = np.random.default_rng(26)
    for _ in range(5):
        geometry = random_photocell_params(rng)
        ratios = []
        for t_abs, t_loss in ((2.2, 0.6), (5.4, 1.01)):
            p = PhotocellParams(
                omega_b=geometry.omega_b,
                omega_x1=geometry.omega_x1,
                omega_x2=geometry.omega_x2,
                omega_alpha=geometry.omega_alpha,
                omega_beta=geometry.omega_beta,
                gamma_h=geometry.gamma_h,
                gamma_x=geometry.gamma_x,
                gamma_c=geometry.gamma_c,
                gamma_cb=geometry.gamma_cb,
                gamma_load=geometry.gamma_load,
                t_abs=t_abs,
                t_loss=t_loss,
            )
            gen = photocell_generator(p)
            rho = steady_state(gen)
            ratios.append(-heat_current(gen, "loss", rho) / heat_current(gen, "abs", rho))
        assert abs(ratios[0] - ratios[1]) < 1e-9
        expected = 1.0 + (geometry.omega_beta - geometry.omega_alpha) / (geometry.omega_x1 - geometry.omega_b)
        assert ratios[0] == pytest.approx(expected, rel=1e-8)


def test_photocell_first_law_closure():
    rng = np.random.default_rng(27)
    for _ in range(10):
        p = random_photocell_params(rng)
        rep = photocell_report(p)
        assert abs(rep.j_abs + rep.j_loss + rep.power) < 1e-14
        assert rep.sink_flow == rep.power
    p = _pc(t_abs=4.0)
    gen = photocell_generator(p)
    rho = steady_state(gen)
    total = sum(heat_current(gen, bath, rho) for bath in ("abs", "loss", "sink"))
    assert abs(total) < 1e-9
    rep = photocell_report(p)
    assert heat_current(gen, "abs", rho) == pytest.approx(rep.j_abs, rel=1e-8)
    assert heat_current(gen, "sink", rho) == pytest.approx(rep.power, rel=1e-8)
