"""Spohn's inequality and the first law on random detailed-balance generators.

Every channel here is either half of a detailed-balance pair at a true bath
temperature (thermo.thermal_pairs on eigenbasis jumps) or a pure
dephasing by a projector that commutes with H. For such generators
sigma = dS/dt - sum_b J_b / T_b >= 0 on every state (Spohn, J. Math. Phys.
19, 1227, 1978), and with one temperature the Gibbs state is stationary.
States are full rank with every eigenvalue above ENTROPY_EIGENVALUE_FLOOR.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from solaraudit import (
    DensityMatrix,
    DissipationChannel,
    LindbladGenerator,
    entropy_production,
    heat_current,
    liouvillian_apply,
    steady_state,
)
from solaraudit.core import HERMITICITY_TOL, TRACE_TOL
from solaraudit.thermo import ENTROPY_EIGENVALUE_FLOOR, thermal_pairs

THERMAL = ("abs", "loss")
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def detailed_balance_models(draw):
    """(H, eigenbasis, energies, channel plan): a nondegenerate spectrum in a
    random eigenbasis, a thermal link between every pair of neighbouring
    levels plus random extra links, each on a random thermal bath, and
    dephasing projectors onto random sets of eigenstates."""
    dim = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=dim - 1, max_size=dim - 1))
    energies = np.concatenate([[0.0], np.cumsum(gaps)])
    u = unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
    level = st.integers(0, dim - 1)
    extra = draw(st.lists(st.tuples(level, level).filter(lambda p: p[0] != p[1]), max_size=3))
    links = [(i, i + 1) for i in range(dim - 1)] + [tuple(sorted(p)) for p in extra]
    link_plan = [
        (i, j, draw(st.sampled_from(THERMAL)), draw(st.floats(0.05, 1.0))) for i, j in links
    ]
    dephasing = draw(
        st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=dim, max_size=dim).filter(any),
                st.sampled_from(THERMAL),
                st.floats(0.01, 1.0),
            ),
            max_size=2,
        )
    )
    h = (u * energies) @ u.conj().T
    return h, u, energies, link_plan, dephasing


def generator(model, temperatures):
    h, u, energies, link_plan, dephasing = model
    i, j, baths, gamma0 = zip(*link_plan)
    lower = [np.outer(u[:, a], u[:, b].conj()) for a, b in zip(i, j)]  # |e_i><e_j|, down E_j - E_i
    temps = [temperatures[THERMAL.index(bath)] for bath in baths]
    channels = [thermal_pairs(baths, temps, lower, energies[list(j)] - energies[list(i)], gamma0)]
    for mask, bath, rate in dephasing:
        projector = u[:, mask] @ u[:, mask].conj().T
        channels.append(DissipationChannel(projector, rate, bath, 0.0))
    return LindbladGenerator(h, channels)


@st.composite
def full_rank_states(draw, dim):
    logs = draw(st.lists(st.floats(-12.0, 0.0), min_size=dim, max_size=dim))
    w = 10.0 ** np.array(logs)
    u = unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
    return DensityMatrix((u * (w / w.sum())) @ u.conj().T)


@PROPERTY
@given(st.data())
def test_spohn_inequality_and_first_law_on_full_rank_states(data):
    model = data.draw(detailed_balance_models())
    temperatures = data.draw(st.tuples(st.floats(0.3, 5.0), st.floats(0.3, 5.0)))
    gen = generator(model, temperatures)
    rho = data.draw(full_rank_states(gen.dim))
    assert rho.eigenvalues()[0] > ENTROPY_EIGENVALUE_FLOOR

    rho_dot = liouvillian_apply(gen, rho)
    scale = np.abs(rho_dot).max()
    assert abs(np.trace(rho_dot)) <= TRACE_TOL
    assert np.abs(rho_dot - rho_dot.conj().T).max() <= HERMITICITY_TOL * max(1.0, scale)

    currents = [heat_current(gen, b, rho) for b in ("abs", "loss", "sink")]
    de_dt = float(np.trace(gen.hamiltonian @ rho_dot).real)
    assert abs(de_dt - sum(currents)) <= 1e-9 * max(1.0, abs(de_dt))

    sigma = entropy_production(rho, rho_dot, currents[:2], temperatures)
    flows = [j / t for j, t in zip(currents, temperatures)]
    ds_dt = sigma + sum(flows)
    assert sigma >= -1e-9 * max(abs(ds_dt), *map(abs, flows))


@PROPERTY
@given(detailed_balance_models(), st.floats(0.5, 5.0))
def test_one_temperature_steady_state_is_gibbs(model, temperature):
    gen = generator(model, (temperature, temperature))
    gibbs = DensityMatrix.gibbs(gen.hamiltonian, temperature).entries
    assert np.abs(steady_state(gen).entries - gibbs).max() <= 1e-9
