"""The stacked channel tables of the trace model and the rings against
their channels built one by one.

The trace model and the rings hand the generator a few tables, each
stacking many channels (thermo.thermal_pairs builds the detailed-balance
ones). Written out here instead, every channel is its own
DissipationChannel, listed in the model's order: the generator of the two
must be the same to the last bit.
"""

import numpy as np
import pytest

from solaraudit import config, core
from solaraudit.core import ChannelTable, DissipationChannel, LindbladGenerator
from solaraudit.fmo import N_SITES, SINK_SOURCE_SITE, build_model, default_config
from solaraudit.models import MODELS
from solaraudit.thermo import bose_occupation


def pair_one_by_one(bath, temperature, lower, omega, gamma0):
    """A detailed-balance pair as two one-channel tables: lower at
    gamma0 (1 + n), then its adjoint at gamma0 n."""
    n = bose_occupation(omega, temperature)
    gamma0 = float(gamma0)
    return [
        DissipationChannel(lower, gamma0 * (1.0 + n), bath, omega),
        DissipationChannel(lower.conj().T, gamma0 * n, bath, omega),
    ]


def fmo_channels_one_by_one(cfg):
    """The trace model's channels, one jump at a time: the abs pairs of the
    antenna and of each exciton, the relaxation pair of each exciton pair
    i < k, the dephasing of each site, the antenna-to-exciton transfer
    pairs, and the sink."""
    model = build_model(cfg)
    dim, t_abs, t_loss = model.dim, model.t_abs_cm, model.t_loss_cm
    energies, w = np.linalg.eigh(np.diag(cfg.site_energies) + cfg.couplings)
    bright = np.abs(w.sum(axis=0)) ** 2
    ground, antenna, site3, sink = np.eye(dim, dtype=complex)[[0, 1, 1 + SINK_SOURCE_SITE, -1]]
    excitons = np.zeros((N_SITES, dim), dtype=complex)
    excitons[:, 2 : 2 + N_SITES] = w.T
    ratio = cfg.mu_ant_ind / cfg.mu_fmo
    rate_ant = cfg.gamma_rad * cfg.n_pigments * (ratio * ratio)
    channels = pair_one_by_one("abs", t_abs, np.outer(ground, antenna.conj()), cfg.omega_ant, rate_ant)
    for k in range(N_SITES):
        lower = np.outer(ground, excitons[k].conj())
        channels += pair_one_by_one("abs", t_abs, lower, energies[k], cfg.gamma_rad * bright[k])
    for i in range(N_SITES):
        for k in range(i + 1, N_SITES):
            gap = energies[k] - energies[i]
            rate = cfg.vib.density(gap) * float(np.sum(w[:, i] ** 2 * w[:, k] ** 2))
            lower = np.outer(excitons[i], excitons[k].conj())
            channels += pair_one_by_one("loss", t_loss, lower, gap, rate)
    for m in range(N_SITES):
        site_weight = np.zeros((dim, dim), dtype=complex)
        for k in range(N_SITES):
            site_weight += w[m, k] ** 2 * np.outer(excitons[k], excitons[k].conj())
        channels.append(DissipationChannel(site_weight, cfg.vib.dephasing_rate(t_loss), "loss", 0.0))
    for k in range(N_SITES):
        lower = np.outer(excitons[k], antenna.conj())
        rate = cfg.gamma_ant_fmo * bright[k]
        channels += pair_one_by_one("loss", t_loss, lower, cfg.omega_ant - energies[k], rate)
    if cfg.gamma_sink > 0:
        bohr = float(cfg.site_energies[SINK_SOURCE_SITE - 1])
        jump = np.outer(sink, site3.conj())
        channels.append(DissipationChannel(jump, cfg.gamma_sink, "sink", bohr, check_bohr=False))
    return channels


def ring_channels_one_by_one(ring):
    """A ring's channels, link by link in ring order: a detailed-balance
    pair per thermal link, one one-way channel for the sink."""
    dim = len(ring.energies)
    temperature = {"abs": ring.t_abs, "loss": ring.t_loss}
    channels = []
    for src, dst, bath, rate in ring.links:
        gap = ring.energies[dst] - ring.energies[src]
        jump = np.zeros((dim, dim), dtype=complex)
        if bath == "sink":
            jump[dst, src] = 1.0
            channels.append(DissipationChannel(jump, rate, "sink", abs(gap)))
        else:
            jump[(src, dst) if gap > 0 else (dst, src)] = 1.0
            channels += pair_one_by_one(bath, temperature[bath], jump, abs(gap), rate)
    return channels


def assert_same_generator(gen, ref):
    """The superoperator and every heat operator of gen and ref hold the
    same bytes."""
    lmat, lref = gen.superoperator, ref.superoperator
    for x in ("row", "col", "data"):
        assert getattr(lmat, x).tobytes() == getattr(lref, x).tobytes()
    for bath, q in ref.heat_operators.items():
        if q is None:
            assert gen.heat_operators[bath] is None
        else:
            assert q.tobytes() == gen.heat_operators[bath].tobytes()


@pytest.mark.parametrize("gamma_sink", [1.0, 0.0])
def test_fmo_tables_match_channels_built_one_by_one(gamma_sink):
    cfg = default_config(gamma_sink=gamma_sink)
    gen = build_model(cfg).generator
    channels = fmo_channels_one_by_one(cfg)
    assert gen.table.rate.size == len(channels) == 79 + (gamma_sink > 0)
    assert_same_generator(gen, LindbladGenerator(gen.hamiltonian, channels))


@pytest.mark.parametrize("model", ["toy_decay", "donor_acceptor", "photocell"])
def test_ring_tables_match_channels_built_one_by_one(model):
    section, params, _ = MODELS[model]
    defaults = config.default_section(section)
    ring = params(**{k: v for k, v in defaults.items() if k in params.__dataclass_fields__}).ring()
    gen = ring.generator()
    channels = ring_channels_one_by_one(ring)
    assert gen.table.rate.size == len(channels)
    assert_same_generator(gen, LindbladGenerator(gen.hamiltonian, channels))


def test_fmo_build_joins_a_few_stacked_tables(monkeypatch):
    # abs pairs, relaxation pairs, dephasing, transfer pairs and the sink:
    # one table per group, not one per channel
    joined, join = [], ChannelTable.joined.__func__

    def spy_join(cls, tables, dim):
        joined.append(tables)
        return join(cls, tables, dim)

    monkeypatch.setattr(core.ChannelTable, "joined", classmethod(spy_join))
    gen = build_model(default_config()).generator
    assert len(joined) == 1 and len(joined[0]) <= 6
    assert sum(t.rate.size for t in joined[0]) == gen.table.rate.size == 80
