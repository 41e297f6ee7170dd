"""Antenna + seven-site pigment complex + reaction-center trap.

A ten-level single-excitation model in cm^-1 units: a shared ground state,
one effective antenna level holding the collective dipole of n_pigments
absorbers, the seven-site exciton block of the FMO monomer, and (when the
trap rate is nonzero) a terminal sink level fed irreversibly from site 3.

Radiation at the diluted-sunlight effective temperature pumps the antenna
and, more weakly, the excitons directly ("abs" bath). Protein vibrations
thermalize the exciton manifold, dephase the sites and carry the
antenna-to-complex transfer ("loss" bath). The sink channel is athermal
by construction; that bookkeeping is exactly what the entropy audit probes.

Times at the interface are picoseconds; internally one time unit is the
inverse wavenumber, so rates in cm^-1 multiply PS_TO_INTERNAL per ps.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

# core compiles before numpy loads: compiled after it, core's ~950 lines
# add ~1.2 MB to the trace command's peak RSS
from .audit import FIRST_LAW_RELATIVE_TOL, bose_occupation, require_finite_fields
from .core import (
    DensityMatrix,
    DissipationChannel,
    LindbladGenerator,
    Triplets,
    liouvillian_apply,
    propagate,
)
from .errors import ConfigError, NumericsError, read_user_text
from .thermo import entropy_production, heat_current, thermal_pairs

import numpy as np

KB_CM_PER_K = 0.6950348
PS_TO_INTERNAL = 0.18836515673088532  # 2*pi*c*1e-12 with c in cm/s

N_SITES = 7
SINK_SOURCE_SITE = 3  # 1-based site number feeding the trap

SITE_DATA_RESOURCE = "data/fmo_site_hamiltonian.txt"


def kelvin_to_wavenumber(temperature_k):
    if temperature_k <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_k} K")
    return KB_CM_PER_K * temperature_k


def effective_sun_temperature(omega, t_sun_k, lambda_geo):
    """Temperature (K) of geometrically diluted blackbody radiation.

    Defined by exp(-omega/T_eff) = lam*n / (lam*n + 1) with n the thermal
    occupation at the source temperature, i.e. the temperature a bath
    would need for its occupation at omega to equal the diluted one.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not (0 < lambda_geo <= 1):
        raise ValueError(f"lambda_geo must lie in (0, 1], got {lambda_geo}")
    n = bose_occupation(omega, kelvin_to_wavenumber(t_sun_k))
    diluted = lambda_geo * n
    if diluted == 0.0:
        raise NumericsError(
            f"diluted occupation underflowed at omega = {omega}, "
            f"t_sun = {t_sun_k} K; effective temperature not representable"
        )
    # log((x+1)/x) written to survive x many orders below 1
    denom = math.log1p(diluted) - math.log(diluted)
    if denom == 0.0:
        raise NumericsError(
            f"diluted occupation {diluted:.3e} at omega = {omega}, t_sun = {t_sun_k} K "
            "is too large to resolve; effective temperature not representable"
        )
    return omega / denom / KB_CM_PER_K


def parse_site_data(text):
    """Parse the bundled plain-text site data format.

    '#' starts a comment. The first seven data lines hold one site energy
    each (cm^-1); the next seven hold the rows of the symmetric coupling
    matrix with zero diagonal. Both arrays come back read-only.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        data = raw.split("#", 1)[0].strip()
        if not data:
            continue
        try:
            rows.append(([float(tok) for tok in data.split()], lineno))
        except ValueError:
            raise ConfigError(f"site data line {lineno}: malformed number in {data!r}")
    if len(rows) != 2 * N_SITES:
        raise ConfigError(
            f"site data needs {N_SITES} energy lines plus {N_SITES} coupling "
            f"rows, got {len(rows)} data lines"
        )
    energies = []
    for values, lineno in rows[:N_SITES]:
        if len(values) != 1:
            raise ConfigError(f"site data line {lineno}: expected one energy value")
        energies.append(values[0])
    couplings = []
    for values, lineno in rows[N_SITES:]:
        if len(values) != N_SITES:
            raise ConfigError(
                f"site data line {lineno}: expected {N_SITES} coupling values"
            )
        couplings.append(values)
    energies = np.array(energies)
    couplings = np.array(couplings)
    if np.abs(np.diag(couplings)).max() > 0:
        raise ConfigError("coupling matrix must have a zero diagonal")
    if np.abs(couplings - couplings.T).max() > 1e-9:
        raise ConfigError("coupling matrix must be symmetric")
    energies.setflags(write=False)
    couplings.setflags(write=False)
    return energies, couplings


def load_site_data(path):
    return parse_site_data(read_user_text(path, "site data file"))


@lru_cache(maxsize=1)
def builtin_site_data():
    text = resources.files("solaraudit").joinpath(SITE_DATA_RESOURCE).read_text()
    return parse_site_data(text)


@dataclass(frozen=True)
class OhmicDrudeSpectrum:
    """Ohmic spectral density with a Drude cutoff, J(w) = 2 L w wc/(w^2+wc^2)."""

    reorganization: float
    cutoff: float

    def __post_init__(self):
        require_finite_fields(self)
        if self.reorganization < 0:
            raise ValueError("reorganization energy must be >= 0")
        if self.cutoff <= 0:
            raise ValueError("cutoff frequency must be positive")

    def density(self, omega):
        if omega <= 0:
            raise ValueError(f"spectral density needs omega > 0, got {omega}")
        # plain floats: a numpy scalar would warn where the terms overflow
        omega, wc = float(omega), float(self.cutoff)
        return 2.0 * self.reorganization * omega * wc / (omega * omega + wc * wc)

    def dephasing_rate(self, temperature):
        """Zero-frequency limit of J(w) n(w, T): the pure-dephasing rate."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        return 2.0 * self.reorganization * temperature / self.cutoff


@dataclass(frozen=True, eq=False)
class FmoConfig:
    """The trace model's parameters; its init fields are the [fmo] keys.
    site_energies and couplings come from data_file ('builtin': the shipped
    set), vib from the vib_ floats; gamma_ant_fmo None means gamma_sink / 10.
    t_max_ps and n_times set the CLI's time grid, not the model."""

    data_file: str
    omega_ant: float
    n_pigments: int
    mu_ant_ind: float
    mu_fmo: float
    lambda_geo: float
    t_sun: float
    t_loss_k: float
    gamma_rad: float
    gamma_sink: float
    vib_reorganization: float
    vib_cutoff: float
    t_max_ps: float
    n_times: int
    gamma_ant_fmo: float = None
    site_energies: np.ndarray = field(init=False)
    couplings: np.ndarray = field(init=False)
    vib: OhmicDrudeSpectrum = field(init=False)

    def __post_init__(self):
        if self.data_file == "builtin":
            energies, couplings = builtin_site_data()
        else:
            energies, couplings = load_site_data(self.data_file)
        object.__setattr__(self, "site_energies", energies)
        object.__setattr__(self, "couplings", couplings)
        if self.gamma_ant_fmo is None:
            object.__setattr__(self, "gamma_ant_fmo", self.gamma_sink / 10.0)
        vib = OhmicDrudeSpectrum(self.vib_reorganization, self.vib_cutoff)
        object.__setattr__(self, "vib", vib)
        require_finite_fields(self)
        if self.omega_ant <= 0:
            raise ValueError("omega_ant must be positive")
        if not isinstance(self.n_pigments, int) or self.n_pigments < 1:
            raise ValueError("n_pigments must be a positive integer")
        if self.mu_ant_ind <= 0 or self.mu_fmo <= 0:
            raise ValueError("transition dipoles must be positive")
        if not (0 < self.lambda_geo <= 1):
            raise ValueError("lambda_geo must lie in (0, 1]")
        if self.t_sun <= 0 or self.t_loss_k <= 0:
            raise ValueError("t_sun and t_loss_k must be positive (kelvin)")
        if self.gamma_rad <= 0:
            raise ValueError("gamma_rad must be positive")
        if self.gamma_sink < 0 or self.gamma_ant_fmo < 0:
            raise ValueError("gamma_sink and gamma_ant_fmo must be >= 0")


@dataclass(frozen=True, eq=False)
class FmoModel:
    """Assembled generator plus the scales the trace needs. The levels are
    in the order ground, antenna, sites 1-7, then the sink (sink_index, -1
    when there is none)."""

    generator: LindbladGenerator
    sink_index: int
    t_abs_k: float
    t_abs_cm: float
    t_loss_cm: float

    @property
    def dim(self):
        return self.generator.dim


def build_model(cfg):
    """Assemble the full generator from a config.

    The sink level exists only when gamma_sink > 0; a rate-zero trap would
    leave an isolated level and a spuriously degenerate stationary space.
    """
    with_sink = cfg.gamma_sink > 0
    dim = 2 + N_SITES + with_sink
    sink_index = dim - 1 if with_sink else -1

    site_block = np.diag(cfg.site_energies) + cfg.couplings
    h = np.zeros((dim, dim), dtype=complex)
    h[1, 1] = cfg.omega_ant
    h[2 : 2 + N_SITES, 2 : 2 + N_SITES] = site_block

    energies, w = np.linalg.eigh(site_block)
    bright = np.abs(w.sum(axis=0)) ** 2

    t_abs_k = effective_sun_temperature(cfg.omega_ant, cfg.t_sun, cfg.lambda_geo)
    t_abs = kelvin_to_wavenumber(t_abs_k)
    t_loss = kelvin_to_wavenumber(cfg.t_loss_k)

    # the levels as columns: ground, antenna, then the excitons
    levels = np.eye(dim, 2 + N_SITES, dtype=complex)
    levels[2 : 2 + N_SITES, 2:] = w
    excitons = np.arange(2, 2 + N_SITES)

    def jumps(lo, up):  # |lo><up| per pair of levels, as np.outer builds it
        return levels[:, lo].T[:, :, None] * levels[:, up].conj().T[:, None, :]

    # Radiation: collective antenna dipole plus direct exciton absorption.
    ratio = cfg.mu_ant_ind / cfg.mu_fmo
    rate_ant = cfg.gamma_rad * cfg.n_pigments * (ratio * ratio)
    lower = jumps([0] * (1 + N_SITES), range(1, 2 + N_SITES))  # to the antenna, then each exciton
    rate = [rate_ant, *(cfg.gamma_rad * b for b in bright.tolist())]
    channels = [thermal_pairs("abs", t_abs, lower, [cfg.omega_ant, *energies], rate)]

    # Vibrations at the protein-bath temperature: exciton relaxation, site
    # dephasing, antenna-to-complex transfer. A gap the spectral density or
    # the transfer rejects fails after the pairs before it, pair by pair.
    lo, up = np.triu_indices(N_SITES, 1)
    gap = energies[up] - energies[lo]
    down = np.append(gap > 0, False).argmin()  # the pairs before the first gap <= 0
    overlap = (w[:, lo[:down]] ** 2 * w[:, up[:down]] ** 2).T.sum(axis=1)
    rate = [cfg.vib.density(g) * x for g, x in zip(gap[:down], overlap.tolist())]
    lower = jumps(excitons[lo[:down]], excitons[up[:down]])
    channels.append(thermal_pairs("loss", t_loss, lower, gap[:down], rate))
    if down < gap.size:  # raises for that gap
        cfg.vib.density(gap[down])
    site_weight = sum(w[:, k, None, None] ** 2 * p for k, p in enumerate(jumps(excitons, excitons)))
    channels.append(DissipationChannel(site_weight, cfg.vib.dephasing_rate(t_loss), "loss", 0.0))
    gap = cfg.omega_ant - energies
    down = np.append(gap > 0, False).argmin()
    rate = [cfg.gamma_ant_fmo * b for b in bright[:down].tolist()]
    lower = jumps(excitons[:down], [1] * down)
    channels.append(thermal_pairs("loss", t_loss, lower, gap[:down], rate))
    if down < N_SITES:
        raise ConfigError(
            "omega_ant must lie above every exciton energy for downhill "
            f"antenna transfer; exciton at {energies[down]:.1f} cm^-1"
        )

    if with_sink:
        # Site 3 is not an eigenstate, so this jump has no sharp Bohr
        # frequency; the nominal site energy is recorded instead.
        jump = Triplets([sink_index], [1 + SINK_SOURCE_SITE], [1.0], (dim, dim))
        bohr = float(cfg.site_energies[SINK_SOURCE_SITE - 1])
        channels.append(DissipationChannel(jump, cfg.gamma_sink, "sink", bohr, check_bohr=False))

    return FmoModel(LindbladGenerator(h, channels), sink_index, t_abs_k, t_abs, t_loss)


@dataclass(frozen=True)
class FmoTrace:
    """Per-time-point audit of the trace run. Currents are cm^-1 per ps,
    entropy production is nats per ps, times are ps."""

    t_ps: np.ndarray
    j_abs: np.ndarray
    j_loss: np.ndarray
    sink_flow: np.ndarray
    sigma: np.ndarray
    sink_population: np.ndarray
    t_abs_k: float


def sigma_trace(cfg, t_grid_ps):
    """Propagate from the global ground state and audit every grid time,
    all states in one stacked product per quantity. Each row's books must
    close: a row whose d<H>/dt = Tr[H rho_dot] differs from j_abs + j_loss +
    sink_flow by more than FIRST_LAW_RELATIVE_TOL of |j_abs| (ThermoReport's
    scale), or a current or sigma that is not finite, raises NumericsError
    naming the first such row."""
    model = build_model(cfg)
    gen = model.generator
    t_ps = np.asarray(t_grid_ps, dtype=float)
    states = propagate(gen, DensityMatrix.ground(model.dim), t_ps * PS_TO_INTERNAL)
    rho = np.stack([state.entries for state in states])
    rho_dot = liouvillian_apply(gen, rho)
    j_abs, j_loss, sink_flow = (heat_current(gen, b, rho) for b in ("abs", "loss", "sink"))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row fails below
        energy_rate = (rho_dot.reshape(t_ps.size, -1) @ gen.hamiltonian.T.reshape(-1)).real
        gap = np.abs(energy_rate - (j_abs + j_loss + sink_flow))
    scale = np.maximum(np.abs(j_abs), 1e-30)
    for row in np.flatnonzero(gap > FIRST_LAW_RELATIVE_TOL * scale)[:1]:
        raise NumericsError(f"first law violated at t = {t_ps[row]} ps: Tr[H rho_dot] differs from "
                            f"j_abs + j_loss + sink_flow by {gap[row] / scale[row]:.3e} of |j_abs|")
    sigma = entropy_production(rho, rho_dot, (j_abs, j_loss), (model.t_abs_cm, model.t_loss_cm))
    names = ("j_abs", "j_loss", "sink_flow", "sigma")
    table = np.stack([j_abs, j_loss, sink_flow, sigma]) * PS_TO_INTERNAL
    bad = np.argwhere(~np.isfinite(table.T))  # (row, column), earliest row first
    if bad.size:
        row, col = bad[0]
        raise NumericsError(f"{names[col]} = {table[col, row]} is not finite at t = {t_ps[row]} ps")
    sink_pop = np.zeros(t_ps.size)
    if model.sink_index >= 0:
        sink_pop = rho[:, model.sink_index, model.sink_index].real.copy()
    return FmoTrace(t_ps, *table, sink_pop, model.t_abs_k)


def default_config(**overrides):
    """Shipped default configuration, optionally with field overrides."""
    from .config import default_section

    return FmoConfig(**{**default_section("fmo"), **overrides})
