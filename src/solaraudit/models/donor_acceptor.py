"""Four-level donor-acceptor engine with an irreversible load.

Levels in order (b, a, alpha, beta): ground |b>, donor excited state |a>
pumped by the hot bath, acceptor state |alpha> reached by cold-assisted
charge separation, and |beta> just above ground. The load is a one-way
jump |beta><alpha| at rate gamma_load; a second cold channel recycles
|beta> back to |b>. Every steady-state current rides on the single cycle
flux gamma_load * rho_alpha.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..core import LindbladGenerator, require_finite_fields
from ..errors import NumericsError
from ..thermo import BathSpec, ThermoReport


@dataclass(frozen=True)
class DonorAcceptorParams:
    omega_b: float
    omega_a: float
    omega_alpha: float
    omega_beta: float
    gamma_h: float
    gamma_c: float
    gamma_cb: float
    gamma_load: float
    t_abs: float
    t_loss: float

    def __post_init__(self):
        require_finite_fields(self)
        if self.omega_a <= self.omega_b:
            raise ValueError("absorption gap omega_a - omega_b must be positive")
        if self.omega_a <= self.omega_alpha:
            raise ValueError("relaxation gap omega_a - omega_alpha must be positive")
        if self.omega_beta <= self.omega_b:
            raise ValueError("recycle gap omega_beta - omega_b must be positive")
        for name in ("gamma_h", "gamma_c", "gamma_cb"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gamma_load < 0:
            raise ValueError("gamma_load must be nonnegative")
        if self.t_abs <= 0 or self.t_loss <= 0:
            raise ValueError("t_abs and t_loss must be positive")

    @property
    def hot_gap(self):
        return self.omega_a - self.omega_b

    @property
    def cold_gap_donor(self):
        return self.omega_a - self.omega_alpha

    @property
    def cold_gap_recycle(self):
        return self.omega_beta - self.omega_b

    @property
    def load_gap(self):
        return self.omega_alpha - self.omega_beta

    def occupations(self):
        hot = BathSpec("abs", self.t_abs, self.gamma_h)
        cold = BathSpec("loss", self.t_loss, self.gamma_c)
        return (
            hot.occupation(self.hot_gap),
            cold.occupation(self.cold_gap_donor),
            cold.occupation(self.cold_gap_recycle),
        )


def donor_acceptor_steady_state(p):
    """Steady populations [rho_b, rho_a, rho_alpha, rho_beta].

    Solving the cycle rate equations against rho_alpha:

        rho_a / rho_alpha = (gc n_c + G) / (gc (1 + n_c))
        rho_b / rho_alpha = (G gc (1+n_c) + gh (1+n_h)(gc n_c + G))
                            / (gh n_h gc (1+n_c))
        rho_beta = rho_b N_c/(1+N_c) + G rho_alpha / (G_cb (1+N_c))

    with G = gamma_load and N_c the recycle-channel occupation.
    """
    n_h, n_c, big_n = p.occupations()
    gh, gc, gcb, g = p.gamma_h, p.gamma_c, p.gamma_cb, p.gamma_load
    if n_h == 0.0:
        raise NumericsError("hot occupation vanished; cycle ratios undefined")
    try:
        r_a = (gc * n_c + g) / (gc * (1.0 + n_c))
        r_b = (g * gc * (1.0 + n_c) + gh * (1.0 + n_h) * (gc * n_c + g)) / (
            gh * n_h * gc * (1.0 + n_c)
        )
        r_beta = r_b * big_n / (1.0 + big_n) + g / (gcb * (1.0 + big_n))
        norm = 1.0 + r_a + r_b + r_beta
    except ZeroDivisionError:  # a rate product underflowed to zero
        norm = math.inf
    if not math.isfinite(norm):
        raise NumericsError("cycle ratios overflow; the rates span too many decades")
    rho_alpha = 1.0 / norm
    return np.array([r_b, r_a, 1.0, r_beta]) * rho_alpha


def donor_acceptor_currents(p):
    """Closed-form steady currents (j_abs, j_loss, power).

    Cycle flux Phi = gamma_load * rho_alpha; the hot bath feeds the b->a
    gap once per cycle, the cold bath collects the two relaxation gaps,
    and the load takes the remainder omega_alpha - omega_beta.
    """
    pops = donor_acceptor_steady_state(p)
    flux = p.gamma_load * pops[2]
    j_abs = p.hot_gap * flux
    j_loss = -(p.cold_gap_donor + p.cold_gap_recycle) * flux
    power = -p.load_gap * flux
    return j_abs, j_loss, power


def donor_acceptor_report(p):
    j_abs, j_loss, power = donor_acceptor_currents(p)
    return ThermoReport.from_currents(j_abs, j_loss, power, p.t_abs, p.t_loss, sink_flow=power)


def donor_acceptor_generator(p):
    """Lindblad generator on the 4-level basis (b, a, alpha, beta)."""
    h = np.diag([p.omega_b, p.omega_a, p.omega_alpha, p.omega_beta]).astype(complex)

    def lowering(i, j):
        m = np.zeros((4, 4), dtype=complex)
        m[i, j] = 1.0
        return m

    hot = BathSpec("abs", p.t_abs, p.gamma_h)
    cold = BathSpec("loss", p.t_loss, p.gamma_c)
    recycle = BathSpec("loss", p.t_loss, p.gamma_cb)
    load = BathSpec("sink", None, p.gamma_load)
    channels = []
    channels += hot.thermal_pair(lowering(0, 1), p.hot_gap)
    channels += cold.thermal_pair(lowering(2, 1), p.cold_gap_donor)
    channels += recycle.thermal_pair(lowering(0, 3), p.cold_gap_recycle)
    channels.append(load.one_way(lowering(3, 2), p.load_gap))
    return LindbladGenerator(h, channels)
