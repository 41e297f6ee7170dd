"""Five-level photocell engine with a two-step exciton cascade.

Levels in order (b, x1, x2, alpha, beta): ground |b>, bright exciton |x1>
pumped by the hot bath, relaxed exciton |x2>, charge-separated |alpha>
and the recycled state |beta>. The cold bath drives both cascade steps
x1 -> x2 -> alpha and the beta -> b recycle; the load is a one-way jump
|beta><alpha| at rate gamma_load.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..core import LindbladGenerator, require_finite_fields
from ..errors import NumericsError
from ..thermo import BathSpec, ThermoReport


@dataclass(frozen=True)
class PhotocellParams:
    omega_b: float
    omega_x1: float
    omega_x2: float
    omega_alpha: float
    omega_beta: float
    gamma_h: float
    gamma_x: float
    gamma_c: float
    gamma_cb: float
    gamma_load: float
    t_abs: float
    t_loss: float

    def __post_init__(self):
        require_finite_fields(self)
        if self.omega_x1 <= self.omega_b:
            raise ValueError("absorption gap omega_x1 - omega_b must be positive")
        if self.omega_x1 <= self.omega_x2:
            raise ValueError("cascade gap omega_x1 - omega_x2 must be positive")
        if self.omega_x2 <= self.omega_alpha:
            raise ValueError("separation gap omega_x2 - omega_alpha must be positive")
        if self.omega_beta <= self.omega_b:
            raise ValueError("recycle gap omega_beta - omega_b must be positive")
        for name in ("gamma_h", "gamma_x", "gamma_c", "gamma_cb"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gamma_load < 0:
            raise ValueError("gamma_load must be nonnegative")
        if self.t_abs <= 0 or self.t_loss <= 0:
            raise ValueError("t_abs and t_loss must be positive")

    @property
    def hot_gap(self):
        return self.omega_x1 - self.omega_b

    @property
    def cascade_gap(self):
        return self.omega_x1 - self.omega_x2

    @property
    def separation_gap(self):
        return self.omega_x2 - self.omega_alpha

    @property
    def recycle_gap(self):
        return self.omega_beta - self.omega_b

    @property
    def load_gap(self):
        return self.omega_alpha - self.omega_beta

    def occupations(self):
        hot = BathSpec("abs", self.t_abs, self.gamma_h)
        cold = BathSpec("loss", self.t_loss, self.gamma_c)
        return (
            hot.occupation(self.hot_gap),
            cold.occupation(self.cascade_gap),
            cold.occupation(self.separation_gap),
            cold.occupation(self.recycle_gap),
        )


def photocell_steady_state(p):
    """Steady populations [rho_b, rho_x1, rho_x2, rho_alpha, rho_beta].

    Chained two-state balances against rho_alpha, each link carrying the
    same net flux gamma_load * rho_alpha:

        rho_x2/rho_alpha = (gc n_2c + G) / (gc (1 + n_2c))
        rho_x1/rho_x2    = (gx n_x (gc n_2c + G) + G gc (1 + n_2c))
                           / (gx (1 + n_x)(gc n_2c + G))
    """
    n_h, n_x, n_2c, big_n = p.occupations()
    gh, gx, gc, gcb, g = p.gamma_h, p.gamma_x, p.gamma_c, p.gamma_cb, p.gamma_load
    if n_h == 0.0:
        raise NumericsError("hot occupation vanished; cycle ratios undefined")
    try:
        r_x2 = (gc * n_2c + g) / (gc * (1.0 + n_2c))
        r_x1 = r_x2 * (gx * n_x * (gc * n_2c + g) + g * gc * (1.0 + n_2c)) / (
            gx * (1.0 + n_x) * (gc * n_2c + g)
        )
        r_b = (gh * (1.0 + n_h) * r_x1 + g) / (gh * n_h)
        r_beta = r_b * big_n / (1.0 + big_n) + g / (gcb * (1.0 + big_n))
        norm = r_b + r_x1 + r_x2 + 1.0 + r_beta
    except ZeroDivisionError:  # a rate product underflowed to zero
        norm = math.inf
    if not math.isfinite(norm):
        raise NumericsError("cycle ratios overflow; the rates span too many decades")
    rho_alpha = 1.0 / norm
    return np.array([r_b, r_x1, r_x2, 1.0, r_beta]) * rho_alpha


def photocell_currents(p):
    """Closed-form steady currents (j_abs, j_loss, power)."""
    pops = photocell_steady_state(p)
    flux = p.gamma_load * pops[3]
    j_abs = p.hot_gap * flux
    j_loss = -(p.cascade_gap + p.separation_gap + p.recycle_gap) * flux
    power = -p.load_gap * flux
    return j_abs, j_loss, power


def photocell_report(p):
    j_abs, j_loss, power = photocell_currents(p)
    return ThermoReport.from_currents(j_abs, j_loss, power, p.t_abs, p.t_loss, sink_flow=power)


def photocell_generator(p):
    """Lindblad generator on the 5-level basis (b, x1, x2, alpha, beta)."""
    h = np.diag(
        [p.omega_b, p.omega_x1, p.omega_x2, p.omega_alpha, p.omega_beta]
    ).astype(complex)

    def lowering(i, j):
        m = np.zeros((5, 5), dtype=complex)
        m[i, j] = 1.0
        return m

    hot = BathSpec("abs", p.t_abs, p.gamma_h)
    cascade = BathSpec("loss", p.t_loss, p.gamma_x)
    separation = BathSpec("loss", p.t_loss, p.gamma_c)
    recycle = BathSpec("loss", p.t_loss, p.gamma_cb)
    load = BathSpec("sink", None, p.gamma_load)
    channels = []
    channels += hot.thermal_pair(lowering(0, 1), p.hot_gap)
    channels += cascade.thermal_pair(lowering(2, 1), p.cascade_gap)
    channels += separation.thermal_pair(lowering(3, 2), p.separation_gap)
    channels += recycle.thermal_pair(lowering(0, 4), p.recycle_gap)
    channels.append(load.one_way(lowering(4, 3), p.load_gap))
    return LindbladGenerator(h, channels)
