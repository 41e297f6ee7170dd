"""Five-level photocell engine with a two-step exciton cascade.

Levels in order (b, x1, x2, alpha, beta): ground |b>, bright exciton |x1>
pumped by the hot bath, relaxed exciton |x2>, charge-separated |alpha>
and the recycled state |beta>. The cold bath drives both cascade steps
x1 -> x2 -> alpha and the beta -> b recycle; the load is a one-way jump
|beta><alpha| at rate gamma_load. The cycle is a ring solved by cycle.py.
"""

from dataclasses import dataclass

from ..core import require_finite_fields
from .cycle import Ring


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

    def ring(self):
        """b -> x1 (hot pump), x1 -> x2 (cold cascade at gamma_x),
        x2 -> alpha (cold separation at gamma_c), alpha -> beta (load),
        beta -> b (cold recycle at gamma_cb)."""
        return Ring(
            (self.omega_b, self.omega_x1, self.omega_x2, self.omega_alpha, self.omega_beta),
            (
                (0, 1, "abs", self.gamma_h),
                (1, 2, "loss", self.gamma_x),
                (2, 3, "loss", self.gamma_c),
                (3, 4, "sink", self.gamma_load),
                (4, 0, "loss", self.gamma_cb),
            ),
            self.t_abs,
            self.t_loss,
        )

    def occupations(self):
        """(n_h, n_x, n_2c, N_c): hot pump, cascade, separation, recycle."""
        return self.ring().occupations()


def photocell_steady_state(p):
    """Steady populations [rho_b, rho_x1, rho_x2, rho_alpha, rho_beta]."""
    return p.ring().populations()


def photocell_report(p):
    return p.ring().report()


def photocell_generator(p):
    """Lindblad generator on the 5-level basis (b, x1, x2, alpha, beta)."""
    return p.ring().generator()
