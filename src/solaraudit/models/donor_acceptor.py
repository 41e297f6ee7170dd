"""Four-level donor-acceptor engine with an irreversible load.

Levels in order (b, a, alpha, beta): ground |b>, donor excited state |a>
pumped by the hot bath, acceptor state |alpha> reached by cold-assisted
charge separation, and |beta> just above ground. The load is a one-way
jump |beta><alpha| at rate gamma_load; a second cold channel recycles
|beta> back to |b>. The cycle is a ring solved by cycle.py: every
steady-state current rides on the single cycle flux gamma_load * rho_alpha.
"""

from dataclasses import dataclass

from ..core import require_finite_fields
from .cycle import Ring


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

    def ring(self):
        """b -> a (hot pump), a -> alpha (cold), alpha -> beta (load),
        beta -> b (cold recycle at gamma_cb)."""
        return Ring(
            (self.omega_b, self.omega_a, self.omega_alpha, self.omega_beta),
            (
                (0, 1, "abs", self.gamma_h),
                (1, 2, "loss", self.gamma_c),
                (2, 3, "sink", self.gamma_load),
                (3, 0, "loss", self.gamma_cb),
            ),
            self.t_abs,
            self.t_loss,
        )


def donor_acceptor_steady_state(p):
    """Steady populations [rho_b, rho_a, rho_alpha, rho_beta]."""
    return p.ring().populations()


def donor_acceptor_report(p):
    return p.ring().report()


def donor_acceptor_generator(p):
    """Lindblad generator on the 4-level basis (b, a, alpha, beta)."""
    return p.ring().generator()
