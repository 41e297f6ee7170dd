"""Four-level donor-acceptor engine with an irreversible load.

Levels in order (b, a, alpha, beta): ground |b>, donor excited state |a>
pumped by the hot bath, acceptor state |alpha> reached by cold-assisted
charge separation, and |beta> just above ground. The load is a one-way
jump |beta><alpha| at rate gamma_load; a second cold channel recycles
|beta> back to |b>. The cycle is a ring solved by cycle.py: every
steady-state current rides on the single cycle flux gamma_load * rho_alpha.
"""

from dataclasses import dataclass

from ..audit import require_finite_fields
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

    # the ring for cycle.Ring.of, unannotated so that it adds no field
    LEVELS = ("omega_b", "omega_a", "omega_alpha", "omega_beta")
    LINKS = (
        ("absorption", 0, 1, "abs", "gamma_h"),
        ("relaxation", 1, 2, "loss", "gamma_c"),
        ("load", 2, 3, "sink", "gamma_load"),
        ("recycle", 3, 0, "loss", "gamma_cb"),
    )

    def __post_init__(self):
        require_finite_fields(self)
        object.__setattr__(self, "_ring", Ring.of(self, self.LEVELS, self.LINKS))

    def ring(self):
        """The ring built and checked at construction."""
        return self._ring


def donor_acceptor_steady_state(p):
    """Steady populations [rho_b, rho_a, rho_alpha, rho_beta]."""
    return p.ring().populations()


def donor_acceptor_report(p):
    return p.ring().report()


def donor_acceptor_generator(p):
    """Lindblad generator on the 4-level basis (b, a, alpha, beta)."""
    return p.ring().generator()
