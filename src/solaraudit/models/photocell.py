"""Five-level photocell engine with a two-step exciton cascade.

Levels in order (b, x1, x2, alpha, beta): ground |b>, bright exciton |x1>
pumped by the hot bath, relaxed exciton |x2>, charge-separated |alpha>
and the recycled state |beta>. The cold bath drives both cascade steps
x1 -> x2 -> alpha and the beta -> b recycle; the load is a one-way jump
|beta><alpha| at rate gamma_load. The cycle is a ring solved by cycle.py.
"""

from dataclasses import dataclass

from ..audit import require_finite_fields
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

    # the ring for cycle.Ring.of, unannotated so that it adds no field
    LEVELS = ("omega_b", "omega_x1", "omega_x2", "omega_alpha", "omega_beta")
    LINKS = (
        ("absorption", 0, 1, "abs", "gamma_h"),
        ("cascade", 1, 2, "loss", "gamma_x"),
        ("separation", 2, 3, "loss", "gamma_c"),
        ("load", 3, 4, "sink", "gamma_load"),
        ("recycle", 4, 0, "loss", "gamma_cb"),
    )

    def __post_init__(self):
        require_finite_fields(self)
        object.__setattr__(self, "_ring", Ring.of(self, self.LEVELS, self.LINKS))

    def ring(self):
        """The ring built and checked at construction."""
        return self._ring


def photocell_steady_state(p):
    """Steady populations [rho_b, rho_x1, rho_x2, rho_alpha, rho_beta]."""
    return p.ring().populations()


def photocell_report(p):
    return p.ring().report()


def photocell_generator(p):
    """Lindblad generator on the 5-level basis (b, x1, x2, alpha, beta)."""
    return p.ring().generator()
