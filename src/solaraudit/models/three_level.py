"""Three-level conversion engine with two work-extraction schemes.

Level layout: |0> and |1> split by omega_rc around zero, |2> at omega_abs.
A hot bath pumps |0> <-> |2> at omega_plus = omega_abs + omega_rc/2, a cold
bath handles |1> <-> |2> at omega_minus = omega_abs - omega_rc/2.

Scheme one ("decay") extracts work through an irreversible sink jump
|0><1| at rate gamma; it is a ring, solved by cycle.py. Scheme two
("hamiltonian transfer") replaces the sink with a coherent swap into a
bosonic work repository; in the weak-coupling regime the repository
occupation follows a birth-death ladder whose net growth rate carries
the power.

Both schemes' closed forms are here, on the standard library. The
transfer scheme's Lindblad generator on the dressed ladder is numpy, in
ladder.py; its names (LADDER) load from here on first use.
"""

from dataclasses import dataclass

from ..audit import ThermoReport, require_finite_fields
from ..lazy import lazy_names
from .cycle import Ring

LADDER = ("dressed_frequency", "transfer_block_hamiltonian", "hamiltonian_transfer_generator",
          "group_number_operator", "dressed_product_state", "excitation_growth_rate",
          "require_truncation_ok")
__getattr__ = lazy_names(__name__, {"solaraudit.models.ladder": LADDER})


@dataclass(frozen=True)
class ThreeLevelParams:
    omega_abs: float
    omega_rc: float
    gamma: float
    t_abs: float
    t_loss: float
    gamma_h: float = None
    gamma_c: float = None

    def __post_init__(self):
        require_finite_fields(self)
        if self.omega_abs <= 0:
            raise ValueError(f"omega_abs must be positive, got {self.omega_abs}")
        if not (0 < self.omega_rc < 2 * self.omega_abs):
            raise ValueError(
                f"omega_rc must lie in (0, 2*omega_abs), got {self.omega_rc} "
                f"with omega_abs = {self.omega_abs}"
            )
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.t_abs <= 0 or self.t_loss <= 0:
            raise ValueError("t_abs and t_loss must be positive")
        if self.gamma_h is None:
            object.__setattr__(self, "gamma_h", self.gamma)
        if self.gamma_c is None:
            object.__setattr__(self, "gamma_c", self.gamma)
        if self.gamma_h < 0 or self.gamma_c < 0:
            raise ValueError("gamma_h and gamma_c must be nonnegative")

    @property
    def omega_plus(self):
        return self.omega_abs + 0.5 * self.omega_rc

    @property
    def omega_minus(self):
        return self.omega_abs - 0.5 * self.omega_rc

    def require_weak_coupling(self):
        if self.omega_rc < 20.0 * self.gamma:
            raise ValueError(
                "hamiltonian transfer scheme needs weak coupling: "
                f"omega_rc >= 20*gamma, got omega_rc = {self.omega_rc}, "
                f"gamma = {self.gamma}"
            )

    def ring(self):
        """The decay scheme as a ring (cycle.py): hot pump 0 -> 2, cold
        relaxation 2 -> 1 and the sink jump 1 -> 0 at rate gamma."""
        return Ring(
            (-0.5 * self.omega_rc, 0.5 * self.omega_rc, self.omega_abs),
            ((0, 2, "abs", self.gamma_h), (2, 1, "loss", self.gamma_c), (1, 0, "sink", self.gamma)),
            self.t_abs,
            self.t_loss,
        )


# ---------------------------------------------------------------- decay scheme


def _decay_ring(p):
    # a zero bath rate cuts the ring: its populations are undefined
    for bath, name in (("cold", "gamma_c"), ("hot", "gamma_h")):
        if getattr(p, name) == 0.0:
            raise ValueError(f"{bath} bath rate {name} is zero; populations undefined")
    return p.ring()


def decay_steady_populations(p):
    """Steady populations [rho00, rho11, rho22] of the sink-jump scheme."""
    return _decay_ring(p).populations()


def decay_report(p):
    """Steady-state audit of the decay scheme; the sink carries the power,
    which is negative always."""
    return _decay_ring(p).report()


def decay_generator(p):
    """Lindblad generator of the decay scheme (dim 3)."""
    return p.ring().generator()


# --------------------------------------------------- hamiltonian transfer scheme


@dataclass(frozen=True)
class BirthDeathRates:
    """Ladder rates of the repository occupation and the conditional state.

    birth (s) and death (r) are the up/down rates of the occupation ladder;
    k1 is the prefactor in s - r = k1 (exp(-omega_plus/t_abs)
    - exp(-omega_minus/t_loss)). rho_plus, rho_minus, rho_two are the
    conditional three-level populations the ladder rates are built from.
    """

    birth: float
    death: float
    k1: float
    rho_plus: float
    rho_minus: float
    rho_two: float

    @property
    def net(self):
        return self.birth - self.death


def birth_death_rates(p):
    """Birth-death reduction of the weak-coupling transfer scheme.

    The dressed doublets |+,n>, |-,n> share the hot gap omega_plus and the
    cold gap omega_minus up to O(dressed splitting). Eliminating the fast
    three-level dynamics leaves ladder rates

        s = (1/2) gh n_h (rho_plus + rho_minus),  r = gh (1 + n_h) rho_two.
    """
    p.require_weak_coupling()
    if p.gamma_h <= 0 or p.gamma_c <= 0:
        raise ValueError("transfer scheme needs both bath rates positive")
    n_h, n_c = p.ring().occupations()
    gh, gc = p.gamma_h, p.gamma_c
    down_total = gh * (1.0 + n_h) + gc * (1.0 + n_c)
    q = (gh * n_h + gc * n_c) / down_total
    rho_pm = 1.0 / (2.0 + q)
    rho_two = q / (2.0 + q)
    s = gh * n_h * rho_pm
    r = gh * (1.0 + n_h) * rho_two
    k1 = gh * gc * (1.0 + n_h) * (1.0 + n_c) / ((2.0 + q) * down_total)
    return BirthDeathRates(s, r, k1, rho_pm, rho_pm, rho_two)


def hamiltonian_transfer_report(p):
    """Steady-state audit of the transfer scheme.

    All currents ride on the net ladder rate: j_abs = omega_plus (s - r),
    j_loss = -omega_minus (s - r), power = -omega_rc (s - r). Work is
    extracted exactly when the repository grows (s > r).
    """
    net = birth_death_rates(p).net
    j_abs, j_loss, power = p.omega_plus * net, -p.omega_minus * net, -p.omega_rc * net
    return ThermoReport.from_currents(j_abs, j_loss, power, p.t_abs, p.t_loss, sink_flow=0.0)


def _index(sigma, n, n_max):
    # level sigma with n repository quanta on the product basis of ladder.py
    return sigma * (n_max + 1) + n
