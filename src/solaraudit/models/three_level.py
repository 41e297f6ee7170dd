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
"""

import math
from dataclasses import dataclass

import numpy as np

from ..core import (
    ChannelTable,
    DensityMatrix,
    LindbladGenerator,
    Triplets,
    liouvillian_apply,
    require_finite_fields,
)
from ..errors import TruncationOverflowError
from ..thermo import ThermoReport
from .cycle import Ring

TRUNCATION_POPULATION_TOL = 1e-6


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


def dressed_frequency(n, gamma):
    """Splitting Omega_n = 2 sqrt(gamma (n+1)) of the n-th dressed doublet, n one or an array."""
    if np.any(np.asarray(n) < 0):
        raise ValueError("n must be >= 0")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return 2.0 * np.sqrt(gamma * (n + 1.0))


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
    return sigma * (n_max + 1) + n


def _two_band_hamiltonian(omega_rc, amps, offset):
    """H on basis |sigma, nu>, sigma in {0, 1}, nu in 0..amps.size.

    Diagonal: (sigma - offset) * omega_rc + omega_rc * nu, so the empty
    lower band sits at -offset * omega_rc exactly. Coupling links
    |1, nu> with |0, nu+1> at amplitude amps[nu].
    """
    nu = np.arange(amps.size + 1)
    base = omega_rc * nu
    h = np.diag(np.concatenate([-offset * omega_rc + base, (1 - offset) * omega_rc + base]))
    h[nu.size + nu[:-1], nu[1:]] = h[nu[1:], nu.size + nu[:-1]] = amps
    return h


def transfer_block_hamiltonian(p, n_max):
    """System-plus-repository Hamiltonian on the 3 x (n_max+1) product basis.

    H = omega_abs |2><2| + (omega_rc/2)(|1><1| - |0><0|)
        + sqrt(gamma) (c |1><0| + c^dag |0><1|) + omega_rc c^dag c,
    the two-band Hamiltonian at offset 1/2 beside the band of |2>.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(n_max + 1)
    h = np.zeros((3 * n.size, 3 * n.size), dtype=complex)
    amps = math.sqrt(p.gamma) * np.sqrt(n[1:])
    h[: 2 * n.size, : 2 * n.size] = _two_band_hamiltonian(p.omega_rc, amps, 0.5)
    h[_index(2, n, n_max), _index(2, n, n_max)] = p.omega_abs + p.omega_rc * n
    return h


def hamiltonian_transfer_generator(p, n_max):
    """Secular generator of the transfer scheme in the dressed basis.

    Hot channels connect |2,n+1> with |+,n> and |-,n>, cold channels connect
    |2,n> with them; each of the four carries half the bare rate.
    Occupations are evaluated at the nominal gaps omega_plus / omega_minus
    (the regime behind the birth-death closed forms), not at the exact
    dressed gaps, which differ by half the doublet splitting. The channels
    are built as one ChannelTable by index arithmetic, each jump
    |+-,n><2,n'| or its adjoint holding two entries.
    """
    p.require_weak_coupling()
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    top_split = 0.5 * dressed_frequency(n_max - 1, p.gamma)
    if p.omega_minus <= top_split:
        raise ValueError(
            "cold gap omega_minus must exceed half the largest dressed "
            f"splitting ({top_split:.3e}); lower n_max or the coupling"
        )
    n_h, n_c = p.ring().occupations()
    # channel c = ((n 2 + minus) 2 + cold) 2 + up: per doublet n, the sign of
    # |+-,n> = (|0,n+1> +- |1,n>)/sqrt(2), the hot or cold bath, and the jump
    # |+-,n><2,n'| or its adjoint, in the order of loops nested that way
    n, minus, cold, up = np.unravel_index(np.arange(8 * n_max), (n_max, 2, 2, 2))
    sign, up = 1 - 2 * minus, up[:, None]
    doublet = np.stack([_index(0, n + 1, n_max), _index(1, n, n_max)], axis=1)
    two = _index(2, n + 1 - cold, n_max)[:, None]
    rates = [[0.5 * g * (1 + nb), 0.5 * g * nb] for g, nb in ((p.gamma_h, n_h), (p.gamma_c, n_c))]
    split = 0.5 * dressed_frequency(n, p.gamma)
    dim = 3 * (n_max + 1)
    table = ChannelTable(
        Triplets(
            (np.where(up, two, doublet) + dim * np.arange(n.size)[:, None]).ravel(),
            np.where(up, doublet, two).ravel(),
            (np.stack([np.ones(n.size), sign], axis=1) / math.sqrt(2.0)).ravel(),
            (n.size * dim, dim),
        ),
        np.array(rates)[cold, up[:, 0]],
        np.array(["abs", "loss"])[cold],
        np.array([p.omega_plus, p.omega_minus])[cold] - sign * split,
        np.ones(n.size, dtype=bool),
    )
    return LindbladGenerator(transfer_block_hamiltonian(p, n_max), table)


def _group_numbers(n_max):
    # |1,n> and |2,n> count n quanta, |0,n> counts n-1 (|0,0> counts 0)
    n = np.arange(n_max + 1.0)
    return np.concatenate([np.maximum(n - 1.0, 0.0), n, n])


def group_number_operator(n_max):
    """Repository quanta counted per dressed group.

    Group n holds |2,n>, |+,n> and |-,n>; since the dressed projectors of a
    doublet sum to |1,n><1,n| + |0,n+1><0,n+1| the operator is diagonal in
    the product basis.
    """
    return np.diag(_group_numbers(n_max)).astype(complex)


def dressed_product_state(p, n_max, tail=0.3):
    """Conditional steady state of the three levels times a geometric ladder.

    Populates groups 1..n_max-1 with geometric weights ~ tail^n and the
    conditional populations from the birth-death reduction. Group 0 is
    skipped on purpose: its |2> member is missing the downward channel to
    the (absent) doublet below, so any weight there shifts the occupation
    growth rate away from s - r. Away from both ladder edges the rate is
    exact for any group weights.
    """
    if not (0.0 <= tail < 1.0):
        raise ValueError("tail must lie in [0, 1)")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    bd = birth_death_rates(p)
    weights = tail ** np.arange(n_max - 1.0)
    weights /= weights.sum()
    n = np.arange(1, n_max)
    one, zero = _index(1, n, n_max), _index(0, n + 1, n_max)
    dim = 3 * (n_max + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    # doublet n on (|1,n>, |0,n+1>): rho_plus |+,n><+,n| + rho_minus |-,n><-,n|,
    # which is diagonal on that pair too, as rho_plus = rho_minus
    rho[one, one] = rho[zero, zero] = 0.5 * weights * (bd.rho_plus + bd.rho_minus)
    rho[_index(2, n, n_max), _index(2, n, n_max)] = weights * bd.rho_two
    return DensityMatrix(rho)


def excitation_growth_rate(gen, rho, n_max):
    """d<N>/dt of the group-number operator under the generator: N is
    diagonal, so only the diagonal of L rho enters."""
    return float(_group_numbers(n_max) @ np.diagonal(liouvillian_apply(gen, rho)).real)


def require_truncation_ok(states, n_max):
    """Raise if a DensityMatrix of states holds real weight on the truncation edge."""
    for st in states:
        weight = sum(st.population(_index(sigma, n_max, n_max)) for sigma in range(3))
        if weight > TRUNCATION_POPULATION_TOL:
            raise TruncationOverflowError(weight, n_max)
