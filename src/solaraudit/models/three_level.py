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
    DensityMatrix,
    DissipationChannel,
    LindbladGenerator,
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

    def occupations(self):
        """(n_h, n_c): hot occupation at omega_plus, cold at omega_minus."""
        return self.ring().occupations()

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
    """Splitting of the n-th dressed doublet, Omega_n = 2 sqrt(gamma (n+1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return 2.0 * math.sqrt(gamma * (n + 1.0))


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
    n_h, n_c = p.occupations()
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


def transfer_block_hamiltonian(p, n_max, n_offset=0.0):
    """System-plus-repository Hamiltonian on the 3 x (n_max+1) product basis.

    H = omega_abs |2><2| + (omega_rc/2)(|1><1| - |0><0|)
        + sqrt(gamma) (c |1><0| + c^dag |0><1|) + omega_rc (c^dag c - n_offset)
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base = p.omega_rc * (np.arange(n_max + 1) - n_offset)
    h = np.diag(
        np.concatenate([-0.5 * p.omega_rc + base, 0.5 * p.omega_rc + base, p.omega_abs + base])
    ).astype(complex)
    # c |1><0| : |0, n> -> sqrt(n) |1, n-1>
    n = np.arange(1, n_max + 1)
    amp = math.sqrt(p.gamma) * np.sqrt(n)
    h[_index(1, n - 1, n_max), _index(0, n, n_max)] = amp
    h[_index(0, n, n_max), _index(1, n - 1, n_max)] = amp
    return h


def hamiltonian_transfer_generator(p, n_max):
    """Secular generator of the transfer scheme in the dressed basis.

    Hot channels connect |2,n+1> with |+,n> and |-,n>, cold channels connect
    |2,n> with them; each of the four carries half the bare rate.
    Occupations are evaluated at the nominal gaps omega_plus / omega_minus
    (the regime behind the birth-death closed forms), not at the exact
    dressed gaps, which differ by half the doublet splitting. Each jump
    |+-,n><2,n'| is built as a CSR holding its two entries.
    """
    import scipy.sparse as sp

    p.require_weak_coupling()
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    top_split = 0.5 * dressed_frequency(n_max - 1, p.gamma)
    if p.omega_minus <= top_split:
        raise ValueError(
            "cold gap omega_minus must exceed half the largest dressed "
            f"splitting ({top_split:.3e}); lower n_max or the coupling"
        )
    h = transfer_block_hamiltonian(p, n_max)
    dim = h.shape[0]
    n_h, n_c = p.occupations()
    inv = 1.0 / math.sqrt(2.0)
    idx = sp.get_index_dtype(maxval=dim)

    def jump(rows, cols, vals):
        # rows ascending; row i holds the entries rows == i
        indptr = np.searchsorted(rows, np.arange(dim + 1)).astype(idx)
        return sp.csr_array((vals, np.array(cols, dtype=idx), indptr), shape=(dim, dim))

    channels = []
    for n in range(n_max):
        # |+-,n> = (|0,n+1> +- |1,n>)/sqrt(2); index of |0,n+1> < index of |1,n>
        doublet = np.array([_index(0, n + 1, n_max), _index(1, n, n_max)])
        split = 0.5 * dressed_frequency(n, p.gamma)
        for sign in (+1, -1):
            dressed = (inv, sign * inv)
            for two, rate, n_bath, bath, gap in (
                (_index(2, n + 1, n_max), p.gamma_h, n_h, "abs", p.omega_plus - sign * split),
                (_index(2, n, n_max), p.gamma_c, n_c, "loss", p.omega_minus - sign * split),
            ):
                down = jump(doublet, [two, two], dressed)
                up = jump([two, two], doublet, dressed)
                channels.append(DissipationChannel(down, 0.5 * rate * (1 + n_bath), bath, gap))
                channels.append(DissipationChannel(up, 0.5 * rate * n_bath, bath, gap))
    return LindbladGenerator(h, channels)


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
    # doublet n on (|1,n>, |0,n+1>): rho_plus |+,n><+,n| + rho_minus |-,n><-,n|
    rho[one, one] = rho[zero, zero] = 0.5 * weights * (bd.rho_plus + bd.rho_minus)
    rho[one, zero] = rho[zero, one] = 0.5 * weights * (bd.rho_plus - bd.rho_minus)
    rho[_index(2, n, n_max), _index(2, n, n_max)] = weights * bd.rho_two
    return DensityMatrix(rho)


def excitation_growth_rate(gen, rho, n_max):
    """d<N>/dt of the group-number operator under the generator: N is
    diagonal, so only the diagonal of L rho enters."""
    return float(_group_numbers(n_max) @ np.diagonal(liouvillian_apply(gen, rho)).real)


def require_truncation_ok(states, n_max):
    """Raise if any state holds real weight on the truncation edge."""
    for st in states:
        entries = st.entries if isinstance(st, DensityMatrix) else np.asarray(st)
        weight = sum(
            entries[_index(sigma, n_max, n_max), _index(sigma, n_max, n_max)].real
            for sigma in range(3)
        )
        if weight > TRUNCATION_POPULATION_TOL:
            raise TruncationOverflowError(weight, n_max)
