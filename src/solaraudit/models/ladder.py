"""The dressed transfer ladder, with numpy: the transfer scheme of
three_level.py as a Lindblad generator on the three levels times a work
repository truncated at n_max quanta, in the product basis |sigma, n>
(three_level._index). Here are its block Hamiltonian, its secular
generator in the dressed basis, a dressed product state, the repository's
group-number operator and growth rate, and the truncation-edge check.
"""

import math

import numpy as np

from ..core import ChannelTable, DensityMatrix, LindbladGenerator, Triplets, liouvillian_apply
from ..errors import TruncationOverflowError
from .three_level import _index, birth_death_rates

TRUNCATION_POPULATION_TOL = 1e-6


def dressed_frequency(n, gamma):
    """Splitting Omega_n = 2 sqrt(gamma (n+1)) of the n-th dressed doublet, n one or an array."""
    if np.any(np.asarray(n) < 0):
        raise ValueError("n must be >= 0")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return 2.0 * np.sqrt(gamma * (n + 1.0))


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
