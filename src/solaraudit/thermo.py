"""Heat currents and entropy rates of Lindblad states, with numpy.

Sink channels are excluded from the entropy bookkeeping on purpose; their
energy flow is recorded separately so the first law can still be closed.
bose_occupation, second_law_verdict, ThermoReport and
FIRST_LAW_RELATIVE_TOL live in audit.py, which needs no numpy, and are
re-exported here.
"""

import numpy as np

from .audit import FIRST_LAW_RELATIVE_TOL, ThermoReport, bose_occupation, second_law_verdict
from .core import _as_matrix, _checked_rates, _vec, DissipationChannel, require_bath_id
from .errors import NumericsError

ENTROPY_EIGENVALUE_FLOOR = 1e-14


def thermal_pairs(bath_id, temperature, lower, omega, gamma0):
    """Detailed-balance pairs as one ChannelTable. Pair k takes the jump
    lower[k] of a dense (count, n, n) stack down the gap omega[k]: channel 2k
    is lower[k] at rate gamma0[k] (1 + n_k), channel 2k + 1 its adjoint at
    gamma0[k] n_k, n_k the bath's occupation at that gap. bath_id and
    temperature are one value or one per pair. Pair by pair, the occupation
    (none for a sink; a thermal bath needs temperature > 0) is checked after
    the rates of every earlier pair. Rates are plain floats, where a numpy
    scalar would warn; DissipationChannel rejects one that is not finite."""
    lower = np.asarray(lower, dtype=complex)
    bath_id, temperature = (x if np.ndim(x) else [x] * len(lower) for x in (bath_id, temperature))
    omega, gamma0 = (np.asarray(x, dtype=float).tolist() for x in (omega, gamma0))
    rate = []
    for k, (b, t, w, g) in enumerate(zip(bath_id, temperature, omega, gamma0)):
        try:
            if b == "sink":
                raise ValueError("sink baths have no thermal occupation")
            if t is None or t <= 0:
                raise ValueError(f"thermal bath {b!r} needs temperature > 0, got {t}")
            n = bose_occupation(w, t)
        except (ValueError, NumericsError):
            _checked_rates(rate, np.repeat(bath_id[:k], 2), np.repeat(omega[:k], 2))
            raise
        rate += [g * (1.0 + n), g * n]
    pairs = np.concatenate([lower, lower.conj().swapaxes(1, 2)], 1).reshape(-1, *lower.shape[1:])
    return DissipationChannel(pairs, rate, *(np.asarray(x).repeat(2) for x in (bath_id, omega)))


def heat_current(gen, bath_id, rho):
    """Energy flow into the system from one bath: J_b = Tr[D_b(rho) H].

    Evaluated as Tr[rho Q_b] = vec(rho) . vec(Q_b^T) with the heat operator
    Q_b = D_b^dag(H) (Alicki, J. Phys. A 12, L103, 1979). Positive values mean
    the bath feeds energy in; 0.0 if no channel carries the tag. A residue
    Im J_b beyond 1e-12 |rho| |Q_b| (a non-Hermitian rho) raises NumericsError.
    A stack of states (..., dim, dim) gives an array of currents.
    """
    require_bath_id(bath_id)
    r = _vec(gen, rho)
    q = gen.heat_operators[bath_id]
    if q is None:
        return _scalar_or_array(np.zeros(r.shape[:-1]))
    val = r @ q.T.reshape(-1)
    with np.errstate(over="ignore"):  # an inf scale accepts any residue
        scale = np.maximum(1.0, np.linalg.norm(r, axis=-1) * np.linalg.norm(q))
    bad = np.abs(val.imag) > 1e-12 * scale
    if bad.any():
        raise NumericsError(
            f"heat current has imaginary residue {val.imag[bad].flat[0]:.3e} beyond tolerance"
        )
    return _scalar_or_array(val.real)


def _scalar_or_array(x):
    # one state gives a float, a stack an array
    return float(x) if np.ndim(x) == 0 else x


def entropy_rate(rho, rho_dot):
    """d/dt of the von Neumann entropy: -Tr[rho_dot ln rho].

    Evaluated in the eigenbasis of rho with eigenvalue floor 1e-14;
    directions where both the eigenvalue and the matching diagonal element
    of rho_dot vanish contribute zero (the 0 log 0 limit). Stacks of states
    and rates (..., dim, dim) give an array, each state checked on its own.
    """
    r = _as_matrix(rho)
    rd = np.asarray(rho_dot, dtype=complex)
    defect = np.abs(rd - np.swapaxes(rd.conj(), -1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(defect > np.maximum(1e-10, 1e-12 * np.abs(rd).max(axis=(-2, -1))))
    if bad.size:
        raise NumericsError(
            f"rho_dot is not Hermitian: max|rd - rd^dag| = {np.ravel(defect)[bad[0]]:.3e}"
        )
    w, u = np.linalg.eigh(r)
    diag = (u.conj() * (rd @ u)).sum(axis=-2).real  # diagonal of u^dag rd u
    floored = np.maximum(w, ENTROPY_EIGENVALUE_FLOOR)
    terms = -diag * np.log(floored)
    dead = (w < ENTROPY_EIGENVALUE_FLOOR) & (
        np.abs(diag) < 1e-13 * np.maximum(1.0, np.abs(diag).max(axis=-1, keepdims=True))
    )
    terms[dead] = 0.0
    return _scalar_or_array(terms.sum(axis=-1))


def entropy_production(rho, rho_dot, currents, temperatures):
    """sigma = dS/dt - J_abs/T_abs - J_loss/T_loss.

    Only the two thermal baths enter. Sink flow is deliberately absent; that
    omission is the bookkeeping under audit. Takes stacks as entropy_rate
    does, with a current array per bath; an overflowed term gives an
    infinite sigma, without a warning.
    """
    j_abs, j_loss = currents
    t_abs, t_loss = temperatures
    if t_abs <= 0 or t_loss <= 0:
        raise ValueError("bath temperatures must be positive")
    rate = entropy_rate(rho, rho_dot)
    with np.errstate(over="ignore", invalid="ignore"):
        return rate - j_abs / t_abs - j_loss / t_loss
