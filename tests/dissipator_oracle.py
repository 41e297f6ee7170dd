"""The GKLS dissipator and its Heisenberg-picture heat operator written out
directly, channel by channel, as oracles for the generator and the heat
operators of solaraudit.core, the Gibbs state that a generator in
detailed balance with one temperature must hold still, the steady
state from the SVD of the complex superoperator, and the set of vec
coordinates that a superoperator maps a start into, searched on the whole
superoperator."""

import numpy as np

from solaraudit.core import (
    STEADY_STATE_RESIDUAL_TOL,
    DensityMatrix,
    _as_matrix,
    _floored,
    _full_support,
)
from solaraudit.errors import DegenerateSteadyStateError, NumericsError, SteadyStateConvergenceError


def dense_jumps(table):
    """Every channel's jump of a ChannelTable, dense, as a (count, n, n) array."""
    n = table.jump.shape[1]
    return table.jump.toarray().reshape(-1, n, n)


def _channels(table, bath):
    """(dense jump, rate) of a table's channels, those of one bath if given."""
    tagged = zip(dense_jumps(table), table.rate, table.bath_id)
    return [(a, rate) for a, rate, b in tagged if bath in (None, b)]


def dissipator_action(table, rho, bath=None):
    """sum over a table's channels (of one bath, if given) of
    rate (A rho A^dag - 1/2 {A^dag A, rho}), dense."""
    r = _as_matrix(rho)
    out = np.zeros_like(r)
    for a, rate in _channels(table, bath):
        aa = a.conj().T @ a
        out += rate * (a @ r @ a.conj().T - 0.5 * (aa @ r + r @ aa))
    return out


def heat_operator(table, h, bath=None):
    """sum over a table's channels (of one bath, if given) of
    rate (A^dag H A - 1/2 {A^dag A, H}), dense: the adjoint dissipator
    applied to H, so that Tr[D(rho) H] = Tr[rho Q]."""
    h = np.asarray(h, dtype=complex)
    q = np.zeros_like(h)
    for a, rate in _channels(table, bath):
        aa = a.conj().T @ a
        q += rate * (a.conj().T @ h @ a - 0.5 * (aa @ h + h @ aa))
    return q


def gibbs_state(hamiltonian, temperature):
    """exp(-H / T) / Z as a DensityMatrix, from the eigenbasis of H."""
    w, u = np.linalg.eigh(np.asarray(hamiltonian, dtype=complex))
    weights = np.exp(-(w - w.min()) / temperature)
    weights /= weights.sum()
    return DensityMatrix((u * weights) @ u.conj().T)


def complex_steady_state(gen):
    """core.steady_state with the SVD taken of the complex dim^2 x dim^2
    superoperator itself, with the same checks and messages."""
    m = gen.superoperator.toarray()
    if not np.isfinite(m).all():
        raise NumericsError("superoperator has a non-finite entry; no steady state")
    _, svals, vh = np.linalg.svd(m)
    smax = svals[0] if svals.size else 0.0
    null_tol = max(1e-12 * smax, 1e3 * np.finfo(float).eps * smax)
    null_count = int(np.sum(svals <= null_tol))
    if null_count > 1:
        raise DegenerateSteadyStateError(null_count)
    v = vh[-1].conj()
    rho = v.reshape(gen.dim, gen.dim)
    tr = rho.trace()
    if abs(tr) < 1e-12 * np.linalg.norm(v):
        raise DegenerateSteadyStateError(null_count or 1)
    rho, spectrum, _ = _floored((rho / tr).reshape(-1), _full_support(gen.dim))
    rho = rho.reshape(gen.dim, gen.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        residual = np.abs(m @ rho.reshape(-1)).max()
    if residual > STEADY_STATE_RESIDUAL_TOL:
        raise SteadyStateConvergenceError(residual, STEADY_STATE_RESIDUAL_TOL)
    return DensityMatrix(rho, _spectrum=spectrum)


def reachable(lmat, keep):
    """The smallest set of vec coordinates holding keep that the
    superoperator lmat maps into itself, as a boolean mask: the fixed point
    of adding every row an entry of lmat reaches from a kept column."""
    keep = keep.copy()
    while True:
        count = np.count_nonzero(keep)
        keep[lmat.row[keep[lmat.col]]] = True
        if np.count_nonzero(keep) == count:
            return keep
