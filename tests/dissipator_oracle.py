"""The GKLS dissipator and its Heisenberg-picture heat operator written out
directly, channel by channel, as oracles for the generator and the heat
operators of solaraudit.core."""

import numpy as np

from solaraudit.core import _as_matrix


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
