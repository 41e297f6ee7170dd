"""The GKLS dissipator and its Heisenberg-picture heat operator written out
directly, channel by channel, as oracles for the generator and the heat
operators of solaraudit.core."""

import numpy as np

from solaraudit.core import _as_matrix


def dissipator_action(channel, rho):
    """rate (A rho A^dag - 1/2 {A^dag A, rho}) for one channel, dense."""
    r = _as_matrix(rho)
    a = channel.jump.toarray()
    aa = a.conj().T @ a
    return channel.rate * (a @ r @ a.conj().T - 0.5 * (aa @ r + r @ aa))


def heat_operator(channels, h):
    """sum over channels of rate (A^dag H A - 1/2 {A^dag A, H}), dense: the
    adjoint dissipator applied to H, so that Tr[D(rho) H] = Tr[rho Q]."""
    h = np.asarray(h, dtype=complex)
    q = np.zeros_like(h)
    for channel in channels:
        a = channel.jump.toarray()
        aa = a.conj().T @ a
        q += channel.rate * (a.conj().T @ h @ a - 0.5 * (aa @ h + h @ aa))
    return q
