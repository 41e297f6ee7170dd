"""The GKLS dissipator written out directly, as an oracle for the sparse
superoperator blocks of solaraudit.core."""

import numpy as np

from solaraudit.core import _as_matrix


def dissipator_action(channel, rho):
    """rate (A rho A^dag - 1/2 {A^dag A, rho}) for one channel, dense."""
    r = _as_matrix(rho)
    a = channel.jump.toarray()
    aa = a.conj().T @ a
    return channel.rate * (a @ r @ a.conj().T - 0.5 * (aa @ r + r @ aa))
