"""Finite collective reservoir vs its oscillator limit.

The work repository behind the transfer scheme is physically a large set of
two-level units, addressed through collective pseudospin operators of
magnitude j. In the low-excitation regime those operators bosonize onto a
single oscillator (the model the closed forms use). This module builds both
Hamiltonians on the {|0>, |1>} x repository block exactly, with the ladder's
two-band builder, and compares their low-lying spectra; the residual must
shrink like 1/j.

|2> is left out by construction: the transfer coupling never touches it, so
it only adds decoupled levels that would clutter the low-energy comparison.
"""

import math
from dataclasses import dataclass

import numpy as np

from .three_level import _two_band_hamiltonian

MAX_SPIN = 12


@dataclass(frozen=True)
class CollectiveReservoirParams:
    """Exact-diagonalization setup for one finite-j comparison.

    j is the collective pseudospin magnitude (2j two-level units in the
    symmetric sector); n_max truncates the oscillator ladder; low_count
    is how many of the lowest levels enter the deviation report.
    """

    j: int
    n_max: int = None
    low_count: int = 5

    def __post_init__(self):
        if not isinstance(self.j, int) or self.j < 1:
            raise ValueError(f"j must be a positive integer, got {self.j!r}")
        if self.j > MAX_SPIN:
            raise ValueError(
                f"symmetric-sector dimension overflow: j = {self.j} exceeds "
                f"the exact-diagonalization cap {MAX_SPIN}"
            )
        if self.n_max is None:
            object.__setattr__(self, "n_max", 2 * self.j)
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        if not (1 <= self.low_count <= 2 * self.n_max):
            raise ValueError("low_count must fit inside the truncated spectrum")


@dataclass(frozen=True)
class OscillatorLimitReport:
    j: int
    collective_levels: np.ndarray
    oscillator_levels: np.ndarray
    max_deviation: float


def compare_with_oscillator_limit(p, hp):
    """Spectral comparison of the exact collective model vs the oscillator.

    The collective coupling on the pair (|1, nu>, |0, nu+1>) is
    sqrt(gamma) * sqrt((nu+1)(2j - nu)/(2j)); the oscillator replaces the
    square-root factor by sqrt(nu+1). Both share the energy offset
    -j*omega_rc so spectra align level by level. Only the lowest low_count
    levels are compared (the low-excitation regime where the bosonization
    is claimed).
    """
    p.require_weak_coupling()
    if p.gamma <= 0:
        raise ValueError("gamma must be positive for the transfer coupling")
    j = hp.j
    g = math.sqrt(p.gamma)
    nu, mu = np.arange(2 * j), np.arange(hp.n_max)
    collective_amps = g * np.sqrt((nu + 1.0) * (2.0 * j - nu) / (2.0 * j))
    h_coll = _two_band_hamiltonian(p.omega_rc, collective_amps, j)
    h_osc = _two_band_hamiltonian(p.omega_rc, g * np.sqrt(mu + 1.0), j)
    ev_coll = np.linalg.eigvalsh(h_coll)[: hp.low_count]
    ev_osc = np.linalg.eigvalsh(h_osc)[: hp.low_count]
    return OscillatorLimitReport(
        j=j, collective_levels=ev_coll, oscillator_levels=ev_osc,
        max_deviation=float(np.abs(ev_coll - ev_osc).max()),
    )
