"""Heat currents, entropy balance and second-law verdicts.

Baths are identified by tag: "abs" is the absorption (pump) bath, "loss" the
ambient environment, "sink" an extraction step that is not a thermal bath.
Sink channels are excluded from the entropy bookkeeping on purpose; their
energy flow is recorded separately so the first law can still be closed.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import _as_matrix, _checked_rates, _vec, DissipationChannel, require_bath_id
from .errors import NumericsError

ENTROPY_EIGENVALUE_FLOOR = 1e-14
VERDICT_CURRENT_FLOOR = 1e-14
VERDICT_RELATIVE_TOL = 1e-9
FIRST_LAW_RELATIVE_TOL = 1e-9

VERDICTS = ("consistent", "violation", "undefined")


def bose_occupation(omega, temperature):
    """Mean thermal occupation 1/(exp(omega/T) - 1) at gap omega > 0."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    # plain floats: a numpy scalar would warn where the ratio overflows
    x = float(omega) / float(temperature)
    if x < sys.float_info.min:  # subnormal: lost digits, and 1 / expm1(x) may overflow
        raise NumericsError(
            f"occupation diverges: omega / T underflows at omega = {omega}, T = {temperature}"
        )
    if x > 700.0:
        # expm1 would overflow; occupation is exp(-x) to this accuracy
        return math.exp(-x)
    return 1.0 / math.expm1(x)


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


def second_law_verdict(j_abs, j_loss, t_abs, t_loss):
    """Steady-state Carnot-style bound on the current ratio.

    With r = -j_loss/j_abs and tau = T_loss/T_abs: consistent iff r >= tau
    when j_abs > 0, iff r <= tau when j_abs < 0. Undefined when j_abs is
    negligible against the current scale, or when either current is not
    finite. Comparison tolerance is 1e-9 relative to tau.
    """
    if t_abs <= 0 or t_loss <= 0:
        raise ValueError("bath temperatures must be positive")
    if not (math.isfinite(j_abs) and math.isfinite(j_loss)):
        return "undefined"
    scale = max(abs(j_abs), abs(j_loss))
    if scale == 0.0 or abs(j_abs) < VERDICT_CURRENT_FLOOR * scale:
        return "undefined"
    ratio = -j_loss / j_abs
    tau = t_loss / t_abs
    tol = VERDICT_RELATIVE_TOL * max(1.0, tau)
    if j_abs > 0:
        return "consistent" if ratio >= tau - tol else "violation"
    return "consistent" if ratio <= tau + tol else "violation"


@dataclass(frozen=True)
class ThermoReport:
    """Steady-state energy audit of one model configuration.

    power < 0 means work is extracted. sink_flow records Tr[D_sink(rho) H]
    so the first law j_abs + j_loss + power = 0 can be checked even though
    sigma never sees the sink. Non-finite j_abs, j_loss, power or sigma
    raise NumericsError: the first-law check cannot see a NaN, and an
    infinite sigma must not get a verdict. Books that do not close are a
    failed computation too, and raise NumericsError.
    """

    j_abs: float
    j_loss: float
    power: float
    sigma: float
    ratio: float
    verdict: str
    sink_flow: float = 0.0

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(
                f"verdict must be one of {VERDICTS}, got {self.verdict!r}"
            )
        if not all(math.isfinite(x) for x in (self.j_abs, self.j_loss, self.power, self.sigma)):
            raise NumericsError(
                f"non-finite report: j_abs = {self.j_abs}, j_loss = {self.j_loss}, "
                f"power = {self.power}, sigma = {self.sigma}"
            )
        if any(0.0 < abs(x) < sys.float_info.min for x in (self.j_abs, self.j_loss, self.power)):
            raise NumericsError(
                f"subnormal report: j_abs = {self.j_abs}, j_loss = {self.j_loss}, "
                f"power = {self.power} have lost precision"
            )
        closure = abs(self.j_abs + self.j_loss + self.power)
        if closure > FIRST_LAW_RELATIVE_TOL * max(abs(self.j_abs), 1e-30):
            raise NumericsError(
                f"first law violated: j_abs + j_loss + power = {closure:.3e}"
            )

    @classmethod
    def from_currents(cls, j_abs, j_loss, power, t_abs, t_loss, sink_flow):
        """Report on steady currents: sigma from the two thermal baths only,
        ratio = -j_loss/j_abs (nan when j_abs is zero), and the verdict.
        The divisions run on plain floats, where a numpy scalar would warn
        on overflow; an overflowed sigma is then rejected as non-finite."""
        j_abs, j_loss, t_abs, t_loss = map(float, (j_abs, j_loss, t_abs, t_loss))
        sigma = -j_abs / t_abs - j_loss / t_loss
        ratio = -j_loss / j_abs if j_abs != 0.0 else math.nan
        verdict = second_law_verdict(j_abs, j_loss, t_abs, t_loss)
        return cls(j_abs, j_loss, power, sigma, ratio, verdict, sink_flow=sink_flow)
