"""Heat currents, entropy balance and second-law verdicts.

Baths are identified by tag: "abs" is the absorption (pump) bath, "loss" the
ambient environment, "sink" an extraction step that is not a thermal bath.
Sink channels are excluded from the entropy bookkeeping on purpose; their
energy flow is recorded separately so the first law can still be closed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _as_matrix, _vec, DissipationChannel, require_bath_id
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
    if x == 0.0:
        raise NumericsError(
            f"occupation diverges: omega / T underflows at omega = {omega}, T = {temperature}"
        )
    if x > 700.0:
        # expm1 would overflow; occupation is exp(-x) to this accuracy
        return math.exp(-x)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class BathSpec:
    """A bath tag with its temperature and base coupling rate.

    Thermal baths (abs, loss) need temperature > 0. The sink carries no
    temperature; it is a one-way extraction channel.
    """

    bath_id: str
    temperature: float | None
    gamma0: float

    def __post_init__(self):
        require_bath_id(self.bath_id)
        if self.bath_id == "sink":
            if self.temperature is not None:
                raise ValueError("sink baths carry no temperature")
        else:
            if self.temperature is None or self.temperature <= 0:
                raise ValueError(
                    f"thermal bath {self.bath_id!r} needs temperature > 0, "
                    f"got {self.temperature}"
                )
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 must be >= 0, got {self.gamma0}")

    def occupation(self, omega):
        if self.temperature is None:
            raise ValueError("sink baths have no thermal occupation")
        return bose_occupation(omega, self.temperature)

    def thermal_pair(self, lower, omega, check_bohr=True):
        """Detailed-balance channel pair for the transition at gap omega.

        `lower` is the jump that takes the system down the gap; rates are
        gamma0 (1 + n) down and gamma0 n up.
        """
        n = self.occupation(omega)
        lower = np.asarray(lower, dtype=complex)
        down = DissipationChannel(
            lower, self.gamma0 * (1.0 + n), self.bath_id, omega, check_bohr
        )
        up = DissipationChannel(
            lower.conj().T, self.gamma0 * n, self.bath_id, omega, check_bohr
        )
        return [down, up]

    def one_way(self, jump, omega, check_bohr=True):
        """Single irreversible channel (sink-style extraction)."""
        return DissipationChannel(jump, self.gamma0, self.bath_id, omega, check_bohr)


def heat_current(gen, bath_id, rho):
    """Energy flow into the system from one bath: Tr[D_bath(rho) H].

    Evaluated as vec(H^T) . (D_bath vec(rho)) on the generator's bath block.
    Positive values mean the bath feeds energy into the system. Returns 0.0
    if no channel carries the tag (a decoupled bath moves no heat).
    """
    require_bath_id(bath_id)
    block = gen.bath_blocks[bath_id]
    if block is None:
        return 0.0
    h = gen.hamiltonian
    d_rho = block @ _vec(gen, rho)
    val = h.T.reshape(-1) @ d_rho
    with np.errstate(over="ignore"):  # an inf scale accepts any residue
        scale = max(1.0, np.linalg.norm(d_rho) * np.linalg.norm(h))
    if abs(val.imag) > 1e-12 * scale:
        raise NumericsError(
            f"heat current has imaginary residue {val.imag:.3e} beyond tolerance"
        )
    return float(val.real)


def entropy_rate(rho, rho_dot):
    """d/dt of the von Neumann entropy: -Tr[rho_dot ln rho].

    Evaluated in the eigenbasis of rho with eigenvalue floor 1e-14;
    directions where both the eigenvalue and the matching diagonal element
    of rho_dot vanish contribute zero (the 0 log 0 limit).
    """
    r = _as_matrix(rho)
    rd = np.asarray(rho_dot, dtype=complex)
    defect = np.abs(rd - rd.conj().T).max()
    if defect > max(1e-10, 1e-12 * np.abs(rd).max()):
        raise NumericsError(
            f"rho_dot is not Hermitian: max|rd - rd^dag| = {defect:.3e}"
        )
    w, u = np.linalg.eigh(r)
    diag = np.einsum("ij,jk,ki->i", u.conj().T, rd, u).real
    floored = np.maximum(w, ENTROPY_EIGENVALUE_FLOOR)
    terms = -diag * np.log(floored)
    dead = (w < ENTROPY_EIGENVALUE_FLOOR) & (
        np.abs(diag) < 1e-13 * max(1.0, np.abs(diag).max())
    )
    terms[dead] = 0.0
    return float(terms.sum())


def entropy_production(rho, rho_dot, currents, temperatures):
    """sigma = dS/dt - J_abs/T_abs - J_loss/T_loss.

    Only the two thermal baths enter. Sink flow is deliberately absent; that
    omission is the bookkeeping under audit.
    """
    j_abs, j_loss = currents
    t_abs, t_loss = temperatures
    if t_abs <= 0 or t_loss <= 0:
        raise ValueError("bath temperatures must be positive")
    return entropy_rate(rho, rho_dot) - j_abs / t_abs - j_loss / t_loss


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
    infinite sigma must not get a verdict.
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
        closure = abs(self.j_abs + self.j_loss + self.power)
        if closure > FIRST_LAW_RELATIVE_TOL * max(abs(self.j_abs), 1e-30):
            raise ValueError(
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
