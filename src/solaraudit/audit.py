"""The closed-form half of the audit, on the standard library.

Baths are identified by tag (BATH_IDS): "abs" is the absorption (pump)
bath, "loss" the ambient environment, "sink" an extraction step that is
not a thermal bath. Here are the Bose occupation, the second-law verdict
and ThermoReport, the steady-state books of every model, and the
finiteness check of the params classes. Every closed-form command runs
on this module; thermo.py computes the same books from Lindblad states,
with numpy, and re-exports these names.
"""

import math
import sys
from dataclasses import dataclass, fields

from .errors import NumericsError

BATH_IDS = ("abs", "loss", "sink")

VERDICT_CURRENT_FLOOR = 1e-14
VERDICT_RELATIVE_TOL = 1e-9
FIRST_LAW_RELATIVE_TOL = 1e-9

VERDICTS = ("consistent", "violation", "undefined")


def require_finite_fields(params):
    """Raise ValueError naming the first float or array field of a params
    dataclass that holds a nan or an infinity (for an array, its first
    such entry and that entry's index). An array field exists only once
    numpy is loaded, so the check never loads it."""
    np = sys.modules.get("numpy")
    for field in fields(params):
        value = getattr(params, field.name)
        if np is not None and isinstance(value, np.ndarray):
            bad = np.argwhere(~np.isfinite(value))
            if bad.size:
                at = bad[0].tolist()
                raise ValueError(f"{field.name} must be finite, got {value[tuple(at)]} at {at}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


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
