"""Error taxonomy shared across the package.

ConfigError marks bad user input (CLI exit code 2). Everything else derived
from NumericsError marks a failed computation (CLI exit code 3). A user-named
file that cannot be read is a ConfigError, raised by read_user_text.
"""


class SolarAuditError(Exception):
    pass


class ConfigError(SolarAuditError):
    """Invalid configuration: unknown keys, bad values, broken constraints."""


def read_user_text(path, what):
    """Text of a user-named UTF-8 file; an unreadable one is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")


class NumericsError(SolarAuditError):
    """A numerical routine could not produce a trustworthy result."""


class DimensionMismatchError(NumericsError):
    def __init__(self, expected, got, what="operator"):
        super().__init__(
            f"dimension mismatch: {what} has dimension {got}, expected {expected}"
        )


class StateValidationError(NumericsError):
    """A matrix failed the density-matrix invariants."""


class DegenerateSteadyStateError(NumericsError):
    def __init__(self, null_dimension):
        super().__init__(
            f"steady state is not unique: null space has dimension {null_dimension}"
        )


class SteadyStateConvergenceError(NumericsError):
    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"steady-state residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )


class TruncationOverflowError(NumericsError):
    def __init__(self, weight, n_max):
        super().__init__(
            f"population {weight:.3e} at the truncation edge n_max = {n_max} "
            "exceeds 1e-6; rerun with a larger n_max"
        )
