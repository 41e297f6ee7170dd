"""Parameter sweeps over the closed-form models.

A sweep varies one dimensionless axis, evaluates the steady-state report
at every grid point, and post-processes the verdict column into maximal
violation intervals whose interior edges are sharpened by bisection.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError
from .models import MODELS, model_report

SWEEP_AXES = ("omega_ratio", "temp_ratio")
EDGE_TOL = 1e-6
AUTO_AXIS_STOP = 1.98  # [sweep] axis_stop = auto: see defined_stop


def _apply_axis(model, fixed, axis, x):
    """Map an axis value onto the model's parameter dict.

    omega_ratio scales the extraction step against the absorbing gap:
    for the toy models it sets omega_rc = x * omega_abs; for a ring model
    (params with LEVELS and LINKS) it lowers the sink's destination level
    to its source level - x * the absorption link's gap, so that the
    current ratio becomes 1 - x. temp_ratio sets t_loss = x * t_abs.
    """
    values = dict(fixed)
    params_cls = MODELS[model][1]
    if axis == "temp_ratio":
        values["t_loss"] = x * values["t_abs"]
    elif not hasattr(params_cls, "LINKS"):
        values["omega_rc"] = x * values["omega_abs"]
    else:
        level = params_cls.LEVELS
        ends = {bath: (src, dst) for _, src, dst, bath, _ in params_cls.LINKS}
        (lo, hi), (src, dst) = ends["abs"], ends["sink"]
        values[level[dst]] = values[level[src]] - x * (values[level[hi]] - values[level[lo]])
    return values


def defined_stop(model, fixed, axis, grid):
    """Stop for [sweep] axis_stop = auto, given the grid up to AUTO_AXIS_STOP:
    its last point where the model's parameters are valid (omega_ratio
    closes the recycle gap of the four- and five-level models before x = 1),
    or its end when only the first point is, so that the sweep names the
    first invalid point as with any explicit stop."""
    params_cls = MODELS[model][1]
    for x in grid[:0:-1]:
        try:
            params_cls(**_apply_axis(model, fixed, axis, float(x)))
            return float(x)
        except (TypeError, ValueError):
            pass
    return float(grid[-1])


def _checked_grid(grid, what):
    """grid as a tuple of floats; ConfigError unless it is one-dimensional
    with at least 2 points, finite and strictly increasing."""
    try:
        grid = tuple(map(float, grid))
    except TypeError:  # a number, or a point that is itself a sequence
        grid = ()
    if len(grid) < 2:
        raise ConfigError(f"{what} must be one-dimensional with at least 2 points")
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"{what} must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{what} must be strictly increasing")
    return grid


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a model, an axis, a grid, and the fixed parameters."""

    model: str
    axis: str
    grid: tuple
    fixed: dict

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(
                f"unknown sweep model {self.model!r}; use one of: "
                + ", ".join(sorted(MODELS))
            )
        if self.axis == "time":
            raise ConfigError(
                "axis 'time' belongs to the antenna-complex trace command; "
                "sweeps vary omega_ratio or temp_ratio"
            )
        if self.axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {self.axis!r}; use one of: " + ", ".join(SWEEP_AXES)
            )
        object.__setattr__(self, "grid", _checked_grid(self.grid, "sweep grid"))
        object.__setattr__(self, "fixed", dict(self.fixed))

    def point_report(self, x):
        """Steady-state report at one axis value."""
        values = _apply_axis(self.model, self.fixed, self.axis, x)
        return model_report(self.model, values, where=f"sweep point {self.axis} = {x:g}: ")


@dataclass(frozen=True)
class SweepTable:
    spec: SweepSpec
    reports: tuple
    violations: tuple

    def rows(self):
        return [
            (x, r.j_abs, r.j_loss, r.power, r.ratio, r.sigma, r.verdict)
            for x, r in zip(self.spec.grid, self.reports)
        ]


def _refine_edge(predicate, lo, hi):
    """Bisect the point inside (lo, hi) where predicate flips, to EDGE_TOL."""
    at_lo = predicate(lo)
    while hi - lo > EDGE_TOL:
        mid = 0.5 * (lo + hi)
        if predicate(mid) == at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def violation_intervals(spec, reports):
    """Maximal axis intervals where the verdict is 'violation'.

    Interior edges are bisected between the bracketing grid points down
    to EDGE_TOL; edges at the ends of the grid stay at the grid value.
    """
    grid, n = spec.grid, len(reports)

    def violating(x):
        return spec.point_report(x).verdict == "violation"

    # a run of violating points starts and ends where the padded flags change
    flags = [False, *(r.verdict == "violation" for r in reports), False]
    edges = [k for k in range(n + 1) if flags[k] != flags[k + 1]]
    return [
        (grid[i] if i == 0 else _refine_edge(violating, grid[i - 1], grid[i]),
         grid[j] if j == n - 1 else _refine_edge(violating, grid[j], grid[j + 1]))
        for i, j in zip(edges[::2], [k - 1 for k in edges[1::2]])
    ]


def run_sweep(spec):
    reports = [spec.point_report(x) for x in spec.grid]
    violations = violation_intervals(spec, reports)
    return SweepTable(spec=spec, reports=tuple(reports), violations=tuple(violations))


@dataclass(frozen=True)
class PowerComparison:
    """Power of both extraction schemes across a temperature-ratio grid."""

    ratios: tuple
    p_decay: tuple
    p_transfer: tuple
    zero_crossing: float

    def rows(self):
        return list(zip(self.ratios, self.p_decay, self.p_transfer))


def power_comparison(omega_abs, omega_rc, gamma, t_abs, ratio_grid):
    """Evaluate decay-scheme and transfer-scheme power over t_loss/t_abs.

    Also locates the temperature ratio where the transfer scheme's power
    changes sign (bisected to EDGE_TOL), or None when the grid shows no
    sign change. The decay scheme has no such crossing: its power has one
    sign at any temperature, which is the point of the comparison.
    """
    grid = _checked_grid(ratio_grid, "ratio grid")
    fixed = dict(omega_abs=omega_abs, omega_rc=omega_rc, gamma=gamma, t_abs=t_abs)

    def power(model, tau):
        values = _apply_axis(model, fixed, "temp_ratio", tau)
        return model_report(model, values, where=f"temperature ratio {tau:g}: ").power

    p_dec = tuple(power("toy_decay", tau) for tau in grid)
    p_ham = tuple(power("toy_ham", tau) for tau in grid)

    # the first grid step that touches or crosses zero; an exact zero at a
    # grid point is the crossing itself. A report's power is finite.
    signs = [(x > 0) - (x < 0) for x in p_ham]
    steps = [k for k in range(len(grid) - 1) if signs[k] * signs[k + 1] <= 0]
    crossing = None
    if steps:
        k = steps[0]
        if signs[k] == 0:
            crossing = grid[k]
        elif signs[k + 1] == 0:
            crossing = grid[k + 1]
        else:
            crossing = _refine_edge(lambda tau: power("toy_ham", tau) < 0, grid[k], grid[k + 1])
    return PowerComparison(
        ratios=grid, p_decay=p_dec, p_transfer=p_ham, zero_crossing=crossing
    )
