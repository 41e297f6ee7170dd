"""Markovian open-system dynamics substrate.

Conventions: hbar = 1, energies and rates share one unit system and time is
measured in the inverse of that unit. States are dim x dim complex matrices
wrapped in DensityMatrix, which enforces Hermiticity, unit trace and
positivity (within a small floor). Hamiltonians and jump operators are plain
ndarrays.

The generator is

    d rho / dt = -i [H, rho] + sum_k rate_k (A_k rho A_k^dag
                 - 1/2 {A_k^dag A_k, rho})

with every channel tagged by the bath it exchanges energy with, so heat can
be booked per bath downstream.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    StateValidationError,
    SteadyStateConvergenceError,
    StepUnderflowError,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = 1e-9
BOHR_CHECK_TOL = 1e-9
STEADY_STATE_RESIDUAL_TOL = 1e-10

BATH_IDS = ("abs", "loss", "sink")


def _as_matrix(rho):
    if isinstance(rho, DensityMatrix):
        return rho.entries
    return np.asarray(rho, dtype=complex)


def _sparse_abs_max(mat):
    data = mat.tocoo().data
    return float(np.abs(data).max()) if data.size else 0.0


class DensityMatrix:
    """Validated quantum state.

    Construction checks max|rho - rho^dag| <= 1e-12, |tr rho - 1| <= 1e-10
    and min eigenvalue >= -1e-9. The entries array is frozen after
    validation.
    """

    __slots__ = ("entries", "dim")

    def __init__(self, entries):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise StateValidationError(
                f"state must be a square matrix, got shape {mat.shape}"
            )
        defect = np.abs(mat - mat.conj().T).max()
        if defect > HERMITICITY_TOL:
            raise StateValidationError(
                f"state is not Hermitian: max|rho - rho^dag| = {defect:.3e}"
            )
        tr = mat.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(
                f"state trace differs from 1 by {abs(tr - 1.0):.3e}"
            )
        lo = np.linalg.eigvalsh(mat)[0]
        if lo < -EIGENVALUE_FLOOR:
            raise StateValidationError(
                f"state has eigenvalue {lo:.3e} below -{EIGENVALUE_FLOOR:.0e}"
            )
        mat.setflags(write=False)
        self.entries = mat
        self.dim = mat.shape[0]

    @classmethod
    def pure(cls, amplitudes):
        v = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise StateValidationError("pure state needs a nonzero amplitude vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def ground(cls, dim):
        v = np.zeros(dim)
        v[0] = 1.0
        return cls.pure(v)

    @classmethod
    def from_populations(cls, populations):
        p = np.asarray(populations, dtype=float)
        return cls(np.diag(p).astype(complex))

    @classmethod
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def gibbs(cls, hamiltonian, temperature):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        h = np.asarray(hamiltonian, dtype=complex)
        w, u = np.linalg.eigh(h)
        weights = np.exp(-(w - w.min()) / temperature)
        weights /= weights.sum()
        return cls((u * weights) @ u.conj().T)

    def population(self, index):
        return self.entries[index, index].real

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.entries)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class DissipationChannel:
    """One GKLS jump operator with its rate and bath tag.

    bohr_frequency is the magnitude of the level gap the jump connects. It is
    checked against the attached Hamiltonian at generator construction unless
    check_bohr is False (needed for jumps that do not connect eigenstates,
    which is itself a modeling statement worth keeping visible).
    """

    jump: np.ndarray
    rate: float
    bath_id: str
    bohr_frequency: float
    check_bohr: bool = True

    def __post_init__(self):
        jump = np.array(self.jump, dtype=complex)
        if jump.ndim != 2 or jump.shape[0] != jump.shape[1]:
            raise ValueError(f"jump operator must be square, got shape {jump.shape}")
        jump.setflags(write=False)
        object.__setattr__(self, "jump", jump)
        rate = float(self.rate)
        if not math.isfinite(rate) or rate < 0:
            raise ValueError(f"channel rate must be finite and >= 0, got {rate}")
        object.__setattr__(self, "rate", rate)
        if self.bath_id not in BATH_IDS:
            raise ValueError(
                f"unknown bath_id {self.bath_id!r}, expected one of {BATH_IDS}"
            )
        object.__setattr__(self, "bohr_frequency", float(self.bohr_frequency))

    @property
    def dim(self):
        return self.jump.shape[0]


def dissipator_action(channel, rho):
    """Apply one channel's dissipator to a state, returning a plain matrix."""
    r = _as_matrix(rho)
    a = channel.jump
    if a.shape[0] != r.shape[0]:
        raise DimensionMismatchError(r.shape[0], a.shape[0], what="jump operator")
    ar = a @ r
    aa = a.conj().T @ a
    return channel.rate * (ar @ a.conj().T - 0.5 * (aa @ r + r @ aa))


class LindbladGenerator:
    """Hamiltonian plus tagged dissipation channels on one Hilbert space."""

    def __init__(self, hamiltonian, channels):
        h = np.array(hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
        defect = np.abs(h - h.conj().T).max()
        if defect > HERMITICITY_TOL * max(1.0, np.abs(h).max()):
            raise ValueError(
                f"Hamiltonian is not Hermitian: max|H - H^dag| = {defect:.3e}"
            )
        h.setflags(write=False)
        self.hamiltonian = h
        self.dim = h.shape[0]
        channels = tuple(channels)
        for ch in channels:
            if ch.dim != self.dim:
                raise DimensionMismatchError(self.dim, ch.dim, what="jump operator")
        self.channels = channels
        self._check_bohr_frequencies()

    def _check_bohr_frequencies(self):
        # jumps are typically a handful of entries, so sparse products keep
        # this check cheap even with hundreds of channels
        h = sp.csr_matrix(self.hamiltonian)
        scale = max(1.0, np.abs(self.hamiltonian).max())
        for ch in self.channels:
            if not ch.check_bohr or ch.rate == 0.0:
                continue
            a = sp.csr_matrix(ch.jump)
            comm = h @ a - a @ h
            w = ch.bohr_frequency
            defect = min(
                _sparse_abs_max(comm - w * a),
                _sparse_abs_max(comm + w * a),
            )
            jnorm = max(np.abs(ch.jump).max(), 1e-300)
            if defect > BOHR_CHECK_TOL * scale * jnorm:
                raise ValueError(
                    f"channel Bohr frequency {w!r} does not match the "
                    f"Hamiltonian gap its jump connects (defect {defect:.3e})"
                )

    def bath_channels(self, bath_id):
        if bath_id not in BATH_IDS:
            raise ValueError(
                f"unknown bath_id {bath_id!r}, expected one of {BATH_IDS}"
            )
        return [ch for ch in self.channels if ch.bath_id == bath_id]

    @cached_property
    def max_rate(self):
        rates = [ch.rate for ch in self.channels if ch.rate > 0]
        return max(rates) if rates else 0.0

    @cached_property
    def energy_spread(self):
        w = np.linalg.eigvalsh(self.hamiltonian)
        return float(w[-1] - w[0]) if len(w) else 0.0

    @cached_property
    def superoperator(self):
        """Vectorized generator as a sparse dim^2 x dim^2 matrix.

        Row-major vectorization: vec(A X B) = kron(A, B^T) vec(X).
        """
        eye = sp.identity(self.dim, dtype=complex, format="csr")
        h = sp.csr_matrix(self.hamiltonian)
        terms = [-1j * sp.kron(h, eye), 1j * sp.kron(eye, h.T)]
        for ch in self.channels:
            if ch.rate == 0.0:
                continue
            a = sp.csr_matrix(ch.jump)
            aa = (a.conj().T @ a).tocsr()
            terms.append(ch.rate * sp.kron(a, a.conj()))
            terms.append(-0.5 * ch.rate * sp.kron(aa, eye))
            terms.append(-0.5 * ch.rate * sp.kron(eye, aa.T))
        # one coalescing pass; summing matrices pairwise is quadratic in
        # the channel count
        coos = [t.tocoo() for t in terms]
        data = np.concatenate([t.data for t in coos])
        row = np.concatenate([t.row for t in coos])
        col = np.concatenate([t.col for t in coos])
        shape = (self.dim * self.dim, self.dim * self.dim)
        return sp.coo_matrix((data, (row, col)), shape=shape).tocsr()

    @cached_property
    def _propagation_matrix(self):
        # Dense matvec wins for small systems; sparse for the rest.
        if self.dim <= 32:
            return self.superoperator.toarray()
        return self.superoperator

    def recommended_step(self):
        """Internal step honoring the fastest rate and the spectral spread."""
        h = math.inf
        if self.max_rate > 0:
            h = min(h, 0.01 / self.max_rate)
        if self.energy_spread > 0:
            h = min(h, 2.0 / self.energy_spread)
        return h


def liouvillian_apply(gen, rho):
    """Right-hand side of the master equation at a given state."""
    r = _as_matrix(rho)
    if r.shape[0] != gen.dim:
        raise DimensionMismatchError(gen.dim, r.shape[0], what="state")
    h = gen.hamiltonian
    out = -1j * (h @ r - r @ h)
    for ch in gen.channels:
        if ch.rate != 0.0:
            out = out + dissipator_action(ch, r)
    return out


def floor_positivity(matrix):
    """Symmetrize and clip tiny negative eigenvalues, renormalizing trace.

    Eigenvalues in [-1e-9, 0) are floored to zero; anything lower is a real
    positivity violation and raises.
    """
    sym = 0.5 * (matrix + matrix.conj().T)
    w, u = np.linalg.eigh(sym)
    if w[0] < -EIGENVALUE_FLOOR:
        raise StateValidationError(
            f"positivity violation: eigenvalue {w[0]:.3e} below -{EIGENVALUE_FLOOR:.0e}"
        )
    if w[0] < 0:
        w = np.clip(w, 0.0, None)
        sym = (u * w) @ u.conj().T
    tr = sym.trace().real
    if tr <= 0:
        raise StateValidationError(f"state trace collapsed to {tr:.3e}")
    return sym / tr


def propagate(gen, rho0, t_grid, step=None):
    """Integrate the master equation, returning one state per grid time.

    Classic fixed-step fourth-order Runge-Kutta. The internal step is
    min(0.01/max_rate, grid spacing/10, 2/spectral spread) unless `step`
    overrides it (diagnostic use, e.g. convergence-order checks). Output
    states are symmetrized and positivity-floored before validation.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1d array")
    if t[0] < 0:
        raise ValueError("t_grid must start at t >= 0")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("t_grid must be strictly ascending")
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(rho0)
    if rho0.dim != gen.dim:
        raise DimensionMismatchError(gen.dim, rho0.dim, what="initial state")

    lmat = gen._propagation_matrix
    base = gen.recommended_step() if step is None else float(step)
    if step is not None and base <= 0:
        raise ValueError("step override must be positive")

    y = rho0.entries.astype(complex).reshape(-1)
    out = [rho0]
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        target = min(base, dt / 10.0)
        n = max(1, int(math.ceil(dt / target - 1e-12))) if math.isfinite(target) else 1
        h = dt / n
        if t[k] + h == t[k]:
            raise StepUnderflowError(t[k])
        sixth = h / 6.0
        half = h / 2.0
        for _ in range(n):
            k1 = lmat @ y
            k2 = lmat @ (y + half * k1)
            k3 = lmat @ (y + half * k2)
            k4 = lmat @ (y + h * k3)
            y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        repaired = floor_positivity(y.reshape(gen.dim, gen.dim))
        y = repaired.reshape(-1)
        out.append(DensityMatrix(repaired))
    return out


def steady_state(gen):
    """Stationary state from the null space of the vectorized generator.

    SVD-based: the right singular vector of the smallest singular value is
    reshaped, Hermitized, trace-normalized and positivity-floored. A null
    space of dimension > 1 and an unresolved residual both raise.
    """
    m = gen.superoperator.toarray()
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
    rho = rho / tr
    rho = floor_positivity(rho)
    residual = np.abs(liouvillian_apply(gen, rho)).max()
    if residual > STEADY_STATE_RESIDUAL_TOL:
        raise SteadyStateConvergenceError(residual, STEADY_STATE_RESIDUAL_TOL)
    return DensityMatrix(rho)
