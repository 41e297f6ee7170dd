"""Markovian open-system dynamics substrate.

Conventions: hbar = 1, energies and rates share one unit system and time is
measured in the inverse of that unit. States are dim x dim complex matrices
wrapped in DensityMatrix, which enforces Hermiticity, unit trace and
positivity (within a small floor). Hamiltonians are plain ndarrays; jump
operators are stored as sparse CSR matrices.

The generator is

    d rho / dt = -i [H, rho] + sum_k rate_k (A_k rho A_k^dag
                 - 1/2 {A_k^dag A_k, rho})

with every channel tagged by the bath it exchanges energy with. The
algebra exists once, as sparse superoperators on vectorized states: one
dissipator block per bath tag (so heat is booked per bath downstream) and
their sum with the Hamiltonian block. Jumps and blocks are assembled from
numpy (row, col, value) index triplets read off the CSR arrays, with one
sparse product per bath summing over its channels and CSR only as the
container; no block is built by Kronecker products of sparse matrices.
Propagation applies the exact exponential of that generator between grid
times.

scipy.sparse is imported inside the functions that build sparse matrices,
so a caller that builds no channel or generator never loads scipy.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NumericsError,
    StateValidationError,
    SteadyStateConvergenceError,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = 1e-9
BOHR_CHECK_TOL = 1e-9
STEADY_STATE_RESIDUAL_TOL = 1e-10

BATH_IDS = ("abs", "loss", "sink")


def require_finite_fields(params):
    """Raise ValueError naming the first float or array field of a params
    dataclass that holds a nan or an infinity."""
    for field in fields(params):
        value = getattr(params, field.name)
        if isinstance(value, float):
            finite = math.isfinite(value)
        elif isinstance(value, np.ndarray):
            finite = np.isfinite(value).all()
        else:
            continue
        if not finite:
            raise ValueError(f"{field.name} must be finite, got {value}")


def _as_matrix(rho):
    if isinstance(rho, DensityMatrix):
        return rho.entries
    return np.asarray(rho, dtype=complex)


def _require_finite_state(mat):
    # every other state check is a comparison, which a nan passes
    if not np.isfinite(mat).all():
        raise StateValidationError("state has non-finite entries")


class DensityMatrix:
    """Validated quantum state.

    Construction checks that every entry is finite, max|rho - rho^dag| <=
    1e-12, |tr rho - 1| <= 1e-10 and min eigenvalue >= -1e-9. The entries
    array is frozen after validation.
    """

    __slots__ = ("entries", "dim")

    def __init__(self, entries):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise StateValidationError(
                f"state must be a square matrix, got shape {mat.shape}"
            )
        _require_finite_state(mat)
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

    The jump may be given dense or sparse; it is stored as a CSR matrix.
    bohr_frequency is the magnitude of the level gap the jump connects. It is
    checked against the attached Hamiltonian at generator construction unless
    check_bohr is False (needed for jumps that do not connect eigenstates,
    which is itself a modeling statement worth keeping visible).
    """

    jump: "scipy.sparse.csr_array"
    rate: float
    bath_id: str
    bohr_frequency: float
    check_bohr: bool = True

    def __post_init__(self):
        import scipy.sparse as sp

        jump = self.jump if sp.issparse(self.jump) else np.asarray(self.jump)
        if jump.ndim != 2 or jump.shape[0] != jump.shape[1]:
            raise ValueError(f"jump operator must be square, got shape {jump.shape}")
        object.__setattr__(self, "jump", sp.csr_array(jump, dtype=complex))
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


def _rows(indptr):
    """Row of every stored entry of a CSR matrix, from its row pointers."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _stack(jumps):
    """(indptr, indices, data) of the vertical stack (A_1; A_2; ...) of
    CSR matrices, concatenated from theirs."""
    counts = np.concatenate([np.diff(a.indptr) for a in jumps])
    indices = np.concatenate([a.indices for a in jumps])
    data = np.concatenate([a.data for a in jumps])
    return np.concatenate([[0], np.cumsum(counts)]), indices, data


def _left_right(row, col, val, n, left, right):
    """Triplets of left X (x) I and right I (x) X^T for the n x n matrix X
    with entries val at (row, col): the superoperators of X rho and rho X."""
    import scipy.sparse as sp

    m = np.arange(n, dtype=sp.get_index_dtype(maxval=n * n))  # int32 where it fits
    row, col = row.astype(m.dtype)[:, None], col.astype(m.dtype)[:, None]
    return [
        ((row * n + m).ravel(), (col * n + m).ravel(), np.repeat(left * val, n)),
        ((m * n + col).ravel(), (m * n + row).ravel(), np.repeat(right * val, n)),
    ]


def _csr(parts, size):
    """Sum of (row, col, value) triplets as one size x size CSR; duplicate
    entries are summed in a single COO pass."""
    import scipy.sparse as sp

    row, col, val = (np.concatenate(x) for x in zip(*parts))
    idx = sp.get_index_dtype(maxval=max(size, val.size))
    return sp.coo_array((val, (row.astype(idx), col.astype(idx))), shape=(size, size)).tocsr()


class LindbladGenerator:
    """Hamiltonian plus tagged dissipation channels on one Hilbert space.

    Superoperators act on row-major vectorized states,
    vec(A X B) = kron(A, B^T) vec(X). Each bath tag gets one sparse block

        D_b = sum_k r_k A_k (x) conj(A_k) - 1/2 (K_b (x) I + I (x) K_b^T),
        K_b = sum_k r_k A_k^dag A_k,

    over the channels k carrying the tag, and the full generator is the
    Hamiltonian block -i (H (x) I - I (x) H^T) plus the bath blocks.
    """

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
        # All checked jumps side by side, (A_1 | A_2 | ...): column block k
        # of H (A_1 | ...) - (A_1 H | ...) -/+ w_k (A_1 | ...) is the
        # defect matrix of channel k, so the whole check is a few sparse
        # products instead of several per channel.
        import scipy.sparse as sp

        checked = [ch for ch in self.channels if ch.check_bohr and ch.rate != 0.0]
        if not checked:
            return
        n, count = self.dim, len(checked)
        h = sp.csr_array(self.hamiltonian)
        indptr, scol, sval = _stack([ch.jump for ch in checked])
        srow = _rows(indptr)
        jumps = sp.coo_array((sval, (srow % n, scol + srow // n * n)), shape=(n, n * count))
        h_a = (h @ jumps).tocoo()
        a_h = (sp.csr_array((sval, scol, indptr), shape=(n * count, n)) @ h).tocoo()
        a_h_col = a_h.col + (a_h.row // n) * n  # row block k -> column block k
        w_a = np.array([ch.bohr_frequency for ch in checked])[jumps.col // n] * jumps.data
        row = np.concatenate([h_a.row, a_h.row % n, jumps.row]).astype(np.int64)
        col = np.concatenate([h_a.col, a_h_col, jumps.col])
        # duplicate positions summed once, then the largest |entry| per block
        cells, at = np.unique(row * (n * count) + col, return_inverse=True)

        def block_abs_max(data):
            sums = np.bincount(at, data.real, cells.size)
            sums = sums + 1j * np.bincount(at, data.imag, cells.size)
            out = np.zeros(count)
            np.maximum.at(out, cells % (n * count) // n, np.abs(sums))
            return out

        products = np.concatenate([h_a.data, -a_h.data])
        defect = np.minimum(
            block_abs_max(np.concatenate([products, -w_a])),
            block_abs_max(np.concatenate([products, w_a])),
        )
        jnorm = block_abs_max(np.concatenate([np.zeros_like(products), jumps.data]))
        jnorm = np.maximum(jnorm, 1e-300)
        scale = max(1.0, np.abs(self.hamiltonian).max())
        bad = np.flatnonzero(defect > BOHR_CHECK_TOL * scale * jnorm)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"channel Bohr frequency {checked[k].bohr_frequency!r} does not "
                f"match the Hamiltonian gap its jump connects (defect {defect[k]:.3e})"
            )

    def bath_channels(self, bath_id):
        if bath_id not in BATH_IDS:
            raise ValueError(
                f"unknown bath_id {bath_id!r}, expected one of {BATH_IDS}"
            )
        return [ch for ch in self.channels if ch.bath_id == bath_id]

    @cached_property
    def bath_blocks(self):
        """Sparse dissipator block D_b per bath tag; None for a tag that no
        channel of nonzero rate carries."""
        return {b: self._bath_block(self.bath_channels(b)) for b in BATH_IDS}

    def _bath_block(self, channels):
        channels = [ch for ch in channels if ch.rate != 0.0]
        if not channels:
            return None
        import scipy.sparse as sp

        n, count = self.dim, len(channels)
        indptr, col, a = _stack([ch.jump for ch in channels])
        owner, row = np.divmod(_rows(indptr), n)
        rates = np.array([ch.rate for ch in channels])
        # One sparse product over the channels gives M = sum_k r_k vec(A_k)
        # vec(A_k)^dag: the stacked index arrays, read as CSC, hold the
        # columns r_k vec(A_k) and, read as CSR, the rows vec(A_k)^dag.
        # M[(i, j), (k, l)] is entry (i n + k, j n + l) of sum_k r_k
        # kron(A_k, conj(A_k)), and K_b[j, l] = sum_i conj M[(i, j), (i, l)].
        # The product sums in place what a per-channel kron expansion would
        # hold as sum_k nnz(A_k)^2 triplets, 119k for the trace model.
        vecs = row * n + col, indptr[::n]
        outer = sp.csr_array(
            sp.csc_array((rates[owner] * a, *vecs), shape=(n * n, count))
            @ sp.csr_array((a.conj(), *vecs), shape=(count, n * n))
        )
        p, q, v = _rows(outer.indptr), outer.indices, outer.data
        same = p // n == q // n
        k_b = sp.coo_array((v[same].conj(), (p[same] % n, q[same] % n)), shape=(n, n)).tocsr()
        kron_pairs = (p // n * n + q // n, p % n * n + q % n, v)
        k_part = _left_right(_rows(k_b.indptr), k_b.indices, k_b.data, n, -0.5, -0.5)
        return _csr([kron_pairs, *k_part], n * n)

    @cached_property
    def superoperator(self):
        """Vectorized generator as a sparse dim^2 x dim^2 matrix: the
        Hamiltonian block plus every bath block."""
        n = self.dim
        row, col = np.nonzero(self.hamiltonian)
        h_block = _csr(_left_right(row, col, self.hamiltonian[row, col], n, -1j, 1j), n * n)
        return sum((blk for blk in self.bath_blocks.values() if blk is not None), h_block)


def _vec(gen, rho):
    """Row-major vec of a state of the generator's dimension."""
    r = _as_matrix(rho)
    if r.shape[0] != gen.dim:
        raise DimensionMismatchError(gen.dim, r.shape[0], what="state")
    return r.reshape(-1)


def liouvillian_apply(gen, rho):
    """Right-hand side of the master equation at a given state."""
    return (gen.superoperator @ _vec(gen, rho)).reshape(gen.dim, gen.dim)


def floor_positivity(matrix):
    """Symmetrize and clip tiny negative eigenvalues, renormalizing trace.

    Eigenvalues in [-1e-9, 0) are floored to zero; anything lower is a real
    positivity violation and raises, as does a non-finite entry.
    """
    _require_finite_state(matrix)
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


# A dense exponential costs ~20 (dim^2)^3 complex flops per distinct step
# whatever |L dt| is; expm_multiply costs ~|L dt| sparse matvecs per step.
# On a 2-core x86-64 host one dense exponential takes ~0.1 s at dim 16 and
# 1.5 s at dim 30, while nine steps of the transfer ladder (|L| ~ 10) take
# 0.01 s on the expm_multiply path at dims 12 to 30.
DENSE_PROPAGATION_MAX_DIM = 16


def expm_dense(a):
    """exp(a) for a square ndarray by scaling and squaring.

    a is scaled by 2^-s so that its 1-norm is at most 1, where the degree-18
    Taylor polynomial is exact to 1/19! ~ 8e-18, then squared s times.
    A non-finite norm or result raises NumericsError.
    """
    norm = np.abs(a).sum(axis=0).max()
    if not math.isfinite(norm):
        raise NumericsError(f"exponent has non-finite norm {norm}")
    s = max(0, math.frexp(norm)[1])
    a = a * 2.0**-s
    eye = np.eye(a.shape[0], dtype=a.dtype)
    out = eye + a / 18.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(17, 0, -1):
            out = eye + (a @ out) / k
        for _ in range(s):
            out = out @ out
    if not np.isfinite(out).all():
        raise NumericsError(
            f"propagator exp(L dt) is not finite at |L dt|_1 = {norm:.3e}"
        )
    return out


def propagate(gen, rho0, t_grid):
    """Exact propagation of the master equation, one state per grid time.

    Each grid step applies exp(L dt) to the previous state. Up to
    DENSE_PROPAGATION_MAX_DIM the propagator is a dense exponential
    (expm_dense), computed once per distinct dt; above it, scipy's
    expm_multiply (Al-Mohy and Higham, SIAM J. Sci. Comput. 2011) acts on
    the vector without forming the propagator. An |L dt| that overflows, or
    a propagated state that is not finite, raises NumericsError. Output
    states are symmetrized and positivity-floored before validation, and the
    floored state starts the next step.
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

    lmat = gen.superoperator
    lnorm = float(abs(lmat).sum(axis=0).max())
    if gen.dim <= DENSE_PROPAGATION_MAX_DIM:
        lmat = lmat.toarray()
        cache = {}

        def advance(y, dt):
            if dt not in cache:
                cache[dt] = expm_dense(lmat * dt)
            return cache[dt] @ y

    else:
        from scipy.sparse.linalg import expm_multiply

        def advance(y, dt):
            with np.errstate(over="ignore", invalid="ignore"):
                y = expm_multiply(lmat * dt, y)
            if not np.isfinite(y).all():
                raise NumericsError(f"exp(L dt) rho is not finite at dt = {dt!r}")
            return y

    y = rho0.entries.reshape(-1)
    out = [rho0]
    for dt in np.diff(t):
        dt = float(dt)
        if not math.isfinite(lnorm * dt):
            raise NumericsError(f"|L dt|_1 overflows at dt = {dt!r}")
        repaired = floor_positivity(advance(y, dt).reshape(gen.dim, gen.dim))
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
