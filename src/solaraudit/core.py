"""Markovian open-system dynamics substrate.

Conventions: hbar = 1, energies and rates share one unit system and time is
measured in the inverse of that unit. States are dim x dim complex matrices
wrapped in DensityMatrix, which enforces Hermiticity, unit trace and
positivity (within a small floor). Hamiltonians are plain ndarrays; jump
operators are stored as Triplets, numpy (row, col, value) arrays, and a
generator's channels as one ChannelTable: every jump stacked by rows into
one Triplets, beside each channel's rate, bath tag and Bohr frequency.

The generator is

    d rho / dt = -i [H, rho] + sum_k rate_k (A_k rho A_k^dag
                 - 1/2 {A_k^dag A_k, rho})

with every channel tagged by the bath it exchanges energy with. The
algebra exists once, as a Triplets superoperator on vectorized states
summed from one product over all channels, blocked by bath; the same
product gives each bath's dim x dim heat operator D_b^dag(H), so heat is
booked per bath downstream. Products and sums run dense up to the size
of the dense-propagation superoperator and by sorting triplets above it.
Propagation applies the exact exponential of that generator between grid
times, restricted to the vec coordinates the generator can reach from the
initial state, which one search finds while it generates the generator's
columns there, never whole: a dense exponential on a set of up to
DENSE_PROPAGATION_MAX_DIM^2 coordinates, a truncated Taylor action on a
larger one, and each propagated state is floored and validated on its
entries in that set (a _Support) and written dense once. Everything here is
numpy; nothing imports scipy. Each state is diagonalised once: in one
eigvalsh up to DENSE_PROPAGATION_MAX_DIM levels, and above that block by
block, a propagated state over the connected blocks of that set, a state
built directly over those of its own nonzero entries.
"""

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .audit import BATH_IDS
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

# Propagation exponentiates L restricted to m reachable vec coordinates.
# A dense exponential costs ~20 m^3 complex flops per distinct step whatever
# |L dt| is; the Taylor action (_action) costs ~|L dt| sparse matvecs per
# step. On a 2-core x86-64 host one dense exponential takes ~0.1 s at
# m = 16^2 and 1.5 s at m = 30^2, while the eight steps of the n_max=60
# transfer ladder's product start (m = 301, |L dt|_1 = 1.2) take ~2 ms on
# the action. So the dense path serves m <= 16^2, the same bound sizes
# every dense Triplets, and a state of up to 16 levels is diagonalised in
# one eigvalsh rather than by blocks (_support_of).
DENSE_PROPAGATION_MAX_DIM = 16


def require_bath_id(bath_id):
    """Raise ValueError unless bath_id is one of BATH_IDS."""
    if bath_id not in BATH_IDS:
        raise ValueError(f"unknown bath_id {bath_id!r}, expected one of {BATH_IDS}")


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
    1e-12, |tr rho - 1| <= 1e-10 and min eigenvalue >= -1e-9, the spectrum
    computed in one eigvalsh up to DENSE_PROPAGATION_MAX_DIM levels and
    above that over the connected blocks of the nonzero entries. The checks
    read the entries of a _Support outside which the state is exactly 0:
    that of its nonzero entries (every coordinate up to
    DENSE_PROPAGATION_MAX_DIM levels), or, for a state propagate builds, its
    reachable set's. The entries array is frozen after validation.
    """

    __slots__ = ("entries", "dim")

    def __init__(self, entries, *, _spectrum=None, _support=None):
        # _spectrum: ascending eigenvalues of entries, known to the caller that
        # built them (propagate and steady_state pass floor_positivity's).
        # _support: a _Support outside which the freshly written entries are
        # exactly 0 (propagate's); the checks read only its entries, and the
        # array is taken as it is, without a copy
        mat = np.array(entries, dtype=complex) if _support is None else entries
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise StateValidationError(
                f"state must be a square matrix, got shape {mat.shape}"
            )
        support = _support_of(mat != 0) if _support is None else _support
        x = mat.reshape(-1)[support.index]
        _require_finite_state(x)
        defect = np.abs(x - x[support.transpose].conj()).max()
        if defect > HERMITICITY_TOL:
            raise StateValidationError(
                f"state is not Hermitian: max|rho - rho^dag| = {defect:.3e}"
            )
        tr = _trace(x, support)
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(
                f"state trace differs from 1 by {abs(tr - 1.0):.3e}"
            )
        if _spectrum is None:
            _spectrum = _eigenvalues(x, support)
        lo = _spectrum[0]
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
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim, dtype=complex) / dim)

    def population(self, index):
        return self.entries[index, index].real

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.entries)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _fits_dense(rows, cols):  # no larger than the dense-propagation superoperator
    return rows * cols <= DENSE_PROPAGATION_MAX_DIM**4


def _binned(at, values, size):
    """The size sums of complex values, values[i] added to sum at[i] in
    input order; a sum that overflows is left to the caller's checks."""
    out = np.zeros(size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(out, at, values)
    return out


def _runs(key, lookup):
    """Every pair of a query lookup[q] and an entry e of the ascending array
    key with key[e] == lookup[q], by query and then entry: (q, e) arrays."""
    lo = key.searchsorted(lookup)
    size = key.searchsorted(lookup, "right") - lo
    query = np.arange(lookup.size).repeat(size)
    return query, np.arange(query.size) + (lo + size - size.cumsum())[query]


class Triplets:
    """Sparse complex matrix: (row, col, data) arrays holding each position
    at most once, plus the shape; row and col are np.intp at every size.
    Triplets.summed adds repeated positions."""

    __slots__ = ("row", "col", "data", "shape", "nnz")

    def __init__(self, row, col, data, shape):
        self.row, self.col = np.asarray(row, dtype=np.intp), np.asarray(col, dtype=np.intp)
        self.data = np.asarray(data, dtype=complex)
        self.shape, self.nnz = tuple(shape), self.data.size

    @classmethod
    def from_dense(cls, a):
        """The nonzero entries of a 2d array, in row-major order."""
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2:
            raise ValueError(f"matrix must be 2d, got shape {a.shape}")
        row, col = (a != 0).nonzero()  # a complex array's own nonzero() is slower
        return cls(row, col, a[row, col], a.shape)

    @classmethod
    def summed(cls, parts, shape):
        """Sum of (row, col, value) parts, values at one position added in
        order, in (row, col) order; exact-zero sums are dropped. Bins all
        cells if _fits_dense, else sorts."""
        row, col, val = (np.concatenate(x) for x in zip(*parts))
        rows, cols = shape
        key = row * cols + col
        dense = _fits_dense(rows, cols)
        cells, at = (None, key) if dense else np.unique(key, return_inverse=True)
        sums = _binned(at, val, rows * cols if dense else cells.size)
        keep = np.flatnonzero(sums)
        return cls(*np.divmod(keep if dense else cells[keep], cols), sums[keep], shape)

    def __matmul__(self, x):
        """self @ x for x of shape (cols,) or (cols, k). Dense if _fits_dense;
        else each product binned at row k + column (_binned), in stored order.
        A product that overflows is left to the caller's checks."""
        with np.errstate(over="ignore", invalid="ignore"):
            if _fits_dense(*self.shape):
                return self.toarray() @ x
            cols = x.reshape(x.shape[0], -1)
            y = (self.data[:, None] * cols[self.col]).ravel()
        k, n = cols.shape[1], self.shape[0] * cols.shape[1]
        at = self.row if k == 1 else (self.row[:, None] * k + np.arange(k)).ravel()
        return _binned(at, y, n).reshape(self.shape[0], *x.shape[1:])

    def toarray(self):
        out = np.zeros(self.shape, dtype=complex)
        out[self.row, self.col] = self.data
        return out


def _product(a, b):
    """a @ b of two Triplets; dense when the product fits _fits_dense,
    else every entry (i, k) of a meets each entry of row k of b."""
    shape = (a.shape[0], b.shape[1])
    if _fits_dense(*shape):
        return Triplets.from_dense(a.toarray() @ b.toarray())
    order = np.argsort(b.row, kind="stable")
    ia, at = _runs(b.row[order], a.col)
    ib = order[at]
    return Triplets.summed([(a.row[ia], b.col[ib], a.data[ia] * b.data[ib])], shape)


def _checked_rates(rate, bath_id, bohr_frequency):
    """Channel rates as floats after the checks each channel gets, in order:
    a known bath id, a finite rate (else NumericsError for the first such
    channel: an upstream product overflowed) and a rate >= 0."""
    for b in dict.fromkeys(np.asarray(bath_id, dtype=str).tolist()):
        require_bath_id(b)
    rate = np.asarray(rate, dtype=float)
    if not all(0.0 <= r < math.inf for r in rate.tolist()):
        for k in np.flatnonzero(~np.isfinite(rate))[:1]:
            w = float(bohr_frequency[k])
            raise NumericsError(f"{bath_id[k]} rate overflows: {rate[k]} at Bohr frequency {w}")
        raise ValueError(f"channel rate must be >= 0, got {rate[rate < 0][0]}")
    return rate


def DissipationChannel(jump, rate, bath_id, bohr_frequency, check_bohr=True):
    """GKLS jump operators with their rates and bath tags, as a ChannelTable:
    one square jump (dense or Triplets) or a dense (count, n, n) stack, with
    a rate, bath_id, bohr_frequency and check_bohr per channel or one for
    all. bohr_frequency, the magnitude of the level gap a jump connects, is
    checked against the Hamiltonian at generator construction unless
    check_bohr is False (needed for jumps that do not connect eigenstates,
    itself a modeling statement worth keeping visible). The rates get every
    channel's checks (_checked_rates) here, before a later channel is built;
    the generator checks the jumps' entries."""
    shape = np.shape(jump)
    count = shape[0] if len(shape) == 3 else 1
    fields = (np.asarray(x, dtype=t) for x, t in (
        (rate, float), (bath_id, str), (bohr_frequency, float), (check_bohr, bool)))
    rate, bath_id, bohr, check_bohr = (a if a.ndim else a.repeat(count) for a in fields)
    rate = _checked_rates(rate, bath_id, bohr)
    if not isinstance(jump, Triplets):  # a stack's jumps stacked by rows
        jump = Triplets.from_dense(np.reshape(jump, (-1, shape[-1])) if len(shape) == 3 else jump)
    if jump.shape[0] != count * jump.shape[1]:
        raise ValueError(f"jump operator must be square, got {shape}")
    return ChannelTable(jump, rate, bath_id, bohr, check_bohr)


class ChannelTable(namedtuple("ChannelTable", "jump rate bath_id bohr_frequency check_bohr")):
    """Channels as arrays: every channel's n x n jump stacked by rows into
    one (count n) x n Triplets jump, channel k on rows k n to k n + n - 1,
    and per channel its rate, bath_id, bohr_frequency and check_bohr."""

    @classmethod
    def joined(cls, tables, dim):
        """The channels of a sequence of tables on dim x dim jumps, in order,
        as one table: DimensionMismatchError for a table of another n, and
        ValueError for a jump of other than count n rows or an entry outside
        its own table's rows, which would land in a neighbouring channel."""
        for t in tables:
            (rows, n), count = t.jump.shape, len(t.rate)
            if n != dim:
                raise DimensionMismatchError(dim, n, what="jump operator")
            if rows != count * n:
                raise ValueError(f"stacked jump of {count} channels must have {count * n} rows, "
                                 f"got {rows}")
        parts = [(t.jump.row, t.jump.col, t.jump.data, *t[1:]) for t in tables]
        row, col, value, *fields = (
            np.concatenate([p[i] for p in parts] or [np.zeros(0, kind)])
            for i, kind in enumerate((int, int, complex, float, str, float, bool))
        )
        start = list(accumulate((t.jump.shape[0] for t in tables), initial=0))
        lo, hi = np.repeat([start[:-1], start[1:]], [t.jump.nnz for t in tables], axis=1)
        row = row + lo
        if ((row < lo) | (row >= hi) | (col < 0) | (col >= dim)).any():
            raise ValueError(f"jump operator must be square with entries inside, got {(dim, dim)}")
        return cls(Triplets(row, col, value, (start[-1], dim)), *fields)

    def checked(self):
        """This table after the checks each channel gets (_checked_rates);
        a jump whose entries are not in strictly ascending (row, col) order,
        as when it holds a position twice, is summed as Triplets.summed sums."""
        rate, a = _checked_rates(self.rate, self.bath_id, self.bohr_frequency), self.jump
        key = a.row * a.shape[1] + a.col
        if (key[1:] <= key[:-1]).any():
            a = Triplets.summed([(a.row, a.col, a.data)], a.shape)
        fields = (np.asarray(x, dtype=t) for x, t in zip(self[2:], (str, float, bool)))
        return ChannelTable(a, rate, *fields)


class LindbladGenerator:
    """Hamiltonian plus tagged dissipation channels on one Hilbert space.

    The channels, one ChannelTable or a list of them (DissipationChannel
    and thermo.thermal_pairs build tables), are joined into one table and
    checked as a whole; every later step reads slices of it. Superoperators
    act on row-major vectorized states, vec(A X B) = kron(A, B^T) vec(X).
    Each bath tag b has the dissipator

        D_b = sum_k r_k A_k (x) conj(A_k) - 1/2 (K_b (x) I + I (x) K_b^T),
        Q_b = D_b^dag(H) = sum_k r_k A_k^dag H A_k - 1/2 {K_b, H} (heat operator),
        K_b = sum_k r_k A_k^dag A_k,

    over the channels k carrying the tag, and the full generator is the
    Hamiltonian part -i (H (x) I - I (x) H^T) plus every D_b.
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
        tables = [channels] if isinstance(channels, ChannelTable) else list(channels)
        self.table = ChannelTable.joined(tables, self.dim).checked()
        self._check_bohr_frequencies()

    @cached_property
    def channels(self):
        """The table's channels as one-channel tables, for benchmarks/tracing.py
        until it reads the table itself."""
        a, n = self.table.jump, self.dim
        bounds = np.searchsorted(a.row, n * np.arange(self.table.rate.size + 1)).tolist()
        return tuple(ChannelTable(Triplets(a.row[i:j] - k * n, a.col[i:j], a.data[i:j], (n, n)),
                                  *(x[k : k + 1] for x in self.table[1:]))
                     for k, (i, j) in enumerate(zip(bounds, bounds[1:])))

    def _entries(self, chosen):
        """Channel, row, col and value of the jump entries of the channels a
        mask chooses, the channels renumbered 0, 1, ... in table order."""
        a = self.table.jump
        owner, row = np.divmod(a.row, self.dim)
        keep = chosen[owner]
        return (np.cumsum(chosen) - 1)[owner[keep]], row[keep], a.col[keep], a.data[keep]

    def _check_bohr_frequencies(self):
        # Channel k's defect is the smaller of max|C_k -/+ w_k A_k|, C_k = H A_k
        # - A_k H: up to _fits_dense, H J - J H on the dense (count, n, n) stack
        # J of the checked jumps; above it, column block k of H J - (A_1 H |
        # A_2 H | ...) for the jumps side by side, J = (A_1 | A_2 | ...).
        checked = self.table.check_bohr & (self.table.rate != 0.0)
        n, count, h = self.dim, np.count_nonzero(checked), self.hamiltonian
        owner, row, col, a = self._entries(checked)
        bohr = self.table.bohr_frequency[checked]
        defect, jnorm = np.full((2, count), 0.0), np.full(count, 1e-300)
        if _fits_dense(n * count, n):
            j = Triplets(owner * n + row, col, a, (count * n, n)).toarray().reshape(count, n, n)
            with np.errstate(over="ignore", invalid="ignore"):  # as Triplets.summed sums
                c, w_j = h @ j - j @ h, bohr[:, None, None] * j
                defect[:] = [np.abs(c + sign * w_j).max(axis=(1, 2)) for sign in (-1.0, 1.0)]
        else:
            h = Triplets.from_dense(h)
            jcol = col + owner * n
            h_a = _product(h, Triplets(row, jcol, a, (n, n * count)))
            a_h = _product(Triplets(row + owner * n, col, a, (n * count, n)), h)
            a_h_col = a_h.col + a_h.row // n * n  # row block k -> column block k
            products = [(h_a.row, h_a.col, h_a.data), (a_h.row % n, a_h_col, -a_h.data)]
            w_a = bohr[owner] * a
            for d, sign in zip(defect, (-1.0, 1.0)):  # largest |entry| per block
                d_k = Triplets.summed([*products, (row, jcol, sign * w_a)], (n, n * count))
                np.maximum.at(d, d_k.col // n, np.abs(d_k.data))
        defect = defect.min(axis=0)
        np.maximum.at(jnorm, owner, np.abs(a))
        scale = max(1.0, np.abs(self.hamiltonian).max())
        for k in np.flatnonzero(defect > BOHR_CHECK_TOL * scale * jnorm)[:1]:
            raise ValueError(f"channel Bohr frequency {float(bohr[k])!r} does not match the "
                             f"Hamiltonian gap its jump connects (defect {defect[k]:.3e})")

    @cached_property
    def heat_operators(self):
        """Q_b per bath tag (dim x dim), every bath's built at once on first
        use; None for a tag no channel of nonzero rate carries. A Q_b that
        overflows raises NumericsError naming its bath, the first in BATH_IDS."""
        n, h, carried = self.dim, self.hamiltonian, self.table.bath_id[self.table.rate != 0.0]
        bath, (r, c, v), k_half = self._bath_terms
        # an entry v of M at ((k, l), (i, j)) sits at (k n + i, l n + j) of the
        # Kronecker part and adds H[i, k] v to sum_c r_c A_c^dag H A_c at (j, l)
        with np.errstate(over="ignore", invalid="ignore"):
            q = _binned(bath * n * n + c % n * n + c // n, h[r % n, r // n] * v, 3 * n * n)
            q = q.reshape(3, n, n) + k_half @ h + h @ k_half
        for b, q_b in zip(BATH_IDS, q):
            if not np.isfinite(q_b).all():
                raise NumericsError(f"heat operator of bath {b!r} is not finite")
        return {b: q_b if b in carried else None for b, q_b in zip(BATH_IDS, q)}

    @cached_property
    def _bath_terms(self):
        """From one product over the channels of nonzero rate, in BATH_IDS
        order: each entry's bath (its index in BATH_IDS), the entries (row,
        col, value) of every bath's sum_k r_k A_k (x) conj(A_k), and -K_b / 2
        per bath, (3, dim, dim), 0 for a bath no such channel carries."""
        chosen = self.table.rate != 0.0
        n, count = self.dim, np.count_nonzero(chosen)
        owner, row, col, a = self._entries(chosen)
        rates = self.table.rate[chosen]
        baths = np.searchsorted(BATH_IDS, self.table.bath_id[chosen])  # BATH_IDS is sorted
        present = np.flatnonzero(np.bincount(baths, minlength=len(BATH_IDS)))
        # M = sum_k r_k vec(A_k) vec(A_k)^dag, the columns r_k vec(A_k), each in
        # its bath's block of n^2 rows (one block per bath present), times the
        # rows vec(A_k)^dag, holds each bath's sum_k r_k A_k (x) conj(A_k) in its
        # block: M[(i, j), (k, l)] is entry (i n + k, j n + l). K_b[j, l] =
        # sum_i conj M[(i, j), (i, l)].
        vec = row * n + col
        block = np.searchsorted(present, baths)[owner] * n * n
        columns = Triplets(vec + block, owner, rates[owner] * a, (present.size * n * n, count))
        m = _product(columns, Triplets(owner, vec, a.conj(), (count, n * n)))
        (block, p), q, v = np.divmod(m.row, n * n), m.col, m.data
        bath = present[block]
        same = p // n == q // n
        at = (bath * n * n + p % n * n + q % n)[same]
        k_half = _binned(at, -0.5 * v[same].conj(), 3 * n * n).reshape(3, n, n)
        return bath, (p // n * n + q // n, p % n * n + q % n, v), k_half

    @cached_property
    def _parts(self):
        """What L sums, as one table of entries that _columns looks a column
        up in by key: each bath's sum_k r_k A_k (x) conj(A_k) entries in
        BATH_IDS order (key: the column), then the entries of G = -i H -
        sum_b K_b / 2 in row-major order, for G (x) I (key: dim^2 + the
        column; row: the row times dim) and for I (x) conj(G) (key: dim^2 +
        dim + the column; row: the row; value conjugated), stably sorted by
        key, so that one column's G entries run by row. Returns the entries'
        keys, rows and values; a column of L sums one key's entries of each
        of the three parts, which bounds L's norm (propagate's overflow
        guard)."""
        n = self.dim
        _, (r, c, v), k_half = self._bath_terms
        g = Triplets.from_dense(-1j * self.hamiltonian + sum(k_half))
        col, row, value = g.col + n * n, g.row, g.data
        parts = [(c, r, v), (col, row * n, value), (col + n, row, value.conj())]
        key, row, value = (np.concatenate(x) for x in zip(*parts))
        order = key.argsort(kind="stable")
        return key[order], row[order], value[order]

    @cached_property
    def superoperator(self):
        """Vectorized generator as dim^2 x dim^2 Triplets (_columns of every
        coordinate). steady_state and liouvillian_apply read it; propagate
        only for the norm of an |L dt| that may overflow."""
        return self._columns(np.arange(self.dim**2))

    def _columns(self, new):
        """L's entries in the ascending vec columns new, column new[k] of L
        as column k of dim^2 x new.size Triplets, where L = sum_b sum_k r_k
        A_k (x) conj(A_k) + G (x) I + I (x) conj(G), summed position by
        position in that order (Triplets.summed). Column a dim + b holds the
        bath products' entries in it, G (x) I's G[i, a] at row i dim + b,
        read from column a of G, and I (x) conj(G)'s conj(G[j, b]) at row
        a dim + j, read from column b (_parts): each column is summed whole,
        so any set of columns is that of the whole L, bitwise."""
        n, count = self.dim, new.size
        key, row, value = self._parts
        a, b = np.divmod(new, n)
        # each part's key per column, and the base of each of its entries' rows
        part, at = _runs(key, np.concatenate([new, a + n * n, b + (n * n + n)]))
        base = np.concatenate([0 * b, b, new - b])
        return Triplets.summed([(row[at] + base[part], part % count, value[at])], (n * n, count))

    def _reached(self, start):
        """The smallest set of vec coordinates holding a boolean vec mask
        start that L maps into itself, as a boolean mask, and L on it as
        Triplets renumbered 0, 1, ... in vec order, without assembling L
        whole: each round generates the columns the set gained in the round
        before (_columns) and adds the rows that hold their nonzero sums, so
        no column is generated twice."""
        keep = start.copy()
        new = np.flatnonzero(start)
        found = []
        while new.size:
            part = self._columns(new)
            found.append((part.row, new[part.col], part.data))
            rows = part.row[~keep[part.row]]  # ascending, as Triplets.summed sorts
            new = rows[np.diff(rows, prepend=-1) != 0]
            keep[new] = True
        index = np.flatnonzero(keep)
        row, col, value = (np.concatenate(x) for x in zip(*found))
        renumbered = (np.searchsorted(index, row), np.searchsorted(index, col), value)
        return keep, Triplets.summed([renumbered], (index.size,) * 2)


def _vec(gen, rho):
    """Row-major vec of a state, or of each state of a stack (..., dim, dim),
    of the generator's dimension."""
    r = _as_matrix(rho)
    if r.shape[-2:] != (gen.dim, gen.dim):
        raise DimensionMismatchError(gen.dim, r.shape[-1], what="state")
    return r.reshape(*r.shape[:-2], -1)


def liouvillian_apply(gen, rho):
    """Right-hand side of the master equation at a state, or at each state
    of a stack (..., dim, dim) in one product."""
    v = _vec(gen, rho)
    columns = gen.superoperator @ v.reshape(-1, v.shape[-1]).T
    return columns.T.reshape(*v.shape[:-1], gen.dim, gen.dim)


def floor_positivity(matrix):
    """Symmetrize and clip tiny negative eigenvalues, renormalizing trace.

    Eigenvalues in [-1e-9, -dim eps max|w|) are floored to zero along their
    eigenvectors. Those within dim eps max|w| of zero, the Hermitian
    eigensolver's own rounding of an exact zero, are left alone, so such a
    state comes back as exactly sym / tr. An eigenvalue below -1e-9 is a
    real positivity violation and raises, as does a non-finite entry.
    """
    mat = np.asarray(matrix)
    dim = mat.shape[0]
    return _floored(mat.reshape(-1), _full_support(dim))[0].reshape(dim, dim)


def _blocks(mask):
    """Connected components of a square boolean pattern, read as symmetric:
    one (count, size) index array per component size, a row per component,
    its indices ascending.

    Each index starts labelled by itself, then repeatedly takes the least
    label among its neighbours and its own, and then its label's label,
    until nothing changes; each component ends labelled by its least index.
    """
    row, col = np.nonzero(mask | mask.T)
    label = np.arange(mask.shape[0])
    while True:
        least = label.copy()
        np.minimum.at(least, row, label[col])
        least = least[least]
        if np.array_equal(least, label):
            break
        label = least
    size = np.bincount(label, minlength=label.size)[label]
    order = np.argsort(label, kind="stable")
    return [order[size[order] == s].reshape(-1, s) for s in np.flatnonzero(np.bincount(size))]


class _Support(namedtuple("_Support", "dim index transpose diagonal level blocks")):
    """A set of vec coordinates of a dim x dim state, closed under transpose,
    outside which the state is exactly 0; the state is then given by its
    entries on the set. index holds the set's ascending vec positions,
    transpose each one's transpose as a position in index, diagonal the
    positions in index of the diagonal entries and level their levels.
    blocks is None when the set is every coordinate (one eigvalsh of the
    whole state); else, per _blocks size, the (count, size, size) gather of
    the block cells from the entries followed by one zero slot, which every
    cell outside the set takes."""


def _full_support(dim):
    index = np.arange(dim * dim)
    transpose = index.reshape(dim, dim).T.ravel()
    return _Support(dim, index, transpose, index[:: dim + 1], index[:dim], None)


def _support_of(mask):
    """The _Support of the coordinates a dim x dim pattern or its transpose
    holds; every coordinate at up to DENSE_PROPAGATION_MAX_DIM levels, where
    one eigvalsh costs less than finding blocks."""
    dim = mask.shape[0]
    if dim <= DENSE_PROPAGATION_MAX_DIM:
        return _full_support(dim)
    mask = mask | mask.T
    index = np.flatnonzero(mask)
    if index.size == dim * dim:
        return _full_support(dim)
    at = np.full(dim * dim, index.size)
    at[index] = np.arange(index.size)
    row, col = np.divmod(index, dim)
    diagonal = np.flatnonzero(row == col)
    blocks = [at[b[:, :, None] * dim + b[:, None, :]] for b in _blocks(mask)]
    return _Support(dim, index, at[col * dim + row], diagonal, row[diagonal], blocks)


def _trace(x, support):
    """Trace of a state given on a support: its diagonal scattered into a
    length-dim vector and summed, in the order numpy's trace sums it."""
    d = np.zeros(support.dim, dtype=x.dtype)
    d[support.level] = x[support.diagonal]
    return d.sum().real


def _eigenvalues(x, support):
    """Ascending eigenvalues of a Hermitian state given by its entries on a
    support: one eigvalsh on the full support, else one batched eigvalsh
    per block size."""
    if support.blocks is None:
        return np.linalg.eigvalsh(x.reshape(support.dim, support.dim))
    padded = np.append(x, 0.0)
    return np.sort(np.concatenate([np.linalg.eigvalsh(padded[g]).ravel() for g in support.blocks]))


def _floored(x, support):
    """floor_positivity of a state given by its entries x on a support: the
    repaired entries, their ascending eigenvalues over the new trace (the
    clipped ones as 0, to rounding; _eigenvalues) and the support they are
    given on. Only an eigenvalue that needs clipping runs the full eigh on
    the dense state; its repair may fill any entry, so it comes back on the
    full support."""
    _require_finite_state(x)
    sym = 0.5 * (x + x[support.transpose].conj())
    w, dim = _eigenvalues(sym, support), support.dim
    if w[0] < -EIGENVALUE_FLOOR:
        raise StateValidationError(
            f"positivity violation: eigenvalue {w[0]:.3e} below -{EIGENVALUE_FLOOR:.0e}"
        )
    # the Hermitian eigensolver rounds a zero eigenvalue to within
    # dim eps max|w|; repairing that would spread noise into exact zeros
    rounding = dim * np.finfo(float).eps * max(-w[0], w[-1])
    if w[0] < -rounding:
        dense = np.zeros(dim * dim, dtype=sym.dtype)
        dense[support.index] = sym
        sym = dense.reshape(dim, dim)
        w, u = np.linalg.eigh(sym)
        neg = w < -rounding
        sym = (sym - (u[:, neg] * w[neg]) @ u[:, neg].conj().T).reshape(-1)
        w = np.sort(np.where(neg, 0.0, w))
        support = _full_support(dim)
    tr = _trace(sym, support)
    if tr <= 0:
        raise StateValidationError(f"state trace collapsed to {tr:.3e}")
    return sym / tr, w / tr, support


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


def _step_lengths(steps, tol):
    """Each step as the shortest step of its length, as a float: in
    ascending order, a step more than tol above the first of the current
    length starts the next length."""
    lengths = [0.0] * steps.size
    first = -math.inf
    for i in np.argsort(steps, kind="stable").tolist():
        if steps[i] - first > tol:
            first = float(steps[i])
        lengths[i] = first
    return lengths


def _norm1(col, value):
    """1-norm of a matrix given by its entries' columns and values: the
    largest column sum of |value|, 0 if it has none."""
    return float(np.bincount(col, np.abs(value)).max(initial=0.0))


# Al-Mohy and Higham's theta_m for the unit roundoff 2^-53: the degree-m
# Taylor polynomial of exp(A) acts to that backward error when |A|_1 <=
# theta_m (SIAM J. Sci. Comput. 33, 488, 2011, Table 3.1; degrees up to 30
# from Higham and Al-Mohy, Acta Numerica 19, 159, 2010, Table A.3).
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


def _degree_and_substeps(norm):
    """Taylor degree m and substep count s for an exponent of 1-norm norm:
    the least m s with norm <= s theta_m, the least such m on a tie."""
    if norm == 0:
        return 0, 1
    m = min(_THETA, key=lambda m: m * math.ceil(norm / _THETA[m]))
    return m, math.ceil(norm / _THETA[m])


def _action(a):
    """exp_l(x, dt) = exp(a dt) x for square Triplets a, without forming
    exp(a dt): Al-Mohy and Higham's truncated Taylor action (SIAM J. Sci.
    Comput. 33, 488, 2011, Algorithm 3.2).

    a is shifted by mu = tr(a) / n, b = a - mu I, and |b|_1 is taken
    exactly. A step takes s substeps, each the degree-m Taylor polynomial of
    exp(b dt / s) times exp(mu dt / s), with (m, s) from _degree_and_substeps
    of |b dt|_1. A substep's series stops early once two successive terms
    fall below 2^-53 of its sum in the max norm. A non-finite result raises
    NumericsError.
    """
    n = a.shape[0]
    mu = a.data[a.row == a.col].sum() / n
    diag = np.arange(n)
    b = Triplets.summed([(a.row, a.col, a.data), (diag, diag, np.full(n, -mu))], a.shape)
    norm = _norm1(b.col, b.data)
    at = (2 * b.row[:, None] + np.arange(2)).ravel()

    def apply(x):  # b x: both parts of every product binned in one bincount
        return np.bincount(at, (b.data * x[b.col]).view(float), 2 * n).view(complex)

    def exp_l(x, dt):
        if not math.isfinite(norm * dt):
            raise NumericsError(f"|L dt|_1 overflows at dt = {dt!r}")
        m, s = _degree_and_substeps(norm * dt)
        with np.errstate(over="ignore", invalid="ignore"):
            eta = np.exp(mu * dt / s)
            out = x
            for _ in range(s):
                term, last = out, np.abs(out).max()
                for j in range(1, m + 1):
                    term = apply(term)
                    term *= dt / (s * j)
                    now = np.abs(term).max()
                    out = out + term
                    if last + now <= _UNIT_ROUNDOFF * np.abs(out).max():
                        break
                    last = now
                out = eta * out
        if not np.isfinite(out).all():
            raise NumericsError(f"exp(L dt) rho is not finite at dt = {dt!r}")
        return out

    return exp_l


def _propagator(lmat, at):
    """advance(y, dt) = exp(L dt) y for L the square Triplets lmat on the
    coordinates of a vector y at its ascending positions at, outside which y
    is 0: a dense exponential per step length if lmat fits _fits_dense, else
    the Taylor action (_action). The result is 0 outside at."""
    if _fits_dense(*lmat.shape):
        sub = lmat.toarray()
        cache = {}

        def exp_l(x, dt):
            if dt not in cache:
                cache[dt] = expm_dense(sub * dt)
            return cache[dt] @ x

    else:
        exp_l = _action(lmat)

    def advance(y, dt):
        out = np.zeros_like(y)
        out[at] = exp_l(y[at], dt)
        return out

    return advance


def propagate(gen, rho0, t_grid):
    """Exact propagation of the master equation, one state per grid time.

    Each grid step applies exp(L dt) to the previous state, dt its step
    length: steps within 4 eps max|t| of one another, the rounding of the
    grid values, are one length, the shortest of them. L acts only on the
    smallest set of vec coordinates that holds rho0's support and that L
    maps into itself, an exact reduction: the other coordinates stay 0. L
    is never assembled whole: gen._reached finds that set column by column
    and returns L on it. If that set fits _fits_dense, the
    propagator is a dense exponential (expm_dense) of L on it, computed once
    per step length; otherwise a truncated Taylor series (_action, Al-Mohy
    and Higham, SIAM J. Sci. Comput. 2011) acts on the vector without
    forming the propagator. An |L dt|_1 of the whole L that overflows
    (checked against a bound from L's parts, and against L's own norm only
    if twice that bound overflows), or a propagated state that is not
    finite, raises NumericsError. Output states are symmetrized,
    positivity-floored (_floored) and validated on their kept entries, the
    set closed under transpose (a _Support), every coordinate up to
    DENSE_PROPAGATION_MAX_DIM levels, and written dense once; the floored
    entries start the next step. Only a state whose floor clipped an
    eigenvalue is repaired dense, and only then (or when the set is not
    closed under transpose) is it asked whether it left the set; if so, the
    set is found again from it. Each state is diagonalised once: in one
    eigvalsh up to DENSE_PROPAGATION_MAX_DIM levels; above that block by
    block, since the set, read as a dim x dim pattern, splits into
    connected blocks (_blocks, found once per set) outside which the state
    is exactly 0.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1d array")
    if not np.isfinite(t).all():
        raise ValueError("t_grid must be finite")
    if t[0] < 0:
        raise ValueError("t_grid must start at t >= 0")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("t_grid must be strictly ascending")
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(rho0)
    if rho0.dim != gen.dim:
        raise DimensionMismatchError(gen.dim, rho0.dim, what="initial state")

    # the whole generator's norm: a span that overflows it raises whatever
    # rho0 reaches. A column of L sums one column of the bath products, one
    # of G for G (x) I and one of G for I (x) conj(G), each one key of
    # _parts, so its sum is at most three times the largest sum of |value|
    # over one key. Only a span that overflows twice that bound needs L's
    # own norm, and so the whole L.
    key, _, value = gen._parts
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 3 * _norm1(key, value)
    lnorm = None
    dim = gen.dim

    def restrict(y):  # the set a dense vec y reaches, its states' support and its propagator
        keep, lmat = gen._reached(y != 0)
        mask = keep.reshape(dim, dim)
        support = _support_of(mask)
        at = np.flatnonzero(keep[support.index])
        return keep, support, np.array_equal(mask, mask.T), _propagator(lmat, at)

    y = rho0.entries.reshape(-1)
    keep, support, closed, advance = restrict(y)
    x = y[support.index]
    out = [rho0]
    # each grid value is rounded to within an ulp of max|t|, so two steps
    # of one length differ by up to four of those
    for dt in _step_lengths(np.diff(t), 4 * np.finfo(float).eps * t[-1]):
        if not math.isfinite(2 * bound * dt):
            if lnorm is None:
                lnorm = _norm1(gen.superoperator.col, gen.superoperator.data)
            if not math.isfinite(lnorm * dt):
                raise NumericsError(f"|L dt|_1 overflows at dt = {dt!r}")
        x, spectrum, held = _floored(advance(x, dt), support)
        y = np.zeros(dim * dim, dtype=complex)
        y[held.index] = x
        # a repair, or the symmetrization of a set not closed under
        # transpose, may leave the set: if so, propagate from here on a new one
        if held is not support or not closed:
            if y[~keep].any():
                keep, support, closed, advance = restrict(y)
            x = y[support.index]
        out.append(DensityMatrix(y.reshape(dim, dim), _spectrum=spectrum, _support=support))
    return out


@lru_cache(maxsize=8)  # an entry is two dense L's worth: keep a few dims only
def _hermitian_basis(dim):
    """T and T^dag, read-only, for the dim^2 x dim^2 unitary T whose columns
    are vecs of Hermitian matrices: (E_kl + E_lk) / sqrt 2 for each k < l,
    then (-i E_kl + i E_lk) / sqrt 2 for each k < l, then E_kk for each k.
    A GKLS generator is real in it. The order is chosen for speed: the
    rings' SVDs run 1.3-2.5x faster than with the columns in vec order."""
    k, l = np.triu_indices(dim, 1)
    upper, lower, pair, r = k * dim + l, l * dim + k, np.arange(k.size), math.sqrt(0.5)
    t = np.zeros((dim * dim, dim * dim), dtype=complex)
    t[upper, pair] = t[lower, pair] = r
    t[upper, pair + k.size], t[lower, pair + k.size] = -1j * r, 1j * r
    t[np.arange(dim) * (dim + 1), 2 * k.size + np.arange(dim)] = 1.0
    adjoint = t.conj().T.copy()
    t.setflags(write=False)
    adjoint.setflags(write=False)
    return t, adjoint


def steady_state(gen):
    """Stationary state from the null space of the vectorized generator.

    SVD-based, in real arithmetic: L maps Hermitian matrices to Hermitian
    matrices, so in the Hermitian basis T (_hermitian_basis) it is the real
    matrix Re(T^dag L T), with L's singular values. A basis matrix whose
    column there is exactly zero (a trap level's population) is itself a
    null vector, and the SVD runs on the other columns. The null vector,
    that basis matrix or else the right singular vector of the smallest
    singular value mapped back by T, is reshaped (a Hermitian matrix),
    trace-normalized and positivity-floored. A null space of dimension > 1
    (zero columns included), a residual against L above tolerance and a
    superoperator with a non-finite entry all raise.
    """
    m = gen.superoperator.toarray()
    if not np.isfinite(m).all():
        raise NumericsError("superoperator has a non-finite entry; no steady state")
    t, adjoint = _hermitian_basis(gen.dim)
    a = (adjoint @ m @ t).real
    zero = ~a.any(axis=0)
    _, svals, vh = np.linalg.svd(a[:, ~zero])
    smax = svals[0] if svals.size else 0.0
    null_tol = max(1e-12 * smax, 1e3 * np.finfo(float).eps * smax)
    null_count = np.count_nonzero(zero) + np.count_nonzero(svals <= null_tol)
    if null_count > 1:
        raise DegenerateSteadyStateError(null_count)
    v = t[:, zero.argmax()] if zero.any() else t @ vh[-1]
    rho = v.reshape(gen.dim, gen.dim)
    tr = rho.trace()
    if abs(tr) < 1e-12 * np.linalg.norm(v):
        raise DegenerateSteadyStateError(null_count or 1)
    rho, spectrum, _ = _floored((rho / tr).reshape(-1), _full_support(gen.dim))
    rho = rho.reshape(gen.dim, gen.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        residual = np.abs(m @ rho.reshape(-1)).max()
    if residual > STEADY_STATE_RESIDUAL_TOL:
        raise SteadyStateConvergenceError(residual, STEADY_STATE_RESIDUAL_TOL)
    return DensityMatrix(rho, _spectrum=spectrum)
