"""Dynamics substrate checked against closed forms and brute-force oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from solaraudit import core
from solaraudit import (
    DegenerateSteadyStateError,
    DensityMatrix,
    DimensionMismatchError,
    DissipationChannel,
    LindbladGenerator,
    NumericsError,
    StateValidationError,
    SteadyStateConvergenceError,
    floor_positivity,
    heat_current,
    liouvillian_apply,
    propagate,
    steady_state,
)
from solaraudit.core import BATH_IDS, ChannelTable, Triplets, expm_dense
from solaraudit.fmo import PS_TO_INTERNAL, build_model, default_config
from solaraudit.models import (
    ThreeLevelParams,
    birth_death_rates,
    decay_generator,
    dressed_product_state,
    hamiltonian_transfer_generator,
)
from solaraudit.thermo import thermal_pairs

from dissipator_oracle import (
    complex_steady_state,
    dense_jumps,
    dissipator_action,
    gibbs_state,
    heat_operator,
    reachable,
    stepwise_propagate,
)


def qubit_decay_generator(omega=1.0, gamma=0.1):
    h = np.diag([0.0, omega]).astype(complex)
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    ch = DissipationChannel(lower, gamma, "loss", omega)
    return LindbladGenerator(h, [ch])


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace())


def floored(matrix):
    """core._floored of a matrix on every coordinate: the repaired matrix
    and its spectrum."""
    dim = len(matrix)
    x, spectrum, _ = core._floored(matrix.reshape(-1), core._full_support(dim))
    return x.reshape(dim, dim), spectrum


# ----------------------------------------------------------- state validation


def test_density_matrix_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(StateValidationError):
        DensityMatrix(bad)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(StateValidationError):
        DensityMatrix(np.diag([0.7, 0.7]).astype(complex))


def test_density_matrix_rejects_negative_state():
    with pytest.raises(StateValidationError):
        DensityMatrix(np.diag([1.2, -0.2]).astype(complex))


def test_state_below_the_eigenvalue_floor_raises_on_every_path(monkeypatch):
    # one eigenvalue just past -EIGENVALUE_FLOOR is rejected by a direct
    # DensityMatrix, by floor_positivity, and by a propagation step that
    # lands on it, where the floor's spectrum stands in for eigvalsh
    bad = np.diag([1.0 + 2 * core.EIGENVALUE_FLOOR, -2 * core.EIGENVALUE_FLOOR]).astype(complex)
    with pytest.raises(StateValidationError, match="eigenvalue"):
        DensityMatrix(bad)
    with pytest.raises(StateValidationError, match="eigenvalue"):
        floor_positivity(bad)
    # the mixed qubit reaches the two populations, where bad lives: the
    # mocked propagator sends any state on them to bad's diagonal
    mixed = DensityMatrix.maximally_mixed(2)
    monkeypatch.setattr(core, "expm_dense", lambda a: np.outer(np.diag(bad), np.ones(len(a))))
    with pytest.raises(StateValidationError, match="eigenvalue"):
        propagate(qubit_decay_generator(), mixed, [0.0, 1.0])
    # half the floor passes, and the floor's spectrum is the repaired
    # state's to rounding
    near = np.diag([1.0 + 0.5 * core.EIGENVALUE_FLOOR, -0.5 * core.EIGENVALUE_FLOOR]).astype(complex)
    DensityMatrix(near)
    fixed, spectrum = floored(near)
    assert np.abs(spectrum - np.linalg.eigvalsh(fixed)).max() <= 1e-15


def test_density_matrix_rejects_non_finite_entries():
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.0]), np.diag([1.0, np.nan])):
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityMatrix(bad)


def test_density_matrix_constructors():
    rho = DensityMatrix.pure([1.0, 1.0])
    assert rho.population(0) == pytest.approx(0.5)
    assert DensityMatrix.ground(3).population(0) == 1.0
    mixed = DensityMatrix.maximally_mixed(4)
    assert np.allclose(mixed.eigenvalues(), 0.25)
    pops = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
    assert pops.population(2) == pytest.approx(0.5)
    with pytest.raises(StateValidationError, match=r"square matrix, got shape \(2, 3\)"):
        DensityMatrix(np.full((2, 3), 0.5))
    with pytest.raises(StateValidationError, match="nonzero amplitude vector"):
        DensityMatrix.pure([0.0, 0.0])


def test_gibbs_state_populations():
    h = np.diag([0.0, 1.0, 2.5]).astype(complex)
    t = 0.8
    rho = gibbs_state(h, t)
    expected = np.exp(-np.array([0.0, 1.0, 2.5]) / t)
    expected /= expected.sum()
    assert np.allclose(np.diag(rho.entries).real, expected, atol=1e-14)


# ------------------------------------------------------- channels and algebra


def test_channel_rejects_negative_rate():
    jump = np.zeros((2, 2), dtype=complex)
    jump[0, 1] = 1.0
    with pytest.raises(ValueError):
        DissipationChannel(jump, -0.1, "loss", 1.0)


def test_channel_rate_that_is_not_finite_is_a_numerical_failure():
    # an upstream product that overflowed, not a bad input: the one line
    # names the bath, the Bohr frequency and the value
    jump = np.zeros((2, 2), dtype=complex)
    jump[0, 1] = 1.0
    for rate in (np.inf, -np.inf, np.nan):
        needle = f"^abs rate overflows: {rate} at Bohr frequency 1.5$"
        with pytest.raises(NumericsError, match=needle):
            DissipationChannel(jump, rate, "abs", 1.5)
    # the bath id is checked first
    with pytest.raises(ValueError, match="unknown bath_id"):
        DissipationChannel(jump, np.inf, "work", 1.5)


def test_channel_rejects_unknown_bath():
    jump = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        DissipationChannel(jump, 0.1, "work", 0.0)


def test_dissipator_action_matches_direct_formula():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = random_state(rng, 3)
    ch = DissipationChannel(a, 0.37, "loss", 0.0, check_bohr=False)
    r = rho.entries
    expected = 0.37 * (
        a @ r @ a.conj().T
        - 0.5 * (a.conj().T @ a @ r + r @ a.conj().T @ a)
    )
    assert np.abs(dissipator_action(ch, rho) - expected).max() < 1e-14
    gen = LindbladGenerator(np.zeros((3, 3)), [ch])
    assert np.abs(liouvillian_apply(gen, rho) - expected).max() < 1e-14
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    gen = LindbladGenerator(h, [ch])
    q = heat_operator(ch, h)
    assert np.abs(gen.heat_operators["loss"] - q).max() <= 1e-13 * np.abs(q).max()
    assert gen.heat_operators["abs"] is None and gen.heat_operators["sink"] is None
    assert heat_current(gen, "abs", rho) == 0.0 and heat_current(gen, "sink", rho) == 0.0


def test_superoperator_matches_direct_application():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(3, 3))
    h = (h + h.T).astype(complex)
    chans = []
    for _ in range(2):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        chans.append(DissipationChannel(a, rng.uniform(0.1, 1.0), "loss", 0.0, check_bohr=False))
    gen = LindbladGenerator(h, chans)
    rho = random_state(rng, 3)
    direct = -1j * (h @ rho.entries - rho.entries @ h)
    for ch in chans:
        direct += dissipator_action(ch, rho)
    via_superop = (gen.superoperator @ rho.entries.reshape(-1)).reshape(3, 3)
    assert np.abs(via_superop - direct).max() < 1e-13
    assert np.abs(liouvillian_apply(gen, rho) - direct).max() < 1e-13


def test_generator_rejects_malformed_parts():
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    ch = DissipationChannel(lower, 0.1, "loss", 1.0)
    with pytest.raises(ValueError, match="must be square"):
        LindbladGenerator(np.zeros((2, 3)), [ch])
    with pytest.raises(ValueError, match="not Hermitian"):
        LindbladGenerator(np.array([[0.0, 1.0], [0.0, 1.0]]), [ch])
    with pytest.raises(DimensionMismatchError, match="jump operator has dimension 2, expected 3"):
        LindbladGenerator(np.diag([0.0, 1.0, 2.0]), [ch])


def test_bohr_frequency_check_rejects_wrong_gap():
    h = np.diag([0.0, 1.0]).astype(complex)
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    with pytest.raises(ValueError):
        LindbladGenerator(h, [DissipationChannel(lower, 0.1, "loss", 0.4)])
    # correct gap and opt-out both construct fine
    LindbladGenerator(h, [DissipationChannel(lower, 0.1, "loss", 1.0)])
    LindbladGenerator(h, [DissipationChannel(lower, 0.1, "loss", 0.4, check_bohr=False)])
    # one wrong gap among correct channels of both directions is found
    h3 = np.diag([0.0, 1.0, 3.0]).astype(complex)
    lower01 = np.zeros((3, 3), dtype=complex)
    lower01[0, 1] = 1.0
    lower12 = np.zeros((3, 3), dtype=complex)
    lower12[1, 2] = 1.0
    good = [thermal_pairs(["loss", "abs"], 0.5, [lower01, lower12], [1.0, 2.0], [0.1, 0.1])]
    LindbladGenerator(h3, good)
    with pytest.raises(ValueError, match="frequency 2.5 "):
        LindbladGenerator(h3, good + [DissipationChannel(lower12.T, 0.1, "loss", 2.5)])


@pytest.mark.parametrize("make, k, products, message", [
    # the decay ring: 5 channels of 3 levels, inside _fits_dense
    pytest.param(lambda: ring_start("toy_decay")[0], 3, 0, "channel Bohr frequency 1.0 does not "
                 "match the Hamiltonian gap its jump connects (defect 2.500e-01)", id="dense-stack"),
    # the n_max = 20 ladder: 160 channels of 63 levels, above it
    pytest.param(lambda: product_start_ladder(20)[0], 81, 2, "channel Bohr frequency "
                 "3.70502809077426 does not match the Hamiltonian gap its jump connects "
                 "(defect 1.768e-01)", id="triplets"),
])
def test_bohr_check_rejects_a_wrong_gap_in_either_form(monkeypatch, make, k, products, message):
    # up to _fits_dense the check runs on the dense stack of the checked
    # jumps and makes no Triplets product; above it, it makes two. Either
    # form names the wrong channel with its defect, and neither checks a
    # channel of rate 0 or one that opts out
    gen = make()
    table, calls, product = gen.table, [], core._product
    monkeypatch.setattr(core, "_product", lambda a, b: calls.append(a.shape) or product(a, b))
    bohr = table.bohr_frequency.copy()
    bohr[k] += 0.25
    with pytest.raises(ValueError) as info:
        LindbladGenerator(gen.hamiltonian, table._replace(bohr_frequency=bohr))
    assert str(info.value) == message
    assert len(calls) == products
    rate, check_bohr = table.rate.copy(), table.check_bohr.copy()
    rate[k], check_bohr[k] = 0.0, False
    for skipped in (dict(rate=rate), dict(check_bohr=check_bohr)):
        LindbladGenerator(gen.hamiltonian, table._replace(bohr_frequency=bohr, **skipped))


def test_channel_stores_sparse_jump():
    dense = np.zeros((3, 3), dtype=complex)
    dense[0, 2] = 0.5
    ch = DissipationChannel(dense, 0.1, "loss", 0.0, check_bohr=False)
    assert isinstance(ch.jump, Triplets) and ch.jump.nnz == 1
    assert np.array_equal(ch.jump.toarray(), dense)
    again = DissipationChannel(ch.jump, 0.1, "loss", 0.0, check_bohr=False)
    assert np.array_equal(again.jump.toarray(), dense)
    with pytest.raises(ValueError, match="must be square"):
        DissipationChannel(np.zeros((2, 3)), 0.1, "loss", 0.0)
    with pytest.raises(ValueError, match=r"matrix must be 2d, got shape \(2, 2, 2\)"):
        Triplets.from_dense(np.zeros((2, 2, 2)))
    # a Triplets jump's entries are checked, and summed, by the generator
    for bad in (Triplets([0], [3], [1.0], (3, 3)), Triplets([-1], [0], [1.0], (3, 3))):
        with pytest.raises(ValueError, match="must be square"):
            LindbladGenerator(np.zeros((3, 3)), [DissipationChannel(bad, 0.1, "loss", 0.0)])
    # a jump holding one position twice means their sum, on the dense-
    # propagation path (dim 3) and on the Taylor action one (dim 20) alike
    for dim in (3, 20):
        twice = Triplets([0, 0, 2], [1, 1, 0], [0.25, 0.5j, 1.0], (dim, dim))
        summed = np.zeros((dim, dim), dtype=complex)
        summed[0, 1], summed[2, 0] = 0.25 + 0.5j, 1.0
        ch = DissipationChannel(twice, 0.1, "loss", 0.0, check_bohr=False)
        jump = LindbladGenerator(np.zeros((dim, dim)), [ch]).table.jump
        assert jump.nnz == 2 and np.array_equal(jump.toarray(), summed)
        h = np.diag(np.arange(dim, dtype=float))
        gen = LindbladGenerator(h, [ch]).superoperator
        ref = LindbladGenerator(h, [DissipationChannel(summed, 0.1, "loss", 0.0, check_bohr=False)])
        assert np.array_equal(gen.toarray(), ref.superoperator.toarray())
        x = np.arange(dim * dim) + 1j
        assert np.abs(gen @ x - ref.superoperator.toarray() @ x).max() <= 1e-13


def qubit_table(**fields):
    """A channel table on a qubit: by default the lowering jump |0><1| at
    rate 0.1 on rows 0-1 of the stacked jump, then the raising jump on rows
    2-3, both abs at gap 1.5; fields replace the defaults, row, col, value
    and shape those of the stacked jump."""
    table = dict(
        row=[0, 3], col=[1, 0], value=[1.0, 1.0], shape=(4, 2), rate=[0.1, 0.05],
        bath_id=["abs", "abs"], bohr_frequency=[1.5, 1.5], check_bohr=[True, True],
    )
    table.update(fields)
    jump = Triplets(*(table.pop(x) for x in ("row", "col", "value", "shape")))
    return ChannelTable(jump, **{k: np.asarray(v) for k, v in table.items()})


def test_channel_table_checks_keep_the_channel_messages():
    # a table fed straight to the generator gets every check of a
    # DissipationChannel at once, with the same messages
    h = np.diag([0.0, 1.5]).astype(complex)
    down = DissipationChannel(np.array([[0, 1], [0, 0]]), 0.1, "abs", 1.5)
    up = DissipationChannel(np.array([[0, 0], [1, 0]]), 0.05, "abs", 1.5)
    listed = LindbladGenerator(h, [down, up])
    gen = LindbladGenerator(h, qubit_table())
    assert np.array_equal(gen.superoperator.toarray(), listed.superoperator.toarray())
    # the first channel whose rate is not finite is named; a later one at
    # another gap is not
    for rate in (np.inf, -np.inf, np.nan):
        table = qubit_table(
            row=[0, 3, 4], col=[1, 0, 1], value=[1.0] * 3, shape=(6, 2),
            rate=[0.1, rate, np.inf], bath_id=["abs"] * 3, bohr_frequency=[1.5, 1.5, 9.0],
            check_bohr=[True] * 3,
        )
        needle = f"^abs rate overflows: {rate} at Bohr frequency 1.5$"
        with pytest.raises(NumericsError, match=needle):
            LindbladGenerator(h, table)
    with pytest.raises(ValueError, match=r"^channel rate must be >= 0, got -0.05$"):
        LindbladGenerator(h, qubit_table(rate=[0.1, -0.05]))
    for row, col in (([0, 4], [1, 0]), ([-1, 3], [1, 0]), ([0, 3], [2, 0])):
        with pytest.raises(ValueError, match=r"must be square with entries inside, got \(2, 2\)"):
            LindbladGenerator(h, qubit_table(row=row, col=col))
    # the jump's level count is the table's: a qubit table on three levels
    h3 = np.diag([0.0, 1.5, 4.0])
    with pytest.raises(DimensionMismatchError, match="jump operator has dimension 2, expected 3"):
        LindbladGenerator(h3, qubit_table())
    with pytest.raises(ValueError, match="stacked jump of 2 channels must have 4 rows, got 6"):
        LindbladGenerator(h, qubit_table(shape=(6, 2)))
    # an entry outside its own table's rows never lands in a neighbour's
    first = DissipationChannel(np.eye(3), 0.1, "loss", 0.0, check_bohr=False)
    stray = DissipationChannel(Triplets([-1], [0], [1.0], (3, 3)), 0.1, "loss", 0.0, check_bohr=False)
    with pytest.raises(ValueError, match="must be square"):
        LindbladGenerator(h3, [first, stray])
    # the bath id is checked first
    with pytest.raises(ValueError, match="unknown bath_id 'work'"):
        LindbladGenerator(h, qubit_table(bath_id=["abs", "work"], rate=[0.1, np.inf]))
    with pytest.raises(ValueError, match="frequency 2.5 "):
        LindbladGenerator(h, qubit_table(bohr_frequency=[1.5, 2.5]))
    LindbladGenerator(h, qubit_table(bohr_frequency=[1.5, 2.5], check_bohr=[True, False]))
    # a channel holding one position twice means their sum, as in a
    # DissipationChannel; the other channel keeps its entry
    twice = qubit_table(row=[0, 0, 3], col=[1, 1, 0], value=[0.25, 0.5j, 1.0])
    gen = LindbladGenerator(h, twice)
    assert np.array_equal(gen.table.jump.row, [0, 3])
    assert np.array_equal(gen.table.jump.data, [0.25 + 0.5j, 1.0])
    summed = DissipationChannel(Triplets([0, 0], [1, 1], [0.25, 0.5j], (2, 2)), 0.1, "abs", 1.5)
    ref = LindbladGenerator(h, [summed, up])
    assert np.array_equal(gen.superoperator.toarray(), ref.superoperator.toarray())


def test_triplets_sum_duplicates_and_match_dense():
    # a 100 x 100 matrix (a dim-10 superoperator) is summed and squared
    # dense, a 441 x 441 one (dim 21) by sorting; both agree with numpy,
    # and a position whose values cancel exactly is not stored
    rng = np.random.default_rng(5)
    for size in (100, 441):
        row, col = rng.integers(0, size - 1, size=(2, 3000))
        val = rng.normal(size=3000) + 1j * rng.normal(size=3000)
        row, col = np.append(row, [size - 1] * 2), np.append(col, [size - 1] * 2)
        val = np.append(val, [0.5 + 2j, -0.5 - 2j])
        expected = np.zeros((size, size), dtype=complex)
        np.add.at(expected, (row, col), val)
        parts = [(row[:1000], col[:1000], val[:1000]), (row[1000:], col[1000:], val[1000:])]
        t = Triplets.summed(parts, (size, size))
        assert t.nnz == np.count_nonzero(expected) == np.unique(t.row * size + t.col).size
        # values at one position are added in input order, as np.unique's
        # inverse index would bin them: the sums are bit-identical
        cells, at = np.unique(row * size + col, return_inverse=True)
        sums = np.bincount(at, val.real) + 1j * np.bincount(at, val.imag)
        assert np.array_equal(t.data, sums[sums != 0])
        assert np.abs(t.toarray() - expected).max() <= 1e-14
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        assert np.abs(t @ x - expected @ x).max() <= 1e-12
        square = expected @ expected
        prod = core._product(t, t)
        assert np.abs(prod.toarray() - square).max() <= 1e-12 * np.abs(square).max()
    ladder = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2,
        gamma_h=0.01, gamma_c=0.01,
    )
    for gen in (
        build_model(default_config()).generator,
        hamiltonian_transfer_generator(ladder, 6),
    ):
        x = random_state(rng, gen.dim).entries.reshape(-1)
        m = gen.superoperator
        assert m.shape == (gen.dim**2, gen.dim**2)
        assert np.abs(m @ x - m.toarray() @ x).max() <= 1e-13 * np.abs(m.data).max()


def test_heat_operators_match_direct_formula():
    # every bath of the trace model and of a dressed transfer ladder: the
    # heat operator, the heat current read off it and the summed generator
    # against the per-channel direct formulas
    ladder = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2,
        gamma_h=0.01, gamma_c=0.01,
    )
    rng = np.random.default_rng(17)
    for gen in (
        build_model(default_config()).generator,
        hamiltonian_transfer_generator(ladder, 6),
    ):
        h = gen.hamiltonian
        rho = random_state(rng, gen.dim)
        r = rho.entries
        total = -1j * (h @ r - r @ h)
        for bath in BATH_IDS:
            direct = dissipator_action(gen.table, rho, bath)
            total = total + direct
            q = gen.heat_operators[bath]
            if q is None:
                assert bath not in gen.table.bath_id and heat_current(gen, bath, rho) == 0.0
                continue
            expected_q = heat_operator(gen.table, h, bath)
            assert np.abs(q - expected_q).max() <= 1e-13 * np.abs(expected_q).max()
            scale = np.linalg.norm(direct) * np.linalg.norm(h)
            expected = np.trace(direct @ h).real
            assert abs(heat_current(gen, bath, rho) - expected) <= 1e-13 * scale
        assert np.abs(liouvillian_apply(gen, rho) - total).max() <= 1e-13 * np.abs(total).max()


def test_superoperator_matches_kron_formula():
    ladder = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2,
        gamma_h=0.01, gamma_c=0.01,
    )
    for gen in (
        build_model(default_config()).generator,
        hamiltonian_transfer_generator(ladder, 6),
    ):
        h, eye = gen.hamiltonian, np.eye(gen.dim)
        expected = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for a, rate in zip(dense_jumps(gen.table), gen.table.rate):
            k = a.conj().T @ a
            expected += rate * (
                np.kron(a, a.conj()) - 0.5 * np.kron(k, eye) - 0.5 * np.kron(eye, k.T)
            )
        assert np.abs(gen.superoperator.toarray() - expected).max() <= 1e-13


def test_expm_dense_matches_scipy_on_fmo_generator():
    lmat = build_model(default_config()).generator.superoperator.toarray()
    for dt in (0.05 * PS_TO_INTERNAL, 1.0, 100.0):
        ref = scipy.linalg.expm(lmat * dt)
        # s squarings of a norm-one matrix amplify rounding by up to 2^s,
        # i.e. by about the norm of L dt
        tol = 1e-15 * np.abs(lmat * dt).sum(axis=0).max()
        assert np.abs(expm_dense(lmat * dt) - ref).max() <= tol, dt


def test_expm_dense_rejects_non_finite():
    with pytest.raises(NumericsError):
        expm_dense(np.array([[np.inf]]))
    with pytest.raises(NumericsError):
        expm_dense(np.array([[1000.0]]))  # e^1000 overflows


# ------------------------------------------------------------------ propagate


def test_propagate_qubit_decay_closed_form():
    omega, gamma = 1.3, 0.21
    gen = qubit_decay_generator(omega, gamma)
    rho0 = DensityMatrix.pure([np.sqrt(0.4), np.sqrt(0.6)])
    ts = np.array([0.0, 0.7, 2.4, 5.0])
    states = propagate(gen, rho0, ts)
    for t, rho in zip(ts, states):
        p1 = 0.6 * np.exp(-gamma * t)
        coh = np.sqrt(0.24) * np.exp(-0.5 * gamma * t) * np.exp(1j * omega * t)
        assert abs(rho.population(1) - p1) < 1e-12
        assert abs(rho.entries[0, 1] - coh) < 1e-12


def test_propagate_unitary_rabi_oscillation():
    g = 0.8
    h = np.array([[0.0, g], [g, 0.0]], dtype=complex)
    gen = LindbladGenerator(h, [])
    ts = np.linspace(0.0, 3.0, 7)
    states = propagate(gen, DensityMatrix.ground(2), ts)
    for t, rho in zip(ts, states):
        assert abs(rho.population(1) - np.sin(g * t) ** 2) < 1e-12


def test_propagate_no_channels_eigenstate_constant():
    h = np.diag([0.0, 2.0, 5.0]).astype(complex)
    gen = LindbladGenerator(h, [])
    rho0 = DensityMatrix(np.diag([0.1, 0.6, 0.3]))
    states = propagate(gen, rho0, np.linspace(0.0, 10.0, 5))
    for rho in states:
        assert np.abs(rho.entries - rho0.entries).max() < 1e-12


def test_propagate_hits_grid_and_conserves_trace():
    gen = qubit_decay_generator()
    rng = np.random.default_rng(3)
    states = propagate(gen, random_state(rng, 2), np.linspace(0.0, 20.0, 9))
    for rho in states:
        assert abs(rho.entries.trace().real - 1.0) < 1e-10
        assert rho.eigenvalues()[0] >= -1e-9
        assert np.abs(rho.entries - rho.entries.conj().T).max() < 1e-12


def test_propagate_rejects_bad_grids():
    gen = qubit_decay_generator()
    rho0 = DensityMatrix.ground(2)
    with pytest.raises(ValueError):
        propagate(gen, rho0, [1.0, 0.5])
    with pytest.raises(ValueError):
        propagate(gen, rho0, [-1.0, 0.5])
    with pytest.raises(ValueError):
        propagate(gen, rho0, [])
    for grid in ([0.0, np.inf], [0.0, 1.0, np.inf], [np.inf], [0.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            propagate(gen, rho0, grid)


def test_propagate_takes_a_plain_array_start_of_its_dimension():
    gen = qubit_decay_generator()
    start = np.diag([0.0, 1.0]).astype(complex)
    (plain,) = propagate(gen, start, [2.0])
    (wrapped,) = propagate(gen, DensityMatrix(start), [2.0])
    assert np.array_equal(plain.entries, wrapped.entries)
    with pytest.raises(DimensionMismatchError, match="initial state"):
        propagate(gen, np.eye(3) / 3.0, [1.0])


def chain_generator(dim=40, gamma=0.05):
    # levels 0..dim-1 at energies 0..dim-1; only the top one decays, to 0
    h = np.diag(np.arange(dim, dtype=float)).astype(complex)
    lower = np.zeros((dim, dim), dtype=complex)
    lower[0, dim - 1] = 1.0
    return LindbladGenerator(h, [DissipationChannel(lower, gamma, "loss", dim - 1.0)])


def test_propagate_large_dimension_sparse_path():
    # an even superposition of the dim-40 chain's top 17 levels reaches
    # their 17^2 coordinates and level 0's population, 290 > 16^2, so it
    # takes the Taylor action path
    dim, gamma = 40, 0.05
    gen = chain_generator(dim, gamma)
    v = np.zeros(dim)
    v[dim - 17:] = 1.0
    rho0 = DensityMatrix.pure(v)
    assert np.count_nonzero(reachable(gen.superoperator, rho0.entries.reshape(-1) != 0)) == 290
    states = propagate(gen, rho0, np.array([0.0, 4.0]))
    assert abs(17 * states[-1].population(dim - 1) - np.exp(-gamma * 4.0)) < 1e-9


def test_top_state_of_a_long_chain_propagates_on_two_coordinates(monkeypatch):
    # the chain's top pure state reaches only its own population and level
    # 0's, so a step whose |L dt|_1 is ~4e6 costs one 2 x 2 exponential,
    # not ~|L dt|_1 matvecs on all 1600 coordinates
    dim, gamma = 40, 0.05
    gen = chain_generator(dim, gamma)
    v = np.zeros(dim)
    v[dim - 1] = 1.0
    shapes = []

    def recorded(a):
        shapes.append(a.shape)
        return expm_dense(a)

    monkeypatch.setattr(core, "expm_dense", recorded)
    for span in (1e3, 1e5):
        top = propagate(gen, DensityMatrix.pure(v), [0.0, span])[-1]
        assert top.population(dim - 1) == pytest.approx(np.exp(-gamma * span), rel=1e-12, abs=0.0)
        assert top.population(0) == pytest.approx(1.0 - np.exp(-gamma * span), rel=1e-15)
    assert shapes == [(2, 2), (2, 2)]


def test_dense_and_taylor_action_paths_agree(monkeypatch):
    gen = build_model(default_config()).generator
    rho0 = DensityMatrix.ground(gen.dim)
    grid = np.linspace(0.0, 1.0, 21) * PS_TO_INTERNAL
    dense = propagate(gen, rho0, grid)
    monkeypatch.setattr(core, "DENSE_PROPAGATION_MAX_DIM", 0)
    sparse = propagate(gen, rho0, grid)
    for a, b in zip(dense, sparse):
        assert np.abs(a.entries - b.entries).max() < 1e-12


def test_propagate_non_finite_span_raises(monkeypatch):
    gen = qubit_decay_generator(omega=10.0)
    rho0 = DensityMatrix.ground(2)
    # |L dt|_1 ~ 10 * 1e308 overflows on both paths; neither may hang or
    # return a state
    with pytest.raises(NumericsError):
        propagate(gen, rho0, [0.0, 1e308])
    monkeypatch.setattr(core, "DENSE_PROPAGATION_MAX_DIM", 0)
    with pytest.raises(NumericsError):
        propagate(gen, rho0, [0.0, 1e308])


def product_start_ladder(n_max):
    """The dressed transfer ladder and product start of the ladder benchmark
    (and, at n_max=120, of test_mutual_information_stays_small_from_product_start)."""
    omega_rc, omega_abs = 1.8, 3.0
    p = ThreeLevelParams(
        omega_abs=omega_abs, omega_rc=omega_rc, gamma=omega_rc / 100.0,
        t_abs=(omega_abs + 0.5 * omega_rc) / np.log(2.0),
        t_loss=(omega_abs - 0.5 * omega_rc) / 5.0,
        gamma_h=1.0, gamma_c=1.0,
    )
    bd = birth_death_rates(p)
    x = np.pi * (np.arange(n_max + 1) - n_max / 2.0) / (n_max - 6)
    osc = np.where(np.abs(x) < np.pi / 2.0, np.cos(np.clip(x, -np.pi / 2.0, np.pi / 2.0)) ** 4, 0.0)
    pops = np.kron([bd.rho_minus, bd.rho_plus, bd.rho_two], osc / osc.sum())
    return hamiltonian_transfer_generator(p, n_max), DensityMatrix(np.diag(pops))


def restricted_propagator(lmat, keep):
    """core._propagator of the superoperator lmat restricted to the vec
    coordinates a boolean mask keep holds, on vectors over every coordinate
    (an oracle for the L propagate assembles on its set)."""
    index, at = np.flatnonzero(keep), np.cumsum(keep) - 1
    inside = keep[lmat.col]
    sub = Triplets(at[lmat.row[inside]], at[lmat.col[inside]], lmat.data[inside], (index.size,) * 2)
    return core._propagator(sub, index)


def test_taylor_action_matches_expm_multiply():
    # the restricted action against scipy's expm_multiply on the whole
    # superoperator (an oracle here only; it implements the same algorithm):
    # the ladder benchmark's start (301 coordinates) and two full-support
    # starts whose steps are long, the n_max=20 ladder at |L dt|_1 = 200 and
    # the dim-40 chain at t = 40
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import expm_multiply

    rng = np.random.default_rng(53)
    bench, bench_start = product_start_ladder(60)
    ladder = hamiltonian_transfer_generator(LADDER, 20)
    lnorm = np.bincount(ladder.superoperator.col, np.abs(ladder.superoperator.data)).max()
    chain = chain_generator(40)
    cases = (
        (bench, bench_start, (0.2, 1.6), 301),
        (ladder, random_state(rng, ladder.dim), (200.0 / lnorm,), ladder.dim**2),
        (chain, random_state(rng, chain.dim), (40.0,), chain.dim**2),
    )
    for gen, rho0, steps, size in cases:
        lmat = gen.superoperator
        y = rho0.entries.reshape(-1)
        keep = reachable(lmat, y != 0)
        assert np.count_nonzero(keep) == size > core.DENSE_PROPAGATION_MAX_DIM**2
        advance = restricted_propagator(lmat, keep)
        oracle = csr_array((lmat.data, (lmat.row, lmat.col)), shape=lmat.shape)
        for dt in steps:
            assert np.abs(advance(y, dt) - expm_multiply(oracle * dt, y)).max() <= 1e-12


def test_taylor_action_degree_and_substeps():
    # (m, s) minimise the matvec count m s subject to |A|_1 <= s theta_m
    assert core._degree_and_substeps(0.0) == (0, 1)
    for norm in (1e-3, 0.5, 3.0, 200.0, 1600.0):
        m, s = core._degree_and_substeps(norm)
        assert norm <= s * core._THETA[m]
        assert all(m * s <= k * np.ceil(norm / theta) for k, theta in core._THETA.items())
    assert core._degree_and_substeps(200.0) == (55, 21)


def test_propagate_one_exponential_per_step_length(monkeypatch):
    # the default 201-point grid has 12 distinct float steps, all one step
    # length; a grid with two step lengths takes two exponentials. Both
    # match a propagation that takes each step's own exponential.
    gen = build_model(default_config()).generator
    rho0 = DensityMatrix.ground(gen.dim)
    lmat = gen.superoperator.toarray()
    uniform = np.linspace(0.0, 10.0, 201) * PS_TO_INTERNAL
    two = np.concatenate([np.linspace(0.0, 1.0, 11), np.linspace(1.2, 3.0, 10)]) * PS_TO_INTERNAL
    assert np.unique(np.diff(uniform)).size > 1
    calls = []

    def counted(a):
        calls.append(a)
        return expm_dense(a)

    monkeypatch.setattr(core, "expm_dense", counted)
    for grid, expected in ((uniform, 1), (two, 2)):
        calls.clear()
        states = propagate(gen, rho0, grid)
        assert len(calls) == expected
        y = rho0.entries
        for dt, rho in zip(np.diff(grid), states[1:]):
            y = floor_positivity((expm_dense(lmat * dt) @ y.reshape(-1)).reshape(y.shape))
            assert np.abs(rho.entries - y).max() <= 1e-12


LADDER = ThreeLevelParams(
    omega_abs=1.0, omega_rc=0.5, gamma=0.02, t_abs=2.0, t_loss=0.2,
    gamma_h=0.01, gamma_c=0.01,
)


def full_space_reference(gen, rho0, grid, floor=lambda m: m):
    """States from exp(L dt) of the whole dim^2 superoperator, one
    scipy.linalg.expm per distinct step, with floor applied after each."""
    lmat = gen.superoperator.toarray()
    y, out, cache = rho0.entries, [rho0.entries], {}
    for dt in np.diff(grid):
        if dt not in cache:
            cache[dt] = scipy.linalg.expm(lmat * dt)
        y = floor((cache[dt] @ y.reshape(-1)).reshape(y.shape))
        out.append(y)
    return out


def test_propagate_matches_full_space_exponential():
    # propagation on the reachable set is the full-space propagation, and
    # every coordinate outside the set stays exactly 0: dense for the
    # n_max=6 ladder's product start (31 of 441 coordinates) and the trace
    # model from its ground state (52 of 100), the Taylor action for a
    # full-rank start that reaches all 441
    rng = np.random.default_rng(47)
    ladder = hamiltonian_transfer_generator(LADDER, 6)
    fmo = build_model(default_config()).generator
    cases = (
        (ladder, dressed_product_state(LADDER, 6), 0.5 * np.arange(9), 31),
        (fmo, DensityMatrix.ground(fmo.dim), np.linspace(0.0, 1.0, 11) * PS_TO_INTERNAL, 52),
        (ladder, random_state(rng, ladder.dim), 0.5 * np.arange(5), 441),
    )
    for gen, rho0, grid, size in cases:
        lmat = gen.superoperator
        start = rho0.entries.reshape(-1) != 0
        keep = reachable(lmat, start)
        # the set holds the start and L maps it into itself
        assert np.count_nonzero(keep) == size
        assert keep[start].all() and keep[lmat.row[keep[lmat.col]]].all()
        states = propagate(gen, rho0, grid)
        for rho, ref in zip(states, full_space_reference(gen, rho0, grid)):
            assert np.abs(rho.entries - ref).max() <= 1e-12
            assert not rho.entries.reshape(-1)[~keep].any()


def level_one_decay(dim):
    """Levels at 0, 1 and 2.5, level 1 decaying to 0, and levels 3 and up,
    if any, in no channel."""
    h = np.diag([0.0, 1.0, 2.5, *(4.0 + np.arange(dim - 3))]).astype(complex)
    lower = np.zeros((dim, dim), dtype=complex)
    lower[0, 1] = 1.0
    return LindbladGenerator(h, [DissipationChannel(lower, 0.3, "loss", 1.0)])


def assert_propagation_follows_a_repair(dim):
    # rho0 holds |0><0| and a coherence c between levels 1 and 2, which
    # reaches no population of theirs; its eigenvalue -c is within the
    # floor. The first step repairs it along an even mix of |1> and |2>,
    # which puts weight on both populations, outside the set; later steps
    # must carry that weight, and level 1's decays to level 0.
    gen = level_one_decay(dim)
    c = 1e-12
    start = np.zeros((dim, dim), dtype=complex)
    start[0, 0] = 1.0
    start[1, 2] = start[2, 1] = c
    rho0 = DensityMatrix(start)
    keep = reachable(gen.superoperator, start.reshape(-1) != 0)
    assert np.flatnonzero(keep).tolist() == [0, dim + 2, 2 * dim + 1]
    grid = 0.5 * np.arange(6)
    states = propagate(gen, rho0, grid)
    reference = full_space_reference(gen, rho0, grid, floor_positivity)
    # dropping the repaired weight would be an error of ~4e-13
    for rho, ref in zip(states, reference):
        assert np.abs(rho.entries - ref).max() <= 1e-14
    populations = np.array([np.diag(rho.entries).real for rho in states[1:]])
    assert (populations[:, 1:3] > 0.1 * c).all()
    assert (np.diff(populations[:, 1]) < 0).all()


def test_propagate_follows_a_repair_out_of_the_reachable_set():
    assert_propagation_follows_a_repair(3)


def test_propagate_follows_a_repair_out_of_a_set_of_blocks(monkeypatch):
    # the same repair above DENSE_PROPAGATION_MAX_DIM levels, where each
    # state is floored on its set's blocks: the clip runs on the dense state,
    # and the set is found again from the repaired one
    dim = core.DENSE_PROPAGATION_MAX_DIM + 1
    found, sets = LindbladGenerator._reached, []

    def recorded(self, start):
        keep, lmat = found(self, start)
        mask = keep.reshape(dim, dim)
        sets.append(np.flatnonzero(mask | mask.T).tolist())
        return keep, lmat

    monkeypatch.setattr(LindbladGenerator, "_reached", recorded)
    assert_propagation_follows_a_repair(dim)
    # the start's set, then the repaired state's, which holds populations 1
    # and 2; neither, with its transpose, is every coordinate, so both are
    # floored on blocks
    assert len(sets) == 2
    assert sets[0] == [0, dim + 2, 2 * dim + 1]
    assert {0, dim + 1, 2 * dim + 2} <= set(sets[1])
    assert len(sets[1]) < dim * dim


def test_propagate_follows_a_one_sided_start_out_of_its_set():
    # a coherence 1e-13 between levels 1 and 2 on one side only passes the
    # Hermiticity check and reaches a set not closed under transpose. The
    # first step's symmetrization puts half of it on the other side, outside
    # the set, with no eigenvalue to clip; later steps must carry it there,
    # on every coordinate and on blocks. Dropping it is an error of ~5e-14.
    grid = 0.5 * np.arange(6)
    for dim in (3, core.DENSE_PROPAGATION_MAX_DIM + 1):
        gen = level_one_decay(dim)
        start = np.zeros((dim, dim), dtype=complex)
        start[[0, 1, 2], [0, 1, 2]] = 0.5, 0.25, 0.25
        start[1, 2] = 1e-13
        rho0 = DensityMatrix(start)
        mask = reachable(gen.superoperator, start.reshape(-1) != 0).reshape(dim, dim)
        assert mask[1, 2] and not mask[2, 1]
        states = propagate(gen, rho0, grid)
        reference = full_space_reference(gen, rho0, grid, floor_positivity)
        for rho, ref in zip(states, reference):
            assert np.abs(rho.entries - ref).max() <= 1e-14
        assert all(rho.entries[2, 1] == rho.entries[1, 2].conjugate() != 0 for rho in states[1:])


def test_propagated_states_are_the_dense_symmetrized_steps_bitwise():
    # each state is symmetrized, floored and validated on its kept entries
    # and written dense once; on these starts no eigenvalue needs clipping,
    # so each state is, byte for byte, the dense 0.5 (m + m^dag) / tr of the
    # restricted propagator's step from the state before, and exactly 0
    # outside the reachable set. The ladders (dim 63 and 183) take the
    # block path, the FMO trace (dim 10) the full support.
    cfg = default_config()
    fmo = build_model(cfg)
    cases = [(*product_start_ladder(n_max), np.linspace(0.0, 1.6, 9)) for n_max in (20, 60)]
    cases.append((fmo.generator, DensityMatrix.ground(fmo.dim),
                  np.linspace(0.0, cfg.t_max_ps, cfg.n_times) * PS_TO_INTERNAL))
    for gen, rho0, grid in cases:
        lmat = gen.superoperator
        keep = reachable(lmat, rho0.entries.reshape(-1) != 0)
        advance = restricted_propagator(lmat, keep)
        steps = core._step_lengths(np.diff(grid), 4 * np.finfo(float).eps * grid[-1])
        states = propagate(gen, rho0, grid)
        assert len(states) == grid.size
        y = rho0.entries.reshape(-1)
        for dt, rho in zip(steps, states[1:]):
            m = advance(y, dt).reshape(gen.dim, gen.dim)
            sym = 0.5 * (m + m.conj().T)
            ref = sym / sym.trace().real
            assert rho.entries.tobytes() == ref.tobytes()
            assert not rho.entries.reshape(-1)[~keep].any()
            y = ref.reshape(-1)


def test_state_checks_on_a_support_match_the_dense_checks():
    # a state propagate builds is checked on its support's entries only,
    # and taken without a copy; for entries that are 0 outside the support
    # each check gives the dense check's verdict and message
    dim = core.DENSE_PROPAGATION_MAX_DIM + 1
    mask = np.eye(dim, dtype=bool)
    mask[1, 2] = True
    support = core._support_of(mask)
    good = np.diag(np.full(dim, 1.0 / dim)).astype(complex)
    good[1, 2] = good[2, 1] = 0.01
    rho = DensityMatrix(good, _spectrum=np.linalg.eigvalsh(good), _support=support)
    assert rho.entries is good and not good.flags.writeable
    one_sided, heavy, nan = good.copy(), good.copy(), good.copy()
    one_sided[1, 2] += 1e-9
    heavy[0, 0] += 1e-9
    nan[2, 1] = np.nan
    faults = ((one_sided, "not Hermitian"), (heavy, "trace differs"), (nan, "non-finite"))
    for bad, message in faults:
        with pytest.raises(StateValidationError, match=message) as want:
            DensityMatrix(bad)
        with pytest.raises(StateValidationError) as got:
            DensityMatrix(bad, _spectrum=np.zeros(dim), _support=support)
        assert str(got.value) == str(want.value)


def test_propagation_faults_carry_the_floors_messages(monkeypatch):
    # the second step of the n_max=6 ladder (dim 21, floored on blocks)
    # lands on a state with a fault inside its set: a nan, an eigenvalue
    # below -EIGENVALUE_FLOOR, or a zero trace. propagate raises the message
    # floor_positivity gives for the same dense state.
    gen = hamiltonian_transfer_generator(LADDER, 6)
    rho0 = dressed_product_state(LADDER, 6)
    assert gen.dim > core.DENSE_PROPAGATION_MAX_DIM
    keep = reachable(gen.superoperator, rho0.entries.reshape(-1) != 0)
    mask = keep.reshape(gen.dim, gen.dim)
    within = np.flatnonzero(mask | mask.T)  # the coordinates each state is given on
    level = np.flatnonzero(np.diag(mask))[3]
    nan, negative = rho0.entries.copy(), rho0.entries.copy()
    nan[level, level] = np.nan
    negative[level, level] = -2 * core.EIGENVALUE_FLOOR
    faults = (
        (nan, "state has non-finite entries"),
        (negative, "positivity violation: eigenvalue -2.000e-09"),
        (np.zeros_like(nan), "state trace collapsed to 0.000e+00"),
    )
    propagator = core._propagator
    for bad, message in faults:
        def faulty(lmat, at, bad=bad):
            advance = propagator(lmat, at)
            steps = []

            def step(y, dt):
                assert y.size == within.size
                steps.append(dt)
                return advance(y, dt) if len(steps) == 1 else bad.reshape(-1)[within]
            return step

        monkeypatch.setattr(core, "_propagator", faulty)
        with pytest.raises(StateValidationError) as want:
            floor_positivity(bad)
        with pytest.raises(StateValidationError) as got:
            propagate(gen, rho0, 0.5 * np.arange(4))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(message)


def repair_start(dim):
    """assert_propagation_follows_a_repair's generator, start and grid."""
    start = np.zeros((dim, dim), dtype=complex)
    start[0, 0] = 1.0
    start[1, 2] = start[2, 1] = 1e-12
    return level_one_decay(dim), DensityMatrix(start), 0.5 * np.arange(6)


def one_sided_start(dim):
    """test_propagate_follows_a_one_sided_start_out_of_its_set's generator,
    start and grid."""
    start = np.zeros((dim, dim), dtype=complex)
    start[[0, 1, 2], [0, 1, 2]] = 0.5, 0.25, 0.25
    start[1, 2] = 1e-13
    return level_one_decay(dim), DensityMatrix(start), 0.5 * np.arange(6)


def default_fmo_trace():
    cfg = default_config()
    fmo = build_model(cfg)
    grid = np.linspace(0.0, cfg.t_max_ps, cfg.n_times) * PS_TO_INTERNAL
    return fmo.generator, DensityMatrix.ground(fmo.dim), grid


# name -> (generator, start, grid): the default trace, the ladder benchmark's
# start, and the starts whose first step repairs a state or symmetrizes it
# out of its set, on every coordinate (dim 3) and on blocks (dim 17)
STEPWISE_CASES = {
    "fmo-default": default_fmo_trace,
    "ladder-60": lambda: (*product_start_ladder(60), np.linspace(0.0, 1.6, 9)),
    **{f"repair-{dim}": (lambda dim=dim: repair_start(dim)) for dim in (3, 17)},
    **{f"one-sided-{dim}": (lambda dim=dim: one_sided_start(dim)) for dim in (3, 17)},
}


@pytest.mark.parametrize("name", STEPWISE_CASES)
def test_stacked_propagation_is_the_stepwise_one_bitwise(name):
    # propagate floors and validates each state before it takes the next
    # step; every state is the reference copy's, to the bit, and read-only
    gen, rho0, grid = STEPWISE_CASES[name]()
    states = propagate(gen, rho0, grid)
    reference = stepwise_propagate(gen, rho0, grid)
    assert len(states) == len(reference) == grid.size
    for rho, ref in zip(states, reference):
        assert np.array_equal(rho.entries, ref.entries)
        assert not rho.entries.flags.writeable


@pytest.mark.parametrize("third", ["nan", "raises", "overflows"])
def test_propagation_raises_the_first_fault_in_step_order(monkeypatch, third):
    # step 2 lands on a state with an eigenvalue below -EIGENVALUE_FLOOR and
    # step 3 fails on its own: its advance returns nan, or raises, or its
    # |L dt|_1 overflows. Step 2 is validated before step 3 is taken, so
    # the step-2 fault is raised, as the reference copy raises it, and no
    # warning is emitted for any work past it.
    gen = hamiltonian_transfer_generator(LADDER, 6)
    rho0 = dressed_product_state(LADDER, 6)
    mask = reachable(gen.superoperator, rho0.entries.reshape(-1) != 0).reshape(gen.dim, gen.dim)
    within = np.flatnonzero(mask | mask.T)
    level = np.flatnonzero(np.diag(mask))[3]
    bad = rho0.entries.copy()
    bad[level, level] = -2 * core.EIGENVALUE_FLOOR
    grid = np.array([0.0, 0.5, 1.0, 1e308]) if third == "overflows" else 0.5 * np.arange(4)
    propagator = core._propagator

    def faulty(lmat, at):
        advance = propagator(lmat, at)
        starts = []  # the state each step starts from: a step taken again has its start

        def step(y, dt):
            if not any(np.array_equal(y, s) for s in starts):
                starts.append(y.copy())
            k = next(k for k, s in enumerate(starts, 1) if np.array_equal(y, s))
            if k == 1:
                return advance(y, dt)
            if k == 2:
                return bad.reshape(-1)[within]
            if third == "nan":
                return np.full_like(y, np.nan)
            raise NumericsError(f"exp(L dt) rho is not finite at dt = {dt!r}")
        return step

    monkeypatch.setattr(core, "_propagator", faulty)
    with pytest.raises(StateValidationError) as want:
        stepwise_propagate(gen, rho0, grid)
    with pytest.raises(StateValidationError) as got:
        propagate(gen, rho0, grid)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("positivity violation: eigenvalue -2.000e-09")


@pytest.mark.parametrize("nudged_steps", ["every", "one"])
def test_propagation_repairs_as_the_stepwise_one(monkeypatch, nudged_steps):
    # a nudged step adds 1e-12 to the coherence between levels 1 and 2,
    # which hold (next to) nothing, so it lands below zero and is repaired
    # (one dense eigh). Nudging every step, each step is advanced once and
    # repaired before the next one is taken; nudging only the 0.6-long
    # step, the fifth, it alone is repaired. Either way the states are the
    # reference copy's.
    gen, rho0 = level_one_decay(3), DensityMatrix.ground(3)
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.6, 3.1, 3.6, 4.1])
    propagator = core._propagator
    calls = []

    def nudged(lmat, at):
        advance = propagator(lmat, at)

        def step(y, dt):
            calls.append("advance")
            out = advance(y, dt)
            if nudged_steps == "every" or abs(dt - 0.6) < 1e-9:
                out[[5, 7]] += 1e-12  # entries (1, 2) and (2, 1) of the full support
            return out
        return step

    def counted(a, *args, **kwargs):  # the dense repair's eigh
        calls.append("eigh")
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(core, "_propagator", nudged)
    reference = stepwise_propagate(gen, rho0, grid)
    repairs = calls.count("eigh")
    assert repairs == (grid.size - 1 if nudged_steps == "every" else 1)
    calls.clear()
    states = propagate(gen, rho0, grid)
    assert calls.count("eigh") == repairs
    if nudged_steps == "every":
        assert calls == ["advance", "eigh"] * (grid.size - 1)
    for rho, ref in zip(states, reference):
        assert np.array_equal(rho.entries, ref.entries)


def cancelling_generator():
    """Three levels at 2, 1 and 0, one channel at rate 1/4 whose jump holds
    diagonal and off-diagonal entries, (|0> - |1>)(<0| - <1|) + |2><2|. In
    L's columns at the populations of levels 0 and 1, the bath product's
    entries at the coherences between them cancel G's, exactly in dyadic
    arithmetic: those edges are in L's parts but not in L."""
    h = np.diag([2.0, 1.0, 0.0]).astype(complex)
    jump = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    return LindbladGenerator(h, [DissipationChannel(jump, 0.25, "loss", 0.0, check_bohr=False)])


def fmo_trace(gamma_sink):
    cfg = default_config(gamma_sink=gamma_sink)
    gen = build_model(cfg).generator
    grid = np.linspace(0.0, cfg.t_max_ps, cfg.n_times) * PS_TO_INTERNAL
    return gen, DensityMatrix.ground(gen.dim), grid


def chain_start(levels, dim=40):
    v = np.zeros(dim)
    v[dim - levels:] = 1.0
    return chain_generator(dim), DensityMatrix.pure(v), np.array([0.0, 4.0, 9.0])


def ring_start(model):
    from solaraudit import config
    from solaraudit.models import MODELS

    section, params, _ = MODELS[model]
    defaults = config.default_section(section)
    fields = {k: v for k, v in defaults.items() if k in params.__dataclass_fields__}
    gen = params(**fields).ring().generator()
    return gen, DensityMatrix.ground(gen.dim), np.linspace(0.0, 20.0, 11)


def driven_decay():
    h = np.array([[0.0, 0.8], [0.8, 1.0]], dtype=complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = LindbladGenerator(h, [DissipationChannel(lower, 0.1, "loss", 1.0, check_bohr=False)])
    return gen, DensityMatrix.ground(2), 0.5 * np.arange(5)


def random_dense():
    """Four levels of a seeded random Hermitian H and one dense random jump,
    so that L's diagonal sums a bath product entry and both of G's parts,
    none of them dyadic, in a fixed order."""
    rng = np.random.default_rng(67)
    a, jump = (re + 1j * im for re, im in rng.normal(size=(2, 2, 4, 4)))
    gen = LindbladGenerator(a + a.conj().T, [DissipationChannel(jump, 0.3, "loss", 0.0, check_bohr=False)])
    return gen, DensityMatrix.ground(4), 0.5 * np.arange(5)


# name -> (generator, start, grid) of a propagation: FMO defaults with and
# without the sink, the ladder at n_max 6, 20 and 60, the three rings, the
# dim-40 chain from its top state and from the 17-level superposition
# (whose floor clips eigenvalues twice), cancelling_generator, a driven
# qubit that decays, whose coherences only G's right edges reach, and
# random_dense
GENERATOR_ZOO = {
    "fmo-sink": lambda: fmo_trace(1.0),
    "fmo-no-sink": lambda: fmo_trace(0.0),
    "ladder-6": lambda: (hamiltonian_transfer_generator(LADDER, 6),
                         dressed_product_state(LADDER, 6), 0.5 * np.arange(9)),
    "ladder-20": lambda: (*product_start_ladder(20), np.linspace(0.0, 1.6, 9)),
    "ladder-60": lambda: (*product_start_ladder(60), np.linspace(0.0, 1.6, 9)),
    **{model: (lambda model=model: ring_start(model))
       for model in ("toy_decay", "donor_acceptor", "photocell")},
    "chain-top": lambda: chain_start(1),
    "chain-17": lambda: chain_start(17),
    "cancelling": lambda: (cancelling_generator(), DensityMatrix.ground(3), 0.5 * np.arange(5)),
    "driven-decay": driven_decay,
    "random-dense": random_dense,
}


@pytest.mark.parametrize("name", GENERATOR_ZOO)
def test_liouvillian_on_a_closed_set_is_the_superoperators_restriction_bitwise(monkeypatch, name):
    # propagate finds its set column by column (gen._reached) and never
    # reads the whole superoperator. Each set it finds is the one reachable
    # reads off the whole superoperator, cancelling_generator's too (whose
    # parts hold edges that cancel in L), L on it is that superoperator's
    # restriction to the last bit, and each state is the floored step of
    # the restricted superoperator's propagator
    found, reached = LindbladGenerator._reached, []

    def recorded(self, start):
        out = found(self, start)
        reached.append((start.copy(), *out))
        return out

    monkeypatch.setattr(LindbladGenerator, "_reached", recorded)
    gen, rho0, grid = GENERATOR_ZOO[name]()
    states = propagate(gen, rho0, grid)
    assert "superoperator" not in gen.__dict__
    lmat = gen.superoperator
    assert np.array_equal(reached[0][0], rho0.entries.reshape(-1) != 0)
    for start, kept, sub in reached:
        keep = reachable(lmat, start)
        assert np.array_equal(kept, keep)
        inside, at = keep[lmat.col], np.cumsum(keep) - 1
        assert sub.shape == (np.count_nonzero(keep),) * 2
        assert sub.row.tobytes() == at[lmat.row[inside]].tobytes()
        assert sub.col.tobytes() == at[lmat.col[inside]].tobytes()
        assert sub.data.tobytes() == lmat.data[inside].tobytes()
    advance = restricted_propagator(lmat, reached[0][1])
    steps = core._step_lengths(np.diff(grid), 4 * np.finfo(float).eps * grid[-1])
    y = rho0.entries.reshape(-1)
    for dt, rho in zip(steps, states[1:]):
        ref = floor_positivity(advance(y, dt).reshape(gen.dim, gen.dim))
        assert rho.entries.tobytes() == ref.tobytes()
        y = ref.reshape(-1)


@pytest.mark.parametrize("name", GENERATOR_ZOO)
def test_indices_are_intp_at_every_size(name):
    # Triplets hold np.intp rows and columns whatever their shape, so no
    # index arithmetic has to widen them: the channel table's stacked jump,
    # the superoperator and L on a reached set
    gen, rho0, _ = GENERATOR_ZOO[name]()
    _, sub = gen._reached(rho0.entries.reshape(-1) != 0)
    for t in (gen.table.jump, gen.superoperator, sub):
        assert t.row.dtype == np.intp and t.col.dtype == np.intp


def liouvillian_oracle(gen):
    """L summed from its parts in their order, each position's values added
    as Triplets.summed adds them: every bath product (gen._bath_terms, in
    BATH_IDS order), then G (x) I, G[i, j] at (i n + m, j n + m), then
    I (x) conj(G), conj(G[i, j]) at (m n + i, m n + j), for G = -i H -
    sum_b K_b / 2 over the baths present and every m."""
    n = gen.dim
    _, kron, k_half = gen._bath_terms
    present = [b in gen.table.bath_id[gen.table.rate != 0.0] for b in BATH_IDS]
    g = Triplets.from_dense(-1j * gen.hamiltonian + sum(k_half[present]))
    i, j = (np.repeat(x, n) for x in (g.row, g.col))
    m, value = np.tile(np.arange(n), g.nnz), np.repeat(g.data, n)
    left = (i * n + m, j * n + m, value)
    right = (m * n + i, m * n + j, value.conj())
    return Triplets.summed([kron, left, right], (n * n, n * n))


@pytest.mark.parametrize("name", GENERATOR_ZOO)
def test_columns_are_the_liouvillians_columns_bitwise(name):
    # the superoperator is L summed part by part in the oracle's order, and
    # any ascending set of columns, generated alone, is those columns of it,
    # renumbered in order, byte for byte
    gen = GENERATOR_ZOO[name]()[0]
    size = gen.dim**2
    oracle = liouvillian_oracle(gen)
    lmat = gen.superoperator
    assert lmat.shape == oracle.shape
    for got, want in zip((lmat.row, lmat.col, lmat.data), (oracle.row, oracle.col, oracle.data)):
        assert got.tobytes() == want.tobytes()
    rng = np.random.default_rng(61)
    for count in sorted({1, 2, min(size, 7), size // 3, size - 1}):
        new = np.sort(rng.choice(size, count, replace=False))
        chosen = np.zeros(size, dtype=bool)
        chosen[new] = True
        inside = chosen[oracle.col]
        sub = gen._columns(new)
        assert sub.shape == (size, count)
        assert sub.row.tobytes() == oracle.row[inside].tobytes()
        col = np.searchsorted(new, oracle.col[inside])
        assert sub.col.tobytes() == col.tobytes()
        assert sub.data.tobytes() == oracle.data[inside].tobytes()


@pytest.mark.parametrize("name", GENERATOR_ZOO)
def test_each_baths_heat_operator_is_that_of_its_channels_alone(name):
    # one product builds every bath's terms, each bath's columns in its own
    # block of rows: Q_b is bitwise that of a generator holding only bath
    # b's channels, so no bath's channels leak into another's block
    gen = GENERATOR_ZOO[name]()[0]
    for bath in BATH_IDS:
        alone = LindbladGenerator(gen.hamiltonian, [c for c in gen.channels if c.bath_id[0] == bath])
        q, want = gen.heat_operators[bath], alone.heat_operators[bath]
        if want is None:
            assert q is None
        else:
            assert q.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, blocks", [("fmo-no-sink", 2), ("fmo-sink", 3), ("chain-top", 1),
                                         ("toy_decay", 3), ("driven-decay", 1)])
def test_bath_product_stacks_only_the_baths_present(monkeypatch, name, blocks):
    # the one product behind _bath_terms has an n^2 row block per bath that
    # a nonzero-rate channel carries, and none for an absent bath
    gen = GENERATOR_ZOO[name]()[0]
    product, shapes = core._product, []

    def recorded(a, b):
        shapes.append(a.shape)
        return product(a, b)

    monkeypatch.setattr(core, "_product", recorded)
    gen._bath_terms
    assert shapes == [(blocks * gen.dim**2, np.count_nonzero(gen.table.rate))]


def test_reached_generates_each_column_once(monkeypatch):
    # the n_max=60 ladder's product start reaches 301 coordinates in
    # rounds; each round generates only the columns the set gained in the
    # round before, so the columns generated are the set, each once
    gen, rho0 = product_start_ladder(60)
    columns, calls = LindbladGenerator._columns, []

    def spy(self, new):
        calls.append(new.copy())
        return columns(self, new)

    monkeypatch.setattr(LindbladGenerator, "_columns", spy)
    keep, sub = gen._reached(rho0.entries.reshape(-1) != 0)
    generated = np.concatenate(calls)
    assert len(calls) > 1 and sub.shape == (301, 301)
    assert generated.size == np.count_nonzero(keep) == 301
    assert np.array_equal(np.sort(generated), np.flatnonzero(keep))


def test_ladder_propagation_never_builds_the_whole_liouvillian(monkeypatch):
    # the n_max=60 ladder (dim 183) from its product start: L's 111,378
    # unsummed entries are never generated, only the 1,562 of the 301
    # columns its set holds. The bath products M, dim^2 x dim^2 by
    # construction with 480 entries, are summed with the generator's
    # other per-bath terms before the spy is installed.
    gen, rho0 = product_start_ladder(60)
    gen._bath_terms
    summed, calls = Triplets.summed.__func__, []

    def spy(cls, parts, shape):
        parts = list(parts)
        calls.append((shape, sum(len(p[0]) for p in parts)))
        return summed(cls, parts, shape)

    monkeypatch.setattr(Triplets, "summed", classmethod(spy))
    states = propagate(gen, rho0, np.linspace(0.0, 1.6, 9))
    size = gen.dim**2
    assert len(states) == 9 and "superoperator" not in gen.__dict__
    assert calls and all(shape != (size, size) for shape, _ in calls)
    assert max(count for _, count in calls) < 2000


def test_overflow_guard_reads_the_whole_liouvillian_only_past_its_bound():
    # the chain's top state reaches two coordinates. At dt = 2e306, L's
    # norm (~39) times dt is finite, but twice the bound from its parts
    # (2 x ~78) times dt is not: the guard reads the whole L, finds no
    # overflow, and the step runs (to level 0). At an ordinary dt it reads
    # nothing.
    gen = chain_generator(40)
    v = np.zeros(gen.dim)
    v[-1] = 1.0
    states = propagate(gen, DensityMatrix.pure(v), [0.0, 1.0])
    assert "superoperator" not in gen.__dict__
    dt = 2e306
    states = propagate(gen, DensityMatrix.pure(v), [0.0, dt])
    assert "superoperator" in gen.__dict__
    lmat = gen.superoperator
    lnorm = float(np.bincount(lmat.col, np.abs(lmat.data)).max())
    assert math.isfinite(lnorm * dt) and not math.isfinite(4 * lnorm * dt)
    assert states[-1].population(0) == pytest.approx(1.0, abs=1e-12)


def isolated_level_beside(h, jump, rate):
    """A generator of one jump at rate on the levels of a diagonal h, plus
    one more level at energy 0 in no channel, and the pure state on it."""
    dim = len(h) + 1
    padded = np.zeros((dim, dim), dtype=complex)
    padded[:-1, :-1] = jump
    gen = LindbladGenerator(np.diag([*h, 0.0]).astype(complex),
                            [DissipationChannel(padded, rate, "loss", 0.0, check_bohr=False)])
    return gen, DensityMatrix.pure(np.eye(dim)[-1])


@pytest.mark.parametrize("case", ["hamiltonian", "bath-product"])
def test_overflow_outside_the_reachable_set_still_raises(case):
    # a state on an isolated level reaches nothing else, but the whole
    # generator's |L dt|_1 overflows at dt = 2e7, so propagation raises as
    # it did when L was built whole: through G's column sums (a level at
    # 1e308 beside a decaying one), or through a bath product's, a jump
    # spreading level 0 over three levels at rate 1e300, where |L|_1 = 1e301
    # is over three times G's largest column sum (1.5e300)
    if case == "hamiltonian":
        decay = np.zeros((2, 2))
        decay[0, 1] = 1.0
        gen, rho0 = isolated_level_beside([1.0, 1e308], decay, 0.05)
    else:
        spread = np.zeros((3, 3))
        spread[:, 0] = 1.0
        gen, rho0 = isolated_level_beside([1.0, 2.0, 3.0], spread, 1e300)
    assert propagate(gen, rho0, [0.0, 1e-300])[-1].population(gen.dim - 1) == 1.0
    with pytest.raises(NumericsError, match=r"^\|L dt\|_1 overflows at dt = 20000000\.0$"):
        propagate(gen, rho0, [0.0, 2e7])


def test_an_imaginary_sum_that_overflows_stays_imaginary_without_a_warning():
    # L's coherence entries sum G[0, 0] + conj(G[1, 1]) = 2e308 i and its
    # negative: each overflows to an infinite imaginary part beside a real
    # part of exactly 0, not nan, and propagation names the overflow
    gen = LindbladGenerator(np.diag([-1e308, 1e308]).astype(complex), [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = gen.superoperator.data
        assert data.real.tolist() == [0.0, 0.0]
        assert data.imag.tolist() == [math.inf, -math.inf]
        with pytest.raises(NumericsError, match=r"^\|L dt\|_1 overflows at dt = 1\.0$"):
            propagate(gen, DensityMatrix(np.full((2, 2), 0.5)), [0.0, 1.0])


@pytest.mark.parametrize("dense", [True, False])
def test_a_product_that_overflows_is_not_finite_without_a_warning(monkeypatch, dense):
    # L rho's coherences are the overflowed +-2e308 i times 1/2: not finite,
    # and no warning on the dense product or on the binned one
    if not dense:
        monkeypatch.setattr(core, "DENSE_PROPAGATION_MAX_DIM", 1)
    gen = LindbladGenerator(np.diag([-1e308, 1e308]).astype(complex), [])
    assert core._fits_dense(*gen.superoperator.shape) == dense
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho_dot = liouvillian_apply(gen, DensityMatrix(np.full((2, 2), 0.5)))
    assert not np.isfinite(rho_dot[[0, 1], [1, 0]]).any()


def test_liouvillian_apply_takes_a_stack_of_states():
    # one product for a stack equals a call per state: dense for the
    # dim-10 trace model, binned (core._binned) for the dim-21 ladder
    rng = np.random.default_rng(41)
    for gen in (build_model(default_config()).generator, hamiltonian_transfer_generator(LADDER, 6)):
        stack = np.stack([random_state(rng, gen.dim).entries for _ in range(6)]).reshape(2, 3, gen.dim, gen.dim)
        applied = liouvillian_apply(gen, stack)
        assert applied.shape == stack.shape
        for index in np.ndindex(2, 3):
            one = liouvillian_apply(gen, stack[index])
            assert np.abs(applied[index] - one).max() <= 1e-13 * np.abs(one).max()
        with pytest.raises(DimensionMismatchError):
            liouvillian_apply(gen, stack[..., :-1])


# --------------------------------------------------------------- steady state


def test_steady_state_thermal_qubit_is_gibbs():
    omega, t = 1.0, 0.7
    h = np.diag([0.0, omega]).astype(complex)
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    gen = LindbladGenerator(h, thermal_pairs("loss", t, [lower], [omega], [0.2]))
    rho = steady_state(gen)
    ratio = rho.population(1) / rho.population(0)
    assert abs(ratio - np.exp(-omega / t)) < 1e-12
    assert np.abs(liouvillian_apply(gen, rho)).max() <= 1e-10


def test_steady_state_of_a_superoperator_that_is_not_finite_raises():
    gen = LindbladGenerator(np.diag([-1e308, 1e308]).astype(complex), [])
    with pytest.raises(NumericsError, match="^superoperator has a non-finite entry; no steady state$"):
        steady_state(gen)


def test_steady_state_residual_above_tolerance_raises():
    # the SVD resolves the null vector to about eps times the largest rate,
    # here 1e8, which leaves a residual above STEADY_STATE_RESIDUAL_TOL
    p = ThreeLevelParams(
        omega_abs=1.0, omega_rc=0.5, gamma=1e-3, t_abs=1.0, t_loss=0.05, gamma_h=1e8, gamma_c=1e-3
    )
    with pytest.raises(SteadyStateConvergenceError, match=r"exceeds tolerance 1\.0e-10$") as info:
        steady_state(decay_generator(p))
    assert info.value.residual > info.value.tol == core.STEADY_STATE_RESIDUAL_TOL


def test_steady_state_degenerate_raises():
    gen = LindbladGenerator(np.diag([0.0, 1.0]).astype(complex), [])
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(gen)


def test_steady_state_disconnected_blocks_degenerate():
    # channels act on levels 0/1 only; level 2 is isolated
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    lower = np.zeros((3, 3), dtype=complex)
    lower[0, 1] = 1.0
    gen = LindbladGenerator(h, thermal_pairs("loss", 0.5, [lower], [1.0], [0.1]))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(gen)


def test_hermitian_basis_is_unitary_and_real_for_a_generator():
    # T is unitary, its columns are vecs of Hermitian matrices, the cached
    # T^dag is T's, both are read-only, a real vector maps to a Hermitian
    # matrix exactly, and L's real matrix Re(T^dag L T) keeps L's singular
    # values
    rng = np.random.default_rng(83)
    for dim in range(1, 7):
        t, adjoint = core._hermitian_basis(dim)
        assert core._hermitian_basis(dim)[0] is t
        assert not t.flags.writeable and not adjoint.flags.writeable
        assert np.array_equal(adjoint, t.conj().T)
        assert np.abs(adjoint @ t - np.eye(dim * dim)).max() <= 1e-15
        columns = t.T.reshape(-1, dim, dim)
        assert np.array_equal(columns, columns.conj().transpose(0, 2, 1))
        v = (t @ rng.normal(size=dim * dim)).reshape(dim, dim)
        assert np.array_equal(v, v.conj().T)
    for name in ("fmo-sink", "fmo-no-sink", "toy_decay", "donor_acceptor", "photocell", "random-dense"):
        gen = GENERATOR_ZOO[name]()[0]
        t, adjoint = core._hermitian_basis(gen.dim)
        m = gen.superoperator.toarray()
        want = np.linalg.svd(m, compute_uv=False)
        got = np.linalg.svd((adjoint @ m @ t).real, compute_uv=False)
        assert np.abs(got - want).max() <= 1e-12 * want[0], name


def zoo_audit_generators(seed, rounds):
    """Seeded generators of the steady-state audit's mix: per round, two
    decay rings, a donor-acceptor cycle, a photocell and an FMO thermal
    control (no sink) at a drawn sun and protein temperature and dilution."""
    from test_models_donor_acceptor import random_da_params, random_photocell_params
    from test_models_toy import random_decay_params

    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        yield from (decay_generator(random_decay_params(rng)) for _ in range(2))
        yield random_da_params(rng).ring().generator()
        yield random_photocell_params(rng).ring().generator()
        cfg = default_config(gamma_sink=0.0, t_sun=rng.uniform(4500.0, 6500.0),
                             t_loss_k=rng.uniform(250.0, 350.0),
                             lambda_geo=10.0 ** rng.uniform(-5.0, -4.0))
        yield build_model(cfg).generator


def test_steady_state_matches_the_complex_svd():
    # the SVD of L's real matrix in the Hermitian basis gives the state the
    # complex SVD of L gives, to 1e-12, on the three rings, the FMO model with
    # and without its sink and seeded draws of the steady-state audit's mix
    # (observed: <= 1.6e-15, the FMO sink's trap state exactly)
    named = [GENERATOR_ZOO[name]()[0] for name in ("toy_decay", "donor_acceptor", "photocell",
                                                   "fmo-sink", "fmo-no-sink")]
    for gen in [*named, *zoo_audit_generators(89, 8)]:
        got, want = steady_state(gen).entries, complex_steady_state(gen).entries
        assert np.abs(got - want).max() <= 1e-12


def relabelled(gen, order):
    """gen with its levels relabelled: new level i is old level order[i]."""
    new = np.argsort(order)
    a = gen.table.jump
    owner, row = np.divmod(a.row, gen.dim)
    jump = Triplets(owner * gen.dim + new[row], new[a.col], a.data, a.shape)
    return LindbladGenerator(gen.hamiltonian[np.ix_(order, order)], gen.table._replace(jump=jump))


def test_steady_state_trap_does_not_depend_on_level_order():
    # the FMO model's sink level is a trap: its population column of L is
    # exactly zero, and the state is that level's projector bitwise whether
    # the sink is the last level, the first or the levels run reversed
    gen = GENERATOR_ZOO["fmo-sink"]()[0]
    n = gen.dim
    want = steady_state(gen).entries
    assert want[n - 1, n - 1] == 1.0 and np.count_nonzero(want) == 1
    for order in (np.roll(np.arange(n), 1), np.arange(n)[::-1]):
        back = np.argsort(order)
        got = steady_state(relabelled(gen, order)).entries
        assert got[np.ix_(back, back)].tobytes() == want.tobytes()


def random_generator(rng):
    """A seeded generator of 1-6 levels: a dense Hermitian or a diagonal H,
    up to three channels of dense or one-entry jumps in random baths, and in
    a quarter of the draws its last level isolated from H and every jump."""
    dim = int(rng.integers(1, 7))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = np.diag(rng.normal(size=dim)).astype(complex) if rng.random() < 0.3 else a + a.conj().T
    live = dim - 1 if dim > 1 and rng.random() < 0.25 else dim
    h[:, live:] = h[live:, :] = 0.0
    h[live:, live:] = 5.0 * np.eye(dim - live)
    channels = []
    for _ in range(int(rng.integers(0, 4))):
        jump = np.zeros((dim, dim), dtype=complex)
        if rng.random() < 0.5:
            jump[:live, :live] = rng.normal(size=(live, live)) + 1j * rng.normal(size=(live, live))
        else:
            jump[rng.integers(live), rng.integers(live)] = 1.0
        bath = str(rng.choice(BATH_IDS))
        channels.append(DissipationChannel(jump, rng.uniform(0.01, 2.0), bath, 0.0, check_bohr=False))
    return LindbladGenerator(h, channels)


def steady_outcome(solve, gen):
    try:
        return "ok", solve(gen).entries
    except NumericsError as exc:
        return type(exc).__name__, str(exc)


def test_steady_state_outcomes_match_the_complex_svd_on_random_generators():
    # on 400 seeded generators both SVDs reach the same outcome with the same
    # message, null counts included, and states that agree to 1e-9 (observed:
    # 3.1e-14 on these 228 unique states, <= 3.0e-13 on 1,800 other draws);
    # the draws hold unique and degenerate steady states alike
    rng = np.random.default_rng(97)
    seen = set()
    for _ in range(400):
        gen = random_generator(rng)
        kind, got = steady_outcome(steady_state, gen)
        want_kind, want = steady_outcome(complex_steady_state, gen)
        assert kind == want_kind
        if kind == "ok":
            assert np.abs(got - want).max() <= 1e-9
        else:
            assert got == want
            seen.add(got)
        seen.add(kind)
    assert {"ok", "DegenerateSteadyStateError"} <= seen
    assert {f"steady state is not unique: null space has dimension {k}" for k in (2, 3, 4, 5, 6)} <= seen


# ------------------------------------------------------------ positivity floor


def test_floor_positivity_clips_and_renormalizes():
    m = np.diag([1.0 + 4e-10, -4e-10]).astype(complex)
    fixed = floor_positivity(m)
    w = np.linalg.eigvalsh(fixed)
    assert w[0] >= 0.0
    assert abs(fixed.trace().real - 1.0) < 1e-14


def test_floor_positivity_repairs_only_the_clipped_directions():
    # one block holds an eigenvalue to clip; the other block must come back
    # as the input over the new trace, free of the rounding noise that
    # rebuilding the whole state from its eigenvectors adds (~2000 ulp on
    # its 1e-4 coherences)
    rng = np.random.default_rng(29)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    noise = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    other = np.diag([0.6, 0.3, 0.1]) + 1e-4 * noise
    state = np.zeros((6, 6), dtype=complex)
    state[:3, :3] = (q * [-1e-12, 0.3, 0.2]) @ q.conj().T
    state[3:, 3:] = 0.25 * (other + other.conj().T)
    state = 0.5 * (state + state.conj().T)
    assert np.linalg.eigvalsh(state)[0] < 0.0
    fixed = floor_positivity(state)
    ratio = fixed[3:, 3:] / state[3:, 3:]
    assert np.abs(ratio - ratio[0, 0]).max() <= 4 * np.finfo(float).eps * abs(ratio[0, 0])
    assert np.linalg.eigvalsh(fixed)[0] >= -1e-16
    assert abs(fixed.trace().real - 1.0) < 1e-14


def test_floor_leaves_the_eigensolvers_rounding_of_zero_alone():
    # an eigenvalue within dim eps max|w| of zero is the Hermitian
    # eigensolver's rounding of an exact zero: the state comes back as
    # exactly sym / tr. -1e-12 is still repaired, and past the floor raises.
    rng = np.random.default_rng(53)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rounding = 4 * np.finfo(float).eps * 0.5

    def state(low):
        m = (q * [low, 0.2, 0.3, 0.5]) @ q.conj().T
        return 0.5 * (m + m.conj().T)

    sym = state(-0.5 * rounding)
    assert -rounding <= np.linalg.eigvalsh(sym)[0] < 0.0
    fixed, spectrum = floored(sym)
    assert np.array_equal(fixed, sym / sym.trace().real)
    assert np.array_equal(spectrum, np.linalg.eigvalsh(sym) / sym.trace().real)
    repaired = floor_positivity(state(-1e-12))
    assert np.linalg.eigvalsh(repaired)[0] >= -rounding
    assert abs(repaired.trace().real - 1.0) < 1e-14
    with pytest.raises(StateValidationError, match="eigenvalue"):
        floor_positivity(state(-2e-9))


def test_floor_positivity_rejects_genuine_violations():
    with pytest.raises(StateValidationError):
        floor_positivity(np.diag([1.001, -0.001]).astype(complex))
    with pytest.raises(StateValidationError, match="trace collapsed"):
        floor_positivity(np.zeros((2, 2), dtype=complex))


def test_floor_positivity_rejects_non_finite_entries():
    # raised before the eigendecomposition, which would warn and return nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.full((2, 2), np.nan, dtype=complex), np.diag([np.inf, 0.0])):
            with pytest.raises(StateValidationError, match="non-finite"):
                floor_positivity(bad)


# --------------------------------------------------------- block spectrum


def test_blocks_are_the_connected_components_of_a_pattern():
    # one (count, size) array per component size, components in order of
    # their least index, each component's indices ascending
    def blocks(mask):
        return [b.tolist() for b in core._blocks(mask)]

    assert blocks(np.eye(4, dtype=bool)) == [[[0], [1], [2], [3]]]
    doublets = np.eye(6, dtype=bool)
    for i, j in ((0, 3), (4, 1), (2, 5)):
        doublets[i, j] = doublets[j, i] = True
    assert blocks(doublets) == [[[0, 3], [1, 4], [2, 5]]]
    # an entry on one side of the diagonal joins its row and column
    one_sided = np.zeros((4, 4), dtype=bool)
    one_sided[3, 0] = True
    assert blocks(one_sided) == [[[1], [2]], [[0, 3]]]
    # a 183-level chain is one block however its levels are numbered
    chain = np.eye(183, dtype=bool) | np.eye(183, k=1, dtype=bool)
    shuffled = np.random.default_rng(59).permutation(183)
    for mask in (chain, chain[np.ix_(shuffled, shuffled)]):
        assert blocks(mask) == [[list(range(183))]]


def test_block_spectrum_matches_eigvalsh(monkeypatch):
    # random Hermitian blocks on a shuffled numbering: the blocks are found
    # from the nonzero pattern, and their eigenvalues are eigvalsh's within
    # the eigensolver's rounding, dim eps max|w|, at every size
    monkeypatch.setattr(core, "DENSE_PROPAGATION_MAX_DIM", 0)
    rng = np.random.default_rng(61)
    for sizes in ((1, 1, 2, 3, 2, 5, 1, 3), (4,), (1, 1, 1), (2, 2, 2, 7)):
        dim = sum(sizes)
        m = np.zeros((dim, dim), dtype=complex)
        start = 0
        for s in sizes:
            a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
            m[start:start + s, start:start + s] = a + a.conj().T
            start += s
        shuffled = rng.permutation(dim)
        m = m[np.ix_(shuffled, shuffled)]
        blocks = core._blocks(m != 0)
        assert sorted(s for b in blocks for s in [b.shape[1]] * b.shape[0]) == sorted(sizes)
        w = np.linalg.eigvalsh(m)
        support = core._support_of(m != 0)
        got = core._eigenvalues(m.reshape(-1)[support.index], support)
        assert np.abs(got - w).max() <= dim * np.finfo(float).eps * np.abs(w).max()


def test_positivity_is_enforced_inside_a_block(monkeypatch):
    # rho0 reaches the three populations and the coherence between levels 1
    # and 2, one 2 x 2 block [[a, c], [c*, b]]; with |c|^2 > ab its lowest
    # eigenvalue a - c lies 2e-9 below zero, which a direct DensityMatrix
    # and a propagation step that lands on it both reject, while 1e-12
    # below zero is repaired
    h = np.diag([0.0, 1.0, 2.5]).astype(complex)
    lower = np.zeros((3, 3), dtype=complex)
    lower[0, 1] = 1.0
    gen = LindbladGenerator(h, [DissipationChannel(lower, 0.3, "loss", 1.0)])
    start = np.diag([0.5, 0.25, 0.25]).astype(complex)
    start[1, 2] = start[2, 1] = 0.1
    keep = reachable(gen.superoperator, start.reshape(-1) != 0)
    assert [b.tolist() for b in core._blocks(keep.reshape(3, 3))] == [[[0]], [[1, 2]]]

    def landing(c):
        target = start.copy()
        target[1, 2] = target[2, 1] = c
        return target

    bad = landing(0.25 + 2 * core.EIGENVALUE_FLOOR)
    assert np.linalg.eigvalsh(bad)[0] < -core.EIGENVALUE_FLOOR
    with pytest.raises(StateValidationError, match="eigenvalue"):
        DensityMatrix(bad)
    for target, raises in ((bad, True), (landing(0.25 + 1e-12), False)):
        # the mocked propagator sends the start, whose first restricted
        # coordinate is its population 0.5, to target
        onto = target.reshape(-1)[keep] / start[0, 0]
        monkeypatch.setattr(core, "expm_dense", lambda a: np.outer(onto, np.eye(len(a))[0]))
        if raises:
            with pytest.raises(StateValidationError, match="eigenvalue"):
                propagate(gen, DensityMatrix(start), [0.0, 1.0])
            continue
        repaired = propagate(gen, DensityMatrix(start), [0.0, 1.0])[-1].entries
        assert np.linalg.eigvalsh(repaired)[0] >= -3 * np.finfo(float).eps
        assert abs(repaired.trace().real - 1.0) < 1e-14
        assert repaired[1, 2].real < target[1, 2].real


def test_ladder_propagation_never_diagonalises_the_whole_state(monkeypatch):
    # the n_max=6 product start (dim 21) splits into single levels and
    # doublets: neither building it nor propagating it may run eigvalsh or
    # eigh on a 21 x 21 matrix, only on its blocks
    shapes = []

    def recorded(solver):
        def call(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return solver(a, *args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    gen = hamiltonian_transfer_generator(LADDER, 6)
    propagate(gen, dressed_product_state(LADDER, 6), 0.5 * np.arange(9))
    assert (2, 2) in shapes
    assert (gen.dim, gen.dim) not in shapes


def test_states_within_the_dense_bound_take_one_eigvalsh(monkeypatch):
    # at or below DENSE_PROPAGATION_MAX_DIM levels one eigvalsh of the whole
    # state is cheaper than finding its blocks: the FMO ground state (dim
    # 10), built directly and propagated, is diagonalised only as 10 x 10
    # and never split, once per state
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shape = np.shape(a)
        shapes.extend([shape[-2:]] * math.prod(shape[:-2]))
        return eigvalsh(a, *args, **kwargs)

    def no_blocks(mask):
        raise AssertionError("_blocks ran on a state within the dense bound")

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    monkeypatch.setattr(core, "_blocks", no_blocks)
    gen = build_model(default_config()).generator
    assert gen.dim <= core.DENSE_PROPAGATION_MAX_DIM
    ground = DensityMatrix.ground(gen.dim)
    assert shapes == [(gen.dim, gen.dim)]
    states = propagate(gen, ground, np.linspace(0.0, 1.0, 5) * PS_TO_INTERNAL)
    assert len(states) == 5
    # the state built directly and each propagated state, once
    assert shapes == [(gen.dim, gen.dim)] * 5
