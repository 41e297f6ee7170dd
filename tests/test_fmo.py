"""Antenna + pigment-complex + trap model: structure, thermals, audit trace."""

import math
import warnings

import numpy as np
import pytest

from solaraudit import (
    DensityMatrix,
    entropy_production,
    entropy_rate,
    heat_current,
    liouvillian_apply,
    propagate,
    steady_state,
)
from solaraudit import fmo
from solaraudit.errors import ConfigError, NumericsError
from solaraudit.fmo import (
    KB_CM_PER_K,
    N_SITES,
    PS_TO_INTERNAL,
    SINK_SOURCE_SITE,
    FmoConfig,
    OhmicDrudeSpectrum,
    build_model,
    builtin_site_data,
    default_config,
    effective_sun_temperature,
    kelvin_to_wavenumber,
    load_site_data,
    parse_site_data,
    sigma_trace,
)
from solaraudit.thermo import FIRST_LAW_RELATIVE_TOL

from dissipator_oracle import gibbs_state


def tiny_site_text(diag=0.0, asym=False):
    """Minimal well-formed site data: spread energies, one coupled pair."""
    lines = [str(100.0 + m) for m in range(N_SITES)]
    mat = np.zeros((N_SITES, N_SITES))
    mat[0, 1] = mat[1, 0] = 5.0
    if asym:
        mat[1, 0] = 6.0
    if diag:
        mat[3, 3] = diag
    for row in mat:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def full_params(**over):
    params = dict(
        data_file="builtin",
        omega_ant=13333.0,
        n_pigments=100,
        mu_ant_ind=5.0,
        mu_fmo=5.44,
        lambda_geo=2e-5,
        t_sun=5780.0,
        t_loss_k=300.0,
        gamma_rad=2.0,
        gamma_sink=33.4,
        vib_reorganization=35.0,
        vib_cutoff=106.0,
        t_max_ps=1.0,
        n_times=3,
    )
    params.update(over)
    return params


def test_kelvin_conversion():
    assert kelvin_to_wavenumber(300.0) == pytest.approx(300.0 * KB_CM_PER_K, rel=1e-15)
    with pytest.raises(ValueError):
        kelvin_to_wavenumber(0.0)


def test_effective_sun_temperature_undiluted_identity():
    assert effective_sun_temperature(13333.0, 5780.0, 1.0) == pytest.approx(
        5780.0, rel=1e-9
    )


def test_effective_sun_temperature_default_dilution():
    t_abs = effective_sun_temperature(13333.0, 5780.0, 2e-5)
    assert abs(t_abs / 1356.0 - 1.0) < 0.02
    assert t_abs == pytest.approx(1360.337, abs=0.05)


def test_effective_sun_temperature_monotone_in_dilution():
    grid = np.logspace(-6, 0, 13)
    temps = [effective_sun_temperature(13333.0, 5780.0, lam) for lam in grid]
    assert all(a < b for a, b in zip(temps, temps[1:]))


def test_effective_sun_temperature_errors():
    with pytest.raises(ValueError):
        effective_sun_temperature(0.0, 5780.0, 1.0)
    with pytest.raises(ValueError):
        effective_sun_temperature(13333.0, 5780.0, 0.0)
    with pytest.raises(ValueError):
        effective_sun_temperature(13333.0, 5780.0, 1.5)
    with pytest.raises(NumericsError):
        effective_sun_temperature(13333.0, 1.0, 2e-5)


def test_builtin_site_data_shape():
    energies, couplings = builtin_site_data()
    assert energies.shape == (N_SITES,)
    assert couplings.shape == (N_SITES, N_SITES)
    assert np.abs(couplings - couplings.T).max() == 0.0
    assert np.abs(np.diag(couplings)).max() == 0.0
    assert energies[2] == 12195.0
    assert couplings[0, 1] == -104.1
    # parsed once and shared by every call, so nobody may write to it
    assert builtin_site_data()[0] is energies
    assert not energies.flags.writeable and not couplings.flags.writeable


def test_parse_site_data_errors():
    with pytest.raises(ConfigError, match="malformed"):
        parse_site_data(tiny_site_text().replace("102.0", "bogus"))
    with pytest.raises(ConfigError, match="data lines"):
        parse_site_data("\n".join(tiny_site_text().splitlines()[:-1]))
    with pytest.raises(ConfigError, match="coupling values"):
        parse_site_data(tiny_site_text().replace("5.0 0.0", "5.0"))
    with pytest.raises(ConfigError, match="symmetric"):
        parse_site_data(tiny_site_text(asym=True))
    with pytest.raises(ConfigError, match="zero diagonal"):
        parse_site_data(tiny_site_text(diag=7.0))
    with pytest.raises(ConfigError, match="one energy value"):
        parse_site_data(tiny_site_text().replace("101.0", "101.0 3.0"))


def test_load_site_data_accepts_comments(tmp_path):
    path = tmp_path / "sites.txt"
    path.write_text("# header comment\n\n" + tiny_site_text().replace("105.0", "105.0  # six"))
    energies, couplings = load_site_data(path)
    assert energies[5] == 105.0
    assert couplings[0, 1] == 5.0


def test_ohmic_drude_spectrum():
    vib = OhmicDrudeSpectrum(reorganization=35.0, cutoff=106.0)
    # the density peaks at the cutoff, where it equals the reorganization
    assert vib.density(106.0) == pytest.approx(35.0, rel=1e-15)
    omega = 53.0
    expected = 2.0 * 35.0 * omega * 106.0 / (omega * omega + 106.0 * 106.0)
    assert vib.density(omega) == pytest.approx(expected, rel=1e-15)
    t_cm = kelvin_to_wavenumber(300.0)
    assert vib.dephasing_rate(t_cm) == pytest.approx(2.0 * 35.0 * t_cm / 106.0, rel=1e-15)
    with pytest.raises(ValueError):
        OhmicDrudeSpectrum(reorganization=-1.0, cutoff=106.0)
    with pytest.raises(ValueError):
        OhmicDrudeSpectrum(reorganization=35.0, cutoff=0.0)
    with pytest.raises(ValueError):
        vib.density(0.0)
    with pytest.raises(ValueError):
        vib.dephasing_rate(0.0)


def test_default_config_values_and_overrides():
    cfg = default_config()
    assert cfg.omega_ant == 13333.0
    assert cfg.n_pigments == 100
    assert cfg.mu_fmo == 5.44
    assert cfg.lambda_geo == 2e-5
    assert cfg.t_sun == 5780.0
    assert cfg.t_loss_k == 300.0
    assert cfg.gamma_sink == pytest.approx(62.8 / 1.88, rel=1e-12)
    assert cfg.gamma_ant_fmo == pytest.approx(cfg.gamma_sink / 10.0, rel=1e-12)
    assert cfg.vib.reorganization == 35.0
    assert cfg.vib.cutoff == 106.0
    quiet = default_config(gamma_sink=0.0)
    assert quiet.gamma_sink == 0.0
    assert quiet.gamma_ant_fmo == 0.0
    with pytest.raises(TypeError, match="vib_cutof"):
        default_config(gamma_sink=0.0, vib_cutof=1.0)


def test_config_compares_by_identity_and_hashes():
    # compared field by field, the array fields made == raise ValueError
    # and hash() raise TypeError
    cfg = default_config()
    assert cfg == cfg and cfg != default_config()
    assert hash(cfg) == hash(cfg)


def test_constructor_requires_every_key():
    params = full_params()
    del params["gamma_sink"]
    with pytest.raises(TypeError, match="gamma_sink"):
        FmoConfig(**params)


def test_constructor_reads_data_file(tmp_path):
    path = tmp_path / "sites.txt"
    path.write_text(tiny_site_text())
    cfg = FmoConfig(**full_params(data_file=str(path)))
    assert cfg.site_energies[0] == 100.0
    assert cfg.couplings[1, 0] == 5.0
    assert not cfg.site_energies.flags.writeable and not cfg.couplings.flags.writeable
    assert cfg.gamma_ant_fmo == cfg.gamma_sink / 10.0
    assert cfg.vib == OhmicDrudeSpectrum(reorganization=35.0, cutoff=106.0)
    # explicit transfer rate wins over the /10 rule
    explicit = FmoConfig(**full_params(gamma_ant_fmo=1.25))
    assert explicit.gamma_ant_fmo == 1.25


def test_config_field_validation(tmp_path):
    for name, value in (
        ("n_pigments", 0),
        ("n_pigments", 2.5),
        ("lambda_geo", 0.0),
        ("mu_fmo", 0.0),
        ("gamma_rad", 0.0),
        ("gamma_sink", -1.0),
        ("gamma_ant_fmo", -1.0),
        ("t_sun", -5780.0),
        ("vib_cutoff", 0.0),
    ):
        with pytest.raises(ValueError):
            default_config(**{name: value})
    # the arrays arrive only through data_file, checked by parse_site_data
    for text, needle in ((tiny_site_text(asym=True), "symmetric"),
                         (tiny_site_text(diag=7.0), "zero diagonal")):
        path = tmp_path / "sites.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match=needle):
            default_config(data_file=str(path))


def test_config_rejects_non_finite_values(tmp_path):
    for name in ("omega_ant", "mu_ant_ind", "mu_fmo", "lambda_geo", "t_sun", "t_loss_k",
                 "gamma_rad", "gamma_sink", "gamma_ant_fmo", "vib_reorganization",
                 "vib_cutoff", "t_max_ps"):
        for value in (math.nan, math.inf, -math.inf):
            # the vib_ floats are checked by the spectrum they build
            with pytest.raises(ValueError, match=f"{name.removeprefix('vib_')} must be finite"):
                default_config(**{name: value})
    text = tiny_site_text()
    for name, bad, at in (
        ("site_energies", text.replace("102.0", "nan"), r"\[2\]"),
        ("couplings", text.replace(" 5.0 ", " nan ").replace("\n5.0 ", "\nnan "), r"\[0, 1\]"),
    ):
        path = tmp_path / f"{name}.txt"
        path.write_text(bad)
        with pytest.raises(ValueError, match=f"{name} must be finite, got nan at {at}$"):
            default_config(data_file=str(path))


def test_build_model_structure():
    cfg = default_config()
    model = build_model(cfg)
    assert model.dim == 10
    assert model.sink_index == 9
    site_block = np.diag(cfg.site_energies) + cfg.couplings
    h = model.generator.hamiltonian
    assert h[1, 1].real == 13333.0
    assert np.max(np.abs(h[2:9, 2:9] - site_block)) == 0.0
    assert np.abs(h[9]).max() == 0.0
    assert model.t_abs_k == pytest.approx(1360.337, abs=0.05)


def test_build_model_without_sink():
    model = build_model(default_config(gamma_sink=0.0))
    assert model.dim == 9
    assert model.sink_index == -1
    assert "sink" not in model.generator.table.bath_id


def test_antenna_must_sit_above_excitons():
    with pytest.raises(ConfigError, match="omega_ant"):
        build_model(default_config(omega_ant=12000.0))


def test_thermal_control_steady_state_is_gibbs():
    cfg = default_config(gamma_sink=0.0, lambda_geo=1.0, t_sun=3000.0, t_loss_k=3000.0)
    model = build_model(cfg)
    assert model.t_abs_k == pytest.approx(3000.0, rel=1e-9)
    rho = steady_state(model.generator)
    gibbs = gibbs_state(model.generator.hamiltonian, kelvin_to_wavenumber(3000.0))
    assert np.max(np.abs(rho.entries - gibbs.entries)) < 1e-7


def test_sink_flow_direct_formula():
    cfg = default_config()
    model = build_model(cfg)
    gen = model.generator
    rho = propagate(gen, DensityMatrix.ground(model.dim), [0.0, 1.0 * PS_TO_INTERNAL])[-1]
    site3 = 2 + SINK_SOURCE_SITE - 1
    # jump |sink><site3| at rate G: the sink level carries zero energy, so
    # Tr[D(rho) H] reduces to -G Re (H rho)_{site3,site3}
    direct = -cfg.gamma_sink * np.real(
        (gen.hamiltonian @ rho.entries)[site3, site3]
    )
    assert heat_current(gen, "sink", rho) == pytest.approx(direct, rel=1e-12)
    assert direct < 0.0


def test_first_law_along_trace():
    model = build_model(default_config())
    gen = model.generator
    times = np.array([0.0, 0.5, 2.0]) * PS_TO_INTERNAL
    for rho in propagate(gen, DensityMatrix.ground(model.dim), times)[1:]:
        rho_dot = liouvillian_apply(gen, rho)
        lhs = np.trace(gen.hamiltonian @ rho_dot).real
        currents = [heat_current(gen, bath, rho) for bath in ("abs", "loss", "sink")]
        scale = max(abs(c) for c in currents)
        assert abs(lhs - sum(currents)) < 1e-9 * scale


def default_trace(**overrides):
    """The model of default_config(**overrides), and the states of its
    default trace with their rho_dot, stacked, from the public API."""
    cfg = default_config(**overrides)
    model = build_model(cfg)
    grid = np.linspace(0.0, cfg.t_max_ps, cfg.n_times) * PS_TO_INTERNAL
    states = propagate(model.generator, DensityMatrix.ground(model.dim), grid)
    rho = np.stack([state.entries for state in states])
    return model, rho, liouvillian_apply(model.generator, rho)


@pytest.mark.parametrize("overrides", [{}, {"gamma_sink": 0.0}], ids=["sink", "no-sink"])
def test_first_law_closes_on_every_row_of_the_default_trace(overrides):
    # d<H>/dt = Tr[H rho_dot] is J_abs + J_loss + sink_flow on each of the
    # 201 rows, to FIRST_LAW_RELATIVE_TOL of the row's largest current
    # (measured: 1.1e-14 with the sink, 5.1e-13 without)
    model, rho, rho_dot = default_trace(**overrides)
    gen = model.generator
    energy_rate = np.einsum("ij,tji->t", gen.hamiltonian, rho_dot).real
    currents = np.stack([heat_current(gen, bath, rho) for bath in ("abs", "loss", "sink")])
    assert energy_rate.shape == (201,)
    gap = np.abs(energy_rate - currents.sum(axis=0))
    assert np.all(gap <= FIRST_LAW_RELATIVE_TOL * np.abs(currents).max(axis=0))


@pytest.mark.parametrize("row", [1, 7])
def test_sigma_trace_raises_on_the_first_row_whose_books_do_not_close(monkeypatch, row):
    # sigma_trace checks Tr[H rho_dot] = j_abs + j_loss + sink_flow on every
    # row, to FIRST_LAW_RELATIVE_TOL of |j_abs|: a loss current off by twice
    # that on one row fails there, naming the row's time, and at half of it
    # the trace passes (the default rows close to 1e-14)
    grid = np.linspace(0.0, 10.0, 11)
    heat = fmo.heat_current

    def shifted(factor):
        def current(gen, bath, rho):
            j = heat(gen, bath, rho)
            if bath == "loss":
                j_abs = heat(gen, "abs", rho)
                j[row] += factor * FIRST_LAW_RELATIVE_TOL * abs(j_abs[row])
            return j
        return current

    monkeypatch.setattr(fmo, "heat_current", shifted(0.5))
    sigma_trace(default_config(), grid)
    monkeypatch.setattr(fmo, "heat_current", shifted(2.0))
    message = (rf"^first law violated at t = {grid[row]} ps: Tr\[H rho_dot\] differs from "
               r"j_abs \+ j_loss \+ sink_flow by 2\.0\d\de-09 of \|j_abs\|$")
    with pytest.raises(NumericsError, match=message):
        sigma_trace(default_config(), grid)


def test_negative_sigma_rows_of_the_default_trace_are_decided():
    # sigma = dS/dt - J_abs/T_abs - J_loss/T_loss is negative on 78 of the
    # 201 rows, from t = 6.15 ps on, and each of those signs is decided:
    # |sigma| exceeds eps times the summed magnitudes of its three terms,
    # the rounding of their sum
    model, rho, rho_dot = default_trace()
    gen = model.generator
    j_abs, j_loss = (heat_current(gen, bath, rho) for bath in ("abs", "loss"))
    temperatures = (model.t_abs_cm, model.t_loss_cm)
    sigma = entropy_production(rho, rho_dot, (j_abs, j_loss), temperatures)
    terms = np.stack([entropy_rate(rho, rho_dot), -j_abs / temperatures[0], -j_loss / temperatures[1]])
    negative = np.flatnonzero(sigma < 0.0)
    assert negative.size == 78 and negative[0] == 123 and negative[-1] == 200
    bound = np.finfo(float).eps * np.abs(terms).sum(axis=0)
    assert np.all(np.abs(sigma[negative]) > bound[negative])


def test_sigma_trace_default_run_crosses_negative():
    grid = np.linspace(0.0, 10.0, 41)
    trace = sigma_trace(default_config(), grid)
    assert np.all(np.isfinite(trace.sigma))
    assert trace.sigma.min() < 0.0
    # the audit starts clean and only later goes negative
    assert trace.sigma[1] > 0.0
    assert trace.sink_population[-1] > 0.0
    assert np.all(np.diff(trace.sink_population) >= -1e-9)
    assert trace.t_abs_k == pytest.approx(1360.337, abs=0.05)
    assert np.all(trace.j_abs[1:] > 0.0)
    assert np.all(trace.sink_flow <= 1e-12)


# Rows of sigma_trace(default_config(), np.linspace(0, 10, 201)) recorded
# from the fixed-step RK4 propagator, at the tolerance of the benchmark's
# fmo-trace oracle: 1e-7 relative plus 1e-9 of the column's largest
# magnitude over all 201 rows. A different propagator must land here too.
# (grid index, j_abs, j_loss, sink_flow, sigma, sink_population)
PINNED_TRACE_ROWS = [
    (0, 0.38661185666543185, 0.0, 0.0, 0.0005389040203811079, 0.0),
    (1, 0.15011174910827663, -0.0023609249861965293, -0.005266539810969376, 3.7867193185512734e-05, 1.0594062146984963e-08),
    (2, 0.10937043971324421, -0.0027763955351409308, -0.010454837685938438, 3.404148086503499e-05, 4.2982160798956765e-08),
    (5, 0.09569018115409117, -0.002957249564679084, -0.022856772287034432, 2.7255355744730663e-05, 2.526945290839191e-07),
    (10, 0.08889199693767026, -0.003116477348736089, -0.03577315702829548, 2.128943739563437e-05, 8.65449664463433e-07),
    (20, 0.08128512222920051, -0.0033428913096955654, -0.04953938511408546, 1.4931806853445894e-05, 2.6470649966058383e-06),
    (40, 0.0746600894373459, -0.0035553559995866913, -0.061277926016081195, 8.58568898126426e-06, 7.273288663441347e-06),
    (80, 0.07157970240831402, -0.003654109691721543, -0.0667412412495706, 2.9253473181934675e-06, 1.7912152148265446e-05),
    (120, 0.07120769566629397, -0.0036659666782538976, -0.06739943485906065, 1.5268361524385697e-07, 2.8923087808173768e-05),
    (160, 0.0711621715230422, -0.0036673599102861306, -0.06747809984540293, -1.655625825762347e-06, 3.997876755238799e-05),
    (200, 0.07115599298882447, -0.0036674921313815923, -0.0674869234095323, -3.0090162742369764e-06, 5.103973194034577e-05),
]
PINNED_TRACE_COLUMN_MAX = (
    0.38661185666543185, 0.0036674921313815923, 0.0674869234095323,
    0.0005389040203811079, 5.103973194034577e-05,
)


def test_sigma_trace_matches_pinned_rows():
    trace = sigma_trace(default_config(), np.linspace(0.0, 10.0, 201))
    columns = (trace.j_abs, trace.j_loss, trace.sink_flow, trace.sigma, trace.sink_population)
    for index, *expected in PINNED_TRACE_ROWS:
        for col, ref, colmax in zip(columns, expected, PINNED_TRACE_COLUMN_MAX):
            assert abs(col[index] - ref) <= 1e-7 * abs(ref) + 1e-9 * colmax, (index, ref)


def test_sigma_trace_rows_match_per_state_audit():
    # the stacked audit against one heat_current/entropy_production call
    # per state, to 1e-13 of each column's largest magnitude (sigma crosses
    # zero, where a relative bound would measure only rounding)
    model = build_model(default_config())
    gen = model.generator
    grid = np.linspace(0.0, 10.0, 201)
    trace = sigma_trace(default_config(), grid)
    rows = []
    for rho in propagate(gen, DensityMatrix.ground(model.dim), grid * PS_TO_INTERNAL):
        currents = [heat_current(gen, bath, rho) for bath in ("abs", "loss", "sink")]
        sigma = entropy_production(
            rho, liouvillian_apply(gen, rho), currents[:2], (model.t_abs_cm, model.t_loss_cm)
        )
        rows.append([*currents, sigma])
    expected = np.array(rows).T * PS_TO_INTERNAL
    for col, ref in zip((trace.j_abs, trace.j_loss, trace.sink_flow, trace.sigma), expected):
        assert np.abs(col - ref).max() <= 1e-13 * np.abs(ref).max()


def test_sigma_trace_non_finite_row_raises():
    # a subnormal loss temperature overflows J_loss / T_loss
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"sigma = inf is not finite at t = 5.0 ps"):
            sigma_trace(default_config(t_loss_k=1e-320), np.linspace(0.0, 10.0, 3))


def test_sigma_trace_thermal_control_stays_nonnegative():
    grid = np.linspace(0.0, 10.0, 21)
    trace = sigma_trace(default_config(gamma_sink=0.0), grid)
    assert trace.sigma.min() >= -1e-9
    assert np.all(trace.sink_population == 0.0)


def test_population_conserved_along_trace():
    model = build_model(default_config())
    gen = model.generator
    times = np.linspace(0.0, 3.0, 7) * PS_TO_INTERNAL
    for rho in propagate(gen, DensityMatrix.ground(model.dim), times):
        assert abs(np.trace(rho.entries).real - 1.0) < 1e-10


def test_sun_temperature_only_moves_absorption_rates():
    def tagged_rates(cfg, tag):
        table = build_model(cfg).generator.table
        tagged = table.bath_id == tag
        return sorted(zip(table.bohr_frequency[tagged].tolist(), table.rate[tagged].tolist()))

    hot = default_config()
    cool = default_config(t_sun=3000.0)
    assert tagged_rates(hot, "loss") == tagged_rates(cool, "loss")
    assert tagged_rates(hot, "sink") == tagged_rates(cool, "sink")
    assert tagged_rates(hot, "abs") != tagged_rates(cool, "abs")
