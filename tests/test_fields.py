import json
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gaugefix.fields as fields
from gaugefix.cli import main
from gaugefix.evolution import CSV_HEADER
from gaugefix.fields import (
    FieldState,
    Modes,
    SnapshotFormatError,
    SpectralWorkspace,
    correct_initial_data,
    diagnostics,
    div_norm_hat,
    get_workspace,
    plane_wave_reference,
    plane_wave_spectrum,
    project_snapshot,
    random_smooth_fields,
    read_snapshot,
    transverse_project,
    write_snapshot,
)
import oracles
from oracles import (
    constraint_norms,
    curl,
    dirac_kernel_check,
    div,
    energy,
    grad,
    kvec_table,
    l2_norm,
    longitudinal_norms,
    longitudinal_part,
    peak_shift,
    plane_wave_initial_data,
    project_state,
    state_distance,
)

TWO_PI = 2.0 * np.pi


def project_files(state, tmp_path):
    """project_snapshot of state written to a file: (norms, path of the projected file)."""
    src, dst = tmp_path / "in.gfsn", tmp_path / "out.gfsn"
    write_snapshot(state, src)
    return project_snapshot(src, dst), dst


def smooth_vector(rng, n=16, length=TWO_PI):
    a, _ = random_smooth_fields(rng, n, length)
    return a


def test_workspace_validation():
    with pytest.raises(ValueError):
        SpectralWorkspace(3, 1.0)
    with pytest.raises(ValueError):
        SpectralWorkspace(8, 0.0)
    with pytest.raises(ValueError):
        SpectralWorkspace(8, -2.0)


@pytest.mark.parametrize("length", [1e308, 1e200, 1e105, 1e-107, 1e-160, 1e-300, 1e-320])
def test_workspace_refuses_a_geometry_outside_float64_range(length):
    # On an N=8 grid the Parseval scale (L/64)^3 leaves float64 first:
    # it overflows past L ~ 3.6e104 and underflows to 0 below L ~ 1.1e-106.
    message = f"an N=8 grid of side L={length!r} is outside float64 range"
    with pytest.raises(ValueError, match=re.escape(message)):
        SpectralWorkspace(8, length)
    for build in (plane_wave_initial_data, plane_wave_spectrum, plane_wave_reference):
        with pytest.raises(ValueError, match=re.escape(message)):
            build((1, 0, 0), (0, 1, 0), grid_n=8, domain_length=length)


@pytest.mark.parametrize("length", [1e104, 1e-105, 3.0])
def test_workspace_scale_is_the_parseval_factor(length):
    ws = SpectralWorkspace(8, length)
    assert ws.scale == (length / 8 ** 2) ** 3 == Modes(ws).scale


def test_workspace_wavenumbers_are_numpy_fft_frequencies_bit_for_bit():
    # k1 and k3 come from integer mode numbers by fftfreq's and rfftfreq's
    # own arithmetic, for every accepted side L (the Nyquist entries zeroed).
    lengths = [TWO_PI, 3.0, 1.0 / 3.0, *(10.0 ** np.arange(-110.0, 111.0, 3.0))]
    for n in range(4, 71):
        accepted = 0
        for length in lengths:
            try:
                ws = SpectralWorkspace(n, length)
            except ValueError:
                continue
            accepted += 1
            k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
            k3 = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
            if n % 2 == 0:
                k1[n // 2] = k3[-1] = 0.0
            assert ws.k1.tobytes() == k1.tobytes() and ws.k3.tobytes() == k3.tobytes()
        assert accepted > 60


def test_workspace_cache_reuses_instances():
    a = get_workspace(16, TWO_PI)
    b = get_workspace(16, TWO_PI)
    assert a is b


def test_fft_round_trip(rng):
    ws = SpectralWorkspace(16, 3.0)
    f = smooth_vector(rng, 16, 3.0)
    assert_allclose(ws.backward(ws.forward(f)), f, atol=1e-13)


def test_grad_of_fourier_mode():
    ws = SpectralWorkspace(16, TWO_PI)
    x, _, _ = fields.grid_coordinates(16, TWO_PI)
    f = np.sin(3.0 * x) * np.ones((16, 16, 16))
    g = grad(f, ws)
    assert_allclose(g[0], 3.0 * np.cos(3.0 * x) * np.ones_like(f), atol=1e-12)
    assert_allclose(g[1], 0.0, atol=1e-13)
    assert_allclose(g[2], 0.0, atol=1e-13)


def test_divergence_of_curl_vanishes(rng):
    ws = SpectralWorkspace(16, TWO_PI)
    v = smooth_vector(rng)
    d = div(curl(v, ws), ws)
    assert np.max(np.abs(d)) < 1e-12 * max(np.max(np.abs(v)), 1.0)


def test_transverse_projector_idempotent(rng):
    ws = SpectralWorkspace(16, TWO_PI)
    v = smooth_vector(rng)
    once = transverse_project(v, ws)
    twice = transverse_project(once, ws)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(twice - once)) < 1e-12 * scale
    assert np.max(np.abs(div(once, ws))) < 1e-10 * scale


def test_projector_keeps_mean_component(rng):
    ws = SpectralWorkspace(8, TWO_PI)
    v = smooth_vector(rng, 8) + np.array([0.5, -0.25, 1.0])[:, None, None, None]
    projected = transverse_project(v, ws)
    assert_allclose(
        projected.mean(axis=(1, 2, 3)), v.mean(axis=(1, 2, 3)), atol=1e-13
    )


def test_longitudinal_transverse_split(rng):
    ws = SpectralWorkspace(16, TWO_PI)
    v = smooth_vector(rng)
    recombined = transverse_project(v, ws) + longitudinal_part(v, ws)
    mean = v.mean(axis=(1, 2, 3))[:, None, None, None]
    assert_allclose(recombined + mean * 0.0, v, atol=1e-11)


def inverse_laplacian(f, ws):
    """Solve lap(u) = f mode by mode; the k = 0 mode of u is set to zero."""
    return ws.backward(-ws.inv_k2 * ws.forward(f))


def test_inverse_laplacian_inverts_up_to_mean():
    ws = SpectralWorkspace(16, TWO_PI)
    x, y, z = fields.grid_coordinates(16, TWO_PI)
    f = np.sin(3.0 * x) * np.cos(2.0 * y) + 0.5 * np.cos(z) + 2.0
    f = f + 0.0 * (x + y + z)
    u = inverse_laplacian(f, ws)
    lap_u = div(grad(u, ws), ws)
    assert_allclose(lap_u, f - f.mean(), atol=1e-12)
    assert abs(u.mean()) < 1e-13


def test_l2_norm_of_constant():
    f = np.full((8, 8, 8), 3.0)
    assert l2_norm(f, 2.0) == pytest.approx(3.0 * 2.0**1.5, rel=1e-14)


@pytest.mark.parametrize("shift", [-900, -600, -560, -450, 450, 530, 600, 900])
@pytest.mark.parametrize("length", [TWO_PI, 1e-60], ids=["2pi", "1e-60"])
def test_norms_of_data_past_the_square_range(length, shift, tmp_path, request):
    # Squares of these values over- or underflow although the norms do not:
    # each norm of the data scaled by 2^shift is the norm scaled by 2^shift,
    # the spectral ones bit for bit. At L = 1e-60 the largest |k| is near
    # 2^206 and the cell factor near 2^-621, so the exponent of the spectrum
    # read passes 1074 at shift 900, and the squares' sum at its own scale
    # underflows at shift -450.
    a, pi = random_smooth_fields(np.random.default_rng(0), 16, length)
    state = FieldState(a, pi, length)
    scaled = FieldState(np.ldexp(a, shift), np.ldexp(pi, shift), length)
    assert_allclose(l2_norm(scaled.a, length), np.ldexp(l2_norm(a, length), shift), rtol=1e-14)
    ws = state.workspace()
    f_hat = ws.forward(a)
    unit = div_norm_hat(f_hat, ws)
    assert div_norm_hat(np.ldexp(1.0, shift) * f_hat, ws) == np.ldexp(unit, shift)
    if length < 1 and shift == -900:
        # k . f^ / k^2 is below 2^-1074: the projection removes nothing.
        request.applymarker(pytest.mark.xfail(strict=True, reason="longitudinal "
                                              "coefficient underflows"))
    norms, _ = project_files(state, tmp_path)
    assert np.array_equal(project_files(scaled, tmp_path)[0], np.ldexp(norms, shift))
    constant = np.full((3, 8, 8, 8), np.ldexp(1.0, shift))
    assert l2_norm(constant, length) == pytest.approx(
        np.ldexp(np.sqrt(constant.size), shift) * (length / 8) ** 1.5, rel=1e-14)


def test_norm_and_energy_where_the_cell_volume_overflows():
    # At L = 1e104, N = 8 the workspace accepts the grid, though dV = (L/N)^3
    # is past float64 range: a finite norm or energy still comes back finite,
    # one past the range comes back inf, and neither raises or warns.
    length, ones = 1e104, np.ones((3, 8, 8, 8))
    root_dv = (length / 8) ** 1.5
    assert l2_norm(ones, length) == pytest.approx(np.sqrt(ones.size) * root_dv, rel=1e-14)
    assert np.isfinite(l2_norm(ones, length))
    faint = FieldState(ones, 1e-150 * ones, length)
    assert energy(faint) == pytest.approx(0.5 * ones.size * 1e-300 * root_dv * root_dv,
                                          rel=1e-12)
    assert energy(FieldState(ones, ones, length)) == np.inf
    assert l2_norm(ones, 1e300) == np.inf


@pytest.mark.parametrize("n", [8, 9, 16])
def test_diagnostics_match_the_grid_oracle(rng, n):
    a, pi = random_smooth_fields(rng, n, TWO_PI)
    state = FieldState(a, pi, TWO_PI)
    got = diagnostics(state)
    assert list(got) == CSV_HEADER.split(",")[1:6]
    expected = (energy(state), *constraint_norms(state), *longitudinal_norms(state))
    assert_allclose(list(got.values()), expected, rtol=1e-12)


@pytest.mark.parametrize("n", [8, 9, 16])
def test_diagnostics_stay_finite_where_the_grid_squares_overflow(rng, n):
    # A small cube keeps the energy of data near 2^520 inside float64 range,
    # though the squares of the grid values, and so the grid energy, overflow.
    length = 2.0 ** -40
    a, pi = random_smooth_fields(rng, n, length, amplitude=2.0 ** -80)
    state = FieldState(a, pi, length)
    scaled = FieldState(np.ldexp(a, 600), np.ldexp(pi, 600), length)
    with np.errstate(over="ignore"):
        assert np.max(scaled.pi ** 2) == np.inf
    assert energy(scaled) == np.inf
    got = diagnostics(scaled)
    assert np.all(np.isfinite(list(got.values())))
    expected = (energy(state), *constraint_norms(state), *longitudinal_norms(state))
    assert_allclose(np.ldexp(list(got.values()), [-1200, -600, -600, -600, -600]), expected,
                    rtol=1e-12)


@pytest.mark.parametrize("j", [-660, 600])
def test_diagnostics_scale_exactly_with_the_amplitude(rng, j):
    # Data scaled by 2^j give each column scaled by 2^j (the energy by 2^2j,
    # which overflows at 2^600), bit for bit: the row is read at one power
    # of two from the spectrum's peak, so squares near 2^-1320 do not
    # underflow to 0 and squares near 2^1200 do not overflow.
    a, pi = random_smooth_fields(rng, 8, TWO_PI)
    one = diagnostics(FieldState(a, pi, TWO_PI))
    got = diagnostics(FieldState(np.ldexp(a, j), np.ldexp(pi, j), TWO_PI))
    with np.errstate(over="ignore"):
        want = np.ldexp(list(one.values()), [2 * j, j, j, j, j])
    assert np.array_equal(list(got.values()), want)
    assert got["norm_divA"] > 0 and np.isfinite(got["norm_divA"])
    assert got["energy"] == (0.0 if j < 0 else np.inf)


def test_plane_wave_energy_closed_form():
    n, length, amp = 16, TWO_PI, 0.7
    state = plane_wave_initial_data(
        (2, 1, 0), (0.0, 0.0, 1.0), amplitude=amp, grid_n=n, domain_length=length
    )
    k2 = (TWO_PI / length) ** 2 * (2**2 + 1**2)
    expected = 0.25 * amp**2 * k2 * length**3
    assert energy(state) == pytest.approx(expected, rel=1e-12)


def test_plane_wave_reference_consistency():
    state = plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=16)
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=16)
    a0, pi0 = ref(0.0)
    assert_allclose(a0, state.a, atol=1e-14)
    assert_allclose(pi0, state.pi, atol=1e-14)
    a_half, pi_half = ref(0.5 * ref.period)
    assert_allclose(a_half, -state.a, atol=1e-12)
    assert_allclose(pi_half, -state.pi, atol=1e-12)
    assert ref.omega == pytest.approx(1.0)


def test_plane_wave_validation():
    with pytest.raises(ValueError, match="nonzero"):
        plane_wave_initial_data((0, 0, 0), (0, 1, 0), grid_n=8)
    with pytest.raises(ValueError, match="orthogonal"):
        plane_wave_initial_data((1, 0, 0), (1, 1, 0), grid_n=8)
    with pytest.raises(ValueError, match="resolved"):
        plane_wave_initial_data((4, 0, 0), (0, 1, 0), grid_n=8)
    with pytest.raises(ValueError, match="kind"):
        plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=8, kind="dirty")


@pytest.mark.parametrize("build", [plane_wave_initial_data, plane_wave_reference])
@pytest.mark.parametrize("polarization", [
    (1, 0, 0),       # parallel to the mode: not transverse
    (0, 1),          # not a 3-vector
    (0, 0, 0),       # no direction
    (np.inf, 0, 0),  # not finite
])
def test_plane_wave_polarization_validation(build, polarization):
    with pytest.raises(ValueError, match="polarization"):
        build((1, 0, 0), polarization, grid_n=8)


def test_plane_wave_polarization_extreme_scales():
    tiny = plane_wave_reference((1, 0, 0), (0, 1e-300, 0), grid_n=8)
    huge = plane_wave_reference((1, 0, 0), (0, 1e300, 1e300), grid_n=8)
    assert_allclose(tiny(0.0)[0], plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=8)(0.0)[0])
    assert np.all(np.isfinite(huge(0.0)[0]))


@pytest.mark.parametrize("mode, polarization", [
    ((1, 0, 0), (0, 1, 0)),    # m_z = 0: +m and -m are both stored
    ((1, -2, 1), (1, 0, -1)),  # m_z > 0: -m is the stored entry's mirror
    ((2, 1, -1), (0, 1, 1)),   # m_z < 0: -m is the stored entry
])
@pytest.mark.parametrize("n", [8, 9])
def test_plane_wave_reference_spectral_form(mode, polarization, n):
    ref = plane_wave_reference(mode, polarization, amplitude=0.7, grid_n=n,
                               domain_length=3.0)
    ws = get_workspace(n, 3.0)
    assert len(ref.support[0]) == (2 if mode[2] == 0 else 1)
    for t in (0.0, 0.3, 1.9):
        y_hat = ws.forward(np.stack(ref(t)))
        on_support = y_hat[(slice(None), slice(None), *ref.support)]
        assert_allclose(on_support, ref.spectrum(t), atol=1e-10 * n ** 3)
        y_hat[(slice(None), slice(None), *ref.support)] = 0.0
        assert np.max(np.abs(y_hat)) < 1e-10 * n ** 3


@pytest.mark.parametrize("length", [TWO_PI, 3.0, 0.7])
def test_workspace_tables_from_the_axes(length):
    # The largest k^2, taken from the 1-D axes, and the k^2 table, built
    # from them without a wavevector table, equal the meshgrid sums bit for bit.
    for n in range(4, 18):
        ws = SpectralWorkspace(n, length)
        assert "k2" not in vars(ws)
        k2 = np.sum(kvec_table(ws) ** 2, axis=0)
        assert ws.k2_max == k2.max() == ws.k2.max()
        assert np.array_equal(ws.k2, k2)


def test_plane_wave_reference_builds_its_grid_pattern_on_first_call():
    n = 64  # one grid component is 2 MB
    args = ((1, 2, 1), (1, 0, -1), 0.7)
    tracemalloc.start()
    try:
        ref = plane_wave_reference(*args, grid_n=n)
        ref.spectrum(0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    x, y, z = fields.grid_coordinates(n, TWO_PI)
    e = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    pattern = 0.7 * e[:, None, None, None] * np.cos(1.0 * x + 2.0 * y + 1.0 * z)[None]
    a, pi = ref(0.3)
    assert np.array_equal(a, pattern * np.cos(ref.omega * 0.3))
    assert np.array_equal(pi, pattern * (-ref.omega * np.sin(ref.omega * 0.3)))


@pytest.mark.filterwarnings("error")
def test_plane_wave_reference_spectrum_of_a_finite_wave_is_finite():
    # omega = 2 and coefficients of 1.28e308: -omega times them would
    # overflow, but the wave's coefficients themselves are finite.
    args = ((2, 0, 0), (0, 1, 0), 5e305)
    ref = plane_wave_reference(*args, grid_n=8)
    assert ref.omega == 2.0
    start = ref.spectrum(0.0)
    assert np.isfinite(start).all()
    want = plane_wave_spectrum(*args, grid_n=8).coeff
    assert np.array_equal(start[0], want[0]) and np.array_equal(start[1], want[1])


@pytest.mark.filterwarnings("error")
def test_plane_wave_reference_grid_momentum_of_a_finite_wave_is_finite():
    # omega = 400 and amplitude 5e305: -omega times the grid pattern would
    # overflow, but pi = -omega sin(omega t) times it is ~8e304 at t = 1e-6.
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), 5e305, grid_n=8,
                               domain_length=TWO_PI / 400)
    assert ref.omega == pytest.approx(400.0, rel=1e-15)
    a, pi = ref(1e-6)
    assert np.isfinite(a).all() and np.isfinite(pi).all()
    assert np.max(np.abs(pi)) == 5e305 * (ref.omega * np.sin(ref.omega * 1e-6))


def test_plane_wave_reference_spectrum_stacks_its_scalar_calls():
    # A 1-D array of times gives the scalar calls' coefficients stacked, bit
    # for bit, out to omega t ~ 1e300; coefficients of 1.28e308 too, whose
    # momentum overflows where |2 sin(2 t)| > 1.4.
    rng = np.random.default_rng(3)
    ts = np.concatenate([np.arange(0.0, 50.0, 0.05), -rng.uniform(0.0, 50.0, 100),
                         10.0 ** rng.uniform(-10.0, 300.0, 1000)])
    for args, n, length in [(((1, -2, 1), (1, 0, -1), 0.7), 8, 3.0),
                            (((2, 0, 0), (0, 1, 0), 5e305), 8, TWO_PI),
                            (((1, 2, 0), (0, 0, 1), 1.0), 9, 1e-3)]:
        ref = plane_wave_reference(*args, grid_n=n, domain_length=length)
        with np.errstate(over="ignore"):
            want = np.stack([ref.spectrum(t) for t in ts.tolist()])
            got = ref.spectrum(ts)
        assert got.shape == (ts.size, 2, 3, ref.support[0].size)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["transverse", "contaminated"])
@pytest.mark.parametrize("mode, polarization", [
    ((1, 0, 0), (0, 1, 0)),    # the contamination shares the wave's entries
    ((1, -2, 1), (1, 0, -1)),
    ((2, 1, -1), (0, 1, 1)),
])
@pytest.mark.parametrize("n", [8, 9])
def test_plane_wave_spectrum_is_the_grid_data_transformed(kind, mode, polarization, n):
    args = (mode, polarization, 0.7, kind, n, 3.0, 0.2)
    spec = plane_wave_spectrum(*args)
    y_hat = spec.half_spectrum()
    grid = plane_wave_initial_data(*args)
    ws = get_workspace(n, 3.0)
    assert_allclose(y_hat, ws.forward(np.stack([grid.a, grid.pi])), rtol=0, atol=1e-13 * n ** 3)
    # The wave's entries hold the reference's coefficients at t = 0 exactly
    # (pi_x also holds the contamination).
    ref = plane_wave_reference(*args[:3], grid_n=n, domain_length=3.0)
    on_support = y_hat[(slice(None), slice(None), *ref.support)]
    expected = ref.spectrum(0.0)
    assert np.array_equal(on_support[0], expected[0])
    assert np.array_equal(on_support[1, 1:], expected[1, 1:])
    assert len(set(zip(*spec.support))) == spec.coeff.shape[-1]


@pytest.mark.parametrize("kwargs, match", [
    (dict(mode=(0, 0, 0)), "nonzero"),
    (dict(polarization=(1, 1, 0)), "orthogonal"),
    (dict(mode=(4, 0, 0)), "resolved"),
    (dict(kind="dirty"), "kind"),
    (dict(polarization=(np.inf, 0, 0)), "polarization"),
    (dict(mode=(1.5, 0, 0)), "^mode must be an integer 3-vector$"),
])
def test_plane_wave_spectrum_validation(kwargs, match):
    args = dict(mode=(1, 0, 0), polarization=(0, 1, 0), grid_n=8) | kwargs
    with pytest.raises(ValueError, match=match):
        plane_wave_spectrum(**args)


@pytest.mark.parametrize("n", [8, 9, 32])
def test_shells_group_modes_by_exact_k2(n):
    ws = get_workspace(n, TWO_PI)
    k2, shell = ws.shells
    assert np.array_equal(k2[shell], ws.k2.ravel())
    assert np.all(np.diff(k2) > 0) and k2[0] == 0.0
    # Pure-Nyquist modes (every index 0 or N/2) carry zeroed wavenumbers.
    if n % 2 == 0:
        edge = np.isin(np.arange(n), [0, n // 2])
        pure = edge[:, None, None] & edge[None, :, None] & np.array([True] + [False] * (n // 2 - 1) + [True])
        assert pure.sum() == 8
        assert np.all(shell.reshape(ws.k2.shape)[pure] == 0)
    if n == 32:
        assert (len(k2), shell.size) == (596, 17408)


@pytest.mark.parametrize("n", [8, 9])
def test_plane_weights_give_parseval(rng, n):
    ws = get_workspace(n, TWO_PI)
    f = rng.standard_normal((n, n, n))
    f_hat = ws.forward(f)
    assert np.sum(ws.plane_weight * np.abs(f_hat) ** 2) == pytest.approx(
        n ** 3 * np.sum(f ** 2), rel=1e-13)


def test_shell_moments_split_transverse_and_longitudinal(rng):
    # The moments of raw data against the same sums over explicitly
    # projected grid fields.
    n = 8
    ws = get_workspace(n, TWO_PI)
    a, pi = random_smooth_fields(rng, n, TWO_PI)
    y_hat = ws.forward(np.stack([a, pi]))
    g_t, g_l = fields.Modes(ws).moments(y_hat[None])[0].reshape(2, 3, -1)
    a_t, pi_t = transverse_project(a, ws), transverse_project(pi, ws)
    a_l, pi_l = a - a_t, pi - pi_t
    for g, (u, v) in ((g_t, (a_t, pi_t)), (g_l, (a_l, pi_l))):
        assert_allclose(g.sum(axis=1), n ** 3 * np.array(
            [np.sum(u * u), np.sum(u * v), np.sum(v * v)]), rtol=1e-12, atol=1e-9)


def test_contaminated_wave_adds_longitudinal_momentum():
    clean = plane_wave_initial_data((0, 1, 0), (0, 0, 1), grid_n=16)
    dirty = plane_wave_initial_data(
        (0, 1, 0), (0, 0, 1), grid_n=16, kind="contaminated",
        contamination_amplitude=0.25,
    )
    assert_allclose(dirty.a, clean.a, atol=0)
    norm_a_l, norm_pi_l = longitudinal_norms(dirty)
    # cos(k x) with k = 2 pi / L has L2 norm sqrt(L^3 / 2).
    expected = 0.25 * (TWO_PI / dirty.domain_length) * np.sqrt(dirty.domain_length**3 / 2.0)
    assert norm_a_l < 1e-12
    assert norm_pi_l == pytest.approx(expected, rel=1e-12)
    diff = dirty.pi - clean.pi
    ws = dirty.workspace()
    assert np.max(np.abs(transverse_project(diff, ws))) < 1e-13


def test_constraint_norms_on_clean_wave():
    state = plane_wave_initial_data((1, 2, 0), (2, -1, 0), grid_n=16)
    div_a, div_pi = constraint_norms(state)
    assert div_a < 1e-12
    assert div_pi < 1e-12


def test_correct_initial_data_contract(rng):
    a, pi = random_smooth_fields(rng, 16, TWO_PI)
    scale = max(l2_norm(a, TWO_PI), l2_norm(pi, TWO_PI))
    corrected = correct_initial_data(a, pi, TWO_PI)
    div_a, div_pi = constraint_norms(corrected)
    assert div_a < 1e-10 * scale
    assert div_pi < 1e-10 * scale
    again = correct_initial_data(corrected.a, corrected.pi, TWO_PI)
    assert state_distance(again, corrected) < 1e-12 * scale
    ws = corrected.workspace()
    want_t = transverse_project(a, ws)
    got_t = transverse_project(corrected.a, ws)
    assert np.max(np.abs(got_t - want_t)) < 1e-12 * scale


def test_project_state_removes_longitudinal_parts(rng):
    a, pi = random_smooth_fields(rng, 8, TWO_PI)
    state = project_state(FieldState(a=a, pi=pi, domain_length=TWO_PI))
    norm_a_l, norm_pi_l = longitudinal_norms(state)
    assert norm_a_l < 1e-11
    assert norm_pi_l < 1e-11


@pytest.mark.parametrize("n", [8, 9])
def test_project_snapshot_matches_the_grid_route(rng, n, tmp_path):
    # Odd n has no Nyquist plane; the Parseval weights must hold for both.
    a, pi = random_smooth_fields(rng, n, 3.0)
    state = FieldState(a=a + 0.25, pi=pi, domain_length=3.0)
    (before, after), out = project_files(state, tmp_path)
    projected = read_snapshot(out)
    reference = project_state(state)
    assert projected.a.tobytes() == reference.a.tobytes()
    assert projected.pi.tobytes() == reference.pi.tobytes()
    assert_allclose(before, constraint_norms(state), rtol=1e-12)
    assert_allclose(after, constraint_norms(projected), rtol=0, atol=1e-12 * max(before))
    ws = state.workspace()
    assert after == tuple(div_norm_hat(ws.forward(f), ws) for f in (projected.a, projected.pi))


def test_project_command_holds_one_half_spectrum_and_its_squares_table(tmp_path, capsys):
    # The whole command at N = 64 holds one field's half spectrum (6.2 MiB),
    # the norms' squares table (a sixth of it), whose memory also takes the
    # x-slabs of each component on the grid, and per-plane temporaries: no
    # grid buffer, no k^2 table, no transform temporaries and never the
    # 12 MiB snapshot. numpy.fft is imported first: its import is not the
    # command's arrays.
    import numpy.fft  # noqa: F401
    n = 64
    rng = np.random.default_rng(5)
    src = tmp_path / "in.gfsn"
    write_snapshot(FieldState(rng.standard_normal((3, n, n, n)),
                              rng.standard_normal((3, n, n, n)), TWO_PI), src)
    get_workspace.cache_clear()
    tracemalloc.start()
    try:
        assert main(["project", str(src), "--out", str(tmp_path / "out.gfsn")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 3 * n * n * (n // 2 + 1) * 16


def test_correct_initial_data_holds_one_half_spectrum_beyond_its_result():
    # At N = 64 the result is 12 MiB and one field's half spectrum 6.2 MiB.
    # The fields go one at a time through their half spectrum, projected and
    # transformed back in place with k^2 made per kx plane: no k^2, 1/k^2 or
    # shell table and no transform temporaries.
    n = 64
    a, pi = np.random.default_rng(5).standard_normal((2, 3, n, n, n))
    get_workspace.cache_clear()
    tracemalloc.start()
    try:
        state = correct_initial_data(a, pi, TWO_PI)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (state.a.nbytes + state.pi.nbytes) <= 1.2 * 3 * n * n * (n // 2 + 1) * 16
    assert not {"k2", "inv_k2", "shells"} & set(vars(get_workspace(n, TWO_PI)))


@given(st.sampled_from([8, 9, 16, 17]), st.sampled_from([(3,), (2, 3)]),
       st.sampled_from(["random", "overflow", "nonfinite"]), st.floats(-300.0, 300.0),
       st.integers(0, 2 ** 32 - 1))
def test_remove_longitudinal_equals_the_split_bit_for_bit(n, lead, data, u, seed):
    # Amplitudes 10^u. "overflow" adds, in one field of the stack, a mode
    # k = (m, m, k_z) of polarization (1, -1, 0) near the float64 limit, so
    # k . v sums two overflowing terms of opposite sign (NaN) and is redone
    # at the scale of the whole stack; "nonfinite" puts an inf or a NaN in.
    rng = np.random.default_rng(seed)
    ws = get_workspace(n, TWO_PI)
    shape = lead + (n, n, n // 2 + 1)
    v = 10.0 ** u * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    stack = v.reshape((-1, 3) + shape[-3:])  # a view: the fields of v
    if data == "overflow":
        m = n // 2 - 1
        stack[rng.integers(len(stack)), :, m, m, rng.integers(n // 2 + 1)] = (
            1e308 * np.array([1.0, -1.0, 0.0]))
    elif data == "nonfinite":
        v.reshape(-1)[rng.integers(v.size)] = rng.choice([np.inf, -np.inf, np.nan]) * (1 + 1j)
    with np.errstate(all="ignore"):
        want = Modes(ws).split(v)[0]
        if data == "overflow":
            assert np.isnan(fields.k_dot(v, ws.k_axes)).any()
        got = v.copy()
        assert fields._remove_longitudinal(got, ws) is got
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 9, 16, 17])
@pytest.mark.parametrize("lead", [(3,), (2, 3)])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_transforms_equal_whole_stack_ffts_bit_for_bit(rng, n, lead, layout):
    ws = SpectralWorkspace(n, TWO_PI)
    shape = lead + (n, n, n)
    f = rng.standard_normal(shape) * 10.0 ** rng.uniform(-200, 200, shape)
    f_hat = np.fft.rfftn(f, axes=(-3, -2, -1))
    back = np.fft.irfftn(f_hat, s=(n, n, n), axes=(-3, -2, -1))

    def laid_out(x):
        # x itself, or a view of every other entry of a larger array on each axis.
        if layout == "contiguous":
            return x
        wide = np.full(tuple(2 * d for d in x.shape), np.nan, dtype=x.dtype)
        view = wide[(slice(None, None, 2),) * x.ndim]
        view[...] = x
        return view

    f_in, hat_in = laid_out(f), laid_out(f_hat)
    out_hat = laid_out(np.empty_like(f_hat))
    assert ws.forward(f_in, out=out_hat) is out_hat
    for got, want in ((ws.forward(f_in), f_hat), (out_hat, f_hat), (ws.backward(hat_in), back)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [16, 17])
def test_transforms_allocate_no_temporaries_and_keep_their_input(rng, n):
    # forward runs its passes in place in out; backward reuses one
    # component's half-spectrum scratch for every component.
    ws = SpectralWorkspace(n, TWO_PI)
    f = rng.standard_normal((2, 3, n, n, n))
    f_hat = np.empty((2, 3, n, n, n // 2 + 1), dtype=complex)
    component_hat = n * n * (n // 2 + 1) * 16

    def traced_peak(transform, *args, **kwargs):
        """(what transform returns, the peak of memory traced while it ran)."""
        tracemalloc.start()
        try:
            return transform(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    f_bytes = f.tobytes()
    assert traced_peak(ws.forward, f, out=f_hat)[1] < component_hat
    hat_bytes = f_hat.tobytes()
    # The grid it returns, the scratch, and a few KiB of array views and headers.
    grid, peak = traced_peak(ws.backward, f_hat)
    assert peak <= grid.nbytes + component_hat + 4096
    assert f.tobytes() == f_bytes and f_hat.tobytes() == hat_bytes
    assert grid.tobytes() == np.fft.irfftn(f_hat, s=(n, n, n), axes=(-3, -2, -1)).tobytes()


def _projected_by_whole_stack_products(f, ws):
    """The transverse projection as one rfftn, a meshgrid wavevector table and one irfftn."""
    n = ws.grid_n
    kvec = kvec_table(ws)
    f_hat = np.fft.rfftn(f, axes=(-3, -2, -1))
    coef = np.sum(kvec * f_hat, axis=0) * ws.inv_k2
    redo = ~np.isfinite(coef)
    if redo.any() and np.isfinite(f_hat).all() and (shift := peak_shift(f_hat)) > 0:
        scaled = np.sum(kvec * (f_hat * np.ldexp(1.0, -shift)), axis=0) * ws.inv_k2
        coef[redo] = scaled[redo] * np.ldexp(1.0, shift)
    return np.fft.irfftn(f_hat - kvec * coef, s=(n, n, n), axes=(-3, -2, -1))


@settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.integers(4, 9), st.sampled_from([TWO_PI, 3.0]), st.floats(-300.0, 300.0),
       st.sampled_from(["none", "spectrum", "grid"]), st.integers(0, 2 ** 32 - 1))
def test_project_snapshot_equals_whole_stack_products(tmp_path, n, length, u, wave, seed):
    # Amplitudes 10^u, and A may hold a wave c cos(k . x) of polarization
    # (1, -1, 0) along k = (m, m, 0). With "spectrum" its coefficients
    # c N^3 / 2 nearly fill float64, so k . A^ sums two overflowing terms of
    # opposite sign where |k_x| > 1; with "grid" c does, and they overflow.
    rng = np.random.default_rng(seed)
    ws = get_workspace(n, length)
    a, pi = 10.0 ** u * rng.standard_normal((2, 3, n, n, n))
    if wave != "none":
        m = n // 2 - 1
        x, y, _ = fields.grid_coordinates(n, length)
        k_m = 2.0 * np.pi * m / length
        c = 1.6e308 if wave == "grid" else 1.6e308 / n ** 3 * 2.0 / np.sqrt(max(k_m, 1.0))
        a[0] += c * np.cos(k_m * (x + y))
        a[1] -= c * np.cos(k_m * (x + y))
    with np.errstate(all="ignore"):
        want = [_projected_by_whole_stack_products(f, ws) for f in (a, pi)]
    state = FieldState(a, pi, length)
    (tmp_path / "out.gfsn").unlink(missing_ok=True)
    if not all(np.isfinite(w).all() for w in want):
        with pytest.raises(ValueError, match="finite"):
            project_files(state, tmp_path)
        assert not (tmp_path / "out.gfsn").exists()
        return
    norms, out = project_files(state, tmp_path)
    assert out.read_bytes()[20:] == want[0].tobytes() + want[1].tobytes()
    # Before: the grid norms of div A and div pi, each field taken at 2^-s
    # where its peak 2^s would overflow the oracle's squares. After: rounding
    # level against the largest |k| times the field's norm.
    shifts = [e if (e := int(np.frexp(np.max(np.abs(f)))[1])) > 511 else 0 for f in (a, pi)]
    scaled = [np.ldexp(f, -s) for f, s in zip((a, pi), shifts)]
    assert_allclose(norms[0], np.ldexp(constraint_norms(FieldState(*scaled, length)), shifts),
                    rtol=1e-12)
    eps_k = np.finfo(float).eps * np.sqrt(ws.k2_max)
    for after, f, s in zip(norms[1], scaled, shifts):
        assert np.ldexp(after, -s) <= 16 * eps_k * l2_norm(f, length)


def test_project_snapshot_refuses_a_transform_that_overflows(tmp_path):
    a = np.zeros((3, 8, 8, 8))
    a[0] = 1e308 * (-1.0) ** np.arange(8)[:, None, None]
    with pytest.raises(ValueError, match="finite"):
        project_files(FieldState(a=a, pi=np.zeros_like(a), domain_length=TWO_PI), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.gfsn", "in.gfsn.json"]


def test_data_that_overflow_give_no_numpy_warning():
    # The suite turns warnings into errors, so a leaked one fails here.
    # The coefficient a N^3 / 2 overflows: SparseSpectrum refuses it.
    with pytest.raises(ValueError, match="Fourier coefficients must be finite"):
        plane_wave_spectrum((1, 0, 0), (0, 1, 0), amplitude=1e308, grid_n=8)
    a = np.zeros((3, 8, 8, 8))
    a[0] = 1e308 * (-1.0) ** np.arange(8)[:, None, None]
    with pytest.raises(ValueError, match="finite"):
        correct_initial_data(a, a, TWO_PI)


def test_sparse_spectrum_refuses_coefficients_that_are_not_finite():
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        coeff = np.zeros((2, 3, 1), dtype=complex)
        coeff[1, 2, 0] = bad
        with pytest.raises(ValueError, match="Fourier coefficients must be finite"):
            fields.SparseSpectrum(8, TWO_PI, ((1,), (0,), (0,)), coeff)
    with pytest.raises(ValueError, match="Fourier coefficients must be finite"):
        plane_wave_spectrum((1, 0, 0), (0, 1, 0), kind="contaminated", grid_n=8,
                            contamination_amplitude=1e308)
    # The largest finite coefficients are kept as given.
    coeff = np.full((2, 3, 1), np.finfo(float).max, dtype=complex)
    assert np.array_equal(fields.SparseSpectrum(8, TWO_PI, ((1,), (0,), (0,)), coeff).coeff, coeff)


@pytest.mark.parametrize("n", [8, 16])
def test_dirac_kernel_check_passes(n):
    state = FieldState(
        a=np.zeros((3, n, n, n)), pi=np.zeros((3, n, n, n)), domain_length=TWO_PI
    )
    assert dirac_kernel_check(state, tol=1e-12)


def test_dirac_kernel_check_detects_wrong_kernel(monkeypatch):
    n = 8
    good = get_workspace(n, TWO_PI)
    bad = SpectralWorkspace(n, TWO_PI)
    # kz 1% off turns the unit vector k/|k| itself wherever kx or ky is nonzero.
    bad.k3 *= 1.01
    monkeypatch.setattr(oracles, "get_workspace", lambda *a: bad)
    state = FieldState(
        a=np.zeros((3, n, n, n)), pi=np.zeros((3, n, n, n)), domain_length=TWO_PI
    )
    assert good is not bad
    assert not dirac_kernel_check(state, tol=1e-12)


def test_random_smooth_fields_deterministic():
    a1, p1 = random_smooth_fields(np.random.default_rng(42), 16, TWO_PI)
    a2, p2 = random_smooth_fields(np.random.default_rng(42), 16, TWO_PI)
    a3, _ = random_smooth_fields(np.random.default_rng(43), 16, TWO_PI)
    assert np.array_equal(a1, a2)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(a1, a3)


def test_random_smooth_fields_amplitude(rng):
    a, pi = random_smooth_fields(rng, 16, TWO_PI, amplitude=0.5)
    assert np.sqrt(np.mean(a**2)) == pytest.approx(0.5, rel=1e-12)
    assert np.sqrt(np.mean(pi**2)) == pytest.approx(0.5, rel=1e-12)


def test_field_state_validation():
    good = np.zeros((3, 8, 8, 8))
    with pytest.raises(ValueError):
        FieldState(a=good[:2], pi=good, domain_length=1.0)
    with pytest.raises(ValueError):
        FieldState(a=good, pi=good, domain_length=-1.0)
    nan = good.copy()
    nan[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        FieldState(a=nan, pi=good, domain_length=1.0)
    cubic = r"^a and pi must both be \(3, N, N, N\) with a cubic grid$"
    with pytest.raises(ValueError, match=cubic):
        FieldState(a=good[..., :4], pi=good[..., :4], domain_length=1.0)
    with pytest.raises(ValueError, match=cubic):
        FieldState(a=good, pi=good[:, :4, :4, :4], domain_length=1.0)
    small = np.zeros((3, 2, 2, 2))
    with pytest.raises(ValueError, match=r"^grid must be at least 4\^3, got 2\^3$"):
        FieldState(a=small, pi=small, domain_length=1.0)


def test_state_distance_zero_and_positive(rng):
    a, pi = random_smooth_fields(rng, 8, TWO_PI)
    s = FieldState(a=a, pi=pi, domain_length=TWO_PI)
    assert state_distance(s, s.copy()) == 0.0
    other = FieldState(a=a + 1.0, pi=pi, domain_length=TWO_PI)
    assert state_distance(s, other) == pytest.approx(
        l2_norm(np.ones_like(a[0]), TWO_PI) * np.sqrt(3.0), rel=1e-12
    )


class TestSnapshotIO:
    def test_round_trip(self, rng, tmp_path):
        a, pi = random_smooth_fields(rng, 8, 3.5)
        state = FieldState(a=a, pi=pi, domain_length=3.5)
        path = tmp_path / "state.gfsn"
        write_snapshot(state, path)
        loaded = read_snapshot(path)
        assert np.array_equal(loaded.a, state.a)
        assert np.array_equal(loaded.pi, state.pi)
        assert loaded.domain_length == 3.5
        sidecar = json.loads((tmp_path / "state.gfsn.json").read_text())
        assert sidecar["grid_n"] == 8
        assert sidecar["domain_length"] == 3.5
        assert sidecar["components"] == ["a_x", "a_y", "a_z", "pi_x", "pi_y", "pi_z"]

    def test_header_layout(self, tmp_path):
        state = FieldState(
            a=np.zeros((3, 4, 4, 4)), pi=np.zeros((3, 4, 4, 4)), domain_length=2.0
        )
        path = tmp_path / "s.gfsn"
        write_snapshot(state, path)
        raw = path.read_bytes()
        magic, version, n, length = struct.unpack_from("<4sIId", raw)
        assert magic == b"GFSN"
        assert version == 1
        assert n == 4
        assert length == 2.0
        assert len(raw) == struct.calcsize("<4sIId") + 6 * 4**3 * 8

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "s.gfsn"
        path.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "s.gfsn"
        header = struct.pack("<4sIId", b"GFSN", 9, 4, 1.0)
        path.write_bytes(header + bytes(6 * 64 * 8))
        with pytest.raises(SnapshotFormatError, match="version"):
            read_snapshot(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "s.gfsn"
        header = struct.pack("<4sIId", b"GFSN", 1, 4, 1.0)
        path.write_bytes(header + bytes(100))
        with pytest.raises(SnapshotFormatError, match="expected"):
            read_snapshot(path)

    def test_rejects_short_file(self, tmp_path):
        path = tmp_path / "s.gfsn"
        path.write_bytes(b"GF")
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_missing_file_reported_as_format_error(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="cannot read"):
            read_snapshot(tmp_path / "nope.gfsn")
        with pytest.raises(SnapshotFormatError, match="cannot read"):
            read_snapshot(tmp_path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_snapshot_from_a_pipe(self, rng, tmp_path):
        # A pipe reports size 0, and N=16 is more than one pipe buffer.
        a, pi = random_smooth_fields(rng, 16, TWO_PI)
        path = tmp_path / "s.gfsn"
        write_snapshot(FieldState(a=a, pi=pi, domain_length=TWO_PI), path)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        try:
            loaded = read_snapshot(fifo)
        finally:
            if writer.is_alive():  # never opened: let the writer's open return
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join()
        assert np.array_equal(loaded.a, a) and np.array_equal(loaded.pi, pi)
        assert loaded.domain_length == TWO_PI

    def test_non_contiguous_views_write_the_bytes_of_their_copies(self, rng, tmp_path):
        base = rng.standard_normal((3, 8, 8, 8))
        wide = rng.standard_normal((3, 16, 16, 16))
        views = FieldState(a=base.transpose(0, 3, 2, 1), pi=wide[:, ::2, 1::2, ::2],
                           domain_length=TWO_PI)
        assert not (views.a.flags.c_contiguous or views.pi.flags.c_contiguous)
        copies = FieldState(a=np.ascontiguousarray(views.a), pi=np.ascontiguousarray(views.pi),
                            domain_length=TWO_PI)
        write_snapshot(views, tmp_path / "views.gfsn")
        write_snapshot(copies, tmp_path / "copies.gfsn")
        raw = (tmp_path / "views.gfsn").read_bytes()
        assert raw == (tmp_path / "copies.gfsn").read_bytes()
        assert raw[20:] == copies.a.tobytes() + copies.pi.tobytes()

    def test_fields_are_writable_views_of_one_read_buffer(self, rng, tmp_path):
        a, pi = random_smooth_fields(rng, 8, TWO_PI)
        path = tmp_path / "s.gfsn"
        write_snapshot(FieldState(a=a, pi=pi, domain_length=TWO_PI), path)
        loaded = read_snapshot(path)
        assert loaded.a.flags.writeable and loaded.pi.flags.writeable
        assert not loaded.a.flags.owndata and loaded.a.base is loaded.pi.base
        loaded.a[0, 0, 0, 0] += 1.0
        assert loaded.a[0, 0, 0, 0] == a[0, 0, 0, 0] + 1.0
        assert np.array_equal(loaded.pi, pi)

    @pytest.mark.parametrize("payload, message", [
        (b"GF", "is too short for a header"),
        (struct.pack("<4sIId", b"GFSN", 1, 4, 1.0) + bytes(100),
         "has 120 bytes, expected 3092"),
        (struct.pack("<4sIId", b"GFSN", 1, 4, 1.0) + bytes(6 * 64 * 8 + 8),
         "has 3100 bytes, expected 3092"),
        # The size is checked before any payload is read or allocated.
        (struct.pack("<4sIId", b"GFSN", 1, 2 ** 20, 1.0),
         f"has 20 bytes, expected {20 + 48 * 2 ** 60}"),
        (struct.pack("<4sIId", b"GFSN", 1, 3, 1.0) + bytes(6 * 27 * 8),
         r"header is invalid \(N=3, L=1.0\)"),
        (struct.pack("<4sIId", b"GFSN", 1, 4, float("nan")) + bytes(6 * 64 * 8),
         r"header is invalid \(N=4, L=nan\)"),
        (struct.pack("<4sIId", b"GFSN", 1, 4, 1.0) + struct.pack("<d", float("inf"))
         + bytes(6 * 64 * 8 - 8), "payload invalid: field values must be finite"),
    ])
    def test_format_error_messages(self, tmp_path, payload, message):
        path = tmp_path / "s.gfsn"
        path.write_bytes(payload)
        with pytest.raises(SnapshotFormatError, match=f"snapshot {re.escape(str(path))} {message}"):
            read_snapshot(path)


@settings(max_examples=20)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_projector_annihilates_gradient_modes(mx, my, mz):
    """Pure gradients lie in the projector kernel mode by mode."""
    if (mx, my, mz) == (0, 0, 0):
        return
    n = 8
    ws = get_workspace(n, TWO_PI)
    x, y, z = fields.grid_coordinates(n, TWO_PI)
    phase = mx * x + my * y + mz * z
    v = grad(np.sin(phase) + 0.0 * x * y * z, ws)
    assert np.max(np.abs(transverse_project(v, ws))) < 1e-12
