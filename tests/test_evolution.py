import functools
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugefix import evolution, fields
from gaugefix.constraints import LinearModel, consistency_chain, constraint_set
from gaugefix.evolution import (
    CSV_HEADER,
    MAX_LOOP_PASSES,
    ROW_STACK_BYTES,
    StepperKind,
    evolve,
    evolve_finite,
)
from gaugefix.fields import (
    FieldState,
    FormulationKind,
    correct_initial_data,
    plane_wave_reference,
    plane_wave_spectrum,
    random_smooth_fields,
)
from gaugefix.phase import (
    HamiltonianSystem,
    PhaseFunction,
    linear_function,
    quadratic_function,
)
from gaugefix.toys import circle_pair, second_class_demo
import oracles
from oracles import (
    extended_flow,
    kvec_table,
    l2_norm,
    peak_shift,
    plane_wave_initial_data,
    split_then_stack_step,
    state_distance,
)

TWO_PI = 2.0 * np.pi


def small_wave(n=8, kind="transverse"):
    state = plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=n, kind=kind)
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=n)
    return state, ref


def run_error(stepper, dt, n=8):
    state, ref = small_wave(n)
    t_end = 0.25 * ref.period
    series = evolve(state, "gauge_fixed", stepper, dt, t_end, reference=ref)
    return series.l2_error[-1]


def test_csv_layout(tmp_path):
    state, ref = small_wave()
    series = evolve(state, "canonical", "rk4", 0.05, 0.2, reference=ref)
    path = tmp_path / "diag.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,energy,norm_divA,norm_divPi,norm_A_L,norm_pi_L,l2_error"
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(series.t)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(series.energy[0])


def test_csv_nan_literal_without_reference(tmp_path):
    state, _ = small_wave()
    series = evolve(state, "canonical", "rk4", 0.05, 0.1)
    path = tmp_path / "diag.csv"
    series.to_csv(path)
    for line in path.read_text().splitlines()[1:]:
        assert line.endswith(",nan")


def test_row_placement_with_stride():
    state, _ = small_wave()
    series = evolve(state, "canonical", "rk4", 0.1, 1.0, stride=3)
    assert_allclose(series.t, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


def test_deterministic_repeat():
    state, ref = small_wave()
    s1 = evolve(state, "gauge_fixed", "rk4", 0.05, 0.5, reference=ref)
    s2 = evolve(state.copy(), "gauge_fixed", "rk4", 0.05, 0.5, reference=ref)
    assert np.array_equal(s1.l2_error, s2.l2_error)
    assert np.array_equal(s1.energy, s2.energy)
    assert state_distance(s1.final_state, s2.final_state) == 0.0


def test_rk4_convergence_order():
    _, ref = small_wave()
    dt = ref.period / 40.0
    e1 = run_error("rk4", dt)
    e2 = run_error("rk4", dt / 2.0)
    order = np.log2(e1 / e2)
    assert order > 3.8


def test_verlet_convergence_order():
    _, ref = small_wave()
    dt = ref.period / 40.0
    e1 = run_error(StepperKind.STORMER_VERLET, dt)
    e2 = run_error(StepperKind.STORMER_VERLET, dt / 2.0)
    order = np.log2(e1 / e2)
    assert 1.8 < order < 2.2


def test_verlet_energy_bounded_over_many_periods():
    state, ref = small_wave()
    dt = ref.period / 64.0
    series = evolve(state, "gauge_fixed", "stormer_verlet", dt, 20.0 * ref.period)
    rel_dev = np.abs(series.energy / series.energy[0] - 1.0)
    # Symplectic integration: the energy error oscillates at O((w dt)^2)
    # instead of drifting.
    assert np.max(rel_dev) < (ref.omega * dt) ** 2
    assert rel_dev[-1] < (ref.omega * dt) ** 2


def test_canonical_longitudinal_momentum_frozen():
    state, _ = small_wave(kind="contaminated")
    series = evolve(state, "canonical", "rk4", 0.05, 2.0)
    assert np.ptp(series.norm_pi_L) < 1e-12 * series.norm_pi_L[0]


def test_canonical_longitudinal_vector_grows_linearly():
    state, _ = small_wave(kind="contaminated")
    series = evolve(state, "canonical", "rk4", 0.05, 2.0)
    expected = series.t * series.norm_pi_L[0]
    assert_allclose(series.norm_A_L, expected, atol=1e-12 * max(expected))


def test_gauge_fixed_suppresses_longitudinal_sector():
    state, _ = small_wave(kind="contaminated")
    series = evolve(state, "gauge_fixed", "rk4", 0.05, 2.0)
    scale = series.norm_pi_L[0]
    assert np.ptp(series.norm_pi_L) < 1e-10 * scale
    assert np.max(series.norm_A_L) < 1e-10 * scale


def test_formulations_agree_on_transverse_data():
    state, ref = small_wave()
    kw = dict(dt=0.05, t_end=1.0, reference=ref)
    canonical = evolve(state, "canonical", "rk4", **kw)
    fixed = evolve(state.copy(), "gauge_fixed", "rk4", **kw)
    assert state_distance(canonical.final_state, fixed.final_state) < 1e-12


def test_reprojection_is_noop_on_clean_data():
    state, _ = small_wave()
    plain = evolve(state, "canonical", "rk4", 0.05, 1.0)
    projected = evolve(state.copy(), "canonical", "rk4", 0.05, 1.0, reproject_every=2)
    assert state_distance(plain.final_state, projected.final_state) < 1e-12


def test_reprojection_resets_longitudinal_growth():
    state, _ = small_wave(kind="contaminated")
    series = evolve(state, "canonical", "rk4", 0.05, 2.0, reproject_every=1)
    assert np.max(series.norm_A_L[1:]) < 1e-10
    assert np.max(series.norm_pi_L[1:]) < 1e-10


def test_reprojection_keeps_the_transverse_part_exactly():
    # One mode m = (1, 2, 3): a unit transverse A and a longitudinal
    # pi = c k^, with c = 1e8. Every row after t = 0 follows a
    # reprojection, so it must read the energy of the c = 0 run. A second
    # split of the advanced vector would put the rounding of its
    # longitudinal part, about eps c, into the transverse part (1.9e-10
    # relative); the transverse block's own part carries none of it.
    k = np.array([1.0, 2.0, 3.0])

    def run(c):
        coeff = np.zeros((2, 3, 1))
        coeff[0, :, 0] = np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)
        coeff[1, :, 0] = c * k / np.linalg.norm(k)
        spec = fields.SparseSpectrum(16, TWO_PI, ((1,), (2,), (3,)), coeff)
        return evolve(spec, "canonical", "rk4", 0.01, 2.0, reproject_every=10, stride=10)

    loaded, clean = run(1e8), run(0.0)
    assert len(loaded.t) == 21 and loaded.norm_pi_L[0] > 1e5
    assert_allclose(loaded.energy[1:], clean.energy[1:], rtol=1e-14, atol=0)


def test_abort_on_blowup(tmp_path):
    state, _ = small_wave(n=8)
    # dt far above the stability limit makes RK4 amplify every step until
    # the state overflows to non-finite values.
    series = evolve(state, "canonical", "rk4", 50.0, 5000.0)
    assert series.aborted
    assert series.abort_time is not None
    assert series.abort_time < 5000.0
    # Every recorded row comes from a finite state, even though derived
    # scalars such as the energy may already have overflowed.
    assert np.all(np.isfinite(series.final_state.a))
    assert np.all(np.isfinite(series.final_state.pi))
    path = tmp_path / "aborted.csv"
    series.to_csv(path)
    assert len(path.read_text().splitlines()) == 1 + len(series.t)


def test_abort_time_independent_of_stride():
    # Outside the stability interval blocks shrink to single steps, so the
    # abort is found at the same step whatever the row spacing.
    state, _ = small_wave(n=8)
    runs = [evolve(state.copy(), "canonical", "rk4", 50.0, 5000.0, stride=stride)
            for stride in (1, 7)]
    assert runs[0].abort_time == runs[1].abort_time == 2150.0


@pytest.mark.parametrize("kwargs", [
    # Stable steps go in blocks: rows (and reprojections) count.
    dict(dt=0.01, t_end=0.01 * (MAX_LOOP_PASSES + 1), stride=1),
    dict(dt=0.01, t_end=1e300, stride=10 ** 6),
    dict(dt=0.01, t_end=0.01 * 2 * MAX_LOOP_PASSES, stride=10 ** 9, reproject_every=1),
    # Unstable steps go one at a time: steps count, whatever the stride.
    dict(dt=50.0, t_end=50.0 * (MAX_LOOP_PASSES + 1), stride=10 ** 9),
    # t_end / dt overflows.
    dict(dt=1e-300, t_end=1e300),
])
def test_step_and_row_budget_refused_up_front(kwargs):
    state, _ = small_wave(n=8)
    with pytest.raises(ValueError):
        evolve(state, "canonical", "rk4", **kwargs)


def test_budget_leaves_runs_at_the_limit_alone():
    state, _ = small_wave(n=8)
    series = evolve(state, "gauge_fixed", "rk4", 0.01, 0.01 * MAX_LOOP_PASSES,
                    stride=MAX_LOOP_PASSES // 4)
    assert len(series.t) == 5 and not series.aborted


def test_finite_step_budget():
    system = HamiltonianSystem.canonical(1, quadratic_function(np.eye(2)))
    with pytest.raises(ValueError, match="limit"):
        evolve_finite(system, [1.0, 0.0], 0.1, 0.1 * (MAX_LOOP_PASSES + 1))


def test_large_finite_state_does_not_abort():
    # 2e305 on every cell: each value is finite, although their sum is not.
    n = 8
    state = FieldState(np.full((3, n, n, n), 2e305), np.zeros((3, n, n, n)), TWO_PI)
    series = evolve(state, "gauge_fixed", "rk4", 0.01, 0.1)
    assert not series.aborted
    assert len(series.t) == 11
    assert np.all(series.energy == 0.0)
    assert_allclose(series.final_state.a, state.a, rtol=1e-14)


def huge_longitudinal_momentum(n=8):
    # pi_x = 4e303 cos x: its squares overflow, and A_L = t pi_L grows until
    # it overflows too (canonical formulation).
    x, _, _ = fields.grid_coordinates(n, TWO_PI)
    pi = np.zeros((3, n, n, n))
    pi[0] = 4e303 * np.cos(x)
    return FieldState(np.zeros_like(pi), pi, TWO_PI)


def test_huge_initial_state_records_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = evolve(huge_longitudinal_momentum(), "canonical", "rk4", 0.5, 1.0)
    assert not series.aborted
    assert series.t.tolist() == [0.0, 0.5, 1.0]


def test_grid_overflow_of_last_finite_state_aborts():
    # The spectrum overflows first at t = 176; the last finite spectrum
    # (t = 175.5) already overflows on its way back to the grid.
    series = evolve(huge_longitudinal_momentum(), "canonical", "rk4", 0.5, 1000.0)
    assert series.aborted
    assert series.abort_time == 175.5
    assert series.t[-1] == 175.5
    assert series.final_state is None


def momentum_rhs_hat(a_hat, ws):
    """pi_dot = lap(A) - grad(div A), common to both formulations."""
    kvec = kvec_table(ws)
    ka = np.sum(kvec * a_hat, axis=0)
    return -ws.k2 * a_hat + kvec * ka


def position_rhs_hat(pi_hat, ws, kind):
    """A_dot: the full pi (canonical) or its transverse part (gauge fixed)."""
    if kind is FormulationKind.CANONICAL:
        return pi_hat
    return oracles.transverse_project_hat(pi_hat, ws)


def rhs_hat(y_hat, ws, kind):
    """Full right-hand side on the stacked hat state y = (A_hat, pi_hat)."""
    return np.stack([position_rhs_hat(y_hat[1], ws, kind), momentum_rhs_hat(y_hat[0], ws)])


def oracle_states(state, kind, stepper, dt, n_steps, reproject_every=None):
    """Per-step RK4 / kick-drift-kick on the reference right-hand sides.

    Returns the grid state at every step 0 .. n_steps.
    """
    ws = state.workspace()
    kind = FormulationKind(kind)
    y = np.stack([ws.forward(state.a), ws.forward(state.pi)])
    states = [state]
    for step in range(1, n_steps + 1):
        if stepper == "rk4":
            k1 = rhs_hat(y, ws, kind)
            k2 = rhs_hat(y + 0.5 * dt * k1, ws, kind)
            k3 = rhs_hat(y + 0.5 * dt * k2, ws, kind)
            k4 = rhs_hat(y + dt * k3, ws, kind)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            pi_half = y[1] + 0.5 * dt * momentum_rhs_hat(y[0], ws)
            a_new = y[0] + dt * position_rhs_hat(pi_half, ws, kind)
            y = np.stack([a_new, pi_half + 0.5 * dt * momentum_rhs_hat(a_new, ws)])
        if reproject_every is not None and step % reproject_every == 0:
            y = np.stack([oracles.transverse_project_hat(y[0], ws),
                          oracles.transverse_project_hat(y[1], ws)])
        states.append(FieldState(ws.backward(y[0]), ws.backward(y[1]), state.domain_length))
    return states


def rhs_oracle(state, kind, stepper, dt, n_steps, reproject_every=None):
    return oracle_states(state, kind, stepper, dt, n_steps, reproject_every)[-1]


def raw_random_state(n, seed=3):
    a, pi = random_smooth_fields(np.random.default_rng(seed), n, TWO_PI)
    return FieldState(a, pi, TWO_PI)


def state_norm(state):
    return np.hypot(l2_norm(state.a, state.domain_length),
                    l2_norm(state.pi, state.domain_length))


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("reproject_every", [None, 3])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("stepper", ["rk4", "stormer_verlet"])
@pytest.mark.parametrize("kind", ["canonical", "gauge_fixed"])
def test_amplification_map_matches_rhs_oracle(kind, stepper, stride, reproject_every, n):
    # Raw data: both longitudinal and transverse content. 30 steps, so
    # stride 7 ends in a shorter block.
    state = raw_random_state(n)
    series = evolve(state, kind, stepper, 0.05, 1.5, stride=stride,
                    reproject_every=reproject_every)
    expected = rhs_oracle(state, kind, stepper, 0.05, 30, reproject_every)
    assert state_distance(series.final_state, expected) <= 1e-13 * state_norm(expected)


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("reproject_every", [None, 3])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("stepper", ["rk4", "stormer_verlet"])
@pytest.mark.parametrize("kind", ["canonical", "gauge_fixed"])
def test_rows_match_rhs_oracle(kind, stepper, stride, reproject_every, n):
    # Every row, read off propagated shell moments, against the grid
    # diagnostics of the per-step oracle state at that row's step.
    state = raw_random_state(n)
    series = evolve(state, kind, stepper, 0.05, 1.5, stride=stride,
                    reproject_every=reproject_every)
    oracle = oracle_states(state, kind, stepper, 0.05, 30, reproject_every)
    steps = np.rint(series.t / 0.05).astype(int)
    assert steps.tolist() == sorted({*range(0, 30, stride), 30})
    floor = 1e-12 * state_norm(state)  # columns that reprojection zeroes
    for i, step in enumerate(steps):
        s = oracle[step]
        expected = (oracles.energy(s), *oracles.constraint_norms(s), *oracles.longitudinal_norms(s))
        got = (series.energy[i], series.norm_divA[i], series.norm_divPi[i],
               series.norm_A_L[i], series.norm_pi_L[i])
        assert_allclose(got, expected, rtol=1e-12, atol=floor)


# Stride 7 with reproject_every 5 advances the support by gaps of 5, 2, 3, 4,
# 1 and 5 steps: the fifth power evicts the four block powers kept before it.
@pytest.mark.parametrize("stride, reproject_every", [
    pytest.param(3, None, id="None"), pytest.param(3, 3, id="3"), pytest.param(7, 5, id="7-5")])
@pytest.mark.parametrize("data, mode, polarization", [
    ("transverse", (1, 0, 0), (0, 1, 0)),    # support: the two entries +-m
    ("transverse", (1, 2, 1), (1, 0, -1)),   # support: one entry
    ("contaminated", (1, 0, 0), (0, 1, 0)),  # longitudinal content on the support
    ("random", (1, 2, 1), (1, 0, -1)),       # content on and off the support
])
@pytest.mark.parametrize("stepper", ["rk4", "stormer_verlet"])
@pytest.mark.parametrize("kind", ["canonical", "gauge_fixed"])
def test_rows_with_reference_match_rhs_oracle(kind, stepper, data, mode, polarization,
                                              stride, reproject_every):
    # The plane-wave reference is compared in spectral form, on its support
    # modes; every column against the grid diagnostics of the oracle state.
    n, dt = 8, 0.1
    if data == "random":
        state = raw_random_state(n)
    else:
        state = plane_wave_initial_data(mode, polarization, grid_n=n, kind=data)
    ref = plane_wave_reference(mode, polarization, grid_n=n)
    series = evolve(state, kind, stepper, dt, 2.0, reference=ref, stride=stride,
                    reproject_every=reproject_every)
    oracle = oracle_states(state, kind, stepper, dt, 20, reproject_every)
    floor = 1e-12 * state_norm(state)
    for i, t in enumerate(series.t):
        s = oracle[int(round(t / dt))]
        expected = (oracles.energy(s), *oracles.constraint_norms(s), *oracles.longitudinal_norms(s))
        got = (series.energy[i], series.norm_divA[i], series.norm_divPi[i],
               series.norm_A_L[i], series.norm_pi_L[i])
        assert_allclose(got, expected, rtol=1e-12, atol=floor)
        distance = state_distance(s, FieldState(*ref(t), s.domain_length))
        assert abs(series.l2_error[i] - distance) <= 1e-13 + 1e-12 * distance
    assert series.l2_error[-1] > 1e-6  # the comparison is not between zeros


@pytest.mark.parametrize("reproject_every", [None, 3])
@pytest.mark.parametrize("data", ["transverse", "contaminated"])
@pytest.mark.parametrize("stepper", ["rk4", "stormer_verlet"])
@pytest.mark.parametrize("kind", ["canonical", "gauge_fixed"])
def test_support_and_all_modes_carriers_agree_row_by_row(kind, stepper, data, reproject_every):
    # The same stable run twice: evolve carries the reference's support
    # modes as vectors and the rest as shell moments; the every-mode
    # carrier, which evolve enters only for an unstable dt or a state that
    # may overflow, carries every mode explicitly and sets the reference's
    # spectrum into the whole half spectrum at each row.
    n, dt = 8, 0.1
    state = plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=n, kind=data)
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=n)
    calls = []
    counted = functools.wraps(ref)(lambda t: ref(t))
    counted.spectrum = lambda t: calls.append(t) or ref.spectrum(t)
    kw = dict(reproject_every=reproject_every, stride=3)
    spectral = evolve(state, kind, stepper, dt, 2.0, reference=ref, **kw)
    explicit, _ = every_mode_run(state, kind, stepper, dt, 20, reference=counted, **kw)
    assert calls == explicit[:, 0].tolist() == spectral.t.tolist()
    for i, column in enumerate(("energy", "norm_divA", "norm_divPi", "norm_A_L", "norm_pi_L")):
        # atol: columns that a reprojection zeroes on the moments keep
        # ~1e-33 of rounding on the explicit modes.
        assert_allclose(explicit[:, 1 + i], getattr(spectral, column),
                        rtol=1e-12, atol=1e-30, err_msg=column)
    assert_allclose(explicit[:, 6], spectral.l2_error, rtol=0, atol=1e-13)
    assert spectral.l2_error[-1] > 1e-6  # the comparison is not between zeros


def every_mode_rows(state, kind, stepper, dt, n_steps, reference=None, stride=1,
                    reproject_every=None):
    """evolve's every-mode carrier on a stable dt: evolution._run with no moments.

    Returns the rows (t first), the half spectrum at the last finite step
    and that step.
    """
    ws = state.workspace()
    support = evolution._Support(ws)
    maps = evolution._ShellMaps(StepperKind(stepper), FormulationKind(kind), dt, support.k2)
    assert evolution._stable(StepperKind(stepper), dt * dt * ws.k2_max)
    return evolution._run(state.half_spectrum(), None, maps, support, True, n_steps, dt,
                          stride, reproject_every, reference)


def every_mode_run(state, kind, stepper, dt, n_steps, reference=None, stride=1,
                   reproject_every=None):
    """every_mode_rows of a run that ends: the rows and the final grid state."""
    rows, y, step = every_mode_rows(state, kind, stepper, dt, n_steps, reference, stride,
                                    reproject_every)
    assert step == n_steps
    return rows, FieldState(*state.workspace().backward(y), state.domain_length)


def overflowing_later(n, longitudinal):
    # Moments square the amplitudes: finite at t = 0, unscaled they overflow
    # once the modes pass ~1e154, long before the state itself does; the run
    # takes them at its power of two and keeps to them. Longitudinal:
    # pi_x = c cos x makes A_L = t pi_L grow (canonical). Transverse:
    # pi_y = c cos(k x) on a long box (k = 0.01) swings into A_T = pi_T / k,
    # with a smaller c so that the energy itself stays below the overflow.
    length = TWO_PI * (1.0 if longitudinal else 100.0)
    x, _, _ = fields.grid_coordinates(n, length)
    pi = np.zeros((3, n, n, n))
    pi[0 if longitudinal else 1] = (2e151 if longitudinal else 1e150) * np.cos(TWO_PI * x / length)
    return FieldState(np.zeros_like(pi), pi, length)


@pytest.mark.parametrize("longitudinal, dt, t_end", [(True, 0.5, 20.0), (False, 5.0, 200.0)])
def test_moment_overflow_mid_run_is_recorded_silently(longitudinal, dt, t_end):
    state = overflowing_later(8, longitudinal)
    ws = state.workspace()
    assert all(np.all(np.isfinite(g)) for g in fields.Modes(ws).moments(
        ws.forward(np.stack([state.a, state.pi]))[None]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = evolve(state, "canonical", "rk4", dt, t_end)
    assert not series.aborted
    columns = (series.energy, series.norm_divA, series.norm_divPi,
               series.norm_A_L, series.norm_pi_L)
    assert not any(np.isnan(c).any() for c in columns)
    final = ws.forward(np.stack([series.final_state.a, series.final_state.pi]))
    with np.errstate(over="ignore"):
        assert not all(np.all(np.isfinite(g)) for g in fields.Modes(ws).moments(final[None]))
    oracle = oracle_states(state, "canonical", "rk4", dt, int(round(t_end / dt)))
    expected = oracle[-1]
    for got, want in ((series.final_state.a, expected.a), (series.final_state.pi, expected.pi)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # The squared amplitudes overflow, the energy does not.
    assert np.all(np.isfinite(series.energy))
    energies = [oracles.energy(oracle[step]) for step in np.rint(series.t / dt).astype(int)]
    assert_allclose(series.energy, energies, rtol=1e-12)


@pytest.mark.parametrize("t_end, stride, rows, aborted", [
    (5e9, 10 ** 8, 101, False), (2e16, 10 ** 14, 141, True)])
def test_moment_carrier_giving_up_mid_run_restarts_on_every_mode(monkeypatch, t_end, stride,
                                                                  rows, aborted):
    # pi_x = 1e290 cos x: the moments bound the state below 2^1000 at t = 0,
    # and A_L = t pi_L carries it past that bound after some steps. The
    # moment carrier then gives up, and the run starts again from step 0
    # on every mode; the longer run overflows there at t = 7e15.
    n, dt = 8, 0.5
    x, _, _ = fields.grid_coordinates(n, TWO_PI)
    pi = np.zeros((3, n, n, n))
    pi[0] = 1e290 * np.cos(x)
    state = FieldState(np.zeros_like(pi), pi, TWO_PI)
    runs, congruences = [], []
    run, congruence = evolution._run, evolution._congruence

    def counted_run(y, g, *args):
        result = run(y, g, *args)
        runs.append((g is not None, result is None))
        return result

    monkeypatch.setattr(evolution, "_run", counted_run)
    monkeypatch.setattr(evolution, "_congruence",
                        lambda *a: congruences.append(1) or congruence(*a))
    series = evolve(state, "canonical", "rk4", dt, t_end, stride=stride)
    # (with moments, gave up): the moment carrier, then the every-mode one.
    assert runs == [(True, True), (False, False)]
    assert congruences, "the moment carrier gave up at step 0, not mid-run"
    assert len(series.t) == rows and series.aborted is aborted
    monkeypatch.undo()
    with np.errstate(over="ignore", invalid="ignore"):
        expected, _, step = every_mode_rows(state, "canonical", "rk4", dt,
                                            int(round(t_end / dt)), stride=stride)
    if aborted:
        assert series.abort_time == step * dt == 7e15
    columns = (series.t, series.energy, series.norm_divA, series.norm_divPi,
               series.norm_A_L, series.norm_pi_L, series.l2_error)
    assert np.array_equal(np.column_stack(columns), expected, equal_nan=True)


def test_moment_path_rescales_support_rows_that_overflow():
    # A wave whose N = 4 grid values transform exactly: the moments off the
    # reference's support are zero, the support's squared coefficients
    # (1.6e154) overflow, and the energy (1.55e307) does not. The rows are
    # scaled by a power of two and back, as on the sparse carrier.
    n, amplitude = 4, 5e152
    a = np.zeros((3, n, n, n))
    a[1] = amplitude * np.array([1.0, 0.0, -1.0, 0.0])[:, None, None]
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), amplitude=amplitude, grid_n=n)
    spec = plane_wave_spectrum((1, 0, 0), (0, 1, 0), amplitude=amplitude, grid_n=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = evolve(FieldState(a, np.zeros_like(a), TWO_PI), "canonical", "rk4", 0.1, 1.0,
                      reference=ref, stride=5)
    sparse = evolve(spec, "canonical", "rk4", 0.1, 1.0, reference=ref, stride=5)
    assert np.all(np.isfinite(grid.energy)) and grid.energy[0] > 1e307
    for column in ("energy", "norm_divA", "norm_divPi", "norm_A_L", "norm_pi_L", "l2_error"):
        assert_allclose(getattr(grid, column), getattr(sparse, column), rtol=1e-12,
                        err_msg=column)


@pytest.mark.parametrize("formulation", ["canonical", "gauge_fixed"])
@pytest.mark.parametrize("kind", ["transverse", "contaminated"])
def test_rows_of_data_below_the_square_range_scale_by_a_power_of_two(formulation, kind):
    # Squares of coefficients near 2^-650 underflow although the norms do
    # not: each row of the data scaled by 2^-660 is the row scaled by
    # 2^-660, and the energy by 2^-1320, which rounds it to zero.
    def run(amplitude):
        wave = ((1, 2, 0), (0, 0, 1), amplitude)
        spectrum = plane_wave_spectrum(*wave, kind=kind, grid_n=8,
                                       contamination_amplitude=amplitude)
        return evolve(spectrum, formulation, "rk4", 0.01, 0.05, stride=2,
                      reference=plane_wave_reference(*wave, grid_n=8))
    one, tiny = run(1.0), run(2.0 ** -660)
    for column, power in (("energy", 2), ("norm_divA", 1), ("norm_divPi", 1),
                          ("norm_A_L", 1), ("norm_pi_L", 1), ("l2_error", 1)):
        assert np.array_equal(getattr(tiny, column),
                              np.ldexp(getattr(one, column), -660 * power)), column
    assert np.all(tiny.energy == 0.0) and np.all(tiny.l2_error[1:] > 0)
    if kind == "contaminated":
        assert np.all(tiny.norm_divPi > 0)


@pytest.mark.parametrize("reproject_every", [None, 3])
@pytest.mark.parametrize("formulation", ["canonical", "gauge_fixed"])
def test_grid_data_below_the_square_range_take_lifted_moments(formulation, reproject_every):
    # Raw random data scaled by 2^-660: their shell moments would underflow
    # to 0, so they are taken of the spectrum scaled up by a power of two
    # and each row scaled back. Its rows are the rows at amplitude 1 scaled
    # by 2^-660, and the energy by 2^-1320, which rounds it to zero.
    def run(a, pi):
        return evolve(FieldState(a, pi, TWO_PI), formulation, "rk4", 0.01, 0.1, stride=2,
                      reproject_every=reproject_every)
    data = random_smooth_fields(np.random.default_rng(3), 8, TWO_PI)
    tiny_data = random_smooth_fields(np.random.default_rng(3), 8, TWO_PI, amplitude=2.0 ** -660)
    assert all(np.array_equal(t, np.ldexp(f, -660)) for t, f in zip(tiny_data, data))
    one, tiny = run(*data), run(*tiny_data)
    assert len(tiny.t) == 6 and np.all(tiny.energy == 0.0) and np.all(one.energy > 1e3)
    for column, power in COLUMN_POWERS:
        assert np.array_equal(getattr(tiny, column), np.ldexp(getattr(one, column), -660 * power))
        assert column == "energy" or getattr(tiny, column)[0] > 0, column


# The data columns of evolve's rows, and the power of the amplitude each scales with.
COLUMN_POWERS = (("energy", 2), ("norm_divA", 1), ("norm_divPi", 1), ("norm_A_L", 1),
                 ("norm_pi_L", 1))
RUNS = [(f, s) for f in ("canonical", "gauge_fixed") for s in ("rk4", "stormer_verlet")]


def raw_run(formulation, stepper, a, pi, length=TWO_PI, dt=0.05, t_end=1.0, reproject_every=7):
    return evolve(FieldState(a, pi, length), formulation, stepper, dt, t_end,
                  reproject_every=reproject_every, stride=3)


def test_rows_scale_exactly_with_the_geometry():
    # x -> 2^j x with pi -> 2^-j pi keeps the dynamics (dt and t_end scale
    # too): k scales by 2^-j and each column by a power of two, bit for bit.
    a, pi = random_smooth_fields(np.random.default_rng(7), 16, TWO_PI)
    halves = {"t": 2, "energy": 2, "norm_divA": 1, "norm_divPi": -1, "norm_A_L": 3,
              "norm_pi_L": 1}  # each column's power of 2^(j/2)
    for formulation, stepper in RUNS:
        one = raw_run(formulation, stepper, a, pi)
        for j in (-10, 40, 100, 200):
            run = raw_run(formulation, stepper, a, np.ldexp(pi, -j),
                          *(np.ldexp(v, j) for v in (TWO_PI, 0.05, 1.0)))
            for column, half in halves.items():
                assert np.array_equal(getattr(run, column),
                                      np.ldexp(getattr(one, column), half * j // 2)), (
                    formulation, stepper, j, column)


@pytest.mark.parametrize("reproject_every", [None, 7])
def test_rows_scale_exactly_with_the_amplitude(monkeypatch, reproject_every):
    # Data scaled by 2^-j scale each column by 2^-j (the energy by 2^-2j),
    # bit for bit, on either side of the 2^-400 below and the 2^400 above
    # which rows are read at a power of two. Where that overflows (the
    # energy from 2^-560), the column reads inf. Scaled up, the runs keep
    # to the moments: no row stack holds a full-size state.
    a, pi = random_smooth_fields(np.random.default_rng(7), 16, TWO_PI)
    for formulation, stepper in RUNS:
        one = raw_run(formulation, stepper, a, pi, reproject_every=reproject_every)
        for j in (100, 500, 900, -500, -560, -600):
            calls = count_row_stacks(monkeypatch)
            run = raw_run(formulation, stepper, np.ldexp(a, -j), np.ldexp(pi, -j),
                          reproject_every=reproject_every)
            monkeypatch.undo()
            for column, power in COLUMN_POWERS:
                with np.errstate(over="ignore"):
                    want = np.ldexp(getattr(one, column), -j * power)
                assert np.array_equal(getattr(run, column), want), (formulation, stepper, j, column)
            assert np.all(np.isinf(run.energy)) == (j <= -560)
            assert np.all(np.isnan(run.l2_error))
            assert sum(r for r, _ in calls) == len(run.t) and all(b == 0 for _, b in calls)


def test_every_mode_carrier_compares_a_spectral_reference_up_to_the_abort():
    # dt = 1 is unstable at N = 8, so grid data go on the every-mode carrier,
    # which sets the reference's spectrum into the whole half spectrum at
    # each row. Every row against the grid diagnostics of the per-step
    # oracle state, taken of it scaled by a power of two so that its squares
    # do not overflow; floor: the longitudinal columns, which the oracle's
    # projection pollutes with rounding of the growing transverse modes.
    n, dt = 8, 1.0
    wave = ((1, 2, 1), (1, 0, -1))
    state = plane_wave_initial_data(*wave, grid_n=n, kind="contaminated")
    ref = plane_wave_reference(*wave, grid_n=n)
    series = evolve(state, "canonical", "rk4", dt, 1000.0, reference=ref, stride=5)
    assert series.aborted and series.abort_time == series.t[-1] and len(series.t) > 40
    steps = np.rint(series.t / dt).astype(int)
    oracle = oracle_states(state, "canonical", "rk4", dt, steps[-1])
    for i, step in enumerate(steps):
        s = oracle[step]
        e = int(np.frexp(max(np.max(np.abs(s.a)), np.max(np.abs(s.pi))))[1])
        s, r = (FieldState(np.ldexp(f[0], -e), np.ldexp(f[1], -e), TWO_PI)
                for f in ((s.a, s.pi), ref(series.t[i])))
        with np.errstate(over="ignore"):
            expected = np.ldexp([oracles.energy(s), *oracles.constraint_norms(s),
                                 *oracles.longitudinal_norms(s), state_distance(s, r)],
                                [2 * e, e, e, e, e, e])
        got = [getattr(series, c)[i] for c in CSV_HEADER.split(",")[1:]]
        assert_allclose(got, expected, rtol=1e-12, atol=np.ldexp(1e-12 * state_norm(s), e))
    assert np.isinf(series.energy[-1]) and np.isfinite(series.l2_error[-1])


def test_tiny_grid_data_keep_their_distance_to_a_unit_reference():
    # Against an amplitude-1 wave, data near 2^-660 are at the wave's own
    # norm: the distance reads what it reads for zero data, bit for bit.
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=8)
    a, pi = random_smooth_fields(np.random.default_rng(3), 8, TWO_PI, amplitude=2.0 ** -660)
    tiny = evolve(FieldState(a, pi, TWO_PI), "canonical", "rk4", 0.05, 1.0, reference=ref)
    zero = evolve(FieldState(0 * a, 0 * pi, TWO_PI), "canonical", "rk4", 0.05, 1.0, reference=ref)
    assert np.array_equal(tiny.l2_error, zero.l2_error) and np.all(zero.l2_error > 1.0)
    assert np.all(tiny.norm_divA > 0) and np.all(zero.norm_divA == 0)


def test_stable_tiny_grid_runs_build_no_full_row_stack(monkeypatch):
    # The every-mode carrier stacks N^3 states; the moment carrier without
    # a reference stacks none.
    calls = count_row_stacks(monkeypatch)
    a, pi = random_smooth_fields(np.random.default_rng(3), 16, TWO_PI, amplitude=2.0 ** -660)
    series = evolve(FieldState(a, pi, TWO_PI), "canonical", "rk4", 0.05, 1.0)
    assert not series.aborted and series.norm_divA[0] > 0
    assert sum(r for r, _ in calls) == len(series.t) and all(b == 0 for _, b in calls)


@pytest.mark.parametrize("stepper, dt, t_end", [("rk4", 2.0, 1000.0),
                                                ("stormer_verlet", 0.9, 600.0)])
def test_state_path_rows_are_scaled_only_where_they_overflow(stepper, dt, t_end):
    # Unstable steps blow the transverse modes up until the energy, and at
    # last the state, overflows; rows with an overflowing column are
    # computed again from a scaled spectrum. The longitudinal part only
    # grows linearly: scaled with the rest, it would underflow to 0. The
    # map passes pi_L through untouched and adds t pi_L to A_L, whatever
    # the transverse block does, so |pi_L| stays exact.
    state = plane_wave_initial_data((1, 2, 0), (0, 0, 1), grid_n=8, kind="contaminated")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = evolve(state, "canonical", stepper, dt, t_end, stride=4)
    assert series.aborted and np.isinf(series.energy[-1])
    pi_l = series.norm_pi_L[0]
    assert_allclose(series.norm_pi_L, pi_l, rtol=1e-15)
    assert_allclose(series.norm_A_L, series.t * pi_l, rtol=1e-14)
    assert_allclose(series.norm_divA, series.norm_A_L, rtol=1e-12)


@pytest.fixture
def backward_calls(monkeypatch):
    """Counts SpectralWorkspace.backward calls; reset by assigning 0 to count[0]."""
    count = [0]
    backward = fields.SpectralWorkspace.backward

    def counted(ws, f_hat):
        count[0] += 1
        return backward(ws, f_hat)

    monkeypatch.setattr(fields.SpectralWorkspace, "backward", counted)
    return count


@pytest.mark.parametrize("reproject_every", [None, 4])
def test_moment_path_builds_final_state_on_first_read(backward_calls, reproject_every):
    state = raw_random_state(8)
    backward_calls[0] = 0
    series = evolve(state, "canonical", "stormer_verlet", 0.05, 1.0, stride=3,
                    reproject_every=reproject_every)
    assert backward_calls[0] == 0
    assert "final" not in repr(series)
    assert series == series and backward_calls[0] == 0
    first = series.final_state
    assert backward_calls[0] == 1
    assert series.final_state is first
    assert backward_calls[0] == 1
    expected = rhs_oracle(state, "canonical", "stormer_verlet", 0.05, 20, reproject_every)
    assert state_distance(first, expected) <= 1e-13 * state_norm(expected)


def test_aborted_state_path_builds_final_state_on_first_read(backward_calls):
    state, _ = small_wave(n=8)
    backward_calls[0] = 0
    series = evolve(state, "canonical", "rk4", 50.0, 5000.0)
    assert series.aborted and backward_calls[0] == 0
    assert series.final_state is series.final_state
    assert backward_calls[0] == 1


def test_moment_path_near_overflow_builds_finite_final_state(backward_calls):
    # A transverse wave whose moments reach ~1e307 and stay finite: the run
    # keeps to the moments, and its grid state is bounded by them.
    n, dt = 8, 0.1
    state = plane_wave_initial_data((1, 0, 0), (0, 1, 0), amplitude=1e151, grid_n=n)
    ws = state.workspace()
    g_t, _ = fields.Modes(ws).moments(ws.forward(np.stack([state.a, state.pi]))[None])
    assert 1e306 < np.max(g_t) < np.finfo(float).max
    backward_calls[0] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = evolve(state, "canonical", "rk4", dt, 3.0)
    assert backward_calls[0] == 0 and not series.aborted
    final = series.final_state
    assert np.all(np.isfinite(final.a)) and np.all(np.isfinite(final.pi))
    expected = rhs_oracle(state, "canonical", "rk4", dt, 30)
    for got, want in ((final.a, expected.a), (final.pi, expected.pi)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_final_state_not_finite_on_the_grid_reads_none(monkeypatch):
    state, _ = small_wave(n=8)
    series = evolve(state, "canonical", "rk4", 0.05, 0.5)
    monkeypatch.setattr(fields.SpectralWorkspace, "backward",
                        lambda ws, f_hat: np.full((2, 3, 8, 8, 8), np.inf))
    assert not series.aborted and series.final_state is None


def grid_of(spectrum):
    grid = spectrum.workspace().backward(spectrum.half_spectrum())
    return FieldState(grid[0], grid[1], spectrum.domain_length)


@pytest.mark.parametrize("with_reference", [True, False])
@pytest.mark.parametrize("data", ["transverse", "contaminated"])
@pytest.mark.parametrize("mode, polarization", [((1, 0, 0), (0, 1, 0)), ((1, 2, 1), (1, 0, -1))])
@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("reproject_every", [None, 3])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("stepper", ["rk4", "stormer_verlet"])
@pytest.mark.parametrize("kind", ["canonical", "gauge_fixed"])
def test_spectral_path_matches_grid_path(kind, stepper, stride, reproject_every, n, mode,
                                         polarization, data, with_reference):
    # plane_wave_spectrum carries its few entries alone; the grid data goes
    # through a transform and the shell moments.
    args = (mode, polarization, 1.0, data, n)
    spec = plane_wave_spectrum(*args)
    grid = plane_wave_initial_data(*args)
    ref = plane_wave_reference(mode, polarization, grid_n=n) if with_reference else None
    kw = dict(reference=ref, stride=stride, reproject_every=reproject_every)
    sparse = evolve(spec, kind, stepper, 0.1, 2.0, **kw)
    full = evolve(grid, kind, stepper, 0.1, 2.0, **kw)
    assert sparse.t.tolist() == full.t.tolist() and not sparse.aborted
    # floor: columns that are zero on the entries and hold the grid data's
    # transform noise on the grid path.
    floor = 1e-13 * state_norm(grid)
    for column in ("energy", "norm_divA", "norm_divPi", "norm_A_L", "norm_pi_L"):
        assert_allclose(getattr(sparse, column), getattr(full, column), rtol=1e-12, atol=floor,
                        err_msg=column)
    if with_reference:
        assert_allclose(sparse.l2_error, full.l2_error, rtol=0, atol=1e-13)
        assert data == "contaminated" or sparse.l2_error[0] == 0.0
    else:
        assert np.all(np.isnan(sparse.l2_error))
    final = full.final_state
    assert state_distance(sparse.final_state, final) <= 1e-13 * state_norm(final)


@pytest.mark.parametrize("stride", [1, 7])
def test_spectral_abort_is_the_wave_mode_overflowing(stride):
    # On the grid this run aborts at t = 2150, when rounding noise at the
    # largest k^2 overflows; the spectral data has only the wave's modes.
    spec = plane_wave_spectrum((1, 0, 0), (0, 1, 0), grid_n=8)
    series = evolve(spec, "canonical", "rk4", 50.0, 5000.0, stride=stride)
    assert series.aborted and series.abort_time == 2800.0
    # The last finite state is 56 RK4 steps of the wave's oscillator
    # (A_y^, pi_y^)' = (pi_y^, -A_y^), the series of exp(h L) to 4th order.
    h_l = 50.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    step = sum(np.linalg.matrix_power(h_l, p) / f for p, f in enumerate((1, 1, 2, 6, 24)))
    expected = np.linalg.matrix_power(step, 56) @ [spec.coeff[0, 1, 0].real, 0.0]
    state = series.final_state
    ws = state.workspace()
    y_hat = ws.forward(np.stack([state.a, state.pi]))
    assert_allclose(y_hat[:, 1, 1, 0, 0], expected, rtol=1e-12)


def test_spectral_stability_is_judged_on_the_carried_modes():
    # Verlet dt = 1 is stable for the wave (h^2 k^2 = 1 < 4) but not for
    # the grid's largest wavenumber (48): the spectral run goes in blocks
    # of a million steps, and the energy stays that of the wave.
    spec = plane_wave_spectrum((1, 0, 0), (0, 1, 0), grid_n=8)
    series = evolve(spec, "gauge_fixed", "stormer_verlet", 1.0, 3e6, stride=10 ** 6)
    assert len(series.t) == 4 and not series.aborted
    assert np.max(np.abs(series.energy / series.energy[0] - 1.0)) < 0.3
    with pytest.raises(ValueError, match="passes"):
        evolve(grid_of(spec), "gauge_fixed", "stormer_verlet", 1.0, 3e6, stride=10 ** 6)


def test_spectral_run_makes_no_grid_array(monkeypatch):
    # The growth_diag benchmark run: N = 64, where one grid state is 13 MB.
    def refuse(ws, f):
        raise AssertionError("transform on the spectral path")

    fields.get_workspace.cache_clear()
    spec = plane_wave_spectrum((1, 0, 0), (0, 1, 0), kind="contaminated", grid_n=64)
    monkeypatch.setattr(fields.SpectralWorkspace, "forward", refuse)
    monkeypatch.setattr(fields.SpectralWorkspace, "backward", refuse)
    tracemalloc.start()
    try:
        series = evolve(spec, "canonical", "stormer_verlet", 0.01, 0.2, stride=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series.t) == 21 and not series.aborted
    assert peak < 1e6
    assert not {"kvec", "k2", "inv_k2", "shells"} & set(vars(spec.workspace()))


def test_spectral_final_state_overflowing_on_the_grid_is_no_abort():
    # Two finite coefficients near the largest double: their sum in the
    # backward transform overflows. The run's state stayed finite, so it
    # did not abort; its grid state reads None.
    coeff = np.zeros((2, 3, 2))
    coeff[0, 1] = 1.7e308
    spec = fields.SparseSpectrum(8, TWO_PI, ((1, 7), (0, 0), (0, 0)), coeff)
    series = evolve(spec, "gauge_fixed", "rk4", 1e-6, 1e-6)
    assert not series.aborted and series.abort_time is None and series.final_state is None
    assert len(series.t) == 2


@pytest.mark.parametrize("sparse", [False, True])
def test_overflowing_k_dot_a_from_opposite_signs(sparse):
    # A transverse wave with Fourier coefficients 1e308 e: k . A^ sums two
    # overflowing terms of opposite sign, which gave NaN in row 0 and an
    # abort at t = 0. The true energy overflows; the divergences are 0.
    n, mode = 8, (3, 3, 0)
    e = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    entries = ((3, 5), (3, 5), (0, 0))  # +-m
    coeff = np.zeros((2, 3, 2))
    coeff[0] = 1e308 * e[:, None]
    spec = fields.SparseSpectrum(n, TWO_PI, entries, coeff)
    state = grid_of(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = evolve(spec if sparse else state, "gauge_fixed", "rk4", 0.001, 0.005,
                        reproject_every=1)
    assert not series.aborted and len(series.t) == 6
    # The oracle overflows on this state: run it on the state scaled by a
    # power of two, which scales every value exactly, and scale back.
    shift = 1000
    small = FieldState(np.ldexp(state.a, -shift), np.ldexp(state.pi, -shift), TWO_PI)
    oracle = oracle_states(small, "gauge_fixed", "rk4", 0.001, 5, reproject_every=1)
    with np.errstate(over="ignore"):
        energies = [np.ldexp(oracles.energy(s), 2 * shift) for s in oracle]
    assert_allclose(series.energy, energies, rtol=1e-12)
    floor = 1e-13 * state_norm(small)
    for i, s in enumerate(oracle):
        got = (series.norm_divA[i], series.norm_divPi[i], series.norm_A_L[i], series.norm_pi_L[i])
        assert_allclose(np.ldexp(got, -shift),
                        (*oracles.constraint_norms(s), *oracles.longitudinal_norms(s)),
                        rtol=1e-12, atol=floor)
    final = series.final_state
    for got, want in ((final.a, oracle[-1].a), (final.pi, oracle[-1].pi)):
        assert_allclose(np.ldexp(got, -shift), want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("grid", [dict(grid_n=32), dict(grid_n=16, domain_length=3.0)])
def test_reference_for_another_grid_is_refused(sparse, grid):
    # Compared on the wrong grid, these read l2_error 78 at t = 0, and 0 at
    # t = 0 but 27 at t = 2.
    spec = plane_wave_spectrum((1, 0, 1), (0, 1, 0), grid_n=16)
    ref = plane_wave_reference((1, 0, 1), (0, 1, 0), **grid)
    with pytest.raises(ValueError, match="reference is for"):
        evolve(spec if sparse else grid_of(spec), "gauge_fixed", "rk4", 0.1, 2.0, reference=ref)
    same = plane_wave_reference((1, 0, 1), (0, 1, 0), grid_n=16)
    series = evolve(spec if sparse else grid_of(spec), "gauge_fixed", "rk4", 0.1, 2.0,
                    reference=same)
    assert np.max(series.l2_error) < 1e-2


def test_every_mode_path_builds_bounded_final_state_on_first_read(backward_calls):
    # dt = 0.6 is unstable at N = 8 (h^2 k^2 = 9.72 > 8), so every mode is
    # carried as a vector; two steps stay far below the 2^1000 bound.
    state = raw_random_state(8)
    backward_calls[0] = 0
    series = evolve(state, "canonical", "rk4", 0.6, 1.2)
    assert backward_calls[0] == 0 and not series.aborted and len(series.t) == 3
    first = series.final_state
    assert backward_calls[0] == 1 and series.final_state is first
    expected = rhs_oracle(state, "canonical", "rk4", 0.6, 2)
    assert state_distance(first, expected) <= 1e-13 * state_norm(expected)


def test_reference_without_spectral_form_is_refused():
    state, ref = small_wave()
    with pytest.raises(TypeError, match="plane_wave_reference"):
        evolve(state, "canonical", "rk4", 0.05, 0.5, reference=lambda t: ref(t))


@pytest.mark.parametrize("n", [8, 9])
def test_parseval_diagnostics_match_grid_diagnostics(n):
    # The every-mode carrier's rows, summed by Parseval over the whole
    # half spectrum, against the grid sums of the state at rows 0 and last.
    state = raw_random_state(n)
    length = state.domain_length
    ref = plane_wave_reference((1, 2, 1), (1, 0, -1), grid_n=n)
    rows, final = every_mode_run(state, "canonical", "stormer_verlet", 0.05, 10, reference=ref)
    for row, s in ((0, state), (-1, final)):
        r_a, r_pi = ref(rows[row, 0])
        expected = (oracles.energy(s), *oracles.constraint_norms(s),
                    *oracles.longitudinal_norms(s),
                    np.hypot(l2_norm(s.a - r_a, length), l2_norm(s.pi - r_pi, length)))
        assert_allclose(rows[row, 1:], expected, rtol=1e-13)


def test_evolve_validation():
    state, _ = small_wave()
    with pytest.raises(ValueError):
        evolve(state, "canonical", "rk4", -0.1, 1.0)
    with pytest.raises(ValueError):
        evolve(state, "canonical", "rk4", 1.0, 0.2)
    with pytest.raises(ValueError):
        evolve(state, "canonical", "rk4", 0.1, 1.0, stride=0)
    with pytest.raises(ValueError):
        evolve(state, "canonical", "rk4", 0.1, 1.0, reproject_every=0)
    with pytest.raises(ValueError):
        evolve(state, "axial", "rk4", 0.1, 1.0)
    with pytest.raises(ValueError):
        evolve(state, "canonical", "leapfrog2", 0.1, 1.0)
    # A bool or a float is no step count, even where it equals one.
    for option in ("stride", "reproject_every"):
        for value in (2.0, True, np.float64(2.0), np.bool_(True)):
            with pytest.raises(ValueError, match=f"{option} must be a positive integer"):
                evolve(state, "canonical", "rk4", 0.1, 1.0, **{option: value})
    plain = evolve(state, "canonical", "rk4", 0.1, 1.0, stride=2, reproject_every=5)
    numpy_ints = evolve(state, "canonical", "rk4", 0.1, 1.0, stride=np.int64(2),
                        reproject_every=np.int32(5))
    for column in ("t", "energy", "norm_divA", "norm_A_L"):
        assert np.array_equal(getattr(plain, column), getattr(numpy_ints, column))


def test_stepper_name_coercion():
    state, ref = small_wave()
    a = evolve(state, "gauge-fixed", "stormer-verlet", 0.1, 0.5, reference=ref)
    b = evolve(state.copy(), "gauge_fixed", StepperKind.STORMER_VERLET, 0.1, 0.5,
               reference=ref)
    assert np.array_equal(a.l2_error, b.l2_error)


class TestEvolveFinite:
    def oscillator(self):
        h = quadratic_function(np.eye(2), label="H")
        return HamiltonianSystem.canonical(1, h)

    def test_oscillator_accuracy(self):
        system = self.oscillator()
        # dt divides the period exactly; t_end is rounded to whole steps.
        series = evolve_finite(system, [1.0, 0.0], TWO_PI / 512.0, TWO_PI)
        assert not series.aborted
        assert_allclose(series.final_state, [1.0, 0.0], atol=1e-8)
        assert np.ptp(series.hamiltonian) < 1e-9

    def test_stride_and_shapes(self):
        system = self.oscillator()
        series = evolve_finite(system, [1.0, 0.0], 0.1, 1.0, stride=4)
        assert_allclose(series.t, [0.0, 0.4, 0.8, 1.0], atol=1e-12)
        assert series.states.shape == (4, 2)
        assert series.constraint_values is None

    def test_extended_flow_freezes_constraints(self, coulomb_gauge):
        # The Maxwell mode at k = (0, 2, 0), off its surface: f = 0.5, k.p = 1.2.
        model, cset = coulomb_gauge(np.array([0.0, 2.0, 0.0]))
        z0 = [0.3, -0.4, 0.2, 0.5, -0.1, 0.6, 0.3, 0.0]
        series = evolve_finite(model.system, z0, 0.01, 2.0, constraint_set=cset)
        assert series.constraint_values.shape == (len(series.t), 4)
        drift = np.abs(series.constraint_values - series.constraint_values[0])
        assert np.max(drift) < 1e-10
        free = evolve_finite(model.system, z0, 0.01, 2.0)
        # Without the multiplier terms the same data drifts: d(k.a)/dt = k.p + k^2 f.
        assert abs(free.final_state[1] - (-0.4)) > 0.1

    @staticmethod
    def stagewise_rk4(system, cset, z, dt, steps):
        """RK4 with the multipliers re-solved at every stage evaluation."""
        states = [z]
        for _ in range(steps):
            k1 = extended_flow(system, cset, z)
            k2 = extended_flow(system, cset, z + 0.5 * dt * k1)
            k3 = extended_flow(system, cset, z + 0.5 * dt * k2)
            k4 = extended_flow(system, cset, z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(z)
        return np.array(states)

    def test_constant_flow_equals_the_stagewise_rk4(self, coulomb_gauge):
        demo = second_class_demo()
        cases = [(demo.system, consistency_chain(demo.system, demo.primaries),
                  demo.sample_point + [0.1, -0.2, 0.3, 0.4])]
        for k in ([0.0, 2.0, 0.0], [1.0, -0.5, 0.3], [0.3, 0.7, -1.2]):
            model, cset = coulomb_gauge(np.array(k))
            cases.append((model.system, cset, np.array([0.3, -0.4, 0.2, 0.5, -0.1, 0.6, 0.3, 0.0])))
        for system, cset, z0 in cases:
            series = evolve_finite(system, z0, 0.01, 10.0, constraint_set=cset)
            expected = self.stagewise_rk4(system, cset, z0, 0.01, 1000)
            # Measured after 1000 steps: 1.1e-15 of the largest entry, and
            # 2.6e-13 relative for entries above 1e-3 of it.
            assert_allclose(series.states, expected, rtol=1e-12,
                            atol=2e-15 * np.abs(expected).max())

    def test_abort_on_unstable_run(self):
        system = self.oscillator()
        series = evolve_finite(system, [1.0, 0.0], 10.0, 5000.0)
        assert series.aborted
        assert series.abort_time is not None
        assert np.all(np.isfinite(series.states[-1]))

    def test_abort_between_recorded_steps_records_the_last_finite_state(self):
        system = self.oscillator()
        every = evolve_finite(system, [1.0, 0.0], 10.0, 5000.0)
        abort_step = int(round(every.abort_time / 10.0))
        stride = 7
        assert abort_step % stride, "the abort must fall between recorded steps"
        series = evolve_finite(system, [1.0, 0.0], 10.0, 5000.0, stride=stride)
        assert series.aborted and series.abort_time == every.abort_time
        assert series.t.tolist() == [10.0 * s for s in range(0, abort_step, stride)] + [
            every.abort_time]
        assert np.array_equal(series.states, every.states[list(range(0, abort_step, stride))
                                                           + [abort_step]])
        assert np.all(np.isfinite(series.states[-1]))

    def test_input_off_the_exact_route_is_refused(self):
        # Each raises the ValueError that the chain raises for the same input.
        quartic = HamiltonianSystem.canonical(1, PhaseFunction(
            lambda z: 0.5 * float(z[1]) ** 2 - 0.25 * float(z[0]) ** 4,
            lambda z: np.array([-float(z[0]) ** 3, float(z[1])]), label="H"))
        p = constraint_set([linear_function([0.0, 1.0], label="p")], 2)
        for system, cset in ((quartic, None), (self.oscillator(), circle_pair())):
            with pytest.raises(ValueError) as chain_error:
                consistency_chain(system, p if cset is None else cset)
            with pytest.raises(ValueError, match=f"^{re.escape(str(chain_error.value))}$"):
                evolve_finite(system, [1.0, 0.0], 0.1, 1.0, constraint_set=cset)

    def test_constraint_set_of_another_dimension_is_refused(self):
        system = self.oscillator()
        cset = constraint_set([linear_function([0, 0, 0, 1], label="p2")], 4)
        message = r"^the constraint set has phase dimension 4, the system 2$"
        for call in (lambda: LinearModel.of(system, cset),
                     lambda: evolve_finite(system, [1.0, 0.0], 0.1, 1.0, constraint_set=cset),
                     lambda: consistency_chain(system, cset)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_dimension_of_z0_is_checked_before_any_step(self, monkeypatch):
        monkeypatch.setattr(LinearModel, "flow", lambda self: pytest.fail("stepped"))
        with pytest.raises(ValueError, match=r"^point has dimension 4, system expects 2$"):
            evolve_finite(self.oscillator(), [1.0, 0.0, 0.0, 0.0], 0.1, 1.0)

    def test_recorded_h_and_constraints_equal_the_pointwise_values(self, coulomb_gauge):
        demo = second_class_demo()
        cases = [(demo.system, consistency_chain(demo.system, demo.primaries),
                  demo.sample_point + [0.1, -0.2, 0.3, 0.4])]
        for k in ([0.0, 2.0, 0.0], [1.0, -0.5, 0.3], [0.3, 0.7, -1.2]):
            model, cset = coulomb_gauge(np.array(k))
            cases.append((model.system, cset, np.array([0.3, -0.4, 0.2, 0.5, -0.1, 0.6, 0.3, 0.0])))
        for system, cset, z0 in cases:
            series = evolve_finite(system, z0, 0.01, 10.0, constraint_set=cset)
            h = np.array([system.hamiltonian(z) for z in series.states])
            assert_allclose(series.hamiltonian, h, rtol=0, atol=1e-14 * np.abs(h).max())
            assert np.array_equal(series.constraint_values,
                                  np.array([cset.values(z) for z in series.states]))

    def test_validation(self):
        system = self.oscillator()
        with pytest.raises(ValueError):
            evolve_finite(system, [1.0, 0.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            evolve_finite(system, [1.0, 0.0], 1.0, 0.1)
        with pytest.raises(ValueError):
            evolve_finite(system, [1.0, 0.0], 0.1, 1.0, stride=0)
        for value in (2.0, True, np.float64(2.0), np.bool_(True)):
            with pytest.raises(ValueError, match="stride must be a positive integer"):
                evolve_finite(system, [1.0, 0.0], 0.1, 1.0, stride=value)
        series = evolve_finite(system, [1.0, 0.0], 0.1, 1.0, stride=np.int64(5))
        assert series.t.tolist() == [0.0, 0.5, 1.0]


def _split_by_full_products(modes, y):
    """fields.Modes.split as one (2, 3, ...) product summed by np.sum(axis=1)."""
    kvec = kvec_table(modes.ws) if modes.whole else modes.kvec
    coef = np.sum(kvec * y, axis=1) * modes.inv_k2
    redo = ~np.isfinite(coef)
    if redo.any() and np.isfinite(y).all() and (shift := peak_shift(y)) > 0:
        scaled = np.sum(kvec * (y * np.ldexp(1.0, -shift)), axis=1) * modes.inv_k2
        coef[redo] = scaled[redo] * np.ldexp(1.0, shift)
    long = kvec * coef[:, None]
    return y - long, long


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("data", ["grid", "overflow"])
def test_support_split_matches_full_products_bit_for_bit(n, data):
    ws = fields.SpectralWorkspace(n, TWO_PI)
    if data == "grid":
        state = raw_random_state(n)
        y = ws.forward(np.stack([state.a, state.pi]))
    else:
        # k = +-(3, 3, 0) against e = (1, -1, 0)/sqrt 2: k . y overflows to NaN.
        y = np.zeros((2, 3) + ws.k2.shape, dtype=complex)
        e = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        y[0, :, 3, 3, 0] = y[0, :, n - 3, n - 3, 0] = 1e308 * e
    supports = [fields.Modes(ws), fields.Modes(ws, np.nonzero(np.abs(y[0, 0]) >= 0))]
    with np.errstate(over="ignore", invalid="ignore"):
        for modes in supports:
            y_s = y[(slice(None), slice(None)) + modes.index]
            got, want = modes.split(y_s), _split_by_full_products(modes, y_s)
            if data == "overflow":
                kvec = kvec_table(ws) if modes.whole else modes.kvec
                assert np.isnan(np.sum(kvec * y_s, axis=1)).any()
            if modes.whole:
                got += (fields._remove_longitudinal(y_s.copy(), ws),)
            for g, w in zip(got, want + want[:1]):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("whole", [False, True])
@pytest.mark.parametrize("with_g", [False, True])
@pytest.mark.parametrize("with_ref", [False, True])
def test_stacked_rows_equal_one_row_stacks_bit_for_bit(whole, with_g, with_ref):
    # Rows 1 and 3 have coefficients ~1e160 and ~1e300: their squares
    # overflow, so each is redone alone from scaled data, next to rows
    # that need no redo.
    ws = fields.SpectralWorkspace(8, TWO_PI)
    rng = np.random.default_rng(5)
    modes = fields.Modes(ws) if whole else fields.Modes(ws, ([1, 0, 2, 7], [0, 3, 2, 5], [0, 1, 4, 2]))
    shape = (4, 2, 3) + modes.inv_k2.shape
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y[1] *= 1e160
    y[3] *= 1e300
    ref = y * (1.0 + 1e-3 * rng.standard_normal(shape)) if with_ref else None
    g = tuple(np.abs(rng.standard_normal((4, 3, len(modes.k2)))) for _ in range(2)) if with_g else None
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = modes.rows(y, ref, g)
        for r in range(4):
            one = slice(r, r + 1)
            single = modes.rows(y[one], None if ref is None else ref[one],
                                None if g is None else tuple(m[one] for m in g))
            assert single.shape == (1, 6) and stacked[r].tobytes() == single[0].tobytes()
        assert np.isinf(np.sum(np.abs(y[1]) ** 2))
    assert stacked.shape == (4, 6)
    assert np.all(np.isinf(stacked[[1, 3], 0])) and np.all(np.isfinite(stacked[[0, 2], 0]))
    assert np.all(np.isfinite(stacked[:, 1:5]))
    assert np.all(np.isfinite(stacked[:, 5]) if with_ref else np.isnan(stacked[:, 5]))


@pytest.mark.parametrize("method", list(StepperKind))
@pytest.mark.parametrize("kind", list(FormulationKind))
def test_step_in_place_equals_split_then_stack_bit_for_bit(method, kind):
    # Random listed supports, every mode, and k = +-(3, 3, 0) against
    # e = (1, -1, 0) 1e308/sqrt 2, where k . y overflows to NaN and takes
    # the power-of-two redo; dt = 1 is unstable there, so powers blow up too.
    n = 8
    ws = fields.SpectralWorkspace(n, TWO_PI)
    rng = np.random.default_rng(11)
    shape = ws.k2.shape
    overflow = ((3, n - 3, 1), (3, n - 3, 2), (0, 0, 3))
    supports = [np.unravel_index(rng.choice(np.prod(shape), size, replace=False), shape)
                for size in (1, 2, 5, 40)] + [overflow, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for index, dt in itertools.product(supports, (0.05, 1.0)):
            support = evolution._Support(ws) if index is None else evolution._Support(ws, index)
            y = rng.standard_normal((2, 3) + support.inv_k2.shape) * (1.0 + 1j)
            y[..., :1] *= 1e-300
            if index is overflow:
                y[:, :, :2] = 1e308 * np.array([1.0, -1.0, 0.0])[:, None] / np.sqrt(2.0)
                assert np.isnan(fields.k_dot(y, support.kvec)).any()
            maps = evolution._ShellMaps(method, kind, dt, support.k2)
            for j in range(1, 8):
                got = support.advance(maps, j, y)
                want = split_then_stack_step(support, maps, j, y)
                assert np.array_equal(got, want, equal_nan=True)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sparse", [False, True])
def test_reference_stack_equals_the_spectrum_at_each_time(monkeypatch, sparse):
    refs = []
    rows = fields.Modes.rows

    def keeping(self, y, ref=None, g=None):
        refs.append((self, ref))
        return rows(self, y, ref, g)

    monkeypatch.setattr(fields.Modes, "rows", keeping)
    spec = plane_wave_spectrum((0, 1, 0), (1, 0, 0), kind="contaminated", grid_n=8)
    ref = plane_wave_reference((1, 1, 0), (0, 0, 1), grid_n=8)
    series = evolve(spec if sparse else grid_of(spec), "canonical", "rk4", 0.05, 1.0,
                    reference=ref, stride=4)
    ((modes, stack),) = refs
    assert stack.shape == (len(series.t), 2, 3) + modes.inv_k2.shape
    for r, t in zip(stack, series.t):
        want = np.zeros_like(r)
        want[..., modes.ref_at] = ref.spectrum(t)
        assert r.tobytes() == want.tobytes()
    if sparse:
        # The reference's two entries among the wave's and the contamination's four.
        assert modes.inv_k2.size == 6 and np.count_nonzero(np.abs(stack).sum(axis=(0, 1, 2))) == 2


def count_row_stacks(monkeypatch):
    """States per fields.Modes.rows call, with each state's bytes."""
    calls = []
    rows = fields.Modes.rows

    def counting(self, y, ref=None, g=None):
        calls.append((y.shape[0], y[0].nbytes))
        return rows(self, y, ref, g)

    monkeypatch.setattr(fields.Modes, "rows", counting)
    return calls


def test_every_mode_rows_stack_within_the_byte_budget(monkeypatch):
    # dt = 1 is unstable at N = 16: every mode is carried, one step and one
    # row at a time, so a stack of all rows would hold 107 N^3 states.
    calls = count_row_stacks(monkeypatch)
    state = correct_initial_data(*random_smooth_fields(np.random.default_rng(1), 16, TWO_PI),
                                 TWO_PI)
    series = evolve(state, "canonical", "rk4", 1.0, 200.0)
    assert series.aborted and len(series.t) == 107
    assert sum(r for r, _ in calls) == len(series.t)
    per_call = ROW_STACK_BYTES // calls[0][1]
    assert per_call >= 2 and len(calls) > 1
    assert all(r <= per_call for r, _ in calls)


@pytest.mark.parametrize("reproject_every", [None, 4])
def test_small_runs_build_all_rows_in_one_stack(monkeypatch, reproject_every):
    calls = count_row_stacks(monkeypatch)
    spec = plane_wave_spectrum((1, 0, 0), (0, 1, 0), grid_n=32)
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=32)
    wave = evolve(spec, "gauge_fixed", "rk4", TWO_PI / 1000.0, TWO_PI, reference=ref, stride=50)
    grid = evolve(raw_random_state(8), "canonical", "rk4", 0.05, 1.0,
                  reproject_every=reproject_every)
    assert [r for r, _ in calls] == [len(wave.t), len(grid.t)] == [21, 21]
