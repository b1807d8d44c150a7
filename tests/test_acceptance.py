"""End-to-end acceptance checks.

One test per advertised guarantee, each asserting the stated tolerance
and runtime budget and printing a single PASS/FAIL line (visible with
pytest -s or in the captured-output section). These intentionally go
through the public API only.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from gaugefix.constraints import (
    classify_constraints,
    commutation_matrix,
    consistency_chain,
    dirac_bracket,
    error_correction_step,
    project_to_constraint_surface,
)
from gaugefix.evolution import evolve
from gaugefix.fields import (
    FieldState,
    correct_initial_data,
    get_workspace,
    plane_wave_reference,
    random_smooth_fields,
    transverse_project,
)
from gaugefix.phase import CosymplecticForm, poisson_bracket, quadratic_function
from gaugefix.symbols import (
    Hyperbolicity,
    analyze_symbol,
    maxwell_canonical_symbol,
    maxwell_gauge_fixed_symbol,
    sample_directions,
)
from gaugefix.toys import chain_demo, circle_pair, regular_demo, second_class_demo
from oracles import (
    adapted_blocks,
    constraint_norms,
    curl,
    dirac_kernel_check,
    div,
    l2_norm,
    plane_wave_initial_data,
    state_distance,
)

TWO_PI = 2.0 * np.pi
SEED = 20240817


def report(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


def elapsed_ok(t0: float, budget: float) -> tuple[float, bool]:
    dt = time.monotonic() - t0
    return dt, dt < budget


def test_criterion_1_hyperbolicity_split():
    t0 = time.monotonic()
    canonical = analyze_symbol(maxwell_canonical_symbol(), seed=SEED)
    fixed = analyze_symbol(maxwell_gauge_fixed_symbol(), seed=SEED)
    ok = (canonical.classification is Hyperbolicity.WEAKLY_HYPERBOLIC
          and fixed.classification is Hyperbolicity.STRONGLY_HYPERBOLIC)

    trans_dev = 0.0
    ranks = {}
    for name, factory in (("canonical", maxwell_canonical_symbol),
                          ("gauge_fixed", maxwell_gauge_fixed_symbol)):
        for n in sample_directions(8, np.random.default_rng(SEED)):
            long_block, trans = adapted_blocks(factory().at(n), n)
            for b in trans:
                w = np.sort(np.linalg.eigvals(b).real)
                trans_dev = max(trans_dev, float(np.max(np.abs(w - [-1.0, 1.0]))))
            # A 2x2 block has the double eigenvalue 0 exactly when trace
            # and determinant vanish; this avoids the sqrt(eps) error
            # that eig makes on defective matrices. The eigenvector count
            # for eigenvalue 0 is the dimension of the block's null space.
            tr = abs(float(np.trace(long_block)))
            det = abs(float(np.linalg.det(long_block)))
            ok = ok and tr < 1e-12 and det < 1e-12
            ranks[name] = 2 - np.linalg.matrix_rank(long_block, tol=1e-12)
    ok = ok and trans_dev < 1e-12 and ranks["canonical"] == 1 and ranks["gauge_fixed"] == 2
    dt, in_time = elapsed_ok(t0, 1.0)
    report(ok and in_time,
           f"criterion 1: canonical weakly / gauge-fixed strongly hyperbolic, "
           f"transverse eigenvalue deviation {trans_dev:.2e} < 1e-12, "
           f"zero-block eigenvector ranks {ranks['canonical']}/{ranks['gauge_fixed']} "
           f"({dt:.2f}s < 1s)")


def test_criterion_2_bracket_kernel_on_grid():
    t0 = time.monotonic()
    n = 16
    state = FieldState(np.zeros((3, n, n, n)), np.zeros((3, n, n, n)), TWO_PI)
    ok = dirac_kernel_check(state, tol=1e-12)
    dt, in_time = elapsed_ok(t0, 1.0)
    report(ok and in_time,
           f"criterion 2: implemented projection matches the independent "
           f"mode-space kernel on a 16^3 grid at 1e-12 ({dt:.2f}s < 1s)")


def test_criterion_3_initial_data_correction():
    t0 = time.monotonic()
    n = 32
    rng = np.random.default_rng(SEED)
    a_raw, pi_raw = random_smooth_fields(rng, n, TWO_PI)
    scale = max(l2_norm(a_raw, TWO_PI), l2_norm(pi_raw, TWO_PI))

    corrected = correct_initial_data(a_raw, pi_raw, TWO_PI)
    div_a, div_pi = constraint_norms(corrected)
    residual_ok = max(div_a, div_pi) < 1e-10 * scale

    again = correct_initial_data(corrected.a, corrected.pi, TWO_PI)
    idempotent_dev = state_distance(again, corrected)
    idempotent_ok = idempotent_dev < 1e-12 * scale

    ws = corrected.workspace()
    transverse_dev = max(
        np.max(np.abs(transverse_project(a_raw, ws) - corrected.a)),
        np.max(np.abs(transverse_project(pi_raw, ws) - corrected.pi)),
    )
    transverse_ok = transverse_dev < 1e-12 * scale

    dt, in_time = elapsed_ok(t0, 2.0)
    report(residual_ok and idempotent_ok and transverse_ok and in_time,
           f"criterion 3: corrected 32^3 random data has constraint norms "
           f"{max(div_a, div_pi):.2e} < 1e-10*scale, idempotency deviation "
           f"{idempotent_dev:.2e} < 1e-12*scale, transverse content kept to "
           f"{transverse_dev:.2e} ({dt:.2f}s < 2s)")


def test_criterion_4_plane_wave_accuracy():
    t0 = time.monotonic()
    n = 32
    state = plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=n)
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=n)
    series = evolve(state, "gauge_fixed", "rk4", ref.period / 1000.0,
                    ref.period, reference=ref, stride=50)
    l2_err = float(series.l2_error[-1])
    drift = float(np.max(np.abs(series.energy / series.energy[0] - 1.0)))
    dt, in_time = elapsed_ok(t0, 2.0)
    report(l2_err < 1e-6 and drift < 1e-8 and in_time,
           f"criterion 4: one standing-wave period at N=32, dt=T/1000 gives "
           f"L2 error {l2_err:.2e} < 1e-6 and relative energy drift "
           f"{drift:.2e} < 1e-8 ({dt:.1f}s < 2s)")


def test_criterion_5_longitudinal_growth_and_suppression():
    t0 = time.monotonic()
    n = 32
    make = lambda: plane_wave_initial_data(
        (1, 0, 0), (0, 1, 0), grid_n=n, kind="contaminated",
        contamination_amplitude=0.1)

    canonical = evolve(make(), "canonical", "rk4", 0.01, 2.0, stride=20)
    slope_expected = canonical.norm_pi_L[0]
    t, a_l = canonical.t, canonical.norm_A_L
    coeffs = np.polyfit(t, a_l, 1)
    fit = np.polyval(coeffs, t)
    ss_res = float(np.sum((a_l - fit) ** 2))
    ss_tot = float(np.sum((a_l - a_l.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    slope_err = abs(coeffs[0] - slope_expected) / slope_expected

    fixed = evolve(make(), "gauge_fixed", "rk4", 0.01, 2.0, stride=20)
    a_l_dev = float(np.max(np.abs(fixed.norm_A_L - fixed.norm_A_L[0])))
    pi_l_dev = float(np.max(np.abs(fixed.norm_pi_L - fixed.norm_pi_L[0])))

    dt, in_time = elapsed_ok(t0, 2.0)
    report(r2 > 0.999 and slope_err < 1e-6 and a_l_dev < 1e-10
           and pi_l_dev < 1e-10 and in_time,
           f"criterion 5: canonical longitudinal norm grows as t*|pi_L(0)| "
           f"(R^2={r2:.6f} > 0.999, relative slope error {slope_err:.2e} < 1e-6); "
           f"gauge-fixed holds |A_L|, |pi_L| constant to "
           f"{max(a_l_dev, pi_l_dev):.2e} < 1e-10 ({dt:.1f}s < 2s)")


def test_criterion_6_toy_model_pipeline():
    t0 = time.monotonic()

    chain_model = chain_demo()
    chain = classify_constraints(
        consistency_chain(chain_model.system, chain_model.primaries))
    chain_ok = (chain.labels == ["p2", "[p2, H]"]
                and all(c.class_label.value == "first_class" for c in chain))

    sc_model = second_class_demo()
    sc = classify_constraints(
        consistency_chain(sc_model.system, sc_model.primaries))
    z = sc_model.sample_point
    form = sc_model.system.form
    mat = commutation_matrix(sc, z, form)
    matrix_ok = np.allclose(mat.entries, [[0.0, -1.0], [1.0, 0.0]], atol=1e-10)
    classes_ok = all(c.class_label.value == "second_class" for c in sc)

    pairs = dict(sc_model.check_functions)
    dirac_dev = max(
        abs(dirac_bracket(pairs["q1"], pairs["p1"], sc, z, form) - 1.0),
        abs(dirac_bracket(pairs["q2"], pairs["p2"], sc, z, form) - 0.0),
        abs(dirac_bracket(pairs["q1"], pairs["q2"], sc, z, form) - 1.0),
    )

    reg_model = regular_demo()
    reg = consistency_chain(reg_model.system, reg_model.primaries)
    regular_ok = len(reg.constraints) == 0

    doc = Path(__file__).resolve().parent.parent / "docs" / "derivations.md"
    doc_ok = doc.is_file() and all(
        key in doc.read_text() for key in ("p2", "p1 - q2", "Dirac"))

    dt, in_time = elapsed_ok(t0, 2.0)
    report(chain_ok and matrix_ok and classes_ok and dirac_dev < 1e-10
           and regular_ok and doc_ok and in_time,
           f"criterion 6: toy chains, classes and the frozen commutation "
           f"matrix match the hand derivations (worst Dirac deviation "
           f"{dirac_dev:.2e} < 1e-10), derivation notes present ({dt:.2f}s)")


def test_criterion_7_error_correction_contract():
    t0 = time.monotonic()
    sc_model = second_class_demo()
    sc = classify_constraints(
        consistency_chain(sc_model.system, sc_model.primaries))
    form = sc_model.system.form

    z_bar = np.array([0.4, 0.25, 0.25, 0.1])
    delta, rep = error_correction_step(sc, z_bar, form)
    linear_residual = float(np.max(np.abs(sc.values(z_bar + delta))))
    linear_ok = linear_residual < 1e-12 and rep.converged

    circle = circle_pair()
    circle_form = CosymplecticForm.canonical(1)
    z = np.array([1.3, 0.4])
    residuals = [float(np.linalg.norm(circle.values(z)))]
    for _ in range(4):
        step, _ = error_correction_step(circle, z, circle_form)
        z = z + step
        residuals.append(float(np.linalg.norm(circle.values(z))))
    usable = [r for r in residuals if r > 1e-12]
    logs = np.log(usable)
    slope = float(np.polyfit(logs[:-1], logs[1:], 1)[0])
    slope_ok = abs(slope - 2.0) < 0.3

    z_proj, proj_rep = project_to_constraint_surface(
        circle, np.array([1.3, 0.4]), tol=1e-12, form=circle_form)
    proj_ok = proj_rep.converged and proj_rep.iterations <= 6
    final_ok = float(np.linalg.norm(circle.values(z_proj))) < 1e-12

    dt, in_time = elapsed_ok(t0, 2.0)
    report(linear_ok and slope_ok and proj_ok and final_ok and in_time,
           f"criterion 7: linear pair corrected in one step to "
           f"{linear_residual:.2e} < 1e-12; circle residuals contract with "
           f"log-log slope {slope:.2f} (within 0.3 of 2) and converge to 1e-12 "
           f"in {proj_rep.iterations} <= 6 iterations ({dt:.2f}s)")


def test_criterion_8_property_bundle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    form = CosymplecticForm.canonical(2)

    # Bracket antisymmetry and the Jacobi identity on random quadratics.
    bracket_dev = 0.0
    for _ in range(25):
        mats = []
        for _ in range(3):
            m = rng.normal(size=(4, 4))
            mats.append(quadratic_function((m + m.T) / 2.0, lin=rng.normal(size=4)))
        f, g, h = mats
        z = rng.normal(size=4)
        fg = poisson_bracket(f, g, z, form)
        gf = poisson_bracket(g, f, z, form)
        bracket_dev = max(bracket_dev, abs(fg + gf))
    antisymmetry_ok = bracket_dev < 1e-10

    from gaugefix.constraints import bracket_function
    jacobi_dev = 0.0
    for _ in range(10):
        fs = []
        for _ in range(3):
            m = rng.normal(size=(4, 4))
            fs.append(quadratic_function((m + m.T) / 2.0))
        f, g, h = fs
        z = rng.normal(size=4) * 0.5
        total = (poisson_bracket(f, bracket_function(g, h, form), z, form)
                 + poisson_bracket(g, bracket_function(h, f, form), z, form)
                 + poisson_bracket(h, bracket_function(f, g, form), z, form))
        jacobi_dev = max(jacobi_dev, abs(total))
    jacobi_ok = jacobi_dev < 1e-12

    # Spectral identities on random smooth fields.
    n = 16
    ws = get_workspace(n, TWO_PI)
    v, _ = random_smooth_fields(rng, n, TWO_PI)
    once = transverse_project(v, ws)
    proj_dev = float(np.max(np.abs(transverse_project(once, ws) - once)))
    div_curl_dev = float(np.max(np.abs(div(curl(v, ws), ws))))
    spectral_ok = proj_dev < 1e-12 and div_curl_dev < 1e-12

    # RK4 order on the standing wave.
    state = plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=8)
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=8)
    errs = []
    for steps in (40, 80):
        series = evolve(state.copy(), "gauge_fixed", "rk4",
                        ref.period / steps, ref.period / 4.0, reference=ref)
        errs.append(float(series.l2_error[-1]))
    order = float(np.log2(errs[0] / errs[1]))
    rk4_ok = order > 3.8

    # Symplectic invariants: bounded energy and a frozen longitudinal
    # momentum over many periods, sampled away from period boundaries.
    dirty = plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=8,
                                    kind="contaminated")
    dtv = ref.period / 64.0
    verlet = evolve(dirty, "canonical", "stormer_verlet", dtv,
                    10.0 * ref.period, stride=7)
    energy_dev = float(np.max(np.abs(verlet.energy / verlet.energy[0] - 1.0)))
    pi_l_dev = float(np.ptp(verlet.norm_pi_L) / verlet.norm_pi_L[0])
    verlet_ok = energy_dev < (TWO_PI / 64.0) ** 2 and pi_l_dev < 1e-6

    dt, in_time = elapsed_ok(t0, 2.0)
    report(antisymmetry_ok and jacobi_ok and spectral_ok and rk4_ok
           and verlet_ok and in_time,
           f"criterion 8: antisymmetry {bracket_dev:.1e}, Jacobi {jacobi_dev:.1e}, "
           f"projector idempotence {proj_dev:.1e}, div(curl) {div_curl_dev:.1e}, "
           f"RK4 order {order:.2f} >= 3.8, Verlet energy bounded at "
           f"{energy_dev:.1e} with pi_L drift {pi_l_dev:.1e} ({dt:.2f}s < 2s)")
