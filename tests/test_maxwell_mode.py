"""One Maxwell Fourier mode through the finite pipeline (docs/derivations.md section 5a).

toys.maxwell_mode is built from its Lagrangian by legendre, like every
toy. Its chain, classes and Dirac brackets come out of the constraint
pipeline unchanged (test_constraints.py and the sympy oracle check its
multipliers), and three checks tie them to the field half by routes
that share no code with it: the Dirac matrix against the per-mode
kernel of fields.transverse_project, the flows against the hand-typed
principal symbols, and evolve_finite against the field engine's RK4
map.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugefix import fields
from gaugefix.constraints import (
    ConstraintClass,
    classify_constraints,
    consistency_chain,
    dirac_bracket,
)
from gaugefix.evolution import StepperKind, _step_blocks, evolve_finite
from gaugefix.symbols import maxwell_canonical_symbol, maxwell_gauge_fixed_symbol
from gaugefix.toys import maxwell_mode

K = np.array([1.0, 2.0, -0.5])
# (a, p) within z = (a, f, p, p_f).
AP = [0, 1, 2, 4, 5, 6]


def _wavevectors():
    """K and 40 random nonzero integer wavevectors in [-4, 4]^3."""
    rng = np.random.default_rng(7)
    ks = [K]
    while len(ks) < 41:
        k = rng.integers(-4, 5, size=3).astype(float)
        if k.any():
            ks.append(k)
    return ks


WAVEVECTORS = _wavevectors()


def dirac_matrix(model, cset):
    """[a_i, p_j]_D at the model's sample point."""
    checks = dict(model.check_functions)
    return np.array([[dirac_bracket(checks[f"q{i}"], checks[f"p{j}"], cset,
                                    model.sample_point, model.system.form)
                      for j in (1, 2, 3)] for i in (1, 2, 3)])


def test_chain_is_the_primary_and_gauss_law():
    model = maxwell_mode(K)
    chain = classify_constraints(consistency_chain(model.system, model.primaries))
    assert chain.labels == ["p4", "[p4, H]"]
    # [p4, H] = -dH/df = -k.p.
    assert_allclose(chain[1].function.coefficients.lin, np.concatenate([[0.0] * 4, -K, [0.0]]),
                    atol=1e-15)
    assert chain[1].function.coefficients.const == 0.0
    assert [c.class_label for c in chain] == [ConstraintClass.FIRST_CLASS] * 2


def test_gauge_fixings_make_all_four_second_class(coulomb_gauge):
    _, cset = coulomb_gauge(K)
    assert cset.labels == ["p4", "[p4, H]", "f", "k.a"]
    assert ([c.class_label for c in classify_constraints(cset)]
            == [ConstraintClass.SECOND_CLASS] * 4)


def test_dirac_matrix_is_the_transverse_projector(coulomb_gauge):
    worst = max(np.abs(dirac_matrix(*coulomb_gauge(k)) - np.eye(3)
                       + np.outer(k, k) / (k @ k)).max() for k in WAVEVECTORS)
    assert worst < 1e-12


def test_every_scale_of_k_gives_the_same_classes_and_projector(coulomb_gauge):
    """k 2^j for j in [-30, 30]: all four second class, and [a_i, p_j]_D is
    the projector at k/|k|. Against absolute floors k 2^-30 refused the
    chain, k 2^+-20 and k 2^30 found the matrix singular, and k 1e-5 made
    Gauss's law and k.a first class."""
    k_hat = K / np.linalg.norm(K)
    for k in [np.ldexp(K, j) for j in range(-30, 31)] + [1e-5 * K]:
        model, cset = coulomb_gauge(k)
        assert ([c.class_label for c in classify_constraints(cset)]
                == [ConstraintClass.SECOND_CLASS] * 4)
        assert np.abs(dirac_matrix(model, cset) - np.eye(3) + np.outer(k_hat, k_hat)).max() < 1e-12


def test_dirac_matrix_is_the_field_kernel_on_every_resolved_mode(coulomb_gauge):
    """Criterion 2 by a second route: impulses through fields.transverse_project
    measure the kernel at every entry of the N=8 half spectrum, and the mode's
    Dirac matrix at that entry's wavevector must equal it."""
    t0 = time.monotonic()
    n = 8
    ws = fields.get_workspace(n, 2.0 * np.pi)
    measured = np.empty((3, 3, n, n, n // 2 + 1), dtype=complex)
    for j in range(3):
        impulse = np.zeros((3, n, n, n))
        impulse[j, 0, 0, 0] = 1.0
        measured[:, j] = ws.forward(fields.transverse_project(impulse, ws))
    # On a box of side 2 pi, k is the integer mode number, Nyquist read as zero.
    m = np.fft.fftfreq(n, 1.0 / n)
    m[n // 2] = 0.0
    mz = np.abs(m[:n // 2 + 1])
    worst, swept = 0.0, 0
    for i in np.ndindex(n, n, n // 2 + 1):
        k = np.array([m[i[0]], m[i[1]], mz[i[2]]])
        if k.any():
            deviation = dirac_matrix(*coulomb_gauge(k)) - measured[(Ellipsis, *i)]
            worst = max(worst, float(np.abs(deviation).max()))
            swept += 1
    assert swept == 312
    assert worst < 1e-12
    assert time.monotonic() - t0 < 2.0


def _symbol(x, k):
    """-i D^-1 S X S^-1 D / |k| for a flow matrix X on (a, p), with
    S = diag(|k| I, I) and D = diag(I, i I)."""
    s = np.diag([np.linalg.norm(k)] * 3 + [1.0] * 3)
    d = np.diag([1.0] * 3 + [1j] * 3)
    return -1j * np.linalg.inv(d) @ s @ x @ np.linalg.inv(s) @ d / np.linalg.norm(k)


def test_flows_give_the_principal_symbols(coulomb_gauge):
    worst = 0.0
    for k in WAVEVECTORS:
        model, cset = coulomb_gauge(k)
        j = model.system.form.matrix
        hess = model.system.hamiltonian.coefficients.quad
        # Hamiltonian flow on the slice f = 0.
        canonical = _symbol((j @ hess)[np.ix_(AP, AP)], k)
        # Dirac-bracket flow J_D grad H, J_D = J - J G^T M^-1 G J.
        g = cset.jacobian(model.sample_point)
        j_d = j - j @ g.T @ np.linalg.solve(g @ j @ g.T, g @ j)
        fixed = _symbol((j_d @ hess)[np.ix_(AP, AP)], k)
        worst = max(worst,
                    float(np.abs(canonical - maxwell_canonical_symbol().at(k)).max()),
                    float(np.abs(fixed - maxwell_gauge_fixed_symbol().at(k)).max()))
    assert worst < 1e-12


def test_evolve_finite_matches_the_field_rk4_map(coulomb_gauge):
    """From the surface, RK4 on the extended flow is the field engine's
    transverse map per component of (a, p)."""
    model, cset = coulomb_gauge(K)
    a, p = np.cross(K, [0.3, -1.0, 0.7]), np.cross(K, [1.0, 0.2, 0.4])
    dt, steps = 0.01, 300
    series = evolve_finite(model.system, np.concatenate([a, [0.0], p, [0.0]]), dt,
                           steps * dt, constraint_set=cset)
    assert len(series.t) == steps + 1 and not series.aborted
    aa, ap, pa, pp = _step_blocks(StepperKind.RK4, dt, np.array(K @ K))
    expected = [np.concatenate([a, p])]
    for _ in range(steps):
        a, p = aa * a + ap * p, pa * a + pp * p
        expected.append(np.concatenate([a, p]))
    # Relative to the state's size: a component passing through zero
    # keeps the rounding of its row.
    assert_allclose(series.states[:, AP], expected, rtol=1e-12,
                    atol=1e-12 * np.abs(expected).max())
    assert np.all(series.states[:, [3, 7]] == 0.0)


@pytest.mark.parametrize("k", [
    (0.0, 0.0, 0.0), (1e-200, 0.0, 0.0), (1e200, 0.0, 0.0), (np.inf, 0.0, 0.0),
    (np.nan, 1.0, 0.0), (1.0, 2.0), ((1.0, 2.0, 3.0),),
])
def test_maxwell_mode_refuses_a_bad_wavevector(k):
    with pytest.raises(ValueError):
        maxwell_mode(k)
