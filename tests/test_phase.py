import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from gaugefix.phase import (
    CosymplecticForm,
    HamiltonianSystem,
    LagrangianSystem,
    PhaseFunction,
    RankVariationError,
    as_phase_point,
    fd_gradient,
    hamiltonian_flow,
    hessian_rank,
    linear_function,
    poisson_bracket,
    polynomial_bracket,
    quadratic_function,
    verify_constant_rank,
)

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def phase_points(dim):
    return arrays(np.float64, (dim,), elements=finite_floats)


def test_as_phase_point_rejects_odd_and_nonfinite():
    with pytest.raises(ValueError):
        as_phase_point([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        as_phase_point([1.0, np.nan])
    with pytest.raises(ValueError):
        as_phase_point([])


def test_canonical_form_blocks():
    j = CosymplecticForm.canonical(2).at(np.zeros(4))
    expected = np.array([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ], dtype=float)
    assert_allclose(j, expected)


def test_form_rejects_symmetric_matrix():
    with pytest.raises(ValueError):
        CosymplecticForm(matrix=np.eye(2))


def test_coordinate_momentum_bracket_is_plus_one():
    """[q^a, p_b] = delta^a_b in the chosen ordering."""
    form = CosymplecticForm.canonical(2)
    z = np.array([0.3, -1.2, 0.5, 2.0])
    for a in range(2):
        for b in range(2):
            qa = linear_function(np.eye(4)[a])
            pb = linear_function(np.eye(4)[2 + b])
            expected = 1.0 if a == b else 0.0
            assert poisson_bracket(qa, pb, z, form) == pytest.approx(expected, abs=1e-15)


@given(phase_points(4), phase_points(4), st.integers(0, 3))
def test_bracket_antisymmetric_for_quadratics(z, coeffs, idx):
    form = CosymplecticForm.canonical(2)
    quad = np.outer(coeffs, coeffs) + np.diag(np.arange(1.0, 5.0))
    f = quadratic_function(quad)
    g = linear_function(np.eye(4)[idx], const=0.5)
    fg = poisson_bracket(f, g, z, form)
    gf = poisson_bracket(g, f, z, form)
    scale = 1.0 + abs(fg)
    assert abs(fg + gf) <= 1e-12 * scale


@given(phase_points(4))
def test_jacobi_identity_for_polynomials(z):
    """Sum of cyclic double brackets vanishes (inner bracket in closed form)."""
    from gaugefix.constraints import bracket_function

    form = CosymplecticForm.canonical(2)
    a = np.zeros((4, 4))
    a[0, 2] = a[2, 0] = 1.0
    f = quadratic_function(a)
    g = quadratic_function(np.diag([0.0, 1.0, 0.0, 1.0]))
    h = linear_function(np.array([0.5, -1.0, 2.0, 0.25]))
    total = (
        poisson_bracket(bracket_function(f, g, form), h, z, form)
        + poisson_bracket(bracket_function(g, h, form), f, z, form)
        + poisson_bracket(bracket_function(h, f, form), g, z, form)
    )
    assert abs(total) <= 1e-12 * (1.0 + np.linalg.norm(z) ** 2)


def test_fd_gradient_matches_analytic_quadratic():
    quad = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = quadratic_function(quad, lin=np.array([1.0, -1.0]))
    z = np.array([0.7, -0.4])
    assert_allclose(fd_gradient(f.value, z), f.grad(z), atol=1e-9)


def test_phase_function_fd_fallback_flagged():
    f = PhaseFunction(lambda z: float(np.sin(z[0]) * z[1]), None)
    assert f.uses_fd_gradient
    z = np.array([0.3, 1.1])
    assert_allclose(f.grad(z), [np.cos(0.3) * 1.1, np.sin(0.3)], atol=1e-9)
    g = linear_function(np.ones(2))
    assert not g.uses_fd_gradient


def test_hamiltonian_flow_harmonic_oscillator():
    h = quadratic_function(np.eye(2))
    system = HamiltonianSystem.canonical(1, h)
    z = np.array([1.0, 0.0])
    assert_allclose(hamiltonian_flow(system, z), [0.0, -1.0])


def test_hamiltonian_flow_dimension_mismatch():
    h = quadratic_function(np.eye(2))
    system = HamiltonianSystem.canonical(1, h)
    with pytest.raises(ValueError):
        hamiltonian_flow(system, np.zeros(4))


class TestHessianRank:
    def test_free_particle_full_rank(self):
        lag = LagrangianSystem(2, lambda q, v: 0.5 * (v[0] ** 2 + v[1] ** 2))
        rank, null = hessian_rank(lag, np.zeros(2), np.zeros(2))
        assert rank == 2
        assert null.shape == (2, 0)

    def test_singular_direction_found(self):
        lag = LagrangianSystem(2, lambda q, v: 0.5 * (v[0] - q[1]) ** 2)
        rank, null = hessian_rank(lag, np.zeros(2), np.zeros(2))
        assert rank == 1
        assert null.shape == (2, 1)
        assert_allclose(np.abs(null[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_zero_hessian(self):
        lag = LagrangianSystem(2, lambda q, v: v[0] * q[1])
        rank, null = hessian_rank(lag, np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert rank == 0
        assert null.shape == (2, 2)
        # Kernel basis comes back orthonormal.
        assert_allclose(null.T @ null, np.eye(2), atol=1e-12)

    def test_analytic_hessian_used_when_given(self):
        calls = []

        def hess(q, v):
            calls.append(1)
            return np.eye(2)

        lag = LagrangianSystem(2, lambda q, v: 0.0, velocity_hessian=hess)
        rank, _ = hessian_rank(lag, np.zeros(2), np.zeros(2))
        assert rank == 2 and calls

    def test_bad_tolerance_rejected(self):
        lag = LagrangianSystem(1, lambda q, v: 0.5 * v[0] ** 2)
        with pytest.raises(ValueError):
            hessian_rank(lag, np.zeros(1), np.zeros(1), tol=0.0)


def test_verify_constant_rank_accepts_uniform():
    lag = LagrangianSystem(2, lambda q, v: 0.5 * (v[0] - q[1]) ** 2)
    points = [(np.zeros(2), np.zeros(2)), (np.ones(2), np.full(2, -1.0))]
    assert verify_constant_rank(lag, points) == 1


def test_verify_constant_rank_raises_on_variation():
    # Hessian diag(1, q1): rank drops from 2 to 1 at q1 = 0.
    lag = LagrangianSystem(
        2,
        lambda q, v: 0.5 * v[0] ** 2 + 0.5 * q[0] * v[1] ** 2,
        velocity_hessian=lambda q, v: np.diag([1.0, q[0]]),
    )
    points = [(np.array([1.0, 0.0]), np.zeros(2)), (np.array([0.0, 0.0]), np.zeros(2))]
    with pytest.raises(RankVariationError):
        verify_constant_rank(lag, points)


def test_nonfinite_gradient_raises():
    f = PhaseFunction(lambda z: z[0], lambda z: np.array([np.inf, 0.0]))
    with pytest.raises(FloatingPointError):
        f.grad(np.zeros(2))


# ---------------------------------------------------------------------------
# Closed-form brackets of polynomials of degree <= 2
# ---------------------------------------------------------------------------

def _random_polynomial(rng, dim):
    a = rng.standard_normal((dim, dim))
    return quadratic_function(a + a.T, lin=rng.standard_normal(dim),
                              const=float(rng.standard_normal()))


def _constant_noncanonical_form(rng, dim):
    k = rng.standard_normal((dim, dim))
    return CosymplecticForm(matrix=k - k.T)


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("kind", ["canonical", "noncanonical"])
def test_closed_form_bracket_matches_oracle(dim, kind):
    """Value against poisson_bracket, gradient against (A J grad g - B J grad f)."""
    from gaugefix.constraints import bracket_function

    rng = np.random.default_rng(100 + dim)
    form = (CosymplecticForm.canonical(dim // 2) if kind == "canonical"
            else _constant_noncanonical_form(rng, dim))
    j = form.at(None)
    for _ in range(20):
        f, g = _random_polynomial(rng, dim), _random_polynomial(rng, dim)
        fg = bracket_function(f, g, form)
        assert not fg.uses_fd_gradient
        assert fg.coefficients is not None
        for z in rng.standard_normal((5, dim)):
            expected = poisson_bracket(f, g, z, form)
            assert fg(z) == pytest.approx(expected, rel=1e-13, abs=1e-13)
            grad = f.coefficients.quad @ j @ g.grad(z) - g.coefficients.quad @ j @ f.grad(z)
            assert_allclose(fg.grad(z), grad, rtol=1e-13, atol=1e-13 * np.abs(grad).max())


def test_closed_form_weighted_sum_matches_oracle():
    rng = np.random.default_rng(7)
    form = _constant_noncanonical_form(rng, 4)
    fs = [_random_polynomial(rng, 4) for _ in range(3)]
    g = _random_polynomial(rng, 4)
    w = np.array([0.6, -0.8, 2.5])
    combo = polynomial_bracket(fs, w, g, form)
    for z in rng.standard_normal((5, 4)):
        expected = sum(wi * poisson_bracket(f, g, z, form) for wi, f in zip(w, fs))
        assert combo(z) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_linear_function_coefficients():
    f = linear_function(np.array([1.0, -2.0]), const=0.5)
    assert_allclose(f.coefficients.quad, np.zeros((2, 2)), atol=0)
    assert_allclose(f.coefficients.lin, [1.0, -2.0])
    assert f.coefficients.const == 0.5
    # [q - 2p + 1/2, qp] = (1, -2) . J . (p, q) = q + 2p
    qp = quadratic_function(np.array([[0.0, 1.0], [1.0, 0.0]]))
    bracket = polynomial_bracket([f], [1.0], qp, CosymplecticForm.canonical(1))
    assert_allclose(bracket.coefficients.quad, np.zeros((2, 2)), atol=0)
    assert_allclose(bracket.coefficients.lin, [1.0, 2.0])
    assert bracket.coefficients.const == 0.0


def test_polynomial_bracket_declines_without_closed_form():
    f = quadratic_function(np.eye(2))
    opaque = PhaseFunction(lambda z: float(np.sin(z[0])), lambda z: np.array([np.cos(z[0]), 0.0]))
    point_dependent = CosymplecticForm(
        matrix_fn=lambda z: (1.0 + z[0] ** 2) * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    canonical = CosymplecticForm.canonical(1)
    assert polynomial_bracket([f], [1.0], opaque, canonical) is None
    assert polynomial_bracket([opaque], [1.0], f, canonical) is None
    assert polynomial_bracket([f], [1.0], f, point_dependent) is None


def test_polynomial_bracket_rejects_dimension_mismatch():
    f = quadratic_function(np.eye(4))
    with pytest.raises(ValueError, match="dimension"):
        polynomial_bracket([f], [1.0], f, CosymplecticForm.canonical(1))
