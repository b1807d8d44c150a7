import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from gaugefix.phase import (
    CosymplecticForm,
    HamiltonianSystem,
    PhaseFunction,
    QuadraticLagrangian,
    as_phase_point,
    bracket_function,
    combination,
    legendre,
    linear_function,
    poisson_bracket,
    quadratic_function,
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
    j = CosymplecticForm.canonical(2).matrix
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


def test_form_holds_a_read_only_copy_of_its_matrix():
    m = np.array([[0.0, 2.0], [-2.0, 0.0]])
    form = CosymplecticForm(m)
    m[0, 1] = 5.0
    assert form.matrix.tolist() == [[0.0, 2.0], [-2.0, 0.0]] and form.size == 2
    with pytest.raises(ValueError, match="read-only"):
        form.matrix[0, 1] = 5.0
    with pytest.raises(TypeError, match="matrix_fn"):
        CosymplecticForm(matrix_fn=lambda z: m)


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((2, 4)), "cosymplectic matrix must be square of even positive size, got (2, 4)"),
    (np.zeros((3, 3)), "cosymplectic matrix must be square of even positive size, got (3, 3)"),
    (np.zeros(4), "cosymplectic matrix must be square of even positive size, got (4,)"),
    (np.zeros((0, 0)), "cosymplectic matrix must be square of even positive size, got (0, 0)"),
    ([[0.0, np.inf], [-np.inf, 0.0]], "cosymplectic matrix must be finite"),
])
def test_form_refuses_a_matrix_not_square_of_even_size_or_not_finite(matrix, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CosymplecticForm(matrix)


def test_system_and_bracket_check_their_dimensions():
    h = quadratic_function(np.eye(2))
    with pytest.raises(ValueError, match="^n_dof must be positive$"):
        HamiltonianSystem(0, h, CosymplecticForm.canonical(1))
    with pytest.raises(ValueError, match="^form size 2 does not match phase dimension 4$"):
        HamiltonianSystem(2, h, CosymplecticForm.canonical(1))
    with pytest.raises(ValueError, match="^dimension mismatch: gradients 4/2, form 2$"):
        poisson_bracket(linear_function(np.ones(4)), linear_function(np.ones(2)), np.zeros(2),
                        CosymplecticForm.canonical(1))


LINEAR_NOT_FINITE = "linear function coefficients and constant must be finite"
QUADRATIC_NOT_FINITE = "quadratic function coefficients and constant must be finite"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, message", [
    (lambda: linear_function([np.nan, 0.0, 0.0, 1.0]), LINEAR_NOT_FINITE),
    (lambda: linear_function([np.inf, 0.0, 0.0, 1.0]), LINEAR_NOT_FINITE),
    (lambda: linear_function([0.0, 1.0], const=np.nan), LINEAR_NOT_FINITE),
    (lambda: quadratic_function(np.diag([np.inf, 1.0, 1.0, 1.0])), QUADRATIC_NOT_FINITE),
    (lambda: quadratic_function(np.eye(2), lin=[np.nan, 0.0]), QUADRATIC_NOT_FINITE),
    (lambda: quadratic_function(np.eye(2), const=-np.inf), QUADRATIC_NOT_FINITE),
], ids=["linear-nan", "linear-inf", "linear-const", "quad-inf", "quad-lin", "quad-const"])
def test_nonfinite_coefficients_are_refused_at_construction(build, message):
    # Accepted before: as a primary, [nan, 0, 0, 1] made consistency_chain's
    # SVD fail to converge and [inf, 0, 0, 1] warned "invalid value
    # encountered in matmul". quadratic_function checks before its symmetry
    # test, whose inf - inf would warn "invalid value encountered in subtract".
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


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


def test_phase_function_requires_a_gradient():
    with pytest.raises(TypeError, match="gradient"):
        PhaseFunction(lambda z: float(np.sin(z[0]) * z[1]))


def _random_lagrangian(rng, n, rank):
    """W = R D R^T with `rank` nonzero eigenvalues of either sign, random B, K."""
    r = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.zeros(n)
    d[:rank] = rng.uniform(0.5, 2.0, rank) * rng.choice([-1.0, 1.0], rank)
    w = r @ np.diag(d) @ r.T
    k = rng.standard_normal((n, n))
    return QuadraticLagrangian(0.5 * (w + w.T), rng.standard_normal((n, n)), k + k.T)


def _is_rref(rows):
    pivots = [int(np.flatnonzero(row)[0]) for row in rows]
    return (pivots == sorted(set(pivots))
            and all(np.array_equal(rows[:, c], np.eye(len(rows))[i])
                    for i, c in enumerate(pivots)))


class TestLegendre:
    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_primaries_and_hamiltonian_at_random_velocities(self, rank):
        rng = np.random.default_rng(10 + rank)
        lag = _random_lagrangian(rng, 3, rank)
        system, primaries = legendre(lag)
        assert len(primaries) == 3 - rank
        kernel = np.array([f.coefficients.lin[3:] for f in primaries]).reshape(-1, 3)
        assert _is_rref(kernel)
        for _ in range(20):
            q, v = rng.standard_normal(3), rng.standard_normal(3)
            p = lag.w @ v + lag.b @ q
            z = np.concatenate([q, p])
            for f in primaries:
                assert abs(f(z)) <= 1e-12
            lagrangian = 0.5 * v @ lag.w @ v + v @ lag.b @ q + 0.5 * q @ lag.k @ q
            # Relative to the terms, which may cancel: H = p.qdot - L for every qdot.
            scale = abs(p @ v) + abs(lagrangian)
            assert abs(system.hamiltonian(z) - (p @ v - lagrangian)) <= 1e-12 * scale

    def test_labels_list_momenta_first(self):
        lag = QuadraticLagrangian(np.zeros((2, 2)), [[0.0, 0.0], [2.0, -1.0]], np.zeros((2, 2)))
        _, primaries = legendre(lag)
        assert [f.label for f in primaries] == ["p1", "p2 - 2 q1 + q2"]

    @pytest.mark.parametrize("w, b, k", [
        ([[1.0, 2.0], [0.0, 1.0]], np.zeros((2, 2)), np.zeros((2, 2))),
        (np.eye(2), np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]]),
        (np.eye(2), np.zeros((2, 3)), np.zeros((2, 2))),
        (np.eye(2), np.zeros((2, 2)), np.zeros((3, 3))),
        (np.ones(2), np.zeros(2), np.zeros(2)),
        (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
        ([[np.nan, 0.0], [0.0, 1.0]], np.zeros((2, 2)), np.zeros((2, 2))),
    ])
    def test_bad_matrices_rejected(self, w, b, k):
        with pytest.raises(ValueError):
            QuadraticLagrangian(w, b, k)


def test_asymmetry_small_against_the_entries_is_refused():
    """max |m - m^T| may reach 1e-14 (1 + max |m|) and no more: at 5e-6 the
    gradient A z + b would differ from the derivative of z.A.z/2 + b.z."""
    with pytest.raises(ValueError, match="must be symmetric"):
        quadratic_function([[1.0, 1.0 + 5e-6], [1.0, 1.0]])
    with pytest.raises(ValueError, match="W and K symmetric"):
        QuadraticLagrangian([[1.0, 1e-6], [0.0, 1.0]], np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="W and K symmetric"):
        QuadraticLagrangian(np.eye(2), np.zeros((2, 2)), [[0.0, 1e-6], [0.0, 0.0]])
    quadratic_function([[1.0, 1.0 + 2.0 ** -52], [1.0, 1.0]])


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
    rng = np.random.default_rng(100 + dim)
    form = (CosymplecticForm.canonical(dim // 2) if kind == "canonical"
            else _constant_noncanonical_form(rng, dim))
    j = form.matrix
    for _ in range(20):
        f, g = _random_polynomial(rng, dim), _random_polynomial(rng, dim)
        fg = bracket_function(f, g, form)
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
    total = combination(fs, w)
    assert total.coefficients is not None
    combo = bracket_function(total, g, form)
    assert combo.coefficients is not None
    for z in rng.standard_normal((5, 4)):
        assert total(z) == pytest.approx(sum(wi * f(z) for wi, f in zip(w, fs)),
                                         rel=1e-13, abs=1e-13)
        assert_allclose(total.grad(z), sum(wi * f.grad(z) for wi, f in zip(w, fs)),
                        rtol=1e-13, atol=1e-13)
        expected = sum(wi * poisson_bracket(f, g, z, form) for wi, f in zip(w, fs))
        assert combo(z) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_linear_function_coefficients():
    f = linear_function(np.array([1.0, -2.0]), const=0.5)
    assert_allclose(f.coefficients.quad, np.zeros((2, 2)), atol=0)
    assert_allclose(f.coefficients.lin, [1.0, -2.0])
    assert f.coefficients.const == 0.5
    # [q - 2p + 1/2, qp] = (1, -2) . J . (p, q) = q + 2p
    qp = quadratic_function(np.array([[0.0, 1.0], [1.0, 0.0]]))
    bracket = bracket_function(f, qp, CosymplecticForm.canonical(1))
    assert_allclose(bracket.coefficients.quad, np.zeros((2, 2)), atol=0)
    assert_allclose(bracket.coefficients.lin, [1.0, 2.0])
    assert bracket.coefficients.const == 0.0


def test_bracket_function_refuses_input_without_closed_form():
    """An opaque input, also as a member of a combination, is refused with
    its label named; its pointwise bracket is still poisson_bracket's."""
    f = quadratic_function(np.eye(2))
    opaque = PhaseFunction(lambda z: float(np.sin(z[0])), lambda z: np.array([np.cos(z[0]), 0.0]),
                           label="sin q")
    canonical = CosymplecticForm.canonical(1)
    refusal = r"^phase function sin q has no polynomial coefficients"
    for a, b in ((f, opaque), (opaque, f)):
        with pytest.raises(ValueError, match=refusal):
            bracket_function(a, b, canonical)
    with pytest.raises(ValueError, match=refusal):
        combination([f, opaque], [2.0, -1.0])
    with pytest.raises(ValueError, match=r"^phase function \(unlabelled\) has no"):
        bracket_function(f, PhaseFunction(opaque.value, opaque.gradient), canonical)
    z = np.array([0.3, -0.7])
    assert poisson_bracket(opaque, f, z, canonical) == pytest.approx(np.cos(0.3) * -0.7,
                                                                     rel=1e-15)


def test_bracket_function_rejects_dimension_mismatch():
    f = quadratic_function(np.eye(4))
    with pytest.raises(ValueError, match="does not match form size 2"):
        bracket_function(f, f, CosymplecticForm.canonical(1))
