"""Symbolic cross-checks of every hand-derived number used in the suite.

Everything here is rebuilt from the Lagrangians with sympy, without
calling into the package's numerics, and then compared against the
package output at sample points. A disagreement means either the
implementation or the documented derivation is wrong, so these tests
guard all the frozen constants used elsewhere.
"""

import numpy as np
import pytest
import sympy as sp

from gaugefix import phase
from gaugefix.constraints import (
    classify_constraints,
    consistency_chain,
    constraint_set,
    dirac_bracket,
    gauge_fixed_multipliers,
    make_surface_sampler,
    second_order_coefficients,
)
from gaugefix.phase import (
    CosymplecticForm,
    HamiltonianSystem,
    linear_function,
    poisson_bracket,
    quadratic_function,
)
from gaugefix.toys import chain_demo, circle_pair, coulomb_mode_demo, second_class_demo

q1, q2, p1, p2 = sp.symbols("q1 q2 p1 p2", real=True)
v1, v2 = sp.symbols("v1 v2", real=True)


def pb(f, g, coords=((q1, p1), (q2, p2))):
    """Canonical Poisson bracket of two sympy expressions."""
    total = sp.Integer(0)
    for q, p in coords:
        total += sp.diff(f, q) * sp.diff(g, p) - sp.diff(f, p) * sp.diff(g, q)
    return sp.simplify(total)


def legendre(lagrangian):
    """Momenta, primary constraints and canonical Hamiltonian of L(q, v)."""
    mom1 = sp.diff(lagrangian, v1)
    mom2 = sp.diff(lagrangian, v2)
    h = p1 * v1 + p2 * v2 - lagrangian
    velocity_solutions = sp.solve([sp.Eq(p1, mom1), sp.Eq(p2, mom2)],
                                  [v1, v2], dict=True)
    return mom1, mom2, h, velocity_solutions


def quadratic_lagrangian(lagrangian):
    """The package's QuadraticLagrangian, with W, B and K read off by sympy."""
    v, q = (v1, v2), (q1, q2)
    w = sp.hessian(lagrangian, v)
    b = sp.Matrix(2, 2, lambda i, j: sp.diff(lagrangian, v[i], q[j]))
    k = sp.hessian(lagrangian, q)
    return phase.QuadraticLagrangian(*(np.array(m, dtype=float) for m in (w, b, k)))


def assert_coefficients_exact(fn, expr):
    """fn carries exactly the coefficients of the sympy polynomial expr in z."""
    z = (q1, q2, p1, p2)
    at_origin = dict.fromkeys(z, 0)
    c = fn.coefficients
    assert np.array_equal(c.quad, np.array(sp.hessian(expr, z), dtype=float))
    assert np.array_equal(c.lin, np.array([sp.diff(expr, x).subs(at_origin) for x in z],
                                          dtype=float))
    assert c.const == float(expr.subs(at_origin))


class TestChainDemoDerivation:
    lagrangian = sp.Rational(1, 2) * (v1 - q2) ** 2

    def test_momenta_and_primary(self):
        mom1, mom2, _, _ = legendre(self.lagrangian)
        assert mom1 == v1 - q2
        assert mom2 == 0
        hessian = sp.Matrix([[sp.diff(m, v) for v in (v1, v2)]
                             for m in (mom1, mom2)])
        assert hessian.rank() == 1

    def canonical_hamiltonian(self):
        # v1 solves from p1 = v1 - q2; v2 is undetermined and drops out
        # of H because its coefficient is exactly the primary p2.
        h = (p1 * (p1 + q2) + p2 * v2
             - self.lagrangian.subs(v1, p1 + q2))
        assert sp.simplify(sp.diff(h, v2)) == p2
        return sp.expand(h.subs(v2, 0))

    def test_hamiltonian(self):
        assert sp.simplify(self.canonical_hamiltonian() - (p1 ** 2 / 2 + q2 * p1)) == 0

    def test_package_legendre_is_exact(self):
        system, primaries = phase.legendre(quadratic_lagrangian(self.lagrangian))
        assert_coefficients_exact(system.hamiltonian, self.canonical_hamiltonian())
        _, mom2, _, _ = legendre(self.lagrangian)
        assert [f.label for f in primaries] == ["p2"]
        assert_coefficients_exact(primaries[0], p2 - mom2)

    def test_chain_terminates_after_one_secondary(self):
        h = p1 ** 2 / 2 + q2 * p1
        secondary = pb(p2, h)
        assert secondary == -p1
        assert pb(secondary, h) == 0

    def test_all_brackets_vanish(self):
        members = [p2, -p1]
        for f in members:
            for g in members:
                assert pb(f, g) == 0

    def test_package_agrees(self):
        model = chain_demo()
        sampler = make_surface_sampler(np.random.default_rng(1))
        chain = consistency_chain(model.system, model.primaries, sampler)
        assert len(chain.constraints) == 2
        secondary = chain.constraints[1]
        lam = sp.lambdify((q1, q2, p1, p2), pb(p2, p1 ** 2 / 2 + q2 * p1))
        for z in np.random.default_rng(2).normal(size=(5, 4)):
            assert secondary(z) == pytest.approx(lam(*z), abs=1e-9)
        classified = classify_constraints(chain, sampler)
        assert all(c.class_label.value == "first_class" for c in classified)


class TestSecondClassDemoDerivation:
    lagrangian = v1 * q2

    def test_momenta_and_primaries(self):
        mom1, mom2, _, _ = legendre(self.lagrangian)
        assert mom1 == q2
        assert mom2 == 0
        # Both momentum relations are velocity-free: two primaries.
        assert sp.diff(mom1, v1) == 0 and sp.diff(mom1, v2) == 0

    def test_hamiltonian_vanishes(self):
        h = p1 * v1 + p2 * v2 - self.lagrangian
        # The velocity coefficients are exactly the primaries, so the
        # canonical Hamiltonian is zero on the constraint surface.
        assert sp.simplify(sp.diff(h, v1) - (p1 - q2)) == 0
        assert sp.simplify(sp.diff(h, v2) - p2) == 0
        assert sp.simplify(h.subs([(p1, q2), (p2, 0)])) == 0

    def test_package_legendre_is_exact(self):
        # Both momentum relations are velocity-free, so p_i - mom_i are the
        # primaries, and H is what remains of p.v - L without them.
        mom1, mom2, h, _ = legendre(self.lagrangian)
        primaries_expr = [p1 - mom1, p2 - mom2]
        h_canonical = sp.expand(h - v1 * primaries_expr[0] - v2 * primaries_expr[1])
        system, primaries = phase.legendre(quadratic_lagrangian(self.lagrangian))
        assert_coefficients_exact(system.hamiltonian, h_canonical)
        assert [f.label for f in primaries] == ["p1 - q2", "p2"]
        for f, expr in zip(primaries, primaries_expr, strict=True):
            assert_coefficients_exact(f, expr)

    def test_commutation_matrix(self):
        chi = [p1 - q2, p2]
        m = sp.Matrix(2, 2, lambda i, j: pb(chi[i], chi[j]))
        assert m == sp.Matrix([[0, -1], [1, 0]])

    def dirac(self, f, g):
        chi = [p1 - q2, p2]
        m = sp.Matrix(2, 2, lambda i, j: pb(chi[i], chi[j]))
        minv = m.inv()
        correction = sum(
            pb(f, chi[a]) * minv[a, b] * pb(chi[b], g)
            for a in range(2) for b in range(2)
        )
        return sp.simplify(pb(f, g) - correction)

    def test_dirac_bracket_closed_forms(self):
        assert self.dirac(q1, p1) == 1
        assert self.dirac(q2, p2) == 0
        assert self.dirac(q1, q2) == 1
        assert self.dirac(q1, p2) == 0
        assert self.dirac(q2, p1) == 0
        assert self.dirac(p1, p2) == 0

    def test_dirac_annihilates_constraints(self):
        f = q1 ** 2 + 3 * p1 * q2
        for chi in (p1 - q2, p2):
            assert self.dirac(f, chi) == 0

    def test_package_agrees(self):
        model = second_class_demo()
        sampler = make_surface_sampler(np.random.default_rng(1))
        chain = consistency_chain(model.system, model.primaries, sampler)
        classified = classify_constraints(chain, sampler)
        form = model.system.form
        pairs = dict(model.check_functions)
        z = np.array([0.4, 0.25, 0.25, 0.0])
        for (fa, fb), expected in [
            (("q1", "p1"), 1.0),
            (("q2", "p2"), 0.0),
            (("q1", "q2"), 1.0),
        ]:
            got = dirac_bracket(pairs[fa], pairs[fb], classified, z, form)
            assert got == pytest.approx(expected, abs=1e-10)


class TestSixGenerationChainDerivation:
    """H = p1^2/2 + q1 q2 + p2 q3 with primary p3 (derivations section 4)."""

    q3, p3 = sp.symbols("q3 p3", real=True)
    coords = ((q1, p1), (q2, p2), (q3, p3))
    variables = (q1, q2, q3, p1, p2, p3)
    h = p1 ** 2 / 2 + q1 * q2 + p2 * q3

    def chain(self):
        # [C, p3] vanishes for every member but the last, -q3, so no
        # multiplier absorbs a residual: each bracket [C, H] is the next
        # member until it vanishes.
        members = [self.p3]
        while True:
            nxt = pb(members[-1], self.h, self.coords)
            if nxt == 0:
                return members
            members.append(nxt)

    def test_chain_members(self):
        assert self.chain() == [self.p3, -p2, q1, p1, -q2, -self.q3]

    def test_all_second_class(self):
        members = self.chain()
        m = sp.Matrix(6, 6, lambda i, j: pb(members[i], members[j], self.coords))
        assert m.det() != 0
        # Every member has a nonzero bracket with some other member.
        assert all(any(m[i, j] != 0 for j in range(6)) for i in range(6))

    def test_package_agrees(self):
        quad = np.zeros((6, 6))
        quad[3, 3] = 1.0
        quad[0, 1] = quad[1, 0] = 1.0
        quad[2, 4] = quad[4, 2] = 1.0
        system = HamiltonianSystem.canonical(3, quadratic_function(quad))
        primaries = constraint_set([linear_function(np.eye(6)[5], label="p3")], 6)
        sampler = make_surface_sampler(np.random.default_rng(1))
        chain = consistency_chain(system, primaries, sampler)
        members = self.chain()
        assert len(chain) == len(members)
        for z in np.random.default_rng(2).normal(size=(5, 6)):
            for c, expr in zip(chain, members):
                assert c(z) == pytest.approx(float(sp.lambdify(self.variables, expr)(*z)),
                                             abs=1e-12)
                grad = [float(sp.diff(expr, v)) for v in self.variables]
                assert np.allclose(c.grad(z), grad, rtol=0, atol=1e-14)
        classified = classify_constraints(chain, sampler)
        assert all(c.class_label.value == "second_class" for c in classified)


class TestCirclePairDerivation:
    def test_bracket_is_unity(self):
        q, p = sp.symbols("q p", real=True, positive=True)
        c1 = (q ** 2 + p ** 2) / 2 - 1
        c2 = sp.atan2(p, q)
        bracket = sp.simplify(
            sp.diff(c1, q) * sp.diff(c2, p) - sp.diff(c1, p) * sp.diff(c2, q)
        )
        assert bracket == 1

    def test_package_agrees(self):
        pair = circle_pair(theta0=0.3)
        form = CosymplecticForm.canonical(1)
        for z in [(1.0, 0.0), (0.6, 0.8), (-0.5, 0.2)]:
            got = poisson_bracket(pair.constraints[0].function,
                                  pair.constraints[1].function,
                                  np.array(z), form)
            assert got == pytest.approx(1.0, abs=1e-9)


class TestCoulombModeDerivation:
    def test_multipliers_formula(self):
        a, p, kappa = sp.symbols("a p kappa", real=True, positive=True)
        coords = ((a, p),)
        h = p ** 2 / 2
        c = [kappa * p, kappa * a]
        m = sp.Matrix(2, 2, lambda i, j: pb(c[i], c[j], coords))
        assert m == sp.Matrix([[0, -kappa ** 2], [kappa ** 2, 0]])
        b = sp.Matrix([pb(c[0], h, coords), pb(c[1], h, coords)])
        lam = -m.inv() * b
        assert sp.simplify(lam[0] - (-c[0] / kappa ** 2)) == 0
        assert lam[1] == 0

    def test_multipliers_freeze_constraints(self):
        a, p, kappa = sp.symbols("a p kappa", real=True, positive=True)
        coords = ((a, p),)
        h = p ** 2 / 2
        c = [kappa * p, kappa * a]
        lam = [-p / kappa, sp.Integer(0)]
        for ci in c:
            total = pb(ci, h, coords) + sum(
                lam[j] * pb(ci, c[j], coords) for j in range(2)
            )
            assert sp.simplify(total) == 0

    def test_package_agrees(self):
        model = coulomb_mode_demo(k_abs=1.7)
        for z in [(0.3, -0.4), (1.0, 2.0)]:
            lam = gauge_fixed_multipliers(
                model.primaries, model.system, np.array(z))
            assert lam[0] == pytest.approx(-1.7 * z[1] / 1.7 ** 2, abs=1e-10)
            assert lam[1] == pytest.approx(0.0, abs=1e-12)


class TestCorrectionStepDerivation:
    def test_linear_pair_one_step_algebra(self):
        # For linear constraints C(z + d) = C(z) + G d exactly, and the
        # correction d = -J G^T M^{-1} C uses G J G^T = M, so the update
        # lands on the surface in one step whatever the starting point.
        z = sp.Matrix(sp.symbols("z1 z2 z3 z4", real=True))
        g = sp.Matrix([[0, -1, 1, 0], [0, 0, 0, 1]])
        jmat = sp.Matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                          [-1, 0, 0, 0], [0, -1, 0, 0]])
        c = g * z
        m = g * jmat * g.T
        delta = -jmat * g.T * m.inv() * c
        assert sp.simplify(g * (z + delta) - sp.zeros(2, 1)) == sp.zeros(2, 1)

    def test_worked_example_numbers(self):
        z_bar = sp.Matrix([sp.Rational(2, 5), sp.Rational(1, 4),
                           sp.Rational(1, 4), sp.Rational(1, 10)])
        g = sp.Matrix([[0, -1, 1, 0], [0, 0, 0, 1]])
        jmat = sp.Matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                          [-1, 0, 0, 0], [0, -1, 0, 0]])
        m = g * jmat * g.T
        delta = -jmat * g.T * m.inv() * (g * z_bar)
        assert delta == sp.Matrix([sp.Rational(-1, 10), 0, 0,
                                   sp.Rational(-1, 10)])


class TestSecondOrderCorrectionDerivation:
    """C = (p, q + q^2) at z = (2/5, 3/10) (derivations section 6)."""

    q, p = sp.symbols("q p", real=True)
    coords = ((q, p),)
    at = {q: sp.Rational(2, 5), p: sp.Rational(3, 10)}

    def eps2(self):
        # The docstring formula of second_order_coefficients, term by term.
        c = [self.p, self.q + self.q ** 2]
        m = sp.Matrix(2, 2, lambda i, j: pb(c[i], c[j], self.coords).subs(self.at))
        minv = m.inv()
        eps1 = minv * sp.Matrix([ci.subs(self.at) for ci in c])
        e = -sum(eps1[i] * c[i] for i in range(2))
        ce = [pb(ci, e, self.coords) for ci in c]
        return [
            sum(minv[g, a] * pb(ce[a], e, self.coords).subs(self.at) for a in range(2))
            + sp.Rational(1, 2) * sum(
                minv[g, s] * minv[a, t]
                * pb(pb(c[s], c[t], self.coords), e, self.coords).subs(self.at)
                * ce[a].subs(self.at)
                for s in range(2) for a in range(2) for t in range(2))
            for g in range(2)
        ]

    def test_worked_example_numbers(self):
        assert self.eps2() == [sp.Rational(196, 3645), sp.Rational(-7, 243)]

    def test_package_exact_without_finite_differences(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fd_gradient called on polynomial constraints")

        monkeypatch.setattr(phase, "fd_gradient", refuse)
        cset = constraint_set([
            linear_function(np.array([0.0, 1.0]), label="p"),
            quadratic_function(np.diag([2.0, 0.0]), lin=np.array([1.0, 0.0]), label="q + q^2"),
        ], 2)
        got = second_order_coefficients(cset, np.array([0.4, 0.3]), CosymplecticForm.canonical(1))
        for g, expected in zip(got, self.eps2()):
            assert g == pytest.approx(float(expected), rel=1e-14)


class TestFieldEnergyDerivation:
    def test_standing_wave_energy_integral(self):
        x, y, z, length, amp = sp.symbols("x y z L a", positive=True)
        m1, m2 = 2, 1
        kx = 2 * sp.pi * m1 / length
        ky = 2 * sp.pi * m2 / length
        # A = a e cos(k.x) with unit e orthogonal to k; pi = 0, so the
        # energy is the magnetic term |curl A|^2 / 2 = a^2 k^2 sin^2 / 2.
        k2 = kx ** 2 + ky ** 2
        density = amp ** 2 * k2 * sp.sin(kx * x + ky * y) ** 2 / 2
        total = sp.integrate(
            sp.integrate(sp.integrate(density, (x, 0, length)),
                         (y, 0, length)),
            (z, 0, length),
        )
        expected = amp ** 2 * k2 * length ** 3 / 4
        assert sp.simplify(total - expected) == 0

    def test_longitudinal_growth_law(self):
        # Canonical flow at one Fourier mode: dA/dt = pi and the Gauss
        # violation source dpi_L/dt = 0, so A_L(t) = A_L(0) + t pi_L(0).
        t, pi_l = sp.symbols("t piL", real=True)
        a_l = sp.integrate(pi_l, (t, 0, t))
        assert sp.simplify(a_l - t * pi_l) == 0
