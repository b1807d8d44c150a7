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
from numpy.testing import assert_allclose

from gaugefix import phase
from gaugefix.constraints import (
    LinearModel,
    classify_constraints,
    consistency_chain,
    constraint_set,
    dirac_bracket,
    second_order_coefficients,
)
from gaugefix.evolution import StepperKind, _ShellMaps, _stable, _step_blocks
from gaugefix.fields import FormulationKind
from gaugefix.phase import (
    CosymplecticForm,
    HamiltonianSystem,
    linear_function,
    poisson_bracket,
    quadratic_function,
)
from gaugefix.symbols import (
    Hyperbolicity,
    _probe_direction,
    analyze_symbol,
    maxwell_canonical_symbol,
    maxwell_gauge_fixed_symbol,
)
from gaugefix.toys import chain_demo, circle_pair, second_class_demo

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
        chain = consistency_chain(model.system, model.primaries)
        assert len(chain.constraints) == 2
        secondary = chain.constraints[1]
        lam = sp.lambdify((q1, q2, p1, p2), pb(p2, p1 ** 2 / 2 + q2 * p1))
        for z in np.random.default_rng(2).normal(size=(5, 4)):
            assert secondary(z) == pytest.approx(lam(*z), abs=1e-9)
        classified = classify_constraints(chain)
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
        chain = consistency_chain(model.system, model.primaries)
        classified = classify_constraints(chain)
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
        chain = consistency_chain(system, primaries)
        members = self.chain()
        assert len(chain) == len(members)
        for z in np.random.default_rng(2).normal(size=(5, 6)):
            for c, expr in zip(chain, members):
                assert c(z) == pytest.approx(float(sp.lambdify(self.variables, expr)(*z)),
                                             abs=1e-12)
                grad = [float(sp.diff(expr, v)) for v in self.variables]
                assert np.allclose(c.grad(z), grad, rtol=0, atol=1e-14)
        classified = classify_constraints(chain)
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


class TestMaxwellModeDerivation:
    """One Maxwell Fourier mode (derivations section 5a) with symbolic k."""

    k = sp.Matrix(sp.symbols("k1:4", real=True))
    a = sp.Matrix(sp.symbols("a1:4", real=True))
    p = sp.Matrix(sp.symbols("pa1:4", real=True))
    f, pf = sp.symbols("f pf", real=True)
    coords = tuple(zip([*a, f], [*p, pf]))
    k2 = k.dot(k)

    def hamiltonian(self):
        # L = |adot - k f|^2 / 2 - |k x a|^2 / 2. Its momenta are
        # adot - k f and p_f = 0 (the primary), so adot = p + k f and the
        # undetermined fdot multiplies only the primary.
        v = sp.Matrix(sp.symbols("v1:4", real=True))
        lag = ((v - self.k * self.f).dot(v - self.k * self.f)
               - self.k.cross(self.a).dot(self.k.cross(self.a))) / 2
        assert [sp.expand(sp.diff(lag, vi)) for vi in v] == list(v - self.k * self.f)
        velocity = self.p + self.k * self.f
        return sp.expand(self.p.dot(velocity) - lag.subs(dict(zip(v, velocity))))

    def constraints(self):
        """(p_f, [p_f, H], f, k.a): the chain, then the two gauge fixings."""
        return [self.pf, -self.k.dot(self.p), self.f, self.k.dot(self.a)]

    def brackets(self):
        c = self.constraints()
        return sp.Matrix(4, 4, lambda i, j: pb(c[i], c[j], self.coords))

    def multipliers(self):
        return [sp.Integer(0), self.f + self.k.dot(self.p) / self.k2, -self.k.dot(self.p),
                sp.Integer(0)]

    def test_chain_and_classes(self):
        h = self.hamiltonian()
        cross = self.k.cross(self.a)
        assert sp.expand(h - (self.p.dot(self.p) / 2 + self.f * self.k.dot(self.p)
                              + cross.dot(cross) / 2)) == 0
        gauss = pb(self.pf, h, self.coords)
        assert gauss == -self.k.dot(self.p)
        assert pb(gauss, h, self.coords) == 0
        m = self.brackets()
        # The chain's pair commutes: first class. The fixings make M invertible.
        assert m[:2, :2] == sp.zeros(2, 2)
        assert sp.simplify(m.det() - self.k2 ** 2) == 0

    def test_multipliers_formula(self):
        h = self.hamiltonian()
        b = sp.Matrix([pb(c, h, self.coords) for c in self.constraints()])
        lam = -self.brackets().inv() * b
        assert [sp.simplify(x - y) for x, y in zip(lam, self.multipliers())] == [0] * 4

    def test_multipliers_freeze_constraints(self):
        h = self.hamiltonian()
        c, lam = self.constraints(), self.multipliers()
        for ci in c:
            total = pb(ci, h, self.coords) + sum(
                lam[j] * pb(ci, c[j], self.coords) for j in range(4))
            assert sp.simplify(total) == 0

    def dirac(self, f, g):
        c = self.constraints()
        minv = self.brackets().inv()
        correction = sum(pb(f, c[i], self.coords) * minv[i, j] * pb(c[j], g, self.coords)
                         for i in range(4) for j in range(4))
        return sp.simplify(pb(f, g, self.coords) - correction)

    def test_dirac_matrix_is_the_transverse_projector(self):
        for i in range(3):
            for j in range(3):
                expected = sp.KroneckerDelta(i, j) - self.k[i] * self.k[j] / self.k2
                assert sp.simplify(self.dirac(self.a[i], self.p[j]) - expected) == 0

    def test_package_agrees(self, coulomb_gauge):
        kv = (1.7, -0.4, 0.9)
        model, cset = coulomb_gauge(np.array(kv))
        at_k = dict(zip(self.k, kv))
        z = [*self.a, self.f, *self.p, self.pf]
        hess = np.array(sp.hessian(self.hamiltonian(), z).subs(at_k), dtype=float)
        assert np.allclose(model.system.hamiltonian.coefficients.quad, hess,
                           rtol=0, atol=1e-15)
        # lambda is linear in z: its Jacobian is K and its value at 0 is k.
        lam = sp.Matrix([x.subs(at_k) for x in self.multipliers()])
        k, k0 = LinearModel.of(model.system, cset).multipliers()
        assert np.allclose(k, np.array(lam.jacobian(z), dtype=float), rtol=0, atol=1e-12)
        assert np.allclose(k0, np.array(lam.subs(dict.fromkeys(z, 0)), dtype=float).ravel(),
                           rtol=0, atol=1e-12)
        checks = dict(model.check_functions)
        for i in range(3):
            for j in range(3):
                expected = float((sp.KroneckerDelta(i, j)
                                  - self.k[i] * self.k[j] / self.k2).subs(at_k))
                got = dirac_bracket(checks[f"q{i + 1}"], checks[f"p{j + 1}"], cset,
                                    model.sample_point, model.system.form)
                assert got == pytest.approx(expected, abs=1e-12)


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

    def test_package_exact_without_finite_differences(self):
        cset = constraint_set([
            linear_function(np.array([0.0, 1.0]), label="p"),
            quadratic_function(np.diag([2.0, 0.0]), lin=np.array([1.0, 0.0]), label="q + q^2"),
        ], 2)
        got = second_order_coefficients(cset, np.array([0.4, 0.3]), CosymplecticForm.canonical(1))
        for g, expected in zip(got, self.eps2()):
            assert g == pytest.approx(float(expected), rel=1e-14)


class TestSecondOrderProductDerivation:
    """The bracket products second_order_coefficients takes (derivations
    section 6), for general quadratics C = z.Q.z/2 + l.z + c on one degree
    of freedom, two members and E = -(e1 C_1 + e2 C_2)."""

    q, p = sp.symbols("q p", real=True)
    z = sp.Matrix([q, p])
    j = sp.Matrix([[0, 1], [-1, 0]])

    def member(self, name):
        """(C, Q, grad C) with every coefficient its own symbol."""
        a, b, c, l1, l2, c0 = sp.symbols(f"{name}_a {name}_b {name}_c {name}_l1 {name}_l2 "
                                         f"{name}_c0", real=True)
        quad = sp.Matrix([[a, b], [b, c]])
        f = (self.z.T * quad * self.z)[0] / 2 + l1 * self.q + l2 * self.p + c0
        return f, quad, quad * self.z + sp.Matrix([l1, l2])

    def bracket(self, f, g):
        return sp.diff(f, self.q) * sp.diff(g, self.p) - sp.diff(f, self.p) * sp.diff(g, self.q)

    def generator(self):
        (c1, q1_, g1), (c2, q2_, g2) = self.member("f"), self.member("g")
        e1, e2 = sp.symbols("e1 e2", real=True)
        e = -(e1 * c1 + e2 * c2)
        u = self.j * sp.Matrix([sp.diff(e, x) for x in self.z])
        return (c1, c2), (q1_, q2_), (g1, g2), e, -(e1 * q1_ + e2 * q2_), u

    def test_gradient_of_a_bracket(self):
        (f, qf, gf), (g, qg, gg) = self.member("f"), self.member("g")
        fg = self.bracket(f, g)
        grad = sp.Matrix([sp.diff(fg, x) for x in self.z])
        assert sp.expand(grad - (qf * self.j * gg - qg * self.j * gf)) == sp.zeros(2, 1)

    def test_nested_bracket_with_the_generator(self):
        # [[C_P, E], E] = (Q_P u) . u + G_P J Q_E u, and [C_P, E] = G_P u.
        cs, qs, gs, e, q_e, u = self.generator()
        for c, quad, grad in zip(cs, qs, gs):
            assert sp.expand(self.bracket(c, e) - (grad.T * u)[0]) == 0
            want = (quad * u).dot(u) + (grad.T * self.j * q_e * u)[0]
            assert sp.expand(self.bracket(self.bracket(c, e), e) - want) == 0

    def test_bracket_of_a_pair_with_the_generator(self):
        # [[C_S, C_T], E] = X_ST - X_TS, X = G J (Q u)^T.
        cs, qs, gs, e, _, u = self.generator()
        x = [[(gs[s].T * self.j * qs[t] * u)[0] for t in range(2)] for s in range(2)]
        for s in range(2):
            for t in range(2):
                got = self.bracket(self.bracket(cs[s], cs[t]), e)
                assert sp.expand(got - (x[s][t] - x[t][s])) == 0


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


class TestFieldStepMapDerivation:
    """One step of each stepper on the transverse oscillator a' = p,
    p' = -k^2 a of one shell (derivations section 7), with x = h^2 k^2."""

    h, k2, y = sp.symbols("h k2 y", positive=True)
    x = h ** 2 * k2

    def package_block(self, method):
        """_step_blocks on the symbols, its float constants read back as
        rationals (Verlet's h comes back as a 0-d object array)."""
        return sp.Matrix(2, 2, [sp.nsimplify(np.asarray(e, dtype=object).item())
                                for e in _step_blocks(method, self.h, self.k2)])

    def generator(self):
        """h L for the oscillator's L = [[0, 1], [-k^2, 0]]."""
        return self.h * sp.Matrix([[0, 1], [-self.k2, 0]])

    @staticmethod
    def rk4(w):
        """RK4's stability polynomial R(w) = 1 + w + w^2/2 + w^3/6 + w^4/24."""
        return sum((w ** n / sp.factorial(n) for n in range(1, 5)), sp.Integer(1))

    def test_rk4_block_is_the_stability_polynomial(self):
        hl = self.generator()
        assert sp.expand(hl ** 2 + self.x * sp.eye(2)) == sp.zeros(2, 2)
        expected = sp.eye(2) + sum((hl ** n / sp.factorial(n) for n in range(1, 5)),
                                   sp.zeros(2, 2))
        assert sp.expand(self.package_block(StepperKind.RK4) - expected) == sp.zeros(2, 2)

    def test_rk4_modulus_on_the_imaginary_axis(self):
        modulus2 = sp.expand(self.rk4(sp.I * self.y) * self.rk4(-sp.I * self.y))
        assert modulus2 == 1 - self.y ** 6 / 72 + self.y ** 8 / 576
        # <= 1 exactly for y^2 <= 8, so x = 8 is the last stable value.
        assert sp.factor(modulus2 - 1) == self.y ** 6 * (self.y ** 2 - 8) / 576
        # At the edge the block still has two distinct unit eigenvalues c +- i k s.
        edge = self.package_block(StepperKind.RK4).subs(self.k2, 8 / self.h ** 2)
        assert sp.simplify(edge[0, 1]) == -self.h / 3
        eigenvalues = list(edge.eigenvals())
        assert len(eigenvalues) == 2
        assert all(sp.simplify(sp.Abs(ev) - 1) == 0 for ev in eigenvalues)

    def test_verlet_block_and_its_edge(self):
        kick = sp.Matrix([[1, 0], [-self.h * self.k2 / 2, 1]])
        drift = sp.Matrix([[1, self.h], [0, 1]])
        block = self.package_block(StepperKind.STORMER_VERLET)
        assert sp.expand(block - kick * drift * kick) == sp.zeros(2, 2)
        assert sp.expand(block.det()) == 1
        assert sp.expand(block.trace()) == 2 - self.x
        # At x = 4: a double eigenvalue -1 and one eigenvector, a Jordan block
        # whose powers grow linearly, so x = 4 is already unstable.
        edge = block.subs(self.k2, 4 / self.h ** 2).applyfunc(sp.simplify)
        assert edge.eigenvals() == {-1: 2}
        assert (edge + sp.eye(2)).rank() == 1

    @pytest.mark.parametrize("method", list(StepperKind))
    @pytest.mark.parametrize("kind", list(FormulationKind))
    def test_longitudinal_powers(self, method, kind):
        """j steps on the longitudinal pair alpha' = c beta, beta' = f alpha,
        with c = 1 (canonical) or 0 (gauge-fixed: dA/dt = P_T pi) and
        f = -k^2 + k^2 = 0 (curl curl kills A_L), are [[1, j h c], [0, 1]]:
        the package's [[1, j lp], [0, 1]], A_L gaining j lp pi_L."""
        c = 1 if kind is FormulationKind.CANONICAL else 0
        f = -self.k2 + self.k2
        if method is StepperKind.RK4:
            hl = self.h * sp.Matrix([[0, c], [f, 0]])
            step = sp.eye(2) + sum((hl ** n / sp.factorial(n) for n in range(1, 5)),
                                   sp.zeros(2, 2))
        else:
            kick = sp.Matrix([[1, 0], [self.h * f / 2, 1]])
            step = kick * sp.Matrix([[1, self.h * c], [0, 1]]) * kick
        lp = sp.nsimplify(_ShellMaps(method, kind, self.h, self.k2).lp)
        assert lp == c * self.h
        for j in range(1, 8):
            assert sp.expand(step ** j) == sp.Matrix([[1, j * lp], [0, 1]])

    def test_stable_edges(self):
        assert _stable(StepperKind.RK4, 8.0) is True
        assert _stable(StepperKind.RK4, float(np.nextafter(8.0, np.inf))) is False
        assert _stable(StepperKind.STORMER_VERLET, 4.0) is False
        assert _stable(StepperKind.STORMER_VERLET, float(np.nextafter(4.0, 0.0))) is True


class TestPrincipalSymbolDerivation:
    """The Maxwell principal symbols of derivations section 8 at rational
    unit covectors n: S_c = [[0, I], [P, 0]] and S_g = [[0, P], [P, 0]],
    P = I - n n^T the transverse projector."""

    directions = [(1, 0, 0), (sp.Rational(3, 5), sp.Rational(4, 5), 0),
                  (sp.Rational(2, 7), sp.Rational(3, 7), sp.Rational(6, 7)),
                  (sp.Rational(1, 3), sp.Rational(2, 3), sp.Rational(2, 3))]

    @staticmethod
    def symbols(n):
        n = sp.Matrix(n)
        assert n.dot(n) == 1
        p, zero, eye = sp.eye(3) - n * n.T, sp.zeros(3, 3), sp.eye(3)
        return (sp.Matrix(sp.BlockMatrix([[zero, eye], [p, zero]])),
                sp.Matrix(sp.BlockMatrix([[zero, p], [p, zero]])))

    @pytest.mark.parametrize("n", directions, ids=str)
    def test_spectra_and_jordan_structure(self, n):
        canonical, fixed = self.symbols(n)
        for s in (canonical, fixed):
            assert s.eigenvals() == {-1: 2, 0: 2, 1: 2}
        # One 2x2 Jordan block, at 0, and four 1x1 blocks: a defective basis.
        _, jordan = canonical.jordan_form()
        blocks = [i for i in range(5) if jordan[i, i + 1] != 0]
        assert len(blocks) == 1 and jordan[blocks[0], blocks[0]] == 0
        assert not canonical.is_diagonalizable() and fixed.is_diagonalizable()

    @pytest.mark.parametrize("n", directions, ids=str)
    def test_package_symbols_agree(self, n):
        point = np.array([float(v) for v in n])
        for exact, sym in zip(self.symbols(n), (maxwell_canonical_symbol(),
                                                maxwell_gauge_fixed_symbol())):
            assert_allclose(sym.at(point), np.array(exact, dtype=float), rtol=0, atol=1e-15)
        # The classes: a canonical direction is real but defective, a
        # gauge-fixed one complete.
        for sym, complete in ((maxwell_canonical_symbol(), False),
                              (maxwell_gauge_fixed_symbol(), True)):
            sample = _probe_direction(sym, point, 1e8)
            assert sample.complete is complete and sample.error is None
            assert np.max(sample.imag_defect) <= 1e-10  # analyze_symbol's tol_imag
            assert_allclose(np.sort(sample.eigenvalues.real), [-1, -1, 0, 0, 1, 1], atol=1e-7)

    def test_package_classification(self):
        speeds = sorted(float(v) for v in self.symbols(self.directions[0])[0].eigenvals())
        for sym, expected in ((maxwell_canonical_symbol(), Hyperbolicity.WEAKLY_HYPERBOLIC),
                              (maxwell_gauge_fixed_symbol(), Hyperbolicity.STRONGLY_HYPERBOLIC)):
            report = analyze_symbol(sym)
            assert report.classification is expected
            assert report.kappa.tolist() == speeds
