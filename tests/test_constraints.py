import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gaugefix.constraints import (
    _TOL_WEAK,
    AmbiguousClassificationError,
    ChainTerminationError,
    CommutationMatrix,
    Constraint,
    ConstraintClass,
    ConstraintOrigin,
    ConstraintSet,
    GaugeNotFixedError,
    LinearModel,
    ProjectionReport,
    SamplerError,
    _label_classes,
    _require_full_rank,
    _row_norms,
    _unit_brackets,
    _unsatisfiable,
    classify_constraints,
    commutation_matrix,
    consistency_chain,
    constraint_set,
    dirac_bracket,
    error_correction_step,
    least_squares_project,
    make_surface_sampler,
    project_to_constraint_surface,
    second_order_coefficients,
)
from gaugefix.phase import (
    CosymplecticForm,
    HamiltonianSystem,
    PhaseFunction,
    bracket_function,
    linear_function,
    poisson_bracket,
    quadratic_function,
)
from gaugefix.toys import (
    chain_demo,
    circle_pair,
    get_model,
    maxwell_mode,
    regular_demo,
    second_class_demo,
)
from oracles import (
    bracket_chain,
    combination_bracket,
    extended_flow,
    gauge_fixed_multipliers,
    pairwise_second_order,
    stacked_gradients,
)

FORM2 = CosymplecticForm.canonical(1)
FORM4 = CosymplecticForm.canonical(2)


def coord(dim, index, label=""):
    c = np.zeros(dim)
    c[index] = 1.0
    return linear_function(c, label=label)


@pytest.fixture
def sampler(rng):
    return make_surface_sampler(rng)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def test_sampler_points_satisfy_constraints(sampler):
    cset = circle_pair()
    points = sampler(cset)
    assert points.shape == (32, 2)
    for z in points:
        assert np.max(np.abs(cset.values(z))) < 1e-10


def test_sampler_reproducible():
    cset = second_class_demo().primaries
    p1 = make_surface_sampler(np.random.default_rng(7))(cset)
    p2 = make_surface_sampler(np.random.default_rng(7))(cset)
    assert_allclose(p1, p2, rtol=0, atol=0)


def test_sampler_free_when_no_constraints(sampler):
    points = sampler(ConstraintSet((), 4))
    assert points.shape == (32, 4)


def test_sampler_fails_on_empty_surface():
    # q^2 + p^2 + 1 has no real zeros.
    c = quadratic_function(2.0 * np.eye(2), const=1.0)
    cset = constraint_set([c], 2)
    bad = make_surface_sampler(np.random.default_rng(0), n_points=2, max_iter=10)
    with pytest.raises(SamplerError):
        bad(cset)


def test_least_squares_project_reaches_surface():
    cset = circle_pair()
    z = least_squares_project(cset, np.array([1.7, 0.9]))
    assert np.max(np.abs(cset.values(z))) < 1e-12
    # The empty set returns (a copy of) its start.
    start = np.array([1.7, 0.9])
    z = least_squares_project(ConstraintSet((), 2), start)
    assert np.array_equal(z, start) and z is not start


# ---------------------------------------------------------------------------
# Consistency chain
# ---------------------------------------------------------------------------

def test_chain_demo_generates_secondary():
    model = chain_demo()
    chain = consistency_chain(model.system, model.primaries)
    assert len(chain) == 2
    assert chain[0].label == "p2"
    assert chain[0].origin is ConstraintOrigin.PRIMARY
    assert chain[1].origin is ConstraintOrigin.CONSISTENCY
    # The secondary is [p2, H] = -p1: check value and gradient direction.
    z = np.array([0.3, -1.1, 0.8, 0.0])
    assert chain[1](z) == pytest.approx(-z[2], abs=1e-12)
    g = chain[1].grad(z)
    assert_allclose(g / np.linalg.norm(g), [0.0, 0.0, -1.0, 0.0], atol=1e-9)


def test_chain_demo_all_first_class():
    model = chain_demo()
    chain = consistency_chain(model.system, model.primaries)
    labeled = classify_constraints(chain, form=model.system.form)
    assert [c.class_label for c in labeled] == [ConstraintClass.FIRST_CLASS] * 2


def test_second_class_demo_chain_terminates_immediately():
    model = second_class_demo()
    chain = consistency_chain(model.system, model.primaries)
    assert chain.labels == ["p1 - q2", "p2"]


def test_second_class_demo_classification():
    model = second_class_demo()
    labeled = classify_constraints(model.primaries, form=model.system.form)
    assert [c.class_label for c in labeled] == [ConstraintClass.SECOND_CLASS] * 2


def test_regular_demo_chain_empty():
    model = regular_demo()
    chain = consistency_chain(model.system, model.primaries)
    assert len(chain) == 0


def _dim4_chain_system():
    """H = p1^2/2 + q1 q2 on (q1, q2, p1, p2)."""
    quad = np.zeros((4, 4))
    quad[2, 2] = 1.0
    quad[0, 1] = quad[1, 0] = 1.0
    return HamiltonianSystem.canonical(2, quadratic_function(quad))


def _left_null_system():
    """H = p1^2/2 + p2 q3 on (q1, q2, q3, p1, p2, p3)."""
    quad = np.zeros((6, 6))
    quad[3, 3] = 1.0
    quad[2, 4] = quad[4, 2] = 1.0
    return HamiltonianSystem.canonical(3, quadratic_function(quad))


def test_four_generation_chain():
    """H = p1^2/2 + q1 q2 with primary p2 walks p2 -> q1 -> p1 -> q2."""
    system = _dim4_chain_system()
    primaries = constraint_set([coord(4, 3, "p2")], 4)
    chain = consistency_chain(system, primaries)
    assert len(chain) == 4
    directions = []
    z = np.zeros(4)
    for c in chain:
        g = c.grad(z)
        directions.append(int(np.argmax(np.abs(g))))
    assert directions == [3, 0, 2, 1]
    labeled = classify_constraints(chain, form=system.form)
    assert all(c.class_label is ConstraintClass.SECOND_CLASS for c in labeled)


def test_chain_with_unabsorbable_residual_uses_left_null_space():
    """H = p1^2/2 + p2 q3 on (q1, q2, q3, p1, p2, p3), primaries p1, q1, p3.

    [p1, q1] = -1 lets a multiplier absorb the p1 and q1 rows, so the
    left null space of the primary bracket matrix is e3, and [p3, H] = -p2
    is the one new constraint (docs/derivations.md section 4).
    """
    system = _left_null_system()
    primaries = constraint_set([coord(6, 3, "p1"), coord(6, 0, "q1"), coord(6, 5, "p3")], 6)
    chain = consistency_chain(system, primaries)
    assert chain.labels == ["p1", "q1", "p3", "[p3, H]"]
    assert chain[3].origin is ConstraintOrigin.CONSISTENCY
    assert_allclose(chain[3].grad(np.arange(6.0)), -np.eye(6)[4], atol=1e-9)
    labeled = classify_constraints(chain, form=system.form)
    second, first = ConstraintClass.SECOND_CLASS, ConstraintClass.FIRST_CLASS
    assert [c.class_label for c in labeled] == [second, second, first, first]


def _dim6_chain_system():
    """H = p1^2/2 + q1 q2 + p2 q3 on (q1, q2, q3, p1, p2, p3)."""
    quad = np.zeros((6, 6))
    quad[3, 3] = 1.0
    quad[0, 1] = quad[1, 0] = 1.0
    quad[2, 4] = quad[4, 2] = 1.0
    return HamiltonianSystem.canonical(3, quadratic_function(quad, label="H"))


def test_dim6_six_generation_chain(sampler):
    """Primary p3 walks p3 -> -p2 -> q1 -> p1 -> -q2 -> -q3, all second class
    (docs/derivations.md section 4). With nested finite-difference brackets
    this chain did not finish in 900 s."""
    t0 = time.perf_counter()
    system = _dim6_chain_system()
    primaries = constraint_set([coord(6, 5, "p3")], 6)
    chain = consistency_chain(system, primaries)
    labeled = classify_constraints(chain, form=system.form)
    elapsed = time.perf_counter() - t0
    e = np.eye(6)
    expected = [e[5], -e[4], e[0], e[3], -e[1], -e[2]]
    assert len(chain) == 6
    for z in sampler(chain)[:3]:
        assert_allclose(chain.jacobian(z), expected, rtol=0, atol=1e-14)
    assert all(c.class_label is ConstraintClass.SECOND_CLASS for c in labeled)
    assert elapsed < 0.5


def test_chain_members_have_exact_gradients():
    """Every generation of a polynomial chain is a closed-form bracket."""
    system = _dim4_chain_system()
    chain = consistency_chain(system, constraint_set([coord(4, 3, "p2")], 4))
    assert len(chain) == 4
    assert all(c.function.coefficients is not None for c in chain)


# (system, primaries, gauge fixings) of each model whose scale is swept; the
# Coulomb-gauge mode comes from its fixture.
_SCALED_MODELS = {
    "dim6": lambda: (_dim6_chain_system(), constraint_set([coord(6, 5, "p3")], 6), ()),
    "chain-demo": lambda: ((m := chain_demo()).system, m.primaries, ()),
    "second-class-demo": lambda: ((m := second_class_demo()).system, m.primaries, ()),
    "left-null-space": lambda: (_left_null_system(), constraint_set(
        [coord(6, 3, "p1"), coord(6, 0, "q1"), coord(6, 5, "p3")], 6), ()),
}


def _scaled_pipeline(system, primaries, fixings, member, a, b):
    """Chain, classes and commutation matrix with H times 2^b and the
    member-th of the primaries and fixings times 2^a."""
    h = system.hamiltonian
    k = h.coefficients
    system = HamiltonianSystem(system.n_dof, quadratic_function(
        np.ldexp(k.quad, b), np.ldexp(k.lin, b), np.ldexp(k.const, b), h.label), system.form)
    members = list(primaries) + list(fixings)
    c = members[member].function.coefficients
    members[member] = replace(members[member], function=linear_function(
        np.ldexp(c.lin, a), np.ldexp(c.const, a), members[member].label))
    n = len(primaries)
    chain = consistency_chain(system, ConstraintSet(tuple(members[:n]), primaries.dim))
    chain = chain.extended(members[n:])
    classes = classify_constraints(chain, form=system.form)
    return chain, classes, commutation_matrix(chain, np.zeros(chain.dim), system.form)


def _unit_rows(cset):
    rows = _coefficient_rows(cset)
    return rows / _row_norms(rows[:, :-1])


@given(st.sampled_from(sorted(_SCALED_MODELS) + ["coulomb-gauge-mode"]), st.integers(0, 5),
       st.integers(-40, 40), st.integers(-40, 40))
# Relative to absolute floors the dim-6 chain refused H 2^-6, labelled three
# members first class at H 2^-10, found them dependent at H 2^6, kept growing
# from H 2^14, and labelled all six first class with p3 2^-20; the
# left-null-space system raised ValueError with a member at 2^+-40.
@example("dim6", 0, 0, -6)
@example("dim6", 0, 0, -10)
@example("dim6", 0, 0, 6)
@example("dim6", 0, 0, 14)
@example("dim6", 0, -20, 0)
@example("left-null-space", 2, 40, 0)
@example("left-null-space", 0, -40, 0)
def test_chain_and_classes_do_not_depend_on_units(coulomb_gauge, name, member, a, b):
    """C and 2^a C cut out the same surface, and H and 2^b H differ by the
    unit of time: the same generations, labels and classes, and member rows
    equal bit for bit once each is scaled to a unit linear part. Where all
    are second class the commutation matrix is invertible."""
    if name == "coulomb-gauge-mode":
        model, cset = coulomb_gauge(np.array([1.0, 2.0, -0.5]))
        system, primaries, fixings = model.system, model.primaries, cset[len(cset) - 2:]
    else:
        system, primaries, fixings = _SCALED_MODELS[name]()
    member %= len(primaries) + len(fixings)
    chain, classes, _ = _scaled_pipeline(system, primaries, fixings, member, 0, 0)
    chain_s, classes_s, mat_s = _scaled_pipeline(system, primaries, fixings, member, a, b)
    assert chain_s.labels == chain.labels
    assert [c.origin for c in chain_s] == [c.origin for c in chain]
    assert _unit_rows(chain_s).tobytes() == _unit_rows(chain).tobytes()
    assert [c.class_label for c in classes_s] == [c.class_label for c in classes]
    if all(c.class_label is ConstraintClass.SECOND_CLASS for c in classes_s):
        assert mat_s.is_invertible()


def test_combination_bracket_closed_form_and_refusal():
    rng = np.random.default_rng(21)
    members = [_random_quadratic(rng, 4, f"c{i}") for i in range(2)]
    h = _random_quadratic(rng, 4, "H")
    w = np.array([0.6, -0.8])
    combo = combination_bracket(constraint_set(members, 4), w, h, FORM4)
    assert combo.coefficients is not None
    for z in rng.standard_normal((4, 4)):
        expected = sum(wi * poisson_bracket(f, h, z, FORM4) for wi, f in zip(w, members))
        assert combo(z) == pytest.approx(expected, rel=1e-13, abs=1e-13)
    opaque = PhaseFunction(lambda z: float(np.sin(z[0]) * z[2]),
                           lambda z: np.array([np.cos(z[0]) * z[2], 0.0, np.sin(z[0]), 0.0]),
                           label="opaque")
    with pytest.raises(ValueError, match="^phase function opaque has no polynomial coefficients"):
        combination_bracket(constraint_set([members[0], opaque], 4), w, h, FORM4)


def test_bracket_function_refuses_an_opaque_function():
    """f = sin(q) has no coefficients, so no closed-form bracket."""
    f = PhaseFunction(lambda z: float(np.sin(z[0])),
                      lambda z: np.array([np.cos(z[0]), 0.0]), label="sin q")
    g = _random_quadratic(np.random.default_rng(6), 2, "g")
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="^phase function sin q has no polynomial"):
            bracket_function(a, b, FORM2)


def test_chain_detects_inconsistent_dynamics():
    # H = q2 with primary p2: consistency demands -1 = 0.
    system = HamiltonianSystem.canonical(2, coord(4, 1, "q2"))
    primaries = constraint_set([coord(4, 3, "p2")], 4)
    with pytest.raises(ChainTerminationError, match="cannot be satisfied"):
        consistency_chain(system, primaries)


def _ladder_system(n, q1_squared=False):
    """H = p1^2/2 + sum_i p_i q_{i+1}, plus q1^2/2 if q1_squared, on n
    degrees of freedom."""
    quad = np.zeros((2 * n, 2 * n))
    quad[n, n] = 1.0
    quad[0, 0] = float(q1_squared)
    for i in range(n - 1):
        quad[n + i, i + 1] = quad[i + 1, n + i] = 1.0
    return HamiltonianSystem.canonical(n, quadratic_function(quad, label="H"))


def _ladder_primary(n):
    return constraint_set([coord(2 * n, 2 * n - 1, f"p{n}")], 2 * n)


@pytest.mark.parametrize("n", [11, 16, 30])
def test_chain_of_n_first_class_generations_completes(n):
    # H = p1^2/2 + sum_i p_i q_{i+1}, primary p_n: [p_k, H] = -p_{k-1} down
    # to [p1, H] = 0, one new member per generation, n generations.
    system = _ladder_system(n)
    chain = consistency_chain(system, _ladder_primary(n))
    assert chain.labels == ["[" * k + f"p{n}" + ", H]" * k for k in range(n)]
    assert [c.origin for c in chain] == [ConstraintOrigin.PRIMARY] + [
        ConstraintOrigin.CONSISTENCY] * (n - 1)
    # Member k is (-1)^k p_{n-k}, exactly.
    assert np.array_equal(_coefficient_rows(chain)[:, :-1],
                          np.eye(2 * n)[2 * n - 1:n - 1:-1] * (-1.0) ** np.arange(n)[:, None])
    assert not _coefficient_rows(chain)[:, -1].any()
    labeled = classify_constraints(chain, form=system.form)
    assert [c.class_label for c in labeled] == [ConstraintClass.FIRST_CLASS] * n


@pytest.mark.parametrize("n", [1, 2, 11])
def test_chain_that_fills_the_phase_space_ends_at_its_dimension(n):
    # With q1^2/2 in H the ladder turns at p1: [p1, H] = -q1, then q2, ...,
    # q_n up to terms in the p_k, one member per generation, until R has
    # rank 2n. The last member brackets with the primary p_n, so its
    # [., H] fixes the multiplier instead of spawning a candidate: the
    # chain ends after 2n generations with 2n second-class members.
    system = _ladder_system(n, q1_squared=True)
    chain = consistency_chain(system, _ladder_primary(n))
    assert chain.labels == ["[" * k + f"p{n}" + ", H]" * k for k in range(2 * n)]
    assert [c.origin for c in chain] == [ConstraintOrigin.PRIMARY] + [
        ConstraintOrigin.CONSISTENCY] * (2 * n - 1)
    assert np.linalg.matrix_rank(_coefficient_rows(chain)[:, :-1]) == 2 * n
    assert not _coefficient_rows(chain)[:, -1].any()
    labeled = classify_constraints(chain, form=system.form)
    assert [c.class_label for c in labeled] == [ConstraintClass.SECOND_CLASS] * (2 * n)
    assert commutation_matrix(labeled, np.zeros(2 * n), system.form).is_invertible()


# ---------------------------------------------------------------------------
# Exact linear-algebra route against a sampled oracle
# ---------------------------------------------------------------------------
#
# The oracle makes every chain and class decision at on-surface sample
# points from the pointwise brackets: a condition vanishes weakly when its
# largest scaled value over the points is below tol_weak, and a candidate
# is new when its gradient leaves the span of the set's gradients at one
# point. It shares the candidate brackets and the class labelling with the
# library, not the rank tests.

def _sampled_chain(system, primaries, sampler):
    """consistency_chain with every decision made at on-surface samples.
    Each admission raises the rank of the gradients, so dim + 1
    generations bound a chain that ends."""
    h = system.hamiltonian
    form = system.form
    n_primary = len(primaries)
    cset = primaries

    for _generation in range(primaries.dim + 1):
        points = sampler(cset)
        m = len(cset)
        n_pts = points.shape[0]

        # b[k, i] = [C_i, H] at sample k; a[k, i, p] = [C_i, phi_p] there.
        # Weak vanishing is judged against 1 + |grad C_i| |grad H|.
        b = np.empty((n_pts, m))
        a = np.empty((n_pts, m, n_primary))
        scales = np.empty((n_pts, m))
        for k, z in enumerate(points):
            jac = stacked_gradients(cset, z)
            gh = h.grad(z)
            gj = jac @ form.matrix
            b[k] = gj @ gh
            a[k] = gj @ jac[:n_primary].T
            scales[k] = 1.0 + np.linalg.norm(jac, axis=1) * np.linalg.norm(gh)

        # Residual after the best pointwise multiplier fit.
        resid = np.empty_like(b)
        for k in range(n_pts):
            lam, *_ = np.linalg.lstsq(a[k], -b[k], rcond=None)
            resid[k] = b[k] + a[k] @ lam
        unabsorbed = np.max(np.abs(resid) / scales, axis=0)
        failing = np.nonzero(unabsorbed >= _TOL_WEAK)[0]
        if failing.size == 0:
            return cset

        # Directions of the consistency conditions that no multiplier choice
        # can touch. When no primary bracket is in play this is just the
        # identity, and candidates are the raw brackets [C_i, H].
        a_scale = np.max(np.abs(a)) if a.size else 0.0
        if a_scale < _TOL_WEAK:
            directions = [np.eye(m)[i] for i in failing]
        else:
            a_mean = a.mean(axis=0)
            if np.max(np.abs(a - a_mean)) > 1e-6 * (1.0 + a_scale):
                raise ChainTerminationError(
                    "primary bracket matrix varies across on-surface samples; "
                    "point-dependent multiplier structure is not supported"
                )
            directions = [u for u in _left_null(a_mean)
                          if np.max(np.abs(resid @ u)) >= _TOL_WEAK]

        new = []
        for u in directions:
            cand = combination_bracket(cset, u, h, form)
            if _gradient_is_new(cset.extended(new), cand, points):
                new.append(Constraint(cand, ConstraintOrigin.CONSISTENCY))
        if not new:
            raise _unsatisfiable([cset[i].label for i in failing])
        cset = cset.extended(new)

    raise AssertionError(f"sampled chain still growing after {primaries.dim + 1} generations")


def _left_null(a):
    """Rows spanning the left null space of a; singular values above
    max(shape) * eps * s_max count toward the rank."""
    _, s, vh = np.linalg.svd(a.T)
    rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s[0]))
    return vh[rank:]


def _gradient_is_new(cset, cand, points):
    """True if cand's gradient leaves the span of the set's gradients
    at at least one sample point: its least-squares residual exceeds
    1e-8 of its norm."""
    for z in np.atleast_2d(points):
        g = cand.grad(z)
        gn = np.linalg.norm(g)
        if gn == 0.0:
            continue
        existing = stacked_gradients(cset, z)
        if existing.shape[0] == 0:
            return True
        coeff, *_ = np.linalg.lstsq(existing.T, g, rcond=None)
        residual = np.linalg.norm(g - existing.T @ coeff)
        if residual > 1e-8 * gn:
            return True
    return False


def _sampled_classify(cset, sampler, form):
    """classify_constraints from the largest magnitudes at on-surface samples."""
    if len(cset) == 0:
        return cset
    points = sampler(cset)
    mag = np.zeros((len(cset), len(cset)))
    for z in points:
        jac = stacked_gradients(cset, z)
        _require_full_rank(jac)
        mag = np.maximum(mag, np.abs(_unit_brackets(jac, form.matrix)))
    return _label_classes(cset, mag)


def _no_sampling(cset):
    raise AssertionError("the exact route drew from the sampler")


def _route_cases():
    models = [(name, factory()) for name, factory in (
        ("chain-demo", chain_demo), ("second-class-demo", second_class_demo),
        ("regular-demo", regular_demo))]
    cases = [pytest.param(m.system, m.primaries, id=name) for name, m in models]
    return cases + [
        pytest.param(_dim4_chain_system(), constraint_set([coord(4, 3, "p2")], 4), id="dim4"),
        pytest.param(_dim6_chain_system(), constraint_set([coord(6, 5, "p3")], 6), id="dim6"),
        pytest.param(_left_null_system(),
                     constraint_set([coord(6, 3, "p1"), coord(6, 0, "q1"), coord(6, 5, "p3")], 6),
                     id="left-null-space"),
        pytest.param(HamiltonianSystem.canonical(2, coord(4, 1, "q2")),
                     constraint_set([coord(4, 3, "p2")], 4), id="inconsistent"),
        pytest.param(_ladder_system(11), _ladder_primary(11), id="eleven-generations"),
        pytest.param(_ladder_system(2, q1_squared=True), _ladder_primary(2),
                     id="fills-phase-space"),
    ]


def _run_route(chain, classify, *args):
    """(chain, classified) of one route, or the exception it raised."""
    try:
        found = chain(*args)
        return found, classify(found)
    except ChainTerminationError as exc:
        return exc


@pytest.mark.parametrize("system,primaries", _route_cases())
def test_exact_and_sampled_routes_agree(system, primaries, sampler):
    form = system.form
    exact = _run_route(consistency_chain, lambda c: classify_constraints(c, form=form),
                       system, primaries)
    sampled = _run_route(
        lambda s, p: _sampled_chain(s, p, sampler) if len(p) else p,
        lambda c: _sampled_classify(c, sampler, form), system, primaries)
    if isinstance(sampled, Exception):
        assert type(exact) is type(sampled) and str(exact) == str(sampled)
        return
    (chain_e, classes_e), (chain_s, classes_s) = exact, sampled
    assert chain_e.labels == chain_s.labels
    assert [c.origin for c in chain_e] == [c.origin for c in chain_s]
    assert [c.class_label for c in classes_e] == [c.class_label for c in classes_s]
    for ce, cs in zip(chain_e, chain_s):
        ke, ks = ce.function.coefficients, cs.function.coefficients
        assert not ke.quad.any() and not ks.quad.any()
        assert_allclose(ke.lin, ks.lin, rtol=0, atol=1e-14)
        assert ke.const == pytest.approx(ks.const, rel=0, abs=1e-14)


def test_exact_route_never_samples_and_other_sets_still_do():
    # A sampler passed in the positional slot is never drawn from.
    system = _dim6_chain_system()
    chain = consistency_chain(system, constraint_set([coord(6, 5, "p3")], 6), _no_sampling)
    classify_constraints(chain, _no_sampling, form=system.form)
    # Input without an exact route is refused, with the reason named.
    circle_system = HamiltonianSystem.canonical(1, quadratic_function(np.eye(2), label="H"))
    radial = re.escape("constraint 0 ((q^2 + p^2)/2 - 1) is not affine")
    with pytest.raises(ValueError, match=radial):
        consistency_chain(circle_system, circle_pair())
    with pytest.raises(ValueError, match=radial):
        classify_constraints(circle_pair(), form=FORM2)
    opaque_h = PhaseFunction(lambda z: float(z[2] ** 2 / 2 + np.cos(z[1])),
                             lambda z: np.array([0.0, -np.sin(z[1]), z[2], 0.0]), label="H")
    with pytest.raises(ValueError, match="Hamiltonian H has no polynomial coefficients"):
        consistency_chain(HamiltonianSystem.canonical(2, opaque_h),
                          constraint_set([coord(4, 3, "p2")], 4))


def test_exact_route_refuses_a_candidate_residual_in_the_band():
    # [p2, H] = -(p2 + 1e-8 q1): its row sits ~1e-8 off the span of p2's row,
    # in every unit of H.
    quad = np.zeros((4, 4))
    quad[2, 2] = 1.0
    quad[1, 3] = quad[3, 1] = 1.0
    quad[0, 1] = quad[1, 0] = 1e-8
    system = HamiltonianSystem.canonical(2, quadratic_function(quad))
    with pytest.raises(AmbiguousClassificationError, match=r"candidate \[p2, H\]"):
        consistency_chain(system, constraint_set([coord(4, 3, "p2")], 4), _no_sampling)
    # Without q2 p2, [p2, H] = -1e-8 q1 is q1 in the unit of H = p1^2/2 + 1e-8 q1 q2:
    # the four-generation chain, all second class.
    quad[1, 3] = quad[3, 1] = 0.0
    system = HamiltonianSystem.canonical(2, quadratic_function(quad))
    chain = consistency_chain(system, constraint_set([coord(4, 3, "p2")], 4), _no_sampling)
    assert len(chain) == 4
    labeled = classify_constraints(chain, form=system.form)
    assert [c.class_label for c in labeled] == [ConstraintClass.SECOND_CLASS] * 4


# ---------------------------------------------------------------------------
# The linear model against bracket functions and gradients at z
# ---------------------------------------------------------------------------
#
# bracket_chain (tests/oracles.py) builds each candidate as
# bracket_function(combination(...), H) and reads its row back; the
# Jacobian-at-z route stacks one gradient per member. The model takes
# both from its arrays in the same floating-point operations, so the
# rows, matrices and brackets agree bit for bit, signed zeros included.

def _coefficient_rows(cset):
    return np.array([np.append(c.function.coefficients.lin, c.function.coefficients.const)
                     for c in cset]).reshape(len(cset), cset.dim + 1)


def _model_cases():
    cases = [pytest.param(m.system, m.primaries, id=name) for name, m in (
        ("chain-demo", chain_demo()), ("second-class-demo", second_class_demo()),
        ("regular-demo", regular_demo()))]
    modes = [maxwell_mode(k) for k in ([0.0, 2.0, 0.0], [1.0, -0.5, 0.3], [0.3, 0.7, -1.2])]
    cases += [pytest.param(m.system, m.primaries, id=f"maxwell-{i}") for i, m in enumerate(modes)]
    return cases + [
        pytest.param(_dim4_chain_system(), constraint_set([coord(4, 3, "p2")], 4), id="dim4"),
        pytest.param(_dim6_chain_system(), constraint_set([coord(6, 5, "p3")], 6), id="dim6"),
        pytest.param(_left_null_system(),
                     constraint_set([coord(6, 3, "p1"), coord(6, 0, "q1"), coord(6, 5, "p3")], 6),
                     id="left-null-space"),
    ]


def _routes(system, primaries, z, pairs, fixings=()):
    """(chain, classes, commutation matrix, Dirac brackets) by the model and by
    the oracles, the classes onward of the chain extended by the fixings; a
    ChainTerminationError, ValueError or AmbiguousClassificationError in
    place of what it stopped, and None for brackets of a singular matrix."""
    form = system.form
    j = form.matrix

    def model_route():
        chain = consistency_chain(system, primaries).extended(fixings)
        classes = classify_constraints(chain, form=form)
        mat = commutation_matrix(chain, z, form)
        brackets = ([dirac_bracket(f, g, chain, z, form) for f, g in pairs]
                    if mat.is_invertible() else None)
        return chain, classes, mat.entries, brackets

    def oracle_route():
        chain = bracket_chain(system, primaries).extended(fixings)
        g = stacked_gradients(chain, z)
        classes = chain
        if len(chain):
            _require_full_rank(g)
            classes = _label_classes(chain, np.abs(_unit_brackets(g, j)))
        entries = g @ j @ g.T
        np.fill_diagonal(entries, 0.0)
        mat = CommutationMatrix(entries)
        brackets = None
        if mat.is_invertible():
            brackets = [float(f.grad(z) @ j @ f2.grad(z))
                        - float((f.grad(z) @ j @ g.T) @ mat.solve(g @ j @ f2.grad(z)))
                        for f, f2 in pairs]
        return chain, classes, entries, brackets

    found = []
    for route in (model_route, oracle_route):
        try:
            found.append(route())
        except (ChainTerminationError, AmbiguousClassificationError, ValueError) as exc:
            found.append(exc)
    return found


def _assert_routes_agree(model, oracle):
    if isinstance(oracle, Exception):
        assert type(model) is type(oracle) and str(model) == str(oracle)
        return
    (chain, classes, entries, brackets), (chain_o, classes_o, entries_o, brackets_o) = model, oracle
    assert chain.labels == chain_o.labels
    assert [c.origin for c in chain] == [c.origin for c in chain_o]
    assert _coefficient_rows(chain).tobytes() == _coefficient_rows(chain_o).tobytes()
    assert [c.class_label for c in classes] == [c.class_label for c in classes_o]
    assert entries.tobytes() == entries_o.tobytes()
    assert brackets == brackets_o


def _coordinate_pairs(dim):
    coords = [coord(dim, i) for i in range(dim)]
    return [(coords[a], coords[b]) for a in range(dim) for b in range(a + 1, dim)]


@pytest.mark.parametrize("system,primaries", _model_cases())
def test_model_route_equals_bracket_functions_and_gradients(system, primaries):
    dim = primaries.dim
    z = np.linspace(-0.7, 0.9, dim)
    model, oracle = _routes(system, primaries, z, _coordinate_pairs(dim))
    assert not isinstance(oracle, Exception)
    _assert_routes_agree(model, oracle)


def test_a_rounding_residue_leaves_the_first_class_chain_without_a_dirac_bracket():
    """Gauss's row in the chain of maxwell_mode((1, -0.5, 0.3)) may carry a
    rounding residue of ~2.2e-16 on f, and so may [p4, [p4, H]]. Read at
    unit rows that bracket is weakly zero, as the classes say, so the
    matrix is singular and there is no Dirac bracket, however small its
    largest entry: by the model and by the oracle, which compare None.
    Cut relative to that entry, the matrix was invertible and [q1, q4]_D
    came out as 4.5e15."""
    model = maxwell_mode([1.0, -0.5, 0.3])
    form, z = model.system.form, model.sample_point
    chain = consistency_chain(model.system, model.primaries)
    mat = commutation_matrix(chain, z, form)
    assert np.abs(mat.entries).max() < 1e-15
    labeled = classify_constraints(chain, form=form)
    assert [c.class_label for c in labeled] == [ConstraintClass.FIRST_CLASS] * 2
    assert not mat.is_invertible()
    with pytest.raises(GaugeNotFixedError, match="gauge not fully fixed"):
        dirac_bracket(coord(8, 0), coord(8, 3), chain, z, form)
    found, oracle = _routes(model.system, model.primaries, z, _coordinate_pairs(8))
    assert found[3] is None and oracle[3] is None


@pytest.mark.parametrize("u", [[1.0 - 1e-13, 1e-13, 0.0], [-1.0 + 1e-13, 0.0, -3e-13],
                               [0.6, 1e-13, -0.8]])
def test_model_candidate_drops_and_snaps_weights_as_the_bracket_function(u):
    """Weights within 1e-12 of 0 drop out and a lone one within 1e-12 of +-1
    becomes exactly that, in the row as in the label."""
    rng = np.random.default_rng(8)
    system = HamiltonianSystem.canonical(3, _random_quadratic(rng, 6, "H"))
    cset = constraint_set([linear_function(rng.standard_normal(6), rng.standard_normal(),
                                           label=f"c{i}") for i in range(3)], 6)
    row, label = LinearModel.of(system, cset).bracket_with_h(np.array(u))
    oracle = combination_bracket(cset, np.array(u), system.hamiltonian, system.form)
    assert label == oracle.label
    assert row.tobytes() == _coefficient_rows(constraint_set([oracle], 6))[0].tobytes()


@pytest.mark.parametrize("k", [[0.0, 2.0, 0.0], [1.0, -0.5, 0.3], [0.3, 0.7, -1.2]])
def test_model_route_equals_gradients_on_the_coulomb_gauge_mode(coulomb_gauge, k):
    """The Maxwell mode's chain with the fixings f and k.a: all four second
    class, so the Dirac brackets are compared too."""
    model, cset = coulomb_gauge(np.array(k))
    fixings = cset.constraints[len(cset) - 2:]
    found, oracle = _routes(model.system, model.primaries, model.sample_point,
                            _coordinate_pairs(8), fixings)
    _assert_routes_agree(found, oracle)
    assert [c.class_label for c in found[1]] == [ConstraintClass.SECOND_CLASS] * 4
    assert found[3] is not None


@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_model_route_equals_bracket_functions_on_random_affine_sets(n_dof, seed, integer):
    """Random W, w, R, r on 4 to 8 dimensions: small integers, whose
    products are exact, or Gaussian entries."""
    rng = np.random.default_rng(seed)
    dim = 2 * n_dof

    def draw(*shape):
        return rng.integers(-2, 3, shape).astype(float) if integer else rng.standard_normal(shape)

    quad = draw(dim, dim)
    system = HamiltonianSystem.canonical(n_dof, quadratic_function(quad + quad.T, draw(dim)))
    rows = draw(int(rng.integers(1, dim)), dim + 1)
    primaries = constraint_set([linear_function(row[:-1], row[-1], label=f"c{i}")
                                for i, row in enumerate(rows)], dim)
    f, g = (linear_function(draw(dim)) for _ in range(2))
    _assert_routes_agree(*_routes(system, primaries, draw(dim), [(f, g)]))


# ---------------------------------------------------------------------------
# Commutation matrix, classification edge cases
# ---------------------------------------------------------------------------

def test_commutation_matrix_frozen_value():
    model = second_class_demo()
    mat = commutation_matrix(model.primaries, model.sample_point, FORM4)
    assert_allclose(mat.entries, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
    assert mat.is_invertible()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries, message", [
    ([[0.0, 1.0], [1.0, 0.0]], "commutation matrix is not antisymmetric to 1e-12"),
    ([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]], "commutation matrix must be square"),
    # Accepted before, and is_invertible then raised LinAlgError.
    ([[0.0, np.nan], [np.nan, 0.0]], "commutation matrix entries must be finite"),
], ids=["symmetric", "not-square", "nan"])
def test_commutation_matrix_rejects_bad_entries(entries, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CommutationMatrix(np.array(entries))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e-300, 1e-162, 1e-160, 1e-155, 1.0, 1e160, 1e300, 1.7e308])
def test_classes_of_rows_past_the_square_range_read_their_unit_rows(s):
    # q1 s, p1 s are a conjugate pair at any s; past 1e154 their bare
    # bracket s^2 overflows, and only the bare matrix refuses it. Below
    # about 1e-154 it is subnormal or zero, and only the bare solve refuses it.
    q1, p1 = (linear_function(s * np.eye(4)[i], label=label)
              for i, label in ((0, "q1 s"), (2, "p1 s")))
    labeled = classify_constraints(constraint_set([q1, p1], 4), form=FORM4)
    assert [c.class_label for c in labeled] == [ConstraintClass.SECOND_CLASS] * 2
    z, q2, p2 = np.zeros(4), coord(4, 1), coord(4, 3)
    if s * s < np.finfo(float).tiny:
        assert commutation_matrix(labeled, z, FORM4).is_invertible()
        with pytest.raises(ValueError, match="^commutation matrix solve is not finite in float64$"):
            dirac_bracket(q2, p2, labeled, z, FORM4)
        return
    if s * s <= np.finfo(float).max:
        assert commutation_matrix(labeled, z, FORM4).is_invertible()
        assert dirac_bracket(q2, p2, labeled, z, FORM4) == 1.0
        return
    with pytest.raises(ValueError, match="^commutation matrix entries must be finite$"):
        commutation_matrix(labeled, z, FORM4)
    with pytest.raises(ValueError, match="^commutation matrix entries must be finite$"):
        dirac_bracket(q2, p2, labeled, z, FORM4)


def test_singular_commutation_refuses_solve():
    mat = CommutationMatrix(np.zeros((2, 2)))
    assert not mat.is_invertible()
    with pytest.raises(GaugeNotFixedError, match="gauge not fully fixed"):
        mat.solve(np.ones(2))


def test_classification_ambiguity_band():
    # [p1, q2 + 1e-8 q1] = -1e-8 between unit-scale rows sits exactly at
    # tol_weak: refuse to classify.
    c2 = linear_function(np.array([1e-8, 1.0, 0.0, 0.0]), label="q2 + 1e-8 q1")
    cset = constraint_set([coord(4, 2, "p1"), c2], 4)
    with pytest.raises(AmbiguousClassificationError):
        classify_constraints(cset, form=FORM4)
    # p and 1e-8 q are a conjugate pair whatever the unit of q: second class.
    cset = constraint_set([coord(2, 1, "p"), linear_function(np.array([1e-8, 0.0]),
                                                             label="eps q")], 2)
    labeled = classify_constraints(cset, form=FORM2)
    assert [c.class_label for c in labeled] == [ConstraintClass.SECOND_CLASS] * 2


def test_classification_rejects_duplicate_constraints(sampler):
    c = coord(4, 3, "p2")
    cset = constraint_set([c, c], 4)
    with pytest.raises(ValueError, match="irreducible"):
        classify_constraints(cset, form=FORM4)
    with pytest.raises(ValueError, match="irreducible"):
        _sampled_classify(cset, sampler, FORM4)


def test_more_constraints_than_phase_dimensions_are_not_irreducible(sampler):
    # The (3, 2) Jacobian has two singular values, both well away from zero,
    # yet q + p depends on q and p.
    q, p = coord(2, 0, "q"), coord(2, 1, "p")
    cset = constraint_set([q, p, linear_function(np.array([1.0, 1.0]), label="q + p")], 2)
    with pytest.raises(ValueError, match="not irreducible"):
        classify_constraints(cset, form=FORM2)
    with pytest.raises(ValueError, match="not irreducible"):
        _sampled_classify(cset, sampler, FORM2)


# ---------------------------------------------------------------------------
# Dirac bracket
# ---------------------------------------------------------------------------

def test_dirac_bracket_frozen_values():
    model = second_class_demo()
    z = model.sample_point
    q1, q2 = coord(4, 0), coord(4, 1)
    p1, p2 = coord(4, 2), coord(4, 3)
    cset = model.primaries
    assert dirac_bracket(q2, p2, cset, z, FORM4) == pytest.approx(0.0, abs=1e-10)
    assert dirac_bracket(q1, p1, cset, z, FORM4) == pytest.approx(1.0, abs=1e-10)
    # On the surface q2 is identified with p1, so it turns conjugate to q1.
    assert dirac_bracket(q1, q2, cset, z, FORM4) == pytest.approx(1.0, abs=1e-10)


def test_dirac_bracket_annihilates_constraints(sampler):
    """[C_A, f]_D = 0 for every constraint and generic f."""
    model = second_class_demo()
    f = quadratic_function(np.diag([1.0, 2.0, 3.0, 4.0]), lin=np.ones(4))
    for z in sampler(model.primaries)[:5]:
        for c in model.primaries:
            val = dirac_bracket(c.function, f, model.primaries, z, FORM4)
            assert abs(val) < 1e-9


def test_dirac_bracket_requires_invertible_matrix():
    model = chain_demo()
    cset = model.primaries
    f, g = coord(4, 0), coord(4, 2)
    with pytest.raises(GaugeNotFixedError):
        dirac_bracket(f, g, cset, model.sample_point, FORM4)


def test_dirac_bracket_circle_reduces_cleanly():
    # On the circle pair, [q, p]_D must vanish: both directions are fixed.
    cset = circle_pair()
    z = np.array([np.sqrt(2.0) * np.cos(0.25), np.sqrt(2.0) * np.sin(0.25)])
    q, p = coord(2, 0), coord(2, 1)
    assert dirac_bracket(q, p, cset, z, FORM2) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Gauge-fixed multipliers
# ---------------------------------------------------------------------------

def _multipliers_at(system, cset, z):
    k, k0 = LinearModel.of(system, cset).multipliers()
    return k @ z + k0


def test_maxwell_mode_multipliers(coulomb_gauge):
    # Constraints (p4, -k.p, f, k.a) of the mode at k = (0, 2, 0).
    model, cset = coulomb_gauge(np.array([0.0, 2.0, 0.0]))
    z = np.array([0.3, -0.6, 0.2, 0.5, -0.4, 0.7, 0.1, 0.0])
    lam = _multipliers_at(model.system, cset, z)
    gauss = cset[1](z)
    assert_allclose(lam, [0.0, z[3] - gauss / 4.0, gauss, 0.0], atol=1e-13)


@given(st.tuples(*[st.floats(-2.0, 2.0)] * 3).filter(lambda k: np.dot(k, k) > 0.25),
       st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8))
def test_multipliers_freeze_constraints(coulomb_gauge, k, z):
    """d/dt C_A = grad(C_A) . (A z + b) vanishes for every state, on the
    flow of LinearModel.flow and on the pointwise extended_flow."""
    model, cset = coulomb_gauge(np.array(k))
    z = np.array(z)
    a, b = LinearModel.of(model.system, cset).flow()
    for flow in (a @ z + b, extended_flow(model.system, cset, z)):
        for c in cset:
            assert abs(c.grad(z) @ flow) < 1e-10 * (1.0 + np.abs(z).max())


def test_multipliers_second_class_demo_vanish():
    # H = 0, so nothing sources the multipliers.
    model = second_class_demo()
    k, k0 = LinearModel.of(model.system, model.primaries).multipliers()
    assert_allclose(k, np.zeros((2, 4)), atol=1e-14)
    assert_allclose(k0, [0.0, 0.0], atol=1e-14)


def _multiplier_cases():
    demo = second_class_demo()
    yield pytest.param(demo.system, demo.primaries, id="second_class_demo")
    for k in ([0.0, 2.0, 0.0], [1.0, -0.5, 0.3], [0.3, 0.7, -1.2]):
        yield pytest.param(k, None, id=f"maxwell_mode{tuple(k)}")


@pytest.mark.parametrize("system,cset", _multiplier_cases())
def test_linear_multipliers_match_the_pointwise_oracle(coulomb_gauge, system, cset):
    """K z + k against the multipliers solved at z from the Jacobian there."""
    if cset is None:
        model, cset = coulomb_gauge(np.array(system))
        system = model.system
    for z in np.random.default_rng(8).normal(size=(20, cset.dim)):
        expected = gauge_fixed_multipliers(cset, system, z)
        assert_allclose(_multipliers_at(system, cset, z), expected, rtol=1e-13,
                        atol=1e-13 * np.abs(expected).max())


# ---------------------------------------------------------------------------
# Error correction and projection
# ---------------------------------------------------------------------------

def test_correction_step_linear_worked_example():
    model = second_class_demo()
    z_bar = np.array([0.4, 0.25, 0.25, 0.1])
    delta, report = error_correction_step(model.primaries, z_bar, FORM4)
    assert_allclose(delta, [-0.1, 0.0, 0.0, -0.1], atol=1e-14)
    assert report.iterations == 1
    assert report.converged
    assert report.final_norm <= 1e-12


@given(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
)
def test_correction_exact_for_linear_constraints(a, b, c, d):
    model = second_class_demo()
    z_bar = np.array([a, b, c, d])
    delta, report = error_correction_step(model.primaries, z_bar, FORM4)
    assert np.max(np.abs(model.primaries.values(z_bar + delta))) < 1e-12


def test_correction_uses_frozen_coefficients():
    """The step is z_bar-generated: applying it from another point differs
    from recomputing, which is what makes iteration meaningful."""
    cset = circle_pair()
    z_bar = np.array([1.3, 0.5])
    delta1, _ = error_correction_step(cset, z_bar, FORM2)
    delta2, _ = error_correction_step(cset, z_bar + delta1, FORM2)
    assert np.linalg.norm(delta2) < np.linalg.norm(delta1)
    assert np.linalg.norm(delta2) > 0


def test_projection_quadratic_contraction_circle():
    cset = circle_pair()
    target = np.sqrt(2.0) * np.array([np.cos(0.25), np.sin(0.25)])
    z = target + np.array([0.09, -0.07])
    residuals = [float(np.max(np.abs(cset.values(z))))]
    for _ in range(4):
        delta, _ = error_correction_step(cset, z, FORM2)
        z = z + delta
        residuals.append(float(np.max(np.abs(cset.values(z)))))
    # Fit log r_{k+1} against log r_k over the pairs above the rounding
    # floor; quadratic contraction shows as slope ~ 2.
    logs = np.log([r for r in residuals if r > 1e-12])
    slope = np.polyfit(logs[:-1], logs[1:], 1)[0]
    assert slope == pytest.approx(2.0, abs=0.25)
    assert residuals[3] < 1e-9


def test_projection_converges_within_budget():
    cset = circle_pair()
    target = np.sqrt(2.0) * np.array([np.cos(0.25), np.sin(0.25)])
    z_bar = target + np.array([0.1, 0.1])
    z, report = project_to_constraint_surface(cset, z_bar, tol=1e-12)
    assert report.converged
    assert report.iterations <= 6
    assert report.final_norm == np.max(np.abs(cset.values(z))) < 1e-12
    assert report.final_norm <= report.initial_norm


def test_projection_evaluates_the_constraints_once_per_iterate(monkeypatch):
    # The circle projection of the dirac_chain benchmark: 4 iterations,
    # so C is evaluated at the start and after each step, 5 times in all.
    cset, z_bar = circle_pair(), np.array([1.3, 0.4])
    calls = []
    values = ConstraintSet.values
    monkeypatch.setattr(ConstraintSet, "values", lambda self, z: calls.append(1) or values(self, z))
    z, report = project_to_constraint_surface(cset, z_bar, tol=1e-12, form=FORM2)
    assert report.iterations == 4
    assert len(calls) == 5
    monkeypatch.undo()
    # A hand loop of error_correction_step gives the same point and report bits.
    z_hand = z_bar.copy()
    initial = float(np.max(np.abs(cset.values(z_hand))))
    for _ in range(report.iterations):
        delta, step = error_correction_step(cset, z_hand, FORM2)
        z_hand = z_hand + delta
    assert np.array_equal(z, z_hand)
    assert report == ProjectionReport(4, initial, step.final_norm, True)


def test_projection_identity_on_surface():
    cset = circle_pair()
    target = np.sqrt(2.0) * np.array([np.cos(0.25), np.sin(0.25)])
    z, report = project_to_constraint_surface(cset, target, tol=1e-10)
    assert report.iterations == 0
    assert_allclose(z, target, atol=0)


def test_projection_reports_nonconvergence():
    # Far out, each step about halves the radius: 20 steps end near 1e2.
    cset = circle_pair()
    z_bar = np.array([3e6, -2e6])
    z, report = project_to_constraint_surface(cset, z_bar, tol=1e-15)
    assert not report.converged
    assert report.iterations == 20
    assert report.final_norm == np.max(np.abs(cset.values(z)))


def test_projection_rejects_bad_tol():
    with pytest.raises(ValueError):
        project_to_constraint_surface(circle_pair(), np.ones(2), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")], ids=["tol-nan", "tol-inf"])
def test_projection_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        project_to_constraint_surface(circle_pair(), np.ones(2), tol=tol)


def test_bracket_and_least_squares_routes_agree_on_surface():
    """Two independent projections must both land on the surface, even
    though they pick different representatives."""
    cset = circle_pair()
    z_bar = np.array([1.35, 0.55])
    z_bracket, rep = project_to_constraint_surface(cset, z_bar, tol=1e-12)
    z_ls = least_squares_project(cset, z_bar, tol=1e-12)
    assert rep.converged
    assert np.max(np.abs(cset.values(z_bracket))) < 1e-12
    assert np.max(np.abs(cset.values(z_ls))) < 1e-12


# ---------------------------------------------------------------------------
# Second-order diagnostic
# ---------------------------------------------------------------------------

def test_second_order_vanishes_for_linear_constraints():
    model = second_class_demo()
    eps2 = second_order_coefficients(model.primaries, np.array([0.4, 0.25, 0.25, 0.1]), FORM4)
    assert_allclose(eps2, np.zeros(2), atol=1e-9)


def test_second_order_vanishes_for_constant_brackets():
    # Nonlinear constraints q + p^2 and p, constant mutual bracket 1: exactly zero.
    cset = constraint_set([quadratic_function(np.diag([0.0, 2.0]), lin=[1.0, 0.0],
                                              label="q + p^2"), coord(2, 1, "p")], 2)
    assert commutation_matrix(cset, np.array([1.4, 0.3]), FORM2).entries.tolist() == [
        [0.0, 1.0], [-1.0, 0.0]]
    eps2 = second_order_coefficients(cset, np.array([1.4, 0.3]), FORM2)
    assert eps2.tolist() == [0.0, 0.0]


def test_second_order_refuses_a_constraint_without_coefficients():
    with pytest.raises(ValueError, match=re.escape("phase function atan2(p, q) - theta0 has no")):
        second_order_coefficients(circle_pair(), np.array([1.4, 0.3]), FORM2)


def test_second_order_finite_for_field_dependent_brackets():
    c1 = coord(2, 1, "p")
    grad_q = np.zeros(2)
    grad_q[0] = 1.0
    c2 = quadratic_function(np.diag([2.0, 0.0]), lin=grad_q, label="q + q^2")
    cset = constraint_set([c1, c2], 2)
    eps2 = second_order_coefficients(cset, np.array([0.4, 0.3]), FORM2)
    assert np.all(np.isfinite(eps2))


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_second_order_products_equal_pairwise_brackets(n_dof, seed):
    """Random quadratic sets on 2 to 6 dimensions with an even number of
    members and cond(M) <= 1e4: the stacked products against each bracket
    built as a phase function."""
    rng = np.random.default_rng(seed)
    dim = 2 * n_dof
    form = CosymplecticForm.canonical(n_dof)
    for _ in range(20):
        members = []
        for i in range(2 * int(rng.integers(1, n_dof + 1))):
            quad = rng.standard_normal((dim, dim))
            members.append(quadratic_function(quad + quad.T, rng.standard_normal(dim),
                                              float(rng.standard_normal()), label=f"c{i}"))
        cset, z = constraint_set(members, dim), rng.standard_normal(dim)
        if np.linalg.cond(commutation_matrix(cset, z, form).entries) <= 1e4:
            break
    else:
        assume(False)
    got, want = second_order_coefficients(cset, z, form), pairwise_second_order(cset, z, form)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Form and point sizes, and the empty set
# ---------------------------------------------------------------------------

_ENTRY_POINTS = {
    "commutation_matrix": lambda cset, z, form: commutation_matrix(cset, z, form),
    "classify_constraints": lambda cset, z, form: classify_constraints(cset, form=form),
    "dirac_bracket": lambda cset, z, form: dirac_bracket(coord(4, 0), coord(4, 2), cset, z,
                                                         form),
    "error_correction_step": lambda cset, z, form: error_correction_step(cset, z, form),
    "project_to_constraint_surface":
        lambda cset, z, form: project_to_constraint_surface(cset, z, form=form),
    "second_order_coefficients":
        lambda cset, z, form: second_order_coefficients(cset, z, form),
}
_SIZE_CASES = [
    pytest.param(name, form, z, message, id=f"{name}-{case}")
    for name in _ENTRY_POINTS
    for case, form, z, message in (
        ("form", FORM2, [0.4, 0.25, 0.25, 0.1], "form size 2"),
        ("point2", FORM4, [0.4, 0.25], "point size 2"),
        ("point6", FORM4, [0.4, 0.25, 0.25, 0.1, 0.0, 0.0], "point size 6"),
    )
    # The classes take no point.
    if case == "form" or name != "classify_constraints"
]


@pytest.mark.parametrize("name,form,z,message", _SIZE_CASES)
def test_a_form_or_point_of_another_size_is_refused(name, form, z, message):
    with pytest.raises(ValueError, match=f"^{message} does not match phase dimension 4$"):
        _ENTRY_POINTS[name](second_class_demo().primaries, np.array(z), form)


def test_dirac_bracket_refuses_a_gradient_of_another_size():
    z = np.array([0.4, 0.25, 0.25, 0.1])
    # A quadratic of size 2 would fail inside its own gradient at a point of size 4.
    quad = quadratic_function(np.eye(2), label="q")
    for f, g in ((coord(2, 0, "q"), coord(4, 2)), (coord(4, 0), coord(2, 0, "q")),
                 (quad, coord(4, 2)), (coord(4, 0), quad)):
        with pytest.raises(ValueError, match="^q gradient size 2 does not match phase "
                                             "dimension 4$"):
            dirac_bracket(f, g, second_class_demo().primaries, z, FORM4)


def test_an_empty_set_needs_no_correction():
    """No constraints: an invertible 0 x 0 matrix, a zero step that has
    converged, no second-order term, and the Poisson bracket."""
    cset = ConstraintSet((), 4)
    z = np.array([0.3, -0.2, 0.5, 0.1])
    assert CommutationMatrix(np.zeros((0, 0))).is_invertible()
    delta, report = error_correction_step(cset, z, FORM4)
    assert delta.tolist() == [0.0] * 4
    assert report == ProjectionReport(1, 0.0, 0.0, True)
    assert second_order_coefficients(cset, z, FORM4).shape == (0,)
    z_proj, report = project_to_constraint_surface(cset, z)
    assert z_proj.tolist() == z.tolist()
    assert report == ProjectionReport(0, 0.0, 0.0, True)
    f, g = coord(4, 0), coord(4, 2)
    assert dirac_bracket(f, g, cset, z, FORM4) == poisson_bracket(f, g, z, FORM4) == 1.0


# ---------------------------------------------------------------------------
# Misc plumbing
# ---------------------------------------------------------------------------

def test_bracket_function_value_and_label():
    f = coord(4, 3, "p2")
    h = quadratic_function(np.diag([0.0, 0.0, 1.0, 0.0]), label="H")
    bf = bracket_function(f, h, FORM4)
    assert bf.label == "[p2, H]"
    assert bf(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(0.0, abs=1e-12)


def test_constraint_set_relabeling_is_pure():
    model = second_class_demo()
    labeled = model.primaries.with_labels(
        [ConstraintClass.SECOND_CLASS, ConstraintClass.SECOND_CLASS])
    assert all(c.class_label is ConstraintClass.UNKNOWN for c in model.primaries)
    assert all(c.class_label is ConstraintClass.SECOND_CLASS for c in labeled)
    with pytest.raises(ValueError, match="^one class label per constraint required$"):
        model.primaries.with_labels([ConstraintClass.SECOND_CLASS])


@pytest.mark.parametrize("dim", [3, 0, -2])
def test_constraint_set_refuses_an_odd_or_small_dimension(dim):
    with pytest.raises(ValueError, match=f"^ambient phase dimension must be even and "
                                         f"positive, got {dim}$"):
        ConstraintSet((), dim)


def test_unknown_model_names_the_available_ones():
    with pytest.raises(KeyError) as error:
        get_model("chain demo")
    assert error.value.args == ("unknown model 'chain demo' (available: chain-demo, "
                                "regular-demo, second-class-demo)",)


def test_constraint_set_jacobian_shape():
    model = second_class_demo()
    jac = model.primaries.jacobian(model.sample_point)
    assert jac.shape == (2, 4)
    assert_allclose(jac[0], [0.0, -1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# Jacobian-product brackets against the pairwise Poisson-bracket oracle
# ---------------------------------------------------------------------------

def _random_quadratic(rng, dim, label):
    a = rng.standard_normal((dim, dim))
    return quadratic_function(a + a.T, lin=rng.standard_normal(dim), label=label)


def _oracle_cases():
    rng = np.random.default_rng(11)
    quadratic = constraint_set([_random_quadratic(rng, 4, f"c{i}") for i in range(4)], 4)
    fg4 = (_random_quadratic(rng, 4, "f"), _random_quadratic(rng, 4, "g"))
    fg2 = (_random_quadratic(rng, 2, "f"), _random_quadratic(rng, 2, "g"))
    return [
        pytest.param(circle_pair(), FORM2, np.array([1.3, 0.5]), fg2, id="circle_pair"),
        pytest.param(quadratic, FORM4, rng.standard_normal(4), fg4, id="quadratic"),
    ]


def _oracle_matrix(cset, z, form):
    return np.array([[poisson_bracket(a.function, b.function, z, form) if i != k else 0.0
                      for k, b in enumerate(cset)] for i, a in enumerate(cset)])


@pytest.mark.parametrize("cset,form,z,fg", _oracle_cases())
def test_jacobian_brackets_match_pairwise_oracle(cset, form, z, fg):
    f, g = fg
    oracle = _oracle_matrix(cset, z, form)
    scale = np.abs(oracle).max()
    assert_allclose(commutation_matrix(cset, z, form).entries, oracle,
                    rtol=1e-13, atol=1e-13 * scale)

    bf = np.array([poisson_bracket(f, c.function, z, form) for c in cset])
    bg = np.array([poisson_bracket(c.function, g, z, form) for c in cset])
    correction = bf @ np.linalg.solve(oracle, bg)
    expected = poisson_bracket(f, g, z, form) - correction
    assert dirac_bracket(f, g, cset, z, form) == pytest.approx(
        expected, rel=1e-13, abs=1e-13 * (1.0 + abs(correction)))

    h = _random_quadratic(np.random.default_rng(5), cset.dim, "H")
    system = HamiltonianSystem(cset.dim // 2, h, form)
    lam = -np.linalg.solve(oracle, [poisson_bracket(c.function, h, z, form) for c in cset])
    assert_allclose(gauge_fixed_multipliers(cset, system, z), lam,
                    rtol=1e-13, atol=1e-13 * np.abs(lam).max())


def _counting(fn, calls):
    def gradient(z):
        calls[fn.label] = calls.get(fn.label, 0) + 1
        return fn.grad(z)

    return PhaseFunction(fn.value, gradient, label=fn.label)


@pytest.mark.parametrize("op", ["commutation_matrix", "dirac_bracket"])
def test_each_constraint_gradient_evaluated_once(op):
    rng = np.random.default_rng(3)
    calls = {}
    cset = constraint_set(
        [_counting(_random_quadratic(rng, 4, f"c{i}"), calls) for i in range(4)], 4)
    z = rng.standard_normal(4)
    if op == "commutation_matrix":
        commutation_matrix(cset, z, FORM4)
    else:
        dirac_bracket(coord(4, 0), coord(4, 2), cset, z, FORM4)
    assert calls == {f"c{i}": 1 for i in range(4)}
