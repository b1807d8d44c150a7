import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gaugefix.symbols import (
    Hyperbolicity,
    PrincipalSymbol,
    analyze_symbol,
    maxwell_canonical_symbol,
    maxwell_gauge_fixed_symbol,
    sample_directions,
    transverse_projector,
)
from oracles import adapted_blocks

unit_dirs = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).map(np.array).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
    lambda v: v / np.linalg.norm(v)
)


def test_canonical_symbol_weakly_hyperbolic():
    report = analyze_symbol(maxwell_canonical_symbol())
    assert report.classification is Hyperbolicity.WEAKLY_HYPERBOLIC
    assert_allclose(report.kappa, [-1.0, 0.0, 1.0], atol=1e-9)
    assert not all(s.complete for s in report.samples)


def test_gauge_fixed_symbol_strongly_hyperbolic():
    report = analyze_symbol(maxwell_gauge_fixed_symbol())
    assert report.classification is Hyperbolicity.STRONGLY_HYPERBOLIC
    assert_allclose(report.kappa, [-1.0, 0.0, 1.0], atol=1e-9)
    assert all(s.complete for s in report.samples)
    assert all(s.cond < 1e8 for s in report.samples)


@pytest.mark.parametrize("sym", [maxwell_canonical_symbol(), maxwell_gauge_fixed_symbol()])
def test_kappa_is_the_sorted_distinct_rounded_speeds(sym):
    report = analyze_symbol(sym, seed=7)
    speeds = np.concatenate([s.eigenvalues.real for s in report.samples])
    expected = np.unique(np.round(speeds, 6) + 0.0)
    assert report.kappa.dtype == expected.dtype
    assert report.kappa.tobytes() == expected.tobytes()


def test_kappa_is_empty_without_a_real_spectrum():
    rotation = PrincipalSymbol(2, lambda n: np.array([[0.0, 1.0], [-1.0, 0.0]]))
    report = analyze_symbol(rotation, n_samples=4)
    assert report.classification is Hyperbolicity.NOT_HYPERBOLIC
    assert report.kappa.dtype == np.float64 and report.kappa.shape == (0,)


@pytest.mark.parametrize("seed", [16, 24, 216, 218])
def test_classification_holds_on_every_direction_seed(seed):
    # These seeds sample a gauge-fixed direction where eig returns nearly
    # parallel eigenvectors for a repeated eigenvalue, although the
    # symbol has an orthonormal eigenbasis there.
    fixed = analyze_symbol(maxwell_gauge_fixed_symbol(), seed=seed)
    assert fixed.classification is Hyperbolicity.STRONGLY_HYPERBOLIC
    assert all(s.complete and s.cond < 10.0 for s in fixed.samples)
    canonical = analyze_symbol(maxwell_canonical_symbol(), seed=seed)
    assert canonical.classification is Hyperbolicity.WEAKLY_HYPERBOLIC
    assert not any(s.complete for s in canonical.samples)


@given(unit_dirs)
def test_transverse_projector_idempotent_and_annihilates_n(n):
    p = transverse_projector(n)
    assert_allclose(p @ p, p, atol=1e-12)
    assert_allclose(p @ n, np.zeros(3), atol=1e-12)
    assert_allclose(p, p.T, atol=0)


@given(unit_dirs)
def test_adapted_blocks_canonical(n):
    """Longitudinal Jordan block and unit-coupled transverse blocks."""
    m = maxwell_canonical_symbol().at(n)
    long_block, trans = adapted_blocks(m, n)
    assert_allclose(long_block, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
    for b in trans:
        assert_allclose(b, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


@given(unit_dirs)
def test_adapted_blocks_gauge_fixed(n):
    m = maxwell_gauge_fixed_symbol().at(n)
    long_block, trans = adapted_blocks(m, n)
    assert_allclose(long_block, np.zeros((2, 2)), atol=1e-12)
    for b in trans:
        assert_allclose(b, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_longitudinal_eigenvector_ranks():
    """Multiplicity-2 zero eigenvalue: rank 1 eigenbasis canonically,
    rank 2 after gauge fixing."""
    n = np.array([0.0, 0.0, 1.0])
    for factory, expected_rank in (
        (maxwell_canonical_symbol, 1),
        (maxwell_gauge_fixed_symbol, 2),
    ):
        block, _ = adapted_blocks(factory().at(n), n)
        w, v = np.linalg.eig(block)
        assert_allclose(w, [0.0, 0.0], atol=1e-12)
        assert np.linalg.matrix_rank(v, tol=1e-8) == expected_rank


def test_transverse_eigenvalues_unit():
    for factory in (maxwell_canonical_symbol, maxwell_gauge_fixed_symbol):
        for n in sample_directions(8, np.random.default_rng(3)):
            _, trans = adapted_blocks(factory().at(n), n)
            for b in trans:
                w = np.sort(np.linalg.eigvals(b).real)
                assert_allclose(w, [-1.0, 1.0], atol=1e-12)


def test_adapted_blocks_rejects_mixing_matrix():
    mixing = np.zeros((6, 6))
    mixing[0, 1] = 1.0
    with pytest.raises(ValueError, match="mixes"):
        adapted_blocks(mixing, np.array([0.0, 0.0, 1.0]))


def test_identity_symbol_strong():
    sym = PrincipalSymbol(2, lambda n: np.eye(2))
    report = analyze_symbol(sym, n_samples=8)
    assert report.classification is Hyperbolicity.STRONGLY_HYPERBOLIC
    assert_allclose(report.kappa, [1.0])


def test_rotation_symbol_not_hyperbolic():
    sym = PrincipalSymbol(2, lambda n: np.array([[0.0, 1.0], [-1.0, 0.0]]))
    report = analyze_symbol(sym, n_samples=8)
    assert report.classification is Hyperbolicity.NOT_HYPERBOLIC
    assert "complex" in report.message


def test_indeterminate_on_solver_failure(monkeypatch):
    def broken_eig(m):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eig", broken_eig)
    report = analyze_symbol(maxwell_gauge_fixed_symbol(), n_samples=2)
    assert report.classification is Hyperbolicity.INDETERMINATE
    assert "failed" in report.message
    errors = [sample["error"] for sample in report.to_json_dict()["samples"]]
    assert errors == ["eigendecomposition failed: did not converge"] * 8


def test_sample_directions_layout():
    dirs = sample_directions(10, np.random.default_rng(0))
    assert dirs.shape == (16, 3)
    assert_allclose(np.linalg.norm(dirs, axis=1), np.ones(16), atol=1e-12)
    assert_allclose(dirs[0], [1.0, 0.0, 0.0])
    assert_allclose(dirs[3], np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))


def test_symbol_at_validates():
    sym = maxwell_canonical_symbol()
    with pytest.raises(ValueError):
        sym.at(np.zeros(3))
    with pytest.raises(ValueError):
        sym.at(np.array([1.0, 2.0]))
    # Direction is normalized before the callback sees it.
    assert_allclose(sym.at([0.0, 0.0, 10.0]), sym.at([0.0, 0.0, 1.0]))


def test_bad_symbol_shape_rejected():
    sym = PrincipalSymbol(3, lambda n: np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        sym.at([1.0, 0.0, 0.0])
    sym = PrincipalSymbol(2, lambda n: np.array([[0.0, np.inf], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="^symbol callback returned non-finite entries$"):
        sym.at([1.0, 0.0, 0.0])


def test_analyze_validates_arguments():
    sym = maxwell_canonical_symbol()
    with pytest.raises(ValueError):
        analyze_symbol(sym, n_samples=-1)
    # No random directions: the six fixed ones alone.
    assert len(analyze_symbol(sym, n_samples=0).samples) == 6
    for tol_imag in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            analyze_symbol(sym, tol_imag=tol_imag)
    for cond_bound in (1.0, np.nan):
        with pytest.raises(ValueError):
            analyze_symbol(sym, cond_bound=cond_bound)


@pytest.mark.parametrize("argument", ["tol_imag", "cond_bound"])
def test_analyze_rejects_infinite_tolerances(argument):
    # An infinite tol_imag would certify the rotation symbol, whose
    # eigenvalues are +-i, as strongly hyperbolic; an infinite cond_bound
    # would pass any eigenbasis as well conditioned.
    rotation = PrincipalSymbol(2, lambda n: np.array([[0.0, 1.0], [-1.0, 0.0]]))
    for value in (np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"{argument} must be .*finite"):
            analyze_symbol(rotation, n_samples=2, **{argument: value})


def test_json_report_schema():
    report = analyze_symbol(maxwell_gauge_fixed_symbol(), n_samples=3)
    doc = report.to_json_dict()
    assert set(doc) == {"classification", "kappa", "samples"}
    assert doc["classification"] == "strongly_hyperbolic"
    assert len(doc["samples"]) == 9
    for sample in doc["samples"]:
        assert set(sample) == {"n", "eigenvalues_re", "eigenvalues_im", "cond", "complete"}
        assert len(sample["eigenvalues_re"]) == 6
    json.dumps(doc)


def test_json_report_is_strict_json():
    # The canonical symbol is defective, so eigenvector condition numbers
    # blow up; the report must still avoid the nonstandard Infinity literal.
    doc = analyze_symbol(maxwell_canonical_symbol(), n_samples=20).to_json_dict()
    json.dumps(doc, allow_nan=False)
    conds = [s["cond"] for s in doc["samples"]]
    assert any(c is None for c in conds)
    assert all(c is None or math.isfinite(c) for c in conds)


def test_seed_changes_random_directions_only():
    r1 = analyze_symbol(maxwell_gauge_fixed_symbol(), n_samples=5, seed=1)
    r2 = analyze_symbol(maxwell_gauge_fixed_symbol(), n_samples=5, seed=2)
    fixed = slice(0, 6)
    assert_allclose(
        np.array([s.n for s in r1.samples[fixed]]),
        np.array([s.n for s in r2.samples[fixed]]),
    )
    assert not np.allclose(r1.samples[8].n, r2.samples[8].n)
    assert r1.classification == r2.classification
