import importlib

import pytest

import gaugefix

# The package-level names, by the submodule that defines them.
EXPORTS = {
    "constraints": """AmbiguousClassificationError ChainTerminationError CommutationMatrix
        Constraint ConstraintClass ConstraintOrigin ConstraintSet GaugeNotFixedError
        LinearModel ProjectionReport SamplerError classify_constraints commutation_matrix
        consistency_chain constraint_set dirac_bracket error_correction_step extended_flow
        gauge_fixed_multipliers least_squares_project make_surface_sampler
        project_to_constraint_surface second_order_coefficients""",
    "evolution": "CSV_HEADER DiagnosticsSeries FiniteSeries StepperKind evolve evolve_finite",
    "fields": """FieldState FormulationKind SnapshotFormatError SparseSpectrum
        SpectralWorkspace correct_initial_data diagnostics get_workspace
        plane_wave_reference plane_wave_spectrum random_smooth_fields read_snapshot
        transverse_project write_snapshot""",
    "phase": """CosymplecticForm HamiltonianSystem PhaseFunction QuadraticLagrangian
        bracket_function hamiltonian_flow legendre linear_function poisson_bracket
        quadratic_function""",
    "symbols": """Hyperbolicity PrincipalSymbol SymbolReport analyze_symbol
        maxwell_canonical_symbol maxwell_gauge_fixed_symbol""",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_package_name_is_the_submodule_object(module, name):
    submodule = importlib.import_module(f"gaugefix.{module}")
    assert getattr(gaugefix, name) is getattr(submodule, name)


def test_all_lists_the_package_names():
    assert sorted(gaugefix.__all__) == sorted(name for _, name in NAMES)


def test_unknown_name_raises_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        gaugefix.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from gaugefix import no_such_name  # noqa: F401
