import importlib
import inspect

import pytest

import gaugefix

# The package-level names, by the submodule that defines them.
EXPORTS = {
    "constraints": """AmbiguousClassificationError ChainTerminationError CommutationMatrix
        Constraint ConstraintClass ConstraintOrigin ConstraintSet GaugeNotFixedError
        LinearModel ProjectionReport SamplerError classify_constraints commutation_matrix
        consistency_chain constraint_set dirac_bracket error_correction_step
        least_squares_project make_surface_sampler project_to_constraint_surface
        second_order_coefficients""",
    "evolution": "CSV_HEADER DiagnosticsSeries FiniteSeries StepperKind evolve evolve_finite",
    "fields": """FieldState FormulationKind SnapshotFormatError SparseSpectrum
        SpectralWorkspace correct_initial_data diagnostics get_workspace
        plane_wave_reference plane_wave_spectrum random_smooth_fields read_snapshot
        transverse_project write_snapshot""",
    "phase": """CosymplecticForm HamiltonianSystem PhaseFunction QuadraticLagrangian
        bracket_function legendre linear_function poisson_bracket quadratic_function""",
    "symbols": """Hyperbolicity PrincipalSymbol SymbolReport analyze_symbol
        maxwell_canonical_symbol maxwell_gauge_fixed_symbol""",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]

# The parameters of every exported function and public method, in order. A
# new option fails here until it is declared, and so does a removed one.
PARAMETERS = {
    "analyze_symbol": "sym tol_imag seed",
    "bracket_function": "f g form label",
    "classify_constraints": "cset sampler form",
    "commutation_matrix": "cset z form",
    "consistency_chain": "system primaries sampler",
    "constraint_set": "functions dim origin",
    "correct_initial_data": "a_bar pi_bar domain_length",
    "diagnostics": "state",
    "dirac_bracket": "f g cset z form",
    "error_correction_step": "cset z_bar form",
    "evolve": "initial formulation stepper dt t_end reproject_every reference stride",
    "evolve_finite": "system z0 dt t_end constraint_set stride",
    "least_squares_project": "cset z0 tol max_iter",
    "legendre": "lag",
    "linear_function": "coeffs const label",
    "make_surface_sampler": "rng n_points scale tol max_iter",
    "maxwell_canonical_symbol": "",
    "maxwell_gauge_fixed_symbol": "",
    "plane_wave_reference": "mode polarization amplitude grid_n domain_length",
    "plane_wave_spectrum": "mode polarization amplitude kind grid_n domain_length "
        "contamination_amplitude",
    "poisson_bracket": "f g z form",
    "project_to_constraint_surface": "cset z_bar tol form",
    "quadratic_function": "quad lin const label",
    "random_smooth_fields": "rng grid_n domain_length amplitude",
    "read_snapshot": "path",
    "second_order_coefficients": "cset z_bar form",
    "transverse_project": "v ws",
    "write_snapshot": "state path",
    "CommutationMatrix.is_invertible": "",
    "CommutationMatrix.solve": "rhs",
    "Constraint.grad": "z",
    "ConstraintSet.extended": "new",
    "ConstraintSet.jacobian": "z",
    "ConstraintSet.values": "z",
    "ConstraintSet.with_labels": "labels",
    "CosymplecticForm.canonical": "n_dof",
    "DiagnosticsSeries.to_csv": "path",
    "FieldState.check_finite": "",
    "FieldState.copy": "",
    "FieldState.half_spectrum": "",
    "FieldState.workspace": "",
    "HamiltonianSystem.canonical": "n_dof hamiltonian",
    "LinearModel.bracket_with_h": "u",
    "LinearModel.flow": "",
    "LinearModel.multipliers": "",
    "LinearModel.of": "system cset",
    "LinearModel.values": "states",
    "PhaseFunction.grad": "z",
    "PrincipalSymbol.at": "n",
    "SparseSpectrum.half_spectrum": "",
    "SparseSpectrum.workspace": "",
    "SpectralWorkspace.backward": "f_hat",
    "SpectralWorkspace.forward": "f out",
    "SymbolReport.to_json_dict": "",
}


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


def test_exported_functions_take_the_declared_parameters():
    functions = {}
    for name in gaugefix.__all__:
        obj = getattr(gaugefix, name)
        if inspect.isfunction(obj):
            functions[name] = obj
        elif inspect.isclass(obj):
            functions.update((f"{name}.{attr}", getattr(member, "__func__", member))
                             for attr, member in vars(obj).items() if not attr.startswith("_"))
    found = {label: [p for p in inspect.signature(f).parameters if p not in ("self", "cls")]
             for label, f in functions.items() if inspect.isfunction(f)}
    assert found == {label: params.split() for label, params in PARAMETERS.items()}
