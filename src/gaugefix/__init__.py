"""Constrained Hamiltonian dynamics and gauge-fixed Maxwell evolution.

Two layers share one bracket convention ([q, p] = +1, flow z' = J grad H):
a finite-dimensional Dirac-Bergmann toolkit (consistency chains, class
labels, Dirac brackets, multipliers, constraint-error projection) and a
periodic vacuum Maxwell demonstrator where the same correction step
becomes the spectral transverse projector.

The names below are loaded from their submodule on first use, so
``import gaugefix`` imports neither numpy nor any submodule.
"""

import importlib

_EXPORTS = {
    "constraints": (
        "AmbiguousClassificationError", "ChainTerminationError", "CommutationMatrix",
        "Constraint", "ConstraintClass", "ConstraintOrigin", "ConstraintSet",
        "GaugeNotFixedError", "LinearModel", "ProjectionReport", "SamplerError",
        "classify_constraints",
        "commutation_matrix", "consistency_chain", "constraint_set", "dirac_bracket",
        "error_correction_step", "least_squares_project", "make_surface_sampler",
        "project_to_constraint_surface", "second_order_coefficients",
    ),
    "evolution": (
        "CSV_HEADER", "DiagnosticsSeries", "FiniteSeries", "StepperKind", "evolve",
        "evolve_finite",
    ),
    "fields": (
        "FieldState", "FormulationKind", "SnapshotFormatError", "SparseSpectrum",
        "SpectralWorkspace", "correct_initial_data", "diagnostics", "get_workspace",
        "plane_wave_reference", "plane_wave_spectrum", "random_smooth_fields", "read_snapshot",
        "transverse_project", "write_snapshot",
    ),
    "phase": (
        "CosymplecticForm", "HamiltonianSystem", "PhaseFunction", "QuadraticLagrangian",
        "bracket_function", "legendre", "linear_function",
        "poisson_bracket", "quadratic_function",
    ),
    "symbols": (
        "Hyperbolicity", "PrincipalSymbol", "SymbolReport", "analyze_symbol",
        "maxwell_canonical_symbol", "maxwell_gauge_fixed_symbol",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Submodules load here too, so gaugefix.fields needs no import of its own.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
