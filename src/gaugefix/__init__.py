"""Constrained Hamiltonian dynamics and gauge-fixed Maxwell evolution.

Two layers share one bracket convention ([q, p] = +1, flow z' = J grad H):
a finite-dimensional Dirac-Bergmann toolkit (consistency chains, class
labels, Dirac brackets, multipliers, constraint-error projection) and a
periodic vacuum Maxwell demonstrator where the same correction step
becomes the spectral transverse projector.
"""

from .constraints import (
    AmbiguousClassificationError,
    ChainTerminationError,
    CommutationMatrix,
    Constraint,
    ConstraintClass,
    ConstraintOrigin,
    ConstraintSet,
    GaugeNotFixedError,
    ProjectionReport,
    SamplerError,
    classify_constraints,
    commutation_matrix,
    consistency_chain,
    constraint_set,
    dirac_bracket,
    error_correction_step,
    extended_flow,
    gauge_fixed_multipliers,
    least_squares_project,
    make_surface_sampler,
    project_to_constraint_surface,
    second_order_coefficients,
)
from .evolution import CSV_HEADER, DiagnosticsSeries, FiniteSeries, StepperKind, evolve, evolve_finite
from .fields import (
    FieldState,
    FormulationKind,
    SnapshotFormatError,
    SpectralWorkspace,
    constraint_norms,
    correct_initial_data,
    dirac_kernel_check,
    energy,
    get_workspace,
    l2_norm,
    longitudinal_norms,
    plane_wave_initial_data,
    plane_wave_reference,
    random_smooth_fields,
    read_snapshot,
    transverse_project,
    write_snapshot,
)
from .phase import (
    CosymplecticForm,
    HamiltonianSystem,
    PhaseFunction,
    QuadraticLagrangian,
    bracket_function,
    hamiltonian_flow,
    legendre,
    linear_function,
    poisson_bracket,
    quadratic_function,
)
from .symbols import (
    Hyperbolicity,
    PrincipalSymbol,
    SymbolReport,
    adapted_blocks,
    analyze_symbol,
    maxwell_canonical_symbol,
    maxwell_gauge_fixed_symbol,
)

__version__ = "0.1.0"
