"""Dirac-Bergmann constraint machinery for finite-dimensional systems.

Covers the full pipeline: consistency chains from primary constraints,
first/second-class classification, the constraint commutation matrix
M_AB = [C_A, C_B], Dirac brackets, gauge-fixed Lagrange multipliers, and
the bracket-generated correction step that projects an off-surface point
back onto the constraint surface.

Bracket matrices at a point are products of one stacked constraint
Jacobian G with the cosymplectic matrix J, [C_A, C_B] = (G J G^T)_AB and
[C_A, f] = (G J grad f)_A: one gradient evaluation per constraint.

The chain and the classes are linear algebra on the coefficient rows
[R | r] of affine constraints C = R z + r, under a constant J and a
Hamiltonian with coefficients (docs/derivations.md section 4): a
candidate vanishes weakly when its row lies in their span, it is new
when its linear part raises the rank of R, and the classes come from
the constant R J R^T. No decision is made at sample points; other input
is refused with ValueError. make_surface_sampler draws on-surface points
by least squares, independently of the symplectic structure, for
callers that want points on the surface.

Brackets as functions (the chain's candidates [C, H], the terms of the
second-order correction) come from phase.bracket_function, applied to
phase.combination for weighted sums. Both stay in closed form when every
input is a polynomial of degree <= 2 and J is constant, as the chain
requires. Only an opaque input or a point-dependent J, such as the
circle pair's angle in the second-order correction, leaves a bracket
whose gradient is taken by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .phase import (
    CosymplecticForm,
    HamiltonianSystem,
    PhaseFunction,
    as_phase_point,
    bracket_function,
    combination,
    poisson_bracket,
)


class GaugeNotFixedError(RuntimeError):
    """Singular commutation matrix: the gauge is not fully fixed, so the
    set supports no Dirac bracket and no bracket-based correction step."""


class ChainTerminationError(RuntimeError):
    """Consistency chain failed to terminate or ran into inconsistency."""


class SamplerError(RuntimeError):
    """On-surface sampler could not produce the requested points."""


class AmbiguousClassificationError(RuntimeError):
    """Bracket magnitudes sit too close to the weak tolerance to call."""


class ConstraintOrigin(Enum):
    PRIMARY = "primary"
    CONSISTENCY = "consistency"
    GAUGE_FIXING = "gauge_fixing"


class ConstraintClass(Enum):
    UNKNOWN = "unknown"
    FIRST_CLASS = "first_class"
    SECOND_CLASS = "second_class"


@dataclass(frozen=True)
class Constraint:
    """A constraint function with its provenance and class label."""

    function: PhaseFunction
    origin: ConstraintOrigin = ConstraintOrigin.PRIMARY
    class_label: ConstraintClass = ConstraintClass.UNKNOWN

    @property
    def label(self) -> str:
        return self.function.label

    def __call__(self, z) -> float:
        return self.function(z)

    def grad(self, z) -> np.ndarray:
        return self.function.grad(z)


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered constraints over a fixed 2N-dimensional phase space."""

    constraints: tuple[Constraint, ...]
    dim: int

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2:
            raise ValueError(f"ambient phase dimension must be even and positive, got {self.dim}")

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __getitem__(self, i) -> Constraint:
        return self.constraints[i]

    @property
    def labels(self) -> list[str]:
        return [c.label for c in self.constraints]

    def values(self, z) -> np.ndarray:
        z = as_phase_point(z)
        return np.array([c(z) for c in self.constraints])

    def jacobian(self, z) -> np.ndarray:
        """Stacked gradients, one row per constraint, shape (M, 2N)."""
        z = as_phase_point(z)
        if len(self.constraints) == 0:
            return np.zeros((0, self.dim))
        return np.vstack([c.grad(z) for c in self.constraints])

    def extended(self, new: Sequence[Constraint]) -> "ConstraintSet":
        return ConstraintSet(self.constraints + tuple(new), self.dim)

    def with_labels(self, labels: Sequence[ConstraintClass]) -> "ConstraintSet":
        if len(labels) != len(self.constraints):
            raise ValueError("one class label per constraint required")
        relabeled = tuple(
            replace(c, class_label=lab) for c, lab in zip(self.constraints, labels)
        )
        return ConstraintSet(relabeled, self.dim)


def _require_full_rank(jac: np.ndarray) -> None:
    # An (M, 2N) Jacobian with M > 2N has only 2N singular values to test.
    if jac.shape[0] > jac.shape[1]:
        raise ValueError("constraint set is not irreducible "
                         f"({jac.shape[0]} constraints on a {jac.shape[1]}-dimensional "
                         f"phase space)")
    s = np.linalg.svd(jac, compute_uv=False)
    if s[0] == 0.0 or s[-1] < 1e-8 * s[0]:
        raise ValueError(f"constraint set is not irreducible (singular values {s})")


def constraint_set(functions: Sequence[PhaseFunction], dim: int,
                   origin: ConstraintOrigin = ConstraintOrigin.PRIMARY) -> ConstraintSet:
    """Convenience constructor from bare phase functions."""
    return ConstraintSet(tuple(Constraint(f, origin) for f in functions), dim)


class CommutationMatrix:
    """Mutual bracket matrix M_AB = [C_A, C_B] at a point.

    Antisymmetry is a checked invariant rather than a solver assumption,
    and a numerically singular matrix is refused before any solve.
    """

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("commutation matrix must be square")
        scale = np.abs(entries).max() if entries.size else 0.0
        if entries.size and np.abs(entries + entries.T).max() > 1e-12 * (1.0 + scale):
            raise ValueError("commutation matrix is not antisymmetric to 1e-12")
        self.entries = entries
        self._sv = None

    @property
    def singular_values(self) -> np.ndarray:
        if self._sv is None:
            self._sv = np.linalg.svd(self.entries, compute_uv=False)
        return self._sv

    def is_invertible(self) -> bool:
        """Smallest singular value above 1e-10 of the largest."""
        s = self.singular_values
        if s.size == 0:
            return False
        return bool(s[-1] > 1e-10 * s[0])

    def solve(self, rhs) -> np.ndarray:
        """Solve M x = rhs, refusing when M is numerically singular."""
        if not self.is_invertible():
            raise GaugeNotFixedError(
                "commutation matrix is singular (gauge not fully fixed): "
                "first-class directions remain, no Dirac bracket exists"
            )
        return np.linalg.solve(self.entries, np.asarray(rhs, dtype=float))


def _commutation(jac: np.ndarray, j: np.ndarray) -> CommutationMatrix:
    """G J G^T for the stacked constraint Jacobian G, zero on the diagonal."""
    entries = jac @ j @ jac.T
    np.fill_diagonal(entries, 0.0)
    return CommutationMatrix(entries)


def commutation_matrix(cset: ConstraintSet, z, form: CosymplecticForm) -> CommutationMatrix:
    """All mutual Poisson brackets of the set's members at z."""
    z = as_phase_point(z)
    return _commutation(cset.jacobian(z), form.at(z))


# ---------------------------------------------------------------------------
# On-surface sampling (least-squares route, independent of the brackets)
# ---------------------------------------------------------------------------

def least_squares_project(cset: ConstraintSet, z0, tol: float = 1e-12,
                          max_iter: int = 60) -> np.ndarray:
    """Gauss-Newton projection of z0 onto the constraint surface.

    Uses minimum-norm Newton updates z <- z - G^+ C(z). Works for any
    irreducible set, including fully first-class ones where the
    bracket-generated step is unavailable; serves as the independent
    cross-check for the canonical correction machinery.
    """
    z = as_phase_point(z0).astype(float).copy()
    if len(cset) == 0:
        return z
    for _ in range(max_iter):
        c = cset.values(z)
        if np.max(np.abs(c)) < tol:
            return z
        g = cset.jacobian(z)
        step, *_ = np.linalg.lstsq(g, c, rcond=None)
        z = z - step
    raise SamplerError(
        f"least-squares projection stalled at residual {np.max(np.abs(cset.values(z))):.3e}"
    )


def make_surface_sampler(rng: np.random.Generator, n_points: int = 32,
                         scale: float = 1.0, tol: float = 1e-10,
                         max_iter: int = 60) -> Callable[[ConstraintSet], np.ndarray]:
    """Build a sampler(cset) -> (n_points, dim) array of on-surface points.

    Seeds are Gaussian with the given scale, projected by
    least_squares_project and kept only if all constraints evaluate
    below tol. Reproducible through the supplied generator.
    """

    def sampler(cset: ConstraintSet) -> np.ndarray:
        points = []
        attempts = 0
        while len(points) < n_points:
            attempts += 1
            if attempts > 50 * n_points:
                raise SamplerError(
                    f"could not find {n_points} on-surface points "
                    f"after {attempts} attempts"
                )
            z0 = scale * rng.standard_normal(cset.dim)
            if len(cset) == 0:
                points.append(z0)
                continue
            try:
                z = least_squares_project(cset, z0, tol=tol, max_iter=max_iter)
            except SamplerError:
                continue
            if np.max(np.abs(cset.values(z))) < tol:
                points.append(z)
        return np.array(points)

    return sampler


# ---------------------------------------------------------------------------
# Consistency chain and classification
# ---------------------------------------------------------------------------

def consistency_chain(system: HamiltonianSystem, primaries: ConstraintSet,
                      sampler=None, tol_weak: float = 1e-8,
                      max_generations: int = 10) -> ConstraintSet:
    """Run the Dirac-Bergmann consistency algorithm from the primaries.

    Each generation demands that every constraint's bracket with the
    Hamiltonian vanish weakly, allowing multipliers of the primaries to
    absorb what they can: only the unabsorbable part of the conditions
    (the left null space of the primary bracket matrix) spawns candidate
    constraints. A candidate is dropped when its coefficient row lies in
    the span of the existing rows and admitted when its linear part
    raises their rank; a residual within a factor 10 of tol_weak is
    refused with AmbiguousClassificationError.

    The primaries must be affine, the form constant and the Hamiltonian a
    polynomial with coefficients; other input raises ValueError naming
    the reason. sampler is ignored, since no decision is made at sample
    points; the slot is kept for callers that still pass one.

    Raises ChainTerminationError if the chain is still growing after
    max_generations, or if a residual can neither be absorbed nor yield
    an independent constraint (inconsistent dynamics).
    """
    _check_tolerance("tol_weak", tol_weak)
    if max_generations < 1:
        raise ValueError(f"max_generations must be at least 1, got {max_generations!r}")
    if len(primaries) == 0:
        return primaries
    h = system.hamiltonian
    form = system.form
    rows = _affine_rows(primaries, form, h)
    n_primary = len(primaries)
    cset = primaries

    for _generation in range(max_generations):
        # G J G_prim^T in the operations of the pointwise oracle in the
        # tests, so the left null space, the weights and the labels agree.
        gj = rows[:, :-1] @ form.at(None)
        a = gj @ rows[:n_primary, :-1].T
        directions = np.eye(len(cset)) if np.max(np.abs(a)) < tol_weak else _left_null(a)

        new = []
        for u in directions:
            cand = _combination_bracket(cset, u, h, form)
            row = np.append(cand.coefficients.lin, cand.coefficients.const)
            # Vanishes weakly, or repeats a member admitted this generation.
            if _residual(rows, row, cand.label, "weak vanishing", tol_weak) < tol_weak:
                continue
            # A nonzero constant on the surface: inconsistent dynamics.
            if _residual(rows[:, :-1], row[:-1], cand.label, "newness", tol_weak) < tol_weak:
                raise _unsatisfiable([cset[int(i)].label
                                      for i in np.flatnonzero(np.abs(u) > 1e-12)])
            new.append(Constraint(cand, ConstraintOrigin.CONSISTENCY))
            rows = np.vstack([rows, row])
        if not new:
            return cset
        cset = cset.extended(new)

    raise _still_growing(max_generations, cset)


def _check_tolerance(name: str, tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def _affine_rows(cset: ConstraintSet, form: CosymplecticForm,
                 hamiltonian: PhaseFunction | None = None) -> np.ndarray:
    """[R | r] for a set of affine constraints R z + r, or ValueError
    naming why the set, the Hamiltonian or the form has no exact route."""
    rows = []
    for i, c in enumerate(cset):
        k = c.function.coefficients
        if k is None or k.lin.size != cset.dim or np.any(k.quad):
            raise ValueError(f"constraint {i} ({c.label or 'unlabelled'}) is not affine "
                             f"in the {cset.dim}-dimensional phase point")
        rows.append(np.append(k.lin, k.const))
    if hamiltonian is not None and hamiltonian.coefficients is None:
        raise ValueError(f"the Hamiltonian {hamiltonian.label} has no polynomial "
                         "coefficients")
    if not form.is_constant:
        raise ValueError("the cosymplectic form is point-dependent")
    return np.array(rows)


def _residual(rows: np.ndarray, v: np.ndarray, label: str, decision: str,
              tol_weak: float) -> float:
    """|v - its least-squares projection onto the rows| / (1 + |v|),
    refused within a factor 10 of tol_weak on either side."""
    coef, *_ = np.linalg.lstsq(rows.T, v, rcond=None)
    res = float(np.linalg.norm(v - rows.T @ coef) / (1.0 + np.linalg.norm(v)))
    if tol_weak / 10.0 <= res <= tol_weak * 10.0:
        raise AmbiguousClassificationError(
            f"{decision} of candidate {label} is ambiguous: residual {res:.3e} "
            f"within a factor 10 of tol_weak={tol_weak:g}"
        )
    return res


def _left_null(a: np.ndarray) -> np.ndarray:
    """Rows spanning the left null space of a; singular values above
    max(shape) * eps * s_max count toward the rank."""
    _, s, vh = np.linalg.svd(a.T)
    rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s[0]))
    return vh[rank:]


def _unsatisfiable(labels: list[str]) -> ChainTerminationError:
    return ChainTerminationError(
        f"consistency conditions cannot be satisfied: residuals of {labels} are "
        "neither absorbable by multipliers nor independent constraints"
    )


def _still_growing(max_generations: int, cset: ConstraintSet) -> ChainTerminationError:
    return ChainTerminationError(
        f"consistency chain still growing after {max_generations} generations "
        f"({len(cset)} constraints so far)"
    )


def _combination_bracket(cset: ConstraintSet, weights: np.ndarray,
                         h: PhaseFunction, form: CosymplecticForm) -> PhaseFunction:
    """u_i [C_i, H] as the bracket [u_i C_i, H], with single-term labels kept tidy."""
    (idx,) = np.nonzero(np.abs(weights) > 1e-12)
    members = [cset[int(i)].function for i in idx]
    w = weights[idx].astype(float)
    if idx.size == 1 and abs(abs(w[0]) - 1.0) < 1e-12:
        w = np.sign(w)
        label = f"{'-' if w[0] < 0 else ''}[{members[0].label}, H]"
    else:
        label = " + ".join(f"{wi:+.3g}[{c.label}, H]" for wi, c in zip(w, members))
    return bracket_function(combination(members, w), h, form, label)


def classify_constraints(cset: ConstraintSet, sampler=None, tol_weak: float = 1e-8,
                         form: CosymplecticForm | None = None) -> ConstraintSet:
    """Label each constraint first or second class from its brackets.

    A constraint is first class when its bracket with every other member
    vanishes weakly, read off the constant R J R^T of the coefficient
    rows. Magnitudes within a factor of ten of tol_weak on either side
    are refused as ambiguous rather than silently rounded one way.

    The constraints must be affine and the form (canonical by default)
    constant; other input raises ValueError naming the reason, and a
    dependent set raises ValueError as not irreducible. sampler is
    ignored, since no decision is made at sample points; the slot is
    kept for callers that still pass one.
    """
    _check_tolerance("tol_weak", tol_weak)
    if len(cset) == 0:
        return cset
    if form is None:
        form = CosymplecticForm.canonical(cset.dim // 2)
    rows = _affine_rows(cset, form)
    _require_full_rank(rows[:, :-1])
    return _label_classes(cset, _bracket_magnitudes(rows[:, :-1], form.at(None)), tol_weak)


def _bracket_magnitudes(jac: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|[C_a, C_b]| / (1 + |grad C_a| |grad C_b|), so the tolerance means the
    same for O(1) and large-gradient pairs."""
    norms = np.linalg.norm(jac, axis=1)
    return np.abs(_commutation(jac, j).entries) / (1.0 + np.outer(norms, norms))


def _label_classes(cset: ConstraintSet, mag: np.ndarray, tol_weak: float) -> ConstraintSet:
    m = len(cset)
    ambiguous = [
        (cset[a].label, cset[b].label, mag[a, b])
        for a in range(m) for b in range(a + 1, m)
        if tol_weak / 10.0 <= mag[a, b] <= tol_weak * 10.0
    ]
    if ambiguous:
        detail = ", ".join(f"[{la}, {lb}] ~ {v:.3e}" for la, lb, v in ambiguous)
        raise AmbiguousClassificationError(
            f"bracket magnitudes within a factor 10 of tol_weak={tol_weak:g}: {detail}"
        )

    labels = [
        ConstraintClass.FIRST_CLASS
        if np.all(mag[a] < tol_weak) else ConstraintClass.SECOND_CLASS
        for a in range(m)
    ]
    return cset.with_labels(labels)


# ---------------------------------------------------------------------------
# Dirac bracket, multipliers, error correction
# ---------------------------------------------------------------------------

def dirac_bracket(f: PhaseFunction, g: PhaseFunction, cset: ConstraintSet, z,
                  form: CosymplecticForm) -> float:
    """Dirac bracket [f, g] - [f, C_A] (M^-1)_AB [C_B, g] at z.

    Requires an invertible commutation matrix; a singular one means some
    gauge freedom is unfixed and raises GaugeNotFixedError.
    """
    z = as_phase_point(z)
    jac, j = cset.jacobian(z), form.at(z)
    gf, gg = f.grad(z), g.grad(z)
    correction = 0.0
    if len(cset):
        bf, bg = gf @ j @ jac.T, jac @ j @ gg
        correction = float(bf @ _commutation(jac, j).solve(bg))
    return float(gf @ j @ gg) - correction


def gauge_fixed_multipliers(cset: ConstraintSet, system: HamiltonianSystem,
                            z) -> np.ndarray:
    """Multipliers that freeze the constraints along the extended flow.

    Solves M Lambda = -[C, H] so that d/dt C_B = [C_B, H] + Lambda^A
    [C_B, C_A] vanishes; the extended Hamiltonian H + Lambda . C then
    transports the constraint surface into itself to first order.
    """
    z = as_phase_point(z)
    return _multipliers(cset.jacobian(z), system.form.at(z), system.hamiltonian.grad(z))


def _multipliers(jac: np.ndarray, j: np.ndarray, gh: np.ndarray) -> np.ndarray:
    return -_commutation(jac, j).solve(jac @ j @ gh)


def extended_flow(system: HamiltonianSystem, cset: ConstraintSet, z) -> np.ndarray:
    """Flow J (grad H + G^T Lambda) of H + Lambda . C, multipliers taken at z."""
    z = as_phase_point(z)
    jac, j, gh = cset.jacobian(z), system.form.at(z), system.hamiltonian.grad(z)
    return j @ (gh + jac.T @ _multipliers(jac, j, gh))


@dataclass(frozen=True)
class ProjectionReport:
    iterations: int
    initial_norm: float
    final_norm: float
    converged: bool


def error_correction_step(cset: ConstraintSet, z_bar, form: CosymplecticForm):
    """One bracket-generated correction step toward the constraint surface.

    The step is the canonical transformation generated by -eps . C with
    frozen coefficients eps = M(z_bar)^{-1} C(z_bar):

        delta_z = -sum_A eps_A J grad C_A (z_bar)

    which cancels the constraint values to first order, and exactly for
    constraints linear in z with constant brackets. Returns (delta_z,
    report); report.final_norm is max |C(z_bar + delta_z)| and
    report.converged records whether it fell below 1e-12 (1 + max |z_bar|).
    """
    z = as_phase_point(z_bar)
    c_bar = cset.values(z)
    initial = float(np.max(np.abs(c_bar))) if len(cset) else 0.0
    report_tol = 1e-12 * (1.0 + float(np.max(np.abs(z))))

    jac, j = cset.jacobian(z), form.at(z)
    eps = _commutation(jac, j).solve(c_bar)
    delta = -(j @ jac.T) @ eps

    final = float(np.max(np.abs(cset.values(z + delta))))
    report = ProjectionReport(1, initial, final, bool(final < report_tol))
    return delta, report


def project_to_constraint_surface(cset: ConstraintSet, z_bar, tol: float = 1e-12,
                                  max_iter: int = 20,
                                  form: CosymplecticForm | None = None):
    """Iterate error_correction_step until max |C_A| < tol.

    Barred constraint values are recomputed each pass. Non-convergence
    is reported through the returned ProjectionReport, not an exception;
    a singular commutation matrix still raises GaugeNotFixedError.
    """
    _check_tolerance("tol", tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if form is None:
        form = CosymplecticForm.canonical(cset.dim // 2)
    z = as_phase_point(z_bar).astype(float).copy()
    initial = float(np.max(np.abs(cset.values(z)))) if len(cset) else 0.0
    if initial < tol:
        return z, ProjectionReport(0, initial, initial, True)
    final = initial
    for it in range(1, max_iter + 1):
        delta, step = error_correction_step(cset, z, form)
        z = z + delta
        final = step.final_norm
        if final < tol:
            return z, ProjectionReport(it, initial, final, True)
    return z, ProjectionReport(max_iter, initial, final, False)


def second_order_coefficients(cset: ConstraintSet, z_bar,
                              form: CosymplecticForm) -> np.ndarray:
    """Second-order correction coefficients (diagnostic).

    Extends the frozen first-order coefficients with the terms that
    appear when the constraint brackets depend on the phase-space point:

        eps2_G = sum_P (M^-1)_GP [[C_P, E], E]
               + 1/2 sum_{S,P,T} (M^-1)_GS (M^-1)_PT [[C_S, C_T], E] [C_P, E]

    where E = -eps1 . C is the first-order generator, a polynomial when
    every C_A is one, so that all these brackets are then exact.
    Identically zero when all brackets are constant, which covers every
    shipped scenario; provided so field-dependent algebras can at least
    be probed.
    """
    z = as_phase_point(z_bar)
    m = len(cset)
    mat = commutation_matrix(cset, z, form)
    eps1 = mat.solve(cset.values(z))
    minv = np.linalg.inv(mat.entries)

    e_fn = combination([c.function for c in cset], -eps1, label="correction generator")

    # [C_P, E] both as numbers at z and as functions for the outer brackets.
    ce_fns = [bracket_function(c.function, e_fn, form) for c in cset]
    ce_vals = np.array([fn(z) for fn in ce_fns])
    term1 = minv @ np.array([poisson_bracket(fn, e_fn, z, form) for fn in ce_fns])

    ccbe = np.zeros((m, m))
    for s in range(m):
        for t in range(m):
            if s == t:
                continue
            pair = bracket_function(cset[s].function, cset[t].function, form)
            ccbe[s, t] = poisson_bracket(pair, e_fn, z, form)
    term2 = 0.5 * (minv @ (ccbe @ (minv.T @ ce_vals)))
    return term1 + term2
