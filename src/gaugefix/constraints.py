"""Dirac-Bergmann constraint machinery for finite-dimensional systems:
consistency chains, first/second-class classification, the commutation
matrix M_AB = [C_A, C_B], Dirac brackets, gauge-fixed multipliers and
the bracket-generated correction step back onto the constraint surface.

Bracket matrices at a point are products of the stacked constraint
Jacobian G with J: [C_A, C_B] = (G J G^T)_AB, [C_A, f] = (G J grad f)_A.
A set of affine constraints C = R z + r caches its rows [R | r]
(ConstraintSet.rows), and G is that R at every point; other sets take
one gradient per constraint at the point.

The exact route is linear algebra on one LinearModel of the constant J,
H = z.W.z/2 + w.z + w0 and [R | r] (docs/derivations.md sections 4 and
5): candidates u R J W | u R J w, dropped when in the span of [R | r]
and admitted when they raise the rank of R, classes from R J R^T, the
multipliers K z + k, and the constant extended flow A z + b of
evolve_finite with the H and C of its states. No decision is made at
sample points; a non-affine constraint or a Hamiltonian without
coefficients is refused with ValueError. make_surface_sampler draws
on-surface points by least squares for callers that want them.
The second-order correction takes its brackets in closed form from
phase.bracket_function, so it too refuses a constraint without
polynomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .phase import (
    CosymplecticForm,
    HamiltonianSystem,
    PhaseFunction,
    as_phase_point,
    bracket_function,
    combination,
    linear_function,
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

    @cached_property
    def rows(self) -> np.ndarray | None:
        """[R | r] of C = R z + r, shape (M, 2N + 1) and read-only, or None
        unless every member is affine in the 2N-dimensional phase point."""
        if not all(_is_affine(c.function, self.dim) for c in self.constraints):
            return None
        rows = np.empty((len(self.constraints), self.dim + 1))
        for row, c in zip(rows, self.constraints):
            row[:-1], row[-1] = c.function.coefficients.lin, c.function.coefficients.const
        rows.flags.writeable = False
        return rows

    def jacobian(self, z) -> np.ndarray:
        """Stacked gradients, one row per constraint, shape (M, 2N): the
        cached R of an affine set, else each member's gradient at z."""
        z = as_phase_point(z)
        if self.rows is not None:
            return self.rows[:, :-1]
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

    Finite entries and antisymmetry are checked invariants rather than
    solver assumptions, and a numerically singular matrix is refused
    before any solve.
    """

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("commutation matrix must be square")
        if not np.isfinite(entries).all():
            raise ValueError("commutation matrix entries must be finite")
        scale = np.abs(entries).max() if entries.size else 0.0
        if entries.size and np.abs(entries + entries.T).max() > 1e-12 * (1.0 + scale):
            raise ValueError("commutation matrix is not antisymmetric to 1e-12")
        self.entries = entries

    @cached_property
    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.entries, compute_uv=False)

    def is_invertible(self) -> bool:
        """Smallest singular value above 1e-10 of the largest; the 0 x 0
        matrix of an empty set is invertible."""
        s = self.singular_values
        return bool(not s.size or s[-1] > 1e-10 * s[0])

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


def _check_size(what: str, size: int, dim: int) -> None:
    if size != dim:
        raise ValueError(f"{what} size {size} does not match phase dimension {dim}")


def _kernel(cset: ConstraintSet, form: CosymplecticForm | None, z=None) -> np.ndarray:
    """The bracket kernel J for cset's phase space, canonical when form is
    None; ValueError naming both sizes when the form or the point z has
    another."""
    if form is None:
        form = CosymplecticForm.canonical(cset.dim // 2)
    _check_size("form", form.size, cset.dim)
    if z is not None:
        _check_size("point", z.size, cset.dim)
    return form.matrix


def commutation_matrix(cset: ConstraintSet, z, form: CosymplecticForm) -> CommutationMatrix:
    """All mutual Poisson brackets of the set's members at z."""
    z = as_phase_point(z)
    j = _kernel(cset, form, z)
    return _commutation(cset.jacobian(z), j)


# ---------------------------------------------------------------------------
# On-surface sampling (least-squares route, independent of the brackets)
# ---------------------------------------------------------------------------

def least_squares_project(cset: ConstraintSet, z0, tol: float = 1e-12,
                          max_iter: int = 60) -> np.ndarray:
    """Gauss-Newton projection of z0 onto the constraint surface.

    Minimum-norm Newton updates z <- z - G^+ C(z) work for any
    irreducible set, first class included, and cross-check the
    bracket-generated correction step.
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
    """Build a sampler(cset) -> (n_points, dim) array of on-surface points:
    Gaussian seeds of the given scale, projected by least_squares_project
    and kept if every constraint is below tol there."""

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

    Each generation demands that every bracket [C, H] vanish weakly, up
    to multipliers of the primaries: the left null space of the primary
    bracket matrix spawns the candidates. A candidate is dropped when its
    row lies in the span of the existing rows and admitted when its
    linear part raises their rank; a residual within a factor 10 of
    tol_weak raises AmbiguousClassificationError. A non-affine constraint
    or a Hamiltonian without coefficients raises LinearModel.of's
    ValueError naming it. sampler is ignored: no decision is made at
    sample points.

    Raises ChainTerminationError if the chain is still growing after
    max_generations, or if a residual can neither be absorbed nor yield
    an independent constraint (inconsistent dynamics).
    """
    _check_tolerance("tol_weak", tol_weak)
    if max_generations < 1:
        raise ValueError(f"max_generations must be at least 1, got {max_generations!r}")
    if len(primaries) == 0:
        return primaries
    model = LinearModel.of(system, primaries)
    n_primary = len(primaries)
    cset, untested = primaries, 0

    for _generation in range(max_generations):
        rows = model.rows
        # R J R_prim^T in the operations of the bracket-function oracle in
        # the tests, so the left null space, the weights and the labels agree.
        a = (rows[:, :-1] @ model.j) @ rows[:n_primary, :-1].T
        # Without multipliers the candidates are the [C_i, H]; those of members
        # older than the last generation passed before, against fewer rows.
        directions = (np.eye(len(cset))[untested:] if np.max(np.abs(a)) < tol_weak
                      else _left_null(a))
        untested = len(cset)

        new = []
        for u in directions:
            row, label = model.bracket_with_h(u)
            # Vanishes weakly, or repeats a member admitted this generation.
            if _residual(rows, row, label, "weak vanishing", tol_weak) < tol_weak:
                continue
            # A nonzero constant on the surface: inconsistent dynamics.
            if _residual(rows[:, :-1], row[:-1], label, "newness", tol_weak) < tol_weak:
                raise _unsatisfiable([model.labels[i] for i in np.flatnonzero(np.abs(u) > 1e-12)])
            new.append(Constraint(linear_function(row[:-1], row[-1], label),
                                  ConstraintOrigin.CONSISTENCY))
            rows = np.vstack([rows, row])
        if not new:
            return cset
        cset = cset.extended(new)
        model = replace(model, rows=rows, labels=tuple(cset.labels))

    raise _still_growing(max_generations, cset)


def _check_tolerance(name: str, tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def _is_affine(f: PhaseFunction, dim: int) -> bool:
    k = f.coefficients
    return k is not None and k.lin.size == dim and not k.quad.any()


def _exact_rows(cset: ConstraintSet, hamiltonian: PhaseFunction | None = None) -> np.ndarray:
    """cset.rows, or ValueError naming why there is no exact route."""
    if cset.rows is None:
        i, c = next((i, c) for i, c in enumerate(cset) if not _is_affine(c.function, cset.dim))
        raise ValueError(f"constraint {i} ({c.label or 'unlabelled'}) is not affine "
                         f"in the {cset.dim}-dimensional phase point")
    if hamiltonian is not None and hamiltonian.coefficients is None:
        raise ValueError(f"the Hamiltonian {hamiltonian.label} has no polynomial "
                         "coefficients")
    return cset.rows


@dataclass(frozen=True, eq=False)
class LinearModel:
    """The exact route of a constraint set and a system as arrays: the
    constant J, H = z.W.z/2 + w.z + w0 as (quad, lin, const) = (W, w, w0),
    and the rows [R | r] of C = R z + r with their labels."""

    j: np.ndarray
    quad: np.ndarray
    lin: np.ndarray
    const: float
    rows: np.ndarray
    labels: tuple[str, ...]

    @classmethod
    def of(cls, system: HamiltonianSystem, cset: ConstraintSet) -> "LinearModel":
        """The model, or ValueError naming a non-affine constraint, a
        Hamiltonian without coefficients, or a phase dimension of cset
        other than the system's."""
        if cset.dim != 2 * system.n_dof:
            raise ValueError(f"the constraint set has phase dimension {cset.dim}, "
                             f"the system {2 * system.n_dof}")
        rows = _exact_rows(cset, system.hamiltonian)
        k = system.hamiltonian.coefficients
        return cls(system.form.matrix, k.quad, k.lin, k.const, rows, tuple(cset.labels))

    def bracket_with_h(self, u: np.ndarray) -> tuple[np.ndarray, str]:
        """u_i [C_i, H] as its row [u R J W | u R J w] and its label. Weights
        within 1e-12 of zero drop out, a lone one within 1e-12 of +-1 becomes
        exactly that, and u R J W is formed as 0 - (W J)(u R), in
        phase.bracket_function's order and bits."""
        (idx,) = np.nonzero(np.abs(u) > 1e-12)
        w = u[idx]
        if idx.size == 1 and abs(abs(w[0]) - 1.0) < 1e-12:
            w = np.sign(w)
            label = f"{'-' if w[0] < 0 else ''}[{self.labels[idx[0]]}, H]"
        else:
            label = " + ".join(f"{wi:+.3g}[{self.labels[i]}, H]" for wi, i in zip(w, idx))
        ur = w @ self.rows[idx, :-1]
        return np.concatenate((0.0 - self.quad @ self.j @ ur, [ur @ self.j @ self.lin])), label

    def multipliers(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, k) of the gauge-fixed multipliers lambda(z) = K z + k =
        -M^-1 R J (W z + w), M = R J R^T, which solve M lambda = -[C, H]
        so that every dC/dt = [C, H] + M lambda vanishes
        (docs/derivations.md section 5); GaugeNotFixedError if M is singular."""
        r = self.rows[:, :-1]
        x = _commutation(r, self.j).solve(r @ self.j)
        return -(x @ self.quad), -(x @ self.lin)

    def flow(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) of the extended flow J (W z + w + R^T lambda(z)) = A z + b
        with the multipliers lambda = K z + k, J (W z + w) without constraints;
        GaugeNotFixedError if M is singular."""
        k, k0 = self.multipliers()
        r = self.rows[:, :-1]
        return self.j @ (self.quad + r.T @ k), self.j @ (self.lin + r.T @ k0)

    def values(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H and C = R z + r at each row z of states, shapes (n,) and (n, M)."""
        h = 0.5 * np.sum(states @ self.quad * states, axis=1) + states @ self.lin + self.const
        return h, states @ self.rows[:, :-1].T + self.rows[:, -1]


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


def classify_constraints(cset: ConstraintSet, sampler=None, tol_weak: float = 1e-8,
                         form: CosymplecticForm | None = None) -> ConstraintSet:
    """Label each constraint first or second class from its brackets.

    A constraint is first class when its bracket with every other member
    vanishes weakly, read off the constant R J R^T of the cached rows.
    Magnitudes within a factor of ten of tol_weak on either side are
    refused as ambiguous. form is canonical by default. A non-affine
    member raises ValueError naming it, and so does a dependent set.
    sampler is ignored.
    """
    _check_tolerance("tol_weak", tol_weak)
    j = _kernel(cset, form)
    if len(cset) == 0:
        return cset
    rows = _exact_rows(cset)
    _require_full_rank(rows[:, :-1])
    return _label_classes(cset, _bracket_magnitudes(rows[:, :-1], j), tol_weak)


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

    return cset.with_labels([ConstraintClass.FIRST_CLASS if np.all(row < tol_weak)
                             else ConstraintClass.SECOND_CLASS for row in mag])


# ---------------------------------------------------------------------------
# Dirac bracket, multipliers, error correction
# ---------------------------------------------------------------------------

def dirac_bracket(f: PhaseFunction, g: PhaseFunction, cset: ConstraintSet, z,
                  form: CosymplecticForm) -> float:
    """Dirac bracket [f, g] - [f, C_A] (M^-1)_AB [C_B, g] at z.

    Requires an invertible commutation matrix; a singular one means some
    gauge freedom is unfixed and raises GaugeNotFixedError. An f or g of
    another size raises ValueError naming it, from its coefficients
    before it is evaluated where it has them.
    """
    z = as_phase_point(z)
    j = _kernel(cset, form, z)
    grads = []
    for fn in (f, g):
        name = f"{fn.label or 'function'} gradient"
        if fn.coefficients is not None:
            _check_size(name, fn.coefficients.lin.size, cset.dim)
        grads.append(fn.grad(z))
        _check_size(name, grads[-1].size, cset.dim)
    gf, gg = grads
    jac = cset.jacobian(z)
    correction = (gf @ j @ jac.T) @ _commutation(jac, j).solve(jac @ j @ gg)
    return float(gf @ j @ gg) - float(correction)


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
    j = _kernel(cset, form, z)
    delta, _, report = _correction(cset, z, cset.values(z), j)
    return delta, report


def _max_abs(c: np.ndarray) -> float:
    return float(np.max(np.abs(c), initial=0.0))


def _correction(cset: ConstraintSet, z: np.ndarray, c_bar: np.ndarray, j: np.ndarray):
    """error_correction_step at z with C(z) = c_bar given and kernel J:
    (delta_z, C(z + delta_z), report), so an iteration evaluates C once
    per point."""
    report_tol = 1e-12 * (1.0 + _max_abs(z))

    jac = cset.jacobian(z)
    eps = _commutation(jac, j).solve(c_bar)
    delta = -(j @ jac.T) @ eps

    c_next = cset.values(z + delta)
    final = _max_abs(c_next)
    return delta, c_next, ProjectionReport(1, _max_abs(c_bar), final, bool(final < report_tol))


def project_to_constraint_surface(cset: ConstraintSet, z_bar, tol: float = 1e-12,
                                  max_iter: int = 20,
                                  form: CosymplecticForm | None = None):
    """Iterate error_correction_step until max |C_A| < tol.

    The constraint values are evaluated once per iterate: those at
    z + delta_z of one step are the barred values of the next. Non-convergence
    is reported through the returned ProjectionReport, not an exception;
    a singular commutation matrix still raises GaugeNotFixedError.
    """
    _check_tolerance("tol", tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    z = as_phase_point(z_bar).astype(float).copy()
    j = _kernel(cset, form, z)
    c = cset.values(z)
    initial = _max_abs(c)
    if initial < tol:
        return z, ProjectionReport(0, initial, initial, True)
    final = initial
    for it in range(1, max_iter + 1):
        delta, c, step = _correction(cset, z, c, j)
        z = z + delta
        final = step.final_norm
        if final < tol:
            return z, ProjectionReport(it, initial, final, True)
    return z, ProjectionReport(max_iter, initial, final, False)


def second_order_coefficients(cset: ConstraintSet, z_bar,
                              form: CosymplecticForm) -> np.ndarray:
    """Second-order correction coefficients (diagnostic): the terms the
    frozen first-order step leaves when the brackets depend on the point:

        eps2_G = sum_P (M^-1)_GP [[C_P, E], E]
               + 1/2 sum_{S,P,T} (M^-1)_GS (M^-1)_PT [[C_S, C_T], E] [C_P, E]

    where E = -eps1 . C is the first-order generator, a polynomial as
    every C_A must be, so that all these brackets are exact; a constraint
    without polynomial coefficients raises ValueError naming it, and an
    empty set gives an empty eps2. Identically zero when all brackets are
    constant, which covers every shipped scenario; provided so
    field-dependent algebras can at least be probed.
    """
    z = as_phase_point(z_bar)
    m = len(cset)
    mat = commutation_matrix(cset, z, form)
    eps1 = mat.solve(cset.values(z))
    if not m:
        return eps1
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
