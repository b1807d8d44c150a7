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
evolve_finite with the H and C of its states. Each rank is one SVD of
rows scaled to unit length (_rank), so no decision depends on the scale
of a constraint or of H, and none on sample points. A non-affine
constraint or a Hamiltonian without coefficients is refused with
ValueError; make_surface_sampler draws on-surface points by least
squares for callers that want them. The second-order correction takes
its brackets as products of the members' stacked coefficients, so it
too refuses a constraint without polynomial coefficients.
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
    _coefficients,
    as_phase_point,
    linear_function,
)

# The one cut of every rank and class decision, on unit rows: tol_weak's default.
_TOL_WEAK = 1e-8


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


def _require_full_rank(jac: np.ndarray, tol: float = _TOL_WEAK) -> None:
    rank, _ = _rank(jac / _row_norms(jac), tol, "irreducibility of the constraint set")
    if rank < len(jac):
        raise ValueError(f"constraint set is not irreducible (rank {rank} for {len(jac)} "
                         f"constraints on a {jac.shape[1]}-dimensional phase space)")


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
        self._unit = entries  # the brackets at unit rows; _commutation sets them

    def is_invertible(self) -> bool:
        """Full rank of the unit rows' brackets: every singular value above
        tol_weak = 1e-8, a relative cut since the rows are unit, and one
        within a factor 10 of it raises AmbiguousClassificationError. The
        0 x 0 matrix of an empty set is invertible."""
        what = "invertibility of the commutation matrix"
        return _rank(self._unit, _TOL_WEAK, what)[0] == len(self._unit)

    def solve(self, rhs) -> np.ndarray:
        """Solve M x = rhs, refusing when M is numerically singular."""
        if not self.is_invertible():
            raise GaugeNotFixedError(
                "commutation matrix is singular (gauge not fully fixed): "
                "first-class directions remain, no Dirac bracket exists"
            )
        return np.linalg.solve(self.entries, np.asarray(rhs, dtype=float))


def _commutation(jac: np.ndarray, j: np.ndarray) -> CommutationMatrix:
    """G J G^T for the stacked constraint Jacobian G, zero on the diagonal,
    with the brackets of the unit rows G / |G_a| that decide its rank.
    Entries that overflow are refused by CommutationMatrix, without a
    numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        entries = jac @ j @ jac.T
    np.fill_diagonal(entries, 0.0)
    mat = CommutationMatrix(entries)
    mat._unit = _unit_brackets(jac, j)
    return mat


def _unit_brackets(jac: np.ndarray, j: np.ndarray) -> np.ndarray:
    """[C_a, C_b] / (|grad C_a| |grad C_b|): G J G^T of the unit rows, zero
    on the diagonal, finite whatever the rows' scale."""
    unit = jac / _row_norms(jac)
    brackets = unit @ j @ unit.T
    np.fill_diagonal(brackets, 0.0)
    return brackets


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The length of each row of a as a column, 1 for a zero row; hypot
    neither underflows nor overflows where the squares of the entries do."""
    norms = np.hypot.reduce(a, axis=1, keepdims=True)
    return np.where(norms > 0.0, norms, 1.0)


def _rank(a: np.ndarray, tol: float, what: str) -> tuple[int, np.ndarray]:
    """(rank, vh) of a matrix at unit scale, from its one SVD a = U S vh:
    singular values above tol count, and one in _band raises
    AmbiguousClassificationError naming what."""
    _, s, vh = np.linalg.svd(a)
    # A handful of values: a list is quicker than array operations.
    near = [x for x in s.tolist() if _band(x, tol)]
    if near:
        raise AmbiguousClassificationError(f"{what} is ambiguous: singular value {near[0]:.3e} "
                                           f"within a factor 10 of tol_weak={tol:g}")
    return sum(x > tol for x in s.tolist()), vh


def _band(x, tol: float):
    """Where x, a number or an array, is within a factor 10 of tol: too close to call."""
    return (tol / 10.0 <= x) & (x <= tol * 10.0)


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
    for _ in range(max_iter):
        c = cset.values(z)
        if _max_abs(c) < tol:
            return z
        z = z - np.linalg.pinv(cset.jacobian(z)) @ c
    raise SamplerError(f"least-squares projection stalled at residual "
                       f"{_max_abs(cset.values(z)):.3e}")


def make_surface_sampler(rng: np.random.Generator, n_points: int = 32,
                         scale: float = 1.0, tol: float = 1e-10,
                         max_iter: int = 60) -> Callable[[ConstraintSet], np.ndarray]:
    """Build a sampler(cset) -> (n_points, dim) array of on-surface points:
    Gaussian seeds of the given scale, projected by least_squares_project
    and kept if every constraint is below tol there."""

    def sampler(cset: ConstraintSet) -> np.ndarray:
        points, attempts = [], 0
        while len(points) < n_points:
            attempts += 1
            if attempts > 50 * n_points:
                raise SamplerError(f"could not find {n_points} on-surface points "
                                   f"after {attempts} attempts")
            z0 = scale * rng.standard_normal(cset.dim)
            try:
                z = least_squares_project(cset, z0, tol=tol, max_iter=max_iter)
            except SamplerError:
                continue
            if _max_abs(cset.values(z)) < tol:
                points.append(z)
        return np.array(points)

    return sampler


# ---------------------------------------------------------------------------
# Consistency chain and classification
# ---------------------------------------------------------------------------

def consistency_chain(system: HamiltonianSystem, primaries: ConstraintSet,
                      sampler=None, tol_weak: float = _TOL_WEAK,
                      max_generations: int = 10) -> ConstraintSet:
    """Run the Dirac-Bergmann consistency algorithm from the primaries.

    Each generation demands that every bracket [C, H] vanish weakly, up
    to multipliers of the primaries. Each decision is a rank of the unit
    rows C_i / |R_i| of C = R z + r: their primary bracket matrix's left
    null space spawns the candidates, and a candidate, over the bound its
    product puts on it, is dropped when it adds no rank to [R | r] and
    admitted when it adds rank to R. So tol_weak is relative, and a
    singular value within a factor 10 of it raises
    AmbiguousClassificationError. A non-affine constraint or a Hamiltonian
    without coefficients raises LinearModel.of's ValueError naming it.
    sampler is ignored: no decision is made at sample points.

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
    rows = model.rows / _row_norms(model.rows[:, :-1])
    model = replace(model, rows=rows)
    # |u R J| |[W | w]| bounds the candidate row (u R J)[W | w] and its rounding.
    h_abs = np.abs(np.column_stack((model.quad, model.lin)))
    n_primary = len(primaries)
    cset, untested = primaries, 0
    ranks = [_rank(m, tol_weak, "rank of the primaries")[0] for m in (rows, rows[:, :-1])]

    for _generation in range(max_generations):
        rj = rows[:, :-1] @ model.j
        # R J R_prim^T as the bracket-function oracle in the tests forms it.
        rank, vh = _rank((rj @ rows[:n_primary, :-1].T).T, tol_weak, "the primary bracket matrix")
        # Without multipliers the candidates are the [C_i, H]; those of members
        # older than the last generation passed before, against fewer rows.
        directions = np.eye(len(cset))[untested:] if rank == 0 else vh[rank:]
        untested = len(cset)

        new = []
        for u in directions:
            row, label = model.bracket_with_h(u)
            v = row / (np.linalg.norm(np.abs(u @ rj) @ h_abs) or 1.0)
            # Vanishes weakly, or repeats a member admitted this generation.
            full = _rank(np.vstack([rows, v]), tol_weak, f"weak vanishing of candidate {label}")[0]
            if full == ranks[0]:
                continue
            # A nonzero constant on the surface: inconsistent dynamics.
            lin = _rank(np.vstack([rows[:, :-1], v[:-1]]), tol_weak,
                        f"newness of candidate {label}")[0]
            if lin == ranks[1]:
                raise _unsatisfiable([model.labels[i] for i in np.flatnonzero(np.abs(u) > 1e-12)])
            new.append(Constraint(linear_function(row[:-1], row[-1], label),
                                  ConstraintOrigin.CONSISTENCY))
            rows = np.vstack([rows, row / _row_norms(row[None, :-1])])
            ranks = [full, lin]
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


def classify_constraints(cset: ConstraintSet, sampler=None, tol_weak: float = _TOL_WEAK,
                         form: CosymplecticForm | None = None) -> ConstraintSet:
    """Label each constraint first or second class from its brackets.

    A constraint is first class when its bracket with every other member
    vanishes weakly, read off the constant R J R^T of the cached rows
    scaled to unit length, so tol_weak is relative: a magnitude below it
    is weakly zero, and one within a factor of ten of it on either side
    is refused as ambiguous. form is canonical by default. A non-affine
    member raises ValueError naming it, and so does a dependent set.
    sampler is ignored.
    """
    _check_tolerance("tol_weak", tol_weak)
    j = _kernel(cset, form)
    if len(cset) == 0:
        return cset
    rows = _exact_rows(cset)
    _require_full_rank(rows[:, :-1], tol_weak)
    return _label_classes(cset, _bracket_magnitudes(rows[:, :-1], j), tol_weak)


def _bracket_magnitudes(jac: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|[C_a, C_b]| / (|grad C_a| |grad C_b|), the brackets of the unit rows."""
    return np.abs(_unit_brackets(jac, j))


def _label_classes(cset: ConstraintSet, mag: np.ndarray, tol_weak: float) -> ConstraintSet:
    ambiguous = np.argwhere(np.triu(_band(mag, tol_weak), 1))
    if ambiguous.size:
        detail = ", ".join(f"[{cset[a].label}, {cset[b].label}] ~ {mag[a, b]:.3e}"
                           for a, b in ambiguous)
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

    where E = -eps1 . C is the first-order generator. Every C_A must be a
    polynomial z.Q_A.z/2 + l_A.z + c_A, so that these brackets are exact
    products of the stacked Q (m, n, n) and l (m, n) (docs/derivations.md
    section 6): with G = Q z + l and u = J grad E, [C_P, E] = G u,
    [[C_P, E], E] = (Q u) u + G J Q_E u and [[C_S, C_T], E] = X - X^T for
    X = G J (Q u)^T. Each M^-1 is a solve. A constraint without
    polynomial coefficients raises ValueError naming it, and an empty set
    gives an empty eps2. Identically zero when all brackets are constant,
    which covers every shipped scenario; provided so field-dependent
    algebras can at least be probed.
    """
    z = as_phase_point(z_bar)
    mat = commutation_matrix(cset, z, form)
    eps1 = mat.solve(cset.values(z))
    if not len(cset):
        return eps1
    coeffs = [_coefficients(c.function) for c in cset]
    quad = np.stack([k.quad for k in coeffs])
    grads = quad @ z + np.stack([k.lin for k in coeffs])
    j = form.matrix
    u = j @ -(eps1 @ grads)
    v = quad @ u
    x = grads @ j @ v.T
    nested = v @ u + grads @ (j @ (np.tensordot(-eps1, quad, axes=1) @ u))
    # sum_P (M^-1)_PT [C_P, E] is (M^-T G u)_T = (M^-1 (-G u))_T: M is antisymmetric.
    return mat.solve(nested + 0.5 * ((x - x.T) @ mat.solve(-(grads @ u))))
