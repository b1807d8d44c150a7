"""Dirac-Bergmann constraint machinery for finite-dimensional systems.

Covers the full pipeline: consistency chains from primary constraints,
first/second-class classification, the constraint commutation matrix
M_AB = [C_A, C_B], Dirac brackets, gauge-fixed Lagrange multipliers, and
the bracket-generated correction step that projects an off-surface point
back onto the constraint surface.

Weak equality (vanishing on the constraint surface) is made decidable by
evaluating brackets at a batch of on-surface sample points produced by a
least-squares sampler that is independent of the symplectic structure.
Bracket matrices at a point are products of one stacked constraint
Jacobian G with the cosymplectic matrix J, [C_A, C_B] = (G J G^T)_AB and
[C_A, f] = (G J grad f)_A: one gradient evaluation per constraint.

Brackets as functions (the chain's candidates [C, H], the terms of the
second-order correction) come from phase.bracket_function, applied to
phase.combination for weighted sums. Both stay in closed form when every
input is a polynomial of degree <= 2 and J is constant, which covers all
the linear and quadratic constraints and Hamiltonians shipped here:
every generation of the chain then has exact gradients. Only an opaque
input or a point-dependent J leaves a bracket whose gradient is taken by
finite differences.
"""

from __future__ import annotations

import itertools
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

    def check_irreducible(self, points) -> None:
        """Raise if the constraint gradients degenerate at any sample point
        (smallest singular value below 1e-8 of the largest)."""
        if len(self.constraints) == 0:
            return
        for z in np.atleast_2d(points):
            s = np.linalg.svd(self.jacobian(z), compute_uv=False)
            if s[0] == 0.0 or s[-1] < 1e-8 * s[0]:
                raise ValueError(
                    f"constraint set is not irreducible at z={z} "
                    f"(singular values {s})"
                )


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
                      sampler: Callable[[ConstraintSet], np.ndarray],
                      tol_weak: float = 1e-8,
                      max_generations: int = 10) -> ConstraintSet:
    """Run the Dirac-Bergmann consistency algorithm from the primaries.

    Each generation demands that every constraint's bracket with the
    Hamiltonian vanish weakly, allowing multipliers of the primaries to
    absorb what they can: at each on-surface sample the residual of
    [C_i, H] + lambda^a [C_i, phi_a] = 0 is minimized over lambda, and
    only the unabsorbable part (the left-null-space component of the
    primary bracket matrix) spawns candidate constraints. Candidates are
    admitted when their gradient leaves the span of the existing ones.

    Raises ChainTerminationError if the chain is still growing after
    max_generations, or if a residual can neither be absorbed nor yield
    an independent constraint (inconsistent dynamics).
    """
    if len(primaries) == 0:
        return primaries
    h = system.hamiltonian
    form = system.form
    n_primary = len(primaries)
    cset = primaries

    for _generation in range(max_generations):
        points = sampler(cset)
        m = len(cset)
        n_pts = points.shape[0]

        # b[k, i] = [C_i, H] at sample k; a[k, i, p] = [C_i, phi_p] there.
        # Weak vanishing is judged against 1 + |grad C_i| |grad H|.
        b = np.empty((n_pts, m))
        a = np.empty((n_pts, m, n_primary))
        scales = np.empty((n_pts, m))
        for k, z in enumerate(points):
            jac = cset.jacobian(z)
            gh = h.grad(z)
            gj = jac @ form.at(z)
            b[k] = gj @ gh
            a[k] = gj @ jac[:n_primary].T
            scales[k] = 1.0 + np.linalg.norm(jac, axis=1) * np.linalg.norm(gh)

        # Residual after the best pointwise multiplier fit.
        resid = np.empty_like(b)
        for k in range(n_pts):
            lam, *_ = np.linalg.lstsq(a[k], -b[k], rcond=None)
            resid[k] = b[k] + a[k] @ lam
        unabsorbed = np.max(np.abs(resid) / scales, axis=0)
        failing = np.nonzero(unabsorbed >= tol_weak)[0]
        if failing.size == 0:
            return cset

        # Directions of the consistency conditions that no multiplier choice
        # can touch. When no primary bracket is in play this is just the
        # identity, and candidates are the raw brackets [C_i, H].
        a_scale = np.max(np.abs(a)) if a.size else 0.0
        if a_scale < tol_weak:
            directions = [np.eye(m)[i] for i in failing]
        else:
            a_mean = a.mean(axis=0)
            if np.max(np.abs(a - a_mean)) > 1e-6 * (1.0 + a_scale):
                raise ChainTerminationError(
                    "primary bracket matrix varies across on-surface samples; "
                    "point-dependent multiplier structure is not supported"
                )
            # Left null space of a_mean; singular values above
            # max(shape) * eps * s_max count toward the rank.
            _, s, vh = np.linalg.svd(a_mean.T)
            rank = int(np.sum(s > max(a_mean.shape) * np.finfo(float).eps * s[0]))
            basis = vh[rank:].T
            directions = [basis[:, j] for j in range(basis.shape[1])
                          if np.max(np.abs(resid @ basis[:, j])) >= tol_weak]

        new = []
        for u in directions:
            cand = _combination_bracket(cset, u, h, form)
            if _gradient_is_new(cset.extended(new), cand, points):
                new.append(Constraint(cand, ConstraintOrigin.CONSISTENCY))
        if not new:
            raise ChainTerminationError(
                "consistency conditions cannot be satisfied: residuals of "
                f"{[cset[i].label for i in failing]} are neither absorbable by "
                "multipliers nor independent constraints"
            )
        cset = cset.extended(new)

    raise ChainTerminationError(
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


def _gradient_is_new(cset: ConstraintSet, cand: PhaseFunction, points) -> bool:
    """True if cand's gradient leaves the span of the set's gradients
    at at least one sample point: its least-squares residual exceeds
    1e-8 of its norm."""
    for z in np.atleast_2d(points):
        g = cand.grad(z)
        gn = np.linalg.norm(g)
        if gn == 0.0:
            continue
        existing = cset.jacobian(z)
        if existing.shape[0] == 0:
            return True
        coeff, *_ = np.linalg.lstsq(existing.T, g, rcond=None)
        residual = np.linalg.norm(g - existing.T @ coeff)
        if residual > 1e-8 * gn:
            return True
    return False


def classify_constraints(cset: ConstraintSet,
                         sampler: Callable[[ConstraintSet], np.ndarray],
                         tol_weak: float = 1e-8,
                         form: CosymplecticForm | None = None) -> ConstraintSet:
    """Label each constraint first or second class from on-surface brackets.

    A constraint is first class when its bracket with every other member
    vanishes weakly at all sampled points. Magnitudes within a factor of
    ten of tol_weak on either side are refused as ambiguous rather than
    silently rounded one way.
    """
    if len(cset) == 0:
        return cset
    if form is None:
        form = CosymplecticForm.canonical(cset.dim // 2)
    points = sampler(cset)
    cset.check_irreducible(points)

    # |[C_a, C_b]| / (1 + |grad C_a| |grad C_b|), so the tolerance means the
    # same for O(1) and large-gradient pairs.
    m = len(cset)
    mag = np.zeros((m, m))
    for z in points:
        jac = cset.jacobian(z)
        norms = np.linalg.norm(jac, axis=1)
        brackets = _commutation(jac, form.at(z)).entries
        mag = np.maximum(mag, np.abs(brackets) / (1.0 + np.outer(norms, norms)))

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
    if tol <= 0:
        raise ValueError("tol must be positive")
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
