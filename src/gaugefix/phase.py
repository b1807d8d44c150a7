"""Finite-dimensional phase-space kernel.

Phase points are plain 1-d numpy arrays of length 2N ordered as
(q^1 .. q^N, p_1 .. p_N). The Poisson bracket convention is

    [f, g](z) = grad(f) . J(z) . grad(g)

with the canonical cosymplectic matrix J = [[0, I], [-I, 0]], so that
[q^a, p_b] = delta^a_b and Hamilton's equations read zdot = J grad(H).

Linear and quadratic phase functions carry their coefficients, and under
a constant J their bracket is again such a polynomial, computed in
closed form by polynomial_bracket (docs/derivations.md section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Central-difference step prefactors. cbrt(eps) balances truncation and
# rounding for first derivatives, eps**(1/4) for second derivatives.
_FD_STEP = float(np.cbrt(np.finfo(float).eps))
# Second-difference step. Larger than the classical eps**0.25: velocity
# Hessians feed a rank decision at ~1e-10, and for the (near-)quadratic
# kinetic terms this targets, second differences carry no truncation
# error, so pushing the step up mainly shrinks the cancellation noise
# eps/h^2 below that threshold.
_FD_STEP2 = float(np.finfo(float).eps ** (1.0 / 6.0))


class RankVariationError(RuntimeError):
    """Velocity-Hessian rank changed between sample points."""


def as_phase_point(z) -> np.ndarray:
    """Coerce ``z`` to a finite 1-d float array of even length."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size == 0 or z.size % 2:
        raise ValueError(
            f"phase point must be a 1-d array of even positive length, got shape {z.shape}"
        )
    if not np.all(np.isfinite(z)):
        raise ValueError("phase point contains NaN or Inf")
    return z


def fd_gradient(value: Callable[[np.ndarray], float], z, step: float | None = None) -> np.ndarray:
    """Central finite-difference gradient of a scalar callable.

    The step for component k is ``cbrt(eps) * max(1, |z_k|)``. Free of
    truncation error for polynomials of degree <= 2, but each level of
    nesting multiplies the rounding error. PhaseFunction uses it only for
    functions without an analytic gradient: opaque callables, and
    brackets that involve one or are taken under a point-dependent form.
    """
    z = np.asarray(z, dtype=float)
    base = _FD_STEP if step is None else step
    grad = np.empty_like(z)
    for k in range(z.size):
        h = base * max(1.0, abs(z[k]))
        zp = z.copy()
        zm = z.copy()
        zp[k] += h
        zm[k] -= h
        grad[k] = (value(zp) - value(zm)) / (2.0 * h)
    return grad


class Coefficients(NamedTuple):
    """(A, a, alpha) of the polynomial z.A.z/2 + a.z + alpha, A symmetric."""

    quad: np.ndarray
    lin: np.ndarray
    const: float


@dataclass(frozen=True)
class PhaseFunction:
    """Scalar function of a phase point together with its gradient.

    ``gradient`` may be None, in which case a central finite-difference
    fallback is used; ``uses_fd_gradient`` flags that situation so callers
    can tell analytic from approximate gradients. ``coefficients`` is set
    for polynomials of degree <= 2 (linear_function, quadratic_function,
    and their closed-form brackets) and None for opaque callables.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    coefficients: Coefficients | None = None

    @property
    def uses_fd_gradient(self) -> bool:
        return self.gradient is None

    def __call__(self, z) -> float:
        return float(self.value(np.asarray(z, dtype=float)))

    def grad(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.gradient is None:
            g = fd_gradient(self.value, z)
        else:
            g = np.asarray(self.gradient(z), dtype=float)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"gradient of {self.label or 'phase function'} is not finite at z={z}"
            )
        return g


def linear_function(coeffs, const: float = 0.0, label: str = "") -> PhaseFunction:
    """Affine phase function coeffs . z + const with its exact gradient."""
    coeffs = np.asarray(coeffs, dtype=float)

    def value(z, c=coeffs, c0=const):
        return float(c @ z + c0)

    def gradient(z, c=coeffs):
        return c.copy()

    n = coeffs.size
    return PhaseFunction(value, gradient, label=label,
                         coefficients=Coefficients(np.zeros((n, n)), coeffs, float(const)))


def quadratic_function(quad, lin=None, const: float = 0.0, label: str = "") -> PhaseFunction:
    """Phase function z.A.z/2 + b.z + c for symmetric A, with exact gradient."""
    quad = np.asarray(quad, dtype=float)
    if not np.allclose(quad, quad.T, atol=1e-14 * (1.0 + np.abs(quad).max())):
        raise ValueError("quadratic coefficient matrix must be symmetric")
    lin = np.zeros(quad.shape[0]) if lin is None else np.asarray(lin, dtype=float)

    def value(z, a=quad, b=lin, c=const):
        return float(0.5 * z @ a @ z + b @ z + c)

    def gradient(z, a=quad, b=lin):
        return a @ z + b

    return PhaseFunction(value, gradient, label=label,
                         coefficients=Coefficients(quad, lin, float(const)))


class CosymplecticForm:
    """Antisymmetric bracket kernel J, either a constant matrix or a callback.

    The canonical constant form is the block matrix [[0, I], [-I, 0]].
    Antisymmetry is validated at construction for constant forms and at
    every evaluation for callback forms.
    """

    def __init__(self, matrix=None, matrix_fn: Callable[[np.ndarray], np.ndarray] | None = None):
        if (matrix is None) == (matrix_fn is None):
            raise ValueError("provide exactly one of matrix or matrix_fn")
        if matrix is not None:
            matrix = self._check(np.asarray(matrix, dtype=float))
        self._matrix = matrix
        self._matrix_fn = matrix_fn

    @staticmethod
    def _check(j: np.ndarray) -> np.ndarray:
        if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % 2:
            raise ValueError(f"cosymplectic matrix must be square of even size, got {j.shape}")
        scale = np.abs(j).max() or 1.0
        if np.abs(j + j.T).max() > 1e-14 * scale:
            raise ValueError("cosymplectic matrix is not antisymmetric")
        return j

    @classmethod
    def canonical(cls, n_dof: int) -> "CosymplecticForm":
        eye = np.eye(n_dof)
        zero = np.zeros((n_dof, n_dof))
        return cls(matrix=np.block([[zero, eye], [-eye, zero]]))

    @property
    def is_constant(self) -> bool:
        return self._matrix is not None

    @property
    def size(self) -> int | None:
        return None if self._matrix is None else self._matrix.shape[0]

    def at(self, z) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        return self._check(np.asarray(self._matrix_fn(np.asarray(z, dtype=float)), dtype=float))


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian on 2N-dimensional phase space with its bracket kernel."""

    n_dof: int
    hamiltonian: PhaseFunction
    form: CosymplecticForm

    def __post_init__(self):
        if self.n_dof < 1:
            raise ValueError("n_dof must be positive")
        if self.form.is_constant and self.form.size != 2 * self.n_dof:
            raise ValueError(
                f"form size {self.form.size} does not match phase dimension {2 * self.n_dof}"
            )

    @classmethod
    def canonical(cls, n_dof: int, hamiltonian: PhaseFunction) -> "HamiltonianSystem":
        return cls(n_dof, hamiltonian, CosymplecticForm.canonical(n_dof))


@dataclass(frozen=True)
class LagrangianSystem:
    """Configuration-space Lagrangian L(q, qdot); optionally with an analytic
    velocity Hessian d^2 L / dqdot dqdot for singular-Legendre analysis."""

    n_config: int
    lagrangian: Callable[[np.ndarray, np.ndarray], float]
    velocity_hessian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def hessian(self, q, qdot) -> np.ndarray:
        """Velocity Hessian at (q, qdot), symmetrized and symmetry-checked."""
        q = np.asarray(q, dtype=float)
        v = np.asarray(qdot, dtype=float)
        n = self.n_config
        if q.size != n or v.size != n:
            raise ValueError("q and qdot must have length n_config")
        if self.velocity_hessian is not None:
            t = np.asarray(self.velocity_hessian(q, v), dtype=float)
        else:
            t = _fd_velocity_hessian(self.lagrangian, q, v)
        scale = np.abs(t).max() or 1.0
        if np.abs(t - t.T).max() > 1e-10 * scale:
            raise ValueError("velocity Hessian is not symmetric")
        return 0.5 * (t + t.T)


def _fd_velocity_hessian(lag, q, v):
    n = v.size
    t = np.empty((n, n))
    h = np.array([_FD_STEP2 * max(1.0, abs(v[k])) for k in range(n)])

    def f(dv):
        return lag(q, v + dv)

    f0 = f(np.zeros(n))
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = h[a]
        t[a, a] = (f(ea) - 2.0 * f0 + f(-ea)) / h[a] ** 2
        for b in range(a + 1, n):
            eb = np.zeros(n)
            eb[b] = h[b]
            t[a, b] = t[b, a] = (
                f(ea + eb) - f(ea - eb) - f(-ea + eb) + f(-ea - eb)
            ) / (4.0 * h[a] * h[b])
    return t


def poisson_bracket(f: PhaseFunction, g: PhaseFunction, z, form: CosymplecticForm) -> float:
    """Poisson bracket [f, g] = grad(f) . J . grad(g) at the point z."""
    z = as_phase_point(z)
    gf = f.grad(z)
    gg = g.grad(z)
    j = form.at(z)
    if gf.size != gg.size or j.shape[0] != gf.size:
        raise ValueError(
            f"dimension mismatch: gradients {gf.size}/{gg.size}, form {j.shape[0]}"
        )
    return float(gf @ j @ gg)


def polynomial_bracket(fs: Sequence[PhaseFunction], weights, g: PhaseFunction,
                       form: CosymplecticForm, label: str = "") -> PhaseFunction | None:
    """sum_i w_i [f_i, g] in closed form, or None when it has none here.

    For f = z.A.z/2 + a.z + alpha and g = z.B.z/2 + b.z + beta under a
    constant J, [f, g] = (Az + a) . J (Bz + b) is the polynomial with
    quadratic matrix AJB - BJA, linear part AJb - BJa and constant a.J.b
    (docs/derivations.md section 4). The weighted sum is the bracket of
    sum_i w_i f_i, whose coefficients are the weighted sums. The result
    has an exact gradient and coefficients of its own, so brackets of
    brackets stay exact. None when some input has no coefficients or J
    depends on the point.
    """
    coeffs = [f.coefficients for f in fs]
    if g.coefficients is None or not form.is_constant or any(c is None for c in coeffs):
        return None
    if any(c.lin.size != form.size for c in coeffs + [g.coefficients]):
        raise ValueError(f"polynomial dimension does not match form size {form.size}")
    w = np.asarray(weights, dtype=float)
    a_mat = np.tensordot(w, [c.quad for c in coeffs], axes=1)
    a = w @ [c.lin for c in coeffs]
    b_mat, b = g.coefficients.quad, g.coefficients.lin
    j = form.at(None)
    ajb = a_mat @ j @ b_mat
    # AJB - BJA, with BJA = -(AJB)^T written so the sum is exactly symmetric.
    return quadratic_function(ajb + ajb.T, a_mat @ j @ b - b_mat @ j @ a,
                              float(a @ j @ b), label=label)


def hamiltonian_flow(system: HamiltonianSystem, z) -> np.ndarray:
    """Hamiltonian flow vector zdot = J grad(H) at z."""
    z = as_phase_point(z)
    if z.size != 2 * system.n_dof:
        raise ValueError(f"point has dimension {z.size}, system expects {2 * system.n_dof}")
    return system.form.at(z) @ system.hamiltonian.grad(z)


def hessian_rank(lag: LagrangianSystem, q, qdot, tol: float = 1e-10):
    """Rank and kernel of the velocity Hessian at (q, qdot).

    Returns (rank, null_directions) where null_directions is an
    orthonormal basis of the kernel, shape (n_config, n_config - rank).
    The threshold is tol times max(largest singular value, 1): measured
    against unity as a floor, so the finite-difference noise of an
    exactly singular Hessian does not masquerade as rank. A regular
    Lagrangian yields full rank and an empty kernel.
    """
    if lag.n_config == 0:
        raise ValueError("Lagrangian has no configuration variables")
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = lag.hessian(q, qdot)
    _, s, vt = np.linalg.svd(t)
    rank = int(np.sum(s > tol * max(s[0], 1.0)))
    return rank, vt[rank:].T.copy()


def verify_constant_rank(lag: LagrangianSystem, points, tol: float = 1e-10) -> int:
    """Check that the velocity-Hessian rank agrees across sample points.

    ``points`` is an iterable of (q, qdot) pairs. Returns the common rank,
    or raises RankVariationError naming the disagreeing points. Constraint
    analysis downstream assumes the rank is constant, so a disagreement is
    an error rather than a warning.
    """
    ranks = {}
    for q, qdot in points:
        r, _ = hessian_rank(lag, q, qdot, tol)
        ranks.setdefault(r, (np.asarray(q), np.asarray(qdot)))
    if len(ranks) == 0:
        raise ValueError("no sample points supplied")
    if len(ranks) > 1:
        desc = ", ".join(
            f"rank {r} at q={qp[0]}, qdot={qp[1]}" for r, qp in sorted(ranks.items())
        )
        raise RankVariationError(f"velocity-Hessian rank varies across samples: {desc}")
    return next(iter(ranks))
