"""Finite-dimensional phase-space kernel.

Phase points are plain 1-d numpy arrays of length 2N ordered as
(q^1 .. q^N, p_1 .. p_N). The Poisson bracket convention is

    [f, g](z) = grad(f) . J . grad(g)

with a constant antisymmetric J (CosymplecticForm), canonically
[[0, I], [-I, 0]], so that [q^a, p_b] = delta^a_b and Hamilton's
equations read zdot = J grad(H).

Every phase function carries its gradient. Linear and quadratic ones
and their weighted sums (combination) also carry their coefficients,
and bracket_function builds their bracket in closed form
(docs/derivations.md section 4); a function without coefficients has
only the pointwise poisson_bracket, and bracket_function and
combination refuse it. Systems enter as a HamiltonianSystem with primary
constraints, or as a QuadraticLagrangian whose exact Legendre map
(legendre) yields both (docs/derivations.md section 3a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np


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


class Coefficients(NamedTuple):
    """(A, a, alpha) of the polynomial z.A.z/2 + a.z + alpha, A symmetric."""

    quad: np.ndarray
    lin: np.ndarray
    const: float


@dataclass(frozen=True)
class PhaseFunction:
    """Scalar function of a phase point together with its gradient.

    ``coefficients`` is set for polynomials of degree <= 2
    (linear_function, quadratic_function, their combinations and
    closed-form brackets) and None for opaque callables.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    coefficients: Coefficients | None = None

    def __call__(self, z) -> float:
        return float(self.value(np.asarray(z, dtype=float)))

    def grad(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        g = np.asarray(self.gradient(z), dtype=float)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"gradient of {self.label or 'phase function'} is not finite at z={z}"
            )
        return g


def _is_symmetric(m: np.ndarray) -> bool:
    return bool(np.abs(m - m.T).max(initial=0.0) <= 1e-14 * (1.0 + np.abs(m).max(initial=0.0)))


def linear_function(coeffs, const: float = 0.0, label: str = "") -> PhaseFunction:
    """Affine phase function coeffs . z + const with its exact gradient."""
    coeffs = np.asarray(coeffs, dtype=float)
    if not (np.isfinite(coeffs).all() and np.isfinite(const)):
        raise ValueError("linear function coefficients and constant must be finite")

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
    lin = np.zeros(quad.shape[0]) if lin is None else np.asarray(lin, dtype=float)
    if not (np.isfinite(quad).all() and np.isfinite(lin).all() and np.isfinite(const)):
        raise ValueError("quadratic function coefficients and constant must be finite")
    if not _is_symmetric(quad):
        raise ValueError("quadratic coefficient matrix must be symmetric")

    def value(z, a=quad, b=lin, c=const):
        return float(0.5 * z @ a @ z + b @ z + c)

    def gradient(z, a=quad, b=lin):
        return a @ z + b

    return PhaseFunction(value, gradient, label=label,
                         coefficients=Coefficients(quad, lin, float(const)))


class CosymplecticForm:
    """Antisymmetric bracket kernel J, a constant matrix (canonical:
    [[0, I], [-I, 0]]), checked at construction and held as a read-only
    copy in ``matrix``."""

    def __init__(self, matrix):
        j = np.array(matrix, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % 2 or not j.size:
            raise ValueError(f"cosymplectic matrix must be square of even positive size, "
                             f"got {j.shape}")
        if not np.isfinite(j).all():
            raise ValueError("cosymplectic matrix must be finite")
        scale = np.abs(j).max() or 1.0
        if np.abs(j + j.T).max() > 1e-14 * scale:
            raise ValueError("cosymplectic matrix is not antisymmetric")
        j.flags.writeable = False
        self.matrix = j

    @classmethod
    def canonical(cls, n_dof: int) -> "CosymplecticForm":
        eye = np.eye(n_dof)
        zero = np.zeros((n_dof, n_dof))
        return cls(np.block([[zero, eye], [-eye, zero]]))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian on 2N-dimensional phase space with its bracket kernel."""

    n_dof: int
    hamiltonian: PhaseFunction
    form: CosymplecticForm

    def __post_init__(self):
        if self.n_dof < 1:
            raise ValueError("n_dof must be positive")
        if self.form.size != 2 * self.n_dof:
            raise ValueError(
                f"form size {self.form.size} does not match phase dimension {2 * self.n_dof}"
            )

    @classmethod
    def canonical(cls, n_dof: int, hamiltonian: PhaseFunction) -> "HamiltonianSystem":
        return cls(n_dof, hamiltonian, CosymplecticForm.canonical(n_dof))


def poisson_bracket(f: PhaseFunction, g: PhaseFunction, z, form: CosymplecticForm) -> float:
    """Poisson bracket [f, g] = grad(f) . J . grad(g) at the point z."""
    z = as_phase_point(z)
    gf = f.grad(z)
    gg = g.grad(z)
    j = form.matrix
    if gf.size != gg.size or j.shape[0] != gf.size:
        raise ValueError(
            f"dimension mismatch: gradients {gf.size}/{gg.size}, form {j.shape[0]}"
        )
    return float(gf @ j @ gg)


def _coefficients(f: PhaseFunction) -> Coefficients:
    """f's coefficients, or ValueError naming f when it has none."""
    if f.coefficients is None:
        raise ValueError(f"phase function {f.label or '(unlabelled)'} has no polynomial "
                         "coefficients, so no closed-form bracket")
    return f.coefficients


def bracket_function(f: PhaseFunction, g: PhaseFunction, form: CosymplecticForm,
                     label: str = "") -> PhaseFunction:
    """The bracket [f, g] as a new phase function.

    For f = z.A.z/2 + a.z + alpha and g = z.B.z/2 + b.z + beta it is the
    polynomial with quadratic matrix AJB - BJA, linear part AJb - BJa and
    constant a.J.b (docs/derivations.md section 4), with coefficients of
    its own. An input without coefficients raises ValueError naming it.
    """
    label = label or f"[{f.label}, {g.label}]"
    cf, cg = _coefficients(f), _coefficients(g)
    if cf.lin.size != form.size or cg.lin.size != form.size:
        raise ValueError(f"polynomial dimension does not match form size {form.size}")
    j = form.matrix
    ajb = cf.quad @ j @ cg.quad
    # AJB - BJA, with BJA = -(AJB)^T written so the sum is exactly symmetric.
    return quadratic_function(ajb + ajb.T, cf.quad @ j @ cg.lin - cg.quad @ j @ cf.lin,
                              float(cf.lin @ j @ cg.lin), label=label)


def combination(fs: Sequence[PhaseFunction], weights, label: str = "") -> PhaseFunction:
    """The weighted sum sum_i w_i f_i as a phase function, with the
    weighted sums of the members' coefficients; a member without
    coefficients raises ValueError naming it."""
    coeffs = [_coefficients(f) for f in fs]
    w = np.asarray(weights, dtype=float)
    return quadratic_function(np.tensordot(w, [c.quad for c in coeffs], axes=1),
                              w @ [c.lin for c in coeffs],
                              float(w @ [c.const for c in coeffs]), label=label)


# Rank cut for constant matrices: an eigenvalue that is zero in exact
# arithmetic comes out of eigh below n * eps * max|lambda| (numpy's
# matrix_rank default); the factor 100 leaves room for rounding in the
# matrix itself, say one assembled as R D R^T.
_RANK_RTOL = 100.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class QuadraticLagrangian:
    """L(q, qdot) = qdot.W.qdot/2 + qdot.B.q + q.K.q/2 with constant n x n
    matrices, W and K symmetric. W is the velocity Hessian."""

    w: np.ndarray
    b: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        w, b, k = mats = [np.asarray(m, dtype=float) for m in (self.w, self.b, self.k)]
        if w.ndim != 2 or w.size == 0 or not w.shape == w.T.shape == b.shape == k.shape:
            raise ValueError(f"W, B and K must be n x n with n >= 1, "
                             f"got shapes {w.shape}, {b.shape}, {k.shape}")
        if not (all(np.isfinite(m).all() for m in mats) and _is_symmetric(w) and _is_symmetric(k)):
            raise ValueError("W, B and K must be finite, and W and K symmetric")
        for name, m in zip("wbk", mats):
            object.__setattr__(self, name, m)


def legendre(lag: QuadraticLagrangian) -> tuple[HamiltonianSystem, tuple[PhaseFunction, ...]]:
    """Exact Legendre map: the canonical system and the primary constraints.

    With p = W qdot + B q, each kernel vector u of W gives a primary
    u . (p - B q), and on their surface H = p . qdot - L equals
    (p - B q).W+.(p - B q)/2 - q.K.q/2 for every qdot, W+ the
    pseudo-inverse (docs/derivations.md section 3a). The rank of the
    constant W is read off its eigenvalues once. The kernel basis is put
    in reduced row echelon form, so the primaries, their order and labels
    do not depend on the basis eigh returns.
    """
    n = len(lag.w)
    lam, vec = np.linalg.eigh(lag.w)
    tol = n * _RANK_RTOL
    nonzero = np.abs(lam) > tol * np.abs(lam).max()
    # p - B q = t z for z = (q, p).
    t = np.hstack([-lag.b, np.eye(n)])
    x = vec[:, nonzero].T @ t
    quad = x.T @ (x / lam[nonzero, None])
    # Symmetric only up to rounding otherwise, and the gradient A z assumes A = A^T.
    quad = 0.5 * (quad + quad.T)
    quad[:n, :n] -= lag.k
    hamiltonian = quadratic_function(quad, label="H")
    rows = _rref(vec[:, ~nonzero].T, tol) @ t
    primaries = tuple(linear_function(row, label=_linear_label(row)) for row in rows)
    return HamiltonianSystem.canonical(n, hamiltonian), primaries


def _rref(rows: np.ndarray, tol: float) -> np.ndarray:
    """Reduced row echelon form of a full-row-rank matrix with entries of
    order one (Gauss-Jordan, partial pivoting). Entries within tol of zero
    come out as exact zeros."""
    a = rows.copy()
    r = 0
    for col in range(a.shape[1]):
        if r == a.shape[0]:
            break
        piv = r + int(np.argmax(np.abs(a[r:, col])))
        if abs(a[piv, col]) <= tol:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] /= a[r, col]
        others = np.arange(a.shape[0]) != r
        a[others] -= np.outer(a[others, col], a[r])
        r += 1
    return np.where(np.abs(a) > tol, a, 0.0)


def _linear_label(coeffs: np.ndarray) -> str:
    """Label of coeffs . z such as 'p1 - q2', momenta first."""
    n = coeffs.size // 2
    text = " ".join(f"{'-' if c < 0 else '+'} {'' if abs(c) == 1 else f'{abs(c):g} '}{x}{i + 1}"
                    for x, part in (("p", coeffs[n:]), ("q", coeffs[:n]))
                    for i, c in enumerate(part) if c != 0)
    return text[2:] if text[0] == "+" else "-" + text[2:]
