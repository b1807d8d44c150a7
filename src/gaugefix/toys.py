"""Small built-in systems exercising the constraint pipeline end to end.

Every model is one QuadraticLagrangian: legendre turns it into the
phase-space Hamiltonian and the primary constraints, and the model adds
a point on the constraint surface for matrix evaluations and the
coordinates whose brackets are worth reporting (docs/derivations.md
sections 1-3 for the three demos, 5a for maxwell_mode, one Fourier mode
of the field system). The nonlinear circle pair is a bare constraint
set that exists purely to stress the iterative surface projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import Constraint, ConstraintOrigin, ConstraintSet, constraint_set
from .phase import (
    HamiltonianSystem,
    PhaseFunction,
    QuadraticLagrangian,
    legendre,
    linear_function,
    quadratic_function,
)


@dataclass(frozen=True, eq=False)
class ToyModel:
    name: str
    system: HamiltonianSystem
    primaries: ConstraintSet
    sample_point: np.ndarray
    # Bracket pairs worth reporting for this model, as (label, function) pairs.
    check_functions: tuple = field(default=())


def _lagrangian_toy(name: str, lag: QuadraticLagrangian, sample_point,
                    check_names=()) -> ToyModel:
    """ToyModel of a quadratic Lagrangian; check_names are coordinates
    such as 'q1' or 'p2'."""
    system, primaries = legendre(lag)
    n = len(lag.w)
    checks = []
    for label in check_names:
        coeffs = np.zeros(2 * n)
        coeffs[int(label[1:]) - 1 + (n if label[0] == "p" else 0)] = 1.0
        checks.append((label, linear_function(coeffs, label=label)))
    return ToyModel(name, system, constraint_set(primaries, 2 * n),
                    np.array(sample_point, dtype=float), tuple(checks))


def chain_demo() -> ToyModel:
    """L = (qdot1 - q2)^2 / 2: one primary constraint, one secondary.

    Momenta: p1 = qdot1 - q2, p2 = 0. The Legendre transform gives
    H = p1^2 / 2 + q2 p1. Consistency of p2 = 0 forces [p2, H] = -p1 = 0,
    and the chain stops there ([p1, H] = 0 identically). Both constraints
    commute, so the final set is first class: q2 is pure gauge and the
    reduced dynamics is a free particle frozen at p1 = 0.
    """
    lag = QuadraticLagrangian(np.diag([1.0, 0.0]), [[0.0, -1.0], [0.0, 0.0]],
                              np.diag([0.0, 1.0]))
    return _lagrangian_toy("chain-demo", lag, [0.7, -0.3, 0.0, 0.0], ("q1", "p1"))


def second_class_demo() -> ToyModel:
    """L = qdot1 q2: two second-class primaries and an empty Hamiltonian.

    Momenta: p1 = q2, p2 = 0, so the primaries are p1 - q2 and p2, with
    H = 0 on the constraint surface. Their mutual bracket is -1, making
    the pair second class with commutation matrix [[0, -1], [1, 0]].
    The Dirac bracket then eliminates the (q2, p2) pair entirely.
    """
    lag = QuadraticLagrangian(np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
    return _lagrangian_toy("second-class-demo", lag, [0.4, 0.25, 0.25, 0.0],
                           ("q1", "q2", "p1", "p2"))


def regular_demo() -> ToyModel:
    """L = (qdot1^2 + qdot2^2) / 2: invertible Hessian, no constraints."""
    lag = QuadraticLagrangian(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    return _lagrangian_toy("regular-demo", lag, [0.1, 0.2, 0.3, 0.4])


def circle_pair() -> ConstraintSet:
    """Nonlinear second-class pair on a 2-dimensional phase space.

    C1 = (q^2 + p^2)/2 - 1 pins the circle of radius sqrt 2, C2 =
    atan2(p, q) - theta0 the angle theta0 = 0.25. [C1, C2] = 1 everywhere
    away from the origin, so the commutation matrix is constant even
    though the constraints are not linear: the correction step contracts
    quadratically instead of terminating in one shot.
    """
    radial = quadratic_function(np.eye(2), const=-1.0, label="(q^2 + p^2)/2 - 1")

    def angle_value(z):
        return math.atan2(z[1], z[0]) - 0.25

    def angle_gradient(z):
        r2 = z[0] ** 2 + z[1] ** 2
        return np.array([-z[1] / r2, z[0] / r2])

    angle = PhaseFunction(angle_value, angle_gradient, label="atan2(p, q) - theta0")
    return ConstraintSet(
        (
            Constraint(radial, ConstraintOrigin.GAUGE_FIXING),
            Constraint(angle, ConstraintOrigin.GAUGE_FIXING),
        ),
        2,
    )


def maxwell_mode(k) -> ToyModel:
    """One standing Fourier mode of vacuum Maxwell theory, wavevector k.

    A = a sin(k.x) and phi = f cos(k.x) give L = |adot - k f|^2 / 2 -
    |k x a|^2 / 2 on q = (a, f) (docs/derivations.md section 5a). The
    primary is p4 = p_f; the chain adds [p4, H] = -k.p (Gauss's law),
    and both are first class. With the gauge fixings f and k.a all four
    are second class, and [a_i, p_j]_D = delta_ij - k_i k_j / k^2 is the
    field projector at k. The sample point lies on the chain's surface.
    Raises ValueError unless k is a finite 3-vector with k.k finite and
    positive.
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = float(k @ k) if k.shape == (3,) else np.nan
    if not (np.isfinite(k2) and k2 > 0):
        raise ValueError("k must be a finite 3-vector with k.k finite and positive, "
                         f"got {k.tolist()}")
    w = np.diag([1.0, 1.0, 1.0, 0.0])
    b = np.zeros((4, 4))
    b[:3, 3] = -k
    kk = np.diag([0.0, 0.0, 0.0, k2])
    kk[:3, :3] = np.outer(k, k) - k2 * np.eye(3)
    a = np.array([0.3, -0.2, 0.5])
    return _lagrangian_toy("maxwell-mode", QuadraticLagrangian(w, b, kk),
                           np.concatenate([a, [0.0], np.cross(k, a), [0.0]]),
                           ("q1", "q2", "q3", "p1", "p2", "p3"))


BUILTIN_MODELS = {
    "chain-demo": chain_demo,
    "second-class-demo": second_class_demo,
    "regular-demo": regular_demo,
}


def get_model(name: str) -> ToyModel:
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_MODELS))
        raise KeyError(f"unknown model {name!r} (available: {known})") from None
    return factory()
