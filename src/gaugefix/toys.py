"""Small built-in systems exercising the constraint pipeline end to end.

The three Lagrangian toys are each one QuadraticLagrangian: legendre
turns it into the phase-space Hamiltonian and the primary constraints,
and the toy adds a point on the constraint surface for matrix
evaluations and the coordinates whose brackets are worth reporting
(docs/derivations.md sections 1-3). The nonlinear circle pair exists
purely to stress the iterative surface projection; the Coulomb mode is
a hand-typed one-mode surrogate of the gauge-fixed field system.
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


@dataclass(frozen=True)
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


def circle_pair(theta0: float = 0.25) -> ConstraintSet:
    """Nonlinear second-class pair on a 2-dimensional phase space.

    C1 = (q^2 + p^2)/2 - 1 pins the unit circle, C2 = atan2(p, q) - theta0
    pins the angle. [C1, C2] = 1 everywhere away from the origin, so the
    commutation matrix is constant even though the constraints are not
    linear: the correction step contracts quadratically instead of
    terminating in one shot.
    """
    radial = quadratic_function(np.eye(2), const=-1.0, label="(q^2 + p^2)/2 - 1")

    def angle_value(z, theta0=theta0):
        return math.atan2(z[1], z[0]) - theta0

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


def coulomb_mode_demo(k_abs: float = 1.0) -> ToyModel:
    """Single-mode surrogate of the Coulomb-gauge-fixed field system.

    One conjugate pair (a, p) standing in for a longitudinal Fourier
    amplitude with wavenumber magnitude k_abs: H = p^2 / 2 with the
    gauge-fixing pair C0 = k_abs p, C1 = k_abs a. Their commutation
    matrix is [[0, -k_abs^2], [k_abs^2, 0]] and the multipliers that
    freeze the pair are (-C0 / k_abs^2, 0).
    """
    if k_abs <= 0:
        raise ValueError("k_abs must be positive")
    dim = 2
    h = quadratic_function(np.diag([0.0, 1.0]), label="p^2/2")
    system = HamiltonianSystem.canonical(1, h)
    c0 = linear_function(np.array([0.0, k_abs]), label="k p")
    c1 = linear_function(np.array([k_abs, 0.0]), label="k a")
    pair = ConstraintSet(
        (
            Constraint(c0, ConstraintOrigin.PRIMARY),
            Constraint(c1, ConstraintOrigin.GAUGE_FIXING),
        ),
        dim,
    )
    return ToyModel(
        name="coulomb-mode",
        system=system,
        primaries=pair,
        sample_point=np.zeros(2),
    )


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
