"""Time integration with constraint diagnostics.

The field evolution keeps the state in spectral form and advances it by
the per-mode amplification map of its stepper (the linear system is
diagonal in Fourier modes), applied as one matrix power per block of
steps between diagnostics rows. Diagnostics are sampled on a stride,
written as CSV with a fixed column set, and evolution aborts (flagged,
not raised) as soon as a non-finite value appears in the state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import fields
from .constraints import ConstraintSet, extended_flow
from .fields import FieldState, FormulationKind, SpectralWorkspace
from .phase import HamiltonianSystem, as_phase_point, hamiltonian_flow

CSV_HEADER = "t,energy,norm_divA,norm_divPi,norm_A_L,norm_pi_L,l2_error"

# Most passes one evolve call may make through its loop: diagnostics rows
# and reprojections, or single steps when steps cannot be batched. A run
# asking for more is refused up front instead of running for ages and
# growing its row list without bound.
MAX_LOOP_PASSES = 1_000_000


class StepperKind(Enum):
    RK4 = "rk4"
    STORMER_VERLET = "stormer_verlet"


@dataclass
class DiagnosticsSeries:
    """Sampled scalar diagnostics of one field evolution.

    final_state is the last finite state, or None (and the run aborted)
    when that state's finite spectrum overflows on the grid.
    """

    t: np.ndarray
    energy: np.ndarray
    norm_divA: np.ndarray
    norm_divPi: np.ndarray
    norm_A_L: np.ndarray
    norm_pi_L: np.ndarray
    l2_error: np.ndarray
    final_state: FieldState | None
    aborted: bool = False
    abort_time: float | None = None

    def to_csv(self, path) -> None:
        """Write all rows; missing reference errors serialize as 'nan'."""
        columns = (self.t, self.energy, self.norm_divA, self.norm_divPi,
                   self.norm_A_L, self.norm_pi_L, self.l2_error)
        with open(Path(path), "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in zip(*columns):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _coerce_formulation(formulation) -> FormulationKind:
    if isinstance(formulation, FormulationKind):
        return formulation
    return FormulationKind(str(formulation).replace("-", "_"))


def _coerce_stepper(stepper) -> StepperKind:
    if isinstance(stepper, StepperKind):
        return stepper
    return StepperKind(str(stepper).replace("-", "_"))


def _finite(y_hat: np.ndarray) -> bool:
    return bool(np.isfinite(y_hat).all())


def _stable(method: StepperKind, x_max: float) -> bool:
    """Whether every power of the one-step map stays bounded for h^2 k^2 <= x_max.

    RK4's stability polynomial has |R(iy)| <= 1 for y^2 <= 8; the Verlet
    map has determinant 1 and |trace| < 2 for x < 4.
    """
    if method is StepperKind.RK4:
        return x_max <= 8.0
    return x_max < 4.0


def _step_map(method: StepperKind, kind: FormulationKind, h: float,
              ws: SpectralWorkspace) -> fields.ModeMap:
    """Per-mode amplification of one step (docs/derivations.md section 7).

    With x = h^2 k^2, RK4 on the transverse oscillator is
    [[c, s], [-k^2 s, c]], c = 1 - x/2 + x^2/24, s = h (1 - x/6), and
    kick-drift-kick Verlet is [[1 - x/2, h], [-k^2 h (1 - x/4), 1 - x/2]].
    Both steppers are exact on the longitudinal pair: A_L += h pi_L in the
    canonical formulation, nothing moves once gauge-fixed.
    """
    k2 = ws.k2
    x = h * h * k2
    if method is StepperKind.RK4:
        c = 1.0 - x / 2.0 + x * x / 24.0
        s = h * (1.0 - x / 6.0)
        blocks = (c, s, -k2 * s, c)
    else:
        d = 1.0 - x / 2.0
        blocks = (d, np.full_like(k2, h), -k2 * h * (1.0 - x / 4.0), d)
    lp = h if kind is FormulationKind.CANONICAL else 0.0
    return fields.ModeMap(*blocks, lp=lp, ws=ws)


def _step_count(dt: float, t_end: float) -> int:
    """t_end / dt rounded to whole steps, refusing non-finite or empty runs."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    steps = t_end / dt
    if not np.isfinite(steps):
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} is not a finite step count")
    n_steps = int(round(steps))
    if n_steps < 1:
        raise ValueError(f"t_end={t_end} is less than one step dt={dt}")
    return n_steps


def _next_event(step: int, n_steps: int, stride: int,
                reproject_every: int | None) -> int:
    """First step after `step` that writes a row, reprojects or ends the run."""
    nxt = min(n_steps, (step // stride + 1) * stride)
    if reproject_every is not None:
        nxt = min(nxt, (step // reproject_every + 1) * reproject_every)
    return nxt


def evolve(initial: FieldState, formulation, stepper, dt: float, t_end: float,
           reproject_every: int | None = None, reference=None,
           stride: int | None = None) -> DiagnosticsSeries:
    """Integrate the field equations and collect diagnostics.

    t_end is rounded to a whole number of steps. Diagnostics rows land at
    t = 0, every `stride` steps (default 1 for N <= 32, else 10), and the
    final step. With `reference` (a callable t -> (a, pi)) the l2_error
    column holds the joint L2 distance to it, otherwise NaN. When
    reproject_every = n, the transverse projection is applied to both
    fields every n steps, before any diagnostics due at that step.

    The steps between two such events are applied at once, as a power of
    the one-step map, when dt is inside the stepper's stability interval
    for every mode. Otherwise they are applied one at a time, so that
    abort_time is the last step whose state was finite. A run that would
    pass through its loop more than MAX_LOOP_PASSES times (rows plus
    reprojections, or steps when they go one at a time) raises ValueError
    before anything is allocated.
    """
    kind = _coerce_formulation(formulation)
    method = _coerce_stepper(stepper)
    n_steps = _step_count(dt, t_end)
    if reproject_every is not None and reproject_every < 1:
        raise ValueError("reproject_every must be a positive integer")
    ws = initial.workspace()
    if stride is None:
        stride = 1 if initial.grid_n <= 32 else 10
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    stable = _stable(method, dt * dt * float(ws.k2.max()))
    passes = n_steps if not stable else (
        n_steps // stride + 1 + (n_steps // reproject_every if reproject_every else 0))
    if passes > MAX_LOOP_PASSES:
        raise ValueError(
            f"run of {n_steps:.3g} steps needs {passes:.3g} passes (rows and "
            f"reprojections, or single steps), more than the limit of {MAX_LOOP_PASSES}")

    y = ws.forward(np.stack([initial.a, initial.pi]))
    out = np.empty_like(y)
    rows: list[tuple[float, ...]] = []

    def record(t: float, y_hat: np.ndarray) -> None:
        ref_hat = None if reference is None else ws.forward(np.stack(reference(t)))
        energy, div_a, div_pi, a_l, pi_l, err = fields.spectral_diagnostics(
            y_hat, ws, ref_hat)
        rows.append((t, energy, div_a, div_pi, a_l, pi_l, err))

    step_map = _step_map(method, kind, dt, ws)
    # Few block lengths recur: the stride, the last partial block, and the
    # gaps between rows and reprojections.
    block_map = functools.lru_cache(maxsize=4)(step_map.power)

    aborted = False
    abort_time = None
    step = 0
    last_recorded = 0
    # Overflow on the way to a detected abort is expected, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        record(0.0, y)
        while step < n_steps:
            j = _next_event(step, n_steps, stride, reproject_every) - step if stable else 1
            block_map(j).apply(y, out)
            if not _finite(out):
                aborted = True
                abort_time = step * dt
                if last_recorded != step:
                    record(abort_time, y)
                break
            y, out = out, y
            step += j
            if reproject_every is not None and step % reproject_every == 0:
                y[0] = fields.transverse_project_hat(y[0], ws)
                y[1] = fields.transverse_project_hat(y[1], ws)
            if step % stride == 0 or step == n_steps:
                record(step * dt, y)
                last_recorded = step
        grid = ws.backward(y)

    final_state = FieldState(grid[0], grid[1], initial.domain_length) if _finite(grid) else None
    if final_state is None and not aborted:
        # A finite spectrum near the overflow threshold can overflow on the grid.
        aborted, abort_time = True, step * dt
    data = np.array(rows)
    return DiagnosticsSeries(
        t=data[:, 0], energy=data[:, 1], norm_divA=data[:, 2],
        norm_divPi=data[:, 3], norm_A_L=data[:, 4], norm_pi_L=data[:, 5],
        l2_error=data[:, 6], final_state=final_state,
        aborted=aborted, abort_time=abort_time,
    )


@dataclass
class FiniteSeries:
    """Trajectory samples of a finite-dimensional evolution."""

    t: np.ndarray
    states: np.ndarray
    hamiltonian: np.ndarray
    constraint_values: np.ndarray | None
    aborted: bool = False
    abort_time: float | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def evolve_finite(system: HamiltonianSystem, z0, dt: float, t_end: float,
                  constraint_set: ConstraintSet | None = None,
                  stride: int = 1) -> FiniteSeries:
    """RK4 trajectory of a finite system, optionally with frozen multipliers.

    Without constraints this integrates the plain Hamiltonian flow. With
    a (second-class) constraint set the flow is extended by the
    gauge-fixed multiplier terms, re-solved at every stage evaluation, so
    the constraint values should stay at their initial size up to
    integration error. More than MAX_LOOP_PASSES steps raise ValueError.
    """
    n_steps = _step_count(dt, t_end)
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    if n_steps > MAX_LOOP_PASSES:
        raise ValueError(f"run needs {n_steps:.3g} steps, more than the limit of {MAX_LOOP_PASSES}")

    z = as_phase_point(z0).astype(float).copy()
    if constraint_set is None:
        def rhs(pt):
            return hamiltonian_flow(system, pt)
    else:
        def rhs(pt):
            return extended_flow(system, constraint_set, pt)

    ts, zs = [], []

    def record(t, pt):
        ts.append(t)
        zs.append(pt.copy())

    record(0.0, z)
    aborted = False
    abort_time = None
    last_recorded = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            try:
                k1 = rhs(z)
                k2 = rhs(z + 0.5 * dt * k1)
                k3 = rhs(z + 0.5 * dt * k2)
                k4 = rhs(z + dt * k3)
                z_next = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            except (FloatingPointError, OverflowError, ValueError):
                # z0 was validated up front, so a ValueError here is the
                # phase-point check rejecting an intermediate state that
                # overflowed inside a stage; treat it like any blowup.
                z_next = np.full_like(z, np.nan)
            if not np.all(np.isfinite(z_next)):
                aborted = True
                abort_time = (step - 1) * dt
                if last_recorded != step - 1:
                    record(abort_time, z)
                break
            z = z_next
            if step % stride == 0 or step == n_steps:
                record(step * dt, z)
                last_recorded = step

    states = np.array(zs)
    # Recorded states are finite, but scalars derived from nearly
    # overflowed ones may still saturate to inf.
    with np.errstate(over="ignore", invalid="ignore"):
        hvals = np.array([system.hamiltonian(pt) for pt in states])
        cvals = None
        if constraint_set is not None:
            cvals = np.array([constraint_set.values(pt) for pt in states])
    return FiniteSeries(np.array(ts), states, hvals, cvals,
                        aborted=aborted, abort_time=abort_time)
