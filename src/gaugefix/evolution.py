"""Time integration with constraint diagnostics.

The field system is linear and diagonal in Fourier modes, and a mode's
one-step map depends on it only through k^2. So the field evolution
groups modes into k^2 shells and carries, between diagnostics rows, each
shell's transverse and longitudinal second moments of (A^, pi^): a block
of j steps takes a moment matrix G to M^j G M^jT. Modes carried as
explicit vectors go through one loop with the moments, advanced by the
same maps on their transverse and longitudinal parts: a spectral
reference's support, or every mode where the moments cannot stand in
for the state (an unstable step, overflowing moments, a reference
without a spectral form). The final state is one map power applied to
every mode of the initial spectrum, built when it is first read.
Diagnostics are sampled on a stride, written as CSV with a fixed column
set, and evolution aborts (flagged, not raised) as soon as a non-finite
value appears in the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(eq=False)
class DiagnosticsSeries:
    """Sampled scalar diagnostics of one field evolution.

    final_state is the last finite state, or None (and the run aborted)
    when that state's finite spectrum overflows on the grid. A run read
    off shell moments holds the initial spectrum and the shell maps
    instead, and builds the state from them when final_state is first
    read: one map power on every mode, the reprojection if any, one
    transform back to the grid. The state is then kept and the spectrum
    released. Such a run does not abort on the grid (docs/derivations.md
    section 7), so a non-finite result there raises FloatingPointError.
    The final state takes no part in repr. Series compare by identity:
    == never looks at the arrays, so it neither raises nor builds the
    final state.
    """

    t: np.ndarray
    energy: np.ndarray
    norm_divA: np.ndarray
    norm_divPi: np.ndarray
    norm_A_L: np.ndarray
    norm_pi_L: np.ndarray
    l2_error: np.ndarray
    aborted: bool = False
    abort_time: float | None = None
    _final: FieldState | _FinalState | None = field(default=None, repr=False)

    @property
    def final_state(self) -> FieldState | None:
        if isinstance(self._final, _FinalState):
            self._final = self._final.build()
        return self._final

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


def _grid_state(y_hat: np.ndarray, ws: SpectralWorkspace) -> FieldState | None:
    """The state of spectrum y_hat on the grid, or None where it is not finite there."""
    grid = ws.backward(y_hat)
    return FieldState(grid[0], grid[1], ws.domain_length) if _finite(grid) else None


def _stable(method: StepperKind, x_max: float) -> bool:
    """Whether every power of the one-step map stays bounded for h^2 k^2 <= x_max.

    RK4's stability polynomial has |R(iy)| <= 1 for y^2 <= 8; the Verlet
    map has determinant 1 and |trace| < 2 for x < 4.
    """
    if method is StepperKind.RK4:
        return x_max <= 8.0
    return x_max < 4.0


def _step_blocks(method: StepperKind, h: float, k2: np.ndarray) -> tuple:
    """Transverse block (aa, ap, pa, pp) of one step at each k^2 (derivations section 7).

    With x = h^2 k^2, RK4 on the transverse oscillator is
    [[c, s], [-k^2 s, c]], c = 1 - x/2 + x^2/24, s = h (1 - x/6), and
    kick-drift-kick Verlet is [[1 - x/2, h], [-k^2 h (1 - x/4), 1 - x/2]].
    Both steppers are exact on the longitudinal pair: A_L += h pi_L in the
    canonical formulation, nothing moves once gauge-fixed.
    """
    x = h * h * k2
    if method is StepperKind.RK4:
        c = 1.0 - x / 2.0 + x * x / 24.0
        s = h * (1.0 - x / 6.0)
        return c, s, -k2 * s, c
    d = 1.0 - x / 2.0
    return d, np.full_like(k2, h), -k2 * h * (1.0 - x / 4.0), d


def _compose(m: tuple, first: tuple) -> tuple:
    """The 2x2 blocks that apply `first`, then m."""
    aa, ap, pa, pp = m
    fa, fb, fc, fd = first
    return aa * fa + ap * fc, aa * fb + ap * fd, pa * fa + pp * fc, pa * fb + pp * fd


class _ShellMaps:
    """The one-step map on each k^2 shell and its powers.

    The longitudinal block of j steps is [[1, j lp], [0, 1]] for every mode.
    """

    def __init__(self, method: StepperKind, kind: FormulationKind, h: float,
                 ws: SpectralWorkspace):
        self.ws = ws
        self.step = _step_blocks(method, h, ws.shells[0])
        self.lp = h if kind is FormulationKind.CANONICAL else 0.0

    def power(self, j: int) -> tuple:
        """Transverse blocks of j >= 1 steps, by repeated squaring."""
        result, base = None, self.step
        while True:
            if j & 1:
                result = base if result is None else _compose(result, base)
            j >>= 1
            if not j:
                return result
            base = _compose(base, base)


class _FinalState:
    """A moment-path run's final state, until it is first read.

    Holds the initial spectrum y0 and the shell maps, untouched by the run.
    The state is the n-step map applied to every mode of y0, with its
    longitudinal part dropped if the run reprojected at all: the map keeps
    a zero longitudinal part zero.
    """

    def __init__(self, y0: np.ndarray, maps: _ShellMaps, n_steps: int, reprojected: bool):
        self.y0, self.maps, self.n_steps = y0, maps, n_steps
        self.reprojected = reprojected

    def build(self) -> FieldState:
        ws = self.maps.ws
        modes = _Support(ws, None)
        with np.errstate(over="ignore", invalid="ignore"):
            y = modes.advance(self.maps.power(self.n_steps), self.n_steps * self.maps.lp, self.y0)
            if self.reprojected:
                y = modes.split(y)[0]
            state = _grid_state(y, ws)
        if state is None:
            # Finite moments in the last row bound every grid value.
            raise FloatingPointError(
                "final state is not finite on the grid although the run's moments were")
        return state


def _congruence(m: tuple, g: np.ndarray) -> np.ndarray:
    """M G M^T per shell, for symmetric G stored as rows (aa, ap, pp)."""
    m_aa, m_ap, m_pa, m_pp = m
    g_aa, g_ap, g_pp = g
    # Rows of M G.
    x_a, x_p = m_aa * g_aa + m_ap * g_ap, m_aa * g_ap + m_ap * g_pp
    y_a, y_p = m_pa * g_aa + m_pp * g_ap, m_pa * g_ap + m_pp * g_pp
    return np.stack([x_a * m_aa + x_p * m_ap, x_a * m_pa + x_p * m_pp,
                     y_a * m_pa + y_p * m_pp])


class _Support:
    """Modes carried as explicit vectors outside the shells.

    With an index, these are a spectral reference's support, where the
    distance to the reference is summed mode by mode; the index is empty
    without such a reference. With index None they are every mode of the
    half spectrum, held as views of the workspace tables (`whole`), and
    the shells are empty.
    """

    def __init__(self, ws: SpectralWorkspace, index: tuple | None = ((), (), ())):
        k2, shell_of = ws.shells
        self.n_shells = len(k2)
        self.whole = index is None
        self.index = (Ellipsis,) if self.whole else tuple(
            np.asarray(i, dtype=np.intp) for i in index)
        self.shell = shell_of.reshape(ws.k2.shape)[self.index]
        self.kvec = ws.kvec[(slice(None), *self.index)]
        self.inv_k2 = ws.inv_k2[self.index]
        self.weight = ws.plane_weight[self.index[-1]]
        # Shell index of every mode, with the support moved past the last shell.
        self.shell_of = shell_of
        if self.shell.size:
            self.shell_of = shell_of.copy()
            self.shell_of.reshape(ws.k2.shape)[self.index] = self.n_shells

    def take(self, y_hat: np.ndarray) -> np.ndarray:
        return y_hat[(slice(None), slice(None), *self.index)]

    def split(self, y_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(transverse, longitudinal) parts of the support vectors."""
        coef = np.sum(self.kvec * y_s, axis=1) * self.inv_k2
        long = self.kvec * coef[:, None]
        return y_s - long, long

    def advance(self, m: tuple, lp: float, y_s: np.ndarray) -> np.ndarray:
        """Apply the transverse blocks m and the longitudinal [[1, lp], [0, 1]].

        The two parts are advanced apart: pi_L passes through as it is and
        A_L gains lp pi_L, however much the transverse block amplifies.
        """
        (a_t, p_t), (a_l, p_l) = self.split(y_s)
        aa, ap, pa, pp = (b[self.shell] for b in m)
        return np.stack([aa * a_t + ap * p_t + a_l + lp * p_l, pa * a_t + pp * p_t + p_l])

    def moments(self, y_s: np.ndarray):
        return fields.mode_moments(y_s, self.kvec, self.inv_k2, self.weight,
                                   self.shell, self.n_shells)


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

    Rows are read off per-shell second moments, advanced between rows by
    the map powers on each k^2 shell, and the final state is one map power
    applied to the initial spectrum when series.final_state is first read.
    A reference that carries a spectral form (`support` and `spectrum(t)`,
    as plane_wave_reference gives) is compared on its support, whose modes
    the same loop carries as explicit vectors. The loop carries every mode
    explicitly instead, and reads the rows off the state, when dt is
    outside the stepper's stability interval for some mode (then one step
    at a time, so that abort_time is the last step whose state was
    finite), when a moment is not finite (the run restarts from step 0),
    and when the reference has no spectral form (it is then transformed at
    every row). A run that would pass through its loop more than
    MAX_LOOP_PASSES times (rows plus reprojections, or steps when they go
    one at a time) raises ValueError before anything is allocated.
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
    maps = _ShellMaps(method, kind, dt, ws)
    run = (stable, n_steps, dt, stride, reproject_every, reference)
    # Overflow on the way to a detected abort or a restart is expected, not
    # a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        result = None
        if stable and (reference is None or hasattr(reference, "spectrum")):
            support = _Support(ws) if reference is None else _Support(ws, reference.support)
            result = _run(y, maps, support, *run)
        if result is not None:
            # The last row's moments are finite, so the final state cannot
            # overflow on the grid: it is built when first read.
            rows, _, step = result
            reprojected = reproject_every is not None and reproject_every <= n_steps
            final = _FinalState(y, maps, n_steps, reprojected)
        else:
            rows, y, step = _run(y, maps, _Support(ws, None), *run)
            final = _grid_state(y, ws)
    # A finite spectrum near the overflow threshold can overflow on the grid.
    aborted = step < n_steps or final is None

    data = np.array(rows)
    return DiagnosticsSeries(
        t=data[:, 0], energy=data[:, 1], norm_divA=data[:, 2],
        norm_divPi=data[:, 3], norm_A_L=data[:, 4], norm_pi_L=data[:, 5],
        l2_error=data[:, 6], aborted=aborted,
        abort_time=step * dt if aborted else None, _final=final,
    )


def _run(y0: np.ndarray, maps: _ShellMaps, support: _Support, stable: bool,
         n_steps: int, dt: float, stride: int, reproject_every: int | None, reference):
    """Rows of one run: the support modes as vectors, every other mode as moments.

    Returns (rows, the support vectors at the last finite step, that
    step). A step short of n_steps means the run aborted there, which only
    a run with every mode explicit does: otherwise a value that is not
    finite returns None at once. y0 is left as it is.
    """
    ws = maps.ws
    if support.whole:
        g_t = g_l = np.zeros((3, support.n_shells))
    else:
        g_t, g_l = fields.shell_moments(y0, ws, support.shell_of)
    y_s = support.take(y0)
    rows: list[tuple[float, ...]] = []

    def record(t: float) -> None:
        if support.whole:
            ref_hat = None if reference is None else ws.forward(np.stack(reference(t)))
            rows.append((t, *fields.spectral_diagnostics(y_s, ws, ref_hat)))
            return
        dist2 = None
        if reference is not None:
            # Off the support the reference is zero: the distance there is
            # the state's own moments. On it, |y - r|^2 mode by mode.
            dist2 = (np.sum(g_t[0]) + np.sum(g_t[2]) + np.sum(g_l[0]) + np.sum(g_l[2])
                     + np.sum(support.weight * np.abs(y_s - reference.spectrum(t)) ** 2))
        s_t, s_l = support.moments(y_s)
        rows.append((t, *fields.diagnostics_row(g_t + s_t, g_l + s_l, ws, dist2)))

    def finite(g_t, g_l, y_s) -> bool:
        return _finite(g_t) and _finite(g_l) and _finite(y_s)

    if not (support.whole or finite(g_t, g_l, y_s)):
        return None
    record(0.0)
    step = 0
    last_recorded = 0
    while step < n_steps:
        j = _next_event(step, n_steps, stride, reproject_every) - step if stable else 1
        m = maps.power(j)
        s = j * maps.lp
        a_l, ap_l, p_l = g_l
        nxt = (_congruence(m, g_t),
               np.stack([a_l + 2.0 * s * ap_l + s * s * p_l, ap_l + s * p_l, p_l]),
               support.advance(m, s, y_s))
        if reproject_every is not None and (step + j) % reproject_every == 0:
            nxt = nxt[0], np.zeros_like(g_l), support.split(nxt[2])[0]
        if not finite(*nxt):
            if not support.whole:
                return None
            if last_recorded != step:
                record(step * dt)
            return rows, y_s, step
        g_t, g_l, y_s = nxt
        step += j
        if step % stride == 0 or step == n_steps:
            record(step * dt)
            last_recorded = step
    return rows, y_s, step


@dataclass(eq=False)
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
