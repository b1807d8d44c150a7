"""Time integration with constraint diagnostics.

The field system is linear and diagonal in Fourier modes, and a mode's
one-step map depends on it only through k^2. So the field evolution
groups modes into k^2 shells and carries, between diagnostics rows, each
shell's transverse and longitudinal second moments of (A^, pi^): a block
of j steps takes a moment matrix G to M^j G M^jT. Modes carried as
explicit vectors go through one loop with the moments, advanced by the
same maps on their transverse and longitudinal parts: a spectral
reference's support, every mode where the moments cannot stand in for
the state (an unstable step, or a state that may overflow), or, for
initial data given by a few Fourier coefficients, those and the
reference's alone. Every carrier reads its rows at one power of two per
run. The per-mode algebra (k . v, the transverse split, the Parseval
rows) is fields.Modes. The final state is built when it is first read.
Diagnostics are sampled on a stride, written as CSV with a fixed column
set, and evolution aborts (flagged, not raised) at the first step or
block end where the state is not finite.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import fields
from .fields import FieldState, FormulationKind, SpectralWorkspace

if TYPE_CHECKING:
    from .constraints import ConstraintSet
    from .phase import HamiltonianSystem

CSV_HEADER = "t,energy,norm_divA,norm_divPi,norm_A_L,norm_pi_L,l2_error"

# Most passes one evolve call may make through its loop: diagnostics rows
# and reprojections, or single steps when steps cannot be batched. A run
# asking for more is refused up front instead of running for ages and
# growing its row list without bound.
MAX_LOOP_PASSES = 1_000_000

# Bytes of recorded states (vectors, reference coefficients, moments) that
# one fields.Modes.rows call stacks. A state larger than this is built
# alone, so an every-mode run on a large grid still goes row by row.
ROW_STACK_BYTES = 2 ** 21


class StepperKind(Enum):
    RK4 = "rk4"
    STORMER_VERLET = "stormer_verlet"


@dataclass(eq=False)
class DiagnosticsSeries:
    """Sampled scalar diagnostics of one field evolution.

    aborted means the state stopped being finite; abort_time is then the
    time of the last finite state the run reached (a run in blocks reaches
    its rows and reprojections, not every step, and checks only a block's
    end: it steps past a state that overflows inside a block and is finite
    again at its end). final_state is that state on the grid, built by one
    backward transform of the run's last spectrum when it is first read,
    then kept and the spectrum released; it reads None where that finite
    spectrum overflows on the grid, which is no abort. A run read off shell
    moments gives the spectrum as one map power on every mode of the
    initial spectrum, the longitudinal part left out if the run
    reprojected; a run carrying explicit vectors, as the vectors set into a
    zero half spectrum (every mode: the spectrum as it is).
    The final state takes no part in repr. Series compare by identity:
    == never looks at the arrays, so it never builds the final state.
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
    _final: FieldState | Callable[[], FieldState | None] | None = field(default=None, repr=False)

    @property
    def final_state(self) -> FieldState | None:
        if callable(self._final):
            self._final = self._final()
        return self._final

    def to_csv(self, path) -> None:
        """Write all rows; missing reference errors serialize as 'nan'."""
        columns = (self.t, self.energy, self.norm_divA, self.norm_divPi,
                   self.norm_A_L, self.norm_pi_L, self.l2_error)
        with open(Path(path), "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in zip(*columns):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _coerce(kind: type[Enum], value) -> Enum:
    """value as a member of kind, its value spelled with - or _ (else ValueError)."""
    return value if isinstance(value, kind) else kind(str(value).replace("-", "_"))


def _finite(y_hat: np.ndarray) -> bool:
    return bool(np.isfinite(y_hat).all())


def _grid_state(spectrum: Callable[[], np.ndarray], ws: SpectralWorkspace) -> FieldState | None:
    """The state of spectrum() on the grid, or None where it is not finite there."""
    with np.errstate(over="ignore", invalid="ignore"):
        grid = ws.backward(spectrum())
    return FieldState(grid[0], grid[1], ws.domain_length) if _finite(grid) else None


def _stable(method: StepperKind, x_max: float) -> bool:
    """Whether every power of the one-step map stays bounded for h^2 k^2 <= x_max.

    RK4's stability polynomial has |R(iy)| <= 1 for y^2 <= 8; the Verlet
    map has determinant 1 and |trace| < 2 for x < 4, and a Jordan block at
    x = 4 (sympy check: tests/test_derivation_oracle.py,
    TestFieldStepMapDerivation).
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
    canonical formulation, nothing moves once gauge-fixed. Both blocks are
    checked with sympy in tests/test_derivation_oracle.py,
    TestFieldStepMapDerivation.
    """
    x = h * h * k2
    if method is StepperKind.RK4:
        c = 1.0 - x / 2.0 + x * x / 24.0
        s = h * (1.0 - x / 6.0)
        return c, s, -k2 * s, c
    d = 1.0 - x / 2.0
    return d, np.full_like(k2, h), -k2 * h * (1.0 - x / 4.0), d


def _compose(m: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The 2x2 blocks, stacked (2, 2, shells), that apply `first`, then m."""
    return m[:, :1] * first[:1] + m[:, 1:] * first[1:]


class _ShellMaps:
    """The one-step map on each shell of the k^2 table k2, and its powers.

    The longitudinal block of j steps is [[1, j lp], [0, 1]] for every mode.
    """

    def __init__(self, method: StepperKind, kind: FormulationKind, h: float, k2: np.ndarray):
        self.step = np.reshape(_step_blocks(method, h, k2), (2, 2) + np.shape(k2))
        self.lp = h if kind is FormulationKind.CANONICAL else 0.0

    def power(self, j: int) -> np.ndarray:
        """Transverse blocks [[aa, ap], [pa, pp]] of j >= 1 steps, by repeated squaring."""
        result, base = None, self.step
        while True:
            if j & 1:
                result = base if result is None else _compose(result, base)
            j >>= 1
            if not j:
                return result
            base = _compose(base, base)


def _congruence(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """M G M^T per shell, for symmetric G stored as rows (aa, ap, pp)."""
    (m_aa, m_ap), (m_pa, m_pp) = m
    g_aa, g_ap, g_pp = g
    # Rows of M G.
    x_a, x_p = m_aa * g_aa + m_ap * g_ap, m_aa * g_ap + m_ap * g_pp
    y_a, y_p = m_pa * g_aa + m_pp * g_ap, m_pa * g_ap + m_pp * g_pp
    return np.stack([x_a * m_aa + x_p * m_ap, x_a * m_pa + x_p * m_pp,
                     y_a * m_pa + y_p * m_pp])


class _Support(fields.Modes):
    """Modes the loop carries as explicit vectors: a fields.Modes set with
    the reference's entries at ref_at (every mode: at its support), and the
    step blocks in mode shape; one split and one step for either carrier."""

    ref_at = slice(None)

    def __init__(self, *modes):
        super().__init__(*modes)
        self._blocks = {}

    def advance(self, maps: _ShellMaps, j: int, y_s: np.ndarray,
                reproject: bool = False) -> np.ndarray:
        """Apply j steps: the transverse blocks and the longitudinal [[1, j lp], [0, 1]].

        The two parts are advanced apart: A_L + j lp pi_L and pi_L are added,
        in place and in that order, to aa A_T + ap pi_T and pa A_T + pp pi_T,
        however much the transverse block amplifies. With reproject (a pass
        that ends in the transverse projection) they are left out: the
        transverse block's part is the projected state, with no second
        split. The blocks are gathered into mode shape once per j (up to
        four kept).
        """
        if j not in self._blocks:
            if len(self._blocks) >= 4:
                self._blocks.clear()
            self._blocks[j] = maps.power(j)[..., self.shell]
        (aa, ap), (pa, pp) = self._blocks[j]
        (a_t, p_t), (a_l, p_l) = self.split(y_s)
        out, buf = np.empty_like(y_s), np.empty_like(a_l)
        for row, from_a, from_p, long in zip(out, (aa, pa), (ap, pp), (a_l, p_l)):
            np.multiply(from_a, a_t, out=row)
            row += np.multiply(from_p, p_t, out=buf)
            if not reproject:
                row += long
        if not reproject:
            out[0] += np.multiply(j * maps.lp, p_l, out=buf)
        return out


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


def _positive_int(name: str, value) -> int:
    """value as an int, refusing a bool, a value that is not an integer, or one below 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _next_event(step: int, n_steps: int, stride: int,
                reproject_every: int | None) -> int:
    """First step after `step` that writes a row, reprojects or ends the run."""
    nxt = min(n_steps, (step // stride + 1) * stride)
    if reproject_every is not None:
        nxt = min(nxt, (step // reproject_every + 1) * reproject_every)
    return nxt


def evolve(initial: FieldState | fields.SparseSpectrum, formulation, stepper, dt: float,
           t_end: float, reproject_every: int | None = None, reference=None,
           stride: int | None = None) -> DiagnosticsSeries:
    """Integrate the field equations and collect diagnostics.

    t_end is rounded to a whole number of steps. Diagnostics rows land at
    t = 0, every `stride` steps (default 1 for N <= 32, else 10), and the
    final step. With `reference` (an exact solution in spectral form, see
    below) the l2_error column holds the joint L2 distance to it, otherwise
    NaN. When reproject_every = n, the transverse projection is applied to
    both fields every n steps, before any diagnostics due at that step.

    A grid state is read off per-shell second moments, advanced between rows
    by the map powers on each k^2 shell.
    A reference has a spectral form (`support`, `spectrum(t)`, and their
    `grid_n` and `domain_length`, as plane_wave_reference gives; else
    TypeError, and ValueError for another grid), compared on its support,
    whose modes the same loop carries as explicit vectors. Every carrier
    reads its rows at one power of two, the fields.row_lift of the initial
    spectrum (the moments are taken of it times 2^lift): data scaled by 2^j
    give rows scaled by 2^j (the energy by 2^2j) bit for bit.

    The other carrier is explicit vectors on a mode set, with no moments,
    and rows read off the vectors. Every mode is carried so when dt is
    outside the stepper's stability interval for some mode (then one step
    at a time, so that abort_time is the last step whose state was
    finite), and when the state may overflow: the moments, read at the
    data's own scale, no longer bound its coefficient magnitudes below
    2^1000 (the run restarts from step 0; moments read at a lift can stay
    finite while the coefficients overflow, so this bound is what finds
    the abort). A SparseSpectrum (as plane_wave_spectrum gives)
    is carried as its entries and the reference's, and nothing else: modes
    without content stay zero under the mode-diagonal map, and stability
    is judged on these modes. On this carrier a value that is not finite
    aborts.

    Every run ends one way: aborted only where the state stopped being
    finite, and the final state built from the last finite spectrum when
    series.final_state is first read, None where it overflows on the grid
    (see DiagnosticsSeries). So a SparseSpectrum run makes no N^3 array
    before then.

    stride and reproject_every must be integers (not bools) of at least 1.
    These, and a run that would pass through its loop more than
    MAX_LOOP_PASSES times (rows plus reprojections, or steps when they go
    one at a time), raise ValueError before anything is allocated.
    """
    kind = _coerce(FormulationKind, formulation)
    method = _coerce(StepperKind, stepper)
    n_steps = _step_count(dt, t_end)
    if reproject_every is not None:
        reproject_every = _positive_int("reproject_every", reproject_every)
    ws = initial.workspace()
    if reference is not None and not hasattr(reference, "spectrum"):
        raise TypeError("reference has no spectral form, as fields.plane_wave_reference gives")
    if reference is not None and (
            (reference.grid_n, reference.domain_length) != (ws.grid_n, ws.domain_length)):
        raise ValueError(
            f"reference is for N={reference.grid_n}, L={reference.domain_length!r}; "
            f"the initial data is for N={ws.grid_n}, L={ws.domain_length!r}")
    sparse = isinstance(initial, fields.SparseSpectrum)
    if stride is None:
        stride = 1 if initial.grid_n <= 32 else 10
    stride = _positive_int("stride", stride)
    ref_support = getattr(reference, "support", np.zeros((3, 0), dtype=int))
    k2_max = ws.k2_max
    if sparse:
        shape = (ws.grid_n, ws.grid_n, ws.grid_n // 2 + 1)
        flat = np.concatenate([np.ravel_multi_index(i, shape)
                               for i in (initial.support, ref_support)])
        # Sorted sets here and in fields.Modes: a plain np.unique imports numpy.ma.
        entries = np.array(sorted(set(flat.tolist())), dtype=np.intp)
        support = _Support(ws, np.unravel_index(entries, shape))
        at, support.ref_at = np.split(np.searchsorted(entries, flat), [initial.support[0].size])
        k2_max = np.max(support.k2, initial=0.0)
    stable = _stable(method, dt * dt * float(k2_max))
    passes = n_steps if not stable else (
        n_steps // stride + 1 + (n_steps // reproject_every if reproject_every else 0))
    if passes > MAX_LOOP_PASSES:
        raise ValueError(
            f"run of {n_steps:.3g} steps needs {passes:.3g} passes (rows and "
            f"reprojections, or single steps), more than the limit of {MAX_LOOP_PASSES}")

    run = (stable, n_steps, dt, stride, reproject_every, reference)
    # Overflow on the way to a detected abort or a restart is expected, not
    # a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        result = None
        if sparse:
            y = np.zeros((2, 3, entries.size), dtype=complex)
            y[..., at] = initial.coeff
        else:
            y = initial.half_spectrum()
            support = _Support(ws)
        lift = support.lift = fields.row_lift(y)
        maps = _ShellMaps(method, kind, dt, support.k2)
        if stable and not sparse:
            every = fields.Modes(ws)
            carried = _Support(ws, ref_support, every.k2)
            carried.lift = lift
            # The carried modes moved past the last shell, out of the moments.
            if carried.shell.size:
                every.shell = every.shell.copy()
                every.shell[carried.index] = len(every.k2)
            g = every.moments(y[None] * np.ldexp(1.0, lift) if lift else y[None])[0]
            result = _run(y[(slice(None), slice(None), *carried.index)], g, maps, carried, *run)
            if result is not None:
                # The last spectrum is one map power on every mode; a zero
                # longitudinal part stays zero after the last reprojection.
                rows, _, step = result
                reprojected = reproject_every is not None and reproject_every <= n_steps
                spectrum = partial(support.advance, maps, n_steps, y, reprojected)
        if result is None:
            # Explicit vectors on a mode set (the sparse entries, or every
            # mode), with nothing outside it.
            rows, y, step = _run(y, None, maps, support, *run)
            spectrum = (lambda: y) if support.whole else fields.SparseSpectrum(
                ws.grid_n, ws.domain_length, support.index, y).half_spectrum
    aborted = step < n_steps

    return DiagnosticsSeries(
        t=rows[:, 0], energy=rows[:, 1], norm_divA=rows[:, 2],
        norm_divPi=rows[:, 3], norm_A_L=rows[:, 4], norm_pi_L=rows[:, 5],
        l2_error=rows[:, 6], aborted=aborted,
        abort_time=step * dt if aborted else None, _final=partial(_grid_state, spectrum, ws),
    )


def _run(y_s: np.ndarray, g, maps: _ShellMaps, support: _Support, stable: bool,
         n_steps: int, dt: float, stride: int, reproject_every: int | None, reference):
    """Rows of one run: the support modes as vectors, every other mode as moments.

    g is the (6, shells) fields.Modes.moments table of the modes outside
    the support, taken of the state times 2^support.lift, or None when the
    support holds all the content: rows are then read off the vectors
    alone and a value that is not finite aborts the run. Returns (rows as
    an array with t first, the support vectors at the last finite step,
    that step); a step short of n_steps means the run aborted there. With
    moments, None returns at once where the state may overflow: its
    magnitudes, bounded by the moments at the data's own scale, reach
    2^1000 (derivations section 7). Moments read at a lift can stay finite
    past that, so the bound is what hands the run to the every-mode
    carrier, which finds the abort.

    A row records (t, vectors, moments). The recorded states go to
    fields.Modes.rows as one stack when the run ends or aborts, or before
    the stack would pass ROW_STACK_BYTES.
    """
    rows: list[np.ndarray] = []
    saved: list[tuple] = []
    saved_bytes = 0

    def build() -> None:
        nonlocal saved_bytes
        ts, ys, gs = zip(*saved)
        ref = None
        if reference is not None:
            ref = np.zeros((len(ts),) + ys[0].shape, dtype=complex)
            at = (Ellipsis, *(reference.support if support.whole else (support.ref_at,)))
            ref[at] = reference.spectrum(np.array(ts))
        g_stack = None if gs[0] is None else np.stack(gs)
        rows.append(np.column_stack([ts, support.rows(np.stack(ys), ref, g_stack)]))
        saved.clear()
        saved_bytes = 0

    def record(t: float) -> None:
        nonlocal saved_bytes
        size = y_s.nbytes * (1 if reference is None else 2) + (0 if g is None else g.nbytes)
        if saved and saved_bytes + size > ROW_STACK_BYTES:
            build()
        saved.append((t, y_s, g))
        saved_bytes += size

    def finite(g, y_s) -> bool:
        if g is None:
            return _finite(y_s)
        squares = 6.0 * support.ws.grid_n ** 3 * (np.sum(g[0:3:2]) + np.sum(g[3::2]))
        bound = np.sum(support.weight * np.abs(y_s)) + np.ldexp(np.sqrt(squares), -support.lift)
        return _finite(g) and bool(bound < 2.0 ** 1000)

    if g is not None and not finite(g, y_s):
        return None
    record(0.0)
    step = 0
    last_recorded = 0
    while step < n_steps:
        j = _next_event(step, n_steps, stride, reproject_every) - step if stable else 1
        reproject = reproject_every is not None and (step + j) % reproject_every == 0
        y_next = support.advance(maps, j, y_s, reproject)
        g_next = None
        if g is not None:
            s = j * maps.lp
            a_l, ap_l, p_l = g[3:]
            long = np.zeros_like(g[3:]) if reproject else np.stack(
                [a_l + 2.0 * s * ap_l + s * s * p_l, ap_l + s * p_l, p_l])
            g_next = np.concatenate([_congruence(maps.power(j), g[:3]), long])
        if not finite(g_next, y_next):
            if g is not None:
                return None
            if last_recorded != step:
                record(step * dt)
            build()
            return np.concatenate(rows), y_s, step
        g, y_s = g_next, y_next
        step += j
        if step % stride == 0 or step == n_steps:
            record(step * dt)
            last_recorded = step
    build()
    return np.concatenate(rows), y_s, step


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
    gauge-fixed multiplier terms, so the constraint values should stay at
    their initial size up to integration error. Either flow is the
    constant A z + b of constraints.LinearModel.flow, built once, and the
    recorded H and constraint values are read off the same model. A
    Hamiltonian without coefficients or a non-affine constraint raises
    LinearModel.of's ValueError; so do a z0 of the wrong dimension and
    more than MAX_LOOP_PASSES steps.
    """
    # The finite half loads with its only user here, not with the field runs.
    from .constraints import ConstraintSet, LinearModel
    from .phase import as_phase_point

    n_steps = _step_count(dt, t_end)
    stride = _positive_int("stride", stride)
    if n_steps > MAX_LOOP_PASSES:
        raise ValueError(f"run needs {n_steps:.3g} steps, more than the limit of {MAX_LOOP_PASSES}")

    z = as_phase_point(z0)
    if z.size != 2 * system.n_dof:
        raise ValueError(f"point has dimension {z.size}, system expects {2 * system.n_dof}")
    model = LinearModel.of(system, ConstraintSet((), z.size)
                           if constraint_set is None else constraint_set)
    a, b = model.flow()

    # Each step makes a new z and nothing is written in place, so the
    # states are recorded as they are: zs[-1] is z when z is recorded.
    ts, zs = [0.0], [z]
    abort_time = None
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = a @ z + b
            k2 = a @ (z + 0.5 * dt * k1) + b
            k3 = a @ (z + 0.5 * dt * k2) + b
            k4 = a @ (z + dt * k3) + b
            z_next = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z_next)):
                abort_time = (step - 1) * dt
                if zs[-1] is not z:
                    ts.append(abort_time)
                    zs.append(z)
                break
            z = z_next
            if step % stride == 0 or step == n_steps:
                ts.append(step * dt)
                zs.append(z)

        states = np.array(zs)
        # Recorded states are finite, but scalars derived from nearly
        # overflowed ones may still saturate to inf.
        hvals, cvals = model.values(states)
    return FiniteSeries(np.array(ts), states, hvals, None if constraint_set is None else cvals,
                        aborted=abort_time is not None, abort_time=abort_time)
