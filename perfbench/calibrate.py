"""Host-speed probe: fixed kernels that do not use gaugefix.

The reference machine is two vCPUs of a shared host whose speed changes by
up to 2x within seconds, as other tenants come and go; CPU time moves with
wall time, so the work is not waiting but running slower. Timing a fixed
kernel interleaved with the program's work measures that speed (reference
time over probe time), and the program's time multiplied by it is the time
the work would take at the reference speed: a change of the program moves
it, a change of the host's speed mostly does not.

Kernels (each block is a fixed amount of work, the same in every commit):

- "py": interpreter-bound, a Python loop of small-array numpy calls and
  scalar arithmetic, the kind of work of the finite half (phase,
  constraints).
- "arith 32": array-bound, element-wise complex arithmetic on the half
  spectrum of a 3-component field on a 32^3 grid (wavevector products,
  sums over components, stacking), the kind of work of spectral stepping.
- "fft 64": real 3D FFT round trips of a 3-component field on a 64^3 grid
  with a little element-wise work between, the kind of work of per-row
  field diagnostics.

child.py runs the timed work of a served workload under a `Pacer`: a
SIGALRM timer runs one block every SLICE_S seconds of it (~10% more wall
time), so probe and work alternate at a fine grain, and the probe time is
taken out of the work's time. (cli_short, made of short commands, is
probed between commands instead: workloads.spawn_probe.)
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Wall seconds of one block on the reference machine (baseline.json), rounded:
# the host speed 1.0. The scale is arbitrary; compare scaled times only with
# scaled times of this benchmark.
REF_S = {"py": 0.050, "arith 32": 0.045, "fft 64": 0.055}
SLICE_S = 0.5


def py_block() -> None:
    x = np.array([0.3, -0.2, 0.5, 0.1])
    e = np.eye(4)
    acc = 0.0
    for i in range(1200):
        h = 1e-6 * (1 + i % 3)
        g = np.empty(4)
        for k in range(4):
            g[k] = (float(x @ (x + h * e[k])) - float(x @ (x - h * e[k]))) / (2 * h)
        acc += sum(v * v for v in g.tolist())
    if not acc > 0.0:
        raise RuntimeError("calibration kernel produced no result")


def _spectral_arrays(n: int):
    """A 3-component real field on an n^3 grid, its rfft and wavevectors."""
    rng = np.random.default_rng(n)
    field = rng.standard_normal((3, n, n, n))
    k1 = np.fft.fftfreq(n, 1.0 / n)
    k3 = np.fft.rfftfreq(n, 1.0 / n)
    kvec = np.stack(np.meshgrid(k1, k1, k3, indexing="ij"))
    k2 = np.sum(kvec ** 2, axis=0) + 1.0
    return field, np.fft.rfftn(field, axes=(1, 2, 3)), kvec, k2


def arith_block(n: int, reps: int):
    """Element-wise complex arithmetic on half-spectrum arrays, no FFT."""
    _, v_hat, kvec, k2 = _spectral_arrays(n)

    def block() -> None:
        y = np.stack([v_hat, 0.5 * v_hat])
        for _ in range(reps):
            kv = np.sum(kvec * y[0], axis=0)
            dy = np.stack([y[1] - kvec * (kv / k2), -k2 * y[0] + kvec * kv])
            y = y + 1e-3 * dy
        if not np.isfinite(y[0, 0, 1, 1, 1]):
            raise RuntimeError("calibration kernel produced no result")

    return block


def fft_block(n: int, reps: int):
    """Real 3D FFT round trips with a little element-wise work between."""
    field, _, kvec, k2 = _spectral_arrays(n)

    def block() -> None:
        f = field
        for _ in range(reps):
            f_hat = np.fft.rfftn(f, axes=(1, 2, 3))
            div = np.sum(kvec * f_hat, axis=0)
            f = np.fft.irfftn(f_hat - kvec * (div / k2), s=(n, n, n), axes=(1, 2, 3))
        if not np.isfinite(f[0, 0, 0, 0]):
            raise RuntimeError("calibration kernel produced no result")

    return block


# Kernel name -> block factory; each block is ~50 ms on the reference machine.
KERNELS = {
    "py": lambda: py_block,
    "arith 32": lambda: arith_block(32, 24),
    "fft 64": lambda: fft_block(64, 1),
}


def kernel(name: str):
    """The block of a kernel name, warmed up (allocation, FFT plans, caches)."""
    block = KERNELS[name]()
    block()
    return block


def timed(block) -> tuple[float, float]:
    c0 = time.process_time()
    w0 = time.perf_counter()
    block()
    return time.perf_counter() - w0, time.process_time() - c0


class Pacer:
    """Interleave probe blocks with a piece of work and time both apart.

    Every SLICE_S seconds of wall time a SIGALRM handler runs one block in
    this process, between two bytecodes of the work (a long C call finishes
    first). Nothing of the work changes; system calls the signal interrupts
    are retried by Python.
    """

    def __init__(self, name: str):
        self.name = name
        self.block = kernel(name)
        self.probes: list[tuple[float, float, float]] = []  # (start, wall, cpu)

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        wall, cpu = timed(self.block)
        self.probes.append((start, wall, cpu))

    def run(self, work):
        """Call work(); return its value and a dict of times and host speed.

        raw_run_s and raw_cpu_s are the work's wall and CPU seconds without
        the probes; speed and cpu_speed are REF_S over the mean probe time.
        """
        previous = signal.signal(signal.SIGALRM, self._probe)
        c0 = time.process_time()
        w0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
        try:
            value = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            w1 = time.perf_counter()
            cpu = time.process_time() - c0
            signal.signal(signal.SIGALRM, previous)
        inside = [p for p in self.probes if w0 <= p[0] < w1]
        if not self.probes:  # work shorter than one slice: probe once after it
            self._probe()
        ref = REF_S[self.name]
        return value, {
            "raw_run_s": (w1 - w0) - sum(p[1] for p in inside),
            "raw_cpu_s": cpu - sum(p[2] for p in inside),
            "speed": ref / statistics.fmean(p[1] for p in self.probes),
            "cpu_speed": ref / statistics.fmean(p[2] for p in self.probes),
            "probes": len(self.probes),
        }
