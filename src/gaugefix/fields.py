"""Vacuum Maxwell fields on a periodic cube with spectral operators.

State is the conjugate pair (A_i, pi^i) with pi = E on an N^3 grid of
side L. The Gauss constraint div(pi) and the Coulomb condition div(A)
are the two constraint fields; the transverse projector, which is the
mode-diagonal kernel of the Dirac bracket for that pair, implements the
exact one-step correction back to the constraint surface.

All derivatives are spectral. The k = 0 mode is left untouched by the
projector and by the inverse Laplacian: spatially constant parts of A
and pi carry no divergence and stay constants of motion.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np


class FormulationKind(Enum):
    CANONICAL = "canonical"
    GAUGE_FIXED = "gauge_fixed"


class SnapshotFormatError(ValueError):
    """Snapshot file is truncated, mislabeled, or otherwise malformed."""


class SpectralWorkspace:
    """Precomputed wavenumber tables for one (grid_n, domain_length) pair.

    The Nyquist wavenumber is zeroed in the derivative tables. For real
    data the +N/2 and -N/2 modes alias onto the same stored coefficient,
    so a signed wavenumber there is not well-defined and odd operators
    like grad and div would silently lose their Nyquist content in the
    irfft round trip anyway. Zeroing makes every operator consistent on
    the resolved band |m| <= N/2 - 1 and keeps the transverse projector
    idempotent; pure Nyquist content is carried along as a constant.
    """

    def __init__(self, grid_n: int, domain_length: float):
        if grid_n < 4:
            raise ValueError(f"grid_n must be at least 4, got {grid_n}")
        domain_length = float(domain_length)
        if not (np.isfinite(domain_length) and domain_length > 0):
            raise ValueError(f"domain_length must be finite and positive, got {domain_length}")
        self.grid_n = int(grid_n)
        self.domain_length = domain_length
        spacing = domain_length / grid_n
        k1 = 2.0 * np.pi * np.fft.fftfreq(grid_n, d=spacing)
        k3 = 2.0 * np.pi * np.fft.rfftfreq(grid_n, d=spacing)
        if grid_n % 2 == 0:
            k1[grid_n // 2] = 0.0
            k3[-1] = 0.0
        self.kvec = np.stack(np.meshgrid(k1, k1, k3, indexing="ij"))
        self.k2 = np.sum(self.kvec ** 2, axis=0)
        self.inv_k2 = np.zeros_like(self.k2)
        nonzero = self.k2 > 0
        self.inv_k2[nonzero] = 1.0 / self.k2[nonzero]

    def forward(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(f, axes=(-3, -2, -1))

    def backward(self, f_hat: np.ndarray) -> np.ndarray:
        n = self.grid_n
        return np.fft.irfftn(f_hat, s=(n, n, n), axes=(-3, -2, -1))


@functools.lru_cache(maxsize=8)
def get_workspace(grid_n: int, domain_length: float) -> SpectralWorkspace:
    return SpectralWorkspace(grid_n, domain_length)


@dataclass
class FieldState:
    """Vector potential and its conjugate momentum on the grid."""

    a: np.ndarray
    pi: np.ndarray
    domain_length: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.a.ndim != 4 or self.a.shape[0] != 3:
            raise ValueError(f"a must have shape (3, N, N, N), got {self.a.shape}")
        n = self.a.shape[1]
        if self.a.shape != (3, n, n, n) or self.pi.shape != (3, n, n, n):
            raise ValueError("a and pi must both be (3, N, N, N) with a cubic grid")
        if n < 4:
            raise ValueError(f"grid must be at least 4^3, got {n}^3")
        self.domain_length = float(self.domain_length)
        if not (np.isfinite(self.domain_length) and self.domain_length > 0):
            raise ValueError("domain_length must be finite and positive")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.pi))):
            raise ValueError("field values must be finite")

    @property
    def grid_n(self) -> int:
        return self.a.shape[1]

    def workspace(self) -> SpectralWorkspace:
        return get_workspace(self.grid_n, self.domain_length)

    def copy(self) -> "FieldState":
        return FieldState(self.a.copy(), self.pi.copy(), self.domain_length)


# ---------------------------------------------------------------------------
# Spectral operators (hat-level cores and grid-level wrappers)
# ---------------------------------------------------------------------------

def k_dot(v_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """k . v per mode, for a vector field v in Fourier space."""
    kx, ky, kz = ws.kvec
    out = kx * v_hat[0]
    out += ky * v_hat[1]
    out += kz * v_hat[2]
    return out


def div_hat(v_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return 1j * k_dot(v_hat, ws)


def grad_hat(f_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return 1j * ws.kvec * f_hat


def curl_hat(v_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    kx, ky, kz = ws.kvec
    return 1j * np.stack([
        ky * v_hat[2] - kz * v_hat[1],
        kz * v_hat[0] - kx * v_hat[2],
        kx * v_hat[1] - ky * v_hat[0],
    ])


def transverse_project_hat(v_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    longitudinal = ws.kvec * (k_dot(v_hat, ws) * ws.inv_k2)
    return v_hat - longitudinal


def div(v: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return ws.backward(div_hat(ws.forward(v), ws))


def grad(f: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return ws.backward(grad_hat(ws.forward(f), ws))


def curl(v: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return ws.backward(curl_hat(ws.forward(v), ws))


def inverse_laplacian(f: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Solve lap(u) = f mode by mode; the k = 0 mode of u is set to zero."""
    return ws.backward(-ws.inv_k2 * ws.forward(f))


def transverse_project(v: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Remove grad(1/lap)div of a vector field; k = 0 passes through."""
    return ws.backward(transverse_project_hat(ws.forward(v), ws))


def longitudinal_part(v: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return v - transverse_project(v, ws)


# ---------------------------------------------------------------------------
# Equations of motion
#
# The right-hand sides state the equations directly. The integrator does
# not call them: it advances the state with a ModeMap, and the tests check
# that map against RK4 and Verlet steps built from these functions.
# ---------------------------------------------------------------------------

def momentum_rhs_hat(a_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """pi_dot = lap(A) - grad(div A), common to both formulations."""
    ka = np.sum(ws.kvec * a_hat, axis=0)
    return -ws.k2 * a_hat + ws.kvec * ka


def position_rhs_hat(pi_hat: np.ndarray, ws: SpectralWorkspace,
                     kind: FormulationKind) -> np.ndarray:
    """A_dot: the full pi (canonical) or its transverse part (gauge fixed)."""
    if kind is FormulationKind.CANONICAL:
        return pi_hat
    return transverse_project_hat(pi_hat, ws)


def rhs_hat(y_hat: np.ndarray, ws: SpectralWorkspace,
            kind: FormulationKind) -> np.ndarray:
    """Full right-hand side on the stacked hat state y = (A_hat, pi_hat)."""
    return np.stack([position_rhs_hat(y_hat[1], ws, kind),
                     momentum_rhs_hat(y_hat[0], ws)])


class ModeMap:
    """A linear map of the Fourier state (A^, pi^) that acts mode by mode.

    Each mode splits into a transverse part and a longitudinal part along
    k (docs/derivations.md section 7). The map acts on the transverse pair
    as the 2x2 block [[aa, ap], [pa, pp]], given per mode, and on the
    longitudinal pair as [[1, lp], [0, 1]] with one scalar lp for all
    modes. Where k^2 = 0 a mode has no longitudinal part and the
    transverse block acts on the whole vector.
    """

    def __init__(self, aa, ap, pa, pp, lp: float, ws: SpectralWorkspace):
        self.aa, self.ap, self.pa, self.pp = aa, ap, pa, pp
        self.lp = float(lp)
        self.ws = ws
        # apply() adds k (ga k.A + gb k.pi) to A and k (ha k.A + hb k.pi) to
        # pi: the longitudinal block minus what the transverse block did to
        # the longitudinal part, with the 1/k^2 of that part folded in.
        self._ga = (1.0 - aa) * ws.inv_k2
        self._gb = (self.lp - ap) * ws.inv_k2
        self._ha = -pa * ws.inv_k2
        self._hb = (1.0 - pp) * ws.inv_k2

    def compose(self, first: "ModeMap") -> "ModeMap":
        """The map that applies `first`, then this one."""
        return ModeMap(self.aa * first.aa + self.ap * first.pa,
                       self.aa * first.ap + self.ap * first.pp,
                       self.pa * first.aa + self.pp * first.pa,
                       self.pa * first.ap + self.pp * first.pp,
                       self.lp + first.lp, self.ws)

    def power(self, j: int) -> "ModeMap":
        """This map applied j >= 1 times, by repeated squaring."""
        result, base = None, self
        while True:
            if j & 1:
                result = base if result is None else result.compose(base)
            j >>= 1
            if not j:
                return result
            base = base.compose(base)

    def apply(self, y_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the image of the stacked state y = (A^, pi^) into out."""
        a_hat, pi_hat = y_hat
        ka = k_dot(a_hat, self.ws)
        kp = k_dot(pi_hat, self.ws)
        long_a = self._ga * ka
        long_a += self._gb * kp
        long_pi = self._ha * ka
        long_pi += self._hb * kp
        tmp = ka
        for i, k in enumerate(self.ws.kvec):
            for dst, c_a, c_pi, long in ((out[0, i], self.aa, self.ap, long_a),
                                         (out[1, i], self.pa, self.pp, long_pi)):
                np.multiply(c_a, a_hat[i], out=dst)
                dst += np.multiply(c_pi, pi_hat[i], out=tmp)
                dst += np.multiply(k, long, out=tmp)
        return out


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def l2_norm(f: np.ndarray, domain_length: float) -> float:
    """Continuum L2 norm: sqrt(sum f^2 dV) with dV = (L/N)^3."""
    n = f.shape[-1]
    dv = (float(domain_length) / n) ** 3
    return float(np.sqrt(np.sum(f ** 2) * dv))


def constraint_norms(state: FieldState):
    """(norm of div A, norm of div pi) in the continuum L2 norm."""
    ws = state.workspace()
    return (l2_norm(div(state.a, ws), state.domain_length),
            l2_norm(div(state.pi, ws), state.domain_length))


def longitudinal_norms(state: FieldState):
    """(norm of A_L, norm of pi_L), the longitudinal field content."""
    ws = state.workspace()
    return (l2_norm(longitudinal_part(state.a, ws), state.domain_length),
            l2_norm(longitudinal_part(state.pi, ws), state.domain_length))


def energy(state: FieldState) -> float:
    """H = 1/2 integral of (pi^2 + |curl A|^2)."""
    ws = state.workspace()
    b = curl(state.a, ws)
    dv = (state.domain_length / state.grid_n) ** 3
    return float(0.5 * np.sum(state.pi ** 2 + b ** 2) * dv)


def _half_spectrum_sum(sq: np.ndarray, ws: SpectralWorkspace) -> float:
    """Sum of a per-mode quantity over the full spectrum of a real field.

    sq lives on the rfft half spectrum. The kz = 0 plane and, for even N,
    the Nyquist plane hold their own mirror modes, so they count once;
    every other plane stands for itself and its mirror and counts twice.
    """
    total = 2.0 * np.sum(sq) - np.sum(sq[..., 0])
    if ws.grid_n % 2 == 0:
        total -= np.sum(sq[..., -1])
    return float(total)


def _abs2(z: np.ndarray) -> np.ndarray:
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def spectral_diagnostics(y_hat: np.ndarray, ws: SpectralWorkspace,
                         ref_hat: np.ndarray | None = None):
    """Energy and constraint norms of a Fourier state, by Parseval.

    y_hat = (A^, pi^) stacked. Returns (energy, norm of div A, norm of
    div pi, norm of A_L, norm of pi_L, L2 distance to ref_hat), the values
    energy, constraint_norms, longitudinal_norms and state_distance give on
    the grid state up to rounding; the distance is NaN without ref_hat.
    """
    a_hat, pi_hat = y_hat
    # Continuum norm: sum f^2 dV = (L/N)^3 / N^3 * sum over modes |f^|^2.
    scale = (ws.domain_length / ws.grid_n ** 2) ** 3
    ka2 = _abs2(k_dot(a_hat, ws))
    kp2 = _abs2(k_dot(pi_hat, ws))
    div_a = _half_spectrum_sum(ka2, ws)
    div_pi = _half_spectrum_sum(kp2, ws)
    a_l = _half_spectrum_sum(ka2 * ws.inv_k2, ws)
    pi_l = _half_spectrum_sum(kp2 * ws.inv_k2, ws)
    # |k x A^|^2 = k^2 |A^|^2 - |k . A^|^2; |k| A^ is exactly 0 where k = 0,
    # even when |A^|^2 itself overflows there.
    k_abs = np.sqrt(ws.k2)
    curl = sum(_half_spectrum_sum(_abs2(k_abs * c), ws) for c in a_hat) - div_a
    kinetic = sum(_half_spectrum_sum(_abs2(c), ws) for c in pi_hat)
    dist = float("nan")
    if ref_hat is not None:
        dist = float(np.sqrt(scale * sum(
            _half_spectrum_sum(_abs2(y_hat[f, i] - ref_hat[f, i]), ws)
            for f in range(2) for i in range(3))))
    return (float(0.5 * scale * (kinetic + curl)),
            float(np.sqrt(scale * div_a)), float(np.sqrt(scale * div_pi)),
            float(np.sqrt(scale * a_l)), float(np.sqrt(scale * pi_l)), dist)


def state_distance(s1: FieldState, s2: FieldState) -> float:
    """L2 distance over both fields jointly."""
    if s1.a.shape != s2.a.shape or s1.domain_length != s2.domain_length:
        raise ValueError("states live on different grids")
    da = l2_norm(s1.a - s2.a, s1.domain_length)
    dpi = l2_norm(s1.pi - s2.pi, s1.domain_length)
    return float(np.hypot(da, dpi))


# ---------------------------------------------------------------------------
# Constraint-preserving initial data and the bracket-kernel check
# ---------------------------------------------------------------------------

def correct_initial_data(a_bar: np.ndarray, pi_bar: np.ndarray,
                         domain_length: float) -> FieldState:
    """Project candidate data onto the constraint surface.

    For the (div pi, div A) pair the constraints are linear with constant
    mutual brackets, so the bracket-generated correction terminates in a
    single exact step: both fields lose their longitudinal parts. The
    constant k = 0 components are untouched.
    """
    a_bar = np.asarray(a_bar, dtype=float)
    ws = get_workspace(a_bar.shape[-1], float(domain_length))
    return FieldState(transverse_project(a_bar, ws),
                      transverse_project(np.asarray(pi_bar, dtype=float), ws),
                      float(domain_length))


def project_state(state: FieldState) -> FieldState:
    return correct_initial_data(state.a, state.pi, state.domain_length)


def dirac_kernel_check(state: FieldState, tol: float = 1e-12) -> bool:
    """Verify the implemented correction kernel mode by mode.

    Pushes unit impulses through the production transverse_project path
    and compares the resulting per-mode kernel against the projector
    delta_ij - k_i k_j / |k|^2 rebuilt from raw integer mode numbers,
    independent of the workspace tables. Mode components at the Nyquist
    frequency count as zero, matching the resolved-band convention of
    the derivative tables. Uses only the grid geometry of the state.
    """
    n = state.grid_n
    length = state.domain_length
    ws = get_workspace(n, length)

    measured = np.empty((3, 3, n, n, n // 2 + 1), dtype=complex)
    for j in range(3):
        impulse = np.zeros((3, n, n, n))
        impulse[j, 0, 0, 0] = 1.0
        measured[:, j] = ws.forward(transverse_project(impulse, ws))

    modes = np.arange(n)
    modes[modes >= (n + 1) // 2] -= n
    if n % 2 == 0:
        modes[n // 2] = 0
    half = np.arange(n // 2 + 1)
    if n % 2 == 0:
        half[-1] = 0
    mx = modes[:, None, None]
    my = modes[None, :, None]
    mz = half[None, None, :]
    k = [2.0 * np.pi * m / length for m in (mx, my, mz)]
    m2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    safe = np.where(m2 > 0, m2, 1.0)

    worst = 0.0
    for i in range(3):
        for j in range(3):
            expected = np.where(m2 > 0, (1.0 if i == j else 0.0) - k[i] * k[j] / safe,
                                1.0 if i == j else 0.0)
            worst = max(worst, float(np.max(np.abs(measured[i, j] - expected))))
    return worst <= tol


# ---------------------------------------------------------------------------
# Initial data families
# ---------------------------------------------------------------------------

def grid_coordinates(grid_n: int, domain_length: float):
    """Open (broadcastable) coordinate arrays for the cell corners."""
    x = np.arange(grid_n) * (domain_length / grid_n)
    return x[:, None, None], x[None, :, None], x[None, None, :]


def _check_mode(mode: np.ndarray, grid_n: int) -> np.ndarray:
    mode = np.asarray(mode)
    if mode.shape != (3,) or not np.all(mode == np.round(mode)):
        raise ValueError("mode must be an integer 3-vector")
    mode = mode.astype(int)
    if np.all(mode == 0):
        raise ValueError("mode must be nonzero")
    if np.max(np.abs(mode)) > grid_n // 2 - 1:
        raise ValueError(f"mode {mode.tolist()} is not resolved on an N={grid_n} grid")
    return mode


def plane_wave_initial_data(mode, polarization, amplitude: float = 1.0,
                            kind: str = "transverse", grid_n: int = 32,
                            domain_length: float = 2.0 * np.pi,
                            contamination_amplitude: float = 0.1) -> FieldState:
    """Standing plane wave A = a e cos(k.x), pi = 0, optionally contaminated.

    The polarization e is normalized and must be orthogonal to the mode
    vector so the data starts with no longitudinal content. With
    kind="contaminated" a pure-gradient momentum c * grad sin(2 pi x / L)
    is added, which violates the Gauss constraint by a known amount.
    """
    mode = _check_mode(mode, grid_n)
    e = np.asarray(polarization, dtype=float)
    if e.shape != (3,) or np.linalg.norm(e) == 0:
        raise ValueError("polarization must be a nonzero 3-vector")
    e = e / np.linalg.norm(e)
    if abs(float(e @ mode)) > 1e-12:
        raise ValueError("polarization must be orthogonal to the mode vector")
    if kind not in ("transverse", "contaminated"):
        raise ValueError(f"unknown plane wave kind {kind!r}")

    x, y, z = grid_coordinates(grid_n, domain_length)
    k = 2.0 * np.pi * mode / domain_length
    phase = k[0] * x + k[1] * y + k[2] * z
    pattern = np.cos(phase)
    a = amplitude * e[:, None, None, None] * pattern[None]
    pi = np.zeros_like(a)
    if kind == "contaminated":
        k1 = 2.0 * np.pi / domain_length
        pi[0] += contamination_amplitude * k1 * np.cos(k1 * x) * np.ones_like(phase)
    return FieldState(a, pi, domain_length)


def plane_wave_reference(mode, polarization, amplitude: float = 1.0,
                         grid_n: int = 32, domain_length: float = 2.0 * np.pi):
    """Exact standing-wave solution as a callable t -> (a, pi).

    A(t) = a e cos(k.x) cos(w t) with w = |k|, pi = dA/dt. Valid for both
    formulations since the data is purely transverse.
    """
    mode = _check_mode(mode, grid_n)
    e = np.asarray(polarization, dtype=float)
    e = e / np.linalg.norm(e)
    x, y, z = grid_coordinates(grid_n, domain_length)
    k = 2.0 * np.pi * mode / domain_length
    omega = float(np.linalg.norm(k))
    pattern = amplitude * e[:, None, None, None] * np.cos(k[0] * x + k[1] * y + k[2] * z)[None]

    def reference(t: float):
        return pattern * np.cos(omega * t), -omega * pattern * np.sin(omega * t)

    reference.omega = omega
    reference.period = 2.0 * np.pi / omega
    return reference


def random_smooth_fields(rng: np.random.Generator, grid_n: int,
                         domain_length: float, amplitude: float = 1.0):
    """Band-limited Gaussian random fields, one draw for A and one for pi.

    White noise is low-passed with a Gaussian filter falling to ~e^-8 by
    mode number 8, then each field is rescaled to the requested rms
    amplitude. Returned raw: callers decide whether to project.
    """
    ws = get_workspace(grid_n, float(domain_length))
    base = (2.0 * np.pi / domain_length) ** 2
    filt = np.exp(-ws.k2 / (8.0 * base))
    out = []
    for _ in range(2):
        white = rng.standard_normal((3, grid_n, grid_n, grid_n))
        smooth = ws.backward(filt * ws.forward(white))
        rms = float(np.sqrt(np.mean(smooth ** 2)))
        out.append(smooth * (amplitude / rms if rms > 0 else 1.0))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Snapshot IO
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = b"GFSN"
_SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIId")
_COMPONENTS = ["a_x", "a_y", "a_z", "pi_x", "pi_y", "pi_z"]


def write_snapshot(state: FieldState, path) -> None:
    """Write a field state as little-endian float64 grids plus a JSON sidecar.

    Layout: 20-byte header (magic, version, N, L), then the six
    components in order a_x a_y a_z pi_x pi_y pi_z, each a C-ordered
    N^3 block. The sidecar at <path>.json repeats the geometry so the
    file is self-describing without a hex editor.
    """
    path = Path(path)
    header = _HEADER.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION,
                          state.grid_n, state.domain_length)
    with open(path, "wb") as fh:
        fh.write(header)
        for comp in (*state.a, *state.pi):
            fh.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())
    sidecar = {
        "format": "gaugefix-snapshot",
        "version": _SNAPSHOT_VERSION,
        "grid_n": state.grid_n,
        "domain_length": state.domain_length,
        "dtype": "float64",
        "byte_order": "little",
        "layout": "C",
        "components": _COMPONENTS,
    }
    with open(path.with_name(path.name + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_snapshot(path) -> FieldState:
    """Read a snapshot written by write_snapshot; raises SnapshotFormatError."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"snapshot {path} is too short for a header")
    magic, version, grid_n, length = _HEADER.unpack_from(raw)
    if magic != _SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"snapshot {path} has bad magic {magic!r}")
    if version != _SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"snapshot {path} has unsupported version {version}")
    if grid_n < 4 or not (np.isfinite(length) and length > 0):
        raise SnapshotFormatError(f"snapshot {path} header is invalid "
                                  f"(N={grid_n}, L={length})")
    expected = _HEADER.size + 6 * grid_n ** 3 * 8
    if len(raw) != expected:
        raise SnapshotFormatError(f"snapshot {path} has {len(raw)} bytes, "
                                  f"expected {expected}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    grids = data.reshape(6, grid_n, grid_n, grid_n)
    try:
        return FieldState(grids[:3].copy(), grids[3:].copy(), length)
    except ValueError as exc:
        raise SnapshotFormatError(f"snapshot {path} payload invalid: {exc}") from exc
