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
import os
import stat
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
    """Wavenumber tables for one (grid_n, domain_length) pair.

    The Nyquist wavenumber is zeroed in the derivative tables. For real
    data the +N/2 and -N/2 modes alias onto the same stored coefficient,
    so a signed wavenumber there is not well-defined and odd operators
    like grad and div would silently lose their Nyquist content in the
    irfft round trip anyway. Zeroing makes every operator consistent on
    the resolved band |m| <= N/2 - 1 and keeps the transverse projector
    idempotent; pure Nyquist content is carried along as a constant.

    The axes k1 (x, y) and k3 (rfft z), the plane weights, the largest
    k^2 and the Parseval scale (L/N^2)^3 are set up front; the tables
    k2, inv_k2, shells on first use; the wavevector is k_axes, three views
    of k1 and k3 that broadcast. A geometry whose wavenumbers, k^2 or
    scale are not finite and nonzero in float64 raises ValueError. forward
    and backward go one leading index at a time, into out if given, with
    the bits of one rfftn or irfftn over the whole stack: they make its
    one-axis passes in its order, each with out=. forward's passes run in
    place in out, so it allocates nothing beyond out; backward's two
    complex passes run in one half-spectrum scratch that every index
    reuses. Neither changes its input.
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
        with np.errstate(all="ignore"):
            # The mode numbers times 1 / (N spacing): fftfreq's and rfftfreq's own
            # arithmetic, without importing numpy.fft.
            val = 1.0 / (grid_n * spacing)
            m = np.arange(grid_n)
            m[(grid_n + 1) // 2:] -= grid_n
            self.k1 = k1 = 2.0 * np.pi * (m * val)
            self.k3 = k3 = 2.0 * np.pi * (np.arange(grid_n // 2 + 1) * val)
            if grid_n % 2 == 0:
                k1[grid_n // 2] = 0.0
                k3[-1] = 0.0
            # Rounding is monotone, so this is k2.max() bit for bit.
            self.k2_max = float(np.max(k1 ** 2) + np.max(k1 ** 2) + np.max(k3 ** 2))
            self.scale = float(np.float64(domain_length / grid_n ** 2) ** 3)
            # A NaN or inf wavenumber makes k2_max NaN or inf.
            in_range = k1[1] ** 2 > 0 and np.isfinite(self.k2_max) and 0 < self.scale < np.inf
        if not in_range:
            raise ValueError(f"an N={grid_n} grid of side L={domain_length!r} is outside "
                             "float64 range: its wavenumbers, k^2 or Parseval scale "
                             "(L/N^2)^3 are not finite and nonzero")
        self.k_axes = (k1[:, None, None], k1[None, :, None], k3[None, None, :])
        # Parseval weight of each rfft plane: the kz = 0 and (even N) Nyquist
        # planes hold their own mirror modes and count once; every other
        # plane stands for itself and its mirror and counts twice.
        self.plane_weight = np.full(k3.size, 2.0)
        self.plane_weight[0] = 1.0
        if grid_n % 2 == 0:
            self.plane_weight[-1] = 1.0

    @functools.cached_property
    def k2(self) -> np.ndarray:
        kx, ky, kz = self.k_axes
        return kx ** 2 + ky ** 2 + kz ** 2

    @functools.cached_property
    def inv_k2(self) -> np.ndarray:
        return np.divide(1.0, self.k2, out=np.zeros_like(self.k2), where=self.k2 > 0)

    @functools.cached_property
    def shells(self) -> tuple[np.ndarray, np.ndarray]:
        """(k^2 of each shell, flat shell index of each mode).

        Modes are grouped by their exact k^2, so every mode of a shell has
        the same one-step map. Shells are sorted by k^2: shell 0 is k^2 = 0,
        which holds the mean mode and the pure-Nyquist modes.
        """
        k2, index = np.unique(self.k2.ravel(), return_inverse=True)
        return k2, index

    def forward(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(f.shape[:-1] + (f.shape[-1] // 2 + 1,), complex) if out is None else out
        for i in np.ndindex(f.shape[:-3]):
            # rfftn's passes, in its order: rfft on z, then fft on y and x in place.
            _fft_yx(np.fft.rfft(f[i], axis=2, out=out[i]))
        return out

    def backward(self, f_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n = self.grid_n
        out = np.empty(f_hat.shape[:-3] + (n, n, n)) if out is None else out
        scratch = np.empty((n, n, n // 2 + 1), complex)
        for i in np.ndindex(f_hat.shape[:-3]):
            self._inverse(f_hat[i], scratch, out[i])
        return out

    def _inverse(self, f_hat: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
        """irfftn of one half spectrum into out, in its order of passes: ifft on x and on
        y into scratch, then irfft on z. scratch may be f_hat, whose bytes are then lost."""
        np.fft.ifft(f_hat, axis=0, out=scratch)
        np.fft.ifft(scratch, axis=1, out=scratch)
        return np.fft.irfft(scratch, self.grid_n, axis=2, out=out)


def _fft_yx(part: np.ndarray) -> None:
    """rfftn's passes after the one on z: fft on y, then on x, in place in part."""
    np.fft.fft(part, axis=1, out=part)
    np.fft.fft(part, axis=0, out=part)


@functools.lru_cache(maxsize=8)
def get_workspace(grid_n: int, domain_length: float) -> SpectralWorkspace:
    return SpectralWorkspace(grid_n, domain_length)


@dataclass(eq=False)
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
        self.check_finite()

    def check_finite(self) -> None:
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.pi))):
            raise ValueError("field values must be finite")

    @property
    def grid_n(self) -> int:
        return self.a.shape[1]

    def workspace(self) -> SpectralWorkspace:
        return get_workspace(self.grid_n, self.domain_length)

    def half_spectrum(self) -> np.ndarray:
        """The (2, 3, N, N, N/2+1) half spectrum of (a, pi), each forwarded into its half."""
        ws, n = self.workspace(), self.grid_n
        y_hat = np.empty((2, 3, n, n, n // 2 + 1), dtype=complex)
        for f, part in zip((self.a, self.pi), y_hat):
            ws.forward(f, out=part)
        return y_hat

    def copy(self) -> "FieldState":
        return FieldState(self.a.copy(), self.pi.copy(), self.domain_length)


@dataclass(eq=False)
class SparseSpectrum:
    """Field data with few nonzero Fourier coefficients: evolve advances them alone.

    support holds three index arrays into the rfft half spectrum (the form
    plane_wave_reference's support has) and coeff the (2, 3, entries)
    coefficients of (A, pi) there; every other coefficient is zero.
    Coefficients that are not finite raise ValueError.
    """

    grid_n: int
    domain_length: float
    support: tuple
    coeff: np.ndarray

    def __post_init__(self):
        self.support = tuple(np.asarray(i, dtype=np.intp) for i in self.support)
        self.coeff = np.asarray(self.coeff, dtype=complex)
        if not np.isfinite(self.coeff).all():
            raise ValueError("Fourier coefficients must be finite")

    def workspace(self) -> SpectralWorkspace:
        return get_workspace(self.grid_n, float(self.domain_length))

    def half_spectrum(self) -> np.ndarray:
        n = self.grid_n
        y_hat = np.zeros((2, 3, n, n, n // 2 + 1), dtype=complex)
        y_hat[(slice(None), slice(None), *self.support)] = self.coeff
        return y_hat


# ---------------------------------------------------------------------------
# Spectral operators
# ---------------------------------------------------------------------------

def k_dot(v: np.ndarray, kvec) -> np.ndarray:
    """k . v per mode, over v's component axis; kvec is the three components of k.

    Listed modes' (3, entries) table takes one product and one sum over that
    axis; every mode's three broadcasting views go one component at a time
    through one product buffer, to save memory. Both add onto zero in the
    same order, so the first product gets + 0.0 (-0 becomes +0).
    """
    if isinstance(kvec, np.ndarray):
        return np.add.reduce(kvec * v, axis=-kvec.ndim)
    lead = (slice(None),) * (v.ndim - 1 - kvec[0].ndim)
    dot = kvec[0] * v[lead + (0,)]
    dot += 0.0
    buf = None
    for i in (1, 2):
        buf = np.multiply(kvec[i], v[lead + (i,)], out=buf)
        dot += buf
    return dot


def _abs2(z: np.ndarray) -> np.ndarray:
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def _extent(q: np.ndarray):
    """(largest |re| or |im|, NaN if q holds NaN; whether all finite), by reductions."""
    ends = np.array([f(part, initial=0.0) for part in (q.real, q.imag) for f in (np.max, np.min)])
    return np.max(np.abs(ends)), np.isfinite(ends).all()


def overflow_shift(y_hat: np.ndarray) -> int | None:
    """The power of two that scales y_hat's peak near 2^256 (-256 for 0); None if not finite."""
    peak, finite = _extent(y_hat)
    return int(np.frexp(peak)[1]) - 256 if finite else None


def row_lift(y_hat: np.ndarray) -> int:
    """The power of two that Modes.rows reads a run's states at: -overflow_shift(y_hat)
    (at most 1021) where y_hat's peak is outside [2^-400, 2^400), else 0."""
    shift = overflow_shift(y_hat) or 0
    return 0 if -400 < shift + 256 <= 400 else min(-shift, 1021)


def _coef(v: np.ndarray, kvec, inv_k2) -> np.ndarray:
    """k . v / k^2 per mode: Modes.coef. Only where a coefficient is not
    finite is v's overflow_shift taken, for the redo."""
    coef = k_dot(v, kvec)
    coef *= inv_k2
    if not np.isfinite(coef).all() and (shift := overflow_shift(v)) is not None and shift > 0:
        redo = ~np.isfinite(coef)
        scaled = k_dot(v * np.ldexp(1.0, -shift), kvec) * inv_k2
        coef[redo] = scaled[redo] * np.ldexp(1.0, shift)
    return coef


class Modes:
    """Tables of a set of Fourier modes, and the per-mode algebra on them.

    Modes(ws) is every mode of the half spectrum, with views of the
    workspace's tables; Modes(ws, index) the half-spectrum entries that
    three index arrays list, with wavevectors from the workspace's axes
    and shells from the table k2 (by default their own k^2). The tables
    are the wavevector kvec (ws.k_axes for every mode, a (3, entries)
    table for listed entries), inv_k2 = 1/k^2 (0 at k = 0), the Parseval
    weight, the shell table k2 with each mode's shell index, and the
    Parseval factor scale = (L/N^2)^3. For every mode, k2 and shell come
    from ws.shells on first use. split does not need them, nor does
    _remove_longitudinal, its every-mode transverse part in place.
    """

    def __init__(self, ws: SpectralWorkspace, index: tuple | None = None,
                 k2: np.ndarray | None = None):
        self.ws = ws
        self.scale = ws.scale
        self.whole = index is None
        if self.whole:
            self.index = (Ellipsis,)
            self.kvec, self.inv_k2, self.weight = ws.k_axes, ws.inv_k2, ws.plane_weight
            return
        self.index = tuple(np.asarray(i, dtype=np.intp) for i in index)
        ix, iy, iz = self.index
        self.kvec = np.stack([ws.k1[ix], ws.k1[iy], ws.k3[iz]])
        k2_modes = np.sum(self.kvec ** 2, axis=0)
        self.inv_k2 = np.divide(1.0, k2_modes, out=np.zeros_like(k2_modes), where=k2_modes > 0)
        # A sorted set: a plain np.unique imports numpy.ma.
        self.k2 = np.array(sorted(set(k2_modes.tolist()))) if k2 is None else k2
        self.shell = np.searchsorted(self.k2, k2_modes)
        self.weight = ws.plane_weight[iz]

    @functools.cached_property
    def k2(self) -> np.ndarray:
        return self.ws.shells[0]

    @functools.cached_property
    def shell(self) -> np.ndarray:
        return self.ws.shells[1].reshape(self.ws.k2.shape)

    def coef(self, v: np.ndarray) -> np.ndarray:
        """k . v / k^2 per mode: v's longitudinal part is k times it.

        v's component axis is the one before the mode axes. Where k . v
        overflows for a finite v (terms of opposite sign give NaN), it is
        computed again from v scaled by a power of two.
        """
        return _coef(v, self.kvec, self.inv_k2)

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(transverse, longitudinal) parts of vectors v on these modes."""
        coef = self.coef(v)
        long = np.stack([k * coef for k in self.kvec], axis=-4) if self.whole else (
            self.kvec * coef[..., None, :])
        del coef  # Not alive next to both outputs: that is a projection's peak.
        return v - long, long

    def moments(self, y: np.ndarray):
        """Transverse and longitudinal second moments of these modes, summed per shell.

        y = (A^, pi^) stacked, for R states: shape (R, 2, 3, *modes). Modes
        whose shell index is the number of shells are left out. Returns one
        (R, 6, shells) table: the weighted sums of |A^|^2, Re A^ . conj(pi^)
        and |pi^|^2 over the transverse part of a shell's modes (moments
        0-2), then over the longitudinal part (3-5). The transverse part is
        the projected mode itself, not the full moment minus the
        longitudinal one, so a longitudinal part that overflows when squared
        leaves it finite. It is made one component at a time. The weights
        are applied once and one bincount sums the table, moment m of state
        r in the bins from (6 r + m)(shells + 1); each bin adds its modes in
        the order a single moment's bincount does.
        """
        n_rows, n_shells = y.shape[0], len(self.k2)
        # A_L^ = k alpha, pi_L^ = k beta.
        inv_k2 = self.inv_k2
        dot = k_dot(y, self.kvec)
        ka, kp = dot[:, 0], dot[:, 1]
        q = np.zeros((n_rows, 6) + inv_k2.shape)
        q[:, 3] = _abs2(ka) * inv_k2
        q[:, 4] = (ka.real * kp.real + ka.imag * kp.imag) * inv_k2
        q[:, 5] = _abs2(kp) * inv_k2
        alpha = ka * inv_k2
        beta = kp * inv_k2
        del dot, ka, kp
        for i, k in enumerate(self.kvec):
            a_t = y[:, 0, i] - k * alpha
            pi_t = y[:, 1, i] - k * beta
            q[:, 0] += _abs2(a_t)
            q[:, 1] += a_t.real * pi_t.real
            q[:, 1] += a_t.imag * pi_t.imag
            q[:, 2] += _abs2(pi_t)
        q *= self.weight
        bins = self.shell.ravel() + (n_shells + 1) * np.arange(6 * n_rows)[:, None]
        sums = np.bincount(bins.ravel(), q.ravel(), minlength=6 * n_rows * (n_shells + 1))
        return sums.reshape(n_rows, 6, n_shells + 1)[..., :n_shells]

    lift = 0  # rows reads its states and reference times 2^lift, and g as so taken

    def rows(self, y: np.ndarray, ref: np.ndarray | None = None, g: np.ndarray | None = None):
        """Diagnostics rows of a stack of states by Parseval (docs/derivations.md section 7).

        y = (A^, pi^) of R states on these modes, shape (R, 2, 3, *modes),
        ref the reference's coefficients there (shaped like y), and g, an
        (R, 6, shells) table as moments gives, the moments of every other
        mode, where the reference is zero, taken of the states times
        2^self.lift; without g these modes hold all the content. Returns an
        (R, 6) array whose columns are energy, norm of div A, norm of div
        pi, norm of A_L, norm of pi_L and L2 distance to the reference:
        H = 1/2 integral of (pi^2 + |curl A|^2) and continuum L2 norms of
        the grid states, equal to the grid sums up to rounding (diagnostics
        gives one state's row); the distance is NaN without ref. Every sum
        runs along a contiguous last axis, one state per row, so a state's
        row does not depend on the other states of the stack.

        The columns are taken of y and ref times 2^lift (a run's row_lift,
        so that squares neither under- nor overflow) and scaled back, the
        energy by 2^-2 lift; powers of two scale exactly. A state grown past
        that range (an unstable step) can still square past ~1e308, and
        k . A^ from terms of opposite sign overflow to NaN: a row with a
        column not finite (bar the distance without ref) is redone alone
        from its y and ref times 2^-s, s the overflow_shift of their peak,
        and only those columns are scaled back from there, so a column far
        below the largest keeps all its digits.
        """
        k2, scale = self.k2, self.scale
        # A k^2 = 0 shell (first if present) adds nothing to k^2 A_T, even where A_T overflows.
        skip = int(k2.size > 0 and k2[0] == 0.0)

        def total(q):
            # Each state's values along one contiguous last axis.
            return np.sum(q.reshape(q.shape[0], q[0].size), axis=-1)

        def columns(y, ref, g):
            m = self.moments(y)
            dist = np.full(y.shape[0], np.nan)
            if ref is not None:
                squares = (self.weight * _abs2(y - ref)).reshape(len(y), 6, -1)
                dist2 = np.add.reduce(np.add.reduce(squares, axis=-1), axis=1)
                if g is not None:
                    # Off these modes the distance is the state's own moments.
                    dist2 = dist2 + sum(total(g[:, p]) for p in (0, 2, 3, 5))
                dist = np.sqrt(scale * dist2)
            if g is not None:
                m = m + g
            energy = total(m[:, 2]) + total(m[:, 5]) + total(k2[skip:] * m[:, 0, skip:])
            return np.stack([0.5 * scale * energy,
                             np.sqrt(scale * total(k2 * m[:, 3])),
                             np.sqrt(scale * total(k2 * m[:, 5])),
                             np.sqrt(scale * total(m[:, 3])),
                             np.sqrt(scale * total(m[:, 5])), dist], axis=1)

        powers = np.array([2, 1, 1, 1, 1, 1])
        lift = self.lift
        up = np.ldexp(1.0, lift)
        out = columns(y * up, None if ref is None else ref * up, g) if lift else columns(y, ref, g)
        exponents = np.zeros(out.shape, dtype=int) - lift * powers
        redo = ~np.isfinite(out)
        if ref is None:
            redo[:, 5] = False
        for r in np.flatnonzero(redo.any(axis=1)):
            shift = max(overflow_shift(q[r]) or 0 for q in (y, ref) if q is not None)
            if shift + lift > 0:
                factor = np.ldexp(1.0, -shift)
                one, keep = slice(r, r + 1), redo[r]
                g_one = None if g is None else np.ldexp(g[one], -2 * (shift + lift))
                scaled = columns(y[one] * factor, None if ref is None else ref[one] * factor, g_one)
                out[r, keep] = scaled[0, keep]
                exponents[r, keep] = powers[keep] * shift
        return np.ldexp(out, exponents)


def transverse_project(v: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Remove grad(1/lap)div of a vector field; k = 0 passes through. Beyond v and the
    result it holds v's half spectrum, projected and inverted in place per component."""
    f_hat = _remove_longitudinal(ws.forward(v), ws)
    out = np.empty(v.shape)
    for i in np.ndindex(f_hat.shape[:-3]):
        ws._inverse(f_hat[i], f_hat[i], out[i])
    return out


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _plane_k(ws: SpectralWorkspace, x: int) -> tuple:
    """The wavevector on the kx plane x: ws.k_axes there, three views that broadcast."""
    kx, ky, kz = ws.k_axes
    return kx[x], ky[0], kz[0]


def _ldexp(z: np.ndarray, n: int) -> np.ndarray:
    """z 2^n, each part rounded once: np.ldexp on the real and imaginary parts."""
    out = np.empty_like(z)
    np.ldexp(z.real, n, out=out.real)
    np.ldexp(z.imag, n, out=out.imag)
    return out


def _div_norm(f_hat: np.ndarray, ws: SpectralWorkspace, squares: np.ndarray) -> float:
    """div_norm_hat(f_hat, ws), one kx plane at a time through squares, an (N, N, N/2+1) buffer.

    The weighted squares of k . f^ fill squares plane by plane, and one np.sum
    adds them as it adds a whole array. f^ is read at one power of two, 2^-e,
    and the norm scaled back by 2^e. e is 0 while f^'s peak times the largest
    |k|, by the sum of their exponents, lies in [2^-400, 2^400): no k . f^
    overflows and the largest squares do not underflow. Else 2^-e brings that
    product near 1. The cell factor ws.scale enters as m 4^h, m in [0.5, 2),
    so its product with the sum neither under- nor overflows. The norm of
    f^ 2^j is then the norm of f^ times 2^j.
    """
    e = int(np.sum(np.frexp([_extent(f_hat)[0], np.sqrt(ws.k2_max)])[1]))
    e = 0 if -400 < e <= 400 else e
    h = int(np.frexp(ws.scale)[1]) // 2
    for x in range(ws.grid_n):
        dot = k_dot(_ldexp(f_hat[:, x], -e) if e else f_hat[:, x], _plane_k(ws, x))
        np.multiply(ws.plane_weight, _abs2(dot), out=squares[x])
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt(np.ldexp(ws.scale, -2 * h) * np.sum(squares)), e + h))


def div_norm_hat(f_hat: np.ndarray, ws: SpectralWorkspace) -> float:
    """Continuum L2 norm of div f from the half spectrum of f, by Parseval."""
    return _div_norm(f_hat, ws, np.empty(f_hat.shape[1:]))


def _remove_longitudinal(f_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """The one whole-spectrum projection: Modes(ws).split(f_hat)[0] bit for bit, into f_hat.

    Any leading axes, one kx plane at a time, with k^2 made per plane (no table).
    A plane whose coefficient k . f^ / k^2 is not finite takes Modes.coef's
    redo at that plane's own overflow_shift, which gives the same bits as
    one taken over all of f^.
    transverse_project and the snapshot projection use it; evolve does not,
    since a step that ends in a reprojection leaves the longitudinal terms out.
    """
    for x in range(ws.grid_n):
        kvec = _plane_k(ws, x)
        k2 = kvec[0] ** 2 + kvec[1] ** 2 + kvec[2] ** 2
        v = f_hat[..., x, :, :]
        coef = _coef(v, kvec, np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0))
        for k, part in zip(kvec, np.moveaxis(v, -3, 0)):
            part -= k * coef
    return f_hat


def diagnostics(state: FieldState) -> dict:
    """Energy and constraint norms of a grid state, keyed by their CSV column names.

    energy is H = 1/2 integral of (pi^2 + |curl A|^2); norm_divA and
    norm_divPi the continuum L2 norms of the two constraints; norm_A_L and
    norm_pi_L those of the longitudinal parts. One Modes.rows row of the
    state's half spectrum, read at its row_lift as evolve reads it, so
    finite norms stay finite and nonzero where the squares of the grid
    values over- or underflow.
    """
    modes = Modes(state.workspace())
    with np.errstate(over="ignore", invalid="ignore"):
        modes.lift = row_lift(y := state.half_spectrum())
        row = modes.rows(y[None])[0]
    return dict(zip(("energy", "norm_divA", "norm_divPi", "norm_A_L", "norm_pi_L"),
                    row[:5].tolist()))


# ---------------------------------------------------------------------------
# Constraint-preserving initial data
# ---------------------------------------------------------------------------

def correct_initial_data(a_bar: np.ndarray, pi_bar: np.ndarray,
                         domain_length: float) -> FieldState:
    """Project candidate data onto the constraint surface.

    For the (div pi, div A) pair the constraints are linear with constant
    mutual brackets, so the bracket-generated correction terminates in a
    single exact step: both fields lose their longitudinal parts (k = 0 is
    untouched), one at a time through transverse_project, so beyond the
    result no more than one field's half spectrum is held.
    """
    ws = get_workspace(np.shape(a_bar)[-1], float(domain_length))
    # Data near the float64 limit overflow in the transforms, silently:
    # FieldState refuses the result.
    with np.errstate(over="ignore", invalid="ignore"):
        a, pi = (transverse_project(np.asarray(f, dtype=float), ws) for f in (a_bar, pi_bar))
    return FieldState(a, pi, float(domain_length))


# ---------------------------------------------------------------------------
# Initial data families
# ---------------------------------------------------------------------------

def grid_coordinates(grid_n: int, domain_length: float):
    """Open (broadcastable) coordinate arrays for the cell corners."""
    x = np.arange(grid_n) * (domain_length / grid_n)
    return x[:, None, None], x[None, :, None], x[None, None, :]


def _check_mode(mode: np.ndarray, grid_n: int) -> np.ndarray:
    # Checked as Python numbers: an int past int64, or abs of the int64
    # minimum, would wrap around in an integer array.
    mode = np.asarray(mode)
    values = mode.tolist() if mode.shape == (3,) else None
    if values is None or not all(
            isinstance(v, int) or isinstance(v, float) and v.is_integer() for v in values):
        raise ValueError("mode must be an integer 3-vector")
    values = [int(v) for v in values]
    if not any(values):
        raise ValueError("mode must be nonzero")
    if max(map(abs, values)) > grid_n // 2 - 1:
        raise ValueError(f"mode {values} is not resolved on an N={grid_n} grid")
    return np.array(values)


def _check_polarization(polarization, mode: np.ndarray) -> np.ndarray:
    """The unit polarization; it must be a finite nonzero 3-vector orthogonal to mode."""
    e = np.asarray(polarization, dtype=float)
    if e.shape != (3,) or not np.all(np.isfinite(e)) or not np.any(e):
        raise ValueError("polarization must be a finite nonzero 3-vector")
    # Scaling by the largest entry first keeps the norm from over- or underflowing.
    e = e / np.max(np.abs(e))
    e = e / np.linalg.norm(e)
    if abs(float(e @ mode)) > 1e-12:
        raise ValueError("polarization must be orthogonal to the mode vector")
    return e


def _check_wave(mode, polarization, grid_n: int, domain_length: float,
                kind: str = "transverse"):
    mode = _check_mode(mode, grid_n)
    e = _check_polarization(polarization, mode)
    if kind not in ("transverse", "contaminated"):
        raise ValueError(f"unknown plane wave kind {kind!r}")
    get_workspace(grid_n, float(domain_length))  # refuses a geometry outside float64 range
    return mode, e


def _wave_entries(mode: np.ndarray, e: np.ndarray, amplitude: float, grid_n: int):
    """The half-spectrum entries of +-m and the coefficient a e N^3 / 2 of a e cos(k.x) at each."""
    half = [mode] if mode[2] > 0 else [-mode] if mode[2] < 0 else [mode, -mode]
    support = tuple(np.array([m[i] % grid_n for m in half]) for i in range(3))
    # An amplitude that overflows gives inf, and nan where e is zero, silently.
    with np.errstate(over="ignore", invalid="ignore"):
        return support, (0.5 * grid_n ** 3 * amplitude) * e[:, None] * np.ones(len(half))


def plane_wave_spectrum(mode, polarization, amplitude: float = 1.0,
                        kind: str = "transverse", grid_n: int = 32,
                        domain_length: float = 2.0 * np.pi,
                        contamination_amplitude: float = 0.1) -> SparseSpectrum:
    """Standing plane wave A = a e cos(k.x), pi = 0, as its few Fourier coefficients.

    The polarization e is normalized and must be orthogonal to the mode
    vector, so the data starts with no longitudinal content. With
    kind="contaminated" a pure-gradient momentum c * grad sin(2 pi x / L)
    is added, which violates the Gauss constraint by a known amount. The
    wave sits at the entries of +-m with the coefficients
    plane_wave_reference's spectrum has at t = 0; the contamination
    c (2 pi / L) cos(2 pi x / L) of pi_x adds c (2 pi / L) N^3 / 2 at the
    entries of (+-1, 0, 0).
    """
    mode, e = _check_wave(mode, polarization, grid_n, domain_length, kind)
    support, coeff = _wave_entries(mode, e, amplitude, grid_n)
    entries = {tuple(map(int, m)): np.stack([c, np.zeros(3)])
               for m, c in zip(zip(*support), coeff.T)}
    if kind == "contaminated":
        gauss = 0.5 * grid_n ** 3 * (contamination_amplitude * (2.0 * np.pi / domain_length))
        for m in ((1, 0, 0), (grid_n - 1, 0, 0)):
            entries.setdefault(m, np.zeros((2, 3)))[1, 0] += gauss
    return SparseSpectrum(grid_n, domain_length, tuple(zip(*entries)),
                          np.stack(list(entries.values()), axis=-1))


def plane_wave_reference(mode, polarization, amplitude: float = 1.0,
                         grid_n: int = 32, domain_length: float = 2.0 * np.pi):
    """Exact standing-wave solution as a callable t -> (a, pi).

    A(t) = a e cos(k.x) cos(w t) with w = |k|, pi = dA/dt. Valid for both
    formulations since the data is purely transverse. The polarization is
    checked as in plane_wave_spectrum. The grid pattern is built on
    the first call.

    The callable also carries its spectral form. `support` indexes the one
    or two entries of the rfft half spectrum that hold the modes +-m (one
    when m_z != 0, since -m is then the stored entry's mirror), and
    `spectrum(t)` gives the (2, 3, entries) Fourier coefficients of
    (a, pi) there: (a e N^3 / 2) times cos(w t) and -w sin(w t); a 1-D
    array of times gives them stacked along a leading axis. Every other
    coefficient is zero. `grid_n` and `domain_length` name the grid these
    entries belong to.
    """
    mode, e = _check_wave(mode, polarization, grid_n, domain_length)
    k = 2.0 * np.pi * mode / domain_length
    omega = float(np.linalg.norm(k))
    support, coeff = _wave_entries(mode, e, amplitude, grid_n)

    @functools.cache
    def pattern():
        x, y, z = grid_coordinates(grid_n, domain_length)
        return amplitude * e[:, None, None, None] * np.cos(k[0] * x + k[1] * y + k[2] * z)[None]

    # The factor -w sin(w t) is taken first: -w times a finite value can overflow.
    def reference(t: float):
        return pattern() * np.cos(omega * t), pattern() * (-omega * np.sin(omega * t))

    def spectrum(t) -> np.ndarray:
        wt = omega * np.asarray(t)
        return coeff * np.stack([np.cos(wt), -omega * np.sin(wt)], axis=-1)[..., None, None]

    reference.omega = omega
    reference.period = 2.0 * np.pi / omega
    reference.support = support
    reference.spectrum = spectrum
    reference.grid_n, reference.domain_length = grid_n, float(domain_length)
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
    out = tuple(np.empty((3, grid_n, grid_n, grid_n)) for _ in range(2))
    f_hat = np.empty((3, grid_n, grid_n, grid_n // 2 + 1), dtype=complex)
    # The squares of a field, in f_hat's memory once the field is back on the grid.
    squares = f_hat.view(float).reshape(-1)[:out[0].size].reshape(out[0].shape)
    for smooth in out:
        # The white noise is drawn into the output, filtered and brought back in place.
        ws.forward(rng.standard_normal(out=smooth), out=f_hat)
        f_hat *= filt
        for part, grid in zip(f_hat, smooth):
            ws._inverse(part, part, grid)
        rms = float(np.sqrt(np.mean(np.square(smooth, out=squares))))
        smooth *= amplitude / rms if rms > 0 else 1.0
    return out


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
            fh.write(np.ascontiguousarray(comp, dtype="<f8"))
    _write_sidecar(path, state.grid_n, state.domain_length)


def _write_sidecar(path: Path, grid_n: int, domain_length: float) -> None:
    sidecar = {
        "format": "gaugefix-snapshot",
        "version": _SNAPSHOT_VERSION,
        "grid_n": grid_n,
        "domain_length": domain_length,
        "dtype": "float64",
        "byte_order": "little",
        "layout": "C",
        "components": _COMPONENTS,
    }
    with open(path.with_name(path.name + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _SnapshotReader:
    """A snapshot's checked header, and its payload read in order.

    A file or a pipe: fill reads the next bytes into a buffer, and end
    checks that nothing follows the payload. A size that disagrees with
    the header raises SnapshotFormatError, a regular file's from fstat
    before any payload is read, a pipe's once it ends early or runs on.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.fh = open(path, "rb")
        except OSError as exc:
            raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from exc
        try:
            self.got = 0
            header = bytearray(_HEADER.size)
            if not self._read(header):
                raise SnapshotFormatError(f"snapshot {path} is too short for a header")
            magic, version, self.grid_n, self.domain_length = _HEADER.unpack(header)
            if magic != _SNAPSHOT_MAGIC:
                raise SnapshotFormatError(f"snapshot {path} has bad magic {magic!r}")
            if version != _SNAPSHOT_VERSION:
                raise SnapshotFormatError(f"snapshot {path} has unsupported version {version}")
            if self.grid_n < 4 or not (np.isfinite(self.domain_length) and self.domain_length > 0):
                raise SnapshotFormatError(f"snapshot {path} header is invalid "
                                          f"(N={self.grid_n}, L={self.domain_length})")
            self.expected = _HEADER.size + 6 * self.grid_n ** 3 * 8
            info = os.fstat(self.fh.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size != self.expected:
                raise self._size_error(info.st_size)
        except BaseException:
            self.fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def _size_error(self, size: int) -> SnapshotFormatError:
        return SnapshotFormatError(f"snapshot {self.path} has {size} bytes, "
                                  f"expected {self.expected}")

    def _read(self, buf) -> bool:
        """Read into buf until it is full or the input ends; whether it is full."""
        view, got = memoryview(buf).cast("B"), 0
        try:
            while got < len(view) and (n := self.fh.readinto(view[got:])):
                got += n
        except OSError as exc:
            raise SnapshotFormatError(f"cannot read snapshot {self.path}: {exc}") from exc
        self.got += got
        return got == len(view)

    def fill(self, buf) -> None:
        """Fill buf with the next payload bytes."""
        if not self._read(buf):
            raise self._size_error(self.got)

    def end(self) -> None:
        """Check that the input ends with the payload."""
        chunk = bytearray(1 << 16)
        while self._read(chunk):
            pass
        if self.got != self.expected:
            raise self._size_error(self.got)


def read_snapshot(path) -> FieldState:
    """Read a snapshot written by write_snapshot; raises SnapshotFormatError."""
    path = Path(path)
    with _SnapshotReader(path) as snap:
        # One writable buffer that the fields then view. Its pages are
        # touched as bytes arrive, so a pipe that ends early costs only
        # what it sent.
        n = snap.grid_n
        grids = np.empty((6, n, n, n), dtype="<f8")
        snap.fill(grids)
        snap.end()
    try:
        return FieldState(grids[:3], grids[3:], snap.domain_length)
    except ValueError as exc:
        raise SnapshotFormatError(f"snapshot {path} payload invalid: {exc}") from exc


def project_snapshot(src, dst):
    """Project the snapshot at src onto the constraint surface into dst.

    Returns the constraint norms (div A, div pi) before and after.

    One field at a time through one field's half spectrum and one table of
    the norms' squares, and nothing else field-sized, so the snapshot is
    never held whole. The table's memory, while no norm is taken, holds up
    to N/2+1 x-planes of one component on the grid: each component goes
    through it in x-slabs, each slab read, checked and transformed along z
    into its slab of the component's spectrum, and the component then
    transformed along y and x in place. The field's constraint norm before
    comes from its half spectrum, and its longitudinal part is removed
    there, both one kx plane at a time with k^2 made per plane (no k^2
    table). Each component then goes back along x and y in place; each
    slab is transformed back along z, checked, appended to a new file
    beside dst and transformed along z again into the spectrum, which after
    its y and x passes gives the norm of the field as written. Every
    one-dimensional transform is that of rfftn or irfftn on the same line,
    in the same order of passes. Norms are by Parseval. The fields written
    equal those of correct_initial_data(a, pi, L) bit for bit, and the norms
    those of div_norm_hat.

    src may be a pipe. Only a complete projection replaces dst (through a
    symbolic link, as open(dst, "wb") would write), keeping an existing
    dst's mode, and the sidecar follows; dst may be src. An existing dst
    that is not a regular file is refused first, and a transform that
    overflows raises ValueError without a numpy warning; in either case,
    and on a malformed input (SnapshotFormatError), dst is left as it was.
    """
    dst = Path(dst)
    target = Path(os.path.realpath(dst))
    try:
        existing = os.stat(target)
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        raise ValueError(f"cannot write snapshot {dst}: it exists and is not a regular file")
    with _SnapshotReader(Path(src)) as snap:
        n, length = snap.grid_n, snap.domain_length
        ws = get_workspace(n, length)
        f_hat = np.empty((3, n, n, n // 2 + 1), dtype=complex)
        # The norms' squares, whose memory is free for the slabs while they are not taken.
        squares = np.empty((n, n, n // 2 + 1), dtype="<f8")
        buf = squares.reshape(-1, n, n)
        slabs = [(slice(x, x + len(buf)), buf[:n - x]) for x in range(0, n, len(buf))]
        tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
        try:
            out = open(tmp, "xb")  # the mode open(dst, "wb") gives a new file
        except OSError as exc:
            raise OSError(f"cannot write snapshot {dst}: {exc.strerror}") from exc
        try:
            with out:
                out.write(_HEADER.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, n, length))
                before, after = [], []
                with np.errstate(over="ignore", invalid="ignore"):
                    for _ in range(2):  # a, then pi
                        for part in f_hat:
                            for x, grid in slabs:
                                snap.fill(grid)
                                if not np.isfinite(grid).all():
                                    raise SnapshotFormatError(
                                        f"snapshot {snap.path} payload invalid: "
                                        "field values must be finite")
                                np.fft.rfft(grid, axis=2, out=part[x])
                            _fft_yx(part)
                        before.append(_div_norm(f_hat, ws, squares))
                        _remove_longitudinal(f_hat, ws)
                        for part in f_hat:
                            # irfftn's passes: ifft on x and y in place, then irfft on z.
                            np.fft.ifft(part, axis=0, out=part)
                            np.fft.ifft(part, axis=1, out=part)
                            for x, grid in slabs:
                                np.fft.irfft(part[x], n, axis=2, out=grid)
                                if not np.isfinite(grid).all():
                                    raise ValueError("field values must be finite")
                                out.write(grid)
                                np.fft.rfft(grid, axis=2, out=part[x])
                            _fft_yx(part)
                        after.append(_div_norm(f_hat, ws, squares))
                snap.end()
            if existing is not None:
                os.chmod(tmp, stat.S_IMODE(existing.st_mode))
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    _write_sidecar(dst, n, length)
    return tuple(before), tuple(after)
