"""Principal-symbol construction and hyperbolicity classification.

A first-order system u_t = P(d) u is probed through its symbol P(i n)
restricted to unit covectors n. Classification per direction asks two
questions of the frozen-coefficient matrix: are all eigenvalues real,
and does a complete, well-conditioned eigenbasis exist? Strong
hyperbolicity requires both at every sampled direction; real spectrum
with a defective eigenbasis somewhere is only weak hyperbolicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

# Random unit directions analyze_symbol samples after the six fixed ones.
_N_SAMPLES = 64
# Eigenbasis condition number from which a direction counts as defective.
_COND_BOUND = 1e8


class Hyperbolicity(Enum):
    STRONGLY_HYPERBOLIC = "strongly_hyperbolic"
    WEAKLY_HYPERBOLIC = "weakly_hyperbolic"
    NOT_HYPERBOLIC = "not_hyperbolic"
    # Eigen-decomposition failed at some direction; no verdict either way.
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class PrincipalSymbol:
    """Symbol of a first-order operator as a matrix-valued map of n."""

    size: int
    matrix_fn: Callable[[np.ndarray], np.ndarray]

    def at(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if n.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        norm = np.linalg.norm(n)
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("direction must be finite and nonzero")
        m = np.asarray(self.matrix_fn(n / norm), dtype=float)
        if m.shape != (self.size, self.size):
            raise ValueError(f"symbol callback returned shape {m.shape}, "
                             f"expected ({self.size}, {self.size})")
        if not np.all(np.isfinite(m)):
            raise ValueError("symbol callback returned non-finite entries")
        return m


@dataclass(frozen=True, eq=False)
class DirectionSample:
    n: np.ndarray
    eigenvalues: np.ndarray
    cond: float
    complete: bool
    # Certified imaginary magnitude per eigenvalue (see _certified_imag).
    imag_defect: np.ndarray = field(default_factory=lambda: np.zeros(0))
    error: str | None = None


@dataclass(frozen=True, eq=False)
class SymbolReport:
    classification: Hyperbolicity
    kappa: np.ndarray
    samples: tuple[DirectionSample, ...]
    message: str = ""

    def to_json_dict(self) -> dict:
        samples = []
        for s in self.samples:
            entry = {
                "n": [float(v) for v in s.n],
                "eigenvalues_re": [float(v) for v in s.eigenvalues.real],
                "eigenvalues_im": [float(v) for v in s.eigenvalues.imag],
                # A defective direction has no eigenbasis and its condition
                # number is infinite; JSON has no Infinity literal, so null.
                "cond": float(s.cond) if math.isfinite(s.cond) else None,
                "complete": bool(s.complete),
            }
            if s.error is not None:
                entry["error"] = s.error
            samples.append(entry)
        return {
            "classification": self.classification.value,
            "kappa": [float(v) for v in self.kappa],
            "samples": samples,
        }


def _certified_imag(matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Imaginary magnitudes after re-certifying near-real eigenvalues.

    dgeev splits a defective real eigenvalue into a conjugate pair of
    radius ~sqrt(eps)*|M|, so raw imaginary parts cannot be compared
    against a tolerance far below that. An eigenvalue is certified real
    when its real part lies on the spectrum within backward error, i.e.
    sigma_min(M - Re(lambda) I) <= 1e-12 |M|; genuinely complex pairs
    keep their imaginary magnitude.
    """
    out = np.abs(w.imag)
    scale = 1.0 + float(np.abs(matrix).max())
    eye = np.eye(matrix.shape[0])
    for i, lam in enumerate(w):
        if out[i] == 0.0:
            continue
        smin = np.linalg.svd(matrix - lam.real * eye, compute_uv=False)[-1]
        if smin <= 1e-12 * scale:
            out[i] = 0.0
    return out


def _clusters(w: np.ndarray, tol: float) -> list[list[int]]:
    """Indices of eigenvalues grouped by single linkage at distance tol."""
    groups: list[list[int]] = []
    for i, lam in enumerate(w):
        near = [g for g in groups if np.min(np.abs(w[g] - lam)) <= tol]
        groups = [g for g in groups if g not in near]
        groups.append(sorted([i, *(j for g in near for j in g)]))
    return groups


def _cluster_basis_cond(matrix: np.ndarray, w: np.ndarray) -> float:
    """Condition number of an eigenbasis built cluster by cluster.

    A cluster of m eigenvalues around lambda (a defective eigenvalue comes
    back split, see _certified_imag) has a full eigenspace when
    M - lambda I has m singular values at rounding level; their right
    singular vectors span it. Returns inf when some cluster is defective.
    The basis is not taken from eig: for a repeated eigenvalue dgeev may
    return nearly parallel eigenvectors although a well-conditioned basis
    exists.
    """
    scale = 1.0 + float(np.abs(matrix).max())
    eye = np.eye(matrix.shape[0])
    vectors = []
    for group in _clusters(w, 1e-6 * scale):
        _, s, vh = np.linalg.svd(matrix - w[group].mean() * eye)
        nullity = int(np.sum(s <= 1e-8 * scale))
        if nullity != len(group):
            return np.inf
        vectors.append(vh[-nullity:].conj().T)
    s = np.linalg.svd(np.hstack(vectors), compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else np.inf


def _probe_direction(sym: PrincipalSymbol, n: np.ndarray) -> DirectionSample:
    matrix = sym.at(n)
    try:
        w, _ = np.linalg.eig(matrix)
        cond = _cluster_basis_cond(matrix, w)
    except np.linalg.LinAlgError as exc:
        return DirectionSample(n, np.zeros(0, dtype=complex), np.inf, False,
                               error=f"eigendecomposition failed: {exc}")
    return DirectionSample(n, w, cond, bool(cond < _COND_BOUND),
                           _certified_imag(matrix, w))


def sample_directions(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Coordinate axes, face diagonals, then n_samples random unit vectors."""
    fixed = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
    ])
    fixed /= np.linalg.norm(fixed, axis=1)[:, None]
    if n_samples == 0:
        return fixed
    rand = rng.standard_normal((n_samples, 3))
    norms = np.linalg.norm(rand, axis=1)
    # Resample the (measure-zero) degenerate draws instead of dividing by ~0.
    while np.any(norms < 1e-8):
        bad = norms < 1e-8
        rand[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(rand, axis=1)
    return np.vstack([fixed, rand / norms[:, None]])


def analyze_symbol(sym: PrincipalSymbol, tol_imag: float = 1e-10,
                   seed: int = 0) -> SymbolReport:
    """Classify a symbol by sweeping 70 unit directions: the six fixed
    ones of sample_directions, then 64 random ones drawn from seed.

    The verdict is the worst case over samples: any eigenvalue whose
    certified imaginary part (see _certified_imag) exceeds tol_imag
    makes the system not hyperbolic, a real spectrum with a defective
    eigenbasis or one of condition number 1e8 or more anywhere
    downgrades strong to weak, and an eigensolver failure yields
    'indeterminate'. kappa collects the distinct propagation speeds seen
    across the real-spectrum samples.
    """
    # isfinite rejects NaN and inf: an infinite tol_imag would certify any spectrum.
    if not (math.isfinite(tol_imag) and tol_imag > 0):
        raise ValueError(f"tol_imag must be positive and finite, got {tol_imag!r}")
    directions = sample_directions(_N_SAMPLES, np.random.default_rng(seed))
    samples = [_probe_direction(sym, n) for n in directions]

    failed = [s for s in samples if s.error is not None]
    speeds: list[float] = []
    all_real = True
    all_complete = True
    for s in samples:
        if s.error is not None:
            continue
        if np.max(s.imag_defect, initial=0.0) > tol_imag:
            all_real = False
        else:
            speeds.extend(s.eigenvalues.real.tolist())
        if not s.complete:
            all_complete = False

    if failed:
        classification = Hyperbolicity.INDETERMINATE
        message = f"{len(failed)} of {len(samples)} directions failed: {failed[0].error}"
    elif not all_real:
        classification = Hyperbolicity.NOT_HYPERBOLIC
        message = "complex eigenvalues encountered"
    elif all_complete:
        classification = Hyperbolicity.STRONGLY_HYPERBOLIC
        message = ""
    else:
        classification = Hyperbolicity.WEAKLY_HYPERBOLIC
        message = "real spectrum but defective eigenbasis at some directions"

    # Speeds are reported at 1e-6 resolution, which absorbs the sqrt(eps)
    # scatter of defective eigenvalues; + 0.0 folds -0.0 into plain 0.0.
    # A sorted set, since a plain np.unique imports numpy.ma.
    rounded = np.round(np.asarray(speeds, dtype=float), 6) + 0.0
    kappa = np.array(sorted(set(rounded.tolist())), dtype=float)
    return SymbolReport(classification, kappa, tuple(samples), message)


# ---------------------------------------------------------------------------
# Built-in Maxwell symbols
# ---------------------------------------------------------------------------

def transverse_projector(n: np.ndarray) -> np.ndarray:
    """P_ij = delta_ij - n_i n_j for a unit 3-vector n."""
    n = np.asarray(n, dtype=float)
    return np.eye(3) - np.outer(n, n)


def maxwell_canonical_symbol() -> PrincipalSymbol:
    """Symbol of the unfixed evolution on (A, pi) blocks.

    A feeds on the full pi while pi feeds only on the transverse part of
    A, so the longitudinal sector is a Jordan block: real spectrum but a
    defective eigenbasis in every direction (sympy check:
    tests/test_derivation_oracle.py, TestPrincipalSymbolDerivation).
    """

    def matrix(n):
        zero = np.zeros((3, 3))
        top = np.hstack([zero, np.eye(3)])
        bottom = np.hstack([transverse_projector(n), zero])
        return np.vstack([top, bottom])

    return PrincipalSymbol(6, matrix)


def maxwell_gauge_fixed_symbol() -> PrincipalSymbol:
    """Symbol after the Coulomb-style fixing: both blocks transverse.

    The longitudinal sector decouples into a zero block (two genuine
    zero-speed eigenvectors), leaving a complete eigenbasis everywhere
    (sympy check: tests/test_derivation_oracle.py,
    TestPrincipalSymbolDerivation).
    """

    def matrix(n):
        zero = np.zeros((3, 3))
        proj = transverse_projector(n)
        top = np.hstack([zero, proj])
        bottom = np.hstack([proj, zero])
        return np.vstack([top, bottom])

    return PrincipalSymbol(6, matrix)
