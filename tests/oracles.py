"""The oracles that the spectral route and the finite half's linear model
are checked against.

The library computes energy, constraint norms and projections from the
half spectrum (fields.Modes.rows, fields.diagnostics,
fields.project_snapshot).
The functions here compute them on the N^3 grid instead: derivatives by
a forward and a backward transform, norms and energy as sums over grid
values, and the plane wave as grid samples. split_then_stack_step is
the field step as one split and one stack of the two rows, with k . v
summed one component at a time on every mode set. adapted_blocks splits a
principal symbol into 2x2 blocks in a frame adapted to a direction,
kvec_table builds the wavevector of every mode as one dense table, and
peak_shift takes an overflow scale from np.frexp, apart from the library's.

For the finite half, bracket_chain runs the consistency chain with each
candidate built as a phase function, phase.bracket_function of
phase.combination, and its row read back from its coefficients, and
stacked_gradients takes a set's Jacobian one gradient at a time at z.
gauge_fixed_multipliers and extended_flow solve for the multipliers at
each point from the set's Jacobian there, where the library's
LinearModel.multipliers and LinearModel.flow are constant maps.
pairwise_second_order builds second_order_coefficients' m + m^2 brackets
one at a time as phase functions, with M inverted, where the library
takes them as products of the stacked coefficients.

A plain module that the tests import: pytest collects nothing from it.
"""

from __future__ import annotations

import numpy as np

from gaugefix.constraints import (
    Constraint,
    ConstraintOrigin,
    _commutation,
    _left_null,
    _residual,
    _still_growing,
    _unsatisfiable,
    commutation_matrix,
)
from gaugefix.fields import (
    FieldState,
    Modes,
    SpectralWorkspace,
    _abs2,
    _check_wave,
    _coef,
    correct_initial_data,
    get_workspace,
    grid_coordinates,
    k_dot,
    transverse_project,
)
from gaugefix.phase import as_phase_point, bracket_function, combination, poisson_bracket


def kvec_table(ws):
    """The wavevector of every half-spectrum mode as one (3, N, N, N/2+1) table."""
    return np.stack(np.meshgrid(ws.k1, ws.k1, ws.k3, indexing="ij"))


def peak_shift(y):
    """The power of two that brings y's largest |re| or |im| near 2^256, by np.frexp."""
    return int(np.frexp(max(np.max(np.abs(y.real)), np.max(np.abs(y.imag))))[1]) - 256


# ---------------------------------------------------------------------------
# Spectral operators on the grid
# ---------------------------------------------------------------------------

def div_hat(v_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return 1j * k_dot(v_hat, ws.k_axes)


def grad_hat(f_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return np.stack([1j * k * f_hat for k in ws.k_axes])


def curl_hat(v_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    kx, ky, kz = ws.k_axes
    return 1j * np.stack([
        ky * v_hat[2] - kz * v_hat[1],
        kz * v_hat[0] - kx * v_hat[2],
        kx * v_hat[1] - ky * v_hat[0],
    ])


def transverse_project_hat(v_hat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return Modes(ws).split(np.asarray(v_hat))[0]


def split_then_stack_step(modes, maps, j: int, y_s: np.ndarray) -> np.ndarray:
    """j steps of maps on y_s, modes an evolution._Support: k . v one
    component at a time (kvec as three rows), the longitudinal part stacked
    from its components, the two rows of the step stacked."""
    kvec = tuple(modes.kvec)
    coef = _coef(y_s, kvec, modes.inv_k2)
    long = np.stack([k * coef for k in kvec], axis=-1 - kvec[0].ndim)
    (a_t, p_t), (a_l, p_l) = y_s - long, long
    (aa, ap), (pa, pp) = maps.power(j)[..., modes.shell]
    lp = j * maps.lp
    return np.stack([aa * a_t + ap * p_t + a_l + lp * p_l, pa * a_t + pp * p_t + p_l])


def div(v: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return ws.backward(div_hat(ws.forward(v), ws))


def grad(f: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return ws.backward(grad_hat(ws.forward(f), ws))


def curl(v: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return ws.backward(curl_hat(ws.forward(v), ws))


def longitudinal_part(v: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return v - transverse_project(v, ws)


# ---------------------------------------------------------------------------
# Norms and energy on the grid
# ---------------------------------------------------------------------------

def _sqrt_dv(domain_length: float, n: int) -> np.float64:
    """sqrt(dV) = (L/N)^1.5 in float64: inf, not OverflowError, past its range."""
    with np.errstate(over="ignore"):
        return np.float64(float(domain_length) / n) ** 1.5


def l2_norm(f: np.ndarray, domain_length: float) -> float:
    """Continuum L2 norm: sqrt(sum f^2 dV) with dV = (L/N)^3.

    Taken as sqrt(sum f^2) sqrt(dV), so a norm inside float64 range comes
    back finite however large dV is, and one past it comes back inf. Only
    where f's largest magnitude is outside [2^-400, 2^400) are the squares
    of f scaled near 1 summed, as in fields.div_norm_hat.
    """
    outside = _sqrt_dv(domain_length, f.shape[-1])
    # The exponent of the largest magnitude; 0 for 0, inf, NaN.
    s = int(np.frexp(max(float(np.max(np.abs(f.real), initial=0.0)),
                         float(np.max(np.abs(f.imag), initial=0.0))))[1])
    s = 0 if -400 < s <= 400 else max(s, -1021)
    with np.errstate(over="ignore"):
        total = np.sum(_abs2(f * np.ldexp(1.0, -s) if s else f))
        return float(np.ldexp(np.sqrt(total) * outside, s))


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
    sqrt_dv = _sqrt_dv(state.domain_length, state.grid_n)
    # Times sqrt(dV) twice: the product overflows only past float64 range.
    with np.errstate(over="ignore"):
        return float(0.5 * np.sum(state.pi ** 2 + b ** 2) * sqrt_dv * sqrt_dv)


def state_distance(s1: FieldState, s2: FieldState) -> float:
    """L2 distance over both fields jointly."""
    if s1.a.shape != s2.a.shape or s1.domain_length != s2.domain_length:
        raise ValueError("states live on different grids")
    da = l2_norm(s1.a - s2.a, s1.domain_length)
    dpi = l2_norm(s1.pi - s2.pi, s1.domain_length)
    return float(np.hypot(da, dpi))


# ---------------------------------------------------------------------------
# Projection and the bracket-kernel check
# ---------------------------------------------------------------------------

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
# Initial data on the grid
# ---------------------------------------------------------------------------

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
    mode, e = _check_wave(mode, polarization, grid_n, domain_length, kind)
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


# ---------------------------------------------------------------------------
# Principal symbols
# ---------------------------------------------------------------------------

def adapted_blocks(matrix: np.ndarray, n: np.ndarray):
    """Split a 6x6 (A, pi) symbol into 2x2 blocks in the frame adapted to n.

    Returns (longitudinal_block, [transverse_block_1, transverse_block_2])
    where each 2x2 block couples the (A, pi) components along one frame
    vector. Raises if the matrix actually mixes the frame directions,
    since then no such block decomposition exists.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (6, 6):
        raise ValueError("expected a 6x6 symbol matrix")
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)

    # Orthonormal frame (e1, e2, n) via Gram-Schmidt on the least-aligned axis.
    axis = np.eye(3)[int(np.argmin(np.abs(n)))]
    e1 = axis - np.dot(axis, n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)

    # Columns (u_A, u_pi) for u = e1, e2, n: the 2x2 diagonal blocks of the
    # rotated matrix couple the (A, pi) components along one frame vector.
    basis = np.zeros((6, 6))
    for j, u in enumerate((e1, e2, n)):
        basis[:3, 2 * j] = u
        basis[3:, 2 * j + 1] = u
    rotated = basis.T @ matrix @ basis
    blocks = [rotated[2 * j:2 * j + 2, 2 * j:2 * j + 2].copy() for j in range(3)]
    off = rotated.copy()
    for j in range(3):
        off[2 * j:2 * j + 2, 2 * j:2 * j + 2] = 0.0
    scale = 1.0 + np.abs(matrix).max()
    if np.abs(off).max() > 1e-12 * scale:
        raise ValueError("symbol mixes the adapted frame directions; "
                         "no 2x2 block decomposition exists")
    return blocks[2], blocks[:2]


# ---------------------------------------------------------------------------
# The consistency chain from bracket functions
# ---------------------------------------------------------------------------

def combination_bracket(cset, weights, h, form):
    """u_i [C_i, H] as the bracket [u_i C_i, H], with single-term labels kept tidy."""
    (idx,) = np.nonzero(np.abs(weights) > 1e-12)
    members = [cset[int(i)].function for i in idx]
    w = weights[idx].astype(float)
    if idx.size == 1 and abs(abs(w[0]) - 1.0) < 1e-12:
        w = np.sign(w)
        label = f"{'-' if w[0] < 0 else ''}[{members[0].label}, H]"
    else:
        label = " + ".join(f"{wi:+.3g}[{c.label}, H]" for wi, c in zip(w, members))
    return bracket_function(combination(members, w), h, form, label)


def _coefficient_row(f):
    return np.append(f.coefficients.lin, f.coefficients.const)


def bracket_chain(system, primaries, tol_weak=1e-8, max_generations=10):
    """consistency_chain of affine primaries with every candidate a
    closed-form bracket function, formed for every member in every
    generation: the same left null space and residual decisions, rows read
    back from each candidate's coefficients."""
    if len(primaries) == 0:
        return primaries
    h, form = system.hamiltonian, system.form
    rows = np.array([_coefficient_row(c.function) for c in primaries])
    n_primary = len(primaries)
    cset = primaries
    for _generation in range(max_generations):
        gj = rows[:, :-1] @ form.matrix
        a = gj @ rows[:n_primary, :-1].T
        directions = np.eye(len(cset)) if np.max(np.abs(a)) < tol_weak else _left_null(a)
        new = []
        for u in directions:
            cand = combination_bracket(cset, u, h, form)
            row = _coefficient_row(cand)
            if _residual(rows, row, cand.label, "weak vanishing", tol_weak) < tol_weak:
                continue
            if _residual(rows[:, :-1], row[:-1], cand.label, "newness", tol_weak) < tol_weak:
                raise _unsatisfiable([cset[int(i)].label
                                      for i in np.flatnonzero(np.abs(u) > 1e-12)])
            new.append(Constraint(cand, ConstraintOrigin.CONSISTENCY))
            rows = np.vstack([rows, row])
        if not new:
            return cset
        cset = cset.extended(new)
    raise _still_growing(max_generations, cset)


def stacked_gradients(cset, z):
    """The set's Jacobian at z, one gradient evaluation per member."""
    return np.array([c.grad(z) for c in cset]).reshape(len(cset), cset.dim)


# ---------------------------------------------------------------------------
# Pointwise multipliers and the extended flow
# ---------------------------------------------------------------------------

def gauge_fixed_multipliers(cset, system, z):
    """Multipliers that freeze the constraints along the extended flow.

    Solves M Lambda = -[C, H] at z so that d/dt C_B = [C_B, H] + Lambda^A
    [C_B, C_A] vanishes; the extended Hamiltonian H + Lambda . C then
    transports the constraint surface into itself to first order.
    """
    z = as_phase_point(z)
    return _multipliers(cset.jacobian(z), system.form.matrix, system.hamiltonian.grad(z))


def _multipliers(jac, j, gh):
    return -_commutation(jac, j).solve(jac @ j @ gh)


def extended_flow(system, cset, z):
    """Flow J (grad H + G^T Lambda) of H + Lambda . C, multipliers taken at z."""
    z = as_phase_point(z)
    jac, j, gh = cset.jacobian(z), system.form.matrix, system.hamiltonian.grad(z)
    return j @ (gh + jac.T @ _multipliers(jac, j, gh))


# ---------------------------------------------------------------------------
# The second-order correction, bracket by bracket
# ---------------------------------------------------------------------------

def pairwise_second_order(cset, z_bar, form):
    """second_order_coefficients with E = -eps1 . C as a phase function,
    each [C_P, E] and [C_S, C_T] a phase.bracket_function, their brackets
    with E taken pointwise at z_bar, and M^-1 formed once."""
    z = as_phase_point(z_bar)
    m = len(cset)
    mat = commutation_matrix(cset, z, form)
    eps1 = mat.solve(cset.values(z))
    if not m:
        return eps1
    minv = np.linalg.inv(mat.entries)

    e_fn = combination([c.function for c in cset], -eps1, label="correction generator")

    # [C_P, E] both as numbers at z and as functions for the outer brackets.
    ce_fns = [bracket_function(c.function, e_fn, form) for c in cset]
    ce_vals = np.array([fn(z) for fn in ce_fns])
    term1 = minv @ np.array([poisson_bracket(fn, e_fn, z, form) for fn in ce_fns])

    ccbe = np.zeros((m, m))
    for s in range(m):
        for t in range(m):
            if s == t:
                continue
            pair = bracket_function(cset[s].function, cset[t].function, form)
            ccbe[s, t] = poisson_bracket(pair, e_fn, z, form)
    term2 = 0.5 * (minv @ (ccbe @ (minv.T @ ce_vals)))
    return term1 + term2
