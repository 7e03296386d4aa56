"""Linear T-periodic ODE systems solved exactly via the monodromy matrix.

A system x' = B(t) x + r(t) with T-periodic coefficients has a unique
T-periodic solution iff I - M is nonsingular, where M is the fundamental
solution over one period; then x(0) = (I - M)^{-1} p with p the particular
response from zero initial data.  Coefficients are sampled on a quarter-step
grid (4M+1 points) so classical RK4 needs no interpolation at either the
nominal or the halved step size.

The system is linear, so every RK4 step is an affine map x -> P_j x + q_j.
Each system builds its maps once per step size and keeps them, so the
monodromy, the step-halving check and the trajectory sweep of one solve
share them.  A sweep applies them by a blocked scan: the steps are cut into
blocks of `_SCAN_BLOCK`, each block's maps are composed pairwise (Blelloch
1990, "Prefix sums and their applications"), a short loop carries the state
from block start to block start, and then all blocks advance together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ResonantOrNonUnique

STEP_HALVING_TOL = 1e-6
SINGULARITY_THRESHOLD = 1e-8
_SCAN_BLOCK = 64  # steps per block of the RK4 scan, a power of two


def resample_periodic(x, n_out):
    """Band-limited resampling of periodic samples along axis 0.

    Exact for trigonometric polynomials resolved by the input grid.
    """
    x = np.asarray(x, dtype=float)
    n_in = x.shape[0]
    if n_out == n_in:
        return x.copy()
    spec = np.fft.rfft(x, axis=0)
    if n_out > n_in and n_in % 2 == 0:
        spec[-1] *= 0.5  # split the Nyquist bin symmetrically
    return np.fft.irfft(spec, n=n_out, axis=0) * (n_out / n_in)


def spectral_time_derivative(x, period, order=1):
    """Time derivative of periodic samples (axis 0) by Fourier multipliers."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    spec = np.fft.rfft(x, axis=0)
    k = np.arange(spec.shape[0])
    mult = (2j * math.pi * k / period) ** order
    if n % 2 == 0 and order % 2 == 1:
        mult[-1] = 0.0  # odd derivative of the Nyquist mode is not representable
    shape = (len(k),) + (1,) * (x.ndim - 1)
    return np.fft.irfft(spec * mult.reshape(shape), n=n, axis=0)


@dataclass(frozen=True)
class LinearPeriodicSystem:
    """x' = B(t) x + r(t), T-periodic, sampled on the quarter-step grid
    (4M+1 points) so both the nominal step T/M and the halved step T/(2M)
    evaluate coefficients without interpolation.

    `mats` and `rhs` are not mutated after construction: the RK4 step maps
    built from them are kept on the system (`step_maps`).  A system with
    other coefficients is a new system with its own maps.
    """

    period: float
    mats: np.ndarray  # (4M+1, dim, dim)
    rhs: np.ndarray  # (4M+1, dim)
    n_steps: int

    def __post_init__(self):
        if self.mats.shape[0] != 4 * self.n_steps + 1:
            raise ValueError("coefficient grid must have 4*n_steps + 1 samples")

    @property
    def dim(self):
        return self.mats.shape[1]

    def step_maps(self, substeps):
        """The RK4 step maps at step T/(M*substeps), built on first use and
        kept on the system."""
        cache = self.__dict__.setdefault("_step_maps", {})
        if substeps not in cache:
            cache[substeps] = _build_step_maps(self, substeps)
        return cache[substeps]


@dataclass(frozen=True)
class _StepMaps:
    """RK4 step maps cut into blocks of `_SCAN_BLOCK` steps, with each
    block's composed map."""

    P: np.ndarray  # (blocks, _SCAN_BLOCK, dim, dim)
    q: np.ndarray  # (blocks, _SCAN_BLOCK, dim, 1)
    P_block: np.ndarray  # (blocks, dim, dim)
    q_block: np.ndarray  # (blocks, dim, 1)


def _build_step_maps(system, substeps):
    """RK4 step maps of `system` at step T/(M*substeps), in scan blocks.

    The system is linear, so step j is the affine map x -> P_j x + q_j.  All
    maps are built at once from the strided coefficient slices, padded with
    identity maps to whole blocks of `_SCAN_BLOCK` steps, and each block's
    composition is formed pairwise, (P2, q2) o (P1, q1) = (P2 P1, P2 q1 + q2),
    in log2(_SCAN_BLOCK) batched products.
    """
    n_out = system.n_steps * substeps
    h = system.period / n_out
    s = 4 // substeps  # grid indices per step
    B0, Bm, B1 = system.mats[:-1:s], system.mats[s // 2 :: s], system.mats[s::s]
    r0, rm, r1 = system.rhs[:-1:s], system.rhs[s // 2 :: s], system.rhs[s::s]
    dim = system.dim
    # RK4 stages k_i = K_i x + c_i: linear parts K_i and offsets c_i (x = 0),
    # K2 = Bm (I + h/2 B0), K3 = Bm (I + h/2 K2), K4 = B1 (I + h K3), formed
    # in place
    K2 = Bm @ B0
    K2 *= 0.5 * h
    K2 += Bm
    K3 = Bm @ K2
    K3 *= 0.5 * h
    K3 += Bm
    K4 = B1 @ K3
    K4 *= h
    K4 += B1
    # P = I + h/6 (B0 + 2 K2 + 2 K3 + K4), accumulated in K2
    P = K2
    P += K3
    P *= 2.0
    P += B0
    P += K4
    P *= h / 6.0
    P.reshape(len(P), -1)[:, :: dim + 1] += 1.0
    del K3, K4
    c2 = (0.5 * h) * np.einsum("tij,tj->ti", Bm, r0) + rm
    c3 = (0.5 * h) * np.einsum("tij,tj->ti", Bm, c2) + rm
    c4 = h * np.einsum("tij,tj->ti", B1, c3) + r1
    q = (h / 6.0) * (r0 + 2.0 * c2 + 2.0 * c3 + c4)

    n_blocks = -(-n_out // _SCAN_BLOCK)
    pad = n_blocks * _SCAN_BLOCK - n_out
    if pad:
        P = np.concatenate([P, np.broadcast_to(np.eye(dim), (pad, dim, dim))])
        q = np.concatenate([q, np.zeros((pad, dim))])
    P = P.reshape(n_blocks, _SCAN_BLOCK, dim, dim)
    q = q.reshape(n_blocks, _SCAN_BLOCK, dim, 1)
    P_block, q_block = P, q
    while P_block.shape[1] > 1:
        first, then = P_block[:, 0::2], P_block[:, 1::2]
        q_block = then @ q_block[:, 0::2] + q_block[:, 1::2]
        P_block = then @ first
    return _StepMaps(P=P, q=q, P_block=P_block[:, 0], q_block=q_block[:, 0])


def integrate_rk4(system, x0, substeps=1):
    """Classical RK4 over [0, T] with fixed step T/(M*substeps).

    `x0` may be a vector (dim,) or a matrix (dim, k) of stacked initial
    conditions (columns evolve independently).  substeps must be 1 or 2.

    The step maps x -> P_j x + q_j come from `system.step_maps(substeps)`,
    built on the first sweep of that step size.  They are applied by a
    blocked scan: a loop over the blocks carries the state from block start
    to block start by the composed block maps, then every block advances
    from its start at once, one batched product per step within a block.
    States past step M*substeps (the identity padding) are dropped.
    """
    if substeps not in (1, 2):
        raise ValueError("substeps must be 1 or 2")
    maps = system.step_maps(substeps)
    n_blocks = maps.P.shape[0]
    x0 = np.asarray(x0, dtype=float)
    x = x0.reshape(system.dim, -1)
    starts = np.empty((n_blocks,) + x.shape)
    starts[0] = x
    for b in range(1, n_blocks):
        starts[b] = maps.P_block[b - 1] @ starts[b - 1] + maps.q_block[b - 1]
    out = np.empty((n_blocks * _SCAN_BLOCK + 1,) + x.shape)
    out[0] = x
    after = out[1:].reshape((n_blocks, _SCAN_BLOCK) + x.shape)  # state after each step
    prev = starts
    for i in range(_SCAN_BLOCK):
        prev = np.matmul(maps.P[:, i], prev, out=after[:, i])
        prev += maps.q[:, i]
    n_out = system.n_steps * substeps
    return out[: n_out + 1].reshape((n_out + 1,) + x0.shape)


def step_halving_error(system, x0):
    """Disagreement at t = T between the nominal and the halved step."""
    nominal = integrate_rk4(system, x0)[-1]
    fine = integrate_rk4(system, x0, substeps=2)[-1]
    return float(np.max(np.abs(nominal - fine)))


def monodromy(system):
    """(M, p): fundamental matrix over one period and particular response.

    One sweep from the columns [I | 0]: every column gains p over the
    period, so the sweep ends at [M + p | p].
    """
    dim = system.dim
    final = integrate_rk4(system, np.eye(dim, dim + 1))[-1]
    p = final[:, dim]
    return final[:, :dim] - p[:, None], p


@dataclass(frozen=True)
class PeriodicTrajectory:
    """T-periodic solution samples on the uniform grid t_j = j T / M."""

    period: float
    states: np.ndarray  # (M+1, n+1) = [a, z]; last row repeats t=0 up to the defect
    derivs: np.ndarray  # (M+1, dim), exact ODE right-hand side values
    periodicity_defect: float

    @property
    def n_steps(self):
        return self.states.shape[0] - 1

    @property
    def n_fluid(self):
        """Number of fluid coefficients a: every column but the last (z)."""
        return self.states.shape[1] - 1

    @property
    def times(self):
        return np.arange(self.n_steps + 1) * (self.period / self.n_steps)

    @property
    def a(self):
        return self.states[:, : self.n_fluid]

    @property
    def z(self):
        return self.states[:, -1]

    @property
    def zdot(self):
        return self.derivs[:, -1]

    @property
    def adot(self):
        return self.derivs[:, : self.n_fluid]

    def sup_norm(self):
        return float(np.max(np.abs(self.states)))

    def resample_states(self, n_out):
        """Band-limited resample of the periodic states to n_out+1 samples."""
        res = resample_periodic(self.states[:-1], n_out)
        return np.vstack([res, res[:1]])


def zero_trajectory(period, n_fluid, n_steps):
    states = np.zeros((n_steps + 1, n_fluid + 1))
    return PeriodicTrajectory(
        period=period,
        states=states,
        derivs=np.zeros_like(states),
        periodicity_defect=0.0,
    )


def solve_linear_periodic(system):
    """Unique T-periodic solution of the linear system, or ResonantOrNonUnique."""
    M, p = monodromy(system)
    dim = system.dim
    # The exact monodromy of these dissipative systems is O(1) (0.978 on the
    # reference run); RK4 on too coarse a grid blows it up (1.1e86 at 64 steps),
    # and past 1/SINGULARITY_THRESHOLD the test below cannot tell the two apart.
    scale = float(np.linalg.norm(M, 2)) if np.isfinite(M).all() else math.inf
    if scale > 1.0 / SINGULARITY_THRESHOLD:
        raise ResolutionError(
            f"monodromy norm {scale:.3e} above {1.0 / SINGULARITY_THRESHOLD:.0e}; "
            "increase solver.n_steps"
        )
    sigma_min = float(np.linalg.svd(np.eye(dim) - M, compute_uv=False)[-1])
    if sigma_min < SINGULARITY_THRESHOLD * max(scale, 1.0):
        raise ResonantOrNonUnique(sigma_min, SINGULARITY_THRESHOLD * max(scale, 1.0))
    x0 = np.linalg.solve(np.eye(dim) - M, p)
    err = step_halving_error(system, x0)
    if err > STEP_HALVING_TOL * (1.0 + float(np.max(np.abs(x0)))):
        raise ResolutionError(
            f"step-halving disagreement {err:.3e} exceeds tolerance; "
            "increase solver.n_steps"
        )
    states = integrate_rk4(system, x0)
    defect = float(np.max(np.abs(states[-1] - states[0])))
    tol = 1e-8 * (1.0 + float(np.max(np.abs(states))))
    if defect > tol:
        raise ResolutionError(
            f"periodicity defect {defect:.3e} exceeds {tol:.3e} after monodromy "
            "solve; increase solver.n_steps"
        )
    # exact trajectory derivatives from the ODE right-hand side at grid nodes
    grid_idx = np.arange(0, 4 * system.n_steps + 1, 4)
    derivs = (
        np.einsum("tij,tj->ti", system.mats[grid_idx], states)
        + system.rhs[grid_idx]
    )
    return PeriodicTrajectory(
        period=system.period,
        states=states,
        derivs=derivs,
        periodicity_defect=defect,
    )


@dataclass(frozen=True)
class FrozenLinearPart:
    """The iterate-independent part of `linear_system_from_galerkin`.

    `system` is the linear system for a zero frozen iterate (base matrices
    and the rhs A^{-1} F); `ainv_c` holds A^{-1} c as an
    (n, n*n) matrix, so the transport block of an iterate with quarter-step
    samples ta2 is (ta2 @ ainv_c).reshape(-1, n, n).
    """

    system: LinearPeriodicSystem
    ainv_c: np.ndarray


def frozen_linear_part(gsys, n_steps):
    """Everything of the linear system that does not depend on the frozen
    iterate: d and the forcing F of `gsys` synthesized on the quarter-step
    grid, A^{-1}, the base matrices, the rhs A^{-1} F and A^{-1} c."""
    n = gsys.n
    T = gsys.period
    times2 = np.arange(4 * n_steps + 1) * (T / (4 * n_steps))

    Ainv = np.linalg.inv(gsys.A)
    beta = gsys.beta
    k_over_rho = gsys.params.stiffness / gsys.params.rho

    dim = n + 1
    mats = np.zeros((len(times2), dim, dim))
    rhs = np.zeros((len(times2), dim))
    bd = gsys.b[None].transpose(0, 2, 1) + gsys.d_at(times2).transpose(0, 2, 1)
    mats[:, :n, :n] = -(Ainv @ bd)  # row kappa, column j
    mats[:, :n, n] = -(k_over_rho) * (Ainv @ beta)[None]
    mats[:, n, :n] = beta
    rhs[:, :n] = gsys.forcing_at(times2) @ Ainv.T
    # (A^{-1} c)[i, m, j] = sum_k A^{-1}_mk c_ijk: row m, column j for tilde_a_i
    ainv_c = (gsys.c @ Ainv.T).transpose(0, 2, 1).reshape(n, n * n)
    base = LinearPeriodicSystem(period=T, mats=mats, rhs=rhs, n_steps=n_steps)
    return FrozenLinearPart(system=base, ainv_c=ainv_c)


def linear_system_from_galerkin(frozen, tilde_a=None):
    """The (n+1)-dimensional linear periodic system for frozen tilde_a.

    `frozen` is the `FrozenLinearPart` of the coefficient system at the
    step count of the solve.  tilde_a: (M, n) samples of the frozen
    transport coefficients on the uniform grid (or None for zero).  The
    system adds resample(tilde_a) @ (A^{-1} c) to the base matrices and
    shares the rhs of `frozen`.
    """
    base = frozen.system
    n = base.dim - 1
    mats = base.mats.copy()
    if tilde_a is not None:
        ta2 = resample_periodic(tilde_a, 4 * base.n_steps)
        ta2 = np.vstack([ta2, ta2[:1]])
        # (c_ijk tilde_a_i) acting on a_j in the row-kappa equation, times A^{-1}
        mats[:, :n, :n] += (ta2 @ frozen.ainv_c).reshape(-1, n, n)
    return LinearPeriodicSystem(
        period=base.period, mats=mats, rhs=base.rhs, n_steps=base.n_steps
    )


def oscillator_system(params, g_signal):
    """Pure mass-spring oscillator m z'' + k z = g(t) as a 2D periodic system.

    State (z, z').  Used as the decoupled resonance probe; its fine grid of
    1024 steps keeps the integrator error well below the singularity threshold.
    """
    n_steps = 1024
    T = g_signal.period
    times2 = np.arange(4 * n_steps + 1) * (T / (4 * n_steps))
    mats = np.zeros((len(times2), 2, 2))
    mats[:, 0, 1] = 1.0
    mats[:, 1, 0] = -params.stiffness / params.mass
    rhs = np.zeros((len(times2), 2))
    rhs[:, 1] = g_signal(times2) / params.mass
    return LinearPeriodicSystem(period=T, mats=mats, rhs=rhs, n_steps=n_steps)
