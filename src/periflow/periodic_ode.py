"""Linear T-periodic ODE systems solved exactly via the monodromy matrix.

A system x' = B(t) x + r(t) with T-periodic coefficients has a unique
T-periodic solution iff I - M is nonsingular, where M is the fundamental
solution over one period; then x(0) = (I - M)^{-1} p with p the particular
response from zero initial data.  Coefficients are sampled on a quarter-step
grid (4M+1 points) so classical RK4 needs no interpolation at either the
nominal or the halved step size.

The system is linear, so every RK4 step is an affine map x -> P_j x + q_j,
kept as one (dim, dim+1) array [P_j | q_j].  Each system builds its maps
once per step size and keeps them, so the monodromy, the step-halving check
and the trajectory sweep of one solve share them.  A sweep applies them by a
prefix scan over the whole period (Blelloch 1990, "Prefix sums and their
applications"): an up-sweep composes neighbours pairwise, level by level,
and a down-sweep carries the state from the top of the tree down, one
batched product per level, ceil(log2 M) levels in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ResonantOrNonUnique

STEP_HALVING_TOL = 1e-6
SINGULARITY_THRESHOLD = 1e-8


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
    """RK4 step maps [P | q] as a composition tree: level 0 holds the steps,
    node i of level l+1 composes nodes 2i and 2i+1 of level l (an odd count
    carries its last node up), so node i of level l starts at step i 2^l.
    Kept: the left children (even nodes with a right neighbour), one
    contiguous array per level, and the root."""

    lefts: tuple  # lefts[l]: (nodes of level l // 2, dim, dim+1)
    root: np.ndarray  # (dim, dim+1), the map over the whole period


def _rk4_maps(B, r, h):
    """[P | q] of the RK4 steps with coefficient samples B = (B0, Bm, B1)
    and r = (r0, rm, r1).  Every stage is affine in x, so it is one
    (dim, dim+1) array acting on [x; 1], formed by one product; P is
    accumulated in the first stage's array, so at most three are alive.
    """
    (B0, Bm, B1), (r0, rm, r1) = B, r
    dim = B0.shape[-1]
    diag = slice(None, None, dim + 2)  # the diagonal of P in a flattened [P | q]

    def ahead(Bt, rt, state, c):  # x + c k for the slope k = Bt state + rt
        k = Bt @ state
        k[..., dim] += rt
        k *= c
        k.reshape(-1, dim * (dim + 1))[:, diag] += 1.0
        return k

    U = np.empty((len(B0), dim, dim + 1))
    np.multiply(B0, 0.5 * h, out=U[..., :dim])
    np.multiply(r0, 0.5 * h, out=U[..., dim])
    U.reshape(-1, dim * (dim + 1))[:, diag] += 1.0  # x + h/2 k1
    V = ahead(Bm, rm, U, 0.5 * h)  # x + h/2 k2
    W = ahead(Bm, rm, V, h)  # x + h k3
    U += V
    U += V
    del V
    U += W  # 4 I + h/2 (k1 + 2 k2 + 2 k3)
    U.reshape(-1, dim * (dim + 1))[:, diag] -= 4.0
    U /= 3.0
    U += ahead(B1, r1, W, h / 6.0)  # I + h/6 (k1 + 2 k2 + 2 k3 + k4)
    return U


def _build_step_maps(system, substeps):
    """RK4 step maps of `system` at step T/(M*substeps) as a `_StepMaps`:
    step j is the affine map x -> P_j x + q_j.  The even and the odd steps
    are built apart, so level 0 keeps its left children without a copy, and
    each level above composes neighbours, (P2, q2) o (P1, q1) =
    P2 [P1 | q1] + [0 | q2], in one batched product.
    """
    s = 4 // substeps  # grid indices per step
    B = (system.mats[:-1:s], system.mats[s // 2 :: s], system.mats[s::s])
    r = (system.rhs[:-1:s], system.rhs[s // 2 :: s], system.rhs[s::s])
    h = system.period / (system.n_steps * substeps)
    evens, odds = (
        _rk4_maps([b[first::2] for b in B], [c[first::2] for c in r], h) for first in (0, 1)
    )
    lefts = []
    while len(odds):
        n = len(odds)
        lefts.append(evens[:n])
        up = np.empty_like(evens)
        np.matmul(odds[..., :-1], evens[:n], out=up[:n])
        up[:n, :, -1] += odds[..., -1]
        up[n:] = evens[n:]  # an odd count carries its last node up
        evens, odds = up[0::2].copy(), up[1::2]
    return _StepMaps(lefts=tuple(lefts), root=evens[0])


def integrate_rk4(system, x0, substeps=1):
    """Classical RK4 over [0, T] with fixed step T/(M*substeps).

    `x0` may be a vector (dim,) or a matrix (dim, k) of stacked initial
    conditions (columns evolve independently).  substeps must be 1 or 2.
    The step maps come from `system.step_maps(substeps)`, built on the first
    sweep of that step size.  The root carries x0 to t = T; then, from the
    top level down, each level's left children carry the states at their
    starts to the starts of their right neighbours, one batched product on
    strided views of the output per level.
    """
    if substeps not in (1, 2):
        raise ValueError("substeps must be 1 or 2")
    maps = system.step_maps(substeps)
    x0 = np.asarray(x0, dtype=float)
    x = x0.reshape(system.dim, -1)
    n_out = system.n_steps * substeps
    out = np.empty((n_out + 1,) + x.shape)
    out[0] = x
    np.matmul(maps.root[:, :-1], x, out=out[n_out])
    out[n_out] += maps.root[:, -1:]
    for level in reversed(range(len(maps.lefts))):
        left = maps.lefts[level]
        stride = 2 << level
        ends = out[stride // 2 :: stride][: len(left)]
        np.matmul(left[..., :-1], out[::stride][: len(left)], out=ends)
        ends += left[..., -1:]
    return out.reshape((n_out + 1,) + x0.shape)


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


def linear_system_from_galerkin(frozen, tilde_a):
    """The (n+1)-dimensional linear periodic system for frozen tilde_a.

    `frozen` is the `FrozenLinearPart` of the coefficient system at the
    step count of the solve.  tilde_a: (M, n) samples of the frozen
    transport coefficients on the uniform grid.  The system adds
    resample(tilde_a) @ (A^{-1} c) to the base matrices and shares the rhs
    of `frozen`.
    """
    base = frozen.system
    n = base.dim - 1
    mats = base.mats.copy()
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
