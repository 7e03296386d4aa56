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
batched product per level, ceil(log2 M) levels in all.  The maps are built
in blocks of `_MAP_CHUNK` steps, so beyond the tree it keeps a build holds
the RK4 stage arrays of one block, whatever M is.

Every system keeps its coefficient samples as a product of time
coefficients and fixed matrices, B(t_i) = coeffs[i] @ fixed, as in
`stokes_rhs_norm`, and forms the samples only for the rows it reads: each
block of a map build forms its own, so no (4M+1, dim, dim) array is held.
The fixed point keeps the time coefficients of d and the matrices once
(`FrozenLinearPart`); each iterate adds its transport coefficients as
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ResonantOrNonUnique
from .signals import cos_sin_coefficients, real_fields

STEP_HALVING_TOL = 1e-6
SINGULARITY_THRESHOLD = 1e-8
_MAP_CHUNK = 256  # steps per block of a map build, a power of two


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

    The samples of B are a product, B(t_i) = coeffs[i] @ fixed with each
    row of `fixed` one flattened (dim, dim) matrix, formed by `samples` for
    the rows a caller reads and never held whole.  A caller that holds the
    samples passes coeffs = samples.reshape(4M+1, -1) and fixed = I.

    `coeffs`, `fixed` and `rhs` are not mutated after construction: the
    RK4 step maps built from them are kept on the system (`step_maps`).  A
    system with other coefficients is a new system with its own maps.
    """

    period: float
    coeffs: np.ndarray  # (4M+1, m)
    fixed: np.ndarray  # (m, dim * dim)
    rhs: np.ndarray  # (4M+1, dim)
    n_steps: int

    def __post_init__(self):
        if self.coeffs.shape[0] != 4 * self.n_steps + 1:
            raise ValueError("coefficient grid must have 4*n_steps + 1 samples")

    @property
    def dim(self):
        return self.rhs.shape[1]

    def samples(self, rows):
        """B at the grid rows `rows` (a slice), (rows, dim, dim)."""
        return (self.coeffs[rows] @ self.fixed).reshape(-1, self.dim, self.dim)

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
    step j is the affine map x -> P_j x + q_j, and a node is composed from
    its children, (P2, q2) o (P1, q1) = P2 [P1 | q1] + [0 | q2], in one
    batched product per level.

    The steps are built in blocks of `_MAP_CHUNK`, a power of two, so a
    block boundary is a node boundary on every level up to log2 of it: each
    block is composed up to one node, writing its left children into the
    kept level arrays, and the block tops are composed above.  The RK4
    stage arrays and the composition temporaries are then bounded by one
    block, not by M, and the build holds little beyond the tree it returns.
    Each block forms the coefficient samples of the rows it reads (every
    half step) from the system's product, so no sample array of the whole
    grid is held either.  Every map is the same product as in a build at
    once, so the block size changes no map.
    """
    s = 4 // substeps  # grid indices per step
    m = system.n_steps * substeps
    h = system.period / m
    shape = (system.dim, system.dim + 1)
    lefts, count = [], m
    while count > 1:
        lefts.append(np.empty((count // 2,) + shape))
        count -= count // 2
    tops = np.empty(((m - 1) // _MAP_CHUNK + 1,) + shape)
    # an overflow shows as a top that is not finite (a non-finite entry
    # makes every product it enters non-finite, 0 * inf included), so the
    # build checks each top and warns about nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for i, start in enumerate(range(0, m, _MAP_CHUNK)):
            rows = slice(start * s, (start + _MAP_CHUNK) * s + 1, s // 2)
            B, r = system.samples(rows), system.rhs[rows]
            B, r = ((x[:-1:2], x[1::2], x[2::2]) for x in (B, r))
            tops[i] = _compose_up(_rk4_maps(B, r, h), lefts, 0, start)
            _require_finite(tops[i], f"RK4 step maps from step {start}")
        root = _compose_up(tops, lefts, _MAP_CHUNK.bit_length() - 1, 0)
    _require_finite(root, "RK4 map over the period")
    return _StepMaps(lefts=tuple(lefts), root=root)


def _require_finite(x, what):
    if not np.isfinite(x).all():
        raise ResolutionError(f"{what} not finite; increase solver.n_steps")


def _compose_up(nodes, lefts, level, first):
    """Compose `nodes`, the nodes first, first+1, ... of `level` (first
    even), pairwise up the tree until one is left, and return it.  The left
    children met on the way are written into `lefts`; an odd count carries
    its last node up."""
    while len(nodes) > 1:
        n = len(nodes) // 2
        left, right = nodes[: 2 * n : 2], nodes[1::2]
        lefts[level][first // 2 : first // 2 + n] = left
        up = np.empty((len(nodes) - n,) + nodes.shape[1:])
        np.matmul(right[..., :-1], left, out=up[:n])
        up[:n, :, -1] += right[..., -1]
        up[n:] = nodes[2 * n :]
        nodes, level, first = up, level + 1, first // 2
    return nodes[0]


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
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(maps.root[:, :-1], x, out=out[n_out])
        out[n_out] += maps.root[:, -1:]
        for level in reversed(range(len(maps.lefts))):
            left = maps.lefts[level]
            stride = 2 << level
            ends = out[stride // 2 :: stride][: len(left)]
            np.matmul(left[..., :-1], out[::stride][: len(left)], out=ends)
            ends += left[..., -1:]
    _require_finite(out, f"RK4 sweep at {n_out} steps")
    return out.reshape((n_out + 1,) + x0.shape)


def step_halving_error(system, x0):
    """Disagreement at t = T between the nominal and the halved step."""
    nominal = integrate_rk4(system, x0)[-1].copy()  # frees the sweep before the fine build
    fine = integrate_rk4(system, x0, substeps=2)[-1]
    return float(np.max(np.abs(nominal - fine)))


def monodromy(system):
    """(M, p): fundamental matrix over one period and particular response.

    One sweep from the columns [I | 0]: every column gains p over the
    period, so the sweep ends at [M + p | p].
    """
    dim = system.dim
    final = integrate_rk4(system, np.eye(dim, dim + 1))[-1]
    p = final[:, dim].copy()  # a view would keep the whole sweep alive
    # the swept states are finite, but their difference can still overflow
    with np.errstate(over="ignore", invalid="ignore"):
        M = final[:, :dim] - p[:, None]
    _require_finite(M, "monodromy")
    return M, p


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

    def with_period(self, period):
        """The same samples in phase over another period, as a start for a
        solve at that period: the states are kept and the time derivatives
        scale by old period / new period."""
        return PeriodicTrajectory(
            period=period,
            states=self.states,
            derivs=(self.period / period) * self.derivs,
            periodicity_defect=self.periodicity_defect,
        )

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
    scale = float(np.linalg.norm(M, 2))
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
    if not err <= STEP_HALVING_TOL * (1.0 + float(np.max(np.abs(x0)))):
        raise ResolutionError(
            f"step-halving disagreement {err:.3e} exceeds tolerance; "
            "increase solver.n_steps"
        )
    states = integrate_rk4(system, x0)
    defect = float(np.max(np.abs(states[-1] - states[0])))
    tol = 1e-8 * (1.0 + float(np.max(np.abs(states))))
    if not defect <= tol:
        raise ResolutionError(
            f"periodicity defect {defect:.3e} exceeds {tol:.3e} after monodromy "
            "solve; increase solver.n_steps"
        )
    # exact trajectory derivatives from the ODE right-hand side at grid nodes
    nodes = slice(None, None, 4)
    derivs = np.einsum("tij,tj->ti", system.samples(nodes), states) + system.rhs[nodes]
    return PeriodicTrajectory(
        period=system.period,
        states=states,
        derivs=derivs,
        periodicity_defect=defect,
    )


@dataclass(frozen=True)
class FrozenLinearPart:
    """The iterate-independent part of `linear_system_from_galerkin`.

    The coefficient samples of the linear system are a product of time
    coefficients and fixed matrices, as in `stokes_rhs_norm`:
    B(t) = [1 | C(t) | ta(t)] @ E on the quarter-step grid, ta the
    resampled frozen iterate.  `coeffs` holds [1 | C(t)], C the
    `cos_sin_coefficients` of the transport harmonics d; `fixed` holds E,
    one flattened (dim, dim) matrix per column: the constant block, then
    -A^{-1} D_m^T for each real field D_m of d, then A^{-1} c_i, both
    padded to (dim, dim).  `fixed` and `rhs` = A^{-1} F on the grid are
    shared by every iterate's system.
    """

    period: float
    n_steps: int
    coeffs: np.ndarray  # (4M+1, 1 + 2K)
    fixed: np.ndarray  # (1 + 2K + n, dim * dim)
    rhs: np.ndarray  # (4M+1, dim)


def frozen_linear_part(gsys, n_steps):
    """Everything of the linear system that does not depend on the frozen
    iterate: the time coefficients of d on the quarter-step grid, the fixed
    matrices made with A^{-1} (the constant block of b, beta and the spring,
    the real fields of d, and c) and the rhs A^{-1} F.  No coefficient
    sample is formed, so the part holds no (4M+1, dim, dim) array."""
    n = gsys.n
    T = gsys.period
    times2 = np.arange(4 * n_steps + 1) * (T / (4 * n_steps))
    Ainv = np.linalg.inv(gsys.A)
    k_over_rho = gsys.params.stiffness / gsys.params.rho

    D = real_fields(gsys.d_harmonics)  # (2K, n, n)
    fixed = np.zeros((1 + len(D) + n, n + 1, n + 1))
    fixed[0, :n, :n] = -(Ainv @ gsys.b.T)  # row kappa, column j
    fixed[0, :n, n] = -k_over_rho * (Ainv @ gsys.beta)
    fixed[0, n, :n] = gsys.beta
    fixed[1 : 1 + len(D), :n, :n] = -(Ainv @ D.transpose(0, 2, 1))
    # (A^{-1} c)[i, m, j] = sum_k A^{-1}_mk c_ijk: row m, column j for tilde_a_i
    fixed[1 + len(D) :, :n, :n] = Ainv @ gsys.c.transpose(0, 2, 1)
    phases = cos_sin_coefficients(list(gsys.d_harmonics), gsys.carrier.omega, times2)
    rhs = np.zeros((len(times2), n + 1))
    rhs[:, :n] = gsys.forcing_at(times2) @ Ainv.T
    return FrozenLinearPart(
        period=T,
        n_steps=n_steps,
        coeffs=np.concatenate([np.ones((len(times2), 1)), phases], axis=1),
        fixed=fixed.reshape(len(fixed), -1),
        rhs=rhs,
    )


def linear_system_from_galerkin(frozen, tilde_a):
    """The (n+1)-dimensional linear periodic system for frozen tilde_a.

    `frozen` is the `FrozenLinearPart` of the coefficient system at the
    step count of the solve.  tilde_a: (M, n) samples of the frozen
    transport coefficients on the uniform grid.  The system keeps its
    samples as the product [1 | C(t) | resample(tilde_a)] @ E without
    forming it: its own array is the (4M+1, 1 + 2K + n) time coefficients,
    and E and the rhs are the ones of `frozen`.
    """
    ta2 = resample_periodic(tilde_a, 4 * frozen.n_steps)
    return LinearPeriodicSystem(
        period=frozen.period,
        coeffs=np.concatenate([frozen.coeffs, np.vstack([ta2, ta2[:1]])], axis=1),
        fixed=frozen.fixed,
        rhs=frozen.rhs,
        n_steps=frozen.n_steps,
    )


def oscillator_system(params, g_signal):
    """Pure mass-spring oscillator m z'' + k z = g(t) as a 2D periodic system.

    State (z, z').  Used as the decoupled resonance probe; its fine grid of
    1024 steps keeps the integrator error well below the singularity threshold.
    """
    n_steps = 1024
    T = g_signal.period
    times2 = np.arange(4 * n_steps + 1) * (T / (4 * n_steps))
    B = np.array([[0.0, 1.0], [-params.stiffness / params.mass, 0.0]])
    rhs = np.zeros((len(times2), 2))
    rhs[:, 1] = g_signal(times2) / params.mass
    return LinearPeriodicSystem(
        period=T,
        coeffs=np.ones((len(times2), 1)),
        fixed=B.reshape(1, -1),
        rhs=rhs,
        n_steps=n_steps,
    )
