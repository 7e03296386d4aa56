"""Nonlinear periodic Galerkin solver: an Anderson-accelerated Picard
iteration on the map that sends frozen transport coefficients to the unique
periodic solution of the corresponding linear system, plus the warm-started
homotopy sweep over the forcing scale and the end-to-end pipeline.

The iteration is type-II Anderson mixing (Walker & Ni 2011, SIAM J. Numer.
Anal. 49:1715) of depth `ANDERSON_DEPTH` with mixing weight
`FixedPointConfig.damping`; with an empty history its step is the Picard
step, damped when the weight is below 1.  The default weight is 1: on the
reference data the map's own rate, the Lipschitz estimate the fixed point
reports, is below 0.01, so a damped step leaves undone what the map would
do.  The iterate-independent part of the linear system is built once per
fixed point and shared by every map application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._bumps import WindowBump
from .basis import _inner_1d
from .errors import NoConvergence, PeriflowError, StageError
from .periodic_ode import (
    PeriodicTrajectory,
    frozen_linear_part,
    linear_system_from_galerkin,
    solve_linear_periodic,
    spectral_time_derivative,
    zero_trajectory,
)

DEFAULT_DAMPING = 1.0
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 50
# Anderson history length.  On the 512-step period sweep (periods 0.8, 1.0
# and 1.2 T_n, each continued from the last) depths 2 to 6 all take 5, 4
# and 4 iterations at damping 1.  At damping 0.5 depth 4 takes 8, 5 and 5,
# so the benchmark's other-iteration-path check still compares two paths.
ANDERSON_DEPTH = 4


@dataclass(frozen=True)
class FixedPointConfig:
    damping: float = DEFAULT_DAMPING  # Anderson mixing weight beta
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    alpha: float = 1.0  # forcing scale: `fixed_point` solves gsys.scaled(alpha)
    n_steps: int = 256

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tolerance and iteration cap must be positive")


def apply_phi(frozen, tilde):
    """One application of the solution map: freeze the transport coefficients
    of the trajectory `tilde`, solve the resulting linear periodic system.
    `frozen` is the `FrozenLinearPart` of the coefficient system at the
    step count of `tilde`."""
    return solve_linear_periodic(linear_system_from_galerkin(frozen, tilde.a[:-1]))


def _iterate_distance(gsys, x, y):
    """Discrete L2(0,T;H1) + W{1,2} distance between trajectory iterates.
    Each quadratic form is one product and one dot, as the fixed point
    takes three distances per iteration."""
    dt = x.period / x.n_steps
    da = x.a[:-1] - y.a[:-1]
    d_fluid = float(np.vdot(da @ (gsys.basis.grad_gram + np.eye(gsys.n)), da))
    dz = x.z[:-1] - y.z[:-1]
    dzd = x.zdot[:-1] - y.zdot[:-1]
    return math.sqrt(dt * (d_fluid + float(np.vdot(dz, dz) + np.vdot(dzd, dzd))))


def _flat(traj):
    return np.concatenate([traj.states.ravel(), traj.derivs.ravel()])


def _unflat(traj, flat):
    """`traj` with the (states, derivs) pair of the flattened `flat`, as views."""
    half = traj.states.size
    return replace(
        traj,
        states=flat[:half].reshape(traj.states.shape),
        derivs=flat[half:].reshape(traj.derivs.shape),
    )


def _anderson_step(us, gs, beta):
    """The next iterate from the recent iterates `us` and map outputs `gs`
    (flattened, oldest first).  The differences and the mixed pair are
    local, so none of them outlives the step."""
    u, g = us[-1], gs[-1]
    if len(us) > 1:
        dU, dG = np.diff(us, axis=0).T, np.diff(gs, axis=0).T
        gamma = np.linalg.lstsq(dG - dU, g - u, rcond=None)[0]
        u, g = u - dU @ gamma, g - dG @ gamma
    return (1.0 - beta) * u + beta * g


def fixed_point(gsys, cfg, start=None):
    """Anderson-accelerated Picard iteration on the system
    `gsys.scaled(cfg.alpha)`; returns (trajectory, report).

    The iterate is the pair (states, derivs), starting from `start` (a
    trajectory with `cfg.n_steps` steps over the period of `gsys`) or from
    zero.  Each step applies the map once and mixes with weight
    beta = `cfg.damping`: with the last `ANDERSON_DEPTH` differences dU of
    iterates, dG of map outputs and dF = dG - dU of residuals
    F = Phi(u) - u, gamma minimizes |F - dF gamma|
    and the next iterate is (1 - beta)(u - dU gamma) + beta (Phi(u) - dG gamma).
    The history is cleared whenever the iterate distance grows, so that step
    is a plain Picard step, damped when beta < 1.  A map output that is not
    finite raises NoConvergence at once.

    The iteration stops when the distance between an iterate and its map
    output is below `cfg.tol` relative to their size.  The returned
    trajectory is the last map output (so it exactly solves its own
    linearization).  The report carries the iterate-distance history and,
    from the second iteration on, the map's own Lipschitz estimate
    |Phi(x_k) - Phi(x_{k-1})| / |x_k - x_{k-1}| in the same distance
    (`lipschitz`, one entry fewer than the iterations), which the mixing
    does not hide.
    """
    gsys = gsys.scaled(cfg.alpha)
    if start is None:
        x = zero_trajectory(gsys.period, gsys.n, cfg.n_steps)
    elif start.n_steps != cfg.n_steps:
        raise ValueError(f"start has {start.n_steps} steps, expected {cfg.n_steps}")
    elif start.period != gsys.period:
        raise ValueError(f"start has period {start.period}, expected {gsys.period}")
    else:
        x = start
    frozen = frozen_linear_part(gsys, cfg.n_steps)
    beta = cfg.damping
    history, lipschitz = [], []
    us, gs = [], []  # recent iterates and map outputs, flattened
    for it in range(cfg.max_iter):
        y = apply_phi(frozen, x)
        dist = _iterate_distance(gsys, x, y)
        history.append(dist)
        if not (np.isfinite(y.states).all() and np.isfinite(y.derivs).all()):
            raise NoConvergence(history, f"non-finite map output at iteration {it + 1}")
        if us:  # the previous iterate and its map output
            step = _iterate_distance(gsys, x, _unflat(x, us[-1]))
            moved = _iterate_distance(gsys, y, _unflat(y, gs[-1]))
            lipschitz.append(moved / step if step > 0.0 else 0.0)
        scale = 1.0 + max(x.sup_norm(), y.sup_norm())
        if dist <= cfg.tol * scale:
            resid = residual_galerkin(gsys, y)
            report = {
                "iterations": it + 1,
                "history": history,
                "lipschitz": lipschitz,
                "residual": resid,
                "periodicity_defect": y.periodicity_defect,
                "converged": True,
            }
            return y, report
        if len(history) > 1 and dist > history[-2]:
            us, gs = [], []
        us.append(_flat(x))
        gs.append(_flat(y))
        del us[: -ANDERSON_DEPTH - 1], gs[: -ANDERSON_DEPTH - 1]
        x = _unflat(y, _anderson_step(us, gs, beta))
    raise NoConvergence(history)


def _coefficient_rhs(gsys, times, a, z):
    """A a' of the coefficient ODE, c(a, a) - a.(b + d) - (k/rho) z beta
    + F, at `times` for fluid states a (m, n) and positions z (m,)."""
    n = gsys.n
    # sum_ij a_i c_ijk a_j: contract i by one product, then j per time
    rhs = (a[:, None, :] @ (a @ gsys.c.reshape(n, n * n)).reshape(-1, n, n))[:, 0]
    rhs -= a @ gsys.b  # b symmetric
    rhs -= np.einsum("ti,tik->tk", a, gsys.d_at(times))
    rhs -= (gsys.params.stiffness / gsys.params.rho) * np.outer(z, gsys.beta)
    rhs += gsys.forcing_at(times)
    return rhs


def residual_galerkin(gsys, traj):
    """Max residual of the nonlinear coefficient system at half-grid points.

    Time derivatives come from spectral differentiation of the periodic
    trajectory; all coefficient tensors are synthesized exactly at the
    half-grid times, so the residual measures genuine solve error.
    """
    n = gsys.n
    M = traj.n_steps
    T = traj.period
    states2 = traj.resample_states(2 * M)[:-1]  # (2M, n+1)
    dstates2 = spectral_time_derivative(states2, T)
    half = np.arange(1, 2 * M, 2)
    times_h = half * (T / (2 * M))
    a, z = states2[half, :n], states2[half, n]
    adot, zdot_spec = dstates2[half, :n], dstates2[half, n]

    # A_ik adot_i = (A adot)_k, A symmetric
    res_a = adot @ gsys.A.T - _coefficient_rhs(gsys, times_h, a, z)
    res_z = zdot_spec - a @ gsys.beta
    return float(max(np.abs(res_a).max(), np.abs(res_z).max()))


def weak1_residual(gsys, traj):
    """Space-time weak-form residual against (basis mode, Fourier-in-time)
    test pairs, time harmonics 0 to 4: the max over all pairs of
    int (A a) eta' + (A a') eta dt, with A a' the right-hand side of the
    coefficient ODE."""
    T = traj.period
    tgrid = traj.times[:-1]
    a, z = traj.a[:-1], traj.z[:-1]
    omega = 2.0 * math.pi / T
    Aa = a @ gsys.A  # A symmetric
    rhs = _coefficient_rhs(gsys, tgrid, a, z)

    etas = [(np.ones_like(tgrid), np.zeros_like(tgrid))]
    for k in range(1, 5):
        etas.append((np.cos(omega * k * tgrid), -omega * k * np.sin(omega * k * tgrid)))
        etas.append((np.sin(omega * k * tgrid), omega * k * np.cos(omega * k * tgrid)))

    worst = 0.0
    for eta, etad in etas:
        val = (T / traj.n_steps) * (etad @ Aa + eta @ rhs)
        worst = max(worst, float(np.abs(val).max()))
    return worst


def weak2_residual(gsys, traj):
    """Kinematic-coupling residual against five random scalar test bumps.

    Each bump is a tensor product supported strictly inside the fluid; the
    pairing with every basis velocity is computed by exact separable
    quadrature, so the residual reflects the fields, not the mesh.
    """
    geom = gsys.basis.geometry
    bx0, bx1 = geom.body[:2]
    rng = np.random.default_rng(7)
    boxes = []
    for _ in range(5):
        side = rng.integers(0, 2)
        if side == 0:
            x1 = rng.uniform(-geom.X0 - 0.5, bx0 - 0.3)
            x0 = x1 - rng.uniform(0.5, 1.0)
        else:
            x0 = rng.uniform(bx1 + 0.3, geom.X0 + 0.5 - 1.0)
            x1 = x0 + rng.uniform(0.5, 1.0)
        y0 = rng.uniform(-0.9, -0.2)
        y1 = rng.uniform(0.2, 0.9)
        boxes.append((x0, x1, y0, y1))

    basis = gsys.basis
    worst = 0.0
    for box in boxes:
        p = WindowBump(box[0], box[1])
        q = WindowBump(box[2], box[3])
        pair = np.zeros(len(basis.modes))
        for r, mode in enumerate(basis.modes):
            # (psi, grad theta) for psi = curl(F G), theta = p(x1) q(x2)
            pair[r] = _inner_1d(mode.fx, p, 0, 1) * _inner_1d(mode.gy, q, 1, 0) - _inner_1d(
                mode.fx, p, 1, 0
            ) * _inner_1d(mode.gy, q, 0, 1)
        pair_ortho = basis.coeff.T @ pair  # (n,)
        # the zdot e1 part integrates to zero exactly for interior bumps
        series = traj.a[:-1] @ pair_ortho
        worst = max(worst, float(np.abs(series).max()))
    return worst


def homotopy_sweep(gsys, alphas, cfg):
    """Solve the fixed-point problem on `gsys.scaled(alpha)` for each alpha.

    Each alpha after the first starts from the previous row's trajectory
    scaled by alpha / alpha_prev (the response is nearly linear in the
    forcing scale while the data are small).  Returns a list of rows
    {alpha, sup_E, iterations, residual} plus the trajectory of the final
    alpha.
    """
    from .diagnostics import energy_E

    rows = []
    last = start = None
    for alpha in alphas:
        alpha = float(alpha)
        if last is not None:
            s = alpha / rows[-1]["alpha"]
            start = replace(last, states=s * last.states, derivs=s * last.derivs)
        traj, report = fixed_point(gsys, replace(cfg, alpha=alpha), start=start)
        E = energy_E(traj, gsys.params)
        rows.append(
            {
                "alpha": alpha,
                "sup_E": float(E.max()),
                "iterations": report["iterations"],
                "residual": report["residual"],
            }
        )
        last = traj
    return rows, last


def stage(name, fn):
    """Run one pipeline stage, annotating a PeriflowError with its name."""
    try:
        return fn()
    except PeriflowError as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class SolveResult:
    trajectory: PeriodicTrajectory
    report: dict
    diagnostics: dict | None = None
    warnings: tuple = ()


def assemble_from_config(config, basis=None):
    """Run the pipeline stages up to the assembled coefficient system.

    Stages: flow-rate signal -> geometry/mesh -> channel profile -> carrier ->
    forcing -> basis -> assembly.  A `basis` built from a config that differs
    from this one only in its period skips the geometry, mesh and basis
    stages.  Errors are re-raised annotated with the failing stage.  Returns
    {"params", "basis", "system"}; the system carries the carrier, the
    forcing (with the external forces) and the flow rate.
    """
    from .carrier import build_flux_carrier, carrier_forces
    from .basis import assemble_system, build_basis
    from .geometry import build_mesh
    from .womersley import solve_poiseuille

    if basis is None:
        geom = stage("geometry", lambda: config.build_geometry())
    else:
        geom, mesh = basis.geometry, basis.mesh
    params = config.params
    phi = stage("flowrate", lambda: config.build_flowrate())
    if basis is None:
        mesh = stage("mesh", lambda: build_mesh(geom, config.mesh_h))
    flow = stage(
        "profile", lambda: solve_poiseuille(phi, params, n_nodes=config.profile_nodes)
    )
    carrier = stage(
        "carrier", lambda: build_flux_carrier(flow, geom, config.build_cutoff())
    )
    tilde_f, tilde_g = config.build_external_forces()
    forces = stage(
        "forces", lambda: carrier_forces(carrier, params, mesh, tilde_f, tilde_g)
    )
    if basis is None:
        basis = stage("basis", lambda: build_basis(geom, config.n_modes, mesh=mesh))
    gsys = stage("assembly", lambda: assemble_system(basis, carrier, forces, params))
    return {"params": params, "basis": basis, "system": gsys}


def galerkin_solve(config):
    """End-to-end pipeline from a run configuration.

    Adds to `assemble_from_config`: the smallness gate, the accelerated
    fixed point, and the diagnostics ledger, all reading their data from
    the assembled system.
    """
    from .basis import estimate_cq
    from .diagnostics import diagnostics_bundle, smallness_report

    warnings = []

    gsys = assemble_from_config(config)["system"]

    cq = estimate_cq(gsys)
    small = smallness_report(gsys.carrier.flow.flowrate, gsys.params, cq, gsys.forces)
    if not small["weak"]["ok"]:
        msg = (
            "flow-rate smallness condition violated "
            f"(margin {small['weak']['margin']:.3f})"
        )
        if config.warn_only:
            warnings.append(msg)
        else:
            raise StageError("smallness", PeriflowError(msg))

    cfg = config.build_fixed_point()
    traj, report = stage("fixed-point", lambda: fixed_point(gsys, cfg))
    report["smallness"] = small
    report["c_q"] = cq
    diag = stage("diagnostics", lambda: diagnostics_bundle(traj, gsys))
    return SolveResult(
        trajectory=traj,
        report=report,
        diagnostics=diag,
        warnings=tuple(warnings),
    )
