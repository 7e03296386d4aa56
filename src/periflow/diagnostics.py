"""Energy functionals, inequality ledgers, and regularity monitors.

Everything here is a pure function of a converged trajectory and the
assembled system.  Named "constants" that the underlying estimates leave
implicit are always *fitted* as the minimal values making the corresponding
inequality hold on the run at hand; only structural identities (the energy
balance, the energy-equivalence chain) are hard checks.  Results are ledger
rows {check_id, lhs, rhs, slack, pass}, all built by `_row`, plus per-time
series.  The data (forcing, carrier, parameters) come from the assembled
`GalerkinSystem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._bumps import Affine, Product
from .errors import PeriflowError, ResolutionError, ResonantOrNonUnique
from .geometry import cell_blocks, cell_rows
from .periodic_ode import (
    oscillator_system,
    resample_periodic,
    solve_linear_periodic,
    spectral_time_derivative,
)
from .signals import (
    cos_sin_coefficients,
    derivative,
    l2_norm_sq,
    norm_series,
    real_fields,
    sobolev_norm_T,
)


# ---------------------------------------------------------------------------
# ledger rows and energy functionals


def _row(check_id, lhs, rhs, ok, **extra):
    """One ledger row {check_id, lhs, rhs, slack = rhs - lhs, pass}, plus
    the row-specific `extra` entries."""
    return {
        "check_id": check_id,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "slack": float(rhs - lhs),
        "pass": bool(ok),
        **extra,
    }


def _energy(params, a, zdot, z):
    """E = (rho |a|^2 + m zdot^2 + k z^2) / 2 per state, for fluid states a
    (m, n) and series zdot, z (m,)."""
    return 0.5 * (
        params.rho * np.sum(a**2, axis=1)
        + params.mass * zdot**2
        + params.stiffness * z**2
    )


def energy_E(traj, params):
    """Natural energy series E(t) = (rho ||v||^2 + m |z'|^2 + k |z|^2) / 2.

    The basis is L^2-orthonormal, so ||v||^2 = sum_i a_i^2.
    """
    return _energy(params, traj.a, traj.zdot, traj.z)


def _dissipation(gsys, a):
    """||grad v||^2 = a.(grad Gram).a per state, for fluid states a (m, n)."""
    return np.einsum("ti,ik,tk->t", a, gsys.basis.grad_gram, a)


def admissible_delta(basis, params):
    """Largest coupling weight delta for which G stays equivalent to E."""
    psi1_norm = math.sqrt(basis.l2_inner(0, 0))
    beta1 = float(basis.beta[0])
    return min(
        1.0,
        1.0 / psi1_norm,
        1.0 / beta1,
        params.stiffness / (params.rho * psi1_norm + params.mass * beta1),
    )


def _G_of_state(params, a, zdot, z, beta1, delta):
    """G = 2E + delta (rho z a_1 + m beta_1 z zdot) per state."""
    return (
        2.0 * _energy(params, a, zdot, z)
        + delta * params.rho * z * a[:, 0]
        + delta * params.mass * beta1 * z * zdot
    )


def energy_G(traj, params, basis, delta):
    """Augmented energy series G(t); errors if delta is not admissible.

    G - E and 3E - G are E +- delta (rho z a_1 + m beta_1 z zdot), so the
    chain E <= G <= 3E holds for every state exactly when the quadratic
    form of (a_1, zdot, z) below is positive semidefinite (flipping the
    sign of z maps one sign of delta to the other); the other a_i only add
    rho a_i^2 / 2.
    """
    beta1 = float(basis.beta[0])
    rho, m, k = params.rho, params.mass, params.stiffness
    form = 0.5 * np.array(
        [[rho, 0.0, delta * rho], [0.0, m, delta * m * beta1], [delta * rho, delta * m * beta1, k]]
    )
    if np.linalg.eigvalsh(form)[0] < -1e-12 * np.abs(form).max():
        raise PeriflowError(
            f"delta={delta} is not admissible: the E <= G <= 3E chain fails "
            "for some state"
        )
    return _G_of_state(params, traj.a, traj.zdot, traj.z, beta1, delta)


# ---------------------------------------------------------------------------
# energy identity and period balance


@dataclass(frozen=True)
class EnergyReport:
    E: np.ndarray
    G: np.ndarray
    delta: float
    identity_residual: float
    identity_tol: float
    period_balance: float  # |E(T) - E(0)|
    balance_tol: float
    equivalence_slack: float  # min(G - E, 3E - G) along the trajectory
    equivalence_tol: float  # the slack may dip to -equivalence_tol


def check_energy_identity(traj, gsys):
    """Max residual of the instantaneous energy balance at half-grid points.

    dE/dt + rho a.b.a + rho a.d(t).a - rho a.F(t) = 0 along exact
    solutions, where rho a.F = rho a.f + g z' with the data of `gsys`; the
    transport tensor drops out by skew symmetry.
    """
    n = gsys.n
    M = traj.n_steps
    T = traj.period
    rho = gsys.params.rho
    states2 = traj.resample_states(2 * M)[:-1]
    a2 = states2[:, :n]
    z2 = states2[:, n]
    E2 = _energy(gsys.params, a2, a2 @ gsys.beta, z2)
    dEdt = spectral_time_derivative(E2, T)
    half = np.arange(1, 2 * M, 2)
    times_h = half * (T / (2 * M))
    a = a2[half]

    quad_d = np.einsum("ti,tik,tk->t", a, gsys.d_at(times_h), a)
    dot_F = np.einsum("ti,ti->t", a, gsys.forcing_at(times_h))

    res = (
        dEdt[half]
        + rho * np.einsum("ti,ik,tk->t", a, gsys.b, a)
        + rho * quad_d
        - rho * dot_F
    )
    return float(np.abs(res).max())


def energy_report(traj, gsys):
    params = gsys.params
    basis = gsys.basis
    E = energy_E(traj, params)
    delta = admissible_delta(basis, params)
    G = energy_G(traj, params, basis, delta)
    resid = check_energy_identity(traj, gsys)
    scale = 1.0 + float(E.max())
    tol, tol_bal, tol_eq = 1e-6 * scale, 1e-9 * scale, 1e-10 * scale
    balance = float(abs(E[-1] - E[0]))
    eq_slack = float(min(np.min(G - E), np.min(3.0 * E - G)))
    return EnergyReport(
        E=E,
        G=G,
        delta=delta,
        identity_residual=resid,
        identity_tol=tol,
        period_balance=balance,
        balance_tol=tol_bal,
        equivalence_slack=eq_slack,
        equivalence_tol=tol_eq,
    )


# ---------------------------------------------------------------------------
# dissipation bound over a period


def check_partial_bound(traj, gsys):
    """The `dissipation-bound` ledger row: int (||grad v||^2 + |z'|^2) dt
    against the data int (||f||^2 + |g|^2) dt of `gsys.forces`, with their
    ratio `c3_hat`.  Zero data must come with zero dissipation (the trivial
    periodic solution is unique); anything else raises."""
    forces = gsys.forces
    dt = traj.period / traj.n_steps
    lhs = float(dt * np.sum(_dissipation(gsys, traj.a[:-1]) + traj.zdot[:-1] ** 2))
    rhs = forces.f_l2_l2_norm() ** 2 + l2_norm_sq(forces.g)
    if rhs == 0.0:
        if lhs > 1e-18:
            raise PeriflowError(
                "zero forcing data but nonzero dissipation: contradicts the "
                "uniqueness of the trivial periodic solution"
            )
        return _row("dissipation-bound", 0.0, 0.0, True, c3_hat=0.0, zero_data=True)
    c3 = lhs / rhs
    if not math.isfinite(c3):
        raise PeriflowError(f"dissipation/data ratio is not finite: {c3}")
    return _row("dissipation-bound", lhs, rhs, True, c3_hat=c3, zero_data=False)


# ---------------------------------------------------------------------------
# particular (fully dissipative) energy ledger


def _gradV_norm_series(gsys, times):
    """||grad V(t)||_{L^2} restricted to the basis support cells, from the
    carrier fields that the system keeps there (`carrier_fields`)."""
    carrier = gsys.carrier
    re, im = np.split(gsys.carrier_fields[1], 2)  # (K, nc, 2, 2) each
    harm = dict(zip(carrier.harmonics, re + 1j * im))
    return norm_series(harm, gsys.basis.cell_weights, carrier.omega, times)


def check_particular_energy(traj, gsys, G):
    """Ledger rows for the decay inequality of the augmented energy G (the
    series of `energy_report`), and the sqrt(G) series.

    All unnamed constants are fitted minimally on this run; the genuine
    check is the sup-via-mean reconstruction: sup sqrt(G) <= (1+1/T) int
    sqrt(G) dt, the mechanism that bounds the homotopy solution set.
    """
    params = gsys.params
    T = traj.period
    M = traj.n_steps
    dt = T / M
    sqrtG = np.sqrt(np.maximum(G, 0.0))
    ids = ("decay-inequality", "integrated-decay", "energy-sup-reconstruction")
    if sqrtG.max() <= 1e-14:
        return [_row(cid, 0.0, 0.0, True) for cid in ids], sqrtG

    r1 = _dissipation(gsys, traj.a) + traj.zdot**2
    times = traj.times[:-1]
    gradV = _gradV_norm_series(gsys, times)
    f_series = gsys.forces.f_norm_series(M)
    g_series = gsys.forces.g(times)
    r2 = gradV**2 + f_series**2 + g_series**2
    scale = 1.0 + float(sqrtG.max())

    dsqrtG = spectral_time_derivative(sqrtG[: M], T)
    decay_rate = 0.5 * params.mu / params.rho
    lhs_series = dsqrtG + decay_rate * sqrtG[:M]
    denom = r1[:M] + r2 + 1.0
    c_fit = max(0.0, float(np.max(lhs_series / denom)))
    lhs = float(np.max(lhs_series))
    rhs = float(c_fit * np.max(denom))
    decay = _row(ids[0], lhs, rhs, rhs >= lhs - 1e-12 * scale,
                 fitted_constant=c_fit, decay_rate=decay_rate)

    int_sqrtG = float(dt * np.sum(sqrtG[:M]))
    int_r2 = float(dt * np.sum(r2))
    c3_fit = int_sqrtG / int_r2 if int_r2 > 0 else 0.0
    integrated = _row(ids[1], int_sqrtG, c3_fit * int_r2, math.isfinite(c3_fit),
                      fitted_constant=c3_fit)

    sup_sqrtG = float(sqrtG.max())
    rhs_sup = int_sqrtG * (1.0 + 1.0 / T)
    sup = _row(ids[2], sup_sqrtG, rhs_sup, sup_sqrtG <= rhs_sup + 1e-12 * scale)
    return [decay, integrated, sup], sqrtG


# ---------------------------------------------------------------------------
# smallness conditions


_NOMINAL_CONSTANTS = {
    "c3": 1.0,
    "c8": 1.0,
    "c9": 1.0,
    "c10": 1.0,
    "c12": 1.0,
    "c14": 1.0,
    "c15": 1.0,
    "C14": 0.0,
    "C15": 1.0,
    "C16": 0.0,
}


def _eps_star(c8, c9, c10):
    """Largest gradient scale at which the prime-energy coefficient stays
    positive: the positive root of c10 - c9 x - c8 x^2, squared."""
    return ((c9 - math.sqrt(c9**2 + 4.0 * c10 * c8)) / (-2.0 * c8)) ** 2


def smallness_report(phi, params, cq, forces):
    """Margins of the three data-smallness conditions.

    The primary (gating) condition compares the flow-rate norm to the
    transport constant estimated on this geometry; the two refinements use
    nominal unit constants (reported as such) and read the forcing bounds
    and the external forces `tilde_f`, `tilde_g` from `forces`.
    """
    from .carrier import force_bound_report

    cons = _NOMINAL_CONSTANTS
    T = phi.period
    phi_w12 = sobolev_norm_T(phi, 1)
    phi_w22 = sobolev_norm_T(phi, 2)

    out = {"nominal_constants": True}
    if cq > 0:
        rhs_weak = params.mu / (params.rho * cq)
        margin = 1.0 - phi_w12 / rhs_weak
        out["weak"] = {
            "lhs": phi_w12,
            "rhs": rhs_weak,
            "margin": margin,
            "ok": bool(phi_w12 < rhs_weak),
        }
    else:
        out["weak"] = {"lhs": phi_w12, "rhs": math.inf, "margin": 1.0, "ok": True}

    by_label = {r.label: r for r in force_bound_report(forces)}
    cf = by_label["f_L2L2_vs_phi_W12"].empirical_constant
    cg = by_label["g_L2_vs_phi_W12"].empirical_constant
    f_inf = by_label["f_LinfL2_vs_phi_W22"].lhs
    g_inf = by_label["g_Linf_vs_phi_W22"].lhs
    df_inf = by_label["dfdt_LinfL2_vs_phi_W32"].lhs
    dg_inf = by_label["dgdt_Linf_vs_phi_W32"].lhs
    tf_sq = tg_sq = 0.0
    if forces.tilde_f is not None:
        tf_sq = forces.tilde_f.l2_l2_norm(forces.mesh) ** 2
    if forces.tilde_g is not None:
        tg_sq = l2_norm_sq(forces.tilde_g)

    eps = _eps_star(cons["c8"], cons["c9"], cons["c10"])
    lhs1 = 2.0 * cons["c3"] * ((cf**2 + cg**2) * phi_w12**2 + tf_sq + tg_sq)
    rhs1 = eps * T
    out["strong1"] = {
        "lhs": lhs1,
        "rhs": rhs1,
        "margin": 1.0 - lhs1 / rhs1 if rhs1 > 0 else -math.inf,
        "ok": bool(lhs1 < rhs1),
    }

    lhs2 = (
        cons["c14"] * (f_inf**2 + g_inf**2)
        + cons["c15"]
        * cons["C15"]
        * (cons["C14"] + cons["c12"] * (phi_w22**2 + dg_inf + df_inf))
        + cons["C16"]
    )
    rhs2 = eps
    out["strong2"] = {
        "lhs": lhs2,
        "rhs": rhs2,
        "margin": 1.0 - lhs2 / rhs2 if rhs2 > 0 else -math.inf,
        "ok": bool(lhs2 < rhs2),
    }
    return out


# ---------------------------------------------------------------------------
# strong-regularity monitor


@dataclass(frozen=True)
class StrongRegularityReport:
    c8: float
    c9: float
    c10: float
    c11: float
    c12: float
    delta_prime: float  # min of the coefficient c10 - c9 g - c8 g^2
    identity_residual: float  # differentiated energy balance check
    sup_prime_energy: float  # sup (||v'||^2 + (m/rho) |z''|^2)
    prime_bound_rhs: float


def _fit_two_constants(u, v, q):
    """Minimal x + y over x, y >= 0 with x*u + y*v >= q pointwise (an LP):
    (x, y) = (1 - tau, tau) / h at the maximum over [0, 1] of the concave
    h(tau) = min_i ((1 - tau) u_i + tau v_i) / q_i.  Bisection on the sign of
    h' finds the two lines lowest there, whose constraints give the exact
    vertex; on an axis, x or y is exactly 0.0."""
    mask = q > 0
    if not np.any(mask):
        return 0.0, 0.0
    P, Q = u[mask] / q[mask], v[mask] / q[mask]

    def lowest(tau):  # the line lowest at tau, and whether it rises
        i = int(np.argmin((1.0 - tau) * P + tau * Q))
        return i, Q[i] > P[i]

    if not lowest(0.0)[1]:
        return float(1.0 / P.min()), 0.0
    if lowest(1.0)[1]:
        return 0.0, float(1.0 / Q.min())
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if lowest(mid)[1] else (lo, mid)
    (a, _), (b, _) = lowest(lo), lowest(hi)
    det = P[a] * Q[b] - P[b] * Q[a]
    return float((Q[b] - Q[a]) / det), float((P[a] - P[b]) / det)


def strong_regularity_monitor(traj, gsys):
    """Differentiated-energy diagnostics: fitted coefficient positivity and
    the bound on the time-derivative energy over one period."""
    M = traj.n_steps
    T = traj.period
    params = gsys.params
    m_rho = params.mass / params.rho
    n = gsys.n
    a = traj.a[:-1]
    adot = traj.adot[:-1]
    zdot = traj.zdot[:-1]
    zsec = adot @ gsys.beta
    times = traj.times[:-1]

    vp = np.sqrt(np.sum(adot**2, axis=1))
    g_series = np.sqrt(_dissipation(gsys, a))
    D = _dissipation(gsys, adot) + m_rho * zsec**2

    # exact pieces of the differentiated energy balance
    prime_energy = vp**2 + m_rho * zsec**2
    N = 0.5 * spectral_time_derivative(prime_energy, T)
    Diss = np.einsum("ti,ik,tk->t", adot, gsys.b, adot)
    # sum_ijk adot_i c_ijk a_j adot_k: contract i by one product, then j, k per time
    ca = (adot @ gsys.c.reshape(n, n * n)).reshape(-1, n, n)
    Tri = (a[:, None, :] @ ca @ adot[:, :, None])[:, 0, 0]

    d_term = np.einsum("ti,tik,tk->t", adot, gsys.d_at(times), adot)
    d_term += np.einsum("ti,tik,tk->t", a, gsys.d_at(times, 1), adot)
    S = (params.stiffness / params.rho) * zdot * zsec
    # a'.F' = a'.f' + g' z'' / rho
    F = np.einsum("ti,ti->t", adot, gsys.forcing_at(times, 1))
    gprime = derivative(gsys.forces.g)(times)
    identity_res = float(np.abs(N + Diss + d_term + S - F - Tri).max())

    # fitted constants
    active = D > 1e-14 * (1.0 + D.max())
    c10 = float(np.min(Diss[active] / D[active])) if np.any(active) else params.nu
    qA = np.maximum(0.0, Tri - d_term)
    c9, c8 = _fit_two_constants(g_series * D, g_series**2 * D, qA)
    df_series = gsys.forces.f_norm_series(M, dt_order=1)
    phi_w22 = sobolev_norm_T(gsys.carrier.flow.flowrate, 2)
    data = phi_w22**2 + gprime**2 + df_series**2
    qB = np.maximum(0.0, F - S)
    c11, c12 = _fit_two_constants(zdot**2, data, qB)

    delta_prime = float(np.min(c10 - c9 * g_series - c8 * g_series**2))
    # the grid time minimizing ||grad v||^2 + |z'|^2
    i_star = int(np.argmin(g_series**2 + zdot**2))

    # both sides of the one-period bound on the derivative energy, with the
    # fitted constants: grow from t* by the (possibly negative) net rate
    sup_prime = float(prime_energy.max())
    rate = c8 * g_series**2 + c9 * g_series - c10
    int_rate = float((T / M) * np.sum(rate))
    rhs_prime = math.exp(max(int_rate, 0.0)) * float(prime_energy[i_star]) + (
        float(np.max(data)) * c12 + c11 * float(np.max(zdot**2))
    ) * T
    return StrongRegularityReport(
        c8=c8,
        c9=c9,
        c10=c10,
        c11=c11,
        c12=c12,
        delta_prime=delta_prime,
        identity_residual=identity_res,
        sup_prime_energy=sup_prime,
        prime_bound_rhs=rhs_prime,
    )


# ---------------------------------------------------------------------------
# far-field decay and the elliptic right-hand side


def far_field_decay(basis, traj, x_list):
    """L^2-in-time, L^3-in-space norms of v beyond |x1| >= X, per X.

    v is evaluated on every mesh cell at 64 times, one block of cells at a
    time, so a field that leaks past the basis support |x1| < X0 + 1 shows
    as a nonzero norm there; this check verifies the support containment
    and monotone decay inside it.  The zero rows that the forcing
    projection of `assemble_system` and `stokes_rhs_norm` read beyond the
    support rest on that containment.
    """
    n_times = 64
    a = traj.resample_states(n_times)[:-1, : basis.n]  # (n_times, n)
    mesh = basis.mesh
    # the integrals of |v|^3 beyond each X per time, one product of the
    # states with the basis velocities per block of cells: v of all times
    # on all cells at once would hold n_times copies of the fields, and the
    # fields of all cells at once two arrays over the whole mesh
    cubes = np.zeros((n_times, len(x_list)))
    for cells, psi in basis.velocity_blocks(mesh.centers):
        # quadrature weights of the block's cells beyond each X
        x1 = np.abs(mesh.centers[cells, 0])
        beyond = np.array([x1 >= X for X in x_list]) * mesh.weights[cells]
        # (n_times, 2 * block): the two components of v side by side per cell
        v = a @ psi.reshape(len(psi), -1)
        v *= v
        q = v[:, 0::2] + v[:, 1::2]  # |v|^2
        cubes += (q * np.sqrt(q)) @ beyond.T
        del psi, v, q  # before the next block forms its own
    l3 = cubes ** (1.0 / 3.0)
    norms = np.sqrt((traj.period / n_times) * np.sum(l3**2, axis=0))
    return {float(X): float(v) for X, v in zip(x_list, norms)}


class BodyPressureBump:
    """theta(x) = x1 * plateau-bump around the body: compactly supported,
    equals x1 on the body boundary, so the boundary weight int_Gamma n1 theta
    equals the body area exactly."""

    def __init__(self, carrier):
        self.fx = Product(Affine(0.0), carrier.bump_x)
        self.gy = carrier.bump_y
        geom = carrier.geometry
        self.boundary_weight = geom.body_width * geom.body_height

    def __call__(self, x1, x2):
        return self.fx.jet(x1, 0)[0] * self.gy.jet(x2, 0)[0]

    def grad(self, x1, x2):
        f, g = self.fx.jet(x1, 1), self.gy.jet(x2, 1)
        return np.stack([f[1] * g[0], f[0] * g[1]], axis=-1)


def _stokes_fields(gsys, theta, cells, f_support):
    """The real fields of the Stokes forcing on the mesh cells `cells`,
    (m, len(cells), 2), in the row order of the coefficient columns of
    `stokes_rhs_norm`: Re/Im of the f harmonics (`f_support`, (2Kf, nf, 2)
    on `forces.cell_idx`), psi_i, d_1 psi_i, Re/Im of (V_k.grad) psi_i +
    (psi_i.grad) V_k per carrier harmonic k, Re/Im of d_1 V_k, and
    grad theta.

    Every field but grad theta is read, not evaluated: f from its support
    cells `forces.cell_idx`, psi and V from the basis cells `basis.cell_idx`
    (the basis `values`/`grads` and the system's `carrier_fields`).  Off
    the stored cells the rows are zeros, and so are the exact fields: f
    vanishes off its support, psi_i beyond |x1| >= X0 + 1, V_k enters only
    multiplied by basis fields, and d_1 V_k = 0 there because the carrier's
    x1-dependence ends inside |x1| < X0 (`build_flux_carrier`)."""
    basis = gsys.basis
    pts = basis.mesh.centers[cells]
    (f,) = cell_rows(gsys.forces.cell_idx, cells, f_support)
    # (n, b, 2), (n, b, 2, 2), (2K, b, 2), (2K, b, 2, 2)
    psi, gpsi, V, GV = cell_rows(
        basis.cell_idx, cells, basis.values, basis.grads, *gsys.carrier_fields
    )
    # grad[..., c, d] = d_d u_c, so d_1 u = grad[..., 0]; the transport
    # fields (r k, i, p, c) are sums over d of broadcast products
    Vi, GVi = V[:, None, :, :, None], GV[:, None]
    transport = Vi[..., 0, :] * gpsi[..., 0] + Vi[..., 1, :] * gpsi[..., 1]
    transport += psi[..., 0, None] * GVi[..., 0] + psi[..., 1, None] * GVi[..., 1]
    parts = (f, psi, gpsi[..., 0], transport, GV[..., 0], theta.grad(pts[:, 0], pts[:, 1]))
    return np.concatenate([x.reshape(-1, *pts.shape) for x in parts])


def stokes_rhs_norm(traj, gsys, n_times=64):
    """sup-in-time L^2 norm of the forcing of the instantaneous Stokes
    problem satisfied by v(t), with the pressure-like correction built from
    the body bump theta (must have nonzero boundary weight).

    The forcing h = f - v' - (V.grad) v - (v.grad) V + z'(d_1 v + d_1 V)
    + p grad theta is C(t) @ F: fixed real fields F (`_stokes_fields`) with
    time coefficients C built from the states and the harmonic phases.  So
    ||h(t)||^2 = ((C @ F)^2) @ w, accumulated over blocks of
    `geometry.CELL_BLOCK` cells of the union of the basis and forcing
    supports: the fields of all cells at once raise the peak memory of a
    solve.  The fields are the rows stored by the basis, the assembly and
    the forcing, so no block evaluates the carrier or the basis again.  The
    sum is a reordering of the per-time evaluation, so nothing cancels.
    """
    basis = gsys.basis
    carrier = gsys.carrier
    forces = gsys.forces
    params = gsys.params
    theta = BodyPressureBump(carrier)
    if abs(theta.boundary_weight) < 1e-14:
        raise PeriflowError("theta has zero boundary weight; cannot normalize")

    states = traj.resample_states(n_times)[:-1]
    derivs = resample_periodic(traj.derivs[:-1], n_times)
    n = basis.n
    a = states[:, :n]
    z = states[:, n]
    adot = derivs[:, :n]
    zdot = a @ gsys.beta
    zsec = adot @ gsys.beta
    times = np.arange(n_times) * (traj.period / n_times)
    pressure = (params.mass * zsec - params.stiffness * z - forces.g(times)) / (
        params.rho * theta.boundary_weight
    )

    omega = carrier.omega
    f_phase = cos_sin_coefficients(list(forces.f_harmonics), omega, times)  # (t, 2Kf)
    V_phase = cos_sin_coefficients(carrier.harmonics, omega, times)  # (t, 2K)
    # one column per row of _stokes_fields
    C = np.concatenate(
        [
            f_phase,
            -adot,
            zdot[:, None] * a,
            -(V_phase[..., None] * a[:, None, :]).reshape(n_times, -1),
            zdot[:, None] * V_phase,
            pressure[:, None],
        ],
        axis=1,
    )

    f_support = np.zeros((0,) + forces.cell_idx.shape + (2,))
    if forces.f_harmonics:
        f_support = real_fields(forces.f_harmonics)  # (2Kf, nf, 2)
    mesh = basis.mesh
    cells = np.union1d(basis.cell_idx, forces.cell_idx)
    sq = np.zeros(n_times)
    for rows in cell_blocks(len(cells)):
        block = cells[rows]
        F = _stokes_fields(gsys, theta, block, f_support)
        h = C @ F.reshape(len(F), -1)
        h *= h
        sq += h @ np.repeat(mesh.weights[block], 2)
    return times, np.sqrt(sq)


# ---------------------------------------------------------------------------
# resonance probe


def resonance_probe(gsys, fp_cfg, start=None):
    """Coupled solve vs decoupled pure oscillator at the system period.

    Returns both outcomes: the coupled problem should converge with bounded
    energy at any period (fluid dissipation damps the oscillator), while the
    bare oscillator is singular exactly at its natural period.  The coupled
    fixed point starts from `start` (as in `fixed_point`) or from zero, and
    a converged one carries its trajectory, the start of a period sweep's
    next period.  A coupled solve that fails is reported, except a
    ResolutionError: a grid too coarse for the system says nothing about
    resonance, so it propagates.
    """
    from .solver import fixed_point

    params = gsys.params
    report = {"period": gsys.period, "natural_period": params.natural_period}
    try:
        traj, rep = fixed_point(gsys, fp_cfg, start=start)
        E = energy_E(traj, params)
        report["coupled"] = {
            "converged": True,
            "iterations": rep["iterations"],
            "sup_E": float(E.max()),
            "residual": rep["residual"],
            "trajectory": traj,
        }
    except ResolutionError:
        raise
    except PeriflowError as exc:
        report["coupled"] = {"converged": False, "error": f"{type(exc).__name__}: {exc}"}

    osc = oscillator_system(params, gsys.forces.g)
    try:
        sol = solve_linear_periodic(osc)
        report["decoupled"] = {
            "singular": False,
            "sup_state": sol.sup_norm(),
        }
    except ResonantOrNonUnique as exc:
        report["decoupled"] = {"singular": True, "sigma_min": exc.sigma_min}
    return report


# ---------------------------------------------------------------------------
# bundle


def diagnostics_bundle(traj, gsys):
    """Run every trajectory-level check on `traj` and the system `gsys` that
    carries its data, and return a JSON-safe ledger."""
    rows = []

    er = energy_report(traj, gsys)
    rows.append(_row("energy-identity", er.identity_residual, er.identity_tol,
                     er.identity_residual <= er.identity_tol))
    rows.append(_row("energy-period-balance", er.period_balance, er.balance_tol,
                     er.period_balance <= er.balance_tol))
    rows.append(_row("energy-equivalence", -er.equivalence_slack, er.equivalence_tol,
                     er.equivalence_slack >= -er.equivalence_tol))

    pb = check_partial_bound(traj, gsys)
    rows.append(pb)

    pe_rows, _ = check_particular_energy(traj, gsys, er.G)
    rows.extend(pe_rows)

    sr = strong_regularity_monitor(traj, gsys)
    rows.append(_row("prime-coefficient-positivity", 0.0, sr.delta_prime,
                     sr.delta_prime > 0.0))
    rows.append(_row("prime-energy-sup", sr.sup_prime_energy, sr.prime_bound_rhs,
                     math.isfinite(sr.sup_prime_energy)))
    rows.append(_row("prime-identity", sr.identity_residual,
                     1e-4 * (1.0 + sr.sup_prime_energy),
                     sr.identity_residual <= 1e-4 * (1.0 + sr.sup_prime_energy)))

    geom = gsys.basis.geometry
    xs = [0.0, 0.5 * geom.X0, geom.X0, geom.X0 + 1.0, geom.X0 + 1.5]
    ff = far_field_decay(gsys.basis, traj, xs)
    vals = [ff[float(X)] for X in xs]
    monotone = all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
    rows.append(_row("far-field-support", vals[-2] + vals[-1], 0.0,
                     vals[-2] == 0.0 and vals[-1] == 0.0 and monotone))

    _, h_norms = stokes_rhs_norm(traj, gsys)
    sup_h = float(h_norms.max())
    rows.append(_row("stokes-rhs-sup", sup_h, sup_h, math.isfinite(sup_h)))

    return {
        "rows": rows,
        "series": {
            "E_max": float(er.E.max()),
            "G_max": float(er.G.max()),
            "delta": er.delta,
            "c3_hat": pb["c3_hat"],
            "delta_prime": sr.delta_prime,
            "sup_prime_energy": sr.sup_prime_energy,
            "sup_stokes_rhs": sup_h,
            "far_field": {f"{k:.3f}": v for k, v in ff.items()},
            "strong_constants": {
                "c8": sr.c8,
                "c9": sr.c9,
                "c10": sr.c10,
                "c11": sr.c11,
                "c12": sr.c12,
            },
        },
    }
