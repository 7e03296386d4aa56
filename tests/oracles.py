"""Independent oracles used by the test suite.

These are deliberately different algorithms from the library code: the
channel-profile oracle is a Crank-Nicolson time stepper with a bordered flux
constraint (the library solves per-harmonic boundary-value problems), cubic
tensor sums are brute-force triple loops, and the linear-ODE references are
closed forms.  The basis tensors have a multi-operand einsum reference over
the support cells (the library sums them as products of 1D sums on the
mesh grid), the carrier transport forms and their carrier-advected partner
per-component loops over the support cells, and the forcing projection an
einsum with the basis evaluated afresh.  The body force at arbitrary points
re-evaluates the carrier fields there (the library stores it on its
support cells).  scipy is the reference for the library's numpy numerics:
`CubicSpline` for its splines, `solve_banded` for its tridiagonal solve,
the generalized `eigh` for its Cholesky-reduced eigenproblem and `linprog`
for its two-constant fit.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh, lu_factor, lu_solve, solve_banded
from scipy.optimize import linprog

from periflow.carrier import _f_harmonics_at
from periflow.signals import synthesize


def spline_quadrature_weights(x2):
    """Weights w with w . u = integral over [-1, 1] of the cubic spline
    through (x2, u); matches the flux functional used by the profile solver."""
    n = len(x2)
    w = np.empty(n)
    e = np.zeros(n)
    for j in range(n):
        e[:] = 0.0
        e[j] = 1.0
        w[j] = CubicSpline(x2, e).integrate(-1.0, 1.0)
    return w


def womersley_time_stepper(
    flowrate,
    params,
    n_nodes=257,
    steps_per_period=4096,
    max_periods=40,
    settle_tol=1e-11,
):
    """Periodic steady state of the flux-constrained channel-profile problem
    by Crank-Nicolson time stepping.

    Unknowns per step: interior profile values plus the pressure-gradient
    amplitude, coupled through the flux constraint in a bordered linear
    system.  Integrates whole periods until two successive periods agree to
    `settle_tol` in the discrete space-time L2 norm.

    Returns dict with x2, per-step times over one period, the profile history
    (steps_per_period, n_nodes), the pressure-factor history, and the flux
    quadrature weights.
    """
    T = flowrate.period
    nu = params.nu
    x2 = np.linspace(-1.0, 1.0, n_nodes)
    h = x2[1] - x2[0]
    ni = n_nodes - 2
    dt = T / steps_per_period

    D2 = (
        np.diag(np.full(ni, -2.0))
        + np.diag(np.ones(ni - 1), 1)
        + np.diag(np.ones(ni - 1), -1)
    ) / h**2
    w_full = spline_quadrature_weights(x2)
    w_int = w_full[1:-1]

    K = np.zeros((ni + 1, ni + 1))
    K[:ni, :ni] = np.eye(ni) / dt - 0.5 * nu * D2
    K[:ni, ni] = -0.5
    K[ni, :ni] = w_int
    lu = lu_factor(K)
    explicit = np.eye(ni) / dt + 0.5 * nu * D2

    u = np.zeros(ni)
    P = 0.0
    hist = np.zeros((steps_per_period, ni))
    prev_hist = None
    for _ in range(max_periods):
        t = 0.0
        for j in range(steps_per_period):
            hist[j] = u
            rhs = np.empty(ni + 1)
            rhs[:ni] = explicit @ u + 0.5 * P
            rhs[ni] = float(flowrate(t + dt))
            sol = lu_solve(lu, rhs)
            u, P = sol[:ni], sol[ni]
            t += dt
        if prev_hist is not None:
            diff = math.sqrt(dt * h * float(np.sum((hist - prev_hist) ** 2)))
            if diff < settle_tol:
                break
        prev_hist = hist.copy()
    else:
        raise RuntimeError("time stepper did not reach a periodic steady state")

    profiles = np.zeros((steps_per_period, n_nodes))
    profiles[:, 1:-1] = hist
    times = np.arange(steps_per_period) * dt
    return {
        "x2": x2,
        "times": times,
        "profiles": profiles,
        "weights": w_full,
        "dt": dt,
    }


def cubic_sum_bruteforce(c, a):
    """Triple-loop evaluation of sum_{i,j,k} c[i,j,k] a_i a_j a_k."""
    n = len(a)
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total += c[i, j, k] * a[i] * a[j] * a[k]
    return total


def support_fields(basis):
    """The quadrature weights of the basis support cells, and psi and
    grad psi there (grad[..., c, d] = d_d psi_c), evaluated afresh at the
    cell centres."""
    pts = basis.mesh.centers[basis.cell_idx]
    return basis.mesh.weights[basis.cell_idx], basis.velocity_at(pts), basis.gradient_at(pts)


def basis_tensors_einsum(basis):
    """The skew-symmetrized cubic transport tensor c and the gradient and
    strain Gram matrices of a basis, by direct einsum over the support cells:
    c_ijk = skew_jk sum_p w_p ((psi_i - beta_i e1) . grad psi_j) . psi_k."""
    w, V, G = support_fields(basis)
    shifted = V - basis.beta[:, None, None] * np.array([1.0, 0.0])
    D = 0.5 * (G + np.swapaxes(G, 2, 3))
    Q = np.einsum("p,ipd,jpcd,kpc->ijk", w, shifted, G, V, optimize=True)
    return {
        "c": 0.5 * (Q - np.transpose(Q, (0, 2, 1))),
        "grad_gram": np.einsum("p,ipcd,kpcd->ik", w, G, G),
        "strain_gram": np.einsum("p,ipcd,kpcd->ik", w, D, D),
    }


def carrier_transport_forms(basis, carrier):
    """Per flow harmonic k, the carrier transport form
    B_k[i, j] = sum_p w_p ((psi_i - beta_i e1) . grad V_k) . psi_j over the
    basis support cells, with the carrier gradient evaluated afresh and the
    sum over the components (c, d) of grad V_k an explicit loop."""
    w, V, _ = support_fields(basis)
    shifted = V - basis.beta[:, None, None] * np.array([1.0, 0.0])
    pts = basis.mesh.centers[basis.cell_idx]
    forms = {}
    for k, fields in carrier.harmonic_fields(pts, ("grad",)).items():
        grad = fields["grad"]  # d_d V_c
        B = np.zeros((basis.n, basis.n), dtype=complex)
        for c in range(2):
            for d in range(2):
                B += (shifted[:, :, d] * (w * grad[:, c, d])) @ V[:, :, c].T
        forms[k] = B
    return forms


def carrier_advected_forms(basis, carrier):
    """Per flow harmonic k, the carrier-advected half of d_k: the skew part
    of D_k[i, j] = sum_p w_p ((V_k . grad) psi_i) . psi_j over the basis
    support cells, with the carrier velocity evaluated afresh and the sum
    over the components (c, d) of grad psi_i an explicit loop."""
    w, V, G = support_fields(basis)  # G: d_d psi_c
    pts = basis.mesh.centers[basis.cell_idx]
    forms = {}
    for k, fields in carrier.harmonic_fields(pts, ("V",)).items():
        vel = fields["V"]
        D = np.zeros((basis.n, basis.n), dtype=complex)
        for c in range(2):
            for d in range(2):
                D += (G[:, :, c, d] * (w * vel[:, d])) @ V[:, :, c].T
        forms[k] = 0.5 * (D - D.T)
    return forms


def forcing_projection(basis, forces):
    """Per harmonic k of the body force f, (f_k, psi_i) over the forcing
    cells, with the basis velocities evaluated afresh at their centres."""
    psi = basis.velocity_at(forces.mesh.centers[forces.cell_idx])
    return {
        k: np.einsum("p,pc,ipc->i", forces.cell_weights, fk, psi)
        for k, fk in forces.f_harmonics.items()
    }


def body_force_at(forces, params, pts, t):
    """Real body force f (carrier part plus the external force) of `forces`,
    with the physical parameters `params`, at arbitrary points and times,
    from the carrier's harmonic fields
    evaluated afresh at `pts`; zero when the force vanishes."""
    harmonics = _f_harmonics_at(forces.carrier, params, forces.tilde_f, pts)
    return synthesize(harmonics or {0: np.zeros(pts.shape)}, forces.carrier.omega, t)


def body_boundary_quadrature(body, h):
    """Midpoint rule on the four sides of the body rectangle (bx0, bx1, by0,
    by1), at most h apart: nodes (nb, 2), outward unit normals (nb, 2) and
    weights (nb,).  The sides run counter-clockwise, so the outward normal
    of a side along the unit vector (e1, e2) is (e2, -e1)."""
    bx0, bx1, by0, by1 = body
    corners = np.array([(bx0, by0), (bx1, by0), (bx1, by1), (bx0, by1)], dtype=float)
    nodes, normals, weights = [], [], []
    for p, q in zip(corners, np.roll(corners, -1, axis=0)):
        length = float(np.hypot(*(q - p)))
        m = math.ceil(length / h)
        s = (np.arange(m) + 0.5) / m
        nodes.append(p + np.outer(s, q - p))
        e1, e2 = (q - p) / length
        normals.append(np.tile([e2, -e1], (m, 1)))
        weights.append(np.full(m, length / m))
    return np.vstack(nodes), np.vstack(normals), np.concatenate(weights)


def damped_cosine_response(omega_f, times):
    """Closed-form periodic solution of x' = -x + cos(omega_f t)."""
    return (np.cos(omega_f * times) + omega_f * np.sin(omega_f * times)) / (
        1.0 + omega_f**2
    )


def tridiagonal_solve_banded(sub, diag, sup, rhs):
    """LAPACK banded solve (partial pivoting) of the tridiagonal system."""
    ab = np.zeros((3, len(diag)), dtype=np.result_type(sub, diag, sup))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    return solve_banded((1, 1), ab, np.asarray(rhs, dtype=np.result_type(ab, rhs)))


def generalized_eigenvalues(B, G):
    """Eigenvalues of B x = lambda G x (B symmetric, G positive definite)."""
    return eigh(B, G, eigvals_only=True)


def two_constants_linprog(u, v, q):
    """Minimal x + y over x, y >= 0 with x*u + y*v >= q where q > 0, by HiGHS."""
    mask = q > 0
    A = -np.column_stack([u[mask], v[mask]])
    res = linprog(c=[1.0, 1.0], A_ub=A, b_ub=-q[mask], bounds=[(0, None), (0, None)])
    assert res.success, res.message
    return float(res.x[0]), float(res.x[1])
