"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, prints a single
pass/fail line (visible with `pytest -s` and in captured output on failure),
and asserts every sub-check at the stated tolerance.
"""

import math

import numpy as np
import pytest

from periflow.basis import estimate_cq
from periflow.diagnostics import (
    admissible_delta,
    check_energy_identity,
    check_partial_bound,
    energy_E,
    energy_G,
    smallness_report,
    stokes_rhs_norm,
    strong_regularity_monitor,
)
from periflow.errors import ResonantOrNonUnique
from periflow.geometry import PhysicalParams
from periflow.periodic_ode import (
    LinearPeriodicSystem,
    frozen_linear_part,
    linear_system_from_galerkin,
    oscillator_system,
    solve_linear_periodic,
)
from periflow.signals import constant_signal, sine_signal, sobolev_norm_T
from periflow.solver import (
    FixedPointConfig,
    homotopy_sweep,
    weak1_residual,
    weak2_residual,
)
from periflow.womersley import chi_norm_report, solve_poiseuille

from oracles import body_boundary_quadrature, damped_cosine_response, womersley_time_stepper

FD_H = 1e-5


def _report(number, name, checks):
    """Print one pass/fail line, then assert every sub-check."""
    ok = all(passed for _, passed in checks)
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    failed = [label for label, passed in checks if not passed]
    assert ok, f"criterion {number} failed sub-checks: {failed}"


def test_criterion_01_steady_poiseuille():
    params = PhysicalParams()
    flow = solve_poiseuille(constant_signal(1.0, 1.0), params, n_nodes=257)
    chi_err = float(np.max(np.abs(flow.chi[0] - 0.75 * (1.0 - flow.x2**2))))
    psi_err = abs(flow.pressure_factor_signal(0.0) - 1.5)
    _report(
        1,
        "steady parabolic profile",
        [
            (f"profile error {chi_err:.2e} <= 1e-10", chi_err <= 1e-10),
            (f"pressure factor error {psi_err:.2e} <= 1e-10", psi_err <= 1e-10),
        ],
    )


def test_criterion_02_profile_oracle():
    params = PhysicalParams()
    phi = sine_signal(1.0)
    flow = solve_poiseuille(phi, params, n_nodes=257)
    oracle = womersley_time_stepper(phi, params, n_nodes=257)
    diff_sq = 0.0
    for j, t in enumerate(oracle["times"]):
        delta = flow.profile_at(t) - oracle["profiles"][j]
        diff_sq += oracle["dt"] * float(np.dot(oracle["weights"], delta**2))
    err = math.sqrt(diff_sq)
    _report(
        2,
        "oscillating profile vs time-stepping oracle",
        [(f"space-time L2 error {err:.2e} <= 1e-6", err <= 1e-6)],
    )


def test_criterion_03_carrier_properties(ref_run, geom, mesh):
    carrier = ref_run["carrier"]
    forces = ref_run["forces"]
    phi = ref_run["phi"]

    rng = np.random.default_rng(3)
    pts = np.column_stack(
        [rng.uniform(-geom.X0, geom.X0, 300), rng.uniform(-0.95, 0.95, 300)]
    )
    pts = pts[geom.dist_inf_to_body(pts[:, 0], pts[:, 1]) > 2.0 * FD_H]
    div_max = 0.0
    for t in (0.0, 1.7):
        vxp = carrier.velocity_at(pts + [FD_H, 0.0], t)
        vxm = carrier.velocity_at(pts + [-FD_H, 0.0], t)
        vyp = carrier.velocity_at(pts + [0.0, FD_H], t)
        vym = carrier.velocity_at(pts + [0.0, -FD_H], t)
        div = (vxp[:, 0] - vxm[:, 0] + vyp[:, 1] - vym[:, 1]) / (2.0 * FD_H)
        div_max = max(div_max, float(np.max(np.abs(div))))

    body_nodes, _, _ = body_boundary_quadrature(geom.body, mesh.h)
    body_max = max(
        float(np.max(np.abs(carrier.velocity_at(body_nodes, t))))
        for t in (0.0, 2.4)
    )
    x1w = np.linspace(-geom.half_length, geom.half_length, 101)
    wall_max = max(
        float(np.max(np.abs(carrier.velocity_at(
            np.column_stack([x1w, np.full_like(x1w, s)]), 0.9))))
        for s in (-1.0, 1.0)
    )

    x2s = np.linspace(-0.99, 0.99, 40)
    far_err = 0.0
    for sgn in (-1.0, 1.0):
        q = np.column_stack([np.full_like(x2s, sgn * (geom.X0 + 0.1)), x2s])
        v = carrier.velocity_at(q, 1.2)
        prof = carrier.flow.profile_at(1.2, x2s)
        far_err = max(
            far_err,
            float(np.max(np.abs(v[:, 0] - prof))),
            float(np.max(np.abs(v[:, 1]))),
        )

    mass_out = forces.f_mass_outside()
    flux_err = max(
        abs(carrier.section_flux(0.0, t) - phi(t)) for t in (0.0, 1.1, 4.4)
    )
    _report(
        3,
        "flux-carrier structure",
        [
            (f"FD divergence {div_max:.2e} <= 1e-8/h", div_max <= 1e-8 / FD_H),
            (f"body boundary {body_max:.2e} <= 1e-10", body_max <= 1e-10),
            (f"channel walls {wall_max:.2e} <= 1e-10", wall_max <= 1e-10),
            (f"profile match beyond X0 {far_err:.2e} <= 1e-12", far_err <= 1e-12),
            (f"forcing mass outside support {mass_out:.2e} <= 1e-10", mass_out <= 1e-10),
            (f"section flux error {flux_err:.2e} <= 1e-8", flux_err <= 1e-8),
        ],
    )


def test_criterion_04_tensor_structure(ref_run, params):
    gsys = ref_run["system"]
    n = gsys.n
    A_err = float(np.max(np.abs(
        gsys.A - np.eye(n) - (params.mass / params.rho) * np.outer(gsys.beta, gsys.beta)
    )))
    lam_A = float(np.linalg.eigvalsh(gsys.A).min())
    b_sym = float(np.max(np.abs(gsys.b - gsys.b.T)))
    lam_b = float(np.linalg.eigvalsh(0.5 * (gsys.b + gsys.b.T)).min())
    skew = float(np.max(np.abs(gsys.c + np.transpose(gsys.c, (0, 2, 1)))))
    rng = np.random.default_rng(17)
    cubic_ok = True
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal(n)
        val = abs(float(np.einsum("i,ijk,j,k->", a, gsys.c, a, a)))
        bound = 1e-7 * np.linalg.norm(a) ** 3
        worst = max(worst, val / bound)
        cubic_ok = cubic_ok and val <= bound
    _report(
        4,
        "coefficient tensor structure",
        [
            (f"mass matrix identity {A_err:.2e}", A_err <= 1e-12),
            (f"lambda_min(A) = {lam_A:.12f} >= 1", lam_A >= 1.0 - 1e-12),
            (f"dissipation symmetry {b_sym:.2e}", b_sym <= 1e-12),
            (f"lambda_min(b) = {lam_b:.3e} > 0", lam_b > 0.0),
            (f"transport skew defect {skew:.2e} <= 1e-7", skew <= 1e-7),
            ("cubic form vanishes on 100 random vectors", cubic_ok),
        ],
    )


def test_criterion_05_linear_periodic_solver(zero_system):
    # closed-form scalar case x' = -x + cos(2t)
    omega_f = 2.0
    T = 2.0 * math.pi / omega_f
    tgrid = np.arange(4 * 512 + 1) * (T / (4 * 512))
    sys1 = LinearPeriodicSystem(
        period=T,
        coeffs=np.ones((len(tgrid), 1)),
        fixed=np.full((1, 1), -1.0),
        rhs=np.cos(omega_f * tgrid)[:, None],
        n_steps=512,
    )
    traj1 = solve_linear_periodic(sys1)
    scalar_err = float(np.max(np.abs(
        traj1.states[:, 0] - damped_cosine_response(omega_f, traj1.times)
    )))

    # homogeneous coupled system with random frozen transport coefficients
    rng = np.random.default_rng(2)
    tilde = rng.standard_normal((256, zero_system.n))
    lin = linear_system_from_galerkin(frozen_linear_part(zero_system, 256), tilde_a=tilde)
    hom_sup = solve_linear_periodic(lin).sup_norm()

    # undamped oscillator at its natural period
    params = PhysicalParams()
    resonant = False
    sigma = math.inf
    try:
        solve_linear_periodic(
            oscillator_system(params, sine_signal(params.natural_period, 0.5))
        )
    except ResonantOrNonUnique as exc:
        resonant = True
        sigma = exc.sigma_min
    _report(
        5,
        "linear periodic solver",
        [
            (f"closed-form error {scalar_err:.2e} <= 1e-8", scalar_err <= 1e-8),
            (f"homogeneous solution sup {hom_sup:.2e} <= 1e-9", hom_sup <= 1e-9),
            (f"resonant oscillator flagged, sigma_min {sigma:.2e} < 1e-8",
             resonant and sigma < 1e-8),
        ],
    )


def test_criterion_06_nonlinear_solve(marginal_run, params, ref_cq):
    phi = marginal_run["phi"]
    target = 0.1 * params.mu / (params.rho * ref_cq)
    norm_err = abs(sobolev_norm_T(phi, 1) - target) / target
    report = marginal_run["report"]
    traj = marginal_run["trajectory"]
    gsys = marginal_run["system"]
    w1 = weak1_residual(gsys, traj)
    w2 = weak2_residual(gsys, traj)
    _report(
        6,
        "nonlinear solve at 10% of the convergence bound",
        [
            (f"flow-rate norm at target (rel err {norm_err:.1e})", norm_err <= 1e-12),
            (f"converged in {report['iterations']} <= 50 iterations",
             report["converged"] and report["iterations"] <= 50),
            (f"coefficient-ODE residual {report['residual']:.2e} <= 1e-6",
             report["residual"] <= 1e-6),
            (f"periodicity defect {traj.periodicity_defect:.2e} <= 1e-8",
             traj.periodicity_defect <= 1e-8),
            (f"weak residual (mode x time tests) {w1:.2e} <= 1e-5", w1 <= 1e-5),
            (f"kinematic weak residual (5 bumps) {w2:.2e} <= 1e-5", w2 <= 1e-5),
        ],
    )


def test_criterion_07_energy_ledger(ref_run, ref_run_fine, params, basis):
    traj = ref_run["trajectory"]
    gsys = ref_run["system"]
    E = energy_E(traj, params)
    ident = check_energy_identity(traj, gsys)
    ident_tol = 1e-6 * (1.0 + float(E.max()))
    delta = admissible_delta(basis, params)
    G = energy_G(traj, params, basis, delta)
    scale = 1.0 + float(E.max())
    chain_ok = bool(
        np.all(G >= E - 1e-10 * scale) and np.all(G <= 3.0 * E + 1e-10 * scale)
    )
    balance = float(abs(E[-1] - E[0]))
    c3 = check_partial_bound(traj, gsys)["c3_hat"]
    c3_fine = check_partial_bound(ref_run_fine["trajectory"], ref_run_fine["system"])[
        "c3_hat"
    ]
    two_grid = abs(c3_fine - c3) / c3
    _report(
        7,
        "energy ledger",
        [
            (f"identity residual {ident:.2e} <= {ident_tol:.2e}", ident <= ident_tol),
            (f"E <= G <= 3E with delta = {delta:.4f}", chain_ok),
            (f"period balance {balance:.2e} <= 1e-9 scale",
             balance <= 1e-9 * scale),
            (f"dissipation/data ratio {c3:.6f} finite", math.isfinite(c3) and c3 > 0),
            (f"two-grid deviation {two_grid:.1%} <= 20%", two_grid <= 0.20),
        ],
    )


def test_criterion_08_homotopy_boundedness(ref_run):
    gsys = ref_run["system"]
    alphas = tuple(round(0.1 * k, 1) for k in range(1, 11))
    rows, last = homotopy_sweep(gsys, alphas, FixedPointConfig(n_steps=1024))
    sup_E = max(r["sup_E"] for r in rows)
    all_conv = len(rows) == 10 and all(r["iterations"] <= 50 for r in rows)
    print(f"    homotopy sweep max sup_t E over alpha grid: {sup_E:.6f}")
    _report(
        8,
        "homotopy boundedness",
        [
            ("all 10 forcing scales converged", all_conv),
            (f"max sup E {sup_E:.4f} finite", math.isfinite(sup_E) and sup_E > 0.0),
            ("final scale is the full problem", last is not None and rows[-1]["alpha"] == 1.0),
        ],
    )


def test_criterion_09_resonance_claim(ref_run, offres_run, params):
    # coupled solve at the oscillator's natural period
    assert ref_run["system"].period == pytest.approx(params.natural_period)
    coupled_ok = ref_run["report"]["converged"]
    sup_E = float(energy_E(ref_run["trajectory"], params).max())

    # decoupled oscillator is singular exactly there
    singular = False
    try:
        solve_linear_periodic(oscillator_system(params, ref_run["system"].forces.g))
    except ResonantOrNonUnique:
        singular = True

    # off-resonant control: both behave
    off_ok = offres_run["report"]["converged"]
    osc_off = solve_linear_periodic(
        oscillator_system(params, offres_run["system"].forces.g)
    )
    _report(
        9,
        "any-period solvability vs bare-oscillator resonance",
        [
            (f"coupled converged at natural period, sup E {sup_E:.4f}",
             coupled_ok and math.isfinite(sup_E)),
            ("decoupled oscillator singular at natural period", singular),
            ("coupled converged off resonance", off_ok),
            (f"decoupled solvable off resonance (sup {osc_off.sup_norm():.3f})",
             math.isfinite(osc_off.sup_norm())),
        ],
    )


def test_criterion_10_strong_regularity(ref_run, ref_run_fine):
    sr = strong_regularity_monitor(ref_run["trajectory"], ref_run["system"])
    sr_f = strong_regularity_monitor(
        ref_run_fine["trajectory"], ref_run_fine["system"]
    )
    two_grid = abs(sr_f.sup_prime_energy - sr.sup_prime_energy) / sr.sup_prime_energy
    _, h_norms = stokes_rhs_norm(ref_run["trajectory"], ref_run["system"])
    sup_h = float(h_norms.max())
    _report(
        10,
        "strong-regularity monitor",
        [
            (f"coefficient positivity, min {sr.delta_prime:.4f} > 0",
             sr.delta_prime > 0.0),
            (f"sup derivative energy {sr.sup_prime_energy:.6f} finite",
             math.isfinite(sr.sup_prime_energy)),
            (f"two-grid deviation {two_grid:.1%} <= 10%", two_grid <= 0.10),
            (f"sup elliptic right-hand side {sup_h:.4f} finite",
             math.isfinite(sup_h) and sup_h > 0.0),
        ],
    )


def test_criterion_11_scaling(ref_run, half_run, params):
    # profile norms scale linearly with the flow-rate amplitude
    T = ref_run["phi"].period
    rows_full = chi_norm_report(solve_poiseuille(sine_signal(T, 1.0), params))
    rows_half = chi_norm_report(solve_poiseuille(sine_signal(T, 0.5), params))
    lin_ok = True
    worst = 0.0
    for rf, rh in zip(rows_full, rows_half):
        for vf, vh in ((rf.wk_w22, rh.wk_w22), (rf.ck_w12, rh.ck_w12), (rf.wk1_l2, rh.wk1_l2)):
            rel = abs(vh - 0.5 * vf) / (0.5 * vf)
            worst = max(worst, rel)
            lin_ok = lin_ok and rel <= 1e-8

    # energy scales quadratically in the small-data regime
    E_full = float(energy_E(ref_run["trajectory"], params).max())
    E_half = float(energy_E(half_run["trajectory"], params).max())
    ratio = E_half / E_full
    quad_ok = abs(ratio - 0.25) <= 0.025

    # every smallness margin widens when the amplitude halves
    cq = estimate_cq(ref_run["system"])
    cq_h = estimate_cq(half_run["system"])
    rep_full = smallness_report(ref_run["phi"], params, cq, ref_run["forces"])
    rep_half = smallness_report(half_run["phi"], params, cq_h, half_run["forces"])
    margins_ok = all(
        rep_half[key]["margin"] > rep_full[key]["margin"]
        for key in ("weak", "strong1", "strong2")
    )
    _report(
        11,
        "amplitude scaling and homogeneity",
        [
            (f"profile norms halve (worst rel {worst:.1e})", lin_ok),
            (f"energy ratio {ratio:.4f} within 0.25 +/- 0.025", quad_ok),
            ("all smallness margins widen at half amplitude", margins_ok),
        ],
    )
