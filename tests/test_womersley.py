"""Channel-profile solves: closed forms, the time-stepping oracle, norms."""

import math

import numpy as np
import pytest

from periflow.errors import ResolutionError
from periflow.geometry import PhysicalParams
from periflow.signals import constant_signal, make_signal, sine_signal, zero_signal
from periflow.womersley import (
    chi_norm_report,
    flux_error,
    solve_poiseuille,
)

from oracles import womersley_time_stepper


@pytest.fixture(scope="module")
def unit_params():
    return PhysicalParams()


def _ratios(row):
    """The three empirical constants of a profile-norm row: each norm over
    the flow-rate norm."""
    norms = (row.wk_w22, row.ck_w12, row.wk1_l2)
    return [v / row.phi_norm if row.phi_norm > 0 else 0.0 for v in norms]


def test_steady_parabolic_profile(unit_params):
    flow = solve_poiseuille(constant_signal(1.0, 1.0), unit_params, n_nodes=257)
    chi0 = flow.chi[0]
    exact = 0.75 * (1.0 - flow.x2**2)
    assert np.max(np.abs(chi0 - exact)) <= 1e-10
    assert flow.pressure_factor_signal(0.0) == pytest.approx(1.5, abs=1e-10)
    assert flow.pressure_factor_signal(0.42) == pytest.approx(1.5, abs=1e-10)


def test_zero_flowrate_gives_zero_profile(unit_params):
    flow = solve_poiseuille(zero_signal(1.0), unit_params)
    assert all(np.max(np.abs(v)) == 0.0 for v in flow.chi.values())
    assert flow.pressure_factor_signal(0.3) == 0.0


def test_no_slip_at_walls(unit_params):
    flow = solve_poiseuille(sine_signal(1.0), unit_params, n_nodes=257)
    for t in np.linspace(0.0, 1.0, 9):
        prof = flow.profile_at(t)
        assert abs(prof[0]) <= 1e-10
        assert abs(prof[-1]) <= 1e-10


def test_flux_constraint(unit_params):
    phi = sine_signal(1.0) + constant_signal(1.0, 0.3)
    flow = solve_poiseuille(phi, unit_params, n_nodes=257)
    assert flux_error(flow) <= 1e-8 * (1.0 + phi.max_abs())


def test_oscillating_profile_matches_time_stepper(unit_params):
    phi = sine_signal(1.0)
    flow = solve_poiseuille(phi, unit_params, n_nodes=257)
    oracle = womersley_time_stepper(phi, unit_params, n_nodes=257)
    diff_sq = 0.0
    for j, t in enumerate(oracle["times"]):
        delta = flow.profile_at(t) - oracle["profiles"][j]
        # spatial L2 via the same spline quadrature applied to |delta|^2
        diff_sq += oracle["dt"] * float(np.dot(oracle["weights"], delta**2))
    assert math.sqrt(diff_sq) <= 1e-6


def test_pressure_factor_matches_time_stepper(unit_params):
    # psi(t) = (dphi/dt - nu * int chi'') / |section| recovered from the
    # oracle profile by finite differences in time and space
    phi = sine_signal(1.0)
    flow = solve_poiseuille(phi, unit_params, n_nodes=257)
    oracle = womersley_time_stepper(phi, unit_params, n_nodes=257)
    x2 = oracle["x2"]
    h = x2[1] - x2[0]
    dt = oracle["dt"]
    prof = oracle["profiles"]
    j = len(oracle["times"]) // 3
    t_mid = oracle["times"][j] + 0.5 * dt
    dudt = (prof[j + 1] - prof[j]) / dt
    u_mid = 0.5 * (prof[j + 1] + prof[j])
    lap = np.zeros_like(u_mid)
    lap[1:-1] = (u_mid[2:] - 2.0 * u_mid[1:-1] + u_mid[:-2]) / h**2
    # interior evaluation away from the boundary: psi = du/dt - nu u''
    psi_vals = dudt[2:-2] - unit_params.nu * lap[2:-2]
    psi_ref = flow.pressure_factor_signal(t_mid)
    assert np.max(np.abs(psi_vals - psi_ref)) <= 1e-4 * (1.0 + abs(psi_ref))


def test_linearity_in_flowrate(unit_params):
    phi1 = sine_signal(1.0, 0.7)
    phi2 = constant_signal(1.0, 0.4) + sine_signal(1.0, 0.2, harmonic=2)
    combo = phi1.scaled(2.0) + phi2.scaled(-3.0)
    f1 = solve_poiseuille(phi1, unit_params, n_nodes=129)
    f2 = solve_poiseuille(phi2, unit_params, n_nodes=129)
    fc = solve_poiseuille(combo, unit_params, n_nodes=129)
    for k in fc.harmonics:
        expect = 2.0 * f1.chi.get(k, 0.0) - 3.0 * f2.chi.get(k, 0.0)
        assert np.max(np.abs(fc.chi[k] - expect)) <= 1e-10


def test_profile_norms_scale_linearly(unit_params):
    base = solve_poiseuille(sine_signal(1.0, 1.0), unit_params, n_nodes=129)
    double = solve_poiseuille(sine_signal(1.0, 2.0), unit_params, n_nodes=129)
    rows_b = chi_norm_report(base)
    rows_d = chi_norm_report(double)
    for rb, rd in zip(rows_b, rows_d):
        for vb, vd in (
            (rb.wk_w22, rd.wk_w22),
            (rb.ck_w12, rd.ck_w12),
            (rb.wk1_l2, rd.wk1_l2),
        ):
            assert vd == pytest.approx(2.0 * vb, rel=1e-8)


def test_profile_norm_ratios_stable_under_grid_refinement(unit_params):
    phi = sine_signal(1.0)
    coarse = chi_norm_report(solve_poiseuille(phi, unit_params, n_nodes=129))
    fine = chi_norm_report(solve_poiseuille(phi, unit_params, n_nodes=257))
    for rc, rf in zip(coarse, fine):
        for vc, vf in zip(_ratios(rc), _ratios(rf)):
            assert vf == pytest.approx(vc, rel=0.05)


def test_sup_w12_norm_matches_brute_force(unit_params):
    # with two harmonics the k/-k cross terms make ||chi(t)||_{W^{1,2}}
    # depend on t, so the sup differs from the Parseval mean
    flow = solve_poiseuille(make_signal(1.0, {1: -0.5j, 2: 0.3}), unit_params, n_nodes=257)
    rows = chi_norm_report(flow, grid_size=128)
    x2, omega = flow.x2, flow.omega
    for row in rows:
        sup = 0.0
        for t in np.arange(128) / 128.0:
            u = np.zeros_like(x2)
            for k, chi_k in flow.chi.items():
                weight = 1.0 if k == 0 else 2.0
                amp = (1j * omega * k) ** (row.order - 1) * np.exp(1j * omega * k * t)
                u += weight * (amp * chi_k).real
            du = np.gradient(u, x2, edge_order=2)
            sup = max(sup, np.trapezoid(u**2 + du**2, x2))
        assert row.ck_w12 == pytest.approx(math.sqrt(sup), rel=1e-3)


def test_steady_flow_has_no_time_derivative_norms(unit_params):
    rows = chi_norm_report(solve_poiseuille(constant_signal(1.0, 1.0), unit_params))
    assert all(math.isfinite(v) for r in rows for v in _ratios(r))
    # the m=1 spatial norm already captures everything for a steady profile
    assert rows[1].wk1_l2 == pytest.approx(rows[0].wk1_l2, rel=1e-10)


def test_zero_flow_norm_report(unit_params):
    rows = chi_norm_report(solve_poiseuille(zero_signal(1.0), unit_params))
    for r in rows:
        assert r.wk_w22 == 0.0 and r.ck_w12 == 0.0 and r.wk1_l2 == 0.0


def test_unresolved_stokes_layer_rejected(unit_params):
    # a very fast harmonic on a coarse grid has a boundary layer thinner
    # than the minimum node coverage
    phi = sine_signal(0.001, 1.0, harmonic=8)
    with pytest.raises(ResolutionError):
        solve_poiseuille(phi, unit_params, n_nodes=17)
