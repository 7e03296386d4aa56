"""Flux-carrier structure and the induced forcing fields."""

import math

import numpy as np
import pytest

from periflow.carrier import (
    CutoffParams,
    ExternalBodyForce,
    build_flux_carrier,
    carrier_forces,
    force_bound_report,
)
from periflow.errors import GeometryError
from periflow.geometry import PhysicalParams, build_geometry, build_mesh
from periflow.signals import constant_signal, sine_signal, synthesize, zero_signal
from periflow.womersley import solve_poiseuille

from oracles import body_boundary_quadrature, body_force_at

FD_H = 1e-5


def _fd_divergence(carrier, pts, t):
    """Central-difference divergence of the carrier velocity."""
    def v(shift_x, shift_y):
        q = pts + np.array([shift_x, shift_y])
        return carrier.velocity_at(q, t)

    d1 = (v(FD_H, 0.0)[:, 0] - v(-FD_H, 0.0)[:, 0]) / (2.0 * FD_H)
    d2 = (v(0.0, FD_H)[:, 1] - v(0.0, -FD_H)[:, 1]) / (2.0 * FD_H)
    return d1 + d2


@pytest.fixture(scope="module")
def ref_carrier(phi_ref, params, geom):
    flow = solve_poiseuille(phi_ref, params, n_nodes=257)
    return build_flux_carrier(flow, geom, CutoffParams(inner=0.15, outer=0.6))


def test_divergence_free(ref_carrier, geom):
    rng = np.random.default_rng(3)
    pts = np.column_stack(
        [rng.uniform(-geom.X0, geom.X0, 300), rng.uniform(-0.95, 0.95, 300)]
    )
    keep = geom.dist_inf_to_body(pts[:, 0], pts[:, 1]) > 2.0 * FD_H
    pts = pts[keep]
    for t in (0.0, 1.1, 4.0):
        div = _fd_divergence(ref_carrier, pts, t)
        assert np.max(np.abs(div)) <= 1e-8 / FD_H


def test_vanishes_on_body_boundary(ref_carrier, geom, mesh):
    nodes, _, _ = body_boundary_quadrature(geom.body, mesh.h)
    for t in (0.0, 0.7, 3.3):
        v = ref_carrier.velocity_at(nodes, t)
        assert np.max(np.abs(v)) <= 1e-10


def test_vanishes_on_channel_walls(ref_carrier, geom):
    x1 = np.linspace(-geom.half_length + 1e-9, geom.half_length - 1e-9, 101)
    for wall in (-1.0, 1.0):
        pts = np.column_stack([x1, np.full_like(x1, wall)])
        for t in (0.0, 2.0):
            assert np.max(np.abs(ref_carrier.velocity_at(pts, t))) <= 1e-10


def test_matches_channel_profile_far_from_body(ref_carrier, geom):
    rng = np.random.default_rng(5)
    x2 = rng.uniform(-0.99, 0.99, 60)
    for sgn in (-1.0, 1.0):
        x1 = sgn * rng.uniform(geom.X0, geom.half_length, 60)
        pts = np.column_stack([x1, x2])
        for t in (0.0, 1.9):
            v = ref_carrier.velocity_at(pts, t)
            prof = ref_carrier.flow.profile_at(t, x2)
            assert np.max(np.abs(v[:, 0] - prof)) <= 1e-12 * (1.0 + np.max(np.abs(prof)))
            assert np.max(np.abs(v[:, 1])) <= 1e-12


def test_section_flux_equals_flowrate(ref_carrier):
    phi = ref_carrier.flow.flowrate
    for x1 in (0.0, 0.8, -1.7, 3.0):
        for t in (0.0, 1.3, 5.1):
            assert ref_carrier.section_flux(x1, t) == pytest.approx(
                phi(t), abs=1e-8 * (1.0 + phi.max_abs())
            )


def test_zero_flowrate_gives_zero_carrier_and_forces(params, geom, mesh):
    flow = solve_poiseuille(zero_signal(2.0 * math.pi), params)
    carrier = build_flux_carrier(flow, geom, CutoffParams(inner=0.15, outer=0.6))
    pts = np.column_stack([np.linspace(-3, 3, 50), np.linspace(-0.9, 0.9, 50)])
    assert np.max(np.abs(carrier.velocity_at(pts, 0.4))) == 0.0
    forces = carrier_forces(carrier, params, mesh)
    assert forces.f_l2_l2_norm() == 0.0
    assert np.max(np.abs(forces.g.fourier_coeffs)) <= 1e-15


def test_forcing_supported_near_body(params, geom, mesh, ref_carrier):
    forces = carrier_forces(ref_carrier, params, mesh)
    assert forces.f_mass_outside() <= 1e-10
    assert forces.f_l2_l2_norm() > 0.0  # nonzero flow rate leaves a residual force


def test_steady_mass_force_closed_form(params):
    # unit-area body, steady unit flow rate: g = rho * psi * area = 3/2
    geom = build_geometry(6.0, (-0.5, 0.5, -0.5, 0.5))
    mesh = build_mesh(geom, 1.0 / 32.0)
    flow = solve_poiseuille(constant_signal(1.0, 1.0), params, n_nodes=257)
    carrier = build_flux_carrier(flow, geom, CutoffParams(inner=0.1, outer=0.4))
    forces = carrier_forces(carrier, params, mesh)
    for t in (0.0, 0.25, 0.9):
        assert forces.g(t) == pytest.approx(1.5, abs=1e-9)


def test_force_ratio_stable_under_mesh_refinement(params, geom, ref_carrier):
    vals = []
    for h in (1.0 / 32.0, 1.0 / 48.0):
        mesh = build_mesh(geom, h)
        forces = carrier_forces(ref_carrier, params, mesh)
        phi_norm = 1.0  # same flow rate both times; compare raw norms
        vals.append(forces.f_l2_l2_norm() / phi_norm)
    assert vals[1] == pytest.approx(vals[0], rel=0.05)


def test_force_bounds_zero_inputs(params, geom, mesh):
    flow = solve_poiseuille(zero_signal(1.0), params)
    carrier = build_flux_carrier(flow, geom, CutoffParams(inner=0.15, outer=0.6))
    forces = carrier_forces(carrier, params, mesh)
    for row in force_bound_report(forces):
        assert row.lhs == 0.0
        assert row.empirical_constant == 0.0


def test_force_bounds_steady_flow_drops_time_derivatives(params, geom, mesh):
    flow = solve_poiseuille(constant_signal(2.0 * math.pi, 1.0), params)
    carrier = build_flux_carrier(flow, geom, CutoffParams(inner=0.15, outer=0.6))
    forces = carrier_forces(carrier, params, mesh)
    rows = {r.label: r for r in force_bound_report(forces)}
    assert rows["dfdt_LinfL2_vs_phi_W32"].lhs <= 1e-12
    assert rows["dgdt_Linf_vs_phi_W32"].lhs <= 1e-12


def test_force_bound_ratios_scale_invariant(params, geom, mesh):
    ratios = []
    for eps in (1e-3, 1e-2):
        flow = solve_poiseuille(sine_signal(2.0 * math.pi, eps), params, n_nodes=257)
        carrier = build_flux_carrier(flow, geom, CutoffParams(inner=0.15, outer=0.6))
        forces = carrier_forces(carrier, params, mesh)
        rows = force_bound_report(forces)
        ratios.append([r.empirical_constant for r in rows])
    for a, b in zip(*ratios):
        # the f rows pick up a quadratic self-advection term, so only
        # near-equality is expected at small amplitude
        assert b == pytest.approx(a, rel=0.05, abs=1e-12)


def test_cutoff_reaching_walls_rejected(params, geom):
    flow = solve_poiseuille(sine_signal(2.0 * math.pi), params, n_nodes=257)
    with pytest.raises(GeometryError):
        build_flux_carrier(flow, geom, CutoffParams(inner=0.2, outer=0.8))


def test_cutoff_validation():
    with pytest.raises(ValueError):
        CutoffParams(inner=0.5, outer=0.3)
    with pytest.raises(ValueError):
        CutoffParams(inner=0.0, outer=0.3)


def test_external_force_period_mismatch_rejected(params, geom, mesh, ref_carrier):
    bad_f = ExternalBodyForce(
        box=(1.2, 1.8, -0.4, 0.4),
        direction=(1.0, 0.0),
        signal=sine_signal(1.0),
    )
    with pytest.raises(ValueError):
        carrier_forces(ref_carrier, params, mesh, tilde_f=bad_f)
    with pytest.raises(ValueError):
        carrier_forces(ref_carrier, params, mesh, tilde_g=sine_signal(1.0))


def test_external_force_enters_additively(params, geom, mesh, ref_carrier):
    T = ref_carrier.period
    tf = ExternalBodyForce(
        box=(1.2, 1.8, -0.4, 0.4), direction=(0.0, 1.0), signal=sine_signal(T, 0.5)
    )
    tg = sine_signal(T, 0.3)
    forces = carrier_forces(ref_carrier, params, mesh, tilde_f=tf, tilde_g=tg)
    base = carrier_forces(ref_carrier, params, mesh)
    pts = np.array([[1.5, 0.0]])
    t = 0.8
    bump = tf.bump(pts[:, 0], pts[:, 1])[:, None]
    expect = body_force_at(base, params, pts, t) + bump * np.array([0.0, 1.0]) * float(tf.signal(t))
    assert np.allclose(body_force_at(forces, params, pts, t), expect, atol=1e-12)
    assert forces.g(t) == pytest.approx(base.g(t) + tg(t), abs=1e-12)


def test_scaled_forcing_scales_f_g_and_the_external_forces(params, mesh, ref_carrier):
    T = ref_carrier.period
    tf = ExternalBodyForce(
        box=(1.2, 1.8, -0.4, 0.4), direction=(0.0, 1.0), signal=sine_signal(T, 0.5)
    )
    tg = sine_signal(T, 0.3)
    forces = carrier_forces(ref_carrier, params, mesh, tilde_f=tf, tilde_g=tg)
    half = forces.scaled(0.5)
    assert half.f_harmonics.keys() == forces.f_harmonics.keys()
    for k, fld in forces.f_harmonics.items():
        assert np.array_equal(half.f_harmonics[k], 0.5 * fld)
    for got, want in ((half.g, forces.g), (half.tilde_f.signal, tf.signal), (half.tilde_g, tg)):
        assert np.array_equal(got.fourier_coeffs, 0.5 * want.fourier_coeffs)
    assert (half.tilde_f.box, half.tilde_f.direction) == (tf.box, tf.direction)
    assert half.f_l2_l2_norm() == 0.5 * forces.f_l2_l2_norm()


def test_harmonic_fields_at_unsorted_repeated_points(two_harmonic_forces, mesh, geom):
    carrier = two_harmonic_forces.carrier
    rng = np.random.default_rng(5)
    pts = np.concatenate(
        [
            mesh.centers[rng.choice(len(mesh.weights), 30)],
            np.column_stack([rng.uniform(-geom.X0 - 1, geom.X0 + 1, 10), rng.uniform(-1, 1, 10)]),
        ]
    )
    pts = pts[rng.permutation(np.concatenate([np.arange(40), np.arange(0, 40, 4)]))]
    assert len(carrier.harmonics) >= 2
    for need in (("V",), ("grad",), ("lap",), ("V", "grad", "lap")):
        together = carrier.harmonic_fields(pts, need)
        assert list(together) == carrier.harmonics
        for key in need:
            singles = [carrier.harmonic_fields(p, (key,)) for p in pts]
            for k, fields in together.items():
                assert set(fields) == set(need)
                one_by_one = np.concatenate([single[k][key] for single in singles])
                assert np.array_equal(fields[key], one_by_one), (k, need, key)


def test_grad_and_lap_are_centred_differences_of_V(two_harmonic_forces):
    # only "V" enters the differences, so the product rules behind "grad"
    # and "lap" are checked independently
    forces = two_harmonic_forces
    carrier = forces.carrier
    pts = forces.mesh.centers[forces.cell_idx][::3]
    h = 1e-4
    fields = carrier.harmonic_fields(pts, ("V", "grad", "lap"))
    shifted = [carrier.harmonic_fields(pts + s) for s in h * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])]
    assert len(fields) >= 2
    for k, fld in fields.items():
        right, left, up, down = (v[k]["V"] for v in shifted)
        scale = 1.0 + np.max(np.abs(fld["V"]))
        grad = np.stack([right - left, up - down], axis=-1) / (2.0 * h)  # [:, i, j] = d_j V_i
        lap = (right + left + up + down - 4.0 * fld["V"]) / h**2
        assert np.max(np.abs(grad - fld["grad"])) <= 1e-5 * scale, k
        assert np.max(np.abs(lap - fld["lap"])) <= 1e-3 * scale, k


def test_body_force_matches_real_space_evaluation(two_harmonic_forces, params):
    forces = two_harmonic_forces
    carrier = forces.carrier
    pts = forces.mesh.centers[forces.cell_idx][::7]
    lap = {k: fld["lap"] for k, fld in carrier.harmonic_fields(pts, ("lap",)).items()}
    h = 1e-5
    for t in (0.0, 1.3, 4.1):
        V = carrier.velocity_at(pts, t)
        grad = carrier.gradient_at(pts, t)
        dVdt = (carrier.velocity_at(pts, t + h) - carrier.velocity_at(pts, t - h)) / (2.0 * h)
        psi = carrier.flow.pressure_factor_signal(t)
        want = (
            params.nu * synthesize(lap, carrier.omega, t)
            - np.einsum("pj,pij->pi", V, grad)
            - dVdt
            + psi * np.array([1.0, 0.0])
        )
        got = body_force_at(forces, params, pts, t)
        assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


def test_force_norm_series_matches_real_space_norm(two_harmonic_forces, params):
    forces = two_harmonic_forces
    cells = forces.mesh.centers[forces.cell_idx]
    n_times = 16
    times = np.arange(n_times) * (forces.period / n_times)
    f = body_force_at(forces, params, cells, times)
    want = np.sqrt(np.einsum("p,tpi->t", forces.cell_weights, f**2))
    assert np.allclose(forces.f_norm_series(n_times), want, rtol=1e-12)
    h = 1e-5
    df = body_force_at(forces, params, cells, times + h)
    df -= body_force_at(forces, params, cells, times - h)
    df /= 2.0 * h
    want_dt = np.sqrt(np.einsum("p,tpi->t", forces.cell_weights, df**2))
    assert np.allclose(forces.f_norm_series(n_times, dt_order=1), want_dt, rtol=1e-8)
