"""Energy ledgers, regularity monitors, and the resonance probe."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from periflow import geometry
from periflow.diagnostics import (
    BodyPressureBump,
    _fit_two_constants,
    admissible_delta,
    check_energy_identity,
    check_partial_bound,
    check_particular_energy,
    diagnostics_bundle,
    energy_E,
    energy_G,
    energy_report,
    far_field_decay,
    resonance_probe,
    smallness_report,
    stokes_rhs_norm,
    strong_regularity_monitor,
)
from periflow.basis import assemble_system
from periflow.carrier import ExternalBodyForce, FluxCarrier, carrier_forces
from periflow.config import reference_config
from periflow.errors import PeriflowError
from periflow.periodic_ode import PeriodicTrajectory, resample_periodic, zero_trajectory
from periflow.solver import FixedPointConfig, fixed_point, galerkin_solve
from periflow.signals import sine_signal, sobolev_norm_T

from oracles import body_boundary_quadrature, body_force_at, two_constants_linprog


class _StubBasis:
    """Minimal basis stand-in: unit first mode, unit coupling."""

    beta = np.array([1.0])

    def l2_inner(self, i, k):
        return 1.0


def _toy_trajectory():
    states = np.array([[2.0, 1.0], [0.0, -1.0], [2.0, 1.0]])
    derivs = np.array([[0.0, 3.0], [0.0, 0.5], [0.0, 3.0]])
    return PeriodicTrajectory(
        period=1.0, states=states, derivs=derivs, periodicity_defect=0.0
    )


def test_energy_formula_closed_form(params):
    traj = _toy_trajectory()
    E = energy_E(traj, params)
    # E = (rho a^2 + m zdot^2 + k z^2) / 2 with unit parameters
    assert np.allclose(E, 0.5 * np.array([4.0 + 9.0 + 1.0, 0.25 + 1.0, 14.0]))


def test_admissible_delta_stub(params):
    # psi1 norm = beta1 = 1 with unit parameters: min(1, 1, 1, k/(rho+m)) = 1/2
    assert admissible_delta(_StubBasis(), params) == pytest.approx(0.5)


def test_admissible_delta_reference(basis, params):
    d = admissible_delta(basis, params)
    assert 0.0 < d <= 1.0


def test_energy_G_reduces_to_2E_without_coupling(ref_run, params, basis):
    traj = ref_run["trajectory"]
    E = energy_E(traj, params)
    G0 = energy_G(traj, params, basis, delta=0.0)
    assert np.allclose(G0, 2.0 * E, rtol=1e-12)


def test_energy_G_equivalence_chain(ref_run, params, basis):
    traj = ref_run["trajectory"]
    delta = admissible_delta(basis, params)
    E = energy_E(traj, params)
    G = energy_G(traj, params, basis, delta)
    scale = 1.0 + E.max()
    assert np.all(G >= E - 1e-10 * scale)
    assert np.all(G <= 3.0 * E + 1e-10 * scale)


def test_energy_G_rejects_inadmissible_delta(ref_run, params, basis):
    with pytest.raises(PeriflowError):
        energy_G(ref_run["trajectory"], params, basis, delta=5.0)


def test_energy_G_admits_delta_up_to_the_exact_bound(ref_run, params, basis):
    # E <= G <= 3E holds for every state exactly when the form of
    # (a_1, zdot, z) is semidefinite, i.e. when its Schur complement
    # k - delta^2 (rho + m beta_1^2) is >= 0
    beta1 = float(basis.beta[0])
    bound = math.sqrt(params.stiffness / (params.rho + params.mass * beta1**2))
    traj = ref_run["trajectory"]
    energy_G(traj, params, basis, 0.99 * bound)
    with pytest.raises(PeriflowError, match="not admissible"):
        energy_G(traj, params, basis, 1.01 * bound)


def test_energy_identity_zero_trajectory(zero_system):
    traj = zero_trajectory(zero_system.period, zero_system.n, 256)
    assert check_energy_identity(traj, zero_system) == 0.0


def test_energy_report_reference(ref_run):
    er = energy_report(ref_run["trajectory"], ref_run["system"])
    assert er.equivalence_slack >= -er.equivalence_tol
    assert er.identity_residual <= er.identity_tol
    assert er.period_balance <= 1e-9 * (1.0 + er.E.max())
    assert 0.0 < er.delta <= 1.0


def test_partial_bound_reference(ref_run):
    row = check_partial_bound(ref_run["trajectory"], ref_run["system"])
    assert not row["zero_data"]
    assert row["lhs"] > 0.0 and row["rhs"] > 0.0
    assert math.isfinite(row["c3_hat"]) and row["c3_hat"] > 0.0


def test_partial_bound_zero_data(zero_system):
    traj = zero_trajectory(zero_system.period, zero_system.n, 256)
    row = check_partial_bound(traj, zero_system)
    assert row["zero_data"] and row["c3_hat"] == 0.0


def test_partial_bound_contradiction_detected(ref_run, zero_system):
    # nonzero dissipation with zero data must be flagged, not fitted away
    with pytest.raises(PeriflowError):
        check_partial_bound(
            ref_run["trajectory"],
            dataclasses.replace(ref_run["system"], forces=zero_system.forces),
        )


def test_particular_energy_rows_reference(ref_run):
    traj, gsys = ref_run["trajectory"], ref_run["system"]
    rows, sqrtG = check_particular_energy(traj, gsys, energy_report(traj, gsys).G)
    by_id = {r["check_id"]: r for r in rows}
    assert set(by_id) == {
        "decay-inequality",
        "integrated-decay",
        "energy-sup-reconstruction",
    }
    assert all(r["pass"] for r in rows)
    # the sup-via-mean reconstruction has genuine slack, not just tolerance
    r = by_id["energy-sup-reconstruction"]
    assert r["rhs"] > r["lhs"] > 0.0
    assert np.all(sqrtG >= 0.0)


def test_smallness_margin_formula(params, ref_run):
    phi = sine_signal(2.0 * math.pi, 1.0)
    w12 = sobolev_norm_T(phi, 1)
    cq = params.mu / (params.rho * 2.0 * w12)  # rhs is exactly twice the lhs
    forces = ref_run["forces"]  # the weak condition reads only phi and cq
    rep = smallness_report(phi, params, cq, forces)
    assert rep["weak"]["ok"]
    assert rep["weak"]["margin"] == pytest.approx(0.5, abs=1e-12)
    assert rep["nominal_constants"]

    rep_bad = smallness_report(phi, params, 10.0 * cq, forces)
    assert not rep_bad["weak"]["ok"]
    assert rep_bad["weak"]["margin"] < 0.0

    rep_zero = smallness_report(phi, params, 0.0, forces)
    assert rep_zero["weak"]["ok"] and rep_zero["weak"]["margin"] == 1.0


def test_smallness_refined_conditions_present(ref_run, params, ref_cq):
    rep = smallness_report(ref_run["phi"], params, ref_cq, ref_run["forces"])
    for key in ("strong1", "strong2"):
        assert {"lhs", "rhs", "margin", "ok"} <= set(rep[key])
        assert rep[key]["lhs"] >= 0.0


def test_strong_regularity_reference(ref_run):
    sr = strong_regularity_monitor(ref_run["trajectory"], ref_run["system"])
    assert sr.identity_residual <= 1e-4 * (1.0 + sr.sup_prime_energy)
    assert sr.delta_prime > 0.0
    assert min(sr.c8, sr.c9, sr.c10, sr.c11, sr.c12) >= 0.0
    assert sr.prime_bound_rhs >= 0.0


def test_fit_two_constants_matches_linprog():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 400))
        u, v = rng.exponential(size=n), rng.exponential(size=n)
        u[rng.random(n) < 0.05] = 0.0  # rows that only y can meet
        q = rng.normal(size=n)
        x, y = _fit_two_constants(u, v, q)
        rx, ry = two_constants_linprog(u, v, q)
        assert x + y == pytest.approx(rx + ry, rel=1e-12)
        assert min(x, y) >= 0.0
        assert np.all(x * u + y * v >= q * (1.0 - 1e-12))
        assert _fit_two_constants(u, v, -np.abs(q)) == (0.0, 0.0)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_fit_two_constants_optimum_on_an_axis_is_exactly_zero(axis):
    # v > u everywhere makes y the cheaper constant for every row, so the
    # unique optimum has x = 0; u > v gives y = 0
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        low = rng.exponential(size=n)
        high = low * (1.0 + rng.uniform(0.01, 2.0, size=n))
        u, v = (low, high) if axis == "x" else (high, low)
        q = np.abs(rng.normal(size=n))
        x, y = _fit_two_constants(u, v, q)
        rx, ry = two_constants_linprog(u, v, q)
        assert (x if axis == "x" else y) == 0.0
        assert x + y == pytest.approx(rx + ry, rel=1e-12)


def test_far_field_decay(basis, geom, ref_run):
    xs = [0.0, 1.0, geom.X0, geom.X0 + 1.0, geom.X0 + 2.0]
    tracemalloc.start()
    try:
        out = far_field_decay(basis, ref_run["trajectory"], xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vals = [out[float(x)] for x in xs]
    assert vals[0] > 0.0
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12
    assert vals[-2] == 0.0 and vals[-1] == 0.0
    # per block of cells: the basis velocities, raw and orthonormal, and the
    # products over the 64 grid times (v with its two components, |v|^2 and
    # two temporaries of the cube); beside them only the place of every
    # mesh cell among the distinct coordinates, never a field of all cells
    block, n_times = geometry.CELL_BLOCK, 64
    per_block = 2 * basis.n * block * 2 * 8 + 5 * n_times * block * 8
    places = 2 * len(basis.mesh.weights) * 8
    assert peak <= per_block + places


def test_far_field_decay_sees_a_field_beyond_the_support(basis, geom):
    # the first raw mode's x-factor identically 1: the field reaches every x1
    from periflow._bumps import Cosine

    leaky_mode = dataclasses.replace(basis.modes[0], fx=Cosine(0, 0.0, 1.0))
    leaky = dataclasses.replace(basis, modes=[leaky_mode] + list(basis.modes[1:]))
    traj0 = zero_trajectory(2.0 * math.pi, basis.n, 64)
    traj = dataclasses.replace(traj0, states=traj0.states + 1.0, derivs=traj0.derivs + 1.0)
    X = geom.X0 + 1.0
    norm = far_field_decay(leaky, traj, [X])[X]
    assert norm > 0.0
    assert far_field_decay(basis, traj, [X])[X] == 0.0
    # reference: every coefficient is 1 at every time, so the norm is
    # sqrt(T) times the L^3 norm of sum_i psi_i beyond X
    mesh = basis.mesh
    beyond = np.abs(mesh.centers[:, 0]) >= X
    v = leaky.velocity_at(mesh.centers[beyond]).sum(axis=0)
    l3 = np.dot(mesh.weights[beyond], np.sqrt(np.sum(v**2, axis=1)) ** 3) ** (1.0 / 3.0)
    assert norm == pytest.approx(math.sqrt(traj.period) * l3, rel=1e-12)


@pytest.mark.parametrize("block", [7, 2048, 1 << 20])
def test_far_field_decay_matches_per_time_sums_across_cell_blocks(
    basis, geom, ref_run, monkeypatch, block
):
    # the reference evaluates v on all mesh cells one grid time at a time
    traj = ref_run["trajectory"]
    xs = [0.0, geom.X0 - 0.5, geom.X0 + 1.0]
    mesh = basis.mesh
    psi = basis.velocity_at(mesh.centers)
    a = traj.resample_states(64)[:-1, : basis.n]
    cubes = np.array(
        [
            [
                np.dot(mesh.weights * (np.abs(mesh.centers[:, 0]) >= X), speed**3)
                for X in xs
            ]
            for speed in np.linalg.norm(np.einsum("ti,ipc->tpc", a, psi), axis=2)
        ]
    )
    expect = np.sqrt((traj.period / 64) * np.sum(cubes ** (2.0 / 3.0), axis=0))
    monkeypatch.setattr(geometry, "CELL_BLOCK", block)
    got = far_field_decay(basis, traj, xs)
    assert np.allclose([got[X] for X in xs], expect, rtol=1e-12, atol=0.0)
    assert got[xs[-1]] == 0.0 and expect[-1] == 0.0 and expect[1] > 0.0


def test_body_pressure_bump(ref_run, geom, mesh):
    theta = BodyPressureBump(ref_run["carrier"])
    assert theta.boundary_weight == pytest.approx(geom.body_area)
    # quadrature on the body boundary reproduces the closed-form weight
    nodes, normals, weights = body_boundary_quadrature(geom.body, mesh.h)
    vals = normals[:, 0] * theta(nodes[:, 0], nodes[:, 1])
    assert weights @ vals == pytest.approx(geom.body_area, rel=1e-10)
    # gradient consistency by central differences
    rng = np.random.default_rng(9)
    x1 = rng.uniform(-3.0, 3.0, 50)
    x2 = rng.uniform(-0.9, 0.9, 50)
    eps = 1e-6
    g = theta.grad(x1, x2)
    g1 = (theta(x1 + eps, x2) - theta(x1 - eps, x2)) / (2.0 * eps)
    g2 = (theta(x1, x2 + eps) - theta(x1, x2 - eps)) / (2.0 * eps)
    assert np.max(np.abs(g[:, 0] - g1)) <= 1e-6
    assert np.max(np.abs(g[:, 1] - g2)) <= 1e-6


def test_stokes_rhs_norm(ref_run, zero_system):
    _, norms = stokes_rhs_norm(ref_run["trajectory"], ref_run["system"])
    assert np.all(np.isfinite(norms)) and norms.max() > 0.0
    traj0 = zero_trajectory(zero_system.period, zero_system.n, 256)
    _, norms0 = stokes_rhs_norm(traj0, zero_system)
    assert norms0.max() == 0.0


def _stokes_rhs_per_time(traj, gsys, n_times, scale=1.0):
    """Reference for `stokes_rhs_norm`: every field evaluated afresh at every
    time, the basis fields through `velocity_at`/`gradient_at`, the carrier
    and forcing through their real-time evaluations; the data f and g of
    `gsys` enter scaled by `scale`."""
    basis, carrier, forces, params = gsys.basis, gsys.carrier, gsys.forces, gsys.params
    theta = BodyPressureBump(carrier)
    cells = np.union1d(basis.cell_idx, forces.cell_idx)
    pts, w = basis.mesh.centers[cells], basis.mesh.weights[cells]
    psi, gpsi = basis.velocity_at(pts), basis.gradient_at(pts)
    grad_theta = theta.grad(pts[:, 0], pts[:, 1])
    states = traj.resample_states(n_times)[:-1]
    derivs = resample_periodic(traj.derivs[:-1], n_times)
    n = basis.n
    norms = []
    for it in range(n_times):
        t = it * (traj.period / n_times)
        a, z, adot = states[it, :n], states[it, n], derivs[it, :n]
        v, gv = np.tensordot(a, psi, 1), np.tensordot(a, gpsi, 1)
        V, GV = carrier.velocity_at(pts, t), carrier.gradient_at(pts, t)
        pressure = (
            params.mass * (adot @ gsys.beta) - params.stiffness * z - scale * float(forces.g(t))
        ) / (params.rho * theta.boundary_weight)
        h = (
            scale * body_force_at(forces, params, pts, t)
            - np.tensordot(adot, psi, 1)
            - np.einsum("pd,pcd->pc", V, gv)
            - np.einsum("pd,pcd->pc", v, GV)
            + (a @ gsys.beta) * (gv[:, :, 0] + GV[:, :, 0])
            + pressure * grad_theta
        )
        norms.append(math.sqrt(float(np.dot(w, np.sum(h**2, axis=1)))))
    return np.array(norms)


def test_stokes_rhs_norm_matches_per_time_evaluation(ref_run, params, mesh):
    traj, gsys = ref_run["trajectory"], ref_run["system"]
    carrier, T = gsys.carrier, gsys.period
    # an external force beyond the basis support: its cells need fields that
    # the basis does not store
    tilde_f = ExternalBodyForce(
        box=(3.5, 4.5, -0.4, 0.4), direction=(0.0, 1.0), signal=sine_signal(T, 0.5)
    )
    forces = carrier_forces(carrier, params, mesh, tilde_f=tilde_f)
    assert np.setdiff1d(forces.cell_idx, gsys.basis.cell_idx).size > 0
    outside = assemble_system(gsys.basis, carrier, forces, params)
    for system in (gsys, outside):
        _, norms = stokes_rhs_norm(traj, system, n_times=16)
        expect = _stokes_rhs_per_time(traj, system, 16)
        assert np.max(np.abs(norms - expect)) <= 1e-12 * np.max(expect)


def test_stokes_rhs_norm_across_cell_blocks(ref_run, params, mesh, monkeypatch):
    traj, gsys = ref_run["trajectory"], ref_run["system"]
    carrier, T = gsys.carrier, gsys.period
    tilde_f = ExternalBodyForce(
        box=(3.5, 4.5, -0.4, 0.4), direction=(0.0, 1.0), signal=sine_signal(T, 0.5)
    )
    forces = carrier_forces(carrier, params, mesh, tilde_f=tilde_f)
    outside = assemble_system(gsys.basis, carrier, forces, params)
    for system in (gsys, outside):
        n_cells = np.union1d(system.basis.cell_idx, system.forces.cell_idx).size
        n_forcing = system.forces.cell_idx.size
        expect = _stokes_rhs_per_time(traj, system, 16)
        # a last block shorter than the others, and blocks that split the
        # forcing support
        for block in (n_cells // 3 + 1, n_forcing // 4 + 1):
            assert n_cells % block != 0
            monkeypatch.setattr(geometry, "CELL_BLOCK", block)
            _, norms = stokes_rhs_norm(traj, system, n_times=16)
            assert np.max(np.abs(norms - expect)) <= 1e-12 * np.max(expect)


@pytest.fixture(scope="module")
def half_scale_run(ref_run):
    """The reference problem at forcing scale 0.5, warm-started from half the
    full-scale trajectory, with the ledger of `gsys.scaled(0.5)`."""
    gsys, full = ref_run["system"], ref_run["trajectory"]
    start = dataclasses.replace(full, states=0.5 * full.states, derivs=0.5 * full.derivs)
    cfg = FixedPointConfig(n_steps=2048, alpha=0.5)
    traj, _ = fixed_point(gsys, cfg, start=start)
    half = gsys.scaled(0.5)
    return {"trajectory": traj, "system": half, "ledger": diagnostics_bundle(traj, half)}


def test_ledger_passes_at_half_forcing_scale(half_scale_run, ref_run):
    rows = {r["check_id"]: r for r in half_scale_run["ledger"]["rows"]}
    assert len(rows) == 12
    assert [cid for cid, r in rows.items() if not r["pass"]] == []
    full = check_partial_bound(ref_run["trajectory"], ref_run["system"])
    # the data norms are quadratic in the scale, and 0.5 scales exactly
    assert rows["dissipation-bound"]["rhs"] == 0.25 * full["rhs"]


def test_stokes_rhs_norm_reads_the_scaled_data(half_scale_run, ref_run):
    traj = half_scale_run["trajectory"]
    _, norms = stokes_rhs_norm(traj, half_scale_run["system"], n_times=16)
    expect = _stokes_rhs_per_time(traj, ref_run["system"], 16, scale=0.5)
    assert np.max(np.abs(norms - expect)) <= 1e-12 * np.max(expect)


def test_resonance_probe_at_natural_period(ref_run):
    rep = resonance_probe(ref_run["system"], FixedPointConfig(n_steps=1024))
    assert rep["period"] == pytest.approx(rep["natural_period"])
    assert rep["coupled"]["converged"]
    assert math.isfinite(rep["coupled"]["sup_E"])
    assert rep["decoupled"]["singular"]
    assert rep["decoupled"]["sigma_min"] < 1e-8


def test_resonance_probe_from_its_own_solution(ref_run):
    """A start at the converged solution is a fixed point already: one map
    application confirms it and gives the same energy."""
    cfg = FixedPointConfig(n_steps=1024)
    cold = resonance_probe(ref_run["system"], cfg)["coupled"]
    warm = resonance_probe(ref_run["system"], cfg, start=cold["trajectory"])["coupled"]
    assert cold["iterations"] > 1 and warm["iterations"] == 1
    assert warm["sup_E"] == pytest.approx(cold["sup_E"], rel=1e-9)


def test_resonance_probe_off_resonance(offres_run):
    rep = resonance_probe(offres_run["system"], FixedPointConfig(n_steps=1024))
    assert rep["coupled"]["converged"]
    assert not rep["decoupled"]["singular"]
    assert math.isfinite(rep["decoupled"]["sup_state"])


def test_diagnostics_bundle_reference(ref_run):
    bundle = diagnostics_bundle(ref_run["trajectory"], ref_run["system"])
    ids = [r["check_id"] for r in bundle["rows"]]
    assert len(ids) == 12 and len(set(ids)) == 12
    assert all(r["pass"] for r in bundle["rows"])
    series = bundle["series"]
    assert series["E_max"] > 0.0
    assert series["E_max"] <= series["G_max"] <= 3.0 * series["E_max"]
    json.dumps(bundle)  # the whole ledger must be JSON-serializable


def _count_carrier_evaluations(monkeypatch):
    calls = []
    original = FluxCarrier.harmonic_fields

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FluxCarrier, "harmonic_fields", counted)
    return calls


def test_solve_evaluates_the_carrier_once_per_stage(monkeypatch):
    # one evaluation for the forcing (with the Laplacian) and one on the
    # basis cells, on the diagnostics' first read of the system's fields
    calls = _count_carrier_evaluations(monkeypatch)
    galerkin_solve(reference_config(n_steps=512))
    assert len(calls) == 2


def test_diagnostics_bundle_evaluates_no_carrier_field(ref_run, monkeypatch):
    # the system evaluates its carrier fields on first read and keeps them;
    # the bundle reads those and evaluates nothing more
    gsys = ref_run["system"]
    gsys.carrier_fields
    calls = _count_carrier_evaluations(monkeypatch)
    diagnostics_bundle(ref_run["trajectory"], gsys)
    assert calls == []


def test_diagnostics_bundle_zero_data(zero_system):
    traj = zero_trajectory(zero_system.period, zero_system.n, 256)
    bundle = diagnostics_bundle(traj, zero_system)
    rows = bundle["rows"]
    assert len(rows) == 12 and all(r["pass"] for r in rows)
    for r in rows:
        assert {"check_id", "lhs", "rhs", "slack", "pass"} <= set(r)
        assert r["slack"] == r["rhs"] - r["lhs"]
    by_id = {r["check_id"]: r for r in rows}
    assert by_id["dissipation-bound"]["zero_data"] is True
    json.dumps(bundle, allow_nan=False)
