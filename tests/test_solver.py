"""Accelerated fixed-point solver, residual monitors, and the homotopy sweep."""

from dataclasses import replace

import numpy as np
import pytest

from periflow import solver
from periflow.diagnostics import energy_E
from periflow.errors import NoConvergence, StageError
from periflow.periodic_ode import frozen_linear_part
from periflow.solver import (
    FixedPointConfig,
    _iterate_distance,
    apply_phi,
    fixed_point,
    homotopy_sweep,
    residual_galerkin,
    weak1_residual,
    weak2_residual,
)


def test_config_validation():
    for bad in (
        {"damping": 0.0},
        {"damping": 1.5},
        {"alpha": 0.0},
        {"alpha": 2.0},
        {"tol": -1e-9},
        {"max_iter": 0},
    ):
        with pytest.raises(ValueError):
            FixedPointConfig(**bad)


def test_zero_forcing_converges_immediately(zero_system):
    traj, report = fixed_point(zero_system, FixedPointConfig(n_steps=256))
    assert report["converged"]
    assert report["iterations"] == 1
    assert traj.sup_norm() == 0.0
    assert report["residual"] <= 1e-14


def test_reference_run_converged(ref_run):
    report = ref_run["report"]
    assert report["converged"]
    assert report["iterations"] <= 50
    # the iterate-distance history contracts after the first few steps
    hist = report["history"]
    assert hist[-1] <= hist[0]


def test_converged_point_is_nearly_fixed(ref_run):
    gsys = ref_run["system"]
    traj = ref_run["trajectory"]
    again = apply_phi(frozen_linear_part(gsys, traj.n_steps), traj)
    scale = 1.0 + max(traj.sup_norm(), again.sup_norm())
    assert _iterate_distance(gsys, traj, again) <= 10.0 * 1e-9 * scale


def test_residual_small_at_reference_resolution(ref_run):
    assert ref_run["report"]["residual"] <= 1e-5


def test_residual_decreases_with_time_refinement(ref_run, marginal_run):
    # same pipeline, finer grid and much smaller amplitude: the marginal run
    # is resolved to the strict gate
    assert marginal_run["report"]["residual"] <= 1e-6


def test_weak_residuals_marginal_run(marginal_run):
    gsys = marginal_run["system"]
    traj = marginal_run["trajectory"]
    assert weak1_residual(gsys, traj) <= 1e-6
    assert weak2_residual(gsys, traj) <= 1e-6


def test_weak_residuals_zero_run(zero_system):
    traj, _ = fixed_point(zero_system, FixedPointConfig(n_steps=256))
    assert weak1_residual(zero_system, traj) == 0.0
    assert weak2_residual(zero_system, traj) == 0.0


def test_no_convergence_raises_with_history(ref_run):
    gsys = ref_run["system"]
    with pytest.raises(NoConvergence) as exc_info:
        fixed_point(gsys, FixedPointConfig(n_steps=1024, max_iter=1))
    assert len(exc_info.value.history) == 1


@pytest.mark.parametrize("n_good", [0, 2])
def test_non_finite_map_output_stops_at_once(ref_run, nan_map_after, n_good):
    calls = nan_map_after(n_good)
    with pytest.raises(NoConvergence) as exc_info:
        fixed_point(ref_run["system"], FixedPointConfig(n_steps=256))
    assert len(calls) == n_good + 1
    assert len(exc_info.value.history) == n_good + 1
    assert "non-finite" in str(exc_info.value)


def test_anderson_matches_damped_picard(ref_run, monkeypatch):
    gsys = ref_run["system"]
    cfg = FixedPointConfig(n_steps=256)
    traj, report = fixed_point(gsys, cfg)
    monkeypatch.setattr(solver, "ANDERSON_DEPTH", 0)
    picard, picard_report = fixed_point(gsys, cfg)
    assert report["converged"] and picard_report["converged"]
    assert report["iterations"] < picard_report["iterations"]
    scale = np.max(np.abs(picard.states))
    assert np.max(np.abs(traj.states - picard.states)) <= 1e-10 * scale


def test_full_weight_mixing_reaches_the_damped_path_in_fewer_iterations(ref_run):
    """The default weight 1 and the former default 0.7 take different paths
    to the same fixed point; the full-weight path is the shorter one."""
    gsys = ref_run["system"]
    cfg = FixedPointConfig(n_steps=256)
    assert cfg.damping == 1.0
    traj, report = fixed_point(gsys, cfg)
    damped, damped_report = fixed_point(gsys, replace(cfg, damping=0.7))
    assert report["converged"] and damped_report["converged"]
    assert report["iterations"] < damped_report["iterations"]
    scale = np.max(np.abs(damped.states))
    assert np.max(np.abs(traj.states - damped.states)) <= 1e-10 * scale


def test_map_lipschitz_estimates_on_the_reference(ref_run):
    """The map's own rate |Phi(x_k) - Phi(x_{k-1})| / |x_k - x_{k-1}| stays
    far below 1 on the reference data, the measured basis for mixing at
    full weight."""
    _, report = fixed_point(ref_run["system"], FixedPointConfig(n_steps=256))
    lip, hist = report["lipschitz"], report["history"]
    assert len(lip) == report["iterations"] - 1 >= 2
    assert all(0.0 < q < 0.05 for q in lip)
    # at weight 1 the second iterate is the first map output, so the first
    # estimate is the ratio of the first two iterate distances
    assert lip[0] == pytest.approx(hist[1] / hist[0], rel=1e-12)


def test_warm_homotopy_matches_cold(ref_run):
    gsys = ref_run["system"]
    cfg = FixedPointConfig(n_steps=256)
    alphas = (0.25, 0.5, 0.75, 1.0)
    rows, last = homotopy_sweep(gsys, alphas, cfg)
    cold_iterations = 0
    for row, alpha in zip(rows, alphas):
        traj, report = fixed_point(gsys, replace(cfg, alpha=alpha))
        cold_iterations += report["iterations"]
        sup_E = float(np.max(energy_E(traj, gsys.params)))
        assert row["sup_E"] == pytest.approx(sup_E, rel=1e-9)
    assert sum(r["iterations"] for r in rows) <= cold_iterations
    assert rows[-1]["alpha"] == 1.0


def test_config_scale_and_scaled_system_agree(ref_run):
    # the two ways to set the forcing scale solve the same system
    gsys = ref_run["system"]
    cfg = FixedPointConfig(n_steps=256)
    by_cfg, _ = fixed_point(gsys, replace(cfg, alpha=0.5))
    by_system, _ = fixed_point(gsys.scaled(0.5), cfg)
    assert np.array_equal(by_cfg.states, by_system.states)
    assert np.array_equal(by_cfg.derivs, by_system.derivs)


def test_start_must_match_step_count(ref_run):
    start = ref_run["trajectory"]
    with pytest.raises(ValueError):
        fixed_point(ref_run["system"], FixedPointConfig(n_steps=256), start=start)


def test_start_must_match_period(ref_run):
    """A start over another period would be read on the wrong time grid
    (the iterate distance takes dt from it); it is refused, naming both."""
    start = ref_run["trajectory"]
    other = replace(start, period=1.1 * start.period)
    cfg = FixedPointConfig(n_steps=start.n_steps)
    with pytest.raises(ValueError, match="period") as exc_info:
        fixed_point(ref_run["system"], cfg, start=other)
    assert str(other.period) in str(exc_info.value)
    assert str(start.period) in str(exc_info.value)


def test_homotopy_energy_monotone(ref_run):
    gsys = ref_run["system"]
    alphas = (0.25, 0.5, 1.0)
    rows, last = homotopy_sweep(gsys, alphas, FixedPointConfig(n_steps=1024))
    assert [r["alpha"] for r in rows] == list(alphas)
    sups = [r["sup_E"] for r in rows]
    assert sups[0] < sups[1] < sups[2]
    assert all(r["iterations"] >= 1 for r in rows)
    assert rows[-1]["alpha"] == 1.0
    # the full-forcing endpoint reproduces the direct solve (coarser grid)
    ref_E = 0.5 * np.max(np.sum(ref_run["trajectory"].a ** 2, axis=1))
    assert sups[-1] >= ref_E * 0.9


def test_homotopy_scaling_quadratic_at_small_alpha(ref_run):
    # energy scales like alpha^2 while the forcing is scaled linearly and
    # the response stays in the linear regime
    gsys = ref_run["system"]
    rows, _ = homotopy_sweep(gsys, (0.05, 0.1), FixedPointConfig(n_steps=1024))
    ratio = rows[1]["sup_E"] / rows[0]["sup_E"]
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_galerkin_solve_end_to_end():
    from periflow.config import reference_config
    from periflow.solver import galerkin_solve

    cfg = reference_config(n_modes=4, n_steps=2048, max_iter=50)
    result = galerkin_solve(cfg)
    assert result.report["converged"]
    assert result.report["smallness"]["weak"]["ok"]
    assert result.diagnostics is not None
    assert all(row["pass"] for row in result.diagnostics["rows"])
    assert result.warnings == ()


def test_galerkin_solve_smallness_gate():
    from periflow.config import SignalSpec, reference_config
    from periflow.solver import galerkin_solve

    big = SignalSpec(period=2.0 * np.pi, harmonics=((1, 0.0, -250.0),))
    cfg = reference_config(flowrate=big, n_modes=4, n_steps=1024)
    with pytest.raises(StageError) as exc_info:
        galerkin_solve(cfg)
    assert exc_info.value.stage == "smallness"


def test_shared_basis_assembly_matches_fresh_assembly():
    from periflow.config import ExternalForceSpec, SignalSpec, reference_config
    from periflow.solver import assemble_from_config

    tilde_f = ExternalForceSpec(
        (1.0, 2.0, -0.4, 0.4), (0.0, 1.0), SignalSpec(2.0 * np.pi, ((1, 0.1, 0.0),))
    )
    cfg = reference_config(n_modes=4, tilde_f=tilde_f)
    parts = assemble_from_config(cfg)
    moved = cfg.with_period(1.3 * cfg.flowrate.period)
    shared = assemble_from_config(moved, basis=parts["basis"])["system"]
    fresh = assemble_from_config(moved)["system"]
    assert shared.basis is parts["basis"]
    assert shared.period == fresh.period == moved.flowrate.period
    for name in ("A", "b", "c"):
        np.testing.assert_array_equal(getattr(shared, name), getattr(fresh, name))
    for name in ("d_harmonics", "f_harmonics"):
        got, want = getattr(shared, name), getattr(fresh, name)
        assert got.keys() == want.keys() and want
        for k in want:
            np.testing.assert_array_equal(got[k], want[k])
