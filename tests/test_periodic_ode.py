"""Linear T-periodic ODE solves, monodromy, and the time integrator."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periflow import periodic_ode
from periflow.errors import ResolutionError, ResonantOrNonUnique
from periflow.geometry import PhysicalParams
from periflow.periodic_ode import (
    LinearPeriodicSystem,
    frozen_linear_part,
    integrate_rk4,
    linear_system_from_galerkin,
    monodromy,
    oscillator_system,
    resample_periodic,
    solve_linear_periodic,
    spectral_time_derivative,
    step_halving_error,
)
from periflow.signals import sine_signal, synthesize
from periflow.solver import ANDERSON_DEPTH, FixedPointConfig, apply_phi, fixed_point

from oracles import damped_cosine_response


def _constant_system(B, r, period=1.0, n_steps=256):
    B = np.atleast_2d(np.asarray(B, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    ng = 4 * n_steps + 1
    return LinearPeriodicSystem(
        period=period,
        coeffs=np.ones((ng, 1)),
        fixed=B.reshape(1, -1),
        rhs=np.broadcast_to(r, (ng,) + r.shape).copy(),
        n_steps=n_steps,
    )


def _sampled_system(period, samples, rhs, n_steps):
    """A system given its (4M+1, dim, dim) coefficient samples whole."""
    return LinearPeriodicSystem(
        period=period,
        coeffs=samples.reshape(len(samples), -1),
        fixed=np.eye(samples.shape[1] * samples.shape[2]),
        rhs=rhs,
        n_steps=n_steps,
    )


def _time_system(period, n_steps, mat_fn, rhs_fn):
    t = np.arange(4 * n_steps + 1) * (period / (4 * n_steps))
    return _sampled_system(period, mat_fn(t), rhs_fn(t), n_steps)


def _rk4_per_step(system, x0, substeps=1):
    """Plain per-step classical RK4, stage by stage: the oracle for the
    batched step maps of integrate_rk4."""
    mats, rhs = system.samples(slice(None)), system.rhs
    n_out = system.n_steps * substeps
    h = system.period / n_out
    s = 4 // substeps
    x = np.array(x0, dtype=float)
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    out = np.empty((n_out + 1,) + x.shape)
    out[0] = x
    for j in range(n_out):
        i0 = s * j
        B0, r0 = mats[i0], rhs[i0]
        Bm, rm = mats[i0 + s // 2], rhs[i0 + s // 2]
        B1, r1 = mats[i0 + s], rhs[i0 + s]
        k1 = B0 @ x + r0[:, None]
        k2 = Bm @ (x + 0.5 * h * k1) + rm[:, None]
        k3 = Bm @ (x + 0.5 * h * k2) + rm[:, None]
        k4 = B1 @ (x + h * k3) + r1[:, None]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j + 1] = x
    return out[:, :, 0] if vec else out


def _varying_system(dim=5, n_steps=64, seed=3):
    """Time-varying B(t) = B0 - 2I + sin(wt) B1 + cos(2wt) B2, kept as the
    product of its time coefficients and matrices, and nonzero r(t) with
    two harmonics."""
    rng = np.random.default_rng(seed)
    B_parts = rng.standard_normal((3, dim, dim))
    B_parts[0] -= 2.0 * np.eye(dim)
    r_parts = rng.standard_normal((3, dim))
    t = np.arange(4 * n_steps + 1) * (1.5 / (4 * n_steps))
    w = 2.0 * math.pi * t / 1.5
    rhs = (
        r_parts[0]
        + np.cos(w)[:, None] * r_parts[1]
        + np.sin(3.0 * w)[:, None] * r_parts[2]
    )
    return LinearPeriodicSystem(
        period=1.5,
        coeffs=np.column_stack([np.ones_like(w), np.sin(w), np.cos(2.0 * w)]),
        fixed=B_parts.reshape(3, -1),
        rhs=rhs,
        n_steps=n_steps,
    )


@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("columns", [None, 3])
def test_integrate_rk4_matches_per_step_loop(substeps, columns):
    sys = _varying_system()
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal(sys.dim if columns is None else (sys.dim, columns))
    got = integrate_rk4(sys, x0, substeps=substeps)
    want = _rk4_per_step(sys, x0, substeps=substeps)
    assert got.shape == want.shape == (sys.n_steps * substeps + 1,) + x0.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_monodromy_matches_per_step_loop():
    sys = _varying_system()
    M, p = monodromy(sys)
    homogeneous = dataclasses.replace(sys, rhs=np.zeros_like(sys.rhs))
    M_ref = _rk4_per_step(homogeneous, np.eye(sys.dim))[-1]
    p_ref = _rk4_per_step(sys, np.zeros(sys.dim))[-1]
    assert np.max(np.abs(M - M_ref)) <= 1e-12 * (1.0 + np.max(np.abs(M_ref)))
    assert np.max(np.abs(p - p_ref)) <= 1e-12 * (1.0 + np.max(np.abs(p_ref)))
    assert np.max(np.abs(p_ref)) > 0.1  # the forcing reaches the response


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 37, 100, 129, 1000])
@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("columns", [None, 3])
def test_blocked_scan_matches_per_step_loop_off_block_size(n_steps, substeps, columns):
    """Step counts that are not powers of two: levels of the scan tree with
    an odd count, whose last node is carried up unchanged."""
    sys = _varying_system(n_steps=n_steps)
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal(sys.dim if columns is None else (sys.dim, columns))
    got = integrate_rk4(sys, x0, substeps=substeps)
    want = _rk4_per_step(sys, x0, substeps=substeps)
    assert got.shape == want.shape == (n_steps * substeps + 1,) + x0.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("n_steps", [3, 100, 1000])
@pytest.mark.parametrize("substeps", [1, 2])
def test_map_build_block_size_changes_no_map(monkeypatch, n_steps, substeps):
    """Blocks of one step, of eight, or one block over the whole period
    build the same tree as the default block size, bit for bit; and the
    samples each block forms from the product give the maps of a system
    handed the whole product (fixed = I), bit for bit."""
    sys = _varying_system(n_steps=n_steps)
    whole = _sampled_system(sys.period, sys.samples(slice(None)), sys.rhs, n_steps)
    want = periodic_ode._build_step_maps(sys, substeps)
    for chunk in (1, 8, 4096):
        monkeypatch.setattr(periodic_ode, "_MAP_CHUNK", chunk)
        for system in (sys, whole):
            got = periodic_ode._build_step_maps(system, substeps)
            assert np.array_equal(got.root, want.root)
            assert len(got.lefts) == len(want.lefts)
            assert all(np.array_equal(g, w) for g, w in zip(got.lefts, want.lefts))


def _growing_system(n_steps=300):
    """A rotating mode that grows by e^3 over the period, beside a decaying
    and a neutral one, with time-varying coupling and forcing."""
    rate = np.diag([1.5, 1.5, -4.0, 0.0])
    rate[0, 1], rate[1, 0] = 3.0, -3.0
    coupling = np.random.default_rng(8).standard_normal((4, 4))

    def mat_fn(t):
        return rate + np.sin(math.pi * t)[:, None, None] * coupling

    def rhs_fn(t):
        return np.cos(math.pi * t)[:, None] * np.array([1.0, -0.5, 2.0, 0.3])

    return _time_system(2.0, n_steps, mat_fn, rhs_fn)


@pytest.mark.parametrize("which", ["undamped-oscillator", "growing"])
@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("columns", [None, 3])
def test_scan_of_non_contracting_maps_matches_per_step_loop(which, substeps, columns):
    """The scan composes up to half the period before it applies a map; on
    maps that do not contract (a neutral rotation, a growing mode) it still
    agrees with stepping one step at a time."""
    if which == "undamped-oscillator":
        params = PhysicalParams()
        sys = oscillator_system(params, sine_signal(1.3 * params.natural_period, 0.5))
    else:
        sys = _growing_system()
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal(sys.dim if columns is None else (sys.dim, columns))
    got = integrate_rk4(sys, x0, substeps=substeps)
    want = _rk4_per_step(sys, x0, substeps=substeps)
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
    if which == "growing":
        assert np.max(np.abs(want[-1])) > 10.0 * np.max(np.abs(x0))  # it does grow


@pytest.mark.parametrize("n_steps", [1, 37, 100])
def test_monodromy_matches_per_step_loop_off_block_size(n_steps):
    sys = _varying_system(n_steps=n_steps)
    M, p = monodromy(sys)
    homogeneous = dataclasses.replace(sys, rhs=np.zeros_like(sys.rhs))
    M_ref = _rk4_per_step(homogeneous, np.eye(sys.dim))[-1]
    p_ref = _rk4_per_step(sys, np.zeros(sys.dim))[-1]
    assert np.max(np.abs(M - M_ref)) <= 1e-12 * (1.0 + np.max(np.abs(M_ref)))
    assert np.max(np.abs(p - p_ref)) <= 1e-12 * (1.0 + np.max(np.abs(p_ref)))


@pytest.fixture
def map_builds(monkeypatch):
    """Record the `substeps` of every RK4 step-map build."""
    builds = []
    build = periodic_ode._build_step_maps

    def counting(system, substeps):
        builds.append(substeps)
        return build(system, substeps)

    monkeypatch.setattr(periodic_ode, "_build_step_maps", counting)
    return builds


def test_linear_solve_builds_each_step_size_once(map_builds):
    """Monodromy, the nominal half of the step-halving check and the
    trajectory sweep share one build; the halved sweep builds its own."""
    sys = _varying_system(n_steps=100)
    traj = solve_linear_periodic(sys)
    assert sorted(map_builds) == [1, 2]
    assert np.array_equal(traj.states, integrate_rk4(sys, traj.states[0]))
    assert sorted(map_builds) == [1, 2]


def test_system_from_galerkin_builds_its_own_maps(map_builds, zero_system):
    frozen = frozen_linear_part(zero_system, 64)
    tilde = np.random.default_rng(7).standard_normal((64, zero_system.n))
    M_base, _ = monodromy(linear_system_from_galerkin(frozen, np.zeros_like(tilde)))
    for ta in (np.zeros_like(tilde), tilde):
        lin = linear_system_from_galerkin(frozen, tilde_a=ta)
        M, p = monodromy(lin)
        fresh = LinearPeriodicSystem(
            period=lin.period,
            coeffs=lin.coeffs.copy(),
            fixed=lin.fixed.copy(),
            rhs=lin.rhs.copy(),
            n_steps=64,
        )
        M_fresh, p_fresh = monodromy(fresh)
        assert np.array_equal(M, M_fresh) and np.array_equal(p, p_fresh)
    assert map_builds == [1] * 5
    assert np.max(np.abs(M - M_base)) > 1e-3  # the transport block reached M


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_overflowing_grid_is_unresolved_not_resonant(r):
    """RK4 at h B = 1.6e4 overflows; the map build finds a step map that is
    not finite (inf, or nan once inf meets inf or 0 in a product), names the
    step count, and lets no overflow warning escape."""
    sys = _constant_system([[1e6]], [r], period=1.0, n_steps=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResolutionError, match="not finite") as exc_info:
            solve_linear_periodic(sys)
    assert "increase solver.n_steps" in str(exc_info.value)


def test_overflowing_sweep_is_unresolved():
    """Finite step maps can still carry a state past the largest float; the
    sweep names the step count instead of returning inf, with no warning."""
    sys = _constant_system([[1.0]], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResolutionError, match="RK4 sweep at 256 steps not finite"):
            integrate_rk4(sys, np.array([1e308]))


def test_overflowing_monodromy_is_unresolved(monkeypatch):
    """Finite swept states whose difference M = final - p overflows: the
    monodromy is not finite, which is a resolution error, with no warning."""
    sys = _constant_system([[1.0]], [0.0])

    def sweep(system, x0, substeps=1):
        out = np.zeros((system.n_steps + 1,) + np.shape(x0))
        out[-1] = [[1.5e308, -1.5e308]]
        return out

    monkeypatch.setattr(periodic_ode, "integrate_rk4", sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResolutionError, match="monodromy not finite"):
            solve_linear_periodic(sys)


def test_zero_rhs_constant_trajectory():
    sys = _constant_system([[0.0]], [0.0])
    out = integrate_rk4(sys, np.array([3.0]))
    assert np.max(np.abs(out - 3.0)) == 0.0


def test_exponential_growth():
    sys = _constant_system([[1.0]], [0.0])
    out = integrate_rk4(sys, np.array([1.0]))
    assert out[-1, 0] == pytest.approx(math.e, abs=1e-9)


def test_harmonic_oscillator_energy_drift():
    # x'' = -x over one period 2*pi: the exact flow is a rotation
    B = [[0.0, 1.0], [-1.0, 0.0]]
    sys = _constant_system(B, [0.0, 0.0], period=2.0 * math.pi, n_steps=256)
    out = integrate_rk4(sys, np.array([1.0, 0.0]))
    energy = np.sum(out**2, axis=1)
    assert np.max(np.abs(energy - 1.0)) <= 1e-8


def test_step_halving_error_small_for_smooth_system():
    sys = _constant_system([[-1.0]], [1.0])
    assert step_halving_error(sys, np.array([0.5])) <= 1e-10


def test_monodromy_zero_matrix():
    sys = _time_system(
        1.0,
        128,
        lambda t: np.zeros((len(t), 1, 1)),
        lambda t: np.cos(2.0 * math.pi * t)[:, None],
    )
    M, p = monodromy(sys)
    assert M[0, 0] == pytest.approx(1.0, abs=1e-12)
    # particular response = integral of the rhs over one period = 0
    assert p[0] == pytest.approx(0.0, abs=1e-10)


def test_monodromy_scalar_decay():
    sys = _constant_system([[-1.0]], [0.0], period=1.0)
    M, _ = monodromy(sys)
    assert M[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_periodic_solve_closed_form():
    omega_f = 2.0
    T = 2.0 * math.pi / omega_f
    sys = _time_system(
        T,
        512,
        lambda t: np.full((len(t), 1, 1), -1.0),
        lambda t: np.cos(omega_f * t)[:, None],
    )
    traj = solve_linear_periodic(sys)
    exact = damped_cosine_response(omega_f, traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-8


def test_step_halving_gate_fires_on_a_coarse_grid():
    # x' = -x + cos 5t over T = 2 pi: at 16 steps the nominal and the halved
    # step disagree by 4.8e-4 at t = T, past the gate; at 256 steps the
    # solve passes it and matches the closed form
    def system(n_steps):
        return _time_system(
            2.0 * math.pi,
            n_steps,
            lambda t: np.full((len(t), 1, 1), -1.0),
            lambda t: np.cos(5.0 * t)[:, None],
        )

    with pytest.raises(ResolutionError, match="step-halving disagreement 4.757e-04"):
        solve_linear_periodic(system(16))
    traj = solve_linear_periodic(system(256))
    exact = damped_cosine_response(5.0, traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-6


def test_oscillator_resonant_at_natural_period():
    params = PhysicalParams()
    g = sine_signal(params.natural_period, 0.5)
    sys = oscillator_system(params, g)
    with pytest.raises(ResonantOrNonUnique) as exc_info:
        solve_linear_periodic(sys)
    assert exc_info.value.sigma_min < 1e-8


def test_oscillator_unforced_resonance_also_flagged():
    from periflow.signals import zero_signal

    params = PhysicalParams()
    sys = oscillator_system(params, zero_signal(params.natural_period))
    with pytest.raises(ResonantOrNonUnique):
        solve_linear_periodic(sys)


def test_oscillator_off_resonance_solves():
    params = PhysicalParams()
    T = 1.3 * params.natural_period
    g = sine_signal(T, 0.5)
    traj = solve_linear_periodic(oscillator_system(params, g))
    assert traj.periodicity_defect <= 1e-8 * (1.0 + traj.sup_norm())
    # closed form: z = g / (k - m (2 pi / T)^2) for sinusoidal forcing
    w = 2.0 * math.pi / T
    amp = 0.5 / (params.stiffness - params.mass * w**2)
    # grid max of |sin| undershoots the true peak by O((dt)^2)
    assert np.max(np.abs(traj.states[:, 0])) == pytest.approx(abs(amp), rel=1e-4)


def _linear_system_from_scratch(gsys, tilde_a, alpha, n_steps):
    """The coupled linear system built in one pass, term by term: the
    oracle for the frozen/per-iterate split of linear_system_from_galerkin."""
    n = gsys.n
    t = np.arange(4 * n_steps + 1) * (gsys.period / (4 * n_steps))
    ta2 = resample_periodic(tilde_a, 4 * n_steps)
    ta2 = np.vstack([ta2, ta2[:1]])
    # row kappa, column j: c_ijk tilde_a_i - b_jk - d_jk(t)
    coeff_a = (
        np.einsum("ti,ijk->tkj", ta2, gsys.c)
        - gsys.b.T[None]
        - gsys.d_at(t).transpose(0, 2, 1)
    )
    Ainv = np.linalg.inv(gsys.A)
    rho = gsys.params.rho
    mats = np.zeros((len(t), n + 1, n + 1))
    mats[:, :n, :n] = np.einsum("mk,tkj->tmj", Ainv, coeff_a)
    mats[:, :n, n] = -(gsys.params.stiffness / rho) * (Ainv @ gsys.beta)
    mats[:, n, :n] = gsys.beta
    f = synthesize(gsys.f_harmonics or {0: np.zeros(n)}, 2.0 * math.pi / gsys.period, t)
    forcing = alpha * (f + np.outer(gsys.forces.g(t), gsys.beta) / rho)
    rhs = np.zeros((len(t), n + 1))
    rhs[:, :n] = np.einsum("mk,tk->tm", Ainv, forcing)
    return mats, rhs


@pytest.mark.parametrize("which", ["reference", "zero"])
def test_linear_system_split_matches_from_scratch_build(which, ref_run, zero_system):
    gsys = ref_run["system"] if which == "reference" else zero_system
    n_steps = 256
    tilde = np.random.default_rng(5).standard_normal((n_steps, gsys.n))
    want_mats, want_rhs = _linear_system_from_scratch(gsys, tilde, 0.6, n_steps)
    frozen = frozen_linear_part(gsys.scaled(0.6), n_steps)
    lin = linear_system_from_galerkin(frozen, tilde_a=tilde)
    assert lin.n_steps == n_steps
    for got, want in ((lin.samples(slice(None)), want_mats), (lin.rhs, want_rhs)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a build that uses the frozen part leaves it as it was
    fresh = frozen_linear_part(gsys.scaled(0.6), n_steps)
    for field in dataclasses.fields(frozen):
        assert np.array_equal(getattr(frozen, field.name), getattr(fresh, field.name))


def _arrays(obj):
    """Every array held by `obj`, a dataclass, down through nested dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))


def test_frozen_part_holds_no_coefficient_samples(ref_run):
    """The frozen part keeps time coefficients and fixed matrices: all its
    arrays together are smaller than one (4M+1, dim, dim) sample array."""
    gsys = ref_run["system"]
    n_steps = 2048
    frozen = frozen_linear_part(gsys, n_steps)
    samples = (4 * n_steps + 1) * (gsys.n + 1) ** 2 * 8
    assert sum(a.nbytes for a in _arrays(frozen)) < samples


def test_linear_system_holds_no_coefficient_samples(ref_run):
    """The iterate's system keeps its samples as a product: all its arrays
    together, the frozen part's matrices and rhs included, are smaller than
    one (4M+1, dim, dim) sample array."""
    gsys = ref_run["system"]
    n_steps = 2048
    frozen = frozen_linear_part(gsys, n_steps)
    lin = linear_system_from_galerkin(frozen, ref_run["trajectory"].a[:-1])
    samples = (4 * n_steps + 1) * (gsys.n + 1) ** 2 * 8
    assert sum(a.nbytes for a in _arrays(lin)) < samples


def test_monodromy_particular_response_owns_its_data(zero_system):
    """p is copied out of the sweep, so it does not keep the sweep alive."""
    lin = linear_system_from_galerkin(
        frozen_linear_part(zero_system, 64), np.zeros((64, zero_system.n))
    )
    M, p = monodromy(lin)
    assert p.base is None and M.base is None


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _apply_phi_bound(frozen):
    """The arrays one application of the solution map has to form: the
    system's time coefficients (those of `frozen` and one column per fluid
    mode), the step-map trees at both step sizes (a tree over m steps holds
    m maps), the samples at the M+1 grid nodes that the trajectory
    derivatives read, and one block of the map build: its samples (a row
    per half step) and its RK4 stage arrays (three, and one more for the
    products' small temporaries).  No sample array of the whole grid."""
    dim = frozen.rhs.shape[1]
    n_steps = frozen.n_steps
    one_map = dim * (dim + 1) * 8
    coeffs = (4 * n_steps + 1) * (frozen.coeffs.shape[1] + dim - 1) * 8
    trees = (n_steps + 2 * n_steps) * one_map
    node_samples = (n_steps + 1) * dim * dim * 8
    block_samples = (2 * periodic_ode._MAP_CHUNK + 1) * dim * dim * 8
    stages = 4 * periodic_ode._MAP_CHUNK * one_map
    return coeffs + trees + node_samples + block_samples + stages


def test_apply_phi_peak_memory_is_bounded_by_its_arrays(ref_run):
    """One application of the solution map at 2048 steps holds, at its
    traced peak, no more than the arrays it has to form (`_apply_phi_bound`)."""
    gsys, traj = ref_run["system"], ref_run["trajectory"]
    assert traj.n_steps == 2048
    frozen = frozen_linear_part(gsys, traj.n_steps)
    assert _traced_peak(lambda: apply_phi(frozen, traj)) <= _apply_phi_bound(frozen)


def test_fixed_point_peak_memory_is_bounded_by_its_arrays(ref_run):
    """One fixed point at 2048 steps from zero holds, at its traced peak, no
    more than its Anderson history (ANDERSON_DEPTH + 1 flattened iterates
    and as many map outputs), one application of the map, two trajectories
    (the iterate and the last map output) and its frozen part: the mixing
    step's differences and mixed pair end with the step."""
    gsys = ref_run["system"]
    n_steps = 2048
    frozen = frozen_linear_part(gsys, n_steps)
    flat = 2 * (n_steps + 1) * (gsys.n + 1) * 8
    bound = (
        2 * (ANDERSON_DEPTH + 1) * flat
        + _apply_phi_bound(frozen)
        + 2 * flat
        + sum(a.nbytes for a in _arrays(frozen))
    )
    cfg = FixedPointConfig(n_steps=n_steps)
    assert _traced_peak(lambda: fixed_point(gsys, cfg)) <= bound


def test_homogeneous_coupled_system_trivial(zero_system):
    rng = np.random.default_rng(2)
    tilde = rng.standard_normal((256, zero_system.n))
    lin = linear_system_from_galerkin(frozen_linear_part(zero_system, 256), tilde_a=tilde)
    traj = solve_linear_periodic(lin)
    assert traj.sup_norm() <= 1e-9


def test_solution_map_deterministic(zero_system):
    from periflow.periodic_ode import zero_trajectory

    tilde = zero_trajectory(zero_system.period, zero_system.n, 256)
    frozen = frozen_linear_part(zero_system, 256)
    a = apply_phi(frozen, tilde)
    b = apply_phi(frozen, tilde)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.derivs, b.derivs)


def test_kinematic_row_consistency():
    # second state component integrates the first; its stored derivative must
    # equal the first component exactly at every grid point
    omega_f = 1.0
    T = 2.0 * math.pi
    sys = _time_system(
        T,
        256,
        lambda t: np.broadcast_to(
            np.array([[-1.0, -1.0], [1.0, 0.0]]), (len(t), 2, 2)
        ).copy(),
        lambda t: np.column_stack([np.cos(omega_f * t), np.zeros(len(t))]),
    )
    traj = solve_linear_periodic(sys)
    assert traj.n_fluid == 1
    assert np.max(np.abs(traj.zdot - traj.a[:, 0])) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 5),
    st.floats(0.5, 8.0, allow_nan=False),
)
def test_resampling_exact_for_trig_polynomials(factor, harmonic, period):
    n_in = 64
    t_in = np.arange(n_in) * (period / n_in)
    x = np.cos(2.0 * math.pi * harmonic * t_in / period + 0.3)
    n_out = n_in * factor
    t_out = np.arange(n_out) * (period / n_out)
    expect = np.cos(2.0 * math.pi * harmonic * t_out / period + 0.3)
    assert np.allclose(resample_periodic(x, n_out), expect, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.floats(0.5, 8.0, allow_nan=False))
def test_spectral_derivative_exact_for_trig_polynomials(harmonic, period):
    n = 64
    t = np.arange(n) * (period / n)
    w = 2.0 * math.pi * harmonic / period
    x = np.sin(w * t)
    d = spectral_time_derivative(x, period)
    assert np.allclose(d, w * np.cos(w * t), atol=1e-8 * (1.0 + w))


def test_integrator_rejects_bad_substeps():
    sys = _constant_system([[0.0]], [0.0])
    with pytest.raises(ValueError):
        integrate_rk4(sys, np.array([1.0]), substeps=3)


def test_coefficient_grid_size_enforced():
    with pytest.raises(ValueError):
        LinearPeriodicSystem(
            period=1.0,
            coeffs=np.zeros((100, 1)),
            fixed=np.zeros((1, 1)),
            rhs=np.zeros((100, 1)),
            n_steps=256,
        )
