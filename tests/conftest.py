"""Shared session-scoped fixtures: the reference pipeline and its variants.

Heavy objects (meshes, bases, assembled systems, converged trajectories) are
built once per session and shared read-only across test modules.
"""

import math

import numpy as np
import pytest

from periflow.basis import assemble_system, build_basis, estimate_cq
from periflow.carrier import CutoffParams, build_flux_carrier, carrier_forces
from periflow.geometry import PhysicalParams, build_geometry, build_mesh
from periflow.signals import make_signal, sine_signal, sobolev_norm_T
from periflow.solver import FixedPointConfig, fixed_point
from periflow.womersley import solve_poiseuille

PERIOD = 2.0 * math.pi
BODY = (-0.5, 0.5, -0.3, 0.3)
HALF_LENGTH = 6.0
CUTOFF = CutoffParams(inner=0.15, outer=0.6)
N_MODES = 8
PROFILE_NODES = 257
MESH_H = 1.0 / 32.0
MESH_H_FINE = 1.0 / 48.0


@pytest.fixture(scope="session")
def params():
    return PhysicalParams()


@pytest.fixture(scope="session")
def geom():
    return build_geometry(HALF_LENGTH, BODY)


@pytest.fixture(scope="session")
def mesh(geom):
    return build_mesh(geom, MESH_H)


@pytest.fixture(scope="session")
def mesh_fine(geom):
    return build_mesh(geom, MESH_H_FINE)


@pytest.fixture(scope="session")
def basis(geom, mesh):
    return build_basis(geom, N_MODES, mesh=mesh)


@pytest.fixture(scope="session")
def basis_fine(geom, mesh_fine):
    return build_basis(geom, N_MODES, mesh=mesh_fine)


def _pipeline(phi, params, geom, mesh, basis, n_steps, fp_kwargs=None):
    """Profile -> carrier -> forces -> assembly -> converged trajectory."""
    flow = solve_poiseuille(phi, params, n_nodes=PROFILE_NODES)
    carrier = build_flux_carrier(flow, geom, CUTOFF)
    forces = carrier_forces(carrier, params, mesh)
    gsys = assemble_system(basis, carrier, forces, params)
    cfg = FixedPointConfig(n_steps=n_steps, **(fp_kwargs or {}))
    traj, report = fixed_point(gsys, cfg)
    return {
        "phi": phi,
        "flow": flow,
        "carrier": carrier,
        "forces": forces,
        "system": gsys,
        "trajectory": traj,
        "report": report,
    }


# --- reference run: unit-amplitude sine flow rate at the natural period ----


@pytest.fixture(scope="session")
def phi_ref():
    return sine_signal(PERIOD, 1.0)


@pytest.fixture(scope="session")
def ref_run(phi_ref, params, geom, mesh, basis):
    return _pipeline(phi_ref, params, geom, mesh, basis, n_steps=2048)


@pytest.fixture(scope="session")
def ref_cq(ref_run):
    cq = estimate_cq(ref_run["system"])
    assert cq > 0.0
    return cq


# --- the same setup on the refined mesh (two-grid stability checks) --------


@pytest.fixture(scope="session")
def ref_run_fine(phi_ref, params, geom, mesh_fine, basis_fine):
    return _pipeline(phi_ref, params, geom, mesh_fine, basis_fine, n_steps=2048)


# --- marginal-amplitude run: flow rate at 10% of the convergence bound -----


@pytest.fixture(scope="session")
def marginal_run(params, geom, mesh, basis, ref_cq):
    target = 0.1 * params.mu / (params.rho * ref_cq)
    amp = target / sobolev_norm_T(sine_signal(PERIOD, 1.0), 1)
    phi = sine_signal(PERIOD, amp)
    return _pipeline(phi, params, geom, mesh, basis, n_steps=4096)


# --- half-amplitude run (quadratic energy scaling check) -------------------


@pytest.fixture(scope="session")
def half_run(params, geom, mesh, basis):
    phi = sine_signal(PERIOD, 0.5)
    return _pipeline(phi, params, geom, mesh, basis, n_steps=2048)


# --- off-resonant run: period 1.3x the oscillator's natural period ---------


@pytest.fixture(scope="session")
def offres_run(params, geom, mesh, basis):
    phi = sine_signal(1.3 * params.natural_period, 1.0)
    return _pipeline(phi, params, geom, mesh, basis, n_steps=1024)


# --- flow rate with harmonics 1 and 2 --------------------------------------


@pytest.fixture(scope="session")
def two_harmonic_forces(params, geom, mesh):
    """Flow rate with harmonics 1 and 2, so -(V . grad) V has cross terms."""
    phi = make_signal(PERIOD, {1: -0.5j, 2: 0.2 + 0.1j})
    flow = solve_poiseuille(phi, params, n_nodes=PROFILE_NODES)
    carrier = build_flux_carrier(flow, geom, CUTOFF)
    return carrier_forces(carrier, params, mesh)


@pytest.fixture(scope="session")
def two_harmonic_system(two_harmonic_forces, params, basis):
    forces = two_harmonic_forces
    return assemble_system(basis, forces.carrier, forces, params)


# --- zero-flow-rate system: every forcing tensor identically zero ----------


@pytest.fixture(scope="session")
def zero_system(params, geom, mesh, basis):
    from periflow.signals import zero_signal

    flow = solve_poiseuille(zero_signal(PERIOD), params, n_nodes=PROFILE_NODES)
    carrier = build_flux_carrier(flow, geom, CUTOFF)
    forces = carrier_forces(carrier, params, mesh)
    return assemble_system(basis, carrier, forces, params)


# --- a solution map whose outputs turn non-finite ---------------------------


@pytest.fixture
def nan_map_after(monkeypatch):
    """Factory: make every `solver.apply_phi` output after the first `n_good`
    all NaN; returns the list that counts the calls."""
    from dataclasses import replace

    from periflow import solver

    def install(n_good):
        real = solver.apply_phi
        calls = []

        def patched(*args, **kwargs):
            y = real(*args, **kwargs)
            calls.append(None)
            if len(calls) > n_good:
                y = replace(y, states=np.full_like(y.states, np.nan))
            return y

        monkeypatch.setattr(solver, "apply_phi", patched)
        return calls

    return install
