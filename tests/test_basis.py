"""Divergence-free basis construction and coefficient-tensor assembly."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from periflow import geometry
from periflow.basis import _raw_fields, assemble_system, build_basis, estimate_cq
from periflow.basis import grad_identity_gap
from periflow.carrier import FluxCarrier, carrier_forces
from periflow.errors import BasisError
from periflow.geometry import build_mesh
from periflow.signals import sine_signal, sobolev_norm_T, synthesize

from oracles import (
    basis_tensors_einsum,
    body_boundary_quadrature,
    carrier_advected_forms,
    carrier_transport_forms,
    cubic_sum_bruteforce,
    forcing_projection,
    generalized_eigenvalues,
    support_fields,
)

FD_H = 1e-5


def _mode_fields(mode, points, need=("V",)):
    return {key: fld[0] for key, fld in zip(need, _raw_fields([mode], points, need))}


def test_orthonormality(basis):
    w, psi, _ = support_fields(basis)
    gram = np.einsum("p,ipc,kpc->ik", w, psi, psi)
    assert np.max(np.abs(gram - np.eye(basis.n))) <= 1e-10


def test_divergence_free(basis, geom):
    rng = np.random.default_rng(11)
    pts = np.column_stack(
        [rng.uniform(-geom.X0 - 0.5, geom.X0 + 0.5, 200), rng.uniform(-0.95, 0.95, 200)]
    )
    pts = pts[geom.dist_inf_to_body(pts[:, 0], pts[:, 1]) > 2.0 * FD_H]

    def vel(shift_x, shift_y):
        return basis.velocity_at(pts + np.array([shift_x, shift_y]))

    div = (vel(FD_H, 0.0)[:, :, 0] - vel(-FD_H, 0.0)[:, :, 0]) / (2.0 * FD_H) + (
        vel(0.0, FD_H)[:, :, 1] - vel(0.0, -FD_H)[:, :, 1]
    ) / (2.0 * FD_H)
    assert np.max(np.abs(div)) <= 1e-8 / FD_H


def test_body_boundary_values(basis, geom, mesh):
    # every mode equals beta_i * e1 on the body boundary
    nodes, _, _ = body_boundary_quadrature(geom.body, mesh.h)
    v = basis.velocity_at(nodes)  # (n, nb, 2)
    for i in range(basis.n):
        assert np.max(np.abs(v[i, :, 0] - basis.beta[i])) <= 1e-10
        assert np.max(np.abs(v[i, :, 1])) <= 1e-10


def test_first_mode_couples_positively(basis):
    assert basis.beta[0] > 0.0


def test_vanishes_on_channel_walls(basis, geom):
    x1 = np.linspace(-geom.half_length, geom.half_length, 201)
    for wall in (-1.0, 1.0):
        pts = np.column_stack([x1, np.full_like(x1, wall)])
        assert np.max(np.abs(basis.velocity_at(pts))) <= 1e-10


def test_compact_support(basis, geom):
    x2 = np.linspace(-0.99, 0.99, 41)
    for sgn in (-1.0, 1.0):
        pts = np.column_stack(
            [np.full_like(x2, sgn * (geom.X0 + 1.5)), x2]
        )
        assert np.max(np.abs(basis.velocity_at(pts))) == 0.0


def test_gradient_vs_symmetric_gradient_norms(basis):
    # || grad psi ||^2 = 2 || D(psi) ||^2 for every basis field
    assert grad_identity_gap(basis) <= 1e-8


def test_mass_matrix_structure(ref_run, params):
    gsys = ref_run["system"]
    n = gsys.n
    expect = np.eye(n) + (params.mass / params.rho) * np.outer(gsys.beta, gsys.beta)
    assert np.max(np.abs(gsys.A - expect)) <= 1e-12
    eigs = np.linalg.eigvalsh(gsys.A)
    assert eigs.min() >= 1.0 - 1e-12


def test_dissipation_matrix_spd(ref_run):
    b = ref_run["system"].b
    assert np.max(np.abs(b - b.T)) <= 1e-12
    assert np.linalg.eigvalsh(b).min() > 0.0


def test_transport_tensor_skew(ref_run):
    c = ref_run["system"].c
    assert np.max(np.abs(c + np.transpose(c, (0, 2, 1)))) <= 1e-7


def test_cubic_form_vanishes(ref_run):
    c = ref_run["system"].c
    n = c.shape[0]
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = rng.standard_normal(n)
        val = cubic_sum_bruteforce(c, a)
        assert abs(val) <= 1e-7 * np.linalg.norm(a) ** 3


def test_basis_tensors_match_einsum_oracle(basis):
    for name, expect in basis_tensors_einsum(basis).items():
        got = getattr(basis, name)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect)), name


def test_fields_at_cells_matches_direct_evaluation(basis, mesh, monkeypatch):
    # the fields that `field_blocks` forms from the stored jets, on support
    # cells, on cells beyond the support and on repeated cells, in blocks of
    # one cell and of seven, equal the evaluated fields exactly
    rng = np.random.default_rng(3)
    outside = np.setdiff1d(np.arange(len(mesh.weights)), basis.cell_idx)
    cells = np.concatenate(
        [rng.choice(basis.cell_idx, 400), rng.choice(outside, 50), basis.cell_idx[:5]]
    )
    rng.shuffle(cells)
    assert len(np.unique(cells)) < len(cells)
    pts = mesh.centers[cells]
    want = basis.velocity_at(pts), basis.gradient_at(pts)
    for block in (1, 7):
        monkeypatch.setattr(geometry, "CELL_BLOCK", block)
        got = list(basis.field_blocks(cells, ("V", "grad")))
        assert [rows.start for rows, _, _ in got] == list(range(0, len(cells), block))
        for rows, psi, gpsi in got:
            assert np.array_equal(psi, want[0][:, rows])
            assert np.array_equal(gpsi, want[1][:, rows])


@pytest.mark.parametrize("n", [1, 8, 20, 35])
def test_modes_vanish_exactly_off_the_support_cells(geom, mesh, n):
    # the quadrature forms of the basis, summed over the support cells only,
    # rest on these zeros
    b = build_basis(geom, n, mesh=mesh)
    outside = mesh.centers[np.setdiff1d(np.arange(len(mesh.weights)), b.cell_idx)]
    assert len(outside) > 0
    assert np.abs(b.velocity_at(outside)).max() == 0.0
    assert np.abs(b.gradient_at(outside)).max() == 0.0


def test_carrier_is_x1_independent_off_the_support_cells(basis, mesh, ref_run):
    # d_1 V = grad[..., 0] vanishes exactly beyond the basis support, where
    # the Stokes forcing reads it on forcing cells; V itself does not, but it
    # enters the Stokes forcing only through products with basis fields
    outside = mesh.centers[np.setdiff1d(np.arange(len(mesh.weights)), basis.cell_idx)]
    for fld in ref_run["carrier"].harmonic_fields(outside, ("V", "grad")).values():
        assert np.abs(fld["grad"][..., 0]).max() == 0.0
        assert np.abs(fld["V"]).max() > 0.0


def test_stream_mode_fields_at_unsorted_repeated_points(basis, mesh, geom):
    rng = np.random.default_rng(4)
    pts = np.concatenate(
        [
            mesh.centers[rng.choice(len(mesh.weights), 30)],
            np.column_stack([rng.uniform(-geom.X0 - 1, geom.X0 + 1, 10), rng.uniform(-1, 1, 10)]),
        ]
    )
    pts = pts[rng.permutation(np.concatenate([np.arange(40), np.arange(0, 40, 4)]))]
    for mode in basis.modes:
        together = _mode_fields(mode, pts, ("V", "grad"))
        for key, fld in together.items():
            one_by_one = np.concatenate([_mode_fields(mode, p, (key,))[key] for p in pts])
            assert np.array_equal(fld, one_by_one), (mode.label, key)


def test_mode_gradients_are_centred_differences_of_velocities(basis):
    pts = basis.mesh.centers[basis.cell_idx][::3]
    h = 1e-4
    for mode in basis.modes:
        fld = _mode_fields(mode, pts, ("V", "grad"))
        d = [
            (_mode_fields(mode, pts + s)["V"] - _mode_fields(mode, pts - s)["V"]) / (2.0 * h)
            for s in h * np.eye(2)
        ]
        grad = np.stack(d, axis=-1)  # [:, i, j] = d_j V_i
        assert np.max(np.abs(grad - fld["grad"])) <= 1e-5 * (1.0 + np.max(np.abs(fld["V"]))), mode.label


def test_zero_flowrate_assembly(zero_system):
    gsys = zero_system
    for dk in gsys.d_harmonics.values():
        assert np.max(np.abs(dk)) == 0.0
    assert not gsys.f_harmonics
    assert np.max(np.abs(gsys.forces.g.fourier_coeffs)) <= 1e-15


def test_periodic_coefficient_evaluation(ref_run):
    gsys = ref_run["system"]
    T = gsys.period
    for t in (0.3, 2.2):
        assert np.allclose(gsys.d_at(t), gsys.d_at(t + T), atol=1e-12)
        assert np.allclose(gsys.forcing_at(t), gsys.forcing_at(t + T), atol=1e-12)


@pytest.mark.parametrize("which", ["reference", "zero"])
def test_time_derivatives_match_centred_differences(which, ref_run, zero_system):
    gsys = ref_run["system"] if which == "reference" else zero_system
    times = np.array([0.3, 1.7, 4.1])
    h = 1e-5
    for at, shape in ((gsys.forcing_at, (gsys.n,)), (gsys.d_at, (gsys.n, gsys.n))):
        got = at(times, 1)
        assert got.shape == times.shape + shape
        assert at(0.3, 1).shape == shape
        fd = (at(times + h) - at(times - h)) / (2.0 * h)
        assert np.max(np.abs(got - fd)) <= 1e-7 * (1.0 + np.max(np.abs(got)))
    if which == "zero":
        assert not np.any(gsys.forcing_at(times, 1)) and not np.any(gsys.d_at(times, 1))


def test_transport_forms_match_oracle(ref_run):
    gsys = ref_run["system"]
    expect = carrier_transport_forms(gsys.basis, gsys.carrier)
    assert set(gsys.transport_forms) == set(expect) == set(gsys.d_harmonics)
    for k, B in expect.items():
        got = gsys.transport_forms[k]
        assert np.max(np.abs(got - B)) <= 1e-13 * np.max(np.abs(B))
        # what d_k adds to B_k is the skew-symmetrized half
        rest = gsys.d_harmonics[k] - got
        assert np.max(np.abs(rest + rest.T)) <= 1e-13 * np.max(np.abs(rest))


def test_transport_halves_match_oracles_on_two_harmonics(two_harmonic_system):
    # the reference flow rate has harmonic 1 only; this one has 1 and 2, so
    # a mix-up between the harmonics stacked in one product shows
    gsys = two_harmonic_system
    forms = carrier_transport_forms(gsys.basis, gsys.carrier)
    advected = carrier_advected_forms(gsys.basis, gsys.carrier)
    assert set(gsys.d_harmonics) == set(gsys.transport_forms) == set(forms) == set(advected)
    assert len(forms) >= 2
    for k, B in forms.items():
        got = gsys.transport_forms[k]
        assert np.max(np.abs(got - B)) <= 1e-13 * np.max(np.abs(B)), k
        d1 = gsys.d_harmonics[k] - got
        assert np.max(np.abs(d1 - advected[k])) <= 1e-13 * np.max(np.abs(advected[k])), k


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
def test_cell_block_size_changes_no_tensor(
    monkeypatch, geom, mesh, basis, two_harmonic_system, block
):
    """Blocks of one cell, of seven (the last block shorter, on the basis
    and on the forcing cells), or one block over all the cells sum the same
    tensors as the default block size, and still match the oracles."""
    want = two_harmonic_system
    carrier, forces = want.carrier, want.forces
    assert len(basis.cell_idx) % 7 != 0 and len(forces.cell_idx) % 7 != 0
    assert len(basis.cell_idx) < 1 << 20 and want.f_harmonics
    monkeypatch.setattr(geometry, "CELL_BLOCK", block)
    got = build_basis(geom, basis.n, mesh=mesh)
    gsys = assemble_system(got, carrier, forces, want.params)
    for name in ("c", "grad_gram", "strain_gram"):
        assert _relative_gap(getattr(got, name), getattr(basis, name)) <= 1e-13, name
    for name in ("d_harmonics", "transport_forms", "f_harmonics"):
        tensors = getattr(gsys, name)
        assert set(tensors) == set(getattr(want, name))
        for k, expect in getattr(want, name).items():
            assert _relative_gap(tensors[k], expect) <= 1e-13, (name, k)
    for name, expect in basis_tensors_einsum(got).items():
        assert _relative_gap(getattr(got, name), expect) <= 1e-13, name
    for k, expect in carrier_transport_forms(got, carrier).items():
        assert _relative_gap(gsys.transport_forms[k], expect) <= 1e-13, k
    for k, expect in carrier_advected_forms(got, carrier).items():
        d1 = gsys.d_harmonics[k] - gsys.transport_forms[k]
        assert _relative_gap(d1, expect) <= 1e-13, k


@pytest.mark.parametrize(
    "n, h, n_cut", [(8, 1.0 / 32.0, 64), (17, 1.0 / 32.0, 64), (8, 0.05, 20), (25, 1.0 / 24.0, 48)]
)
def test_separable_sums_match_the_cell_sum_oracles(
    geom, two_harmonic_forces, params, n, h, n_cut
):
    """The grid sums plus the correction on the irregular cells give the
    tensors of the sums over the support cells, with 64 or 48 cut cells,
    and at h = 0.05, where the body's edges lie on grid lines: there the
    cells are covered whole, and the 20 cut cells below the body overlap it
    by a rounding sliver only."""
    mesh = build_mesh(geom, h)
    assert len(mesh.cut) == n_cut and len(mesh.irregular) > n_cut
    basis = build_basis(geom, n, mesh=mesh)
    carrier = two_harmonic_forces.carrier
    forces = carrier_forces(carrier, params, mesh)
    gsys = assemble_system(basis, carrier, forces, params)
    for name, expect in basis_tensors_einsum(basis).items():
        assert _relative_gap(getattr(basis, name), expect) <= 1e-13, name
    advected = carrier_advected_forms(basis, carrier)
    for k, expect in carrier_transport_forms(basis, carrier).items():
        assert _relative_gap(gsys.transport_forms[k], expect) <= 1e-13, k
        d1 = gsys.d_harmonics[k] - gsys.transport_forms[k]
        assert _relative_gap(d1, advected[k]) <= 1e-13, k
    expect = forcing_projection(basis, forces)
    assert set(gsys.f_harmonics) == set(expect) and expect
    for k, fk in expect.items():
        assert _relative_gap(gsys.f_harmonics[k], fk) <= 1e-13, k


def test_assembly_evaluates_no_carrier_field(two_harmonic_forces, params, basis, monkeypatch):
    """The assembly sums the carrier forms from the carrier's separable
    terms and evaluates no carrier field on the basis cells."""
    forces = two_harmonic_forces
    calls = []
    original = FluxCarrier.harmonic_fields

    def counted(self, points, *args, **kwargs):
        calls.append(len(points))
        return original(self, points, *args, **kwargs)

    monkeypatch.setattr(FluxCarrier, "harmonic_fields", counted)
    assemble_system(basis, forces.carrier, forces, params)
    assert calls == []


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_basis_and_assembly_peak_memory_is_bounded_by_their_arrays(geom, mesh, ref_run):
    """`build_basis` and `assemble_system` hold, at their traced peaks, the
    arrays they keep or read and the temporaries of one block of cells:
    neither evaluates a field over every support cell."""
    gsys = ref_run["system"]
    basis, forces = gsys.basis, gsys.forces
    quad = basis.quadrature
    n = basis.n
    # one block of a transport sum: the pair products and the shifted and
    # weighted velocities
    step = (n * n + 4 * n) * geometry.CELL_BLOCK * 8
    # the stream-function jets and the fields at the correction points
    kept = sum(x.nbytes for x in quad.jets) + quad.values.nbytes + quad.grads.nbytes
    assert _traced_peak(lambda: build_basis(geom, n, mesh=mesh)) <= kept + step
    # the forcing, complex and real, and the basis velocities of one block of
    # forcing cells, raw and orthonormal, which the forcing projection reads
    forcing = 2 * 16 * len(forces.f_harmonics) * forces.cell_idx.size * 2
    velocities = 2 * n * min(geometry.CELL_BLOCK, forces.cell_idx.size) * 2 * 8
    peak = _traced_peak(lambda: assemble_system(basis, gsys.carrier, forces, gsys.params))
    assert peak <= forcing + velocities + step


def test_too_many_modes_rejected(geom, mesh):
    with pytest.raises(BasisError):
        build_basis(geom, 64, mesh=mesh)
    with pytest.raises(BasisError):
        build_basis(geom, 0, mesh=mesh)


def test_transport_constant_zero_for_zero_flow(zero_system):
    assert estimate_cq(zero_system) == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_transport_constant_candidates_are_the_extreme_eigenvectors(sign):
    # the estimate is the largest |Rayleigh quotient| of the candidates; for
    # the extreme generalized eigenvectors of every grid time that is the
    # largest |eigenvalue|, reached by the top eigenvector for one sign of the
    # forms and by the bottom one for the other
    rng = np.random.default_rng(3)
    n, period = 6, 2.0 * math.pi
    X = rng.normal(size=(n, n))
    forms = {
        k: sign * (rng.normal(size=(n, n)) + 1j * k * rng.normal(size=(n, n))) for k in (0, 1)
    }
    flow = SimpleNamespace(flowrate=sine_signal(period, 1.0))
    gsys = SimpleNamespace(
        basis=SimpleNamespace(grad_gram=X @ X.T + n * np.eye(n), n=n),
        carrier=SimpleNamespace(flow=flow, period=period, omega=1.0),
        transport_forms=forms,
    )
    cq = estimate_cq(gsys)
    Bt = synthesize(forms, 1.0, np.arange(64) * (period / 64))
    lam = max(
        np.abs(generalized_eigenvalues(0.5 * (B + B.T), gsys.basis.grad_gram)).max()
        for B in Bt
    )
    assert cq == pytest.approx(lam / sobolev_norm_T(flow.flowrate, 1), rel=1e-12)


def test_transport_bound_holds_for_samples(basis, ref_run, ref_cq):
    # spot-check the fitted transport bound on fresh random combinations,
    # evaluating the trilinear form directly from the carrier fields
    carrier = ref_run["carrier"]
    phi_norm = sobolev_norm_T(carrier.flow.flowrate, 1)
    gg = basis.grad_gram
    pts = basis.mesh.centers[basis.cell_idx]
    w, values, _ = support_fields(basis)
    e1 = np.array([1.0, 0.0])
    times = np.linspace(0.0, carrier.period, 16, endpoint=False)
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = rng.standard_normal(basis.n)
        denom = phi_norm * float(a @ gg @ a)
        Vm = np.tensordot(a, values - basis.beta[:, None, None] * e1, axes=(0, 0))
        psi = np.tensordot(a, values, axes=(0, 0))
        for t in times:
            Gc = carrier.gradient_at(pts, t)
            val = float(np.einsum("p,pd,pcd,pc->", w, Vm, Gc, psi))
            assert abs(val) <= ref_cq * denom * (1.0 + 1e-9)


def test_scaled_system_scales_the_forcing_only(ref_run):
    gsys = ref_run["system"]
    half = gsys.scaled(0.5)
    times = np.linspace(0.0, gsys.period, 7)
    for order in (0, 1):
        assert np.array_equal(half.forcing_at(times, order), 0.5 * gsys.forcing_at(times, order))
    for owner, scaled_owner, forcing in (
        (gsys, half, {"forces", "f_harmonics"}),
        (gsys.forces, half.forces, {"f_harmonics", "g", "tilde_f", "tilde_g"}),
    ):
        for fld in dataclasses.fields(owner):
            if fld.name not in forcing:
                assert getattr(scaled_owner, fld.name) is getattr(owner, fld.name), fld.name
