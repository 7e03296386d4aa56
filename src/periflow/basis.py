"""Divergence-free Galerkin basis from stream functions, and system assembly.

Every basis velocity is the curl of a tensor-product stream function
s(x) = F(x1) G(x2), so div psi = 0 holds exactly.  Two families:

  * body-coupled modes: F a plateau bump around the body x1-extent and
    G = (x2 - yc) * (plateau bump around the body x2-extent).  On the body
    boundary both bumps sit on their plateau, so s = x2 - yc there and
    psi = e1, i.e. beta = 1 before orthonormalization.
  * interior modes: window bumps (times cosine modulations) in boxes strictly
    left/right of the body, vanishing with three derivatives on all solid
    boundaries, so beta = 0.

The raw modes are L2-orthonormalized by Gram-Schmidt on the quadrature mesh;
the transform matrix is kept so orthonormal fields stay analytically
evaluable at arbitrary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._bumps import Affine, Cosine, EdgeBump, Product, WindowBump, curl_fields
from .errors import BasisError
from .geometry import cell_blocks, cell_rows, coordinate_split
from .signals import derivative, differentiate, real_fields, sobolev_norm_T, synthesize


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def _inner_1d(f, g, df, dg):
    """Integral of f^(df) * g^(dg) by composite Gauss quadrature.

    The segment grid follows the piecewise-analytic structure of both
    factors, so the result is accurate to machine precision.
    """
    sf, sg = getattr(f, "support", None), getattr(g, "support", None)
    if sf is None and sg is None:
        raise ValueError("need at least one compactly supported factor")
    lo = max(s[0] for s in (sf, sg) if s is not None)
    hi = min(s[1] for s in (sf, sg) if s is not None)
    if hi <= lo:
        return 0.0
    cuts = [lo, hi]
    for obj in (f, g):
        cuts.extend(k for k in getattr(obj, "knots", ()) if lo < k < hi)
    cuts = np.array(sorted(set(cuts)))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        x = 0.5 * (b - a) * _GAUSS_X + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(_GAUSS_W, f.jet(x, df)[df] * g.jet(x, dg)[dg]))
    return total


@dataclass(frozen=True)
class StreamMode:
    """One raw basis mode: stream function s = F(x1) G(x2), velocity curl s."""

    fx: object  # the 1D factor F, with `jet` up to order 2
    gy: object  # the 1D factor G, with `jet` up to order 2
    beta: float  # e1 . psi on the body boundary
    label: str

    def fields_on(self, split, need):
        """Real mode fields at the points that `geometry.coordinate_split`
        gave `split`: "V" (npts, 2), "grad" with grad[:, i, j] = d_j V_i.
        Each 1D factor is evaluated once per distinct coordinate and
        scattered back to the points."""
        (x1, at1), (x2, at2) = split
        m = 2 if "grad" in need else 1
        return curl_fields([(self.fx.jet(x1, m), self.gy.jet(x2, m))], (at1, at2), need)


def _raw_fields(modes, points, need):
    """Stacked raw mode fields at points, one array per entry of `need`; the
    points are split into distinct coordinates once for all modes, and each
    mode's fields are written into arrays allocated once."""
    split = coordinate_split(points)
    for i, mode in enumerate(modes):
        fields = mode.fields_on(split, need)
        if i == 0:
            out = [np.empty((len(modes),) + fields[key].shape) for key in need]
        for stacked, key in zip(out, need):
            stacked[i] = fields[key]
    return out


def _gamma_mode(geom, r_in, r_out_x, r_out_y, label):
    bx0, bx1, by0, by1 = geom.body
    yc = geom.body_center[1]
    fx = EdgeBump(bx0, bx1, r_in, r_out_x)
    gy = Product(Affine(yc), EdgeBump(by0, by1, r_in, r_out_y))
    return StreamMode(fx=fx, gy=gy, beta=1.0, label=label)


def _interior_mode(box, j1, j2, label):
    x0, x1, y0, y1 = box
    fx = Product(WindowBump(x0, x1), Cosine(j1, x0, x1))
    gy = Product(WindowBump(y0, y1), Cosine(j2, y0, y1))
    return StreamMode(fx=fx, gy=gy, beta=0.0, label=label)


def _candidate_modes(geom, n):
    """Raw mode lists: (interior modes, body-coupled modes).

    Body-coupled modes are distinguished by distinct ramp widths; at most
    ceil(n/4) of them (beyond the first) join the basis.
    """
    bx0, bx1 = geom.body[:2]
    room_y = geom.wall_margin
    room_x = min(geom.X0 + 1.0 - max(abs(bx0), abs(bx1)), 2.0)
    r_in = 0.12 * room_y
    # variants share the wide (smooth) vertical ramp and differ in the
    # horizontal ramp width, keeping gradients moderate for all of them
    gamma_x_scales = [0.95, 0.5, 0.72]
    n_gamma = min(1 + min(len(gamma_x_scales) - 1, max(0, math.ceil(n / 4) - 1)), n)
    gammas = [
        _gamma_mode(geom, r_in, s * room_x, 0.95 * room_y, f"gamma[{s}]")
        for s in gamma_x_scales[:n_gamma]
    ]

    width = geom.X0 + 0.9 - max(abs(bx0), abs(bx1))
    gap = 0.05
    left = (max(bx0 - gap - width, -geom.X0 - 0.95), bx0 - gap, -1.0, 1.0)
    right = (bx1 + gap, min(bx1 + gap + width, geom.X0 + 0.95), -1.0, 1.0)
    pairs = sorted(
        ((j1, j2) for j1 in range(4) for j2 in range(4)),
        key=lambda p: (p[0] + p[1], p[0]),
    )
    interiors = []
    for j1, j2 in pairs:
        interiors.append(_interior_mode(left, j1, j2, f"left[{j1},{j2}]"))
        interiors.append(_interior_mode(right, j1, j2, f"right[{j1},{j2}]"))
    return interiors[: n - n_gamma], gammas


@dataclass(frozen=True)
class GalerkinBasis:
    """Orthonormal basis fields, evaluated once on the support cells.

    `values` and `grads` hold psi and grad psi on the mesh cells `cell_idx`,
    the cells with |x1| < X0 + 1.  Every mode is exactly zero on the other
    cells: the interior boxes end at |x1| = X0 + 0.95 and the body-coupled
    ramps earlier.  So `geometry.cell_rows` reads the fields of any cell
    set back as stored rows and exact zeros, and evaluates nothing;
    `diagnostics.far_field_decay` checks those zeros on every run.  The
    basis-only tensors are contracted over the cells in `build_basis`, by
    BLAS products over one block of cells at a time.
    """

    geometry: object
    mesh: object
    modes: list  # raw StreamModes
    coeff: np.ndarray  # (n_raw, n): psi_i = sum_r coeff[r, i] * raw_r
    beta: np.ndarray  # (n,) boundary values after orthonormalization
    cell_idx: np.ndarray  # sorted mesh cells carrying the basis support
    cell_weights: np.ndarray
    values: np.ndarray = field(repr=False)  # (n, nc, 2)
    grads: np.ndarray = field(repr=False)  # (n, nc, 2, 2)
    grad_gram: np.ndarray = field(repr=False)  # (n, n): (grad psi_i, grad psi_k)
    strain_gram: np.ndarray = field(repr=False)  # (n, n): (D psi_i, D psi_k)
    c: np.ndarray = field(repr=False)  # (n, n, n) cubic transport, skew in (j, k)

    @property
    def n(self):
        return self.coeff.shape[1]

    def _combine(self, raw):
        return np.tensordot(self.coeff, raw, axes=(0, 0))

    def velocity_at(self, points):
        """(n, npts, 2) orthonormal basis velocities at arbitrary points."""
        (raw,) = _raw_fields(self.modes, points, ("V",))
        return self._combine(raw)

    def gradient_at(self, points):
        (raw,) = _raw_fields(self.modes, points, ("grad",))
        return self._combine(raw)

    def l2_inner(self, i, k):
        return float(
            np.einsum("p,pc,pc->", self.cell_weights, self.values[i], self.values[k])
        )


def build_basis(geom, n, mesh):
    """Build the orthonormal divergence-free basis of size n.

    Every raw mode is evaluated once ("V" and "grad" together) on the cells
    within |x1| < X0 + 1.  The quadrature sums over those cells run as BLAS
    matrix products over one block of `geometry.CELL_BLOCK` cells at a time:
    the gradient and strain Grams through `_weighted_gram`, the cubic
    transport tensor through `_transport_tensor`.  The raw fields are
    turned into the orthonormal ones in place, block by block.  So every
    temporary spans one block of cells or one mode, and the fields of all
    the support cells, held once, set the peak memory.
    """
    if n < 1:
        raise BasisError(f"basis size must be >= 1, got {n}")
    interiors, gammas = _candidate_modes(geom, n)
    if len(interiors) + len(gammas) < n:
        raise BasisError(
            f"only {len(interiors) + len(gammas)} distinct modes available for n={n}"
        )
    # Gram-Schmidt over interiors first so their zero boundary coupling is
    # exact, then the body-coupled modes; reorder afterwards so mode 1 is
    # the first body-coupled mode (positive beta_1 guaranteed).
    modes = interiors + gammas
    n_int = len(interiors)

    idx = mesh.cells_within(geom.X0 + 1.0)
    pts = mesh.centers[idx]
    w = mesh.weights[idx]
    raw_v, raw_g = _raw_fields(modes, pts, ("V", "grad"))
    # the mode Gram fixes coeff, hence values, grads and beta, so it keeps
    # this summation order; a BLAS product moves all of them by ~1e-14
    gram = np.einsum("p,ipc,kpc->ik", w, raw_v, raw_v)
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise BasisError(f"rank-deficient mode set at h={mesh.h}: {exc}") from exc
    cond = np.linalg.cond(gram)
    if cond > 1e12:
        raise BasisError(
            f"mode Gram matrix nearly singular (cond {cond:.2e}); "
            "reduce n or refine the mesh"
        )
    # psi = raw @ inv(L).T  =>  psi Gram = I (classical Gram-Schmidt)
    coeff = np.linalg.solve(L, np.eye(len(modes))).T
    perm = list(range(n_int, n)) + list(range(n_int))
    coeff = coeff[:, perm]
    beta = coeff.T @ np.array([m.beta for m in modes])
    if beta[0] <= 0:
        raise BasisError("first mode lost its positive boundary coupling")
    # psi = coeff^T raw (coeff is square), written over the raw fields one
    # block of cells at a time, so no second copy of the fields is formed
    for cells in cell_blocks(len(w)):
        for raw in (raw_v, raw_g):
            block = raw[:, cells]
            block[...] = np.tensordot(coeff, block, axes=(0, 0))
    V, G = raw_v, raw_g  # (n, nc, 2), (n, nc, 2, 2) with G[i, p, c, d] = d_d psi_{i,c}

    grad_gram = _weighted_gram(w, G, G)
    # (D psi_i, D psi_k) gives the viscous matrix b
    strain_gram = _weighted_gram(w, G, G, part=_strain)
    # cubic transport tensor, skew-symmetrized in (j, kappa)
    Q = _transport_tensor(w, V, G, V, shift=beta)
    return GalerkinBasis(
        geometry=geom,
        mesh=mesh,
        modes=modes,
        coeff=coeff,
        beta=beta,
        cell_idx=idx,
        cell_weights=w,
        values=V,
        grads=G,
        grad_gram=grad_gram,
        strain_gram=strain_gram,
        c=0.5 * (Q - np.transpose(Q, (0, 2, 1))),
    )


def _weighted_gram(w, X, Y, part=None):
    """sum_p w_p P(X)[i, p, ...] . P(Y)[k, p, ...] over the cells p and the
    trailing axes, (len(X), len(Y)), where P is `part` (the identity if None)
    applied to the rows of a block of cells.  One matrix product per block
    of `geometry.CELL_BLOCK` cells, so neither a weighted copy of X nor a
    whole P(X) is formed."""
    gram = np.zeros((len(X), len(Y)))
    for cells in cell_blocks(len(w)):
        x, y = X[:, cells], Y[:, cells]
        if part is not None:
            x, y = part(x), part(y)
        x = x * w[cells].reshape((-1,) + (1,) * (x.ndim - 2))
        gram += x.reshape(len(X), -1) @ y.reshape(len(Y), -1).T
        del x, y  # before the next block forms its own
    return gram


def _strain(grad):
    """The symmetric gradient D = (grad + grad^T) / 2 of gradient rows."""
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def _transport_tensor(w, S, G, V, shift=None):
    """Q[i, j, k] = sum_p w_p S[i,p,d] G[j,p,c,d] V[k,p,c] for stacks S, G
    and V of any lengths over the same cells, (len(S), len(G), len(V)); with
    a `shift`, S[i] - shift_i e1 in place of S[i].

    One matrix product per (c, d) and block of `geometry.CELL_BLOCK` cells:
    the (len(S) len(G), block) products w S[i,:,d] G[j,:,c,d], written into
    one buffer per block, against V[k,:,c].  The shift is applied per block
    too, so no temporary holds every cell.
    """
    Q = np.zeros((len(S) * len(G), len(V)))
    for cells in cell_blocks(len(w)):
        rows = S[:, cells] if shift is None else _shifted(S[:, cells], shift)
        wS = w[None, cells, None] * rows
        pairs = np.empty((len(S), len(G), wS.shape[1]))
        for c in range(2):
            for d in range(2):
                np.multiply(wS[:, None, :, d], G[None, :, cells, c, d], out=pairs)
                Q += pairs.reshape(len(Q), -1) @ V[:, cells, c].T
        del rows, wS, pairs  # before the next block forms its own
    return Q.reshape(len(S), len(G), len(V))


def _shifted(V, beta):
    """psi_i - beta_i e1 at the cells of V, (n, ncells, 2)."""
    return V - beta[:, None, None] * np.array([1.0, 0.0])[None, None, :]


@dataclass(frozen=True)
class GalerkinSystem:
    """All tensors of the coefficient ODE A a' = -a.(b + d(t)) + c(a, a)
    - (k/rho) z beta + F(t), z' = beta.a, with d(t) (`d_at`) and
    F = f + g beta / rho (`forcing_at`) stored per flow harmonic.
    `transport_forms` holds the carrier half of each d harmonic,
    B_k[i, j] = ((psi_i - beta_i e1) . grad V_k, psi_j).  `carrier_fields`
    keeps the carrier fields that the assembly evaluated on the basis cells
    `basis.cell_idx`, which the diagnostics read instead of evaluating the
    carrier again.  `scaled` gives the system of the homotopy in the
    forcing."""

    basis: GalerkinBasis
    carrier: object
    forces: object
    params: object
    A: np.ndarray  # (n, n)
    b: np.ndarray  # (n, n)
    c: np.ndarray  # (n, n, n), skew in the last two indices
    d_harmonics: dict  # flow harmonic k -> complex (n, n)
    transport_forms: dict  # flow harmonic k -> complex (n, n) B_k
    f_harmonics: dict  # flow harmonic k -> complex (n,)
    beta: np.ndarray
    # Re then Im of V_k and grad V_k over carrier.harmonics on basis.cell_idx:
    # ((2K, nc, 2), (2K, nc, 2, 2)), grad[..., c, d] = d_d V_c
    carrier_fields: tuple = field(repr=False)

    @property
    def n(self):
        return self.basis.n

    @property
    def period(self):
        return self.carrier.period

    def d_at(self, t, order=0):
        """Order-th time derivative of the transport matrix d(t), for a
        scalar or an array of times."""
        omega = self.carrier.omega
        return synthesize(differentiate(self.d_harmonics, omega, order), omega, t)

    def forcing_at(self, t, order=0):
        """Order-th time derivative of the forcing F(t) = f(t) + g(t) beta / rho,
        shape (n,) per time, for a scalar or an array of times."""
        omega = self.carrier.omega
        f = differentiate(self.f_harmonics, omega, order) or {0: np.zeros(self.n)}
        g = derivative(self.forces.g, order)(t)
        return synthesize(f, omega, t) + np.multiply.outer(g, self.beta) / self.params.rho

    def scaled(self, factor):
        """The system with the data f, g and the external forces scaled by
        `factor`; the flow rate, the carrier and every tensor are shared."""
        return replace(
            self,
            forces=self.forces.scaled(factor),
            f_harmonics={k: factor * fk for k, fk in self.f_harmonics.items()},
        )


def assemble_system(basis, carrier, forces, params):
    """Quadrature assembly of the per-period tensors of the coefficient ODE
    system; the basis-only tensors (strain Gram, cubic transport) come from
    `build_basis`.  The carrier fields of every harmonic are evaluated once,
    on the basis support cells, and kept in the system's `carrier_fields`;
    the carrier-transport forms and the projected forcing are matrix
    products over one block of `geometry.CELL_BLOCK` cells at a time.

    The cubic transport tensor and the carrier-transport block are assembled
    in explicitly skew-symmetrized form: the continuum integrals are skew
    because the transporting fields are divergence-free with vanishing
    normal flux through every boundary where the basis is nonzero, and the
    symmetrization restores that structure to machine precision against
    quadrature error (the standard energy-conserving convective form).
    """
    n = basis.n
    w = basis.cell_weights
    V = basis.values  # (n, nc, 2)
    G = basis.grads  # (n, nc, 2, 2), grad[i, p, c, d] = d_d psi_{i,c}
    beta = basis.beta
    rho = params.rho

    A = np.eye(n) + (params.mass / rho) * np.outer(beta, beta)

    # b = (2 mu / rho) (D(psi_i), D(psi_k)); D = sym grad
    b = (2.0 * params.mu / rho) * basis.strain_gram
    b = 0.5 * (b + b.T)

    # carrier transport d(t), per flow harmonic
    fields = carrier.harmonic_fields(basis.mesh.centers[basis.cell_idx], ("V", "grad"))
    Vc = real_fields({k: fld["V"] for k, fld in fields.items()})  # (2K, nc, 2)
    Gc = real_fields({k: fld["grad"] for k, fld in fields.items()})  # (2K, nc, 2, 2)
    del fields  # the system keeps the real copies
    # d1[m, i, j] = ((V_m . grad) psi_i, psi_j) and
    # B[m, i, j] = ((psi_i - beta_i e1) . grad V_m, psi_j), Re then Im
    d1 = _transport_tensor(w, Vc, G, V).reshape(2, -1, n, n)
    B = np.swapaxes(_transport_tensor(w, V, Gc, V, shift=beta), 0, 1)
    B = B.reshape(2, -1, n, n)
    forms = dict(zip(carrier.harmonics, B[0] + 1j * B[1]))
    d_harm = {
        k: 0.5 * (d - d.T) + forms[k] for k, d in zip(carrier.harmonics, d1[0] + 1j * d1[1])
    }

    # projected forcing (f, psi_kappa) per harmonic, on the f support cells
    f_harm = {}
    if forces.f_harmonics:
        (psi_f,) = cell_rows(basis.cell_idx, forces.cell_idx, basis.values)  # (n, nf, 2)
        F = real_fields(forces.f_harmonics)  # (2Kf, nf, 2)
        F = _weighted_gram(forces.cell_weights, F, psi_f).reshape(2, -1, n)
        f_harm = dict(zip(forces.f_harmonics, F[0] + 1j * F[1]))

    return GalerkinSystem(
        basis=basis,
        carrier=carrier,
        forces=forces,
        params=params,
        A=A,
        b=b,
        c=basis.c,
        d_harmonics=d_harm,
        transport_forms=forms,
        f_harmonics=f_harm,
        beta=beta,
        carrier_fields=(Vc, Gc),
    )


def grad_identity_gap(basis):
    """Max relative gap |2 ||D(psi_i)||^2 - ||grad psi_i||^2| / ||grad psi_i||^2.

    Both norms are computed exactly (separable Gauss quadrature on the
    piecewise-analytic 1D factors), so this verifies the field-level identity
    rather than the mesh quadrature.
    """
    modes = basis.modes
    nr = len(modes)
    grad = np.zeros((nr, nr))
    cross = np.zeros((nr, nr))
    for a in range(nr):
        for b in range(a, nr):
            fa, ga = modes[a].fx, modes[a].gy
            fb, gb = modes[b].fx, modes[b].gy
            d11 = _inner_1d(fa, fb, 1, 1) * _inner_1d(ga, gb, 1, 1)
            grad[a, b] = (
                2.0 * d11
                + _inner_1d(fa, fb, 0, 0) * _inner_1d(ga, gb, 2, 2)
                + _inner_1d(fa, fb, 2, 2) * _inner_1d(ga, gb, 0, 0)
            )
            # integral of d_j psi^a_i d_i psi^b_j
            cross[a, b] = (
                2.0 * d11
                - _inner_1d(fa, fb, 0, 2) * _inner_1d(ga, gb, 2, 0)
                - _inner_1d(fa, fb, 2, 0) * _inner_1d(ga, gb, 0, 2)
            )
            grad[b, a] = grad[a, b]
            cross[b, a] = cross[a, b]
    C = basis.coeff
    norms = np.einsum("ai,ab,bi->i", C, grad, C)
    gaps = np.einsum("ai,ab,bi->i", C, cross, C)
    return float(np.max(np.abs(gaps) / norms))


def estimate_cq(gsys):
    """Empirical transport-bound constant.

    Maximizes |((psi - beta e1) . grad V, psi)| / (||phi||_{W^{1,2}_T}
    ||grad psi||^2) over the basis coefficient vectors, across a grid of 64
    times.  The forms are the system's `transport_forms`, synthesized in
    time.  A zero flow rate gives 0.
    """
    basis, carrier = gsys.basis, gsys.carrier
    phi_norm = sobolev_norm_T(carrier.flow.flowrate, 1)
    if phi_norm == 0.0:
        return 0.0

    gg = basis.grad_gram
    times = np.arange(64) * (carrier.period / 64)

    # at each grid time the maximizers of the quadratic-form ratio are the
    # extreme eigenvectors of the generalized symmetric eigenproblem against
    # the gradient Gram matrix gg = L L^T, reduced to L^-1 B L^-T
    Linv = np.linalg.inv(np.linalg.cholesky(gg))
    Bt = synthesize(gsys.transport_forms, carrier.omega, times)  # (n_times, n, n)
    _, vecs = np.linalg.eigh(Linv @ (0.5 * (Bt + Bt.transpose(0, 2, 1))) @ Linv.T)
    S = (Linv.T @ vecs[:, :, [0, -1]]).transpose(0, 2, 1).reshape(-1, basis.n)
    denom = phi_norm * np.einsum("si,ij,sj->s", S, gg, S)
    forms = np.einsum("si,tij,sj->ts", S, Bt, S)
    return float(np.max(np.abs(forms) / denom))
