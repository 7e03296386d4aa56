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

Every quadrature form over the basis support (the Grams, the cubic
transport tensor and the carrier-transport forms) is a sum of products of
stream-function derivatives F(x1) G(x2).  It is summed in the raw modes as
a sum over the tensor grid of the mesh, where each product factors into 1D
sums, plus a signed correction on the few cells that the body cuts or
covers (`SeparableQuadrature`), and then changed to the orthonormal modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._bumps import CURL, CURL_GRADIENT, Affine, Cosine, EdgeBump, Product, WindowBump
from ._bumps import curl_fields
from .errors import BasisError
from .geometry import cell_blocks, coordinate_split
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


# the uniform flow e1 as a mode: its stream function x2 has curl e1
_UNIFORM = StreamMode(fx=Cosine(0, 0.0, 1.0), gy=Affine(0.0), beta=0.0, label="e1")


def _stream_jets(modes, x1, x2, m):
    """(f, g): the jets of orders 0..m of every mode's factor F at the
    coordinates x1 and G at x2, (m+1, len(modes), len(x1)) and
    (m+1, len(modes), len(x2))."""
    f = np.stack([mode.fx.jet(x1, m) for mode in modes], axis=1)
    g = np.stack([mode.gy.jet(x2, m) for mode in modes], axis=1)
    return f, g


def _fields_from_jets(jets, at, need):
    """Stacked mode fields, one array per entry of `need`, at the points
    that `at` = (at1, at2) places among the coordinates of `jets`
    (`_stream_jets`); each mode's fields are written into arrays allocated
    once."""
    f, g = jets
    for i in range(f.shape[1]):
        fields = curl_fields([(f[:, i], g[:, i])], at, need)
        if i == 0:
            out = [np.empty((f.shape[1],) + fields[key].shape) for key in need]
        for stacked, key in zip(out, need):
            stacked[i] = fields[key]
    return out


def _raw_fields(modes, points, need):
    """Stacked raw mode fields at points, one array per entry of `need`:
    "V" (n, npts, 2) and "grad" (n, npts, 2, 2) with grad[..., i, j] =
    d_j V_i.  The points are split into distinct coordinates once for all
    modes, and each 1D factor is evaluated once per distinct coordinate."""
    (x1, at1), (x2, at2) = coordinate_split(points)
    jets = _stream_jets(modes, x1, x2, 2 if "grad" in need else 1)
    return _fields_from_jets(jets, (at1, at2), need)


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
class SeparableQuadrature:
    """The stream-function jets of the basis, and the quadrature over the
    basis support cells as a grid sum plus a correction.

    `jets` holds the jets (orders 0..2) of the raw modes and, last, of the
    uniform flow e1 (`_stream_jets`) at the coordinates `x1` and `x2`: the
    distinct coordinates of every mesh cell centre, of the grid and of the
    correction points.  Every field of the basis on the mesh is formed from
    them (`GalerkinBasis.field_blocks`), and `place` finds a point among them.
    The sum over the support cells is `area` times the sum over the tensor
    grid of the support columns (every row), plus the signed point `weights`
    of `QuadratureMesh.grid_correction`.  On the grid a product of separable
    fields factors into one 1D sum along x1 and one along x2.  `grid` places
    the grid's columns and rows among `x1` and `x2`, and `at` the correction
    points; `values` and `grads` hold the fields at the correction points.
    """

    x1: np.ndarray
    x2: np.ndarray
    grid: tuple  # (columns, rows): indices into x1 and x2
    at: tuple  # (at1, at2): the correction points among x1 and x2
    area: float
    weights: np.ndarray  # (m,) signed, at the correction points
    jets: tuple = field(repr=False)  # (3, n+1, len(x1)), (3, n+1, len(x2))
    values: np.ndarray = field(repr=False)  # (n+1, m, 2)
    grads: np.ndarray = field(repr=False)  # (n+1, m, 2, 2), grad[..., c, d] = d_d V_c

    def place(self, points):
        """(at1, at2): the indices of the coordinates of (npts, 2) points
        among `x1` and `x2`, which must hold them."""
        return np.searchsorted(self.x1, points[:, 0]), np.searchsorted(self.x2, points[:, 1])

    def grid_stack(self):
        """The grid stack of the raw modes and e1 (one separable term):
        their jets at the grid columns and rows."""
        f, g = self.jets
        cols, rows = self.grid
        return [(f[:, :, cols], g[:, :, rows])]

    def raw_modes(self):
        """The raw modes without e1: their grid stack and their fields at
        the correction points."""
        ((f, g),) = self.grid_stack()
        return [(f[:, :-1], g[:, :-1])], self.values[:-1], self.grads[:-1]

    def transport(self, S, G, V, s, g, v):
        """`_grid_transport` of the grid stacks S, G, V plus
        `_transport_tensor` of their fields s, g, v at the correction points."""
        return _grid_transport(self.area, S, G, V) + _transport_tensor(self.weights, s, g, v)


# the components of the fields in the grid sums, each a list of
# (coefficient, x1 order, x2 order) of stream-function derivatives
_VELOCITY = [[CURL[c]] for c in range(2)]
_GRADIENT = [[CURL_GRADIENT[c][d]] for c in range(2) for d in range(2)]
_STRAIN = [
    [(0.5 * s, i, j) for s, i, j in (CURL_GRADIENT[c][d], CURL_GRADIENT[d][c])]
    for c in range(2)
    for d in range(2)
]


def _grid_gram(area, X, Y, parts):
    """area * sum over the grid of sum_q P_q(X)[i] P_q(Y)[k], (n_X, n_Y).

    X and Y are grid stacks: lists of separable terms (f, g), the jets of
    every field's F at the grid columns, (orders, n, columns), and of its G
    at the grid rows.  `parts` lists the components P_q, each a list of
    (coefficient, x1 order, x2 order) of stream-function derivatives.  Each
    product of two derivatives is one matrix product along x1 times one
    along x2."""
    gram = 0.0
    for part in parts:
        for a, i1, i2 in part:
            for b, j1, j2 in part:
                for fx, gx in X:
                    for fy, gy in Y:
                        gram = gram + (a * b) * ((fx[i1] @ fy[j1].T) * (gx[i2] @ gy[j2].T))
    return area * gram


def _triple(x, y, z):
    """sum_p x[i, p] y[j, p] z[k, p], (len(x), len(y), len(z))."""
    pairs = (x[:, None] * y[None]).reshape(-1, x.shape[1])
    return (pairs @ z.T).reshape(len(x), len(y), len(z))


def _grid_transport(area, S, G, V):
    """The grid part of `_transport_tensor` for the grid stacks S, G and V
    (`_grid_gram`): area * sum over the grid of S[i]_d grad(G[j])_cd V[k]_c,
    summed over c and d.  Each term is one triple 1D sum along x1 times one
    along x2."""
    Q = 0.0
    for c in range(2):
        for d in range(2):
            (a, a1, a2), (b, b1, b2), (e, e1, e2) = CURL[d], CURL_GRADIENT[c][d], CURL[c]
            for fs, gs in S:
                for fg, gg in G:
                    for fv, gv in V:
                        x = _triple(fs[a1], fg[b1], fv[e1])
                        x *= _triple(gs[a2], gg[b2], gv[e2])
                        Q = Q + (a * b * e) * x
    return area * Q


@dataclass(frozen=True)
class GalerkinBasis:
    """Orthonormal divergence-free basis: its raw modes, the change to the
    orthonormal modes, and its tensors.

    psi_i is sum_r coeff[r, i] raw_r.  The basis keeps its fields in one
    form, the stream-function jets of the raw modes in `quadrature`, and
    forms every field on mesh cells from them one block of cells at a time
    (`field_blocks`); `velocity_at` and `gradient_at` evaluate the modes at
    arbitrary points.  Every mode is exactly zero beyond |x1| < X0 + 1 (the
    support cells `cell_idx`): the interior boxes end at |x1| = X0 + 0.95 and
    the body-coupled ramps earlier, and `diagnostics.far_field_decay` checks
    that on every run.  So the quadrature forms over the support are the
    forms over the whole channel.  They are summed in the raw modes through
    `quadrature` and changed to the orthonormal modes by `coeff`; psi_i -
    beta_i e1 adds -beta_i times the uniform flow, the last row of the
    quadrature's stacks.
    """

    geometry: object
    mesh: object
    modes: list  # raw StreamModes
    coeff: np.ndarray  # (n_raw, n): psi_i = sum_r coeff[r, i] * raw_r
    beta: np.ndarray  # (n,) boundary values after orthonormalization
    cell_idx: np.ndarray  # sorted mesh cells carrying the basis support
    quadrature: SeparableQuadrature = field(repr=False)
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

    def field_blocks(self, cells, need):
        """(rows, *fields) for each block `rows` of `geometry.cell_blocks`
        over the mesh cells `cells`: the orthonormal fields of `need` at
        cells[rows], "V" (n, len(rows), 2) and "grad" (n, len(rows), 2, 2)
        with grad[..., c, d] = d_d psi_c, equal to those of `velocity_at`
        and `gradient_at`.  They are formed from the stored jets, one block
        at a time."""
        f, g = self.quadrature.jets
        jets = (f[:, :-1], g[:, :-1])
        at1, at2 = self.quadrature.place(self.mesh.centers[cells])
        for rows in cell_blocks(len(at1)):
            raw = _fields_from_jets(jets, (at1[rows], at2[rows]), need)
            yield rows, *(self._combine(x) for x in raw)


def build_basis(geom, n, mesh):
    """Build the orthonormal divergence-free basis of size n.

    The factors of every raw mode, and of the uniform flow e1, are
    evaluated once at the distinct coordinates of the mesh cell centres, of
    the grid and of the correction points.  These jets are the
    `SeparableQuadrature`.  The mode Gram, the gradient and strain Grams
    and the cubic transport tensor are summed through it in the raw modes:
    1D sums on the grid, and the block sums `_weighted_gram` and
    `_transport_tensor` on the correction points, the only points where a
    field is evaluated.  The Cholesky factor of the mode Gram gives the
    orthonormal modes.
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

    support = geom.X0 + 1.0
    corr, corr_w = mesh.grid_correction(support)
    grid = (mesh.x1[np.abs(mesh.x1) < support], mesh.x2)
    x1, x2 = (
        np.unique(np.concatenate([mesh.centers[:, j], corr[:, j], grid[j]])) for j in range(2)
    )
    jets = _stream_jets(modes + [_UNIFORM], x1, x2, 2)
    at = (np.searchsorted(x1, corr[:, 0]), np.searchsorted(x2, corr[:, 1]))
    corr_v, corr_g = _fields_from_jets(jets, at, ("V", "grad"))
    quad = SeparableQuadrature(
        x1=x1,
        x2=x2,
        grid=(np.searchsorted(x1, grid[0]), np.searchsorted(x2, grid[1])),
        at=at,
        area=mesh.cell_area,
        weights=corr_w,
        jets=jets,
        values=corr_v,
        grads=corr_g,
    )

    R, cv, cg = quad.raw_modes()
    gram = _grid_gram(quad.area, R, R, _VELOCITY) + _weighted_gram(corr_w, cv, cv)
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

    grad_gram = _grid_gram(quad.area, R, R, _GRADIENT) + _weighted_gram(corr_w, cg, cg)
    # (D psi_i, D psi_k) gives the viscous matrix b
    strain_gram = _grid_gram(quad.area, R, R, _STRAIN)
    strain_gram += _weighted_gram(corr_w, cg, cg, part=_strain)
    # cubic transport tensor over (raw modes and e1, raw, raw), then in
    # (psi_i - beta_i e1, psi_j, psi_k) and skew-symmetrized in (j, kappa)
    Q = quad.transport(quad.grid_stack(), R, R, quad.values, cg, cv)
    Q = np.tensordot(_shifted_coeff(coeff, beta), coeff.T @ Q @ coeff, axes=(0, 0))
    return GalerkinBasis(
        geometry=geom,
        mesh=mesh,
        modes=modes,
        coeff=coeff,
        beta=beta,
        cell_idx=mesh.cells_within(support),
        quadrature=quad,
        grad_gram=coeff.T @ grad_gram @ coeff,
        strain_gram=coeff.T @ strain_gram @ coeff,
        c=0.5 * (Q - np.transpose(Q, (0, 2, 1))),
    )


def _weighted_gram(w, X, Y, part=None):
    """sum_p w_p P(X)[i, p, ...] . P(Y)[k, p, ...] over the points p and the
    trailing axes, (len(X), len(Y)), where P is `part` (the identity if None)
    applied to the rows of a block of points.  One matrix product per block
    of `geometry.CELL_BLOCK` points, so neither a weighted copy of X nor a
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


def _transport_tensor(w, S, G, V):
    """Q[i, j, k] = sum_p w_p S[i,p,d] G[j,p,c,d] V[k,p,c] for stacks S, G
    and V of any lengths over the same points, (len(S), len(G), len(V)).

    One matrix product per (c, d) and block of `geometry.CELL_BLOCK`
    points: the (len(S) len(G), block) products w S[i,:,d] G[j,:,c,d],
    written into one buffer per block, against V[k,:,c].
    """
    Q = np.zeros((len(S) * len(G), len(V)))
    for cells in cell_blocks(len(w)):
        wS = w[None, cells, None] * S[:, cells]
        pairs = np.empty((len(S), len(G), wS.shape[1]))
        for c in range(2):
            for d in range(2):
                np.multiply(wS[:, None, :, d], G[None, :, cells, c, d], out=pairs)
                Q += pairs.reshape(len(Q), -1) @ V[:, cells, c].T
        del wS, pairs  # before the next block forms its own
    return Q.reshape(len(S), len(G), len(V))


def _shifted_coeff(coeff, beta):
    """(n_raw + 1, n): psi_i - beta_i e1 over the raw modes and, last, e1."""
    return np.vstack([coeff, -beta])


@dataclass(frozen=True)
class GalerkinSystem:
    """All tensors of the coefficient ODE A a' = -a.(b + d(t)) + c(a, a)
    - (k/rho) z beta + F(t), z' = beta.a, with d(t) (`d_at`) and
    F = f + g beta / rho (`forcing_at`) stored per flow harmonic.
    `transport_forms` holds the carrier half of each d harmonic,
    B_k[i, j] = ((psi_i - beta_i e1) . grad V_k, psi_j).  The system keeps
    no field: the diagnostics form the carrier's from `carrier` where they
    read them.  `scaled` gives the system of the homotopy in the forcing."""

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


def _carrier_stack(carrier, quad):
    """The carrier's Re then Im fields over carrier.harmonics in the form of
    `SeparableQuadrature`: the grid stack of its two separable terms (their
    x1 factors are real and shared by Re and Im), and V and grad V at the
    correction points, (2K, m, 2) and (2K, m, 2, 2)."""
    terms = carrier.separable_terms(quad.x1, quad.x2, 2)
    cols, rows = quad.grid
    stack = []
    for t in range(2):
        f = np.stack([terms[k][t][0][:, cols] for k in terms] * 2, axis=1)
        g = real_fields({k: tk[t][1][:, rows] for k, tk in terms.items()})
        stack.append((f, np.swapaxes(g, 0, 1)))
    at = {k: curl_fields(tk, quad.at, ("V", "grad")) for k, tk in terms.items()}
    return stack, *(real_fields({k: fld[key] for k, fld in at.items()}) for key in ("V", "grad"))


def assemble_system(basis, carrier, forces, params):
    """Quadrature assembly of the per-period tensors of the coefficient ODE
    system; the basis-only tensors (strain Gram, cubic transport) come from
    `build_basis`.  The carrier-transport forms d_1 and B_k are summed
    through the basis's `SeparableQuadrature`, from the carrier's
    `separable_terms` at its coordinates: two separable terms per harmonic
    on the grid and the fields at the correction points, so no carrier
    field is evaluated on the support cells.  The projected forcing is a
    matrix product over one block of `geometry.CELL_BLOCK` forcing cells at
    a time, with the basis velocities of the block (`field_blocks`).

    The cubic transport tensor and the carrier-transport block are assembled
    in explicitly skew-symmetrized form: the continuum integrals are skew
    because the transporting fields are divergence-free with vanishing
    normal flux through every boundary where the basis is nonzero, and the
    symmetrization restores that structure to machine precision against
    quadrature error (the standard energy-conserving convective form).
    """
    n = basis.n
    quad = basis.quadrature
    coeff = basis.coeff
    beta = basis.beta
    rho = params.rho

    A = np.eye(n) + (params.mass / rho) * np.outer(beta, beta)

    # b = (2 mu / rho) (D(psi_i), D(psi_k)); D = sym grad
    b = (2.0 * params.mu / rho) * basis.strain_gram
    b = 0.5 * (b + b.T)

    # carrier transport d(t), per flow harmonic, in the raw modes:
    # d1[m, r, s] = ((V_m . grad) raw_r, raw_s) and
    # B[r, m, s] = ((raw_r or e1) . grad V_m, raw_s), Re then Im
    C, cv_c, cg_c = _carrier_stack(carrier, quad)
    R, cv, cg = quad.raw_modes()
    d1 = quad.transport(C, R, R, cv_c, cg, cv)
    B = quad.transport(quad.grid_stack(), C, R, quad.values, cg_c, cv)
    # in the orthonormal modes, psi_i (d1) and psi_i - beta_i e1 (B)
    d1 = (coeff.T @ d1 @ coeff).reshape(2, -1, n, n)
    B = (_shifted_coeff(coeff, beta).T @ np.swapaxes(B, 0, 1) @ coeff).reshape(2, -1, n, n)
    forms = dict(zip(carrier.harmonics, B[0] + 1j * B[1]))
    d_harm = {
        k: 0.5 * (d - d.T) + forms[k] for k, d in zip(carrier.harmonics, d1[0] + 1j * d1[1])
    }

    # projected forcing (f, psi_kappa) per harmonic, on the f support cells
    f_harm = {}
    if forces.f_harmonics:
        F = real_fields(forces.f_harmonics)  # (2Kf, nf, 2)
        proj = 0.0
        for rows, psi in basis.field_blocks(forces.cell_idx, ("V",)):
            proj = proj + _weighted_gram(forces.cell_weights[rows], F[:, rows], psi)
        F = proj.reshape(2, -1, n)
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
