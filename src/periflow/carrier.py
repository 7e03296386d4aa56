"""Flux carrier: divergence-free extension of the channel profile past the body.

The carrier velocity is the curl of the stream function

    Psi(x, t) = S(x2, t) + (c(t) - S(x2, t)) * theta(x),

where S(x2, t) is the x2-antiderivative of the profile chi, theta is a C^3
plateau cutoff equal to 1 near the body and 0 at distance >= `outer`, and
c(t) = S at the body's vertical center.  The cutoff is the product
theta1(x1) theta2(x2) of two 1D plateau bumps, so each harmonic k of Psi
is a sum of two separable terms,

    Psi_k = 1 * S_k(x2) + theta1(x1) * [(c_k - S_k) theta2](x2),

whose curl `_bumps.curl_fields` differentiates.  By construction

  * div V = 0 identically,
  * V = 0 on the body boundary (Psi is constant there),
  * V = chi e1 wherever theta vanishes, in particular for |x1| >= X0
    and on the channel walls,
  * the flux through any section equals the prescribed flow rate.

The remaining forcing after subtracting the carrier is

    f = (mu/rho) Lap V - V.grad V - dV/dt + psi(t) e1 (+ external body force),
    g = rho * psi(t) * area(B) (+ external mass force),

with f supported inside the cutoff region: away from it V solves the
channel-profile equations exactly, so the terms cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._bumps import EdgeBump, WindowBump, curl_fields, leibniz
from ._spline import cubic_spline
from .errors import GeometryError, MeshError
from .geometry import coordinate_split
from .signals import PeriodicSignal, derivative, differentiate, harmonic_weights
from .signals import l2_norm_sq, norm_series, product, sobolev_norm_T, synthesize
from .womersley import PoiseuilleFlow


@dataclass(frozen=True)
class CutoffParams:
    """Plateau cutoff radii (sup-distance to the body rectangle)."""

    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ValueError(f"need 0 < inner < outer, got {self.inner}, {self.outer}")


class _HarmonicProfile:
    """The stream-function profile S_k of one harmonic, the x2-antiderivative
    of chi_k, spline-evaluated with its derivatives chi_k, chi_k', chi_k''."""

    def __init__(self, flow, k):
        chi = cubic_spline(flow.x2, flow.chi[k])
        self.splines = (
            chi.antiderivative(),
            chi,
            cubic_spline(flow.x2, flow.chi_first_derivative(k)),
            cubic_spline(flow.x2, flow.chi_second_derivative(k)),
        )

    def jet(self, x, m):
        """[S, chi, chi', chi''][: m + 1] at x, complex (m+1,) + x.shape."""
        return np.stack([sp(x) for sp in self.splines[: m + 1]])


@dataclass(frozen=True)
class FluxCarrier:
    flow: PoiseuilleFlow
    geometry: object
    cutoff: CutoffParams
    bump_x: EdgeBump = field(repr=False)
    bump_y: EdgeBump = field(repr=False)
    profiles: dict = field(repr=False)  # k -> _HarmonicProfile
    center_values: dict = field(repr=False)  # k -> complex c_k = S_k(yc)

    @property
    def period(self):
        return self.flow.period

    @property
    def omega(self):
        return self.flow.omega

    @property
    def harmonics(self):
        return sorted(self.profiles)

    def harmonic_fields(self, points, need=("V",)):
        """Complex fields of every harmonic k at (npts, 2) points, {k: fields}.

        `need` may contain "V", "grad", "lap"; the fields of k are a dict
        "V" -> (npts, 2); "grad" -> (npts, 2, 2) with grad[:, i, j] = d_j V_i;
        "lap" -> (npts, 2).  The points are split into distinct coordinates
        and the bumps evaluated once for all harmonics.  Time derivatives
        are `signals.differentiate` of these harmonics.
        """
        (x1, at1), (x2, at2) = coordinate_split(points)
        m = 3 if "lap" in need else 2 if "grad" in need else 1
        one = np.zeros((m + 1,) + x1.shape)
        one[0] = 1.0
        theta1, theta2 = self.bump_x.jet(x1, m), self.bump_y.jet(x2, m)
        out = {}
        for k in self.harmonics:
            S = self.profiles[k].jet(x2, m)
            c_minus_S = np.concatenate([self.center_values[k] - S[:1], -S[1:]])
            terms = [(one, S), (theta1, leibniz(c_minus_S, theta2))]
            out[k] = curl_fields(terms, (at1, at2), need)
        return out

    def velocity_at(self, points, t):
        """Real carrier velocity at time t, shape (npts, 2)."""
        fields = self.harmonic_fields(points)
        return synthesize({k: fld["V"] for k, fld in fields.items()}, self.omega, t)

    def gradient_at(self, points, t):
        """Real carrier velocity gradient at time t, shape (npts, 2, 2)."""
        fields = self.harmonic_fields(points, ("grad",))
        return synthesize({k: fld["grad"] for k, fld in fields.items()}, self.omega, t)

    def section_flux(self, x1, t):
        """Flux of V through the fluid part of the vertical section x1=const
        (cubic-spline quadrature on 2049 points per fluid segment)."""
        bx0, bx1, by0, by1 = self.geometry.body
        segments = [(-1.0, 1.0)] if not (bx0 <= x1 <= bx1) else [(-1.0, by0), (by1, 1.0)]
        total = 0.0
        for lo, hi in segments:
            y = np.linspace(lo, hi, 2049)
            pts = np.column_stack([np.full_like(y, x1), y])
            v1 = self.velocity_at(pts, t)[:, 0]
            total += cubic_spline(y, v1).integrate(lo, hi)
        return total


def build_flux_carrier(flow, geometry, cutoff):
    """Construct the carrier; errors if the cutoff support leaves the near
    zone or touches the channel walls."""
    bx0, bx1, by0, by1 = geometry.body
    if by1 + cutoff.outer >= 1.0 or by0 - cutoff.outer <= -1.0:
        raise GeometryError(
            f"cutoff support (outer={cutoff.outer}) touches the channel walls; "
            f"body wall margin is {geometry.wall_margin:.3f}"
        )
    if bx1 + cutoff.outer >= geometry.X0 or bx0 - cutoff.outer <= -geometry.X0:
        raise GeometryError(
            f"cutoff support (outer={cutoff.outer}) leaves the near zone |x1| < X0"
        )
    bump_x = EdgeBump(bx0, bx1, cutoff.inner, cutoff.outer)
    bump_y = EdgeBump(by0, by1, cutoff.inner, cutoff.outer)
    yc = geometry.body_center[1]
    profiles = {k: _HarmonicProfile(flow, k) for k in flow.harmonics}
    centers = {k: complex(pr.jet(yc, 0)[0]) for k, pr in profiles.items()}
    return FluxCarrier(
        flow=flow,
        geometry=geometry,
        cutoff=cutoff,
        bump_x=bump_x,
        bump_y=bump_y,
        profiles=profiles,
        center_values=centers,
    )


@dataclass(frozen=True)
class ExternalBodyForce:
    """Separable external body force: bump(x) * direction * signal(t)."""

    box: tuple  # (x0, x1, y0, y1)
    direction: tuple
    signal: PeriodicSignal

    def bump(self, x1, x2):
        wx = WindowBump(self.box[0], self.box[1])
        wy = WindowBump(self.box[2], self.box[3])
        return wx.jet(x1, 0)[0] * wy.jet(x2, 0)[0]

    def harmonic_fields(self, points):
        """dict k -> (npts, 2) complex amplitude fields."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        shape = self.bump(pts[:, 0], pts[:, 1])
        d = np.asarray(self.direction, dtype=float)
        base = shape[:, None] * d[None, :]
        return {
            k: c * base
            for k, c in enumerate(self.signal.fourier_coeffs)
            if c != 0
        }

    def shape_norm(self, mesh):
        """L^2(Omega) norm of the spatial bump."""
        pts = mesh.centers
        return math.sqrt(float(np.dot(mesh.weights, self.bump(pts[:, 0], pts[:, 1]) ** 2)))

    def l2_l2_norm(self, mesh):
        return math.sqrt(l2_norm_sq(self.signal)) * self.shape_norm(mesh)


@dataclass(frozen=True)
class ForcingData:
    carrier: FluxCarrier
    cell_idx: np.ndarray  # mesh cells where f may be nonzero
    cell_weights: np.ndarray
    f_harmonics: dict  # k >= 0 -> (ncells_sub, 2) complex
    g: PeriodicSignal
    tilde_f: ExternalBodyForce | None
    tilde_g: PeriodicSignal | None
    mesh: object

    @property
    def period(self):
        return self.carrier.period

    def scaled(self, factor):
        """The forcing with f, g, `tilde_f` and `tilde_g` scaled by `factor`;
        the carrier, the support cells and the mesh are shared."""
        tf, tg = self.tilde_f, self.tilde_g
        return replace(
            self,
            f_harmonics={k: factor * fld for k, fld in self.f_harmonics.items()},
            g=self.g.scaled(factor),
            tilde_f=None if tf is None else replace(tf, signal=tf.signal.scaled(factor)),
            tilde_g=None if tg is None else tg.scaled(factor),
        )

    def f_l2_l2_norm(self):
        """||f||_{L^2(0,T;L^2(Omega))} from harmonic data (Parseval)."""
        return self._l2_l2_norm(slice(None))

    def f_norm_series(self, n_times, dt_order=0):
        """||d^r f/dt^r (t)||_{L^2(Omega)} on the grid t_j = j T / n_times."""
        omega = self.carrier.omega
        times = np.arange(n_times) * (self.period / n_times)
        harmonics = differentiate(self.f_harmonics, omega, dt_order)
        return norm_series(harmonics, self.cell_weights, omega, times)

    def f_mass_outside(self):
        """L^2(0,T;L^2) mass of f outside Omega_0 = {|x1| < X0}."""
        pts = self.mesh.centers[self.cell_idx]
        mask = np.abs(pts[:, 0]) >= self.carrier.geometry.X0
        return self._l2_l2_norm(mask)

    def _l2_l2_norm(self, cells):
        """Parseval L^2(0,T;L^2) norm of f over the support cells `cells`."""
        energies = [
            float(np.dot(self.cell_weights[cells], (np.abs(fld[cells]) ** 2).sum(axis=-1)))
            for fld in self.f_harmonics.values()
        ]
        weights = harmonic_weights(list(self.f_harmonics))
        return math.sqrt(self.period * float(np.dot(weights, energies)))


def _f_harmonics_at(carrier, params, tilde_f, pts):
    """Harmonic amplitudes of the body force at points: the carrier-induced
    nu Lap V - (V . grad) V - dV/dt + psi e1, plus the external force."""
    fields = carrier.harmonic_fields(pts, ("V", "grad", "lap"))
    V = {k: fld["V"] for k, fld in fields.items()}
    dVdt = differentiate(V, carrier.omega)
    psi = carrier.flow.pressure_coeffs
    e1 = np.array([1.0, 0.0])
    out = {
        k: params.nu * fld["lap"] - dVdt[k] + psi.get(k, 0.0) * e1[None, :]
        for k, fld in fields.items()
    }
    # (V . grad) V with grad[:, i, j] = d_j V_i
    grad = {k: fld["grad"] for k, fld in fields.items()}
    advection = product(V, grad, lambda v, g: -np.einsum("pj,pij->pi", v, g))
    for k, fld in advection.items():
        out[k] = out[k] + fld if k in out else fld
    out = {k: v for k, v in out.items() if np.abs(v).max() > 0.0}
    if tilde_f is not None:
        for k, fld in tilde_f.harmonic_fields(pts).items():
            out[k] = out.get(k, 0.0) + fld
    return out


def carrier_forces(carrier, params, mesh, tilde_f=None, tilde_g=None):
    """Assemble the forcing fields f (on its support cells) and g.

    The viscous boundary integral in g vanishes because grad V = 0 on the
    body boundary, leaving g = rho * psi(t) * area(B) + tilde_g.  A
    `tilde_f` whose bump vanishes at every mesh cell centre raises a
    MeshError: the force reaches the solve only through the cells.
    """
    geom = carrier.geometry
    pts = mesh.centers
    dist = geom.dist_inf_to_body(pts[:, 0], pts[:, 1])
    mask = dist < carrier.cutoff.outer + mesh.h
    if tilde_f is not None:
        if not math.isclose(tilde_f.signal.period, carrier.period, rel_tol=1e-12):
            raise ValueError("external body force must share the flow-rate period")
        b = tilde_f.box
        inside = (
            (pts[:, 0] >= b[0]) & (pts[:, 0] <= b[1])
            & (pts[:, 1] >= b[2]) & (pts[:, 1] <= b[3])
        )
        # the bump vanishes on the box edges, so centres there do not count
        if not tilde_f.bump(pts[inside, 0], pts[inside, 1]).any():
            raise MeshError(
                f"'forces.tilde_f.box' {list(b)} holds no mesh cell centre where the "
                f"force is nonzero at 'solver.mesh_h' {mesh.h}, so it would act on nothing"
            )
        mask |= inside
    idx = np.nonzero(mask)[0]
    f_harm = _f_harmonics_at(carrier, params, tilde_f, pts[idx])

    g = carrier.flow.pressure_factor_signal.scaled(params.rho * geom.body_area)
    if tilde_g is not None:
        if not math.isclose(tilde_g.period, carrier.period, rel_tol=1e-12):
            raise ValueError("external mass force must share the flow-rate period")
        g = g + tilde_g

    return ForcingData(
        carrier=carrier,
        cell_idx=idx,
        cell_weights=mesh.weights[idx],
        f_harmonics=f_harm,
        g=g,
        tilde_f=tilde_f,
        tilde_g=tilde_g,
        mesh=mesh,
    )


@dataclass(frozen=True)
class ForceBoundRow:
    label: str
    lhs: float
    empirical_constant: float


def force_bound_report(forces):
    """Empirical constants for the six forcing-vs-flow-rate norm bounds; the
    sup-in-time norms of f are taken on 256 times."""
    phi = forces.carrier.flow.flowrate
    p1, p2, p3 = (sobolev_norm_T(phi, m) for m in (1, 2, 3))
    tf, tg, mesh = forces.tilde_f, forces.tilde_g, forces.mesh

    def row(label, lhs, tilde, phinorm):
        return ForceBoundRow(label, lhs, (lhs - tilde) / phinorm if phinorm > 0 else 0.0)

    tf_shape = tf.shape_norm(mesh) if tf else 0.0
    tf_l2 = tf.l2_l2_norm(mesh) if tf else 0.0
    tg_l2 = math.sqrt(l2_norm_sq(tg)) if tg else 0.0
    tf_inf = tf.signal.max_abs() * tf_shape if tf else 0.0
    tg_inf = tg.max_abs() if tg else 0.0
    tdf_inf = derivative(tf.signal).max_abs() * tf_shape if tf else 0.0
    tdg_inf = derivative(tg).max_abs() if tg else 0.0
    f_inf = float(forces.f_norm_series(256).max())
    df_inf = float(forces.f_norm_series(256, dt_order=1).max())
    return [
        row("f_L2L2_vs_phi_W12", forces.f_l2_l2_norm(), tf_l2, p1),
        row("g_L2_vs_phi_W12", math.sqrt(l2_norm_sq(forces.g)), tg_l2, p1),
        row("f_LinfL2_vs_phi_W22", f_inf, tf_inf, p2),
        row("g_Linf_vs_phi_W22", forces.g.max_abs(), tg_inf, p2),
        row("dfdt_LinfL2_vs_phi_W32", df_inf, tdf_inf, p3),
        row("dgdt_Linf_vs_phi_W32", derivative(forces.g).max_abs(), tdg_inf, p3),
    ]
