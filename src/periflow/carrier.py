"""Flux carrier: divergence-free extension of the channel profile past the body.

The carrier velocity is the curl of the stream function

    Psi(x, t) = S(x2, t) + (c(t) - S(x2, t)) * theta(x),

where S(x2, t) is the x2-antiderivative of the profile chi, theta is a C^3
plateau cutoff equal to 1 near the body and 0 at distance >= `outer`, and
c(t) = S at the body's vertical center.  By construction

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

from ._bumps import EdgeBump
from ._spline import cubic_spline
from .errors import GeometryError
from .geometry import coordinate_split
from .signals import PeriodicSignal, derivative, differentiate, harmonic_weights
from .signals import l2_norm_sq, norm_series, product, sobolev_norm_T, synthesize
from .womersley import PoiseuilleFlow


@dataclass(frozen=True)
class CutoffParams:
    """Plateau cutoff radii (sup-distance to the body rectangle)."""

    inner: float = 0.2
    outer: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ValueError(f"need 0 < inner < outer, got {self.inner}, {self.outer}")


class _HarmonicProfile:
    """Spatial ingredients of one profile harmonic, spline-evaluated."""

    def __init__(self, flow, k):
        self.chi = cubic_spline(flow.x2, flow.chi[k])
        self.chi1 = cubic_spline(flow.x2, flow.chi_first_derivative(k))
        self.chi2 = cubic_spline(flow.x2, flow.chi_second_derivative(k))
        self.S = self.chi.antiderivative()


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

    def harmonic_fields(self, points, k, need=("V",)):
        """Complex fields of harmonic k >= 0 at (npts, 2) points.

        `need` may contain "V", "grad", "lap".  Returns a dict:
        "V" -> (npts, 2); "grad" -> (npts, 2, 2) with grad[:, i, j] = d_j V_i;
        "lap" -> (npts, 2).  Time derivatives are `signals.differentiate`
        of these harmonics.
        """
        (x1, at1), (x2, at2) = coordinate_split(points)
        pr = self.profiles[k]
        grad, lap = "grad" in need, "lap" in need
        bmax = 3 if lap else 2 if grad else 1
        # profile splines and bumps per distinct coordinate, scattered back
        chi = pr.chi(x2)[at2]
        chi1 = pr.chi1(x2)[at2] if grad or lap else None
        chi2 = pr.chi2(x2)[at2] if lap else None
        cs = (self.center_values[k] - pr.S(x2))[at2]

        b1 = [self.bump_x(x1, d)[at1] for d in range(bmax + 1)]
        b2 = [self.bump_y(x2, d)[at2] for d in range(bmax + 1)]
        one_m_theta = 1.0 - b1[0] * b2[0]

        out = {}
        if "V" in need:
            v1 = chi * one_m_theta + cs * b1[0] * b2[1]
            v2 = -cs * b1[1] * b2[0]
            out["V"] = np.stack([v1, v2], axis=-1)
        if grad:
            g = np.empty(at1.shape + (2, 2), dtype=complex)
            g[:, 0, 0] = -chi * b1[1] * b2[0] + cs * b1[1] * b2[1]
            g[:, 0, 1] = chi1 * one_m_theta - 2.0 * chi * b1[0] * b2[1] + cs * b1[0] * b2[2]
            g[:, 1, 0] = -cs * b1[2] * b2[0]
            g[:, 1, 1] = chi * b1[1] * b2[0] - cs * b1[1] * b2[1]
            out["grad"] = g
        if lap:
            l1 = (
                -chi * b1[2] * b2[0]
                + cs * b1[2] * b2[1]
                + chi2 * one_m_theta
                - 3.0 * chi1 * b1[0] * b2[1]
                - 3.0 * chi * b1[0] * b2[2]
                + cs * b1[0] * b2[3]
            )
            l2 = (
                -cs * b1[3] * b2[0]
                + chi1 * b1[1] * b2[0]
                + 2.0 * chi * b1[1] * b2[1]
                - cs * b1[1] * b2[2]
            )
            out["lap"] = np.stack([l1, l2], axis=-1)
        return out

    def velocity_at(self, points, t):
        """Real carrier velocity at time t, shape (npts, 2)."""
        fields = {k: self.harmonic_fields(points, k)["V"] for k in self.harmonics}
        return synthesize(fields, self.omega, t)

    def gradient_at(self, points, t):
        """Real carrier velocity gradient at time t, shape (npts, 2, 2)."""
        fields = {
            k: self.harmonic_fields(points, k, ("grad",))["grad"] for k in self.harmonics
        }
        return synthesize(fields, self.omega, t)

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


def build_flux_carrier(flow, geometry, cutoff=None):
    """Construct the carrier; errors if the cutoff support leaves the near
    zone or touches the channel walls."""
    cutoff = cutoff or CutoffParams()
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
    centers = {k: complex(pr.S(yc)) for k, pr in profiles.items()}
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
        from ._bumps import WindowBump

        wx = WindowBump(self.box[0], self.box[1])
        wy = WindowBump(self.box[2], self.box[3])
        return wx(x1) * wy(x2)

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
    params: object
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
    fields = {k: carrier.harmonic_fields(pts, k, ("V", "grad", "lap")) for k in carrier.harmonics}
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
    body boundary, leaving g = rho * psi(t) * area(B) + tilde_g.
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
        params=params,
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
