"""Generalized T-periodic Poiseuille (Womersley) flow on the cross-section.

For a prescribed T-periodic flow rate phi the unidirectional profile
chi(x2, t) e1 solves, harmonic by harmonic,

    (i*w*k) chi_k - nu * chi_k'' = P_k   on (-1, 1),   chi_k(+-1) = 0,

with the pressure-gradient amplitude P_k chosen so that the flux of chi_k
equals phi_k.  The profile shape has no self-advection (d/dx1 chi = 0), so
the harmonics decouple exactly and the map phi -> chi is linear.

The corresponding pressure factor is psi(t) with pressure field
p~ = -psi(t) x1; harmonic-wise psi_k = P_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._spline import cubic_spline, solve_tridiagonal
from .errors import ResolutionError
from .signals import PeriodicSignal, differentiate, harmonic_weights, make_signal
from .signals import sobolev_norm_T, synthesize

DEFAULT_PROFILE_NODES = 129
MIN_NODES_PER_STOKES_LAYER = 4


def _fd_solve(alpha, nu, x2):
    """Solve alpha*u - nu*u'' = 1 on the grid with homogeneous Dirichlet BCs."""
    h = x2[1] - x2[0]
    ni = len(x2) - 2
    off = np.full(ni - 1, -nu / h**2)
    u = np.zeros(len(x2), dtype=complex)
    u[1:-1] = solve_tridiagonal(off, np.full(ni, alpha + 2.0 * nu / h**2), off, np.ones(ni))
    return u


@dataclass(frozen=True)
class PoiseuilleFlow:
    flowrate: PeriodicSignal
    params: object
    x2: np.ndarray
    chi: dict  # harmonic k >= 0 -> complex profile on x2 (one-sided, see signals)
    pressure_coeffs: dict  # harmonic k -> complex P_k
    pressure_factor_signal: PeriodicSignal = field(init=False, repr=False)

    def __post_init__(self):
        psi = make_signal(self.flowrate.period, self.pressure_coeffs)
        object.__setattr__(self, "pressure_factor_signal", psi)

    @property
    def period(self):
        return self.flowrate.period

    @property
    def omega(self):
        return self.flowrate.omega

    @property
    def harmonics(self):
        return sorted(self.chi)

    def chi_second_derivative(self, k):
        """Exact chi_k'' from the harmonic ODE (no differentiation noise)."""
        nu = self.params.nu
        return (1j * self.omega * k * self.chi[k] - self.pressure_coeffs.get(k, 0.0)) / nu

    def chi_first_derivative(self, k):
        """chi_k' as the antiderivative of the exact chi_k'', with the
        constant fixed by chi_k(1) - chi_k(-1) = 0."""
        d1 = cubic_spline(self.x2, self.chi_second_derivative(k)).antiderivative()(self.x2)
        return d1 - cubic_spline(self.x2, d1).integrate(-1.0, 1.0) / 2.0

    def profile_at(self, t, x2=None):
        """Real profile chi(x2, t); x2 defaults to the solver grid."""
        vals = self.chi if x2 is None else {k: cubic_spline(self.x2, v)(x2) for k, v in self.chi.items()}
        return synthesize(vals, self.omega, t)

    def flux_at(self, t):
        fluxes = {k: cubic_spline(self.x2, v).integrate(-1.0, 1.0) for k, v in self.chi.items()}
        return synthesize(fluxes, self.omega, t)


def solve_poiseuille(flowrate, params, n_nodes=DEFAULT_PROFILE_NODES):
    """Solve the per-harmonic profile problems for the given flow rate.

    The cross-section is always (-1, 1).  Raises ResolutionError when the
    Stokes layer of the highest active harmonic spans fewer than 4 grid nodes.
    """
    x2 = np.linspace(-1.0, 1.0, int(n_nodes))
    h = x2[1] - x2[0]
    nu = params.nu
    omega = flowrate.omega

    active = [k for k, c in enumerate(flowrate.fourier_coeffs) if c != 0]
    kmax = max((k for k in active if k > 0), default=0)
    if kmax > 0:
        layer = math.sqrt(nu * flowrate.period / (2.0 * math.pi * kmax))
        if layer / h < MIN_NODES_PER_STOKES_LAYER:
            raise ResolutionError(
                f"Stokes layer {layer:.3e} of harmonic {kmax} spans "
                f"{layer / h:.1f} < {MIN_NODES_PER_STOKES_LAYER} grid nodes; "
                "increase solver.profile_nodes"
            )

    chi, pressure = {}, {}
    for k in active:
        alpha = 1j * omega * k
        unit = _fd_solve(alpha, nu, x2)
        flux_unit = complex(cubic_spline(x2, unit).integrate(-1.0, 1.0))
        if abs(flux_unit) < 1e-300:
            raise ResolutionError(f"singular flux response for harmonic {k}")
        p_k = complex(flowrate.fourier_coeffs[k]) / flux_unit
        chi[k] = p_k * unit
        pressure[k] = p_k
    if not chi:
        chi[0] = np.zeros_like(x2, dtype=complex)
        pressure[0] = 0.0 + 0.0j

    return PoiseuilleFlow(
        flowrate=flowrate, params=params, x2=x2, chi=chi, pressure_coeffs=pressure
    )


@dataclass(frozen=True)
class ChiNormRow:
    order: int  # 1, 2 or 3: row of the estimate family
    wk_w22: float  # ||chi||_{W^{m-1,2}(0,T;W^{2,2})}
    ck_w12: float  # ||chi||_{C^{m-1}((0,T);W^{1,2})}
    wk1_l2: float  # ||chi||_{W^{m,2}(0,T;L^2)}
    phi_norm: float  # ||phi||_{W^{m,2}_T}


def chi_norm_report(flow, grid_size=256):
    """Both sides of the nine profile-vs-flow-rate norm bounds: per order m,
    three norms of the profile and the flow-rate norm, each norm over the
    flow-rate norm being an empirical constant."""
    T = flow.period
    omega = flow.omega
    rows = []
    ks = flow.harmonics
    weights = T * harmonic_weights(ks)
    wk2 = (omega * np.array(ks, dtype=float)) ** 2
    dchi = {k: flow.chi_first_derivative(k) for k in ks}
    # squared spatial L2 norms of chi_k, chi_k' and chi_k'', each (K,)
    sq = np.abs([[flow.chi[k], dchi[k], flow.chi_second_derivative(k)] for k in ks]) ** 2
    l2, d1, d2 = cubic_spline(flow.x2, sq, axis=2).integrate(-1.0, 1.0).T
    times = np.arange(grid_size) * (T / grid_size)
    for m in (1, 2, 3):
        # time-Sobolev norms via Parseval over harmonics
        wfac = sum(wk2**j for j in range(m))
        wk_w22_sq = float(np.dot(weights, wfac * (l2 + d1 + d2)))
        wk1_l2_sq = float(np.dot(weights, (wfac + wk2**m) * l2))
        # sup-in-time W^{1,2} norm of the (m-1)-th time derivative of the
        # real profile, which the harmonics' cross terms make time-dependent
        u = synthesize(differentiate(flow.chi, omega, m - 1), omega, times)
        du = synthesize(differentiate(dchi, omega, m - 1), omega, times)
        w12_sq = cubic_spline(flow.x2, u**2 + du**2, axis=1).integrate(-1.0, 1.0)
        sup = float(np.max(w12_sq))
        rows.append(
            ChiNormRow(
                order=m,
                wk_w22=math.sqrt(wk_w22_sq),
                ck_w12=math.sqrt(sup),
                wk1_l2=math.sqrt(wk1_l2_sq),
                phi_norm=sobolev_norm_T(flow.flowrate, m),
            )
        )
    return rows


def flux_error(flow):
    """Max over 64 grid times of |flux(chi) - phi(t)| (construction check)."""
    times = np.arange(64) * (flow.period / 64)
    return float(np.max(np.abs(flow.flux_at(times) - flow.flowrate(times))))
