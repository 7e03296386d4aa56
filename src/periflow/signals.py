"""T-periodic scalar signals as truncated Fourier series.

A real signal is stored one-sided: complex amplitudes c_k for k = 0..N with
the convention c_{-k} = conj(c_k), so

    s(t) = c_0 + 2 * sum_{k>=1} Re(c_k * exp(2*pi*i*k*t/T)).

The convention lives in this module only: `synthesize` evaluates such a
series, `cos_sin_coefficients` and `real_fields` split it into time
coefficients and real fields, `differentiate` takes its time derivative
harmonic by harmonic, and `product` forms the series of a bilinear product
of two of them (the only place a negative harmonic is ever formed).
Values c_k may be arrays, so the same helpers serve harmonic fields.
Signals are immutable; all operations return new instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID_SIZE = 256  # samples behind PeriodicSignal.max_abs
MAX_DERIVATIVE_ORDER = 3


def harmonic_weights(ks):
    """Weights of the one-sided convention: 1 for k = 0, 2 for k >= 1.

    They count the harmonic -k that c_{-k} = conj(c_k) leaves implicit, both
    in the synthesis of a real series and in Parseval sums over |c_k|^2.
    """
    return np.where(np.asarray(ks) == 0, 1.0, 2.0)


def synthesize(harmonics, omega, times):
    """Real series c_0 + 2 sum_{k>=1} Re(c_k exp(i omega k t)) at `times`.

    `harmonics` is a non-empty mapping from k >= 0 to a complex value c_k;
    all values share one shape.  `times` is a scalar or an array.  Returns a
    real array of shape times.shape + value.shape.
    """
    ks = np.fromiter(harmonics, dtype=float, count=len(harmonics))
    values = np.stack([np.asarray(v, dtype=complex) for v in harmonics.values()])
    phases = harmonic_weights(ks) * np.exp(1j * omega * np.multiply.outer(times, ks))
    return np.tensordot(phases, values, axes=1).real


def cos_sin_coefficients(ks, omega, times):
    """Time coefficients of the series in its real fields: (len(times),
    2 len(ks)), the K columns w_k cos(k omega t) then the K columns
    -w_k sin(k omega t), w the `harmonic_weights`, so that

        synthesize(h, omega, times) == tensordot(
            cos_sin_coefficients(list(h), omega, times), real_fields(h), 1).
    """
    ks = np.asarray(ks, dtype=float)
    phases = omega * np.multiply.outer(times, ks)
    weights = harmonic_weights(ks)
    return np.concatenate([weights * np.cos(phases), -weights * np.sin(phases)], axis=-1)


def real_fields(harmonics):
    """(2K,) + value.shape real array: Re c_k of every harmonic, then Im c_k,
    in the order of `harmonics`, the fields that `cos_sin_coefficients`
    weights."""
    values = np.stack([np.asarray(v, dtype=complex) for v in harmonics.values()])
    return np.concatenate([values.real, values.imag])


def differentiate(harmonics, omega, order=1):
    """Harmonics {k: (i omega k)^order c_k} of the order-th time derivative."""
    return {k: (1j * omega * k) ** order * c for k, c in harmonics.items()}


def product(a, b, op):
    """One-sided harmonics of op(a(t), b(t)) for real series a, b.

    `op` is bilinear.  Harmonic K >= 0 is the sum of op(a_k1, b_k2) over
    k1 + k2 = K with a_{-k} = conj(a_k) and b_{-k} = conj(b_k).
    """

    def with_negative(h):
        return {**h, **{-k: np.conj(c) for k, c in h.items() if k > 0}}

    a2, b2 = with_negative(a), with_negative(b)
    out = {}
    for k1 in sorted(a2):
        for k2 in sorted(b2):
            K = k1 + k2
            if K >= 0:
                term = op(a2[k1], b2[k2])
                out[K] = out[K] + term if K in out else term
    return out


def norm_series(harmonics, weights, omega, times):
    """sqrt(sum_p weights_p |u(t, p)|^2) at `times` for a real harmonic field
    u with values of shape (npts, ...); zeros when `harmonics` is empty."""
    if not harmonics:
        return np.zeros(np.shape(times))
    flat = {k: u.reshape(len(weights), -1) for k, u in harmonics.items()}
    sq = product(flat, flat, lambda u, v: np.einsum("p,pi,pi->", weights, u, v))
    return np.sqrt(np.maximum(synthesize(sq, omega, times), 0.0))


@dataclass(frozen=True)
class PeriodicSignal:
    period: float
    fourier_coeffs: np.ndarray  # complex, index k = 0..N (one-sided)

    def __post_init__(self):
        coeffs = np.asarray(self.fourier_coeffs, dtype=complex)
        object.__setattr__(self, "fourier_coeffs", coeffs)

    @property
    def omega(self):
        return 2.0 * math.pi / self.period

    @property
    def grid_times(self):
        return np.arange(GRID_SIZE) * (self.period / GRID_SIZE)

    @property
    def grid_samples(self):
        return self(self.grid_times)

    def __call__(self, t):
        val = synthesize(dict(enumerate(self.fourier_coeffs)), self.omega, t)
        return val if val.shape else float(val)

    def __add__(self, other):
        if not isinstance(other, PeriodicSignal):
            return NotImplemented
        if not math.isclose(self.period, other.period, rel_tol=1e-12):
            raise ValueError("cannot add signals with different periods")
        n = max(len(self.fourier_coeffs), len(other.fourier_coeffs))
        c = np.zeros(n, dtype=complex)
        c[: len(self.fourier_coeffs)] += self.fourier_coeffs
        c[: len(other.fourier_coeffs)] += other.fourier_coeffs
        return PeriodicSignal(self.period, c)

    def scaled(self, factor):
        return PeriodicSignal(self.period, float(factor) * self.fourier_coeffs)

    def max_abs(self):
        return float(np.max(np.abs(self.grid_samples)))

    def to_json_dict(self):
        return {
            "T": self.period,
            "harmonics": [
                [int(k), float(c.real), float(c.imag)]
                for k, c in enumerate(self.fourier_coeffs)
                if c != 0 or k == 0
            ],
        }


def make_signal(period, coeffs):
    """Build a real T-periodic signal from harmonic amplitudes.

    `coeffs` maps harmonic index k (possibly negative) to a complex amplitude,
    or is a sequence of (k, re, im) / (k, complex) entries.  When both k and
    -k are supplied they must be complex conjugates; supplying only one side
    implies the conjugate.  A non-real c_0 is rejected.
    """
    if not (isinstance(period, (int, float)) and math.isfinite(period) and period > 0):
        raise ValueError(f"period must be a positive finite real, got {period!r}")
    entries = {}
    items = coeffs.items() if isinstance(coeffs, dict) else None
    if items is None:
        items = []
        for row in coeffs:
            row = list(row)
            if len(row) == 2:
                items.append((int(row[0]), complex(row[1])))
            elif len(row) == 3:
                items.append((int(row[0]), complex(float(row[1]), float(row[2]))))
            else:
                raise ValueError(f"cannot parse harmonic entry {row!r}")
    for k, c in items:
        c = complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"non-finite coefficient for harmonic {k}")
        if k in entries:
            raise ValueError(f"duplicate harmonic {k}")
        entries[int(k)] = c

    if 0 in entries and abs(entries[0].imag) > 1e-14 * (1.0 + abs(entries[0])):
        raise ValueError("harmonic 0 of a real signal must be real")
    for k in list(entries):
        if k < 0:
            if -k in entries:
                mismatch = abs(entries[-k] - entries[k].conjugate())
                if mismatch > 1e-12 * (1.0 + abs(entries[-k])):
                    raise ValueError(
                        f"harmonics {k} and {-k} are not complex conjugates "
                        f"(mismatch {mismatch:.2e}); refusing to symmetrize"
                    )
            else:
                entries[-k] = entries[k].conjugate()
            del entries[k]

    n = max(entries) if entries else 0
    one_sided = np.zeros(n + 1, dtype=complex)
    for k, c in entries.items():
        one_sided[k] = c
    one_sided[0] = one_sided[0].real
    return PeriodicSignal(float(period), one_sided)


def zero_signal(period):
    return make_signal(period, {0: 0.0})


def sine_signal(period, amplitude=1.0, harmonic=1):
    """amplitude * sin(2*pi*harmonic*t/T)."""
    return make_signal(period, {harmonic: -0.5j * amplitude})


def constant_signal(period, value):
    return make_signal(period, {0: value})


def derivative(signal, order=1):
    """Harmonic-wise time derivative, order <= 3."""
    order = int(order)
    if order < 0 or order > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be in 0..{MAX_DERIVATIVE_ORDER}")
    c = differentiate(dict(enumerate(signal.fourier_coeffs)), signal.omega, order)
    return PeriodicSignal(signal.period, list(c.values()))


def antiderivative(signal):
    """Periodic antiderivative of a mean-zero signal (zero mean itself)."""
    if abs(signal.fourier_coeffs[0]) > 1e-13 * (1.0 + np.abs(signal.fourier_coeffs).max()):
        raise ValueError("antiderivative requires a mean-zero signal")
    c = signal.fourier_coeffs.copy()
    k = np.arange(1, len(c))
    c[1:] = c[1:] / (1j * signal.omega * k)
    c[0] = 0.0
    return PeriodicSignal(signal.period, c)


def l2_norm_sq(signal, deriv_order=0):
    """Squared L^2(0,T) norm of the deriv_order-th derivative (Parseval)."""
    k = np.arange(len(signal.fourier_coeffs))
    amp2 = np.abs(signal.fourier_coeffs) ** 2 * (signal.omega * k) ** (2 * deriv_order)
    return signal.period * float(np.dot(harmonic_weights(k), amp2))


def sobolev_norm_T(signal, m):
    """W^{m,2}_T norm: (sum_{j<=m} ||d^j s/dt^j||^2_{L^2(0,T)})^{1/2}."""
    m = int(m)
    if m < 0 or m > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"Sobolev order must be in 0..{MAX_DERIVATIVE_ORDER}")
    return math.sqrt(sum(l2_norm_sq(signal, j) for j in range(m + 1)))
