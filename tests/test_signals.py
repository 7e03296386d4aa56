"""Periodic-signal properties: periodicity, symmetry, norms, calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periflow.periodic_ode import spectral_time_derivative
from periflow.signals import (
    GRID_SIZE,
    antiderivative,
    constant_signal,
    cos_sin_coefficients,
    derivative,
    differentiate,
    l2_norm_sq,
    make_signal,
    norm_series,
    product,
    real_fields,
    sine_signal,
    sobolev_norm_T,
    synthesize,
    zero_signal,
)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
periods = st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def signals(draw, max_harmonics=8, mean_zero=False):
    T = draw(periods)
    n = draw(st.integers(1, max_harmonics))
    coeffs = {k: complex(draw(finite), draw(finite)) for k in range(1, n + 1)}
    coeffs[0] = complex(0.0 if mean_zero else draw(finite), 0.0)
    return make_signal(T, coeffs)


def _loop_synthesis(harmonics, omega, t):
    """Per-harmonic reference for one scalar time: c_0 + 2 sum Re(c_k e^{i omega k t})."""
    out = 0.0
    for k, c in harmonics.items():
        weight = 1.0 if k == 0 else 2.0
        out = out + weight * (np.asarray(c) * np.exp(1j * omega * k * t)).real
    return out


@settings(max_examples=50, deadline=None)
@given(signals(), st.floats(0.0, 100.0))
def test_periodicity(sig, t):
    a, b = sig(t), sig(t + sig.period)
    # phase roundoff grows with the number of elapsed periods
    tol = 1e-12 * (1.0 + abs(t) / sig.period) * (1.0 + sig.max_abs())
    assert abs(a - b) <= tol
    assert isinstance(a, float)
    loop = _loop_synthesis(dict(enumerate(sig.fourier_coeffs)), sig.omega, t)
    assert abs(a - loop) <= tol


@settings(max_examples=50, deadline=None)
@given(signals())
def test_grid_samples_match_evaluation(sig):
    assert np.allclose(sig.grid_samples, sig(sig.grid_times), atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(signals())
def test_parseval_matches_grid_quadrature(sig):
    dt = sig.period / GRID_SIZE
    quad = dt * float(np.sum(sig.grid_samples**2))
    assert quad == pytest.approx(l2_norm_sq(sig), rel=1e-8, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(signals(mean_zero=True))
def test_derivative_of_antiderivative_is_identity(sig):
    back = derivative(antiderivative(sig))
    assert np.allclose(back.fourier_coeffs, sig.fourier_coeffs, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(signals(), st.integers(0, 3))
def test_sobolev_norm_monotone_in_order(sig, m):
    norms = [sobolev_norm_T(sig, j) for j in range(m + 1)]
    assert all(norms[j] <= norms[j + 1] + 1e-12 for j in range(m))


def test_zero_signal():
    z = zero_signal(1.0)
    assert not np.any(z.fourier_coeffs)
    assert z(0.37) == 0.0
    assert sobolev_norm_T(z, 3) == 0.0


def test_constant_signal():
    c = constant_signal(1.0, 2.5)
    for t in (0.0, 0.3, 11.7):
        assert c(t) == pytest.approx(2.5, abs=1e-14)
    d = derivative(c)
    assert np.max(np.abs(d.fourier_coeffs)) <= 1e-14


def test_sine_construction_and_derivatives():
    T = 2.0 * math.pi
    s = make_signal(T, {1: -0.5j, -1: 0.5j})
    t = np.linspace(0.0, T, 17)
    assert np.allclose(s(t), np.sin(t), atol=1e-12)
    d1 = derivative(s, 1)
    d2 = derivative(s, 2)
    assert np.allclose(d1(t), np.cos(t), atol=1e-12)
    assert np.allclose(d2(t), -np.sin(t), atol=1e-12)


def test_sine_norms_closed_form():
    T = 3.7
    s = sine_signal(T, 1.0)
    assert sobolev_norm_T(s, 0) == pytest.approx(math.sqrt(T / 2.0), rel=1e-12)
    w = 2.0 * math.pi / T
    expected = math.sqrt(T / 2.0 * (1.0 + w**2))
    assert sobolev_norm_T(s, 1) == pytest.approx(expected, rel=1e-12)


def test_sine_w12_norm_against_quadrature():
    T = 2.0
    s = sine_signal(T, 1.0)
    t = np.linspace(0.0, T, 20001)
    w = 2.0 * math.pi / T
    quad = np.trapezoid(np.sin(w * t) ** 2 + w**2 * np.cos(w * t) ** 2, t)
    assert sobolev_norm_T(s, 1) == pytest.approx(math.sqrt(quad), rel=1e-8)


def test_make_signal_rejects_bad_input():
    with pytest.raises(ValueError):
        make_signal(0.0, {0: 1.0})
    with pytest.raises(ValueError):
        make_signal(-1.0, {0: 1.0})
    with pytest.raises(ValueError):
        make_signal(1.0, {1: complex(math.nan, 0.0)})
    with pytest.raises(ValueError):
        make_signal(1.0, {0: 1.0j})
    # opposite harmonics that are not conjugates are rejected, not averaged
    with pytest.raises(ValueError):
        make_signal(1.0, {1: 1.0 + 1.0j, -1: 1.0 + 1.0j})


def test_one_sided_input_implies_conjugate():
    s1 = make_signal(1.0, {1: 0.3 - 0.4j})
    s2 = make_signal(1.0, {1: 0.3 - 0.4j, -1: 0.3 + 0.4j})
    t = np.linspace(0.0, 1.0, 7)
    assert np.allclose(s1(t), s2(t), atol=1e-14)
    assert np.all(np.abs(np.imag(s1(t) + 0j)) == 0.0)


def test_derivative_order_limits():
    s = sine_signal(1.0)
    with pytest.raises(ValueError):
        derivative(s, 4)
    with pytest.raises(ValueError):
        sobolev_norm_T(s, 4)
    with pytest.raises(ValueError):
        antiderivative(constant_signal(1.0, 1.0))


def test_json_round_trip():
    s = make_signal(2.5, {0: 1.0, 2: 0.25 + 0.5j})
    data = s.to_json_dict()
    back = make_signal(data["T"], data["harmonics"])
    assert back.period == s.period
    assert np.allclose(back.fourier_coeffs, s.fourier_coeffs)


def test_scaling_and_addition():
    s = sine_signal(1.0, 2.0)
    assert np.allclose((s.scaled(0.5))(np.array([0.1, 0.2])), 0.5 * s(np.array([0.1, 0.2])))
    two = s + s
    assert np.allclose(two(np.array([0.3])), 2.0 * s(np.array([0.3])))
    with pytest.raises(ValueError):
        s + sine_signal(2.0)


_RNG = np.random.default_rng(3)
_MATRICES = {k: _RNG.normal(size=(3, 3)) + 1j * _RNG.normal(size=(3, 3)) for k in (0, 4, 1)}


@pytest.mark.parametrize(
    "harmonics, times",
    [
        ({0: 0.3, 1: 0.2 - 0.1j, 3: -0.5j}, np.linspace(0.0, 2.0, 9)),
        (_MATRICES, np.linspace(0.0, 2.0, 9)),
        (_MATRICES, 0.7),
        ({0: np.array([1.5, -2.0])}, np.linspace(0.0, 2.0, 5)),
        ({0: 1.5}, 0.3),
    ],
)
def test_synthesize_matches_harmonic_loop(harmonics, times):
    omega = 2.0 * math.pi / 1.7
    got = synthesize(harmonics, omega, times)
    value_shape = np.shape(next(iter(harmonics.values())))
    assert got.shape == np.shape(times) + value_shape
    want = np.array([_loop_synthesis(harmonics, omega, t) for t in np.ravel(times)])
    assert np.allclose(got, want.reshape(got.shape), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("harmonics", [{0: 0.3, 1: 0.2 - 0.1j, 3: -0.5j}, _MATRICES])
def test_real_fields_and_coefficients_resynthesize(harmonics):
    omega = 2.0 * math.pi / 1.7
    times = np.linspace(0.0, 2.0, 9)
    coeffs = cos_sin_coefficients(list(harmonics), omega, times)
    fields = real_fields(harmonics)
    assert coeffs.shape == (9, 2 * len(harmonics))
    assert fields.shape == (2 * len(harmonics),) + np.shape(harmonics[0])
    got = np.tensordot(coeffs, fields, 1)
    want = synthesize(harmonics, omega, times)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    # no harmonics: no columns
    assert cos_sin_coefficients([], omega, times).shape == (9, 0)


_SCALARS = {0: 0.4, 1: 0.2 - 0.3j, 3: -0.5j}
_FIELDS = {k: _RNG.normal(size=(5, 2)) + 1j * _RNG.normal(size=(5, 2)) for k in (0, 1, 3)}
_FIELDS[0] = _FIELDS[0].real
_GRADS = {k: _RNG.normal(size=(5, 2, 2)) + 1j * _RNG.normal(size=(5, 2, 2)) for k in (1, 3)}


def _dot(u, v):
    return (u * v).sum(axis=-1)


def _advect(v, g):
    return np.einsum("...j,...ij->...i", v, g)


@pytest.mark.parametrize(
    "a, b, op",
    [
        (_SCALARS, _SCALARS, np.multiply),
        (_SCALARS, {2: 1.0 + 0.5j}, np.multiply),
        (_FIELDS, _FIELDS, _dot),
        (_FIELDS, _GRADS, _advect),
    ],
)
def test_product_matches_time_samples(a, b, op):
    omega = 2.0 * math.pi / 1.3
    times = np.arange(32) * (1.3 / 32)
    harmonics = product(a, b, op)
    assert min(harmonics) >= 0
    assert max(harmonics) == max(a) + max(b)
    got = synthesize(harmonics, omega, times)
    want = op(synthesize(a, omega, times), synthesize(b, omega, times))
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("harmonics", [_SCALARS, _FIELDS])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_differentiate_matches_time_samples(harmonics, order):
    T = 1.3
    omega = 2.0 * math.pi / T
    times = np.arange(32) * (T / 32)
    got = synthesize(differentiate(harmonics, omega, order), omega, times)
    samples = synthesize(harmonics, omega, times)
    want = spectral_time_derivative(samples, T, order) if order else samples
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_norm_series_matches_time_samples():
    omega = 2.0 * math.pi / 1.3
    times = np.arange(16) * (1.3 / 16)
    weights = np.linspace(0.5, 1.5, 5)
    got = norm_series(_GRADS, weights, omega, times)
    field = synthesize(_GRADS, omega, times)
    want = np.sqrt(np.einsum("p,tpij->t", weights, field**2))
    assert np.allclose(got, want, rtol=1e-12)
    assert np.array_equal(norm_series({}, weights, omega, times), np.zeros(16))
