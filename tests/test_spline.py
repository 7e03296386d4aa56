"""The numpy spline and tridiagonal solve against their scipy references."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from periflow._spline import cubic_spline, solve_tridiagonal

from oracles import tridiagonal_solve_banded

RTOL = 1e-12


def _rel_err(got, want):
    assert np.shape(got) == np.shape(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("n", [3, 129, 257, 2049])
@pytest.mark.parametrize("complex_values", [False, True])
def test_cubic_spline_matches_scipy(n, complex_values):
    rng = np.random.default_rng(n)
    x = np.linspace(-1.0, 1.0, n)
    y = rng.normal(size=(5, n))
    if complex_values:
        y = y + 1j * rng.normal(size=(5, n))
    # off-grid points, every node, and points just outside the grid
    xq = np.concatenate([rng.uniform(-1.0, 1.0, 40), x, [-1.05, 1.05]])
    for values, axis in ((y, 1), (y[2], 0)):
        mine, ref = cubic_spline(x, values, axis=axis), CubicSpline(x, values, axis=axis)
        assert _rel_err(mine(xq), ref(xq)) <= RTOL
        assert _rel_err(mine(0.3), ref(0.3)) <= RTOL
        assert _rel_err(mine.antiderivative()(xq), ref.antiderivative()(xq)) <= RTOL
        for a, b in ((-1.0, 1.0), (-0.35, 0.6)):
            assert _rel_err(mine.integrate(a, b), ref.integrate(a, b)) <= RTOL


@pytest.mark.parametrize("n", [1, 2, 5, 127])
def test_tridiagonal_solve_matches_solve_banded(n):
    rng = np.random.default_rng(n)
    sub = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    sup = rng.normal(size=n - 1)
    diag = 4.0 + rng.uniform(size=n) + 1j * rng.normal(size=n)
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))):
        want = tridiagonal_solve_banded(sub, diag, sup, rhs)
        assert _rel_err(solve_tridiagonal(sub, diag, sup, rhs), want) <= RTOL


@pytest.mark.parametrize("n", [4, 129, 2049])
def test_tridiagonal_solve_of_spline_slope_rows(n):
    # the not-a-knot rows (1, 2 | 1, 4, 1 | 2, 1) are not diagonally dominant
    one = np.ones(n - 2)
    sub, diag, sup = np.r_[one, 2.0], np.r_[1.0, 4.0 * one, 1.0], np.r_[2.0, one]
    rhs = np.random.default_rng(n).normal(size=n)
    want = tridiagonal_solve_banded(sub, diag, sup, rhs)
    assert _rel_err(solve_tridiagonal(sub, diag, sup, rhs), want) <= RTOL
