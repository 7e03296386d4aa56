"""The 1D factors: each jet row is the derivative of the row below."""

import numpy as np
import pytest

from periflow._bumps import Affine, Cosine, EdgeBump, Product, WindowBump

FD_H = 1e-6

FACTORS = {
    "edge": EdgeBump(-0.5, 0.5, 0.2, 0.9),
    "window": WindowBump(-1.0, 0.6),
    "affine": Affine(0.3),
    "cosine": Cosine(2, -1.0, 0.6),
    "product": Product(WindowBump(-1.0, 0.6), Cosine(3, -1.0, 0.6)),
}


def _points(factor):
    """Points on the plateau, on the ramps and outside the support, at least
    1e-3 from every knot."""
    x = np.linspace(-2.5, 2.5, 501)
    knots = np.array(factor.knots)
    if knots.size:
        x = x[np.min(np.abs(x[:, None] - knots[None, :]), axis=1) > 1e-3]
    return x


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_jet_rows_are_derivatives(name):
    factor = FACTORS[name]
    x = _points(factor)
    jet = factor.jet(x, 3)
    assert jet.shape == (4,) + x.shape
    up, down = factor.jet(x + FD_H, 3), factor.jet(x - FD_H, 3)
    for o in range(1, 4):
        fd = (up[o - 1] - down[o - 1]) / (2.0 * FD_H)
        assert np.max(np.abs(fd - jet[o])) <= 1e-6 * (1.0 + np.max(np.abs(jet[o]))), o


@pytest.mark.parametrize("name", ["edge", "window", "product"])
def test_points_cover_ramps_and_outside(name):
    factor = FACTORS[name]
    x = _points(factor)
    values = factor.jet(x, 0)[0]
    lo, hi = factor.support
    outside = (x < lo) | (x > hi)
    assert np.any(x < lo) and np.any(x > hi) and np.all(values[outside] == 0.0)
    assert np.any((values != 0.0) & (np.abs(values) < 0.5))


def test_edge_bump_plateau_is_flat():
    bump = FACTORS["edge"]
    x = _points(bump)
    plateau = (x > bump.lo - bump.r_in) & (x < bump.hi + bump.r_in)
    jet = bump.jet(x[plateau], 3)
    assert np.all(jet[0] == 1.0) and np.all(jet[1:] == 0.0)


def test_product_value_is_the_product_of_its_factors():
    window, cosine = WindowBump(-1.0, 0.6), Cosine(3, -1.0, 0.6)
    x = np.linspace(-2.0, 2.0, 97)
    got = Product(window, cosine).jet(x, 2)[0]
    assert np.array_equal(got, window.jet(x, 0)[0] * cosine.jet(x, 0)[0])
