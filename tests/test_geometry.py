"""Channel geometry, physical parameters, and quadrature meshes."""

import math

import numpy as np
import pytest

from periflow.errors import GeometryError, MeshError
from periflow.geometry import (
    PhysicalParams,
    build_geometry,
    build_mesh,
)


def test_x0_is_body_diameter_plus_one():
    geom = build_geometry(6.0, (-0.5, 0.5, -0.5, 0.5))
    assert geom.X0 == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-14)


def test_half_length_too_small_rejected():
    with pytest.raises(GeometryError):
        build_geometry(3.0, (-0.5, 0.5, -0.5, 0.5))


def test_body_touching_walls_rejected():
    with pytest.raises(GeometryError):
        build_geometry(6.0, (-0.5, 0.5, -1.0, 0.5))
    with pytest.raises(GeometryError):
        build_geometry(6.0, (-0.5, 0.5, -0.5, 1.2))


def test_degenerate_body_rejected():
    with pytest.raises(GeometryError):
        build_geometry(6.0, (0.5, -0.5, -0.3, 0.3))


def test_wide_margin_body_accepted():
    geom = build_geometry(6.0, (-0.5, 0.5, -0.9, 0.9))
    assert geom.wall_margin == pytest.approx(0.1, rel=1e-12)


def test_body_derived_quantities(geom):
    assert geom.body_width == pytest.approx(1.0)
    assert geom.body_height == pytest.approx(0.6)
    assert geom.body_area == pytest.approx(0.6)
    assert geom.fluid_area == pytest.approx(4.0 * 6.0 - 0.6)


def test_params_positive_and_natural_period():
    p = PhysicalParams(rho=2.0, mu=0.5, mass=4.0, stiffness=1.0)
    assert p.nu == pytest.approx(0.25)
    assert p.natural_period == pytest.approx(4.0 * math.pi)
    for bad in (
        {"rho": 0.0},
        {"mu": -1.0},
        {"mass": math.inf},
        {"stiffness": math.nan},
    ):
        with pytest.raises(ValueError):
            PhysicalParams(**bad)


def test_mesh_area_matches_geometry(geom, mesh):
    assert mesh.area() == pytest.approx(geom.fluid_area, rel=1e-10)


def test_mesh_refinement_keeps_area_exact(geom):
    for h in (1.0 / 16.0, 1.0 / 32.0):
        m = build_mesh(geom, h)
        assert m.area() == pytest.approx(geom.fluid_area, rel=1e-10)


def test_mesh_too_coarse_rejected(geom):
    with pytest.raises(MeshError):
        build_mesh(geom, 0.25)
    with pytest.raises(MeshError):
        build_mesh(geom, -0.1)


def test_cells_stay_out_of_the_body(geom, mesh):
    bx0, bx1, by0, by1 = geom.body
    x1, x2 = mesh.centers.T
    inside = (x1 >= bx0) & (x1 <= bx1) & (x2 >= by0) & (x2 <= by1)
    # cut-cell centroids lie in the fluid part, never inside the body
    assert not np.any(inside & (mesh.weights > 0))


def test_cells_within_selects_by_abscissa(mesh):
    idx = mesh.cells_within(2.0)
    assert np.all(np.abs(mesh.centers[idx, 0]) < 2.0)
    rest = np.setdiff1d(np.arange(len(mesh.weights)), idx)
    assert np.all(np.abs(mesh.centers[rest, 0]) >= 2.0)
