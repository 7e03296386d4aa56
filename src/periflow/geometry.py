"""Body-fixed channel geometry and quadrature meshes.

The fluid domain is the truncated 2D channel [-L, L] x (-1, 1) minus a
rectangular body held at rest in the body-fixed frame.  All assembled fields
are compactly supported in |x1| < X0 + 1, so the truncation at |x1| = L is
lossless for every integral the solver needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, MeshError

MIN_CELLS_ACROSS_BODY = 8


@dataclass(frozen=True)
class PhysicalParams:
    """Fluid density/viscosity and oscillator mass/stiffness."""

    rho: float = 1.0
    mu: float = 1.0
    mass: float = 1.0
    stiffness: float = 1.0

    def __post_init__(self):
        for name in ("rho", "mu", "mass", "stiffness"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite real, got {v!r}")

    @property
    def nu(self):
        return self.mu / self.rho

    @property
    def natural_period(self):
        return 2.0 * math.pi * math.sqrt(self.mass / self.stiffness)


@dataclass(frozen=True)
class ChannelGeometry:
    half_length: float
    body: tuple  # (bx0, bx1, by0, by1)
    X0: float = field(init=False)
    wall_margin: float = field(init=False)

    def __post_init__(self):
        bx0, bx1, by0, by1 = self.body
        diam = math.hypot(bx1 - bx0, by1 - by0)
        object.__setattr__(self, "X0", diam + 1.0)
        object.__setattr__(self, "wall_margin", min(by0 - (-1.0), 1.0 - by1))

    @property
    def body_width(self):
        return self.body[1] - self.body[0]

    @property
    def body_height(self):
        return self.body[3] - self.body[2]

    @property
    def body_area(self):
        return self.body_width * self.body_height

    @property
    def body_center(self):
        bx0, bx1, by0, by1 = self.body
        return (0.5 * (bx0 + bx1), 0.5 * (by0 + by1))

    @property
    def fluid_area(self):
        return 4.0 * self.half_length - self.body_area

    def dist_inf_to_body(self, x1, x2):
        bx0, bx1, by0, by1 = self.body
        dx = np.maximum(np.maximum(bx0 - x1, x1 - bx1), 0.0)
        dy = np.maximum(np.maximum(by0 - x2, x2 - by1), 0.0)
        return np.maximum(dx, dy)


def build_geometry(half_length, body):
    """Validate and build the channel-with-body geometry.

    `body` is (bx0, bx1, by0, by1), an axis-aligned rectangle strictly inside
    the channel and away from the walls.
    """
    bx0, bx1, by0, by1 = (float(v) for v in body)
    if not (bx0 < bx1 and by0 < by1):
        raise GeometryError(f"degenerate body rectangle {body}")
    if not (by0 > -1.0 and by1 < 1.0):
        raise GeometryError(
            f"body must stay strictly between the channel walls, got x2 in [{by0}, {by1}]"
        )
    geom = ChannelGeometry(float(half_length), (bx0, bx1, by0, by1))
    if not (bx0 > -geom.X0 + 1.0 and bx1 < geom.X0 - 1.0):
        raise GeometryError(
            f"body x1-extent [{bx0}, {bx1}] too wide for the near zone "
            f"(must sit inside ({-geom.X0 + 1.0:.3f}, {geom.X0 - 1.0:.3f}))"
        )
    if geom.half_length < geom.X0 + 2.0:
        raise GeometryError(
            f"half_length {geom.half_length} too small: need at least X0 + 2 = "
            f"{geom.X0 + 2.0:.4f} to leave room for the exit zones"
        )
    return geom


@dataclass(frozen=True)
class QuadratureMesh:
    """Midpoint rule on a uniform grid of cells with the body cut out.

    The grid cells have the centres x1 x x2 (`x1`, `x2`) and the area
    `cell_area`.  The cells that the body cuts or covers are irregular: a
    covered cell is dropped, and a cut cell keeps the fluid part of its area
    at the centroid of that part.  Every other cell has its grid centre and
    the full area.  So a sum over the cells is a sum over the tensor grid,
    which separable integrands factor into 1D sums, plus a signed
    correction on the irregular cells (`grid_correction`).
    """

    h: float
    centers: np.ndarray  # (ncells, 2), fluid-area centroids for cut cells
    weights: np.ndarray  # (ncells,)
    x1: np.ndarray  # (nx,) grid centres along x1
    x2: np.ndarray  # (ny,) grid centres along x2
    cell_area: float
    irregular: np.ndarray = field(repr=False)  # (m, 2) grid centres of the irregular cells
    cut: np.ndarray = field(repr=False)  # rows of `centers` that the body cuts

    def cells_within(self, x1_abs_max):
        return np.nonzero(np.abs(self.centers[:, 0]) < x1_abs_max)[0]

    def area(self):
        return float(self.weights.sum())

    def grid_correction(self, x1_abs_max):
        """(points (m, 2), weights (m,)): the signed point weights that turn
        `cell_area` times the sum over the grid columns |x1| < x1_abs_max
        into the sum over `cells_within(x1_abs_max)`: -`cell_area` at the
        grid centre of every irregular cell, and the fluid area at the
        centroid of every cut cell."""
        gone = self.irregular[np.abs(self.irregular[:, 0]) < x1_abs_max]
        kept = self.cut[np.abs(self.centers[self.cut, 0]) < x1_abs_max]
        points = np.concatenate([gone, self.centers[kept]])
        weights = np.concatenate([np.full(len(gone), -self.cell_area), self.weights[kept]])
        return points, weights


def coordinate_split(points):
    """((x1, at1), (x2, at2)): the sorted distinct x1 and x2 of (npts, 2)
    points, and for each point the index of its coordinate among them, so
    that x1[at1] == points[:, 0].  The cells of a tensor-grid mesh share a
    few hundred coordinates, so a separable field is evaluated per distinct
    coordinate and scattered back."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return tuple(np.unique(pts[:, j], return_inverse=True) for j in range(2))


CELL_BLOCK = 2048  # cells per block of a quadrature sum over a cell set


def cell_blocks(ncells):
    """Slices of consecutive blocks of `CELL_BLOCK` cells that cover `ncells`
    cells.  The quadrature sums over a cell set run one block at a time, so
    their temporaries hold one block of cells, never the whole set."""
    return [slice(start, start + CELL_BLOCK) for start in range(0, ncells, CELL_BLOCK)]


def cell_rows(stored, cells, x):
    """The rows of x at the mesh cells `cells`, for an array that holds one
    row per cell of the sorted cell set `stored` on axis 1: the forcing on
    its support cells `ForcingData.cell_idx`.  The rows of cells outside
    `stored` are zeros, as the forcing is there.  The rows come back as a
    C-contiguous copy (x[:, pos] would not be), which the products of
    `diagnostics.stokes_rhs_norm` read as flat rows."""
    pos = np.minimum(np.searchsorted(stored, cells), len(stored) - 1)
    rows = x.take(pos, axis=1)
    rows[:, stored[pos] != cells] = 0.0
    return rows


def build_mesh(geom, h):
    """Uniform cell-centered quadrature with body cut cells clipped exactly.

    Cells fully inside the body are dropped; partially covered cells keep the
    fluid part of their area with the centroid of that part.  The mesh
    records the grid (its centres along x1 and x2 and the cell area) and its
    irregular cells, so that `QuadratureMesh.grid_correction` can write the
    cell sum as a grid sum plus a correction.
    """
    h = float(h)
    if h <= 0:
        raise MeshError(f"cell size must be positive, got {h}")
    bx0, bx1, by0, by1 = geom.body
    if min(geom.body_width, geom.body_height) / h < MIN_CELLS_ACROSS_BODY:
        raise MeshError(
            f"h={h} too coarse: need >= {MIN_CELLS_ACROSS_BODY} cells across "
            f"each body side ({geom.body_width} x {geom.body_height})"
        )
    L = geom.half_length
    nx = int(round(2.0 * L / h))
    ny = int(round(2.0 / h))
    xe = np.linspace(-L, L, nx + 1)
    ye = np.linspace(-1.0, 1.0, ny + 1)
    hx = xe[1] - xe[0]
    hy = ye[1] - ye[0]

    X0e, X1e = np.meshgrid(xe[:-1], ye[:-1], indexing="ij")
    X0e = X0e.ravel()
    Y0e = X1e.ravel()
    X1c = X0e + hx
    Y1c = Y0e + hy

    # overlap of each cell with the body rectangle
    ox = np.clip(np.minimum(X1c, bx1) - np.maximum(X0e, bx0), 0.0, None)
    oy = np.clip(np.minimum(Y1c, by1) - np.maximum(Y0e, by0), 0.0, None)
    a_int = ox * oy
    a_cell = hx * hy
    a_fluid = a_cell - a_int
    keep = a_fluid > 1e-14 * a_cell

    cx_cell = X0e + 0.5 * hx
    cy_cell = Y0e + 0.5 * hy
    # centroid of the body-overlap rectangle
    icx = 0.5 * (np.maximum(X0e, bx0) + np.minimum(X1c, bx1))
    icy = 0.5 * (np.maximum(Y0e, by0) + np.minimum(Y1c, by1))
    with np.errstate(invalid="ignore", divide="ignore"):
        cx = np.where(a_int > 0, (a_cell * cx_cell - a_int * icx) / np.maximum(a_fluid, 1e-300), cx_cell)
        cy = np.where(a_int > 0, (a_cell * cy_cell - a_int * icy) / np.maximum(a_fluid, 1e-300), cy_cell)

    centers = np.column_stack([cx[keep], cy[keep]])
    weights = a_fluid[keep]
    # a_int tells the irregular cells apart exactly: it is 0 for the others
    irregular = a_int > 0

    mesh = QuadratureMesh(
        h=h,
        centers=centers,
        weights=weights,
        x1=xe[:-1] + 0.5 * hx,
        x2=ye[:-1] + 0.5 * hy,
        cell_area=a_cell,
        irregular=np.column_stack([cx_cell[irregular], cy_cell[irregular]]),
        cut=np.nonzero(irregular[keep])[0],
    )
    area_err = abs(mesh.area() - geom.fluid_area) / geom.fluid_area
    if area_err > 1e-10:
        raise MeshError(f"mesh area inconsistent with geometry (relative error {area_err:.2e})")
    return mesh
