"""Mixed volumes of dual cell pairs and the ball-sum identity.

For a Delaunay p-cell and its dual Voronoi (d-p)-cell the mixed volume is
the product of their intrinsic volumes; summed over the p-cells contained in
a ball of radius R it approaches nu_d C(d,p) R^d, with the discrepancy
carried by cells whose pivot ball reaches the boundary. One vectorized sum
serves every (d, p): dual volumes come from Mosaic.dual_volumes and the
pivot is the circumcenter of the p-cell. A hull cell's dual is unbounded,
so its mixed volume and reach are infinite and it counts as a boundary
pair. The p = 0 and p = d cases degenerate to the Voronoi and Delaunay
partitions of the ball, which are exposed separately as exact clipped sums,
each one batched polygon-disk area over the cells crossing the circle.

A sum reads only the cells near the ball, so ball_sum, which a trial calls
with its sampled sites, triangulates only the sites within a pad of the
ball and certifies that every top the sum reads is a top of the whole
sample's mosaic; the sum is then bitwise the one on the whole mosaic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .delaunay import (EMPTY_SPHERE_TOL, DualCell, Mosaic, build_mosaic,
                       clipped_voronoi_volumes, voronoi_dual)
from .errors import DegenerateInputError, UnboundedCellError
from .geometry import polygon_disk_areas, simplex_volumes
from .pointproc import Window, unit_ball_volume, window_volume

PAD_SPACINGS = 6.0   # first pad of a local mosaic, in mean site spacings


@dataclass(frozen=True)
class MixedCell:
    """A dual pair with its mixed volume, pivot point, and reach radius.

    boundary is True when the ball of radius R0 around the pivot z0 is not
    contained in the open window ball, which is exactly when the pair's tile
    can leak measure across the window boundary. The unbounded dual of a
    hull cell makes mixed_volume and R0 infinite, so such a pair is always
    a boundary pair.
    """

    owner_dim: int
    owner_index: int
    dual: DualCell
    mixed_volume: float
    z0: np.ndarray
    R0: float
    boundary: bool


@dataclass(frozen=True)
class MixedSumReport:
    d: int
    p: int
    R: float
    sum_interior: float
    sum_boundary: float
    predicted: float
    ratio: float
    n_cells: int
    n_boundary: int
    seed: int | None = None

    def to_json(self) -> str:
        return json.dumps({
            "d": self.d, "p": self.p, "R": self.R,
            "sum_interior": self.sum_interior, "sum_boundary": self.sum_boundary,
            "predicted": self.predicted, "ratio": self.ratio,
            "n_cells": self.n_cells, "n_boundary": self.n_boundary,
            "seed": self.seed,
        })


def tile_measure(c: MixedCell, d: int, p: int) -> float:
    """Measure of the tile of a dual pair: mixed volume over C(d, p)."""
    if not c.dual.bounded:
        raise UnboundedCellError("infinite tile")
    return c.mixed_volume / comb(d, p)


def _pairs(m: Mosaic, p: int, idx: np.ndarray):
    """Mixed volumes, pivots z0 and reach radii R0 of the p-cells idx; the
    mixed volume and R0 of a hull cell are inf."""
    mixed = simplex_volumes(m.sites[m.cells[p][idx]]) * m.dual_volumes(p)[idx]
    return mixed, m.circumcenters(p)[idx], m.reach(p)[idx]


def _contained(m: Mosaic, p: int, R: float, center) -> np.ndarray:
    """Mask over the p-cells with every vertex in the closed ball."""
    dist = np.linalg.norm(m.sites - center, axis=1)
    return np.all(dist[m.cells[p]] <= R, axis=1)


def _reaching(m: Mosaic, R: float, center) -> np.ndarray:
    """Mask over the tops whose circumdisk meets the open ball. A top lies
    in its closed circumdisk, so any other top has no volume in the ball."""
    return (np.linalg.norm(m.top_circumcenters - center, axis=1)
            < R + m.top_circumradii)


def mixed_cell(m: Mosaic, p: int, idx: int, R: float, center=None) -> MixedCell:
    """MixedCell of one p-cell against the window ball B(center, R)."""
    center = np.zeros(m.d) if center is None else np.asarray(center, dtype=float)
    mixed, z0, R0 = _pairs(m, p, np.array([idx]))
    boundary = bool(np.linalg.norm(z0[0] - center) + R0[0] >= R)
    return MixedCell(p, idx, voronoi_dual(m, p, idx), float(mixed[0]), z0[0],
                     float(R0[0]), boundary)


def mixed_volume_sum(m: Mosaic, p: int, R: float, center=None,
                     seed: int | None = None) -> MixedSumReport:
    """Sum of mixed volumes over p-cells contained in the ball B(center, R).

    A cell is contained when all its vertices are; pairs whose pivot ball
    ball(z0, R0) is not inside the open window go to sum_boundary, the rest
    to sum_interior. A hull cell in the ball has an unbounded dual, so
    sum_boundary is inf exactly when one lies there. The prediction
    nu_d C(d,p) R^d is exact only in the R -> infinity limit, so the
    interior ratio approaches 1 from below as the intensity grows.
    """
    center = np.zeros(m.d) if center is None else np.asarray(center, dtype=float)
    return _mixed_volume_sum(m, p, R, center, seed)[0]


def _mixed_volume_sum(m: Mosaic, p: int, R: float, center, seed=None):
    # the report, and the mask over the p-cells it sums
    d = m.d
    predicted = unit_ball_volume(d) * comb(d, p) * R ** d
    summed = _contained(m, p, R, center)
    idx = np.nonzero(summed)[0]
    mixed, z0, R0 = _pairs(m, p, idx)
    bnd = np.linalg.norm(z0 - center, axis=1) + R0 >= R
    si, sb = float(mixed[~bnd].sum()), float(mixed[bnd].sum())
    return MixedSumReport(d, p, R, si, sb, predicted, si / predicted, len(idx),
                          int(bnd.sum()), seed), summed


def partition_sum(m: Mosaic, p: int, R: float, center=None,
                  seed: int | None = None) -> MixedSumReport:
    """Exact clipped partition sums for the degenerate ends p = 0 and p = d.

    p = 0: Voronoi cells clipped to B(R) tile the ball, so the sum of their
    clipped volumes is nu_d R^d exactly. p = d: the Delaunay cells clipped
    to B(R) do the same. Cells inside the ball count whole; the cells that
    may cross the circle go as one CSR batch to polygon_disk_areas, making
    the ratio a correctness check on that geometry rather than a
    statistical estimate; d = 2 only, where the clipping is exact.

    Only positive pieces are summed, so the total depends only on the cells
    that meet the open ball, not on how many empty ones the mosaic holds:
    on a local mosaic certified by ball_sum it is bitwise the total on the
    whole mosaic.
    """
    center = np.zeros(m.d) if center is None else np.asarray(center, dtype=float)
    return _partition_sum(m, p, R, center, seed)[0]


def _partition_sum(m: Mosaic, p: int, R: float, center, seed=None):
    # the report, and the mask over the p-cells whose stars it reads: for
    # p = 0 the sites with a positive clipped volume, for p = d the tops
    # whose circumdisk meets the open ball
    d = m.d
    if p not in (0, d):
        raise ValueError("partition sums are defined for p = 0 and p = d")
    if d != 2:
        raise ValueError("exact ball clipping is implemented for d = 2")
    predicted = unit_ball_volume(d) * comb(d, p) * R ** d
    if p == 0:
        vols = clipped_voronoi_volumes(m, Window("ball", center, R))
        summed = vols > 0.0
        total = float(vols[summed].sum())
        n = int(np.sum(summed))
    else:
        verts = m.sites[m.cells[d]]
        full = _contained(m, d, R, center)
        summed = _reaching(m, R, center)
        whole = simplex_volumes(verts[full])
        tri = verts[summed & ~full].reshape(-1, 2)
        cut = polygon_disk_areas(tri, np.arange(0, len(tri) + 1, 3), center, R)
        total = float(whole.sum() + cut[cut > 0.0].sum())
        n = len(whole) + int(np.sum(cut > 0.0))
    return MixedSumReport(d, p, R, total, 0.0, predicted, total / predicted, n, 0,
                          seed), summed


def _read_tops(m: Mosaic, p: int, R: float, center, summed) -> np.ndarray | None:
    """Mask over the tops whose circumcenters and radii the ball sum of
    p-cells over B(center, R) reads: the stars of the summed p-cells, as
    masked by the sum itself. None when the site hull of m cuts the sum: a
    summed cell on the hull, or for p = d a ball that is not inside the
    hull."""
    if p < m.d:
        cut = np.any(m.boundary_mask(p)[summed])
    else:
        cut = np.any(m.hull_excess(center) > -R * (1.0 + EMPTY_SPHERE_TOL))
    if cut:
        return None
    indptr, tops = m.cells.cofaces(p)
    read = np.zeros(m.n_cells(m.d), dtype=bool)
    read[tops[np.repeat(summed, np.diff(indptr))]] = True
    return read


def ball_sum(points, p: int, R: float, window: Window) -> MixedSumReport:
    """The ball sum of a sample over B(window.center, R): partition_sum for
    p = 0 and p = d, mixed_volume_sum otherwise, on a local mosaic.

    Only the sites strictly inside B(center, R + pad) are triangulated,
    pad starting at PAD_SPACINGS mean spacings (window volume / n)^(1/d).
    The local sum is returned when it is certified: every top it reads has
    its circumdisk strictly inside that ball (relative slack
    EMPTY_SPHERE_TOL) and the local site hull cuts none of it. Such a top
    holds no site of the sample, so it is a top of the whole mosaic with
    the same star; the kept sites keep their increasing order, so rows,
    their lexicographic order and every per-cell float match the whole
    mosaic's, and the sum is bitwise equal to the sum on the whole mosaic.
    Otherwise pad doubles; once the ball holds every site, the whole sample
    is triangulated with no certificate.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    center = window.center
    sum_of = _partition_sum if p in (0, d) else _mixed_volume_sum
    dist = np.linalg.norm(pts - center, axis=1)
    pad = PAD_SPACINGS * (window_volume(window) / max(n, 1)) ** (1.0 / d)
    while True:
        keep = np.nonzero(dist < R + pad)[0]
        if len(keep) == n:
            return sum_of(build_mosaic(pts), p, R, center)[0]
        try:
            m = build_mosaic(pts[keep])
        except DegenerateInputError:
            m = None   # too few or flat sites certify nothing
        if m is not None:
            rep, summed = sum_of(m, p, R, center)
            read = _read_tops(m, p, R, center, summed)
            if read is not None and np.all(
                    np.linalg.norm(m.top_circumcenters[read] - center, axis=1)
                    + m.top_circumradii[read] < (R + pad) * (1.0 - EMPTY_SPHERE_TOL)):
                return rep
        pad *= 2.0


@dataclass(frozen=True)
class RegularityReport:
    """Desk-scale surrogates for the regularity conditions.

    max_circumradius bounds empty balls touching cell vertices, the largest
    empty ball is estimated by the farthest-out Voronoi vertex radius inside
    the window, and boundary_tile_share tracks how much tile measure sits on
    the window boundary relative to R^d, per cell dimension.
    """

    max_circumradius: float
    mean_circumradius: float
    empty_ball_radius: float
    boundary_tile_share: dict = field(default_factory=dict)
    unbounded_present: bool = False

    @property
    def regular(self) -> bool:
        return not self.unbounded_present


def regularity_report(m: Mosaic, R: float, center=None) -> RegularityReport:
    d = m.d
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    rmax, rmean = float(m.top_circumradii.max()), float(m.top_circumradii.mean())
    cc_in = np.linalg.norm(m.top_circumcenters - center, axis=1) <= R
    empty_ball = float(m.top_circumradii[cc_in].max()) if np.any(cc_in) else 0.0
    shares = {p: mixed_volume_sum(m, p, R, center).sum_boundary / comb(d, p) / R ** d
              for p in range(d + 1)}
    # a hull cell inside the ball has its vertices there, and hull vertices
    # have unbounded duals themselves
    inside = np.linalg.norm(m.sites - center, axis=1) <= R
    unbounded = bool(np.any(m.boundary_mask(0) & inside))
    return RegularityReport(rmax, rmean, empty_ball, shares, unbounded)
