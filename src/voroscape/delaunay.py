"""Delaunay mosaics in R^d via paraboloid lifting, with the face lattice and
dual Voronoi cell geometry.

The construction lifts each site x to (x, |x|^2) in R^(d+1) and keeps the
lower facets of the convex hull; their projections are exactly the
top-dimensional Delaunay cells. The lift uses the sites centered on their
centroid and scaled to unit size, so the triangulation does not depend on
where the sites sit. Faces of lower dimension are enumerated from the tops,
one dimension at a time on its first read, so incidences come for free and
a workload builds only the dimensions it reads. Each face is one int64 key
in base n (the site count), which limits d = 4 to 55,108 sites. d = 2 and 3
are the supported scales, d = 4 works but is not tuned, d >= 5 is rejected.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInputError
from .geometry import (Frame, Simplex, affine_basis, circumcenters,
                       polygon_disk_areas, simplex_volume)
from .pointproc import Window

LIFT_TOL = 1e-10        # lower-facet test on lifted hull normals
EMPTY_SPHERE_TOL = 1e-9  # relative slack in the empty-circumsphere oracle
PIVOT_TOL = 1e-7        # agreement of the two pivot-point computations

MAX_DIM = 4
MAX_KEY = 2 ** 63       # packed face keys below n**d must fit an int64


def _sort_runs(keys):
    """The stable argsort of nonnegative int64 keys, and the flags along it
    that start each run of equal keys, from numpy's default SIMD sorts.

    While key * L + position fits an int64 (L = len(keys)), one value sort
    of those composites gives the sorted keys and positions at once (divmod
    by L). Otherwise the default argsort orders the keys, which is not
    stable, and one value sort of run * L + position puts each run back in
    position order. Either way the order equals argsort(kind="stable")
    bitwise. run * L + position stays below L**2, which fits an int64 for
    every array of fewer than 3 * 10**9 keys (24 GB of keys alone).
    """
    n = len(keys)
    wide = n and (int(keys.max()) + 1) * n > MAX_KEY
    if wide:
        order = np.argsort(keys)
        s = keys[order]
    else:
        s, order = np.divmod(np.sort(keys * n + np.arange(n)), n)
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    if wide and not new.all():
        run = np.cumsum(new) - 1
        if (int(run[-1]) + 1) * n > MAX_KEY:
            raise ValueError(f"{n} keys overflow the int64 tie-break")
        offset = run * n
        order = np.sort(offset + order) - offset
    return order, new


def _row_order(rows):
    """(order, new) of _sort_runs for the lexicographic order of int rows
    with entries in [0, n): order equals np.lexsort(rows.T[::-1]) bitwise,
    and new flags the first of each run of equal rows along it.

    Columns pack into one key base n from the left while it fits an int64;
    a column that would not fit first replaces the key by its dense rank.
    """
    m, c = rows.shape
    if not m or not c:
        return np.arange(m), np.ones(m, dtype=bool)
    base = int(rows.max()) + 1
    key, span = rows[:, 0].astype(np.int64), base
    for col in rows.T[1:]:
        if span * base > MAX_KEY:
            order, new = _sort_runs(key)
            key = np.empty(m, dtype=np.int64)
            key[order] = np.cumsum(new) - 1
            span = int(key.max()) + 1
        key = key * base + col
        span *= base
    return _sort_runs(key)


def lower_hull_simplices(lifted, tol=LIFT_TOL):
    """Vertex-index rows of the lower facets of the hull of lifted points.

    Shared by the unweighted construction here and the weighted (power)
    construction in the scape module; the two differ only in the lift height.
    Rows come back sorted and deduplicated in lexicographic order.
    """
    lifted = np.asarray(lifted, dtype=float)
    n, dim1 = lifted.shape
    if n == dim1:
        # exactly one simplex; its lifted hull is flat, so skip Qhull
        if Simplex(lifted[:, :-1]).degenerate:
            raise DegenerateInputError(
                f"degenerate configuration ({n} affinely dependent points)")
        return np.arange(n, dtype=np.int32)[None, :]
    try:
        hull = ConvexHull(lifted)
    except QhullError as exc:
        raise DegenerateInputError(
            f"degenerate configuration ({n} points, cospherical or flat)") from exc
    low = hull.equations[:, dim1 - 1] < -tol
    tops = np.sort(hull.simplices[low], axis=1)
    order, new = _row_order(tops)
    return tops[order[new]]


@dataclass(frozen=True)
class DualCell:
    """Dual Voronoi cell of a Delaunay k-cell.

    vertices are circumcenters of the incident top cells; rays give the
    recession directions (outward hull-facet normals) when the owner lies on
    the boundary of the site hull and the dual is unbounded.
    """

    owner_dim: int
    owner_index: int
    vertices: np.ndarray
    rays: np.ndarray
    bounded: bool

    def direction_basis(self) -> Frame:
        """Orthonormal basis of the direction space of the dual's affine hull."""
        pts = self.vertices
        rows = [pts[1:] - pts[0]] if len(pts) > 1 else []
        if len(self.rays):
            rows.append(self.rays)
        stacked = np.vstack(rows) if rows else np.zeros((0, pts.shape[1]))
        # affine_basis treats the first row as the base point
        return affine_basis(np.vstack([np.zeros((1, pts.shape[1])), stacked]))

    @property
    def dim(self) -> int:
        return self.direction_basis().p


class _Level(NamedTuple):
    cells: np.ndarray       # (m_k, k+1) sorted site indices, lexicographic rows
    keys: np.ndarray        # packed row keys, increasing; None at k = d
    cofaces: tuple          # CSR (indptr, top indices) per cell
    top_faces: np.ndarray   # (n_tops, C(d+1, k+1)) cell index per top subset


class FaceLattice(Mapping):
    """Delaunay k-cells for k = 0..d, each dimension built on its first read.

    self[k] is an (m_k, k+1) int32 array of sorted site indices in
    lexicographic row order. A row packs into the int64 key sum_i
    row[i] * n**(k-i), which orders keys as the rows; one stable ordering
    (_sort_runs) of the keys of every (k+1)-subset of every top gives the
    cells, their cofaces and top_faces. Holds only the tops and n, no
    reference to its mosaic, so a mosaic is freed by reference counting.
    """

    def __init__(self, tops: np.ndarray, n: int):
        self.tops = tops
        self.n = n
        self.d = tops.shape[1] - 1
        n_tops = len(tops)
        self._levels = {self.d: _Level(
            tops, None, (np.arange(n_tops + 1), np.arange(n_tops)),
            np.arange(n_tops, dtype=np.int32)[:, None])}

    def __getitem__(self, k) -> np.ndarray:
        return self._level(k).cells

    def __iter__(self):
        return iter(range(self.d + 1))

    def __len__(self) -> int:
        return self.d + 1

    def __contains__(self, k) -> bool:
        return k in range(self.d + 1)

    def cofaces(self, k: int) -> tuple:
        """CSR (indptr, top indices) of the top cells containing each k-cell."""
        return self._level(k).cofaces

    def top_faces(self, k: int) -> np.ndarray:
        """top_faces(k)[t, j]: the k-cell on the j-th (k+1)-subset, in
        combinations order, of top cell t's vertices."""
        return self._level(k).top_faces

    def index(self, k: int, vertex_tuple) -> int:
        """Index of a k-cell given its sorted site indices; KeyError if absent."""
        row = tuple(int(v) for v in vertex_tuple)
        # only a strictly increasing row of site indices packs to its own key
        if (k not in self or len(row) != k + 1 or list(row) != sorted(set(row))
                or row[0] < 0 or row[-1] >= self.n):
            raise KeyError(row)
        if k == self.d:
            # a top is a coface of its facet on its first d vertices
            indptr, tops = self.cofaces(k - 1)
            f = self.index(k - 1, row[:-1])
            for t in tops[indptr[f]:indptr[f + 1]]:
                if tuple(self.tops[t].tolist()) == row:
                    return int(t)
            raise KeyError(row)
        key = 0
        for v in row:
            key = key * self.n + v
        keys = self._level(k).keys
        i = int(np.searchsorted(keys, key))
        if i == len(keys) or keys[i] != key:
            raise KeyError(row)
        return i

    def _level(self, k) -> _Level:
        if k not in self._levels:
            if k not in self:
                raise KeyError(k)
            tops, n = self.tops, self.n
            subs = np.array(list(combinations(range(self.d + 1), k + 1)))
            place = np.int64(n) ** np.arange(k, -1, -1)
            # subset j of top t sits at j * len(tops) + t
            flat = (tops[:, subs] @ place).T.ravel()
            # stable: each cell's cofaces keep their order in flat
            order, new = _sort_runs(flat)
            keys = flat[order[new]]
            inv = np.empty(len(order), dtype=np.int32)
            inv[order] = np.cumsum(new) - 1
            indptr = np.flatnonzero(np.r_[new, True])
            self._levels[k] = _Level(
                (keys[:, None] // place % n).astype(np.int32), keys,
                (indptr, (order % len(tops)).astype(np.int32)),
                inv.reshape(len(subs), len(tops)).T)
        return self._levels[k]


class SiteHull(NamedTuple):
    facets: np.ndarray      # (f, d) sorted site indices per hull facet
    normals: np.ndarray     # (f, d) outward unit normals
    offsets: np.ndarray     # (f,) normals @ (x - center) + offsets <= 0 inside
    center: np.ndarray      # (d,) centroid of the sites

    def excess(self, x) -> np.ndarray:
        """Signed distances of x (one point or a stack) beyond the facet
        planes, positive outside."""
        return (np.asarray(x, dtype=float) - self.center) @ self.normals.T + self.offsets

    def contains(self, x, tol=1e-12):
        """True where x lies inside the hull, per point for a stack."""
        return np.all(self.excess(x) <= tol, axis=-1)


def site_hull(sites) -> SiteHull:
    """Convex hull of an (n, d) site array, one Qhull call on the sites
    centered on their centroid: raw coordinates far from the origin round
    the facet planes off until the hull misses some of its own sites."""
    pts = np.asarray(sites, dtype=float)
    center = pts.mean(axis=0)
    rel = pts - center
    d = pts.shape[1]
    if d == 1:
        # Qhull takes no 1-D input; the hull of a line is its two end sites
        ends = np.array([rel.argmin(), rel.argmax()], dtype=np.int32)
        return SiteHull(ends[:, None], np.array([[-1.0], [1.0]]),
                        np.array([rel[ends[0], 0], -rel[ends[1], 0]]), center)
    hull = ConvexHull(rel)
    return SiteHull(np.sort(hull.simplices, axis=1).astype(np.int32),
                    hull.equations[:, :d], hull.equations[:, d], center)


class Mosaic:
    """Immutable Delaunay mosaic over a finite site set.

    cells is the FaceLattice: cells[k] is an (m_k, k+1) int array of sorted
    site indices in lexicographic row order, built on its first read, and
    cells.cofaces(k) maps each k-cell to the indices of the top cells
    containing it; the other vertices of a site's cofaces are the sites it
    shares a Delaunay edge with. Top circumcenters and radii, and the site
    hull (a second Qhull call, read only by contains, hull_excess and
    voronoi_dual), are computed on first read.
    """

    def __init__(self, sites, tops):
        self.sites = sites
        self.d = sites.shape[1]
        self.cells = FaceLattice(tops, len(sites))
        self._boundary_masks = {}
        self._facets = {}
        self._circumcenters = {}
        self._dual_volumes = {}

    # -- structure lookups ------------------------------------------------

    def n_cells(self, k: int) -> int:
        return len(self.cells[k])

    def cofaces_of(self, k: int, idx: int) -> np.ndarray:
        """Indices of the top cells incident to the given k-cell."""
        indptr, tops = self.cells.cofaces(k)
        return tops[indptr[idx]:indptr[idx + 1]]

    def cell_index(self, k: int, vertex_tuple) -> int:
        """Index of a k-cell given its sorted site indices; KeyError if absent."""
        return self.cells.index(k, vertex_tuple)

    def facets(self, k: int) -> np.ndarray:
        """Indices into cells[k-1] of the facets of each k-cell, column q
        without the q-th vertex; read off one top cell containing the cell."""
        if k not in self._facets:
            slot = {s: j for j, s in enumerate(combinations(range(self.d + 1), k))}
            table = np.array([[slot[s[:q] + s[q + 1:]] for q in range(k + 1)]
                              for s in combinations(range(self.d + 1), k + 1)])
            indptr, tops = self.cells.cofaces(k)
            t = tops[indptr[:-1]]
            j = np.argmax(self.cells.top_faces(k)[t] == np.arange(len(t))[:, None], axis=1)
            self._facets[k] = self.cells.top_faces(k - 1)[t[:, None], table[j]]
        return self._facets[k]

    def boundary_mask(self, k: int) -> np.ndarray:
        """True for k-cells on the convex hull of the sites: (d-1)-cells in
        one top cell, and lower cells with a hull (k+1)-coface."""
        if k not in self._boundary_masks:
            mask = np.zeros(self.n_cells(k), dtype=bool)
            if k == self.d - 1:
                mask = np.diff(self.cells.cofaces(k)[0]) == 1
            elif k < self.d:
                mask[self.facets(k + 1)[self.boundary_mask(k + 1)]] = True
            self._boundary_masks[k] = mask
        return self._boundary_masks[k]

    # -- geometry ----------------------------------------------------------

    @cached_property
    def top_circumcenters(self) -> np.ndarray:
        return circumcenters(self.sites[self.cells[self.d]])

    @cached_property
    def top_circumradii(self) -> np.ndarray:
        tops = self.cells[self.d]
        return np.linalg.norm(self.top_circumcenters - self.sites[tops[:, 0]], axis=1)

    def cell_volume(self, k: int, idx: int) -> float:
        return simplex_volume(self.sites[self.cells[k][idx]])

    def circumcenters(self, k: int) -> np.ndarray:
        """Circumcenters of the k-cells; each is its cell's pivot point."""
        if k == self.d:
            return self.top_circumcenters
        if k not in self._circumcenters:
            self._circumcenters[k] = circumcenters(self.sites[self.cells[k]])
        return self._circumcenters[k]

    def reach(self, k: int) -> np.ndarray:
        """Largest distance from a k-cell's vertices to its dual's vertices,
        inf for hull cells. The vertices lie on the circumsphere of each top
        coface, centered on a dual vertex, so this is the largest radius."""
        indptr, tops = self.cells.cofaces(k)
        return np.where(self.boundary_mask(k), np.inf,
                        np.maximum.reduceat(self.top_circumradii[tops], indptr[:-1]))

    def dual_volumes(self, k: int) -> np.ndarray:
        """(d-k)-volumes of the dual Voronoi cells of the k-cells, inf for
        the unbounded duals of hull cells.

        Cone decomposition from circumcenters (Lasserre 1983): vol(V_tau) =
        1/(d-k) sum over cofaces sigma = tau + w of h * vol(V_sigma), with
        vol = 1 at the tops. h = (cc(sigma) - cc(tau)) . n, n the unit normal
        of tau inside sigma pointing at w; the difference is parallel to n,
        so h is its length signed by the side of w. Only levels d-1 down to
        k are computed, once each. Bounded duals have no hull cofaces.
        """
        if k not in self._dual_volumes:
            if k == self.d:
                vol = np.ones(self.n_cells(k))
            else:
                up = np.where(self.boundary_mask(k + 1), 0.0, self.dual_volumes(k + 1))
                cc_up, cc = self.circumcenters(k + 1), self.circumcenters(k)
                vol = np.zeros(self.n_cells(k))
                # one pass per vertex w of the cofaces keeps the temporaries
                # at one row per coface
                for tau, w in zip(self.facets(k + 1).T, self.cells[k + 1].T):
                    delta = cc_up - cc[tau]
                    side = np.einsum("ij,ij->i", delta, self.sites[w] - cc[tau])
                    h = np.copysign(np.linalg.norm(delta, axis=1), side)
                    vol += np.bincount(tau, weights=h * up, minlength=len(vol))
                vol /= self.d - k
                vol[self.boundary_mask(k)] = np.inf
            self._dual_volumes[k] = vol
        return self._dual_volumes[k]

    # -- site hull, computed on its first read -----------------------------

    @cached_property
    def _site_hull(self) -> SiteHull:
        return site_hull(self.sites)

    @property
    def hull_facets(self) -> np.ndarray:
        """(f, d) sorted site indices of the facets of the site hull."""
        return self._site_hull.facets

    @property
    def hull_normals(self) -> np.ndarray:
        """Outward unit normals of the site hull facets."""
        return self._site_hull.normals

    def hull_excess(self, x) -> np.ndarray:
        """Signed distances of x beyond the site hull's facet planes,
        positive outside (SiteHull.excess)."""
        return self._site_hull.excess(x)

    def contains(self, x, tol=1e-12) -> bool:
        """True when x lies inside the convex hull of the sites."""
        return bool(self._site_hull.contains(x, tol))


def build_mosaic(points, d=None) -> Mosaic:
    """Delaunay mosaic of a finite point set in general position.

    Lifts to the paraboloid and takes lower hull facets as top cells; the
    site hull and every lower face dimension, with its coface incidences,
    are computed on their first read. Degenerate inputs (all on
    a sphere, affinely flat, too few points) raise DegenerateInputError;
    more than 55,108 sites in d = 4 (n**d > 2**63, beyond the packed face
    keys) raise ValueError before any hull is computed.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2d array")
    n, dim = pts.shape
    if d is not None and d != dim:
        raise ValueError(f"points have dimension {dim}, expected {d}")
    d = dim
    if d < 1 or d > MAX_DIM:
        raise ValueError(f"dimension {d} unsupported (1 <= d <= {MAX_DIM})")
    if n < d + 1:
        raise DegenerateInputError(
            f"degenerate configuration ({n} points cannot span R^{d})")
    if n ** d > MAX_KEY:
        raise ValueError(f"{n} sites in R^{d} exceed the packed face keys "
                         f"(n**d <= 2**63)")

    # lifting raw coordinates loses the lower hull to round-off once the
    # offset of the sites dwarfs their spread
    unit = pts - pts.mean(axis=0)
    unit /= np.abs(unit).max() or 1.0
    lifted = np.column_stack([unit, np.einsum("ij,ij->i", unit, unit)])
    return Mosaic(pts, lower_hull_simplices(lifted).astype(np.int32))


def voronoi_dual(m: Mosaic, k: int, idx: int) -> DualCell:
    """Dual Voronoi cell of the k-cell with the given index.

    Vertices are the circumcenters of the incident top cells. For cells on
    the hull boundary the dual is unbounded; its recession cone is spanned
    by the outward normals of the hull facets containing the cell.
    """
    tops = m.cofaces_of(k, idx)
    vertices = m.top_circumcenters[tops]
    bounded = not bool(m.boundary_mask(k)[idx])
    rays = np.zeros((0, m.d))
    if not bounded:
        # the hull facets that hold every vertex of the cell, in facet order
        held = (m.hull_facets[:, :, None] == m.cells[k][idx]).any(axis=1)
        rays = m.hull_normals[held.all(axis=1)]
    return DualCell(k, idx, vertices, rays, bounded)


def pivot_point(m: Mosaic, k: int, idx: int, dual: DualCell | None = None,
                check: bool = False):
    """Intersection point z0 of the affine hulls of a k-cell and its dual.

    Computed by projecting a dual vertex onto the affine hull of the cell.
    With check=True the same point is recomputed from the dual side and the
    two must agree within PIVOT_TOL.
    """
    cell = m.cells[k][idx]
    v0 = m.sites[cell[0]]
    if dual is None:
        dual = voronoi_dual(m, k, idx)
    c0 = dual.vertices[0]
    if k == 0:
        z0 = v0.copy()
    else:
        u = affine_basis(m.sites[cell])
        z0 = v0 + (c0 - v0) @ u.rows.T @ u.rows
    if check and dual.bounded:
        w = dual.direction_basis()
        z1 = c0 + (v0 - c0) @ w.rows.T @ w.rows if w.p else c0.copy()
        if np.linalg.norm(z0 - z1) > PIVOT_TOL:
            raise DegenerateInputError("pivot point disagreement between the two sides")
    return z0


def nearest_site(m: Mosaic, x) -> int:
    """Index of the site closest to x, ties broken by lowest index: the
    argmin of the squared distances over every site (np.argmin returns the
    first of equal minima)."""
    rel = m.sites - np.asarray(x, dtype=float)
    return int(np.argmin(np.einsum("ij,ij->i", rel, rel)))


def validate_empty_sphere(m: Mosaic) -> bool:
    """Brute-force check that no site lies strictly inside any circumsphere."""
    for t, (c, r) in enumerate(zip(m.top_circumcenters, m.top_circumradii)):
        rel = m.sites - c
        dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        inside = dist < r * (1.0 - EMPTY_SPHERE_TOL)
        if np.any(inside):
            members = set(m.cells[m.d][t].tolist())
            if set(np.nonzero(inside)[0].tolist()) - members:
                return False
    return True


def circumradius_stats(m: Mosaic):
    """(max, mean) circumradius over the top cells."""
    r = m.top_circumradii
    return float(r.max()), float(r.mean())


# -- clipped Voronoi volumes (partition code path) --------------------------

def _voronoi_polygons(m: Mosaic, sites: np.ndarray, far: float):
    """2D Voronoi cells of the given sites as CSR polygons (vertices, indptr).

    A cell's vertices are the circumcenters of its cofaces. A hull site
    adds one point at distance far along each of its two rays, which start
    at the circumcenter of the top on a hull edge and leave along that
    edge's outward normal. A site lies inside its convex cell, so one sort
    by (site, angle about the site) orders every polygon.
    """
    indptr, tops = m.cells.cofaces(0)
    count = np.diff(indptr)[sites]
    owner = np.repeat(np.arange(len(sites)), count)
    first = np.repeat(indptr[sites] - (np.cumsum(count) - count), count)
    points = m.top_circumcenters[tops[first + np.arange(len(owner))]]
    hull = np.nonzero(m.boundary_mask(1))[0]
    eptr, etops = m.cells.cofaces(1)
    top = etops[eptr[hull]]
    edge = m.cells[1][hull]
    a, b = m.sites[edge[:, 0]], m.sites[edge[:, 1]]
    third = m.sites[m.cells[2][top]].sum(axis=1) - a - b
    # (x, y) -> (y, -x), then turned away from the top's third vertex
    normal = (b - a) @ np.array([[0.0, -1.0], [1.0, 0.0]])
    inward = np.einsum("ij,ij->i", normal, third - a)
    normal *= (-np.sign(inward) / np.linalg.norm(normal, axis=1))[:, None]
    slot = np.full(len(m.sites), -1)
    slot[sites] = np.arange(len(sites))
    ray_owner = slot[edge].ravel()
    ray_end = np.repeat(m.top_circumcenters[top] + far * normal, 2, axis=0)
    owner = np.concatenate([owner, ray_owner[ray_owner >= 0]])
    points = np.concatenate([points, ray_end[ray_owner >= 0]])
    rel = points - m.sites[sites][owner]
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), owner))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(sites)))])
    return points[order], indptr


def _clipped_cell_volume(m: Mosaic, site: int, cand: np.ndarray,
                         window: Window) -> float:
    # Voronoi cell as a halfspace intersection (bisectors with the sites cand
    # it shares a Delaunay edge with, plus box faces), volume via the hull of
    # the intersection vertices
    from scipy.optimize import linprog
    from scipy.spatial import HalfspaceIntersection

    a = m.sites[site]
    b = m.sites[cand]
    normals = 2.0 * (b - a)
    offsets = np.einsum("ij,ij->i", b, b) - a @ a
    box_n = np.vstack([np.eye(m.d), -np.eye(m.d)])
    box_o = np.concatenate([window.center + window.extent,
                            -(window.center - window.extent)])
    A = np.vstack([normals, box_n])
    bb = np.concatenate([offsets, box_o])
    halfspaces = np.column_stack([A, -bb])
    interior = None
    if np.all(np.abs(a - window.center) < window.extent * (1 - 1e-9)):
        interior = a
    else:
        # Chebyshev center of the intersection; empty means no overlap
        norms = np.linalg.norm(A, axis=1)
        res = linprog(np.r_[np.zeros(m.d), -1.0],
                      A_ub=np.column_stack([A, norms]), b_ub=bb,
                      bounds=[(None, None)] * m.d + [(0, None)], method="highs")
        if not res.success or res.x[m.d] <= 1e-12:
            return 0.0
        interior = res.x[:m.d]
    try:
        inter = HalfspaceIntersection(halfspaces, interior)
        return float(ConvexHull(inter.intersections).volume)
    except QhullError:
        return 0.0


def clipped_voronoi_volumes(m: Mosaic, window: Window) -> np.ndarray:
    """Per-site volume of (Voronoi cell intersect window).

    The Voronoi cells tile space, so these volumes partition the window and
    their sum equals its volume. A bounded cell whose vertices all lie in
    the window is whole, and its volume comes from the dual-volume routine;
    only the cells that may cross the window boundary are clipped. A ball
    window in d = 2 clips them exactly and all at once: their polygons go
    as one CSR batch to polygon_disk_areas, each unbounded cell cut off by
    a point far beyond the window on each of its rays. Box windows are
    clipped in any d through halfspace intersections, one cell at a time.
    """
    if m.d != 2 and window.kind != "box":
        raise ValueError("ball windows are only clipped exactly in d = 2")
    out = np.zeros(len(m.sites))
    indptr, tops = m.cells.cofaces(0)
    top_in = window.contains(m.top_circumcenters)
    whole = np.logical_and.reduceat(top_in[tops], indptr[:-1]) & ~m.boundary_mask(0)
    out[whole] = m.dual_volumes(0)[whole]
    # a cell lies within its reach of its site, so only sites within reach
    # of the window's circumscribed ball can have a cell crossing it
    rel = m.sites - window.center
    radius = window.extent * (np.sqrt(m.d) if window.kind == "box" else 1.0)
    clip = np.nonzero((np.linalg.norm(rel, axis=1) < radius + m.reach(0)) & ~whole)[0]
    if window.kind == "ball":
        span = float(np.max(np.linalg.norm(rel, axis=1)))
        far = 4.0 * (span + window.extent + float(m.top_circumradii.max()))
        out[clip] = polygon_disk_areas(*_voronoi_polygons(m, clip, far),
                                       window.center, window.extent)
        return out
    for site in clip:
        # the other vertices of the site's star share a Delaunay edge with it
        star = np.unique(m.cells[m.d][tops[indptr[site]:indptr[site + 1]]])
        out[site] = _clipped_cell_volume(m, int(site), star[star != site], window)
    return out


def export_mosaic_json(m: Mosaic, path=None):
    """Mosaic as JSON: sites, cells grouped by dimension, top circumcenters.

    Cell rows are in lexicographic order of their sorted vertex indices,
    which is how they are stored.
    """
    doc = {
        "d": m.d,
        "sites": m.sites.tolist(),
        "cells": {str(k): m.cells[k].tolist() for k in sorted(m.cells)},
        "circumcenters": m.top_circumcenters.tolist(),
        "circumradii": m.top_circumradii.tolist(),
    }
    if path is None:
        return json.dumps(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return None
