"""Voronoi paths of polylines and Voronoi scapes of flat patches, read from
the sites alone.

The Voronoi tessellation restricted to a p-flat is the power diagram of the
projected sites with weights equal to minus the squared projection offsets
(Aurenhammer 1987), so a patch's scape is read off the weighted Delaunay
triangulation built by the same lifting machinery as build_mosaic, with no
ambient mosaic. A nearest-site witness at every power-diagram vertex checks
that its p + 1 sites span a Delaunay p-cell. A path is the p = 1 case: each
segment of a polyline is a 1-flat patch, and the edges of all segments are
counted together. The cells arrive as sorted index rows, and a scape
measures all of them with one batched simplex_volumes call.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .delaunay import lower_hull_simplices, site_hull
from .errors import ConsistencyError, CoverageError, DegenerateInputError
from .geometry import Frame, simplex_volumes, span_solve
from .pointproc import unit_ball_volume

CROSS_TOL = 1e-10       # power vertex to segment end, relative to its length
PERTURB_EPS = 1e-9      # deterministic probe displacement on degenerate hits
WEIGHT_JITTER = 1e-12   # weight perturbation when the power diagram degenerates
MAX_REWALKS = 8
TIE_TOL = 1e-9          # relative distance gap below which witness sites tie


@dataclass(frozen=True)
class Probe:
    """A probe shape: a polyline, or a bounded convex patch of a p-flat.

    For flat patches the region lives in flat coordinates centered on the
    base point: a box with half extents `extent` (scalar or per-axis) or a
    ball of radius `extent`.
    """

    kind: str
    vertices: np.ndarray | None = None        # polyline vertices, (k+1, d)
    frame: Frame | None = None                # flat directions, (p, d)
    base: np.ndarray | None = None
    region: str = "box"                       # box | ball
    extent: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.kind == "polyline":
            v = np.asarray(self.vertices, dtype=float)
            if v.ndim != 2 or len(v) < 2:
                raise ValueError("polyline needs at least two vertices")
            seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
            if np.any(seg <= 0.0):
                raise ValueError("polyline segments must have positive length")
            object.__setattr__(self, "vertices", v)
        elif self.kind == "flat_patch":
            if self.frame is None or self.base is None:
                raise ValueError("flat patch needs a frame and a base point")
            if self.region not in ("box", "ball"):
                raise ValueError(f"unknown region {self.region!r}")
            base = np.asarray(self.base, dtype=float)
            extent = np.asarray(self.extent, dtype=float)
            if self.region == "box" and extent.ndim == 0:
                extent = np.full(self.frame.p, float(extent))
            if np.any(extent <= 0.0):
                raise ValueError("patch extent must be positive")
            object.__setattr__(self, "base", base)
            object.__setattr__(self, "extent", extent)
        else:
            raise ValueError(f"unknown probe kind {self.kind!r}")

    @property
    def p(self) -> int:
        return 1 if self.kind == "polyline" else self.frame.p

    def volume(self) -> float:
        """Intrinsic p-volume: total length, box area, or ball volume."""
        if self.kind == "polyline":
            return float(np.linalg.norm(np.diff(self.vertices, axis=0), axis=1).sum())
        if self.region == "box":
            return float(np.prod(2.0 * self.extent))
        r = float(self.extent)
        return unit_ball_volume(self.p) * r ** self.p

    def bounding_radius(self) -> float:
        """Radius of the probe around its placement center, any orientation."""
        if self.kind == "polyline":
            c = self.vertices.mean(axis=0)
            return float(np.max(np.linalg.norm(self.vertices - c, axis=1)))
        if self.region == "box":
            return float(np.linalg.norm(self.extent))
        return float(self.extent)


def segment_probe(a, b) -> Probe:
    return Probe("polyline", vertices=np.vstack([a, b]))


def flat_patch_probe(frame, base, region: str, extent) -> Probe:
    if not isinstance(frame, Frame):
        frame = Frame(np.atleast_2d(np.asarray(frame, dtype=float)))
    return Probe("flat_patch", frame=frame, base=np.asarray(base, dtype=float),
                 region=region, extent=extent)


@dataclass(frozen=True)
class ScapeEntry:
    sites: tuple          # sorted site indices of the Delaunay p-cell
    multiplicity: int
    volume: float


@dataclass(frozen=True)
class Scape:
    """Multiset of Delaunay p-cells with multiplicities and total p-volume."""

    p: int
    entries: tuple
    total_volume: float
    perturbed: bool = False   # a degenerate hit forced a retry somewhere

    def __post_init__(self):
        check = sum(e.multiplicity * e.volume for e in self.entries)
        if self.entries and abs(check - self.total_volume) > 1e-9 * max(1.0, abs(check)):
            raise ValueError("total volume does not match entries")
        if any(e.multiplicity < 1 for e in self.entries):
            raise ValueError("multiplicities must be positive")

    def edge_multiset(self) -> Counter:
        return Counter({e.sites: e.multiplicity for e in self.entries})


def _make_scape(p: int, sites, rows, mults, perturbed: bool) -> Scape:
    """Scape of the p-cells on the rows of `rows`, sorted site indices in
    lexicographic row order, counted `mults` times each.

    Every volume comes from one simplex_volumes call on the cells' sites.
    The total adds multiplicity times volume left to right in row order
    (cumsum is sequential), so it equals a per-entry running sum bitwise.
    """
    if not len(rows):
        return Scape(p, (), 0.0, perturbed)
    vols = simplex_volumes(sites[rows])
    total = float(np.cumsum(mults * vols)[-1])
    entries = tuple(map(ScapeEntry, map(tuple, rows.tolist()), mults.tolist(),
                        vols.tolist()))
    return Scape(p, entries, total, perturbed)


def voronoi_path(sites, probe: Probe) -> Scape:
    """Voronoi path of a polyline probe.

    sites is an (n, d) array or an object with .sites, such as a Mosaic;
    only the site coordinates are read. Each segment a->b is the 1-flat box
    patch with frame (b - a)/|b - a|, base the midpoint and extent |b - a|/2:
    its power-diagram vertices are its crossings of Voronoi (d-1)-cells, and
    each contributes the dual Delaunay edge, witnessed as in
    voronoi_scape_flat. An edge counts once per crossing over all segments.
    Polyline vertices must lie inside the convex hull of the sites, or
    CoverageError is raised. A power vertex within CROSS_TOL (relative to
    the segment length) of a segment end puts a polyline vertex on a
    Voronoi face; it, a witness tie and a flat weighted cell are dislodged
    by a deterministic perturbation of the whole probe, which sets
    perturbed.
    """
    if probe.kind != "polyline":
        raise ValueError("voronoi_path expects a polyline probe")
    sites = _site_array(sites)
    verts = probe.vertices
    if not np.all(site_hull(sites).contains(verts)):
        raise CoverageError("probe outside coverage")
    d = sites.shape[1]
    for attempt in range(MAX_REWALKS):
        shift = np.zeros(d)
        if attempt:
            # fixed direction with irrational-ratio components, scaled up
            # slowly so successive retries are distinct
            raw = np.array([np.sin(7.0 * (i + 1) + attempt) for i in range(d)])
            shift = PERTURB_EPS * attempt * raw / np.linalg.norm(raw)
        rows, perturbed = [], attempt > 0
        try:
            for a, b in zip(verts[:-1] + shift, verts[1:] + shift):
                seg, jittered = _segment_edges(sites, a, b)
                rows.append(seg)
                perturbed |= jittered
        except DegenerateInputError:
            continue
        rows, mults = np.unique(np.concatenate(rows), axis=0, return_counts=True)
        return _make_scape(1, sites, rows, mults, perturbed)
    raise DegenerateInputError("probe keeps hitting degenerate Voronoi faces")


def _segment_edges(sites, a, b):
    """Witnessed rows of the Delaunay edges dual to the Voronoi facets that
    the segment a->b crosses, in lexicographic order, and whether the power
    weights were jittered."""
    v = b - a
    length = float(np.linalg.norm(v))
    frame = Frame(v[None, :] / length)
    rel = sites - 0.5 * (a + b)
    tops, centers, jittered = _power_diagram(rel, frame)
    t, half = np.abs(centers[:, 0]), 0.5 * length
    if np.any(np.abs(t - half) <= CROSS_TOL * length):
        raise DegenerateInputError("polyline vertex on a Voronoi face")
    inside = t <= half
    _check_witnesses(rel, centers[inside] @ frame.rows, tops[inside])
    return tops[inside], jittered


@dataclass(frozen=True)
class WeightedSite:
    """Projection of a site onto a flat: flat coordinates plus power weight."""

    point: np.ndarray     # coordinates in the flat, (p,)
    weight: float         # minus the squared distance from site to flat

    def __post_init__(self):
        if self.weight > 1e-12:
            raise ValueError("weights are nonpositive by construction")


def _site_array(sites) -> np.ndarray:
    """An (n, d) site array, read from .sites when the argument has one."""
    return np.asarray(getattr(sites, "sites", sites), dtype=float)


def project_weights(sites, frame: Frame, base) -> list:
    """Weighted sites of the power diagram induced on a flat.

    sites is an (n, d) array or an object with .sites, such as a Mosaic.
    The defining identity, checked in tests: for x on the flat with flat
    coordinates y, the ambient squared distance |x - a|^2 equals
    |y - a'|^2 - a'' for every site a with projection a' and weight a''.
    """
    base = np.asarray(base, dtype=float)
    rel = _site_array(sites) - base
    y = rel @ frame.rows.T
    off2 = np.einsum("ij,ij->i", rel, rel) - np.einsum("ij,ij->i", y, y)
    off2 = np.maximum(off2, 0.0)
    return [WeightedSite(y[i].copy(), -float(off2[i])) for i in range(len(y))]


def power_nearest(weighted: list, y) -> int:
    """Index minimizing the power distance |y - a'|^2 - a''; lowest index wins ties."""
    y = np.asarray(y, dtype=float)
    pts = np.stack([w.point for w in weighted])
    wts = np.array([w.weight for w in weighted])
    rel = pts - y
    power = np.einsum("ij,ij->i", rel, rel) - wts
    return int(np.argmin(power))


def voronoi_scape_flat(sites, probe: Probe) -> Scape:
    """Voronoi scape of a bounded convex patch of an affine p-flat.

    sites is an (n, d) array or an object with .sites, such as a Mosaic;
    only the site coordinates are read. Builds the power diagram of the
    projected sites inside the flat with the same paraboloid lifting as
    build_mosaic (weights shift the lift height). Every power-diagram vertex
    inside the patch is the spot where the flat pierces a Voronoi (d-p)-cell,
    and the scape collects the Delaunay p-cell on the same p+1 sites, with
    multiplicity 1 and its unprojected p-volume. The weighted tops come
    sorted and unique, so the rows inside the patch go to _make_scape as
    they are. A witness checks each such vertex: lifted back to ambient
    coordinates, its p+1 nearest sites must be the cell's own and the next
    site strictly farther, which is the definition of the dual Voronoi cell.
    A tie within TIE_TOL raises DegenerateInputError, any other failure
    ConsistencyError (see _check_witnesses).
    """
    if probe.kind != "flat_patch":
        raise ValueError("voronoi_scape_flat expects a flat patch probe")
    sites = _site_array(sites)
    p, d = probe.frame.p, sites.shape[1]
    if not (1 <= p <= d - 1):
        raise ValueError("patch dimension must satisfy 1 <= p <= d-1")
    rel = sites - probe.base
    rows, centers, perturbed = _power_diagram(rel, probe.frame)
    if probe.region == "box":
        inside = np.all(np.abs(centers) <= probe.extent, axis=1)
    else:
        inside = np.einsum("ij,ij->i", centers, centers) <= float(probe.extent) ** 2
    rows = rows[inside]
    _check_witnesses(rel, centers[inside] @ probe.frame.rows, rows)
    return _make_scape(p, sites, rows, np.ones(len(rows), dtype=np.int64),
                       perturbed)


def _power_diagram(rel, frame: Frame):
    """Power diagram induced on the flat spanned by frame through the base
    point, for sites rel relative to that base: the rows of its vertices
    (the weighted Delaunay tops, sorted and unique), their orthocenters in
    flat coordinates, and whether the weights had to be jittered."""
    y = rel @ frame.rows.T
    lift = np.einsum("ij,ij->i", rel, rel)   # |y|^2 - weight, the power lift
    perturbed = False
    for attempt in range(MAX_REWALKS):
        try:
            wtops = lower_hull_simplices(np.column_stack([y, lift]))
            break
        except DegenerateInputError:
            jit = np.random.default_rng(attempt).standard_normal(len(lift))
            lift = lift + WEIGHT_JITTER * jit
            perturbed = True
    else:
        raise DegenerateInputError("power diagram stays degenerate after jitter")
    if perturbed:
        warnings.warn("degenerate power diagram, weights jittered", stacklevel=3)

    # orthocenters: the power-equidistant points c of the weighted tops,
    # 2 (y_i - y_0) . c = lift_i - lift_0
    try:
        centers = span_solve(
            y[wtops], 0.5 * (lift[wtops[:, 1:]] - lift[wtops[:, :1]]))
    except DegenerateInputError as exc:
        raise DegenerateInputError(
            "degenerate power diagram (flat weighted cell)") from exc
    return wtops, centers, perturbed


def _check_witnesses(rel, points, rows) -> None:
    """Each point's len(row) nearest sites are its row's, the next strictly
    farther; rel and points share coordinates centered on the patch base.

    Where that fails, the nearest site outside the row decides: within
    TIE_TOL (relative) of the row's farthest site it ties, the power
    diagram is degenerate there and DegenerateInputError is raised; nearer
    than that, the row is not a Delaunay cell and ConsistencyError is raised.
    """
    k = rows.shape[1]
    # an unbalanced tree builds faster and answers the same exact queries
    dist, near = cKDTree(rel, balanced_tree=False).query(points, k=k + 1)
    bad = np.any(np.sort(near[:, :k], axis=1) != rows, axis=1)
    bad |= dist[:, k] <= dist[:, k - 1]
    if not np.any(bad):
        return
    for i in np.flatnonzero(bad):
        row = rows[i]
        reach = np.max(np.linalg.norm(rel[row] - points[i], axis=1))
        outside = ~np.isin(near[i], row)
        if dist[i][outside][0] < reach * (1.0 - TIE_TOL):
            raise ConsistencyError(
                f"{k - 1}-cell {tuple(row.tolist())} is not a Delaunay cell of "
                f"the sites: its power-diagram vertex has other nearest sites")
    raise DegenerateInputError(
        "power-diagram vertex equidistant from more than "
        f"{k} sites (witness tie)")


def distortion(s: Scape, probe: Probe) -> float:
    """Scape volume over probe volume; its expectation is the distortion constant."""
    vol = probe.volume()
    if vol <= 0.0:
        raise ValueError("probe volume must be positive")
    return s.total_volume / vol


def write_scape_csv(path, s: Scape) -> None:
    """Scape as CSV: sorted site indices (semicolon-joined), multiplicity, volume."""
    with open(path, "w") as fh:
        fh.write("sites,multiplicity,volume\n")
        for e in s.entries:
            fh.write(f"{';'.join(str(i) for i in e.sites)},{e.multiplicity},{e.volume!r}\n")
