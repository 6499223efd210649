"""Voronoi paths of polylines and Voronoi scapes of flat patches, read from
the sites alone.

The Voronoi tessellation restricted to a p-flat is the power diagram of the
projected sites with weights equal to minus the squared projection offsets
(Aurenhammer 1987), so a patch's scape is read off the weighted Delaunay
triangulation built by the same lifting machinery as build_mosaic, with no
ambient mosaic. Only the sites that can be nearest somewhere on the patch's
bounding box are lifted, picked by exact near/far bounds on their power
distances over the box and then over SPLIT^p sub-boxes of it. A
nearest-site witness checks at every power-diagram vertex that its p + 1
sites span a Delaunay p-cell. It measures only the sites that the
whole-box bound cannot prove farther than every cell's own sites, with a
radius read from the cells themselves, so it covers every site and needs
no trust in the pick. A path is the p = 1 case: each segment of a polyline
is a 1-flat patch, and the edges of all segments are counted together.
A path's vertices must lie in the sites' convex hull. An orthant
certificate settles that exactly with one comparison of every vertex
against every site; only a vertex it cannot certify, near the edge of the
sample, goes to the Qhull hull of the sites. The cells arrive as sorted
index rows, a scape measures all of them with one batched simplex_volumes
call, and it keeps them as arrays.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .delaunay import _row_order, lower_hull_simplices, site_hull
from .errors import ConsistencyError, CoverageError, DegenerateInputError
from .geometry import Frame, simplex_volumes, span_solve
from .pointproc import unit_ball_volume

CROSS_TOL = 1e-10       # power vertex to segment end, relative to its length
PERTURB_EPS = 1e-9      # deterministic probe displacement on degenerate hits
WEIGHT_JITTER = 1e-12   # weight perturbation when the power diagram degenerates
MAX_REWALKS = 8
TIE_TOL = 1e-9          # relative distance gap below which witness sites tie
SPLIT = 4               # intervals per flat axis in the second candidate pass
CUTS = np.linspace(-1.0, 1.0, SPLIT + 1)   # their ends on [-1, 1]
WITNESS_BLOCK = 65536   # point-site distances per witness block


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


@dataclass(frozen=True, eq=False)
class Scape:
    """Multiset of Delaunay p-cells with multiplicities and total p-volume.

    The cells are held as arrays: rows (m, p + 1) of sorted site indices in
    lexicographic row order, with their multiplicities and volumes.
    entries and edge_multiset are built from them on each read. Two scapes
    are equal when p, entries, total_volume and perturbed are.
    """

    p: int
    rows: np.ndarray
    multiplicities: np.ndarray
    volumes: np.ndarray
    total_volume: float
    perturbed: bool = False   # a degenerate hit forced a retry somewhere

    def __post_init__(self):
        if np.any(self.multiplicities < 1):
            raise ValueError("multiplicities must be positive")
        if len(self.rows):
            check = float(np.cumsum(self.multiplicities * self.volumes)[-1])
            if abs(check - self.total_volume) > 1e-9 * max(1.0, abs(check)):
                raise ValueError("total volume does not match entries")

    @property
    def entries(self) -> tuple:
        return tuple(map(ScapeEntry, map(tuple, self.rows.tolist()),
                         self.multiplicities.tolist(), self.volumes.tolist()))

    def edge_multiset(self) -> Counter:
        return Counter(dict(zip(map(tuple, self.rows.tolist()),
                                self.multiplicities.tolist())))

    def __eq__(self, other):
        if not isinstance(other, Scape):
            return NotImplemented
        return ((self.p, self.entries, self.total_volume, self.perturbed)
                == (other.p, other.entries, other.total_volume, other.perturbed))


def _make_scape(p: int, sites, rows, mults, perturbed: bool) -> Scape:
    """Scape of the p-cells on the rows of `rows`, sorted site indices in
    lexicographic row order, counted `mults` times each.

    Every volume comes from one simplex_volumes call on the cells' sites.
    The total adds multiplicity times volume left to right in row order
    (cumsum is sequential), so it equals a per-entry running sum bitwise;
    Scape checks it against the same cumsum.
    """
    if not len(rows):
        return Scape(p, rows, mults, np.zeros(0), 0.0, perturbed)
    vols = simplex_volumes(sites[rows])
    total = float(np.cumsum(mults * vols)[-1])
    return Scape(p, rows, mults, vols, total, perturbed)


def voronoi_path(sites, probe: Probe) -> Scape:
    """Voronoi path of a polyline probe.

    sites is an (n, d) array or an object with .sites, such as a Mosaic;
    only the site coordinates are read. Each segment a->b is the 1-flat box
    patch with frame (b - a)/|b - a|, base the midpoint and extent |b - a|/2:
    its power-diagram vertices are its crossings of Voronoi (d-1)-cells, and
    each contributes the dual Delaunay edge, witnessed as in
    voronoi_scape_flat. An edge counts once per crossing over all segments.

    Polyline vertices must lie inside the convex hull of the sites, or
    CoverageError is raised. A vertex is certified inside when each of its
    2^d orthants holds a site (_orthant_certified), which is exact; only
    the vertices that fail go to site_hull, so too few or affinely flat
    sites, which fail it always, still raise its DegenerateInputError.

    A power vertex within CROSS_TOL (relative to the segment length) of a
    segment end puts a polyline vertex on a Voronoi face; it, a witness tie
    and a flat weighted cell are dislodged by a deterministic perturbation
    of the whole probe, which sets perturbed.
    """
    if probe.kind != "polyline":
        raise ValueError("voronoi_path expects a polyline probe")
    sites = _site_array(sites)
    verts = probe.vertices
    doubt = verts[~_orthant_certified(sites, verts)]
    if len(doubt) and not np.all(site_hull(sites).contains(doubt)):
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
        rows = np.concatenate(rows)
        order, new = _row_order(rows)
        start = np.flatnonzero(new)
        mults = np.diff(start, append=len(rows))
        return _make_scape(1, sites, rows[order[start]], mults, perturbed)
    raise DegenerateInputError("probe keeps hitting degenerate Voronoi faces")


def _orthant_certified(sites, verts) -> np.ndarray:
    """True where every orthant around a vertex holds a site, which puts
    the vertex in the sites' convex hull.

    The orthants of x are the 2^d sign patterns of s - x, bit i set where
    s_i >= x_i. If x lay outside the hull, a normal a of a hyperplane that
    separates it would have a . (s - x) < 0 for every site, yet every site
    s in the orthant of sign(a) has a . (s - x) >= 0, so that orthant would
    be empty. The comparisons are exact in floating point, so a certified
    vertex is inside the hull of the sites as given. Fewer than 2^d sites,
    or sites on a hyperplane, certify nothing.

    Each site-vertex pair packs its d bits into one code, offset by
    vertex << d, and one bincount over all pairs counts every orthant.
    """
    m, d = verts.shape
    code = np.arange(0, m << d, 1 << d)[:, None] + np.zeros(len(sites), np.intp)
    for i, column in enumerate(sites.T):
        code |= (column >= verts[:, i, None]).astype(np.intp) << i
    counts = np.bincount(code.ravel(), minlength=m << d)
    return np.all(counts.reshape(m, 1 << d) > 0, axis=1)


def _segment_edges(sites, a, b):
    """Witnessed rows of the Delaunay edges dual to the Voronoi facets that
    the segment a->b crosses, in lexicographic order, and whether the power
    weights were jittered."""
    v = b - a
    length = float(np.linalg.norm(v))
    frame = Frame(v[None, :] / length)
    rel = sites - 0.5 * (a + b)
    half = 0.5 * length
    tops, centers, near, jittered = _power_diagram(rel, frame, np.array([half]))
    t = np.abs(centers[:, 0])
    if np.any(np.abs(t - half) <= CROSS_TOL * length):
        raise DegenerateInputError("polyline vertex on a Voronoi face")
    inside = t <= half
    _check_witnesses(rel, centers[inside] @ frame.rows, tops[inside], near)
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
    # half extents of the box, or of the bounding box of the ball
    half = np.broadcast_to(probe.extent, p)
    rows, centers, near, perturbed = _power_diagram(rel, probe.frame, half)
    if probe.region == "box":
        inside = np.all(np.abs(centers) <= probe.extent, axis=1)
    else:
        inside = np.einsum("ij,ij->i", centers, centers) <= float(probe.extent) ** 2
    rows = rows[inside]
    _check_witnesses(rel, centers[inside] @ probe.frame.rows, rows, near)
    return _make_scape(p, sites, rows, np.ones(len(rows), dtype=np.int64),
                       perturbed)


def _power_diagram(rel, frame: Frame, half):
    """Power diagram induced on the flat spanned by frame through the base
    point, for sites rel relative to that base, on the box of half extents
    half around it: the rows of its vertices (the weighted Delaunay tops,
    sorted and unique), their orthocenters in flat coordinates, every
    site's lower bound near on its squared distance from the box (see
    _candidates), and whether the weights had to be jittered.

    Only the _candidates for the box are lifted, in increasing index order,
    so their rows map back to rows of rel in the same lexicographic order;
    when at most p + 1 sites pass, every site is. The diagram then has the
    same vertices on the box as that of every site. Fewer than p + 1 sites
    raise DegenerateInputError at once, since no jitter makes them span.
    """
    p = frame.p
    y = rel @ frame.rows.T
    lift = np.einsum("ij,ij->i", rel, rel)   # |y|^2 - weight, the power lift
    keep, near = _candidates(y, lift, half)
    if len(keep) <= p + 1:
        keep = np.arange(len(y))
    y, lift = y[keep], lift[keep]
    perturbed = False
    for attempt in range(MAX_REWALKS):
        try:
            wtops = lower_hull_simplices(np.column_stack([y, lift]))
            break
        except DegenerateInputError:
            if len(lift) <= p:
                raise   # too few sites to span the flat, jittered or not
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
    return keep[wtops], centers, near, perturbed


def _candidates(y, lift, half):
    """Increasing indices of the sites that can be nearest somewhere on the
    box of half extents half, for flat coordinates y and power lifts lift,
    and every site's near over the whole box.

    With h^2 = lift - |y|^2 a site's squared offset from the flat, its
    power distance at a point of a box B, which is its squared distance
    from that point, is at least near(B) = |gap(y, B)|^2 + h^2 and at most
    far(B) = |reach(y, B)|^2 + h^2, with gap and reach the per-axis
    distances from y to the nearest and farthest point of B. At any x in B
    the nearest site's power distance is at most far_t(B) for every site t,
    so a site s with near_s(B) > min_t far_t(B) is beaten everywhere on B.
    A first pass drops those on the whole box. A second splits each axis of
    the box into SPLIT intervals and keeps a survivor s only if on some
    sub-box B near_s(B) <= min_t far_t(B) over the survivors t, which hold
    the nearest site of every point; both passes allow TIE_TOL. The
    sub-boxes cover the box, so every site that is nearest somewhere on it
    is kept. The returned near is that of the whole box: a lower bound on a
    site's squared distance from every point of the patch, box or ball.
    """
    h2 = lift - np.einsum("ij,ij->i", y, y)
    # one row per axis, so that each pass runs along the sites
    yt, half = np.array(y.T, order="C"), np.asarray(half)[:, None]
    ay = np.abs(yt)
    near = np.sum(np.maximum(ay - half, 0.0) ** 2, axis=0) + h2
    far = np.sum((ay + half) ** 2, axis=0) + h2
    keep = np.flatnonzero(near <= far.min(initial=np.inf) * (1.0 + TIE_TOL))
    # gap and reach of each survivor on each interval of each axis, (p,
    # SPLIT, m), summed over every choice of one interval per axis into
    # (SPLIT**p, m)
    ends = (half * CUTS)[:, :, None]
    yk = yt[:, None, keep]
    lo, hi = ends[:, :-1] - yk, ends[:, 1:] - yk
    gap = np.maximum(np.maximum(lo, -hi), 0.0)
    reach = np.maximum(np.abs(lo), np.abs(hi))
    sub_near = sub_far = h2[None, keep]
    for g, r in zip(gap ** 2, reach ** 2):
        sub_near = (sub_near[:, None] + g).reshape(SPLIT * len(sub_near), len(keep))
        sub_far = (sub_far[:, None] + r).reshape(SPLIT * len(sub_far), len(keep))
    bound = sub_far.min(axis=1, initial=np.inf) * (1.0 + TIE_TOL)
    return keep[np.any(sub_near <= bound[:, None], axis=0)], near


def _check_witnesses(rel, points, rows, near) -> None:
    """Each point's len(row) nearest sites are its row's, the next strictly
    farther; rel and points share coordinates centered on the patch base,
    and near[s] is a lower bound on site s's squared distance from every
    point (_candidates).

    Only the sites that can be that near are measured. With r^2 the largest
    squared distance from a point to a site of its own row, a site with
    near > r^2 (1 + 4 TIE_TOL) is strictly farther than every row's sites
    from every point, beyond any tie and the round-off in near, so dropping
    it changes no point's nearest sites or verdict. r^2 comes from the rows
    themselves, so the check covers every site and trusts neither the
    candidate pick nor Qhull. When k or fewer sites are left, every site is
    measured.

    Where the check fails, the nearest site outside the row decides: within
    TIE_TOL (relative) of the row's farthest site it ties, the power
    diagram is degenerate there and DegenerateInputError is raised; nearer
    than that, the row is not a Delaunay cell and ConsistencyError is raised.
    """
    k = rows.shape[1]
    if not len(rows):
        return
    own = points[:, None, :] - rel[rows]
    r2 = np.max(np.einsum("ijk,ijk->ij", own, own))
    cand = np.flatnonzero(near <= r2 * (1.0 + 4.0 * TIE_TOL))
    if len(cand) <= k:
        cand = np.arange(len(rel))
    # the (k + 1) nearest measured sites of each point, in blocks of points
    # that keep the distance matrix small
    site = np.empty((len(points), k + 1), dtype=np.intp)
    dist = np.empty((len(points), k + 1))
    step = max(1, WITNESS_BLOCK // len(cand))
    for i in range(0, len(points), step):
        diff = points[i:i + step, None, :] - rel[cand]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        order = np.argsort(d2, axis=1)[:, :k + 1]
        site[i:i + step] = cand[order]
        dist[i:i + step] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    bad = np.any(np.sort(site[:, :k], axis=1) != rows, axis=1)
    bad |= dist[:, k] <= dist[:, k - 1]
    if not np.any(bad):
        return
    for i in np.flatnonzero(bad):
        row = rows[i]
        reach = np.max(np.linalg.norm(rel[row] - points[i], axis=1))
        outside = ~np.isin(site[i], row)
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
