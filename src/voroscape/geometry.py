"""Linear-algebra and convex-geometry primitives: volumes, circumspheres, frames.

Everything here is pure and operates on plain numpy arrays. The thin wrapper
classes (Frame, Simplex) validate their invariants once at construction and
are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import factorial

import numpy as np

from .errors import DegenerateInputError

GRAM_TOL = 1e-10    # degeneracy threshold on normalized Gram determinants
FRAME_TOL = 1e-10   # orthonormality tolerance
HEIGHT_TOL = 1e-13  # simplex heights, relative to their edge, that are 0
BATCH = 8192        # simplices per kernel pass, so that its arrays stay in cache


def _as_points(v):
    a = np.asarray(v, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite coordinates")
    return a


@dataclass(frozen=True)
class Frame:
    """p orthonormal row vectors in R^d; p = 0 (empty frame) is allowed."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            rows = rows.reshape(0, int(rows.shape[0])) if rows.size == 0 else rows[None, :]
        object.__setattr__(self, "rows", rows)
        p, d = rows.shape
        if p > d:
            raise ValueError(f"frame has {p} rows in dimension {d}")
        if p and np.max(np.abs(rows @ rows.T - np.eye(p))) > FRAME_TOL:
            raise ValueError("rows are not orthonormal")

    @property
    def p(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Simplex:
    """A k-simplex given by its k+1 vertices in R^d."""

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _as_points(self.vertices))

    @property
    def k(self) -> int:
        return self.vertices.shape[0] - 1

    @property
    def d(self) -> int:
        return self.vertices.shape[1]

    @property
    def degenerate(self) -> bool:
        """True when the vertices are affinely dependent within tolerance."""
        e = self.vertices[1:] - self.vertices[0]
        if e.shape[0] == 0:
            return False
        scale = np.einsum("ij,ij->i", e, e)
        if np.any(scale <= 0.0):
            return True
        # normalize rows so the Gram determinant is scale free in [0, 1]
        g = (e / np.sqrt(scale)[:, None])
        return np.linalg.det(g @ g.T) <= GRAM_TOL


def _edges(v) -> np.ndarray:
    """Edge rows v_i - v_0 of a stack of k-simplices, v of shape (m, k+1, d),
    in column layout (k, d, m): edge i of simplex s is e[i, :, s]."""
    vt = v.transpose(1, 2, 0)
    return np.subtract(vt[1:], vt[:1], order="C")


def _dot(a, b):
    # sum over the leading axis of a * b, one elementwise product and add at
    # a time, so that each value comes out the same in any batch
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out += x * y
    return out


def _gram_schmidt(e):
    """Batched modified Gram-Schmidt of edge rows in column layout (k, d, m).

    Returns q (k, d, m), the orthonormalized edges, and low (k, k, m), the
    lower-triangular L = R^T of the QR factorization E^T = Q R of each
    simplex: low[i, j] = q_j . e_i below the diagonal and low[i, i] the
    height of edge i over the span of the edges before it. A height within
    HEIGHT_TOL of its edge's length is round-off of an edge in that span:
    it stays 0, and so does its q, so that no later edge projects on noise.
    Python loops run only over k and d, both at most 4 here, and every step
    is elementwise across the batch, so a simplex gets the same numbers in
    any batch.
    """
    k, d, m = e.shape
    q = np.empty_like(e)
    low = np.zeros((k, k, m))
    keep = HEIGHT_TOL ** 2 * _dot(e.transpose(1, 0, 2), e.transpose(1, 0, 2))
    for i in range(k):
        w = e[i]
        # a second pass restores the orthogonality that the first loses to
        # cancellation on a thin simplex ("twice is enough")
        for _ in range(2 if i else 0):
            for j in range(i):
                c = _dot(q[j], w)
                low[i, j] += c
                w = w - c * q[j]
        h2 = _dot(w, w)
        tall = h2 > keep[i]
        low[i, i] = np.sqrt(np.where(tall, h2, 0.0))
        q[i] = w / np.where(tall, low[i, i], np.inf)
    return q, low


def _batched(kernel):
    # run a kernel on slices of at most BATCH simplices (and of the arrays
    # that go with them); it works elementwise across the stack, so the
    # slicing moves no value
    @wraps(kernel)
    def run(v, *more):
        v = np.asarray(v, dtype=float)
        if len(v) <= BATCH:
            return kernel(v, *more)
        parts = [kernel(v[i:i + BATCH], *(x[i:i + BATCH] for x in more))
                 for i in range(0, len(v), BATCH)]
        return np.concatenate(parts)
    return run


@_batched
def simplex_volumes(v) -> np.ndarray:
    """k-dimensional volumes of a stack of k-simplices, v of shape (m, k+1, d).

    The product of the heights from _gram_schmidt over k!, for every
    0 <= k <= d: orthogonalizing the edge rows keeps the digits of a thin
    simplex, which a Gram determinant would square away. A point (k = 0)
    has volume 1, the convention used by tile measures; a flat simplex has
    volume 0.
    """
    e = _edges(v)
    vol = np.ones(e.shape[2])
    if len(e):
        low = _gram_schmidt(e)[1]
        for i in range(len(e)):
            vol *= low[i, i]
    return vol / factorial(len(e))


def simplex_volume(s) -> float:
    """k-dimensional volume of a k-simplex, from simplex_volumes.

    Accepts a Simplex or a (k+1, d) vertex array. A thin simplex keeps its
    small volume and affinely dependent vertices give 0;
    Simplex.degenerate is the separate test for affine dependence within
    tolerance.
    """
    v = s.vertices if isinstance(s, Simplex) else _as_points(s)
    return float(simplex_volumes(v[None])[0])


def _span_solve(e, b) -> np.ndarray:
    # x (d, m) in the span of the edges e (k, d, m) with e_i . x = b[i]
    k, d, m = e.shape
    if not k:
        return np.zeros((d, m))
    q, low = _gram_schmidt(e)
    if not np.all(low[np.arange(k), np.arange(k)] > 0.0):
        raise DegenerateInputError("degenerate configuration (flat simplex)")
    z = np.empty((k, m))
    for i in range(k):
        z[i] = (b[i] - _dot(low[i, :i], z[:i]) if i else b[i]) / low[i, i]
    return _dot(z[:, None], q)


@_batched
def span_solve(v, b) -> np.ndarray:
    """The point x in the span of the edge rows E = v_i - v_0 of each
    k-simplex with E x = b, for v of shape (m, k+1, d) and b of shape (m, k).

    With E^T = Q R from _gram_schmidt, x = Q z for the forward substitution
    R^T z = b; the edge rows are never multiplied together, so a thin
    simplex keeps its digits. A zero height (a flat simplex) raises
    DegenerateInputError.
    """
    x = _span_solve(_edges(v), np.asarray(b, dtype=float).T)
    return np.ascontiguousarray(x.T)


@_batched
def circumcenters(v) -> np.ndarray:
    """Circumcenters of a stack of k-simplices, v of shape (m, k+1, d).

    The center is v_0 + x with x in the affine hull's directions and
    E x = diag(E E^T) / 2 for the edge rows E = v_i - v_0 (span_solve), for
    every 0 <= k <= d. A flat simplex raises DegenerateInputError.
    """
    e = _edges(v)
    half = 0.5 * _dot(e.transpose(1, 0, 2), e.transpose(1, 0, 2))
    return v[:, 0] + _span_solve(e, half).T


def circumsphere(s):
    """Center and radius of the circumsphere of a k-simplex.

    Returns
    -------
    center : (d,) ndarray
    radius : float
    """
    v = s.vertices if isinstance(s, Simplex) else _as_points(s)
    if Simplex(v).degenerate:
        raise DegenerateInputError("degenerate simplex")
    center = circumcenters(v[None])[0]
    return center, float(np.linalg.norm(center - v[0]))


def frame_projection_volume(f: Frame, g: Frame) -> float:
    """Volume of the projection of the unit p-cube spanned by f onto span(g).

    Equals |det(F G^T)|, which is symmetric in the two frames and lies in
    [0, 1]. For p = 1 this is the cosine of the angle between the lines.
    """
    if not isinstance(f, Frame):
        f = Frame(np.asarray(f, dtype=float))
    if not isinstance(g, Frame):
        g = Frame(np.asarray(g, dtype=float))
    if f.p != g.p or f.d != g.d:
        raise ValueError("frames must share p and d")
    if f.p == 0:
        return 1.0
    return float(abs(np.linalg.det(f.rows @ g.rows.T)))


def orthonormalize(vectors) -> Frame:
    """Orthonormal frame spanning the same subspace as the given vectors.

    The rows of _gram_schmidt on the vectors, in their input order: row i
    is vector i minus its part in the span of the vectors before it,
    normalized. More vectors than dimensions, or a zero height (a vector
    whose distance from that span is at most HEIGHT_TOL times its length),
    raise ValueError("rank deficient").
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 1:
        v = v[None, :]
    p, d = v.shape
    if p > d:
        raise ValueError("rank deficient")
    q, low = _gram_schmidt(v[:, :, None])
    if not np.all(low[np.arange(p), np.arange(p)] > 0.0):
        raise ValueError("rank deficient")
    return Frame(q[:, :, 0])


def affine_basis(points) -> Frame:
    """Orthonormal basis of the direction space of the affine hull of points."""
    v = _as_points(points)
    e = v[1:] - v[0]
    if e.shape[0] == 0:
        return Frame(np.zeros((0, v.shape[1])))
    # SVD rank reveal, tolerant to nearly dependent generators
    u, s, vt = np.linalg.svd(e, full_matrices=False)
    rank = int(np.sum(s > max(1e-13, s[0] * 1e-12))) if s.size else 0
    return Frame(vt[:rank])


def polygon_area(poly) -> float:
    """Signed-free area of a convex polygon given in boundary order."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def _cross(u, v):
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _angle(u, v):
    # signed angle from u to v in (-pi, pi]
    return np.arctan2(_cross(u, v), np.einsum("ij,ij->i", u, v))


def polygon_disk_areas(vertices, indptr, center, radius) -> np.ndarray:
    """Exact areas of the intersections of convex polygons with one disk.

    The polygons come in CSR form: polygon j is vertices[indptr[j]:indptr[j+1]]
    in boundary order, either orientation. Each directed edge a -> b adds on
    its own the signed area of the triangle (center, a, b) inside the disk:
    a sector up to the point where the edge enters the disk, the triangle
    on the chord, and a sector after its exit (Green's theorem around the
    boundary of the intersection). The terms are summed per polygon, signed
    by the shoelace orientation and clamped at 0. A polygon whose edges
    never cut the disk gets exactly 0, or pi r^2 when it winds around the
    center; one with fewer than 3 vertices gets 0.
    """
    q = np.asarray(vertices, dtype=float).reshape(-1, 2) - np.asarray(center, dtype=float)
    indptr = np.asarray(indptr, dtype=np.intp)
    r2 = float(radius) ** 2
    counts = np.diff(indptr)
    # each vertex's successor along its polygon's boundary
    nxt = np.arange(1, len(q) + 1)
    nxt[indptr[1:][counts > 0] - 1] = indptr[:-1][counts > 0]
    a, b = q, q[nxt]
    e = b - a
    aa = np.einsum("ij,ij->i", e, e)
    bb = 2.0 * np.einsum("ij,ij->i", a, e)
    disc = bb * bb - 4.0 * aa * (np.einsum("ij,ij->i", a, a) - r2)
    # parameter interval [t0, t1] of a + t e inside the disk, if any
    secant = (aa > 0.0) & (disc > 0.0)
    sq = np.sqrt(np.where(secant, disc, 0.0))
    two_aa = np.where(secant, 2.0 * aa, 1.0)
    t0 = np.maximum((-bb - sq) / two_aa, 0.0)
    t1 = np.minimum((-bb + sq) / two_aa, 1.0)
    piece = secant & (t0 < t1)
    p0 = a + t0[:, None] * e
    p1 = a + t1[:, None] * e
    theta = np.where(piece, np.where(t0 > 0.0, _angle(a, p0), 0.0)
                     + np.where(t1 < 1.0, _angle(p1, b), 0.0), _angle(a, b))
    terms = 0.5 * (r2 * theta + np.where(piece, _cross(p0, p1), 0.0))

    def per_polygon(x):
        # each sum runs over exactly its own polygon's terms, so a polygon's
        # area does not depend on the rest of the batch
        out = np.zeros(len(counts))
        out[counts > 0] = np.add.reduceat(x, indptr[:-1][counts > 0])
        return out

    total = per_polygon(terms)
    area = np.where(per_polygon(_cross(a, b)) < 0.0, -total, total)
    # without a chord piece the terms add up to pi r^2 times the winding number
    whole = np.where(np.abs(total) > 0.5 * np.pi * r2, np.pi * r2, 0.0)
    out = np.where(per_polygon(piece) > 0.0, np.maximum(area, 0.0), whole)
    out[counts < 3] = 0.0
    return out


def polygon_disk_area(poly, center, radius) -> float:
    """Exact area of the intersection of one convex polygon with a disk."""
    poly = np.asarray(poly, dtype=float).reshape(-1, 2)
    return float(polygon_disk_areas(poly, [0, len(poly)], center, radius)[0])
