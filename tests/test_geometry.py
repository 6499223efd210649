import itertools
import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from voroscape import geometry
from voroscape.errors import DegenerateInputError
from voroscape.geometry import (Frame, Simplex, affine_basis, circumcenters,
                                circumsphere, frame_projection_volume,
                                orthonormalize, polygon_area,
                                polygon_disk_area, polygon_disk_areas,
                                simplex_volume, simplex_volumes)
from voroscape.moments import sample_stiefel


def rand_rotation(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# ---------------- simplex volume ----------------

def test_segment_length():
    s = Simplex(np.array([[0.0, 0.0], [3.0, 0.0]]))
    assert simplex_volume(s) == pytest.approx(3.0, rel=1e-14)


def test_unit_corner_simplex():
    v = np.vstack([np.zeros(3), np.eye(3)])
    assert abs(simplex_volume(Simplex(v)) - 1.0 / 6.0) < 1e-15


def test_right_triangle_area():
    s = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert abs(simplex_volume(s) - 0.5) < 1e-15


def test_degenerate_simplex_zero_volume():
    s = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert s.degenerate
    assert simplex_volume(s) == 0.0


def test_volume_permutation_and_rigid_motion_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k, d = rng.integers(1, 4), 4
        v = rng.standard_normal((k + 1, d))
        base = simplex_volume(Simplex(v))
        perm = rng.permutation(k + 1)
        assert abs(simplex_volume(Simplex(v[perm])) - base) < 1e-9 * base
        q = rand_rotation(d, rng)
        t = rng.standard_normal(d)
        moved = v @ q.T + t
        assert abs(simplex_volume(Simplex(moved)) - base) < 1e-9 * base


# ---------------- circumsphere ----------------

def test_circumsphere_hand_triangle():
    s = Simplex(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]))
    c, r = circumsphere(s)
    assert np.allclose(c, [1.0, 0.75], atol=1e-12)
    assert abs(r - 1.25) < 1e-12


def test_circumsphere_right_triangle():
    s = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    c, r = circumsphere(s)
    assert np.allclose(c, [0.5, 0.5], atol=1e-12)
    assert abs(r - np.sqrt(2) / 2) < 1e-12


def test_circumsphere_segment_midpoint():
    c, r = circumsphere(Simplex(np.array([[0.0, 0.0], [2.0, 0.0]])))
    assert np.allclose(c, [1.0, 0.0]) and abs(r - 1.0) < 1e-15


def test_circumsphere_degenerate_raises():
    s = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(DegenerateInputError, match="degenerate simplex"):
        circumsphere(s)


def test_circumsphere_equidistance_random():
    # center must sit in the affine hull and be equidistant from vertices
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(k, 6))
        v = rng.standard_normal((k + 1, d))
        if Simplex(v).degenerate:
            continue
        c, r = circumsphere(Simplex(v))
        dist = np.linalg.norm(v - c, axis=1)
        assert np.all(np.abs(dist - r) < 1e-9 * max(r, 1.0))
        b = affine_basis(v).rows
        rel = c - v[0]
        assert np.linalg.norm(rel - (rel @ b.T) @ b) < 1e-8


# ---------------- batched Gram-Schmidt kernel ----------------

KD = [(k, d) for d in range(1, 5) for k in range(d + 1)]
THIN = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-6, 0.0]])


def test_thin_triangle_keeps_its_digits():
    # the Gram determinant gave 4.99994e-7 and a center y of -125002.77
    assert simplex_volumes(THIN[None])[0] == pytest.approx(5e-7, rel=1e-12)
    center = circumcenters(THIN[None])[0]
    assert center[1] == pytest.approx(-124999.9999995, rel=1e-9)
    assert center[0] == pytest.approx(0.5, rel=1e-12) and center[2] == 0.0


def exact_gram(v):
    """Exact edge rows and their Gram matrix of a float simplex, as Fractions."""
    rows = [[Fraction(x) - Fraction(y) for x, y in zip(vi, v[0])] for vi in v[1:]]
    gram = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    return rows, gram


def exact_solve(a, b):
    # Gauss-Jordan elimination over the rationals
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] / m[r][r] for r in range(n)]


def exact_det(a):
    n, det, m = len(a), Fraction(1), [row[:] for row in a]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@pytest.mark.parametrize("k, d", KD)
def test_kernel_matches_exact_fractions(k, d):
    # floats are dyadic rationals, so the Gram system has an exact answer:
    # volume^2 = det(E E^T) / k!^2 and center v0 + E^T a with E E^T a = |e|^2/2
    rng = np.random.default_rng([k, d])
    v = rng.standard_normal((12, k + 1, d))
    vols, centers = simplex_volumes(v), circumcenters(v)
    for s in range(len(v)):
        rows, gram = exact_gram(v[s])
        vol = float(exact_det(gram) / factorial(k) ** 2) ** 0.5 if k else 1.0
        assert vols[s] == pytest.approx(vol, rel=1e-12)
        a = exact_solve(gram, [g[i] / 2 for i, g in enumerate(gram)]) if k else []
        ref = [Fraction(v[s][0][j]) + sum(ai * r[j] for ai, r in zip(a, rows))
               for j in range(d)]
        scale = max(1.0, max(abs(float(x)) for x in ref))
        assert np.max(np.abs(centers[s] - np.array(ref, dtype=float))) <= 1e-12 * scale


def test_kernel_values_do_not_depend_on_the_batch():
    rng = np.random.default_rng(7)
    for k, d in KD:
        v = rng.standard_normal((64, k + 1, d))
        vols, centers = simplex_volumes(v), circumcenters(v)
        for s in (0, 17, 63):
            assert simplex_volumes(v[s:s + 1])[0] == vols[s]
            assert np.array_equal(circumcenters(v[s:s + 1])[0], centers[s])
        assert np.array_equal(simplex_volumes(v[::-1]), vols[::-1])


def test_kernel_directions_stay_orthonormal_on_thin_simplices():
    # the last vertex sits 1e-8 off the others' affine hull; one Gram-Schmidt
    # pass would leave its direction about 1e-8 off orthogonal
    rng = np.random.default_rng(11)
    for k, d in KD:
        if k < 2:
            continue
        v = rng.standard_normal((50, k + 1, d))
        v[:, -1] = v[:, :-1].mean(axis=1) + 1e-8 * rng.standard_normal((50, d))
        q, low = geometry._gram_schmidt(geometry._edges(v))
        assert np.all(low[k - 1, k - 1] > 0.0)
        gram = np.einsum("idm,jdm->mij", q, q)
        assert np.max(np.abs(gram - np.eye(k))) < 1e-13


FLAT = [
    [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    [[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]],
    [[0.1, 0.7], [0.3, 2.1], [0.7, 4.9]],
    [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
    [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0]],
    [[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 1.0], [2.0, 0.0, 1.0, 1.0],
     [3.0, 2.0, 1.0, 2.0]],
]


@pytest.mark.parametrize("v", FLAT)
def test_flat_simplex_has_zero_volume_without_warnings(v):
    # alone, and first in a batch with a random simplex of the same shape
    v = np.array(v)[None]
    batch = np.concatenate([v, np.random.default_rng(0).standard_normal(v.shape)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert simplex_volumes(v)[0] == 0.0
        vols = simplex_volumes(batch)
    assert vols[0] == 0.0 and vols[1] > 0.0


@pytest.mark.parametrize("v", [
    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    [[0.5, 0.5], [1.0, 2.0], [0.5, 0.5]],
    [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]],
    [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [5.0, 10.0, 15.0]],
    [[0.3, 0.1], [0.3, 0.1]],
])
def test_flat_simplex_has_no_circumcenter(v):
    v = np.array(v)[None]
    batch = np.concatenate([np.random.default_rng(0).standard_normal(v.shape), v])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="flat simplex"):
            circumcenters(batch)


def well_shaped(k, d, seed):
    """A random k-simplex in R^d whose edge rows have condition number
    below 20, or None."""
    v = np.random.default_rng(seed).standard_normal((k + 1, d))
    if k:
        sv = np.linalg.svd(v[1:] - v[0], compute_uv=False)
        if sv[-1] * 20.0 < sv[0]:
            return None
    return v


# A translation by t rounds each coordinate by up to eps |t| (2.2e-10 at
# |t| = 1e6), which an edge condition below 20 magnifies at most about
# 100-fold against unit-size edges; scaling and rotation add only a few
# roundings per coordinate.
TRANSLATE_TOL = 1e-6
MOTION_TOL = 1e-12


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KD), st.integers(0, 2 ** 32 - 1),
       st.floats(-6.0, 6.0), st.floats(-3.0, 3.0))
def test_kernel_equivariant_under_similarity(kd, seed, log_shift, log_scale):
    k, d = kd
    v = well_shaped(k, d, seed)
    assume(v is not None)
    rng = np.random.default_rng([seed, 1])
    vol, center = simplex_volumes(v[None])[0], circumcenters(v[None])[0]
    radius = float(np.linalg.norm(center - v[0]))
    size = max(1.0, float(np.max(np.abs(center))), radius)

    t = rng.standard_normal(d)
    t *= 10.0 ** log_shift / np.linalg.norm(t)
    assert simplex_volumes((v + t)[None])[0] == pytest.approx(vol, rel=TRANSLATE_TOL)
    moved = circumcenters((v + t)[None])[0] - t
    assert np.max(np.abs(moved - center)) <= TRANSLATE_TOL * size

    s = 10.0 ** log_scale
    assert simplex_volumes((s * v)[None])[0] == pytest.approx(s ** k * vol, rel=MOTION_TOL)
    scaled = circumcenters((s * v)[None])[0] / s
    assert np.max(np.abs(scaled - center)) <= MOTION_TOL * size

    q = rand_rotation(d, rng)
    assert simplex_volumes((v @ q.T)[None])[0] == pytest.approx(vol, rel=MOTION_TOL)
    turned = circumcenters((v @ q.T)[None])[0] @ q
    assert np.max(np.abs(turned - center)) <= MOTION_TOL * size


# ---------------- frame projection volume ----------------

def test_projection_identity():
    f = Frame(np.eye(3)[:2])
    assert frame_projection_volume(f, f) == pytest.approx(1.0)


def test_projection_orthogonal_lines():
    f = Frame(np.array([[1.0, 0.0]]))
    g = Frame(np.array([[0.0, 1.0]]))
    assert frame_projection_volume(f, g) == pytest.approx(0.0, abs=1e-15)


def test_projection_line_angle():
    for t in np.linspace(0, 2 * np.pi, 17):
        f = Frame(np.array([[np.cos(t), np.sin(t)]]))
        g = Frame(np.array([[1.0, 0.0]]))
        assert frame_projection_volume(f, g) == pytest.approx(abs(np.cos(t)), abs=1e-12)


def test_projection_symmetry_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(p, 7))
        f = sample_stiefel(p, d, rng)
        g = sample_stiefel(p, d, rng)
        a = frame_projection_volume(f, g)
        b = frame_projection_volume(g, f)
        assert abs(a - b) < 1e-12
        assert -1e-12 <= a <= 1.0 + 1e-12


def test_projection_dimension_mismatch():
    f = Frame(np.eye(2))
    g = Frame(np.eye(3)[:2])
    with pytest.raises(ValueError):
        frame_projection_volume(f, g)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**9))
def test_cauchy_binet(d, seed):
    # sum of squared p-minors over all coordinate p-subsets is 1
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, d + 1))
    f = sample_stiefel(p, d, rng).rows
    total = 0.0
    for cols in itertools.combinations(range(d), p):
        total += np.linalg.det(f[:, cols]) ** 2
    assert abs(total - 1.0) < 1e-9


# ---------------- orthonormalize ----------------

def test_orthonormalize_axis_scaled():
    f = orthonormalize(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert np.allclose(f.rows, np.eye(2), atol=1e-15)


def test_orthonormalize_diagonal():
    f = orthonormalize(np.array([[1.0, 1.0, 0.0]]))
    assert np.allclose(f.rows, [[1 / np.sqrt(2), 1 / np.sqrt(2), 0.0]])


def test_orthonormalize_gram_schmidt():
    f = orthonormalize(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(np.abs(f.rows), np.eye(2), atol=1e-12)
    assert np.allclose(f.rows[0], [1.0, 0.0])


def test_orthonormalize_rank_deficient():
    with pytest.raises(ValueError, match="rank deficient"):
        orthonormalize(np.array([[1.0, 1.0], [2.0, 2.0]]))


def test_orthonormalize_spans_same_subspace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, d = 2, 5
        v = rng.standard_normal((p, d))
        f = orthonormalize(v)
        # each input vector reconstructs from the frame
        coef = v @ f.rows.T
        assert np.linalg.norm(coef @ f.rows - v) < 1e-9


def sign_fixed_qr(v):
    """Rows of the Householder QR of v^T with the R diagonal made positive,
    the LAPACK reference for orthonormalize."""
    q, r = np.linalg.qr(v.T)
    return (q * np.sign(np.diag(r))).T


def test_orthonormalize_matches_sign_fixed_qr():
    # both are backward stable, so the frames differ by a small multiple of
    # cond(v) * eps, also on thin inputs whose second row nearly repeats
    # the first
    rng = np.random.default_rng(4)
    cases = []
    for _ in range(200):
        d = int(rng.integers(1, 7))
        cases.append(rng.standard_normal((int(rng.integers(1, d + 1)), d)))
    for t in (1e-3, 1e-6, 1e-9):
        for d in range(2, 7):
            v = rng.standard_normal((2, d))
            v[1] = v[0] + t * rng.standard_normal(d)
            cases.append(v)
    for v in cases:
        err = np.max(np.abs(orthonormalize(v).rows - sign_fixed_qr(v)))
        assert err <= 1e-13 * np.linalg.cond(v)
    for v in (np.zeros((1, 3)), np.ones((4, 3))):
        with pytest.raises(ValueError, match="rank deficient"):
            orthonormalize(v)


# ---------------- polygon helpers ----------------

def test_polygon_disk_area_exact():
    # big square clipped to unit disk: area pi; tiny square: own area
    big = np.array([[-2, -2], [2, -2], [2, 2], [-2, 2]], dtype=float)
    assert polygon_disk_area(big, np.zeros(2), 1.0) == pytest.approx(np.pi, rel=1e-12)
    small = 0.1 * big
    assert polygon_disk_area(small, np.zeros(2), 1.0) == pytest.approx(
        polygon_area(small), rel=1e-12)


def test_polygon_disk_area_half_plane_limit():
    # square [0,2]x[-2,2] against unit disk centered origin: half disk
    sq = np.array([[0, -2], [2, -2], [2, 2], [0, 2]], dtype=float)
    assert polygon_disk_area(sq, np.zeros(2), 1.0) == pytest.approx(np.pi / 2, rel=1e-12)


def test_polygon_disk_area_orientation_free():
    sq = np.array([[0, -2], [2, -2], [2, 2], [0, 2]], dtype=float)
    a1 = polygon_disk_area(sq, np.zeros(2), 1.0)
    a2 = polygon_disk_area(sq[::-1], np.zeros(2), 1.0)
    assert a1 == pytest.approx(a2, rel=1e-14)
    rng = np.random.default_rng(12)
    for _ in range(20):
        pts = rng.normal(size=(8, 2))
        poly = pts[ConvexHull(pts).vertices]
        a1 = polygon_disk_area(poly, np.zeros(2), 0.8)
        a2 = polygon_disk_area(poly[::-1], np.zeros(2), 0.8)
        assert a1 == pytest.approx(a2, rel=1e-14)


def one_disk_area(poly, center=(0.0, 0.0), radius=1.0):
    poly = np.asarray(poly, dtype=float)
    return polygon_disk_areas(poly, [0, len(poly)], np.asarray(center), radius)[0]


def test_polygon_disk_areas_disjoint_and_containing_are_exact():
    # the sectors of these polygons add up to 0 and pi r^2 only up to
    # round-off; without a chord piece the result is exact
    t = np.linspace(0.0, 2.0 * np.pi, 8)[:-1]
    hept = 7.0 * np.column_stack([np.cos(t), np.sin(t)])
    center = (1.1, -0.4)
    assert one_disk_area(hept + [21.0, 0.3], center, 1.3) == 0.0
    assert one_disk_area(hept, center, 1.3) == np.pi * 1.3 ** 2
    assert one_disk_area(hept[::-1], center, 1.3) == np.pi * 1.3 ** 2


def test_polygon_disk_areas_tangent_edges():
    sq = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    # every edge touches the circle: the square contains the disk
    assert one_disk_area(sq) == np.pi
    # touching from outside: no area
    assert one_disk_area(sq + [2.0, 0.0]) == 0.0
    # two tangent edges and one chord through the center: a half disk
    half = np.array([[0, -1], [2, -1], [2, 1], [0, 1]], dtype=float)
    assert one_disk_area(half) == pytest.approx(np.pi / 2, rel=1e-14)


def test_polygon_disk_areas_repeated_vertex():
    tri = np.array([[-0.5, -0.5], [1.5, 0.0], [0.0, 1.2]])
    ref = one_disk_area(tri)
    for j in range(3):
        assert one_disk_area(np.insert(tri, j, tri[j], axis=0)) == pytest.approx(
            ref, rel=1e-14)


def test_polygon_disk_areas_batch_equals_single_calls():
    rng = np.random.default_rng(13)
    polys = [np.zeros((0, 2)), rng.normal(size=(2, 2))]
    for k in (3, 4, 5, 7, 8, 9, 12, 3, 16):
        pts = rng.normal(size=(k + 4, 2)) * rng.uniform(0.2, 2.0) + rng.normal(size=2)
        poly = pts[ConvexHull(pts).vertices]
        polys.append(poly if rng.random() < 0.5 else poly[::-1])
    polys.append(np.zeros((0, 2)))
    center = np.array([0.2, -0.1])
    indptr = np.concatenate([[0], np.cumsum([len(p) for p in polys])])
    batch = polygon_disk_areas(np.concatenate(polys), indptr, center, 1.1)
    single = [polygon_disk_area(p, center, 1.1) for p in polys]
    assert batch.tolist() == single
    assert batch[0] == batch[1] == batch[-1] == 0.0
    assert np.all((0.0 < batch[2:-1]) & (batch[2:-1] <= np.pi * 1.1 ** 2))


def test_polygon_disk_area_montecarlo_crosscheck():
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.uniform(-1, 1, size=(3, 2)) * 1.5
        if polygon_area(v) < 0.1:
            continue
        exact = polygon_disk_area(v, np.zeros(2), 1.0)
        pts = rng.uniform(-1.5, 1.5, size=(200000, 2))
        signed = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        sv = v if signed > 0 else v[::-1]
        inside = np.ones(len(pts), dtype=bool)
        for i in range(3):
            e = sv[(i + 1) % 3] - sv[i]
            inside &= (pts - sv[i])[:, 0] * e[1] - (pts - sv[i])[:, 1] * e[0] <= 0
        inside &= np.einsum("ij,ij->i", pts, pts) <= 1.0
        mc = inside.mean() * 9.0
        assert abs(mc - exact) < 5 * 9.0 * np.sqrt(max(inside.mean(), 1e-9) / 200000) + 1e-3
