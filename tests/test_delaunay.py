import gc
import json
import weakref
from itertools import combinations, islice

import numpy as np
import pytest

from voroscape import delaunay
from voroscape.delaunay import (Mosaic, build_mosaic,
                                clipped_voronoi_volumes, export_mosaic_json,
                                nearest_site, pivot_point,
                                validate_empty_sphere, voronoi_dual)
from voroscape.errors import DegenerateInputError
from voroscape.geometry import circumsphere
from voroscape.pointproc import (Window, poisson, sample, unit_box_window,
                                 window_volume)

TRIANGLE = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])


def poisson_mosaic(d, rho, seed):
    pts = sample(poisson(rho), unit_box_window(d), seed)
    return build_mosaic(pts), pts


# ---------------- construction ----------------

def test_triangle_counts():
    m = build_mosaic(TRIANGLE)
    assert m.n_cells(0) == 3 and m.n_cells(1) == 3 and m.n_cells(2) == 1


def test_square_jitter_two_triangles():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = pts + 1e-4 * np.array([[0.3, 0.1], [-0.2, 0.4], [0.1, -0.3], [0.2, 0.2]])
    m = build_mosaic(pts)
    assert m.n_cells(2) == 2
    assert len(set(m.cells[2][0]) & set(m.cells[2][1])) == 2  # shared diagonal


def test_random_instance_empty_sphere():
    m, _ = poisson_mosaic(2, 50, 0)
    assert validate_empty_sphere(m)


def test_collinear_rejected():
    pts = np.column_stack([np.arange(5.0), np.zeros(5)])
    with pytest.raises(DegenerateInputError, match="degenerate configuration"):
        build_mosaic(pts)


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        build_mosaic(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_high_dim_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_mosaic(rng.uniform(size=(20, 5)))


def test_matches_scipy_reference():
    from scipy.spatial import Delaunay
    pts = sample(poisson(200), unit_box_window(2), 3)
    m = build_mosaic(pts)
    ref = {tuple(sorted(s)) for s in Delaunay(pts).simplices.tolist()}
    got = {tuple(r) for r in m.cells[2].tolist()}
    assert got == ref


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("offset", [1e3, 1e4, 1e5, 1e6])
def test_translated_sites_keep_their_tops(d, offset):
    # lifting uncentered coordinates loses the lower hull to round-off:
    # 1e3 changes the 2D triangulation, 1e5 makes it look degenerate
    pts = sample(poisson(1000), unit_box_window(d), 3)
    ref = build_mosaic(pts).cells[d]
    assert np.array_equal(build_mosaic(pts + offset).cells[d], ref)


def reference_lattice(tops):
    """cells, cofaces and top_faces per k by 2-D unique over the sub-face
    rows of every top, the enumeration the packed keys replace."""
    d, n_tops = tops.shape[1] - 1, len(tops)
    out = {d: (tops, (np.arange(n_tops + 1), np.arange(n_tops)),
               np.arange(n_tops)[:, None])}
    for k in range(d):
        subs = list(combinations(range(d + 1), k + 1))
        stacked = np.concatenate([tops[:, s] for s in subs])
        owners = np.tile(np.arange(n_tops), len(subs))
        uniq, inv = np.unique(stacked, axis=0, return_inverse=True)
        inv = inv.ravel()
        order = np.argsort(inv, kind="stable")
        indptr = np.searchsorted(inv[order], np.arange(len(uniq) + 1))
        out[k] = (uniq, (indptr, owners[order]), inv.reshape(len(subs), n_tops).T)
    return out


def check_lattice(m):
    d, pts = m.d, m.sites
    ref = reference_lattice(m.cells[d])
    for k in range(d + 1):
        cells, (indptr, tops), top_faces = ref[k]
        assert np.array_equal(m.cells[k], cells)
        assert np.array_equal(m.cells.cofaces(k)[0], indptr)
        assert np.array_equal(m.cells.cofaces(k)[1], tops)
        assert np.array_equal(m.cells.top_faces(k), top_faces)
        if k:
            below = {tuple(r): i for i, r in enumerate(ref[k - 1][0].tolist())}
            facets = [[below[tuple(r[:q] + r[q + 1:])] for q in range(k + 1)]
                      for r in cells.tolist()]
            assert np.array_equal(m.facets(k), np.array(facets).reshape(-1, k + 1))
        for i, row in enumerate(cells.tolist()):
            assert m.cell_index(k, row) == i
    absent = [(len(pts),), (0, 0), (1, 0), (-1, 0), (0,) * (d + 2)]
    for k in (d - 1, d):
        present = set(map(tuple, m.cells[k].tolist()))
        rows = (r for r in combinations(range(len(pts)), k + 1) if r not in present)
        absent += list(islice(rows, 3))
    for row in absent:
        with pytest.raises(KeyError):
            m.cell_index(len(row) - 1, row)


@pytest.mark.parametrize("d, rho", [(1, 60), (2, 300), (3, 300), (4, 120)])
def test_lattice_matches_reference(d, rho):
    check_lattice(build_mosaic(sample(poisson(rho), unit_box_window(d), d)))


@pytest.mark.parametrize("d, n", [(2, 400), (3, 250)])
def test_tie_heavy_lattice_matches_reference(d, n):
    # a center site on every top: sites on a circle or sphere around it, so
    # one vertex key repeats n (2D) or about 2n (3D) times in its level
    if d == 2:
        t = 2.0 * np.pi * np.arange(n) / n
        ring = np.column_stack([np.cos(t), np.sin(t)])
    else:
        z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
        t = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)
        ring = np.column_stack([np.sqrt(1.0 - z * z) * np.cos(t),
                                np.sqrt(1.0 - z * z) * np.sin(t), z])
    pts = np.vstack([ring[: n // 2], np.zeros((1, d)), ring[n // 2:]])
    m = build_mosaic(pts)
    assert np.diff(m.cells.cofaces(0)[0])[n // 2] == m.n_cells(d) >= n
    check_lattice(m)


@pytest.mark.parametrize("n, low, high", [
    (0, 0, 5), (1, 0, 5), (2, 0, 1), (7, 0, 2), (500, 0, 3), (500, 0, 10 ** 15),
    (3000, 0, 40), (500, 0, 2 ** 62), (3000, 2 ** 62, 2 ** 62 + 40)])
def test_sort_runs_is_the_stable_argsort(n, low, high):
    # keys above 2**63 / n take the argsort and the run tie-break
    keys = np.random.default_rng([n, 1]).integers(low, high, n)
    order, new = delaunay._sort_runs(keys)
    ref = np.argsort(keys, kind="stable")
    assert order.dtype == ref.dtype and np.array_equal(order, ref)
    s = keys[ref]
    assert np.array_equal(new, np.r_[True, s[1:] != s[:-1]][:n])


@pytest.mark.parametrize("n, c, high", [(0, 3, 5), (1, 3, 5), (1, 1, 9), (400, 1, 7),
                                        (600, 2, 4), (600, 3, 3), (600, 5, 2 ** 31 - 1),
                                        (600, 4, 2 ** 20)])
def test_row_order_is_lexsort(n, c, high):
    # small ranges repeat rows; 2**31 - 1 and 2**20 force the dense-rank step
    rows = np.random.default_rng([n, c]).integers(0, high, (n, c)).astype(np.int32)
    rows = np.concatenate([rows, rows[::3]]) if n > 1 else rows
    order, new = delaunay._row_order(rows)
    ref = np.lexsort(rows.T[::-1])
    assert np.array_equal(order, ref)
    s = rows[ref]
    assert np.array_equal(new, np.r_[True, np.any(s[1:] != s[:-1], axis=1)][:len(rows)])


def test_face_keys_limit_checked_before_qhull(monkeypatch):
    def no_hull(*args, **kwargs):
        raise RuntimeError("hull computed")
    monkeypatch.setattr(delaunay, "ConvexHull", no_hull)
    pts = np.random.default_rng(0).uniform(size=(55109, 4))
    with pytest.raises(ValueError, match="packed face keys"):
        build_mosaic(pts)
    with pytest.raises(RuntimeError, match="hull computed"):
        build_mosaic(pts[:-1])   # 55108**4 < 2**63


def test_mosaic_freed_without_cycle_collector():
    # a reference cycle would keep every mosaic alive until a collection
    m, _ = poisson_mosaic(3, 200, 0)
    gc.disable()
    try:
        for k in range(m.d + 1):
            m.cells[k], m.cells.cofaces(k), m.circumcenters(k)
            if k:
                m.facets(k)
        m.boundary_mask(0), m.dual_volumes(0), m.reach(0)
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_cells_lexicographic_and_sorted_rows():
    m, _ = poisson_mosaic(2, 100, 1)
    for k, rows in m.cells.items():
        assert np.all(rows[:, :-1] < rows[:, 1:])  # each row sorted
        order = np.lexsort(rows.T[::-1])
        assert np.array_equal(order, np.arange(len(rows)))


def test_incidences_both_directions():
    m, _ = poisson_mosaic(2, 80, 2)
    tops = m.cells[2]
    for k in (0, 1):
        for idx in range(m.n_cells(k)):
            face = set(m.cells[k][idx].tolist())
            cof = m.cofaces_of(k, idx)
            for t in cof:
                assert face <= set(tops[t].tolist())
        # reverse: every top containing the face is listed
        for t, row in enumerate(tops):
            row = set(row.tolist())
            for idx in range(m.n_cells(k)):
                if set(m.cells[k][idx].tolist()) <= row:
                    assert t in m.cofaces_of(k, idx)


def test_every_low_cell_has_a_top_coface():
    for seed in range(3):
        m, _ = poisson_mosaic(2, 60, seed)
        for k in range(m.d):
            for idx in range(m.n_cells(k)):
                assert len(m.cofaces_of(k, idx)) >= 1


# ---------------- circumsphere data ----------------

def test_triangle_circumdata():
    m = build_mosaic(TRIANGLE)
    assert np.allclose(m.top_circumcenters[0], [1.0, 0.75], atol=1e-12)
    assert m.top_circumradii[0] == pytest.approx(1.25, rel=1e-12)


def test_thin_triangle_keeps_its_area():
    m = build_mosaic(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-6], [0.5, 1.0]]))
    assert m.cell_volume(2, m.cell_index(2, (0, 1, 2))) == pytest.approx(5e-7, rel=1e-9)


def test_flipped_diagonal_fails_validation():
    # strictly convex, non-cocircular quad: the anti-Delaunay diagonal must
    # be rejected by the brute-force empty-sphere check
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.1, 1.3], [-0.2, 1.0]])
    m = build_mosaic(pts)
    assert validate_empty_sphere(m)
    good = {tuple(r) for r in m.cells[2].tolist()}
    other = {(0, 1, 2), (0, 2, 3)} if good != {(0, 1, 2), (0, 2, 3)} \
        else {(0, 1, 3), (1, 2, 3)}
    flipped = np.array(sorted(other))
    centers, radii = [], []
    for tri in flipped:
        c, r = circumsphere(pts[tri])
        centers.append(c)
        radii.append(r)
    m.cells = dict(m.cells)
    m.cells[2] = flipped
    m.top_circumcenters = np.array(centers)
    m.top_circumradii = np.array(radii)
    assert not validate_empty_sphere(m)


def test_empty_sphere_single_cell_vacuous():
    m = build_mosaic(TRIANGLE)
    assert validate_empty_sphere(m)


# ---------------- duality ----------------

def test_dual_of_hull_edge_is_ray():
    m = build_mosaic(TRIANGLE)
    idx = m.cell_index(1, (0, 1))
    dual = voronoi_dual(m, 1, idx)
    assert not dual.bounded
    assert dual.vertices.shape == (1, 2)
    assert np.allclose(dual.vertices[0], [1.0, 0.75], atol=1e-12)
    assert dual.rays.shape == (1, 2)
    ray = dual.rays[0] / np.linalg.norm(dual.rays[0])
    assert np.allclose(ray, [0.0, -1.0], atol=1e-12)


def test_dual_of_top_cell_is_point():
    m = build_mosaic(TRIANGLE)
    dual = voronoi_dual(m, 2, 0)
    assert dual.bounded and dual.dim == 0
    assert np.allclose(dual.vertices[0], [1.0, 0.75])


def test_dual_of_interior_vertex_is_polygon():
    # center site of a 5-point configuration has a bounded Voronoi polygon
    pts = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    m = build_mosaic(pts)
    dual = voronoi_dual(m, 0, 0)
    assert dual.bounded and dual.dim == 2
    assert len(dual.vertices) >= 3


def test_duality_dimension_orthogonality_pivot():
    """dim + dim = d; aff(cell) perpendicular to aff(dual); pivot agrees from
    both sides. Checked on every cell of several mosaics in d=2,3."""
    for d, rho, seed in ((2, 120, 0), (2, 120, 1), (3, 250, 0)):
        m, pts = poisson_mosaic(d, rho, seed)
        for k in range(d + 1):
            for idx in range(m.n_cells(k)):
                dual = voronoi_dual(m, k, idx)
                if dual.bounded:
                    assert dual.dim == d - k
                basis = dual.direction_basis().rows
                cell_dirs = pts[m.cells[k][idx]]
                cell_basis = (cell_dirs[1:] - cell_dirs[0])
                if len(cell_basis) and len(basis):
                    inner = cell_basis @ basis.T
                    assert np.max(np.abs(inner)) < 1e-8 * max(
                        1.0, np.abs(cell_basis).max())
                z0 = pivot_point(m, k, idx, dual=dual, check=True)  # 1e-7 gate
                assert z0.shape == (d,)


def test_dual_basis_computed_once(monkeypatch):
    # dim, direction_basis and the pivot check share one dual-side SVD; the
    # pivot's cell side adds one more for k > 0
    calls = []
    real = delaunay.affine_basis

    def counted(pts):
        calls.append(len(pts))
        return real(pts)

    monkeypatch.setattr(delaunay, "affine_basis", counted)
    m, _ = poisson_mosaic(3, 100, 2)
    for k in range(4):
        for idx in range(0, m.n_cells(k), 7):
            calls.clear()
            dual = voronoi_dual(m, k, idx)
            if dual.bounded:
                assert dual.dim == 3 - k
            dual.direction_basis()
            pivot_point(m, k, idx, dual=dual, check=True)
            assert len(calls) == 1 + (k > 0)


def test_pivot_of_vertex_is_site():
    m, pts = poisson_mosaic(2, 40, 5)
    for i in range(m.n_cells(0)):
        z0 = pivot_point(m, 0, i)
        assert np.allclose(z0, pts[m.cells[0][i][0]])


# ---------------- nearest site ----------------

def test_nearest_site_basic():
    m = build_mosaic(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]))
    assert nearest_site(m, np.array([0.4, 0.0])) == 0


def test_nearest_site_tie_lowest_index():
    m = build_mosaic(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]))
    assert nearest_site(m, np.array([1.0, 0.0])) == 0


def test_nearest_site_matches_linear_scan():
    m, pts = poisson_mosaic(2, 300, 6)
    rng = np.random.default_rng(7)
    qs = rng.uniform(0, 1, size=(1000, 2))
    for q in qs:
        i = nearest_site(m, q)
        j = int(np.argmin(np.linalg.norm(pts - q, axis=1)))
        assert i == j


# ---------------- clipped partition ----------------

def test_voronoi_partition_box_2d():
    m, _ = poisson_mosaic(2, 400, 10)
    w = Window("box", np.full(2, 0.5), 0.3)
    vols = clipped_voronoi_volumes(m, w)
    assert abs(vols.sum() - window_volume(w)) < 1e-6 * window_volume(w)


def test_voronoi_partition_ball_2d():
    m, _ = poisson_mosaic(2, 400, 11)
    w = Window("ball", np.full(2, 0.5), 0.3)
    vols = clipped_voronoi_volumes(m, w)
    assert abs(vols.sum() - window_volume(w)) < 1e-9 * window_volume(w)
    # windows that leave the site hull clip unbounded cells, so the points
    # placed along their rays decide the result
    for center in ((0.5, -0.1), (1.05, 1.05)):
        w = Window("ball", np.array(center), 0.3)
        vols = clipped_voronoi_volumes(m, w)
        assert np.count_nonzero(vols[m.boundary_mask(0)]) >= 2
        assert abs(vols.sum() - window_volume(w)) < 1e-9 * window_volume(w)
    # every cell of three sites is unbounded
    w = Window("ball", np.array([1.0, 0.7]), 30.0)
    vols = clipped_voronoi_volumes(build_mosaic(TRIANGLE), w)
    assert vols[0] == pytest.approx(vols[1], rel=1e-12)
    assert abs(vols.sum() - window_volume(w)) < 1e-9 * window_volume(w)


def test_voronoi_partition_box_3d():
    m, _ = poisson_mosaic(3, 500, 12)
    w = Window("box", np.full(3, 0.5), 0.25)
    vols = clipped_voronoi_volumes(m, w)
    assert abs(vols.sum() - window_volume(w)) < 1e-6 * window_volume(w)


# ---------------- containment and export ----------------

def test_contains():
    m = build_mosaic(TRIANGLE)
    assert m.contains(np.array([1.0, 0.5]))
    assert not m.contains(np.array([-1.0, -1.0]))


def test_site_hull_built_on_first_read(monkeypatch):
    # build_mosaic runs Qhull on the lifted sites only; the site hull waits
    # for its first reader
    dims = []
    real = delaunay.ConvexHull

    def counting(points, *args, **kwargs):
        dims.append(np.shape(points)[1])
        return real(points, *args, **kwargs)

    monkeypatch.setattr(delaunay, "ConvexHull", counting)
    m, _ = poisson_mosaic(2, 200, 14)
    assert dims == [3]
    assert m.contains(np.full(2, 0.5)) and not m.contains(np.full(2, 1.5))
    assert dims == [3, 2]
    assert len(voronoi_dual(m, 0, int(np.argmin(m.sites[:, 0]))).rays) == 2
    assert dims == [3, 2]
    line = build_mosaic(np.array([[0.0], [3.0], [1.0]]))
    assert line.contains(np.array([2.0])) and not line.contains(np.array([-0.5]))
    assert dims == [3, 2, 2]


@pytest.mark.parametrize("d", [2, 3])
def test_translated_sites_lie_in_their_hull(d):
    # far from the origin the raw-coordinate facet planes round off by more
    # than the containment tolerance; the hull is built on centered sites
    for seed in range(5):
        pts = sample(poisson(300), unit_box_window(d), seed) + 1e6
        m = build_mosaic(pts)
        assert all(m.contains(x) for x in m.sites)


def test_export_schema_and_determinism(tmp_path):
    m, pts = poisson_mosaic(2, 60, 13)
    doc = json.loads(export_mosaic_json(m))
    assert doc["d"] == 2
    assert len(doc["sites"]) == len(pts)
    assert set(doc["cells"]) == {"0", "1", "2"}
    assert len(doc["circumcenters"]) == m.n_cells(2)
    rows = doc["cells"]["1"]
    assert rows == sorted(rows)  # lexicographic by sorted vertex indices
    # same input, fresh build: identical document
    again = export_mosaic_json(build_mosaic(pts))
    assert again == export_mosaic_json(m)
    out = tmp_path / "mosaic.json"
    export_mosaic_json(m, out)
    assert json.loads(out.read_text()) == doc
