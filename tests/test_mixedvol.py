import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from voroscape import mixedvol
from voroscape.delaunay import (PIVOT_TOL, build_mosaic,
                                clipped_voronoi_volumes, pivot_point,
                                voronoi_dual)
from voroscape.geometry import simplex_volume
from voroscape.mixedvol import (ball_sum, mixed_volume_sum, partition_sum,
                                regularity_report)
from voroscape.pointproc import (Window, lattice, poisson, sample,
                                 unit_ball_volume, unit_box_window)

ROOT = Path(__file__).resolve().parents[1]
TRIANGLE = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])


def ball_mosaic(d, rho, radius, seed):
    w = Window("ball", np.zeros(d), radius)
    pts = sample(poisson(rho), w, seed)
    return build_mosaic(pts), pts


def qhull_dual_volume(m, k, idx):
    """Reference volume of a bounded dual: Qhull on its vertices in the
    coordinates of its own (d-k)-dimensional affine hull."""
    v = voronoi_dual(m, k, idx).vertices
    n = m.d - k
    if n == 0:
        return 1.0
    coords = (v - v[0]) @ np.linalg.svd(v - v[0])[2][:n].T
    return float(np.ptp(coords)) if n == 1 else ConvexHull(coords).volume


def pair(m, p, idx, R):
    """(mixed volume, pivot z0, reach R0, boundary) of one p-cell against
    B(0, R), as the ball sums read it from _pairs."""
    mixed, z0, R0 = mixedvol._pairs(m, p, np.array([idx]))
    return mixed[0], z0[0], R0[0], bool(np.linalg.norm(z0[0]) + R0[0] >= R)


def reference_pair(m, p, idx, R):
    """(mixed volume, boundary) of a p-cell against B(0, R), from the Qhull
    dual volume and the brute-force reach: the largest distance from a cell
    vertex to a dual vertex. Unbounded duals give (None, True)."""
    dual = voronoi_dual(m, p, idx)
    if not dual.bounded:
        return None, True
    gamma = m.sites[m.cells[p][idx]]
    R0 = np.linalg.norm(gamma[:, None, :] - dual.vertices[None, :, :], axis=2).max()
    z0 = pivot_point(m, p, idx, dual)
    mixed = simplex_volume(gamma) * qhull_dual_volume(m, p, idx)
    return mixed, bool(np.linalg.norm(z0) + R0 >= R)


# ---------------- dual volumes ----------------

def test_thin_pyramids_count_in_3d_dual_volume():
    # a large 3D Voronoi cell whose cones over some facets are long and thin;
    # a fan that drops thin simplices reports 133.71 here
    m = build_mosaic(sample(poisson(1000), unit_box_window(3), 3))
    ref = qhull_dual_volume(m, 0, 476)
    assert ref == pytest.approx(338.66, abs=0.01)
    assert pair(m, 0, 476, 0.3)[0] == pytest.approx(ref, rel=1e-6)


def test_dual_volumes_match_qhull_and_circumcenters_are_pivots():
    for d, rho in ((2, 2000), (3, 1000)):
        m = build_mosaic(sample(poisson(rho), unit_box_window(d), 3))
        for k in range(d + 1):
            vols = m.dual_volumes(k)
            hull = m.boundary_mask(k)
            assert np.all(np.isinf(vols[hull])) and np.all(np.isfinite(vols[~hull]))
            for idx in np.nonzero(~hull)[0][::13]:
                assert vols[idx] == pytest.approx(qhull_dual_volume(m, k, idx), rel=1e-6)
                z0 = pivot_point(m, k, int(idx), check=True)
                assert np.linalg.norm(m.circumcenters(k)[idx] - z0) <= PIVOT_TOL


# ---------------- tile measure ----------------

def test_tile_measure_extreme_dims():
    # C(d, p) = 1 at p = 0 and p = d, so a pair's tile measure is its mixed
    # volume: the Voronoi cell's volume at p = 0, the top's area at p = d
    m, _ = ball_mosaic(2, 800, 0.5, 0)
    if voronoi_dual(m, 0, 40).bounded:
        assert pair(m, 0, 40, 0.4)[0] == pytest.approx(qhull_dual_volume(m, 0, 40))
    assert pair(m, 2, 10, 0.4)[0] == pytest.approx(m.cell_volume(2, 10))
    assert voronoi_dual(m, 2, 10).bounded  # dual of a top cell is its circumcenter


def test_infinite_tile():
    # a hull edge's dual is unbounded: its pair's mixed volume, so its tile,
    # and its reach are infinite, and it is a boundary pair
    m = build_mosaic(TRIANGLE)
    idx = m.cell_index(1, (0, 1))
    assert not voronoi_dual(m, 1, idx).bounded
    mixed, _, R0, boundary = pair(m, 1, idx, 10.0)
    assert boundary and np.isinf(mixed) and np.isinf(R0)


def test_hull_pairs_are_infinite_boundary_pairs():
    # a ball reaching past the site hull holds hull p-cells (p < d), whose
    # unbounded duals give their pairs an infinite mixed volume and reach
    m, _ = ball_mosaic(2, 500, 0.5, 11)
    site = int(np.nonzero(m.boundary_mask(0))[0][0])
    mixed, _, R0, boundary = pair(m, 0, site, 0.6)
    assert boundary and np.isinf(mixed) and np.isinf(R0)
    for p in (0, 1):
        outside = mixed_volume_sum(m, p, 0.6)
        assert np.isinf(outside.sum_boundary) and np.isfinite(outside.sum_interior)
        assert np.isfinite(mixed_volume_sum(m, p, 0.3).sum_boundary)
    assert np.isfinite(mixed_volume_sum(m, 2, 0.6).sum_boundary)


def test_mixed_complex_scaling_identity():
    # Vol(0.5 gamma x 0.5 dual) = mixed / 2^d, exact in floating point
    m, _ = ball_mosaic(2, 500, 0.5, 1)
    d = 2
    for p in (0, 1, 2):
        for idx in range(0, m.n_cells(p), 17):
            if not voronoi_dual(m, p, idx).bounded:
                continue
            mixed = pair(m, p, idx, 0.4)[0]
            gamma_vol = m.cell_volume(p, idx)
            dual_vol = mixed / gamma_vol if gamma_vol > 0 else 0.0
            lhs = (gamma_vol / 2.0 ** p) * (dual_vol / 2.0 ** (d - p))
            assert lhs == mixed / 2.0 ** d


def test_pivot_within_reach_of_all_vertices():
    # R0 must dominate the distance from z0 to every vertex of both cells
    m, pts = ball_mosaic(2, 300, 0.5, 2)
    for p in (0, 1, 2):
        for idx in range(0, m.n_cells(p), 11):
            dual = voronoi_dual(m, p, idx)
            if not dual.bounded:
                continue
            _, z0, R0, _ = pair(m, p, idx, 0.4)
            for v in pts[m.cells[p][idx]]:
                assert np.linalg.norm(z0 - v) <= R0 + 1e-9
            for v in dual.vertices:
                assert np.linalg.norm(z0 - v) <= R0 + 1e-9


# ---------------- ball sums ----------------

def test_report_schema():
    m, _ = ball_mosaic(2, 2000, 0.5, 3)
    rep = mixed_volume_sum(m, 1, 0.3, seed=3)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"d", "p", "R", "sum_interior", "sum_boundary",
                        "predicted", "ratio", "n_cells", "n_boundary", "seed"}
    assert doc["predicted"] == pytest.approx(
        unit_ball_volume(2) * comb(2, 1) * 0.3 ** 2)
    assert doc["ratio"] == pytest.approx(doc["sum_interior"] / doc["predicted"])
    assert doc["seed"] == 3


def assert_sum_matches_reference(m, p, R):
    rep = mixed_volume_sum(m, p, R)
    dist = np.linalg.norm(m.sites, axis=1)
    keep = np.nonzero(np.all(dist[m.cells[p]] <= R, axis=1))[0]
    interior = 0.0
    n_bnd = 0
    for idx in keep:
        mixed, boundary = reference_pair(m, p, int(idx), R)
        if boundary:
            n_bnd += 1
        else:
            interior += mixed
    assert rep.n_cells == len(keep)
    assert rep.n_boundary == n_bnd < len(keep)
    assert rep.sum_interior == pytest.approx(interior, rel=1e-9)


def test_mixed_sum_matches_qhull_reference():
    # the vectorized sum against per-cell Qhull volumes and brute-force reach
    m, _ = ball_mosaic(2, 1500, 0.5, 4)
    assert_sum_matches_reference(m, 1, 0.3)
    m, _ = ball_mosaic(3, 2000, 0.5, 4)
    for p in range(4):
        assert_sum_matches_reference(m, p, 0.3)
def test_partition_identities():
    m, _ = ball_mosaic(2, 3000, 0.5, 5)
    for p in (0, 2):
        rep = partition_sum(m, p, 0.35)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)


def test_p0_interior_sum_matches_clipped_partition():
    """Interior p=0 mixed volumes are whole Voronoi cells; the clipped
    partition must give those cells their Qhull volume, and the interior
    sum must match the reference. 3D clips a box window."""
    R = 0.3
    for d, rho, kind in ((2, 2000, "ball"), (3, 2000, "box")):
        m, pts = ball_mosaic(d, rho, 0.5, 6)
        clipped = clipped_voronoi_volumes(m, Window(kind, np.zeros(d), R))
        interior = 0.0
        checked = 0
        for idx in np.nonzero(np.linalg.norm(pts, axis=1) <= R)[0]:
            mixed, boundary = reference_pair(m, 0, int(idx), R)
            if boundary:
                continue
            assert clipped[idx] == pytest.approx(mixed, rel=1e-9)
            interior += mixed
            checked += 1
        assert checked > 20
        assert mixed_volume_sum(m, 0, R).sum_interior == pytest.approx(interior, rel=1e-9)
def test_predictions_symmetric_in_p():
    m, _ = ball_mosaic(2, 1000, 0.5, 7)
    r0 = mixed_volume_sum(m, 0, 0.3)
    r2 = mixed_volume_sum(m, 2, 0.3)
    assert r0.predicted == pytest.approx(r2.predicted)  # C(d,p) symmetry


def test_structural_duality_bijection():
    # each p-cell owns exactly one dual cell of complementary dimension
    m, _ = ball_mosaic(2, 200, 0.5, 8)
    for p in (0, 1, 2):
        seen = set()
        for idx in range(m.n_cells(p)):
            dual = voronoi_dual(m, p, idx)
            if dual.bounded:
                assert dual.dim == 2 - p
            seen.add((p, idx))
        assert len(seen) == m.n_cells(p)


def test_ratio_approaches_one():
    # modest density: the interior ratio should sit well inside (0.8, 1.02)
    m, _ = ball_mosaic(2, 8000, 0.5, 9)
    rep = mixed_volume_sum(m, 1, 0.3)
    assert 0.8 < rep.ratio < 1.02
    assert rep.n_boundary < rep.n_cells


# ---------------- local mosaics ----------------

def count_builds(monkeypatch):
    """Site counts of the mosaics ball_sum builds, in build order."""
    sizes = []

    def counting(points, d=None):
        sizes.append(len(points))
        return build_mosaic(points, d)

    monkeypatch.setattr(mixedvol, "build_mosaic", counting)
    return sizes


def assert_whole_mosaic_sum(pts, p, R, window, rep):
    m = build_mosaic(pts)
    whole = (partition_sum if p in (0, m.d) else mixed_volume_sum)(
        m, p, R, window.center)
    # bitwise, including an infinite sum_boundary
    assert (rep.ratio, rep.sum_boundary, rep.n_cells, rep.n_boundary) == (
        whole.ratio, whole.sum_boundary, whole.n_cells, whole.n_boundary)


@pytest.mark.parametrize("rho, seed", [(40000, 0), (40000, 1), (3000, 2),
                                       (3000, 3), (3000, 4)])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_ball_sum_equals_whole_mosaic_sum(monkeypatch, rho, seed, p):
    w = Window("ball", np.zeros(2), 0.5)
    pts = sample(poisson(rho), w, seed)
    sizes = count_builds(monkeypatch)
    rep = ball_sum(pts, p, 0.35, w)
    # one local mosaic, certified on its first build
    assert len(sizes) == 1 and sizes[0] < len(pts)
    assert_whole_mosaic_sum(pts, p, 0.35, w, rep)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_ball_sum_empty_annulus_rebuilds(monkeypatch, p):
    # no site between R and R + 0.1: the first local mosaic ends at the
    # ball, so its hull cuts the sum and the pad must grow
    R, w = 0.35, Window("ball", np.zeros(2), 0.5)
    pts = sample(poisson(10000), w, 5)
    r = np.linalg.norm(pts, axis=1)
    pts = pts[(r <= R) | (r >= R + 0.1)]
    sizes = count_builds(monkeypatch)
    rep = ball_sum(pts, p, R, w)
    assert len(sizes) > 1
    assert_whole_mosaic_sum(pts, p, R, w, rep)


def test_ball_sum_small_first_pad_retries(monkeypatch):
    # a first pad of one spacing cuts stars near the ball's edge, which only
    # the circumdisk test notices
    monkeypatch.setattr(mixedvol, "PAD_SPACINGS", 1.0)
    R, w = 0.35, Window("ball", np.zeros(2), 0.5)
    pts = sample(poisson(10000), w, 8)
    for p in (0, 1, 2):
        sizes = count_builds(monkeypatch)
        rep = ball_sum(pts, p, R, w)
        assert len(sizes) > 1 and sizes[-1] < len(pts)
        assert_whole_mosaic_sum(pts, p, R, w, rep)


@pytest.mark.parametrize("arc", [2.0 * np.pi, 0.5 * np.pi], ids=["ring", "quarter"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_ball_sum_local_hull_in_ball_falls_back(monkeypatch, arc, p):
    # sites only inside B(R), plus a sparse ring near the edge of a large
    # window: the first local mosaic is the inner sites alone. They end in
    # a convex polygon, so the hull lies in the ball while every circumdisk
    # stays well inside the padded ball, and only the hull test rejects the
    # mosaic. A ring over a quarter arc leaves the whole mosaic's hull
    # crossing the ball too.
    R, w = 0.35, Window("ball", np.zeros(2), 2.0)
    rng = np.random.default_rng(6)
    turn = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
    edge = (0.3 - 1e-4 * rng.random(60))[:, None] * np.column_stack(
        [np.cos(turn), np.sin(turn)])
    inner = np.vstack([sample(poisson(2000), Window("ball", np.zeros(2), 0.28), rng),
                       edge])
    angle = np.linspace(0.0, arc, 12, endpoint=False)
    pts = np.vstack([inner, 1.9 * np.column_stack([np.cos(angle), np.sin(angle)])])
    sizes = count_builds(monkeypatch)
    rep = ball_sum(pts, p, R, w)
    assert sizes == [len(inner), len(pts)]
    assert_whole_mosaic_sum(pts, p, R, w, rep)
    if p == 1:
        assert np.isinf(rep.sum_boundary) == (arc < np.pi)


def test_ball_sum_too_few_local_sites_grow_the_pad(monkeypatch):
    # two sites near the center, the rest near the window's edge: the first
    # local site set cannot be triangulated, which certifies nothing
    R, w = 0.1, Window("ball", np.zeros(2), 1.0)
    outer = sample(poisson(2000), w, 9)
    outer = outer[np.linalg.norm(outer, axis=1) > 0.9]
    pts = np.vstack([[[0.01, 0.02], [-0.03, 0.01]], outer])
    sizes = count_builds(monkeypatch)
    rep = ball_sum(pts, 1, R, w)
    assert sizes[0] == 2 and sizes[-1] == len(pts)
    assert_whole_mosaic_sum(pts, 1, R, w, rep)


def test_ball_sum_uses_whole_sample_when_pad_reaches_window(monkeypatch):
    # the first pad already reaches past the window radius 0.4
    R, w = 0.35, Window("ball", np.zeros(2), 0.4)
    pts = sample(poisson(3000), w, 7)
    sizes = count_builds(monkeypatch)
    rep = ball_sum(pts, 1, R, w)
    assert sizes == [len(pts)]
    assert_whole_mosaic_sum(pts, 1, R, w, rep)


# ---------------- regularity report ----------------

def test_regularity_three_sites_unbounded():
    m = build_mosaic(TRIANGLE)
    rep = regularity_report(m, 1.0)
    assert rep.unbounded_present
    assert not rep.regular


def test_regularity_lattice_circumradius_bound():
    # jittered lattice: interior circumradii stay near half the cell diagonal
    h = 0.1
    w = Window("box", np.full(2, 0.5), 0.5)
    pts = sample(lattice(h), w, 10)
    m = build_mosaic(pts)
    centers = m.top_circumcenters
    interior = np.all(np.abs(centers - 0.5) < 0.5 - h, axis=1)
    assert interior.sum() > 50
    assert m.top_circumradii[interior].max() <= h * np.sqrt(2) * (1 + 1e-2)


def test_regularity_boundary_share_trend():
    # boundary tile share per R^d drops as R doubles, averaged over seeds
    small, big = [], []
    for seed in range(4):
        m, _ = ball_mosaic(2, 2500, 0.5, 20 + seed)
        small.append(regularity_report(m, 0.15).boundary_tile_share[1])
        big.append(regularity_report(m, 0.30).boundary_tile_share[1])
    assert np.mean(big) < np.mean(small)


# ---------------- demo ----------------

def test_mixed_volume_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "05_mixed_volumes.py")],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert re.findall(r"p=[02]: .* ratio (\S+)", proc.stdout) == ["1.00000000"] * 2
