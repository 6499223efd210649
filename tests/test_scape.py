import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voroscape import delaunay, experiments, geometry, scape
from voroscape.delaunay import build_mosaic, lower_hull_simplices, nearest_site
from voroscape.errors import ConsistencyError, CoverageError, DegenerateInputError
from voroscape.geometry import Frame
from voroscape.moments import sample_stiefel
from voroscape.pointproc import lattice, poisson, sample, unit_box_window
from voroscape.scape import (Probe, ScapeEntry, distortion, flat_patch_probe,
                             power_nearest, project_weights, segment_probe,
                             voronoi_path, voronoi_scape_flat)

TRIANGLE = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])


def poisson_mosaic(d, rho, seed):
    pts = sample(poisson(rho), unit_box_window(d), seed)
    return build_mosaic(pts), pts


# ---------------- voronoi_path ----------------

def test_three_site_path():
    m = build_mosaic(TRIANGLE)
    s = voronoi_path(m, segment_probe([0.1, 0.1], [1.9, 0.1]))
    assert len(s.entries) == 1
    e = s.entries[0]
    assert e.sites == (0, 1) and e.multiplicity == 1
    assert s.total_volume == pytest.approx(2.0, rel=1e-12)


def test_segment_inside_one_cell_empty():
    m = build_mosaic(TRIANGLE)
    s = voronoi_path(m, segment_probe([0.1, 0.1], [0.3, 0.1]))
    assert s.entries == () and s.total_volume == 0.0


def test_v_shape_multiplicity_two():
    m = build_mosaic(TRIANGLE)
    probe = Probe("polyline", vertices=np.array([
        [0.6, 0.1], [1.4, 0.1], [0.6, 0.15]]))
    s = voronoi_path(m, probe)
    assert len(s.entries) == 1
    assert s.entries[0].sites == (0, 1)
    assert s.entries[0].multiplicity == 2
    assert s.total_volume == pytest.approx(4.0, rel=1e-12)


def test_probe_outside_coverage():
    m = build_mosaic(TRIANGLE)
    with pytest.raises(CoverageError, match="probe outside coverage"):
        voronoi_path(m, segment_probe([0.1, 0.1], [5.0, 0.1]))


def test_walk_matches_dense_nearest_site():
    # the walk's crossing sequence must reproduce dense nearest-site sampling
    m, pts = poisson_mosaic(2, 300, 0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.uniform(0.25, 0.75, size=2)
        b = rng.uniform(0.25, 0.75, size=2)
        s = voronoi_path(m, segment_probe(a, b))
        ts = np.linspace(0.0, 1.0, 1001)
        seq = [nearest_site(m, a + t * (b - a)) for t in ts]
        crossings = [(min(u, v), max(u, v))
                     for u, v in zip(seq, seq[1:]) if u != v]
        from collections import Counter
        assert Counter(crossings) == s.edge_multiset()


def test_path_total_volume_consistent():
    m, _ = poisson_mosaic(2, 200, 2)
    s = voronoi_path(m, segment_probe([0.3, 0.4], [0.7, 0.6]))
    total = sum(e.multiplicity * e.volume for e in s.entries)
    assert s.total_volume == pytest.approx(total, rel=1e-12)
    assert all(e.multiplicity >= 1 for e in s.entries)


def test_vertex_on_voronoi_face_perturbed():
    # probe vertex equidistant from sites 0 and 1 sits on a Voronoi edge;
    # the deterministic perturbation must dislodge it and still walk
    m = build_mosaic(TRIANGLE)
    s = voronoi_path(m, segment_probe([1.0, 0.1], [1.9, 0.1]))
    assert s.total_volume in (0.0, 2.0)  # either side is a legal dislodge
    assert s.perturbed


# ---------------- power diagram restriction ----------------

def test_weight_of_site_on_flat():
    m = build_mosaic(TRIANGLE)
    frame = Frame(np.array([[1.0, 0.0]]))
    ws = project_weights(m, frame, np.array([0.0, 0.0]))
    assert ws[0].weight == pytest.approx(0.0, abs=1e-15)  # site (0,0) on flat
    assert ws[0].point[0] == pytest.approx(0.0)


def test_weight_is_negative_squared_offset():
    sites = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, -1.0]])
    m = build_mosaic(sites)
    frame = Frame(np.array([[1.0, 0.0]]))
    ws = project_weights(m, frame, np.array([0.0, 0.0]))
    assert ws[0].point[0] == pytest.approx(3.0)
    assert ws[0].weight == pytest.approx(-16.0)


def test_power_identity_and_nearest_agreement():
    m, pts = poisson_mosaic(3, 400, 3)
    rng = np.random.default_rng(4)
    frame = sample_stiefel(2, 3, rng)
    base = np.array([0.5, 0.5, 0.5])
    ws = project_weights(m, frame, base)
    pts_flat = np.array([w.point for w in ws])
    wts = np.array([w.weight for w in ws])
    for _ in range(100):
        y = rng.uniform(-0.2, 0.2, size=2)
        x = base + y @ frame.rows
        # power distance identity: |x-a|^2 = |y-a'|^2 - a''
        amb = np.sum((pts - x) ** 2, axis=1)
        pw = np.sum((pts_flat - y) ** 2, axis=1) - wts
        assert np.allclose(amb, pw, rtol=1e-9, atol=1e-12)
        assert power_nearest(ws, y) == nearest_site(m, x)


# ---------------- voronoi_scape_flat ----------------

def test_cross_path_agreement_2d():
    m, _ = poisson_mosaic(2, 300, 5)
    a, b = np.array([0.3, 0.45]), np.array([0.7, 0.55])
    sp = voronoi_path(m, segment_probe(a, b))
    u = (b - a) / np.linalg.norm(b - a)
    sf = voronoi_scape_flat(m, flat_patch_probe(
        u[None, :], (a + b) / 2, "box", [np.linalg.norm(b - a) / 2]))
    assert sp.edge_multiset() == sf.edge_multiset()
    assert sp.total_volume == pytest.approx(sf.total_volume, rel=1e-12)


def test_cross_path_agreement_3d():
    m, _ = poisson_mosaic(3, 600, 6)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = sample_stiefel(1, 3, rng).rows[0]
        c = rng.uniform(0.35, 0.65, size=3)
        L = 0.2
        sp = voronoi_path(m, segment_probe(c - L / 2 * u, c + L / 2 * u))
        sf = voronoi_scape_flat(m, flat_patch_probe(u[None, :], c, "box", [L / 2]))
        assert sp.edge_multiset() == sf.edge_multiset()


def test_flat_patch_multiplicities_one():
    m, _ = poisson_mosaic(3, 500, 8)
    rng = np.random.default_rng(9)
    fr = sample_stiefel(2, 3, rng)
    s = voronoi_scape_flat(m, flat_patch_probe(fr, np.full(3, 0.5), "box",
                                               [0.15, 0.15]))
    assert len(s.entries) > 0
    assert all(e.multiplicity == 1 for e in s.entries)
    assert s.p == 2


def test_singular_power_solve_is_degenerate(monkeypatch):
    m, _ = poisson_mosaic(3, 200, 8)
    probe = flat_patch_probe(sample_stiefel(2, 3, np.random.default_rng(9)),
                             np.full(3, 0.5), "box", [0.15, 0.15])

    gram_schmidt = geometry._gram_schmidt

    def one_flat_cell(e):
        # the first weighted top gets a zero height, as a flat cell would
        q, low = gram_schmidt(e)
        low[-1, -1, 0] = 0.0
        return q, low

    monkeypatch.setattr(geometry, "_gram_schmidt", one_flat_cell)
    with pytest.raises(DegenerateInputError, match="power diagram"):
        voronoi_scape_flat(m, probe)


def test_tiny_patch_empty_scape():
    # patch so small it misses every Voronoi edge with high probability:
    # center it well inside a Voronoi cell by shrinking around a site
    m, pts = poisson_mosaic(3, 100, 10)
    i = nearest_site(m, np.full(3, 0.5))
    rng = np.random.default_rng(11)
    fr = sample_stiefel(2, 3, rng)
    s = voronoi_scape_flat(m, flat_patch_probe(fr, pts[i], "box", [1e-6, 1e-6]))
    assert s.entries == () and s.total_volume == 0.0


def test_ball_region_patch():
    m, _ = poisson_mosaic(3, 500, 12)
    rng = np.random.default_rng(13)
    fr = sample_stiefel(2, 3, rng)
    s = voronoi_scape_flat(m, flat_patch_probe(fr, np.full(3, 0.5), "ball", 0.15))
    assert all(e.multiplicity == 1 for e in s.entries)


def test_scape_flat_p_bounds():
    m, _ = poisson_mosaic(2, 50, 14)
    with pytest.raises(ValueError):
        voronoi_scape_flat(m, flat_patch_probe(Frame(np.eye(2)), np.full(2, 0.5),
                                               "box", [0.1, 0.1]))


def test_rigid_motion_equivariance():
    m, pts = poisson_mosaic(2, 200, 15)
    a, b = np.array([0.35, 0.5]), np.array([0.65, 0.5])
    s0 = voronoi_path(m, segment_probe(a, b))
    rng = np.random.default_rng(16)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)))
    q *= np.sign(np.diag(r))
    t = rng.uniform(-0.5, 0.5, size=2)
    m2 = build_mosaic(pts @ q.T + t)
    s2 = voronoi_path(m2, segment_probe(a @ q.T + t, b @ q.T + t))
    v0 = sorted(e.volume for e in s0.entries for _ in range(e.multiplicity))
    v2 = sorted(e.volume for e in s2.entries for _ in range(e.multiplicity))
    assert len(v0) == len(v2)
    assert np.allclose(v0, v2, rtol=1e-9)


def test_back_and_forth_path_matches_per_entry_volumes():
    # the polyline crosses the same Voronoi facets going and coming back
    m, _ = poisson_mosaic(2, 200, 21)
    probe = Probe("polyline", vertices=np.array([
        [0.35, 0.5], [0.65, 0.5], [0.35, 0.51], [0.65, 0.52]]))
    s = voronoi_path(m, probe)
    assert max(e.multiplicity for e in s.entries) > 1
    assert [e.sites for e in s.entries] == sorted(e.sites for e in s.entries)
    entries, total = [], 0.0
    for e in s.entries:
        vol = m.cell_volume(1, m.cell_index(1, e.sites))
        entries.append(ScapeEntry(e.sites, e.multiplicity, vol))
        total += e.multiplicity * vol
    assert s.entries == tuple(entries)
    assert s.total_volume == total


def dense_crossings(m, verts, samples=1001):
    """Delaunay edges crossed along a polyline, each segment read off dense
    nearest-site sampling: the reference test_walk_matches_dense_nearest_site
    checks one segment against."""
    ts = np.linspace(0.0, 1.0, samples)
    seq = [nearest_site(m, a + t * (b - a))
           for a, b in zip(verts[:-1], verts[1:]) for t in ts]
    return Counter((min(u, v), max(u, v)) for u, v in zip(seq, seq[1:]) if u != v)


POLYLINES = {
    "v_shape": [[0.3, 0.35], [0.5, 0.65], [0.7, 0.35]],
    "back_and_forth": [[0.35, 0.45], [0.65, 0.55], [0.35, 0.45], [0.65, 0.55]],
    "triangle_loop": [[0.3, 0.3], [0.7, 0.35], [0.5, 0.7], [0.3, 0.3]],
}


@pytest.mark.parametrize("shape", sorted(POLYLINES))
@pytest.mark.parametrize("d", [2, 3])
def test_polyline_matches_dense_nearest_site(d, shape):
    m, pts = poisson_mosaic(d, {2: 300, 3: 600}[d], 30 + d)
    verts = np.array(POLYLINES[shape])
    if d == 3:
        # a lift that depends on x alone keeps a closed loop closed
        verts = np.column_stack([verts, 0.4 + 0.2 * verts[:, 0]])
    probe = Probe("polyline", vertices=verts)
    s = voronoi_path(pts, probe)
    assert s.edge_multiset() == dense_crossings(m, verts)
    if shape == "back_and_forth":
        # three passes over one segment cross each facet three times
        assert {e.multiplicity for e in s.entries} == {3}
    assert voronoi_path(m, probe) == s


def test_path_reads_no_face_lattice():
    m, _ = poisson_mosaic(3, 600, 40)
    probe = Probe("polyline", vertices=np.array(
        [[0.3, 0.4, 0.5], [0.7, 0.5, 0.4], [0.5, 0.6, 0.6]]))
    assert voronoi_path(m, probe).entries
    assert set(m.cells._levels) == {m.d}


# ---------------- witness scape (sites only) ----------------

def mosaic_scape_reference(pts, probe):
    """The flat scape as read from the ambient mosaic: the power-diagram
    vertices in the patch, each looked up with cell_index and measured with
    cell_volume."""
    m = build_mosaic(pts)
    p = probe.frame.p
    rel = pts - probe.base
    y = rel @ probe.frame.rows.T
    lift = np.einsum("ij,ij->i", rel, rel)
    tops = lower_hull_simplices(np.column_stack([y, lift]))
    A = 2.0 * (y[tops[:, 1:]] - y[tops[:, :1]])
    rhs = lift[tops[:, 1:]] - lift[tops[:, :1]]
    centers = np.linalg.solve(A, rhs[..., None])[..., 0]
    if probe.region == "box":
        inside = np.all(np.abs(centers) <= probe.extent, axis=1)
    else:
        inside = np.einsum("ij,ij->i", centers, centers) <= float(probe.extent) ** 2
    entries, total = [], 0.0
    for row in tops[inside]:   # sorted rows in lexicographic order
        key = tuple(int(i) for i in row)
        vol = m.cell_volume(p, m.cell_index(p, key))
        entries.append(ScapeEntry(key, 1, vol))
        total += vol
    return tuple(entries), total


def random_patch(d, p, region, seed):
    pts = sample(poisson({2: 400, 3: 600}[d]), unit_box_window(d), seed)
    rng = np.random.default_rng([seed, 1])
    base = rng.uniform(0.35, 0.65, size=d)
    extent = 0.18 if region == "ball" else rng.uniform(0.08, 0.18, size=p)
    return pts, flat_patch_probe(sample_stiefel(p, d, rng), base, region, extent)


@pytest.mark.parametrize("region", ["box", "ball"])
@pytest.mark.parametrize("d, p", [(2, 1), (3, 1), (3, 2)])
def test_witness_scape_matches_mosaic_lookup(d, p, region):
    for seed in range(4):
        pts, probe = random_patch(d, p, region, 100 * d + 10 * p + seed)
        s = voronoi_scape_flat(pts, probe)
        entries, total = mosaic_scape_reference(pts, probe)
        assert len(entries) > 0
        assert s.entries == entries
        assert s.total_volume == total
        assert voronoi_scape_flat(build_mosaic(pts), probe) == s


def test_witness_rejects_a_wrong_power_vertex(monkeypatch):
    pts, _ = random_patch(3, 2, "ball", 7)
    # a patch holding every power-diagram vertex, so the wrong one is checked
    probe = flat_patch_probe(sample_stiefel(2, 3, np.random.default_rng(8)),
                             np.full(3, 0.5), "ball", 100.0)
    assert voronoi_scape_flat(pts, probe).entries
    real = scape.lower_hull_simplices

    def one_wrong_vertex(lifted):
        tops = real(lifted)
        present = {tuple(r) for r in tops.tolist()}
        row = tops[len(tops) // 2].copy()
        for w in range(row[-2] + 1, len(pts)):
            if (*row[:-1], w) not in present:
                row[-1] = w
                break
        tops[len(tops) // 2] = row
        return tops

    monkeypatch.setattr(scape, "lower_hull_simplices", one_wrong_vertex)
    with pytest.raises(ConsistencyError, match="not a Delaunay cell"):
        voronoi_scape_flat(pts, probe)


def refuse_mosaics(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial built a Delaunay mosaic")

    monkeypatch.setattr(delaunay.Mosaic, "__init__", refuse)


def test_scape_trial_builds_no_mosaic(monkeypatch):
    refuse_mosaics(monkeypatch)
    r = experiments.run_experiment(experiments.scape_spec(3, 2, 2000, 0.2, 2, seed=3))
    assert np.all(np.isfinite(r.values)) and np.all(r.values > 0.0)


def test_path_trial_builds_no_mosaic(monkeypatch):
    refuse_mosaics(monkeypatch)
    r = experiments.run_experiment(experiments.path_spec(3, 1000, 0.3, 2, seed=3))
    assert np.all(np.isfinite(r.values)) and np.all(r.values > 0.0)


def test_scape_trial_makes_one_batched_volume_call(monkeypatch):
    calls = []

    def counted(v):
        calls.append(len(v))
        return geometry.simplex_volumes(v)

    def refuse(*args, **kwargs):
        raise AssertionError("a flat scape measured a cell on its own")

    monkeypatch.setattr(scape, "simplex_volumes", counted)
    monkeypatch.setattr(geometry, "simplex_volume", refuse)
    monkeypatch.setattr(delaunay, "simplex_volume", refuse)
    r = experiments.run_experiment(experiments.scape_spec(3, 2, 2000, 0.2, 1, seed=4))
    assert len(calls) == 1 and calls[0] > 0
    assert np.isfinite(r.values[0])


def test_patch_without_power_vertices_still_runs_the_witness(monkeypatch):
    pts = sample(poisson(100), unit_box_window(3), 10)
    i = int(np.argmin(np.linalg.norm(pts - 0.5, axis=1)))
    probe = flat_patch_probe(sample_stiefel(2, 3, np.random.default_rng(11)),
                             pts[i], "box", [1e-6, 1e-6])
    checked = []
    real = scape._check_witnesses

    def counted(rel, points, rows, near):
        checked.append(rows.shape)
        real(rel, points, rows, near)

    monkeypatch.setattr(scape, "_check_witnesses", counted)
    s = voronoi_scape_flat(pts, probe)
    assert s.entries == () and s.total_volume == 0.0
    assert checked == [(0, 3)]


# ---------------- sites lifted into the power diagram ----------------

def lifted_rows(monkeypatch):
    """Record the row count of every lower_hull_simplices call in scape."""
    counts = []
    real = scape.lower_hull_simplices

    def counted(lifted):
        counts.append(len(lifted))
        return real(lifted)

    monkeypatch.setattr(scape, "lower_hull_simplices", counted)
    return counts


def scape_3d_trial(seed):
    """The sites and probe of trial 0 of the scape_3d benchmark template."""
    spec = experiments.scape_spec(3, 2, 2000, 0.3, 1, seed=seed)
    rng = np.random.default_rng([seed, 0])
    pts = sample(spec.process, spec.window, rng)
    shrink = spec.resolved_margin() + experiments._probe_radius(spec)
    frame, center = experiments.place_probe_frame(rng, 3, 2, spec.window, shrink)
    return spec, pts, flat_patch_probe(frame, center, "box", np.full(2, 0.15))


@pytest.mark.parametrize("seed", [2012, 2013, 2014])
def test_power_diagram_lifts_only_sites_that_can_be_nearest(monkeypatch, seed):
    spec, pts, probe = scape_3d_trial(seed)
    counts = lifted_rows(monkeypatch)
    s = voronoi_scape_flat(pts, probe)
    assert len(counts) == 1 and counts[0] <= 150
    entries, total = mosaic_scape_reference(pts, probe)
    assert len(entries) > 0
    assert s.entries == entries and s.total_volume == total
    assert distortion(s, probe) == experiments._distortion_trial(spec, 0)


@pytest.mark.parametrize("p", [1, 2])
def test_patch_inside_one_cell_lifts_every_site(monkeypatch, p):
    # only the site whose cell holds the tiny patch passes the filter, so
    # the power diagram falls back to every site
    pts = sample(poisson(600), unit_box_window(3), 12)
    i = int(np.argmin(np.linalg.norm(pts - 0.5, axis=1)))
    frame = sample_stiefel(p, 3, np.random.default_rng(13))
    probe = flat_patch_probe(frame, pts[i] + 1e-4 * frame.rows[0], "box",
                             np.full(p, 1e-6))
    counts = lifted_rows(monkeypatch)
    s = voronoi_scape_flat(pts, probe)
    assert counts == [len(pts)]
    assert s.entries == () and s.total_volume == 0.0


def test_segment_filter_keeps_a_strict_subset(monkeypatch):
    m, pts = poisson_mosaic(3, 1000, 14)
    verts = np.array([[0.35, 0.4, 0.45], [0.65, 0.55, 0.5]])
    counts = lifted_rows(monkeypatch)
    s = voronoi_path(pts, Probe("polyline", vertices=verts))
    assert len(counts) == 1 and counts[0] < len(pts) // 2
    assert s.entries and s.edge_multiset() == dense_crossings(m, verts)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_too_few_sites_raise_without_jitter(n):
    pts = np.random.default_rng(15).uniform(0.0, 1.0, size=(n, 3))
    probe = flat_patch_probe(Frame(np.eye(3)[:2]), np.full(3, 0.5), "box", 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError,
                           match=rf"\({n} points cannot span R\^2\)"):
            voronoi_scape_flat(pts, probe)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_path_on_too_few_sites_raises_a_typed_error(n):
    # the coverage hull is the path's first Qhull call; it must not leak an
    # untyped scipy error (or a numpy warning on no sites at all)
    pts = np.random.default_rng(15).uniform(0.0, 1.0, size=(n, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError,
                           match=rf"\({n} points cannot span R\^3\)"):
            voronoi_path(pts, segment_probe([0.4] * 3, [0.6] * 3))


def test_path_on_flat_sites_raises_a_typed_error():
    pts = np.column_stack([np.random.default_rng(16).uniform(size=(10, 2)),
                           np.zeros(10)])
    with pytest.raises(DegenerateInputError, match="affinely flat"):
        voronoi_path(pts, segment_probe([0.4, 0.4, 0.0], [0.6, 0.6, 0.0]))


def test_exact_lattice_ties_are_degenerate_not_inconsistent():
    # on an unjittered lattice the flat meets Voronoi edges shared by four
    # cells, so power-diagram vertices tie; that is degenerate input, not a bug
    pts = sample(lattice(0.1, jitter=0.0), unit_box_window(3), 0)
    outcomes = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        probe = flat_patch_probe(sample_stiefel(2, 3, rng),
                                 rng.uniform(0.3, 0.7, size=3), "box", 0.075)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                voronoi_scape_flat(pts, probe)
            outcomes.append("scape")
        except DegenerateInputError as exc:
            assert "tie" in str(exc) or "degenerate" in str(exc)
            outcomes.append("degenerate")
    assert "degenerate" in outcomes


def unit_rotation(d, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def moved_probe(probe, rows, base, extent):
    return flat_patch_probe(Frame(rows), base, probe.region, extent)


INSTANCES = st.tuples(st.sampled_from([(2, 1), (3, 1), (3, 2)]),
                      st.sampled_from(["box", "ball"]),
                      st.integers(0, 2 ** 32 - 1))


def scape_of(pts, probe):
    s = voronoi_scape_flat(pts, probe)
    return [(e.sites, e.multiplicity) for e in s.entries], s.total_volume


@settings(max_examples=20, deadline=None)
@given(INSTANCES, st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
def test_witness_scape_translation_invariant(instance, offset):
    (d, p), region, seed = instance
    pts, probe = random_patch(d, p, region, seed)
    t = np.array(offset[:d])
    keys, total = scape_of(pts, probe)
    keys_t, total_t = scape_of(pts + t, moved_probe(
        probe, probe.frame.rows, probe.base + t, probe.extent))
    assert keys_t == keys
    assert total_t == pytest.approx(total, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(INSTANCES, st.floats(-3.0, 3.0))
def test_witness_scape_scaling_equivariant(instance, log_scale):
    (d, p), region, seed = instance
    pts, probe = random_patch(d, p, region, seed)
    c = 10.0 ** log_scale
    keys, total = scape_of(pts, probe)
    keys_c, total_c = scape_of(c * pts, moved_probe(
        probe, probe.frame.rows, c * probe.base, c * probe.extent))
    assert keys_c == keys
    assert total_c == pytest.approx(c ** p * total, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(INSTANCES, st.integers(0, 2 ** 32 - 1))
def test_witness_scape_rotation_invariant(instance, rot_seed):
    (d, p), region, seed = instance
    pts, probe = random_patch(d, p, region, seed)
    q = unit_rotation(d, rot_seed)
    keys, total = scape_of(pts, probe)
    keys_q, total_q = scape_of(pts @ q.T, moved_probe(
        probe, probe.frame.rows @ q.T, probe.base @ q.T, probe.extent))
    assert keys_q == keys
    assert total_q == pytest.approx(total, rel=1e-9)


def random_path(d, seed):
    pts = sample(poisson({2: 300, 3: 600}[d]), unit_box_window(d), seed)
    rng = np.random.default_rng([seed, 2])
    return pts, rng.uniform(0.3, 0.7, size=(int(rng.integers(2, 5)), d))


def path_of(pts, verts):
    s = voronoi_path(pts, Probe("polyline", vertices=verts))
    return [(e.sites, e.multiplicity) for e in s.entries], s.total_volume


PATHS = st.tuples(st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=20, deadline=None)
@given(PATHS, st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
def test_path_translation_invariant(instance, offset):
    pts, verts = random_path(*instance)
    t = np.array(offset[:instance[0]])
    keys, total = path_of(pts, verts)
    keys_t, total_t = path_of(pts + t, verts + t)
    assert keys_t == keys
    assert total_t == pytest.approx(total, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(PATHS, st.floats(-3.0, 3.0))
def test_path_scaling_equivariant(instance, log_scale):
    pts, verts = random_path(*instance)
    c = 10.0 ** log_scale
    keys, total = path_of(pts, verts)
    keys_c, total_c = path_of(c * pts, c * verts)
    assert keys_c == keys
    assert total_c == pytest.approx(c * total, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(PATHS, st.integers(0, 2 ** 32 - 1))
def test_path_rotation_invariant(instance, rot_seed):
    pts, verts = random_path(*instance)
    q = unit_rotation(instance[0], rot_seed)
    keys, total = path_of(pts, verts)
    keys_q, total_q = path_of(pts @ q.T, verts @ q.T)
    assert keys_q == keys
    assert total_q == pytest.approx(total, rel=1e-9)


# ---------------- coverage certificate ----------------

@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 1e6]), st.sampled_from([-3.0, 0.0, 3.0]))
def test_certified_vertices_lie_in_the_site_hull(d, seed, shift, log_scale):
    rng = np.random.default_rng(seed)
    c = 10.0 ** log_scale
    pts = shift + c * rng.uniform(size=(int(rng.integers(2 ** d, 60 * d)), d))
    verts = shift + c * rng.uniform(-0.2, 1.2, size=(64, d))
    hull = delaunay.site_hull(pts)
    assert np.all(hull.contains(verts[scape._orthant_certified(pts, verts)]))
    # a point pushed past a facet plane is outside the hull: never certified
    beyond = pts[hull.facets].mean(axis=1) + 1e-3 * c * hull.normals
    assert not np.any(scape._orthant_certified(pts, beyond))


def test_vertex_at_a_hull_corner_takes_the_fallback(monkeypatch):
    # the site of least coordinate sum is a hull corner with no site below
    # it on every axis, so its all-negative orthant is empty
    pts = sample(poisson(1000), unit_box_window(3), 17)
    corner = pts[np.argmin(pts.sum(axis=1))]
    center = np.full(3, 0.5)
    inward = Probe("polyline", vertices=np.array([
        corner + 1e-9 * (center - corner), center]))
    outward = Probe("polyline", vertices=np.array([corner - 1e-9, center]))
    hull = delaunay.site_hull(pts)
    assert hull.contains(inward.vertices).tolist() == [True, True]
    assert hull.contains(outward.vertices).tolist() == [False, True]
    for probe in (inward, outward):
        certified = scape._orthant_certified(pts, probe.vertices)
        assert certified.tolist() == [False, True]
    calls = []

    def counted(sites):
        calls.append(len(sites))
        return delaunay.site_hull(sites)

    monkeypatch.setattr(scape, "site_hull", counted)
    s = voronoi_path(pts, inward)
    with pytest.raises(CoverageError, match="probe outside coverage"):
        voronoi_path(pts, outward)
    assert len(calls) == 2
    # the same path when every vertex goes to site_hull, as before
    monkeypatch.setattr(scape, "_orthant_certified",
                        lambda sites, verts: np.zeros(len(verts), bool))
    assert voronoi_path(pts, inward) == s


def test_path_trials_need_no_site_hull(monkeypatch):
    def refuse(sites):
        raise AssertionError("site_hull called on a certified path")

    monkeypatch.setattr(scape, "site_hull", refuse)
    for k in range(200):
        spec = experiments.path_spec(3, 1000, 0.3, 1, seed=2012 * 10 ** 6 + k)
        assert experiments._distortion_trial(spec, 0) > 0.0


@pytest.mark.parametrize("seed", range(6))
def test_path_rows_and_counts_match_np_unique(seed):
    # zigzag polylines cross some facets more than once
    rng = np.random.default_rng([seed, 19])
    d = 2 + seed % 2
    pts = sample(poisson({2: 300, 3: 600}[d]), unit_box_window(d), seed)
    ends = rng.uniform(0.3, 0.7, size=(2, d))
    verts = np.vstack([ends[[0, 1] * 3], rng.uniform(0.3, 0.7, size=(3, d))])
    v_shape = np.array([[0.6, 0.1], [1.4, 0.1], [0.6, 0.15]])
    cases = [(pts, verts), (TRIANGLE, v_shape)]
    for sites, v in cases:
        s = voronoi_path(sites, Probe("polyline", vertices=v))
        assert not s.perturbed
        rows = np.concatenate([scape._segment_edges(sites, a, b)[0]
                               for a, b in zip(v[:-1], v[1:])])
        want, counts = np.unique(rows, axis=0, return_counts=True)
        assert s.rows.dtype == want.dtype and np.array_equal(s.rows, want)
        assert (s.multiplicities.dtype == counts.dtype
                and np.array_equal(s.multiplicities, counts))
    assert s.multiplicities.tolist() == [2]


# ---------------- candidate pick and pruned witness ----------------

def full_power_vertices(pts, probe):
    """Rows and flat coordinates of the power-diagram vertices of every
    site inside the patch, from one lower hull with no candidate pick."""
    rel = pts - probe.base
    y = rel @ probe.frame.rows.T
    lift = np.einsum("ij,ij->i", rel, rel)
    tops = lower_hull_simplices(np.column_stack([y, lift]))
    A = 2.0 * (y[tops[:, 1:]] - y[tops[:, :1]])
    rhs = lift[tops[:, 1:]] - lift[tops[:, :1]]
    centers = np.linalg.solve(A, rhs[..., None])[..., 0]
    if probe.region == "box":
        inside = np.all(np.abs(centers) <= probe.extent, axis=1)
    else:
        inside = np.einsum("ij,ij->i", centers, centers) <= float(probe.extent) ** 2
    return tops[inside], centers[inside]


def points_in_patch(probe, rng, n):
    """n uniform points of the patch, in flat coordinates."""
    p = probe.p
    if probe.region == "box":
        return rng.uniform(-1.0, 1.0, size=(n, p)) * probe.extent
    u = rng.standard_normal((n, p))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u * float(probe.extent) * rng.uniform(size=(n, 1)) ** (1.0 / p)


@settings(max_examples=30, deadline=None)
@given(INSTANCES, st.sampled_from([0.05, 1.0, 3.0]))
def test_candidates_keep_every_site_that_can_be_nearest(instance, scale):
    (d, p), region, seed = instance
    pts, probe = random_patch(d, p, region, seed)
    probe = moved_probe(probe, probe.frame.rows, probe.base, scale * probe.extent)
    rel = pts - probe.base
    y = rel @ probe.frame.rows.T
    keep, near = scape._candidates(y, np.einsum("ij,ij->i", rel, rel),
                                   np.broadcast_to(probe.extent, p))
    kept = set(keep.tolist())
    rows, _ = full_power_vertices(pts, probe)
    assert set(rows.ravel().tolist()) <= kept
    c = points_in_patch(probe, np.random.default_rng(seed), 200)
    x = probe.base + c @ probe.frame.rows
    d2 = np.einsum("ijk,ijk->ij", x[:, None] - pts, x[:, None] - pts)
    assert set(np.argmin(d2, axis=1).tolist()) <= kept
    # near bounds every site's squared distance from the patch from below
    assert np.all(near <= d2.min(axis=0) * (1.0 + 1e-12) + 1e-15)


class _Stop(Exception):
    pass


def witness_inputs(pts, probe):
    """The arguments of voronoi_scape_flat's witness call, or None when the
    power diagram fails before it."""
    seen = []

    def record(*args):
        seen.append(args)
        raise _Stop

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(scape, "_check_witnesses", record)
        try:
            voronoi_scape_flat(pts, probe)
        except (_Stop, DegenerateInputError):
            pass
    return seen[0] if seen else None


def reference_verdict(rel, points, rows):
    """The witness verdict over every site, by dense distances: a row
    passes when its sites are the nearest and the next site is strictly
    farther; otherwise the nearest site outside it ties within TIE_TOL of
    its farthest site, or is nearer and the row is inconsistent."""
    verdict = "pass"
    for point, row in zip(points, rows):
        dist = np.linalg.norm(rel - point, axis=1)
        reach = dist[row].max()
        other = np.delete(dist, row).min()
        if other > reach:
            continue
        if other < reach * (1.0 - scape.TIE_TOL):
            return "inconsistent"
        verdict = "degenerate"
    return verdict


def witness_verdict(rel, points, rows, near):
    try:
        scape._check_witnesses(rel, points, rows, near)
    except ConsistencyError:
        return "inconsistent"
    except DegenerateInputError:
        return "degenerate"
    return "pass"


def corrupted(rows, n, pick):
    """rows with one site of one row replaced by another site."""
    rows = rows.copy()
    i, j, w = pick % len(rows), pick % rows.shape[1], pick % n
    if w not in rows[i]:
        rows[i, j] = w
        rows[i].sort()
    return rows


LATTICE = {d: sample(lattice(0.1, jitter=0.0), unit_box_window(d), 0) for d in (2, 3)}


def witness_case(d, p, region, seed, on_lattice, pick):
    """Witness inputs on a Poisson patch or on the unjittered lattice, with
    one row corrupted when pick is not None."""
    if on_lattice:
        rng = np.random.default_rng(seed)
        pts = LATTICE[d]
        probe = flat_patch_probe(sample_stiefel(p, d, rng),
                                 rng.uniform(0.3, 0.7, size=d), region, 0.075)
    else:
        pts, probe = random_patch(d, p, region, seed)
    args = witness_inputs(pts, probe)
    if args is None or not len(args[2]):
        return None
    rel, points, rows, near = args
    if pick is not None:
        rows = corrupted(rows, len(rel), pick)
    return rel, points, rows, near


@settings(max_examples=40, deadline=None)
@given(INSTANCES, st.booleans(), st.none() | st.integers(0, 2 ** 32 - 1))
def test_pruned_witness_matches_all_site_reference(instance, on_lattice, pick):
    (d, p), region, seed = instance
    case = witness_case(d, p, region, seed, on_lattice, pick)
    assume(case is not None)
    rel, points, rows, near = case
    assert witness_verdict(*case) == reference_verdict(rel, points, rows)


def test_pruned_witness_parity_covers_every_verdict():
    verdicts = set()
    for seed in range(6):
        for on_lattice, pick in ((False, None), (False, 7 * seed + 3), (True, None)):
            case = witness_case(3, 2, "box", seed, on_lattice, pick)
            if case is None:
                continue
            rel, points, rows, near = case
            v = witness_verdict(*case)
            assert v == reference_verdict(rel, points, rows)
            verdicts.add(v)
    assert verdicts == {"pass", "inconsistent", "degenerate"}


def test_wrong_row_with_a_far_site_is_inconsistent():
    # the replaced site is far outside the candidates the true rows allow;
    # the prune reads the wrong row's own, larger radius and still finds
    # the row's true sites nearer
    pts, probe = random_patch(3, 2, "box", 5)
    rel, points, rows, near = witness_inputs(pts, probe)
    own = points[:, None, :] - rel[rows]
    r2 = np.max(np.einsum("ijk,ijk->ij", own, own))
    far = int(np.argmax(near))
    assert near[far] > 10.0 * r2
    wrong = rows.copy()
    wrong[0, -1] = far
    wrong[0].sort()
    with pytest.raises(ConsistencyError, match="not a Delaunay cell"):
        scape._check_witnesses(rel, points, wrong, near)


# ---------------- distortion ----------------

def test_distortion_empty_scape_zero():
    m = build_mosaic(TRIANGLE)
    probe = segment_probe([0.1, 0.1], [0.3, 0.1])
    assert distortion(voronoi_path(m, probe), probe) == 0.0


def test_distortion_three_site_example():
    m = build_mosaic(TRIANGLE)
    probe = segment_probe([0.1, 0.1], [1.9, 0.1])
    assert distortion(voronoi_path(m, probe), probe) == pytest.approx(
        2.0 / 1.8, rel=1e-12)


def test_zero_probe_volume_rejected():
    # degenerate probes are rejected at construction, before any distortion
    with pytest.raises(ValueError):
        segment_probe([0.1, 0.1], [0.1, 0.1])
    with pytest.raises(ValueError):
        flat_patch_probe(Frame(np.array([[1.0, 0.0]])), np.zeros(2), "box", [0.0])


def test_staircase_sanity_no_mosaic():
    """Axis-aligned staircase approximation of a circle has perimeter 8R:
    the distortion 8R/(2 pi R) is the д=2 constant, no Delaunay code involved."""
    R = 1.0
    n = 100000
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    x, y = R * np.cos(t), R * np.sin(t)
    staircase = np.sum(np.abs(np.diff(x))) + np.abs(x[0] - x[-1]) \
        + np.sum(np.abs(np.diff(y))) + np.abs(y[0] - y[-1])
    assert staircase / (2 * np.pi * R) == pytest.approx(4 / np.pi, rel=1e-8)

