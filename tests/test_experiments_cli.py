import csv
import io
import json
import os
import pickle
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from math import pi
from pathlib import Path

import numpy as np
import pytest

from voroscape import experiments
from voroscape.cli import build_parser, main
from voroscape.errors import (ConsistencyError, CoverageError,
                              DegenerateInputError, UnboundedCellError)
from voroscape.experiments import (WORKERS_ENV, ExperimentSpec, default_margin,
                                   expected_interior_sites, mixedvol_spec,
                                   moments_spec, path_spec, run_constants,
                                   run_experiment, scape_spec, worker_count)
from voroscape.moments import MomentQuery, moment_monte_carlo
from voroscape.pointproc import Window, explicit, poisson, unit_box_window

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------- spec validation ----------------

def test_spec_validation():
    w = unit_box_window(2)
    with pytest.raises(ValueError):
        ExperimentSpec("path", 2, 2, poisson(100), w, 10, probe_size=0.3)
    with pytest.raises(ValueError):
        ExperimentSpec("path", 2, 1, poisson(100), w, 0, probe_size=0.3)
    with pytest.raises(ValueError):
        ExperimentSpec("path", 2, 1, poisson(100), w, 10, probe_size=0.3,
                       margin=-0.1)
    with pytest.raises(ValueError):
        ExperimentSpec("mixedvol", 2, 1, poisson(100), w, 5)
    with pytest.raises(ValueError):
        ExperimentSpec("warp", 2, 1, poisson(100), w, 5)


@pytest.mark.parametrize("build", [
    lambda: path_spec(5, 1000, 0.3, 1),
    lambda: path_spec(1, 1000, 0.3, 1),
    lambda: scape_spec(5, 2, 1000, 0.3, 1),
    lambda: scape_spec(3, 0, 1000, 0.3, 1),
    lambda: scape_spec(3, 3, 1000, 0.3, 1),
    lambda: moments_spec(3, 1, 3, 1000),
    lambda: mixedvol_spec(3, 0, 3000, 0.3, 0.5, 1, seed=1),
    lambda: mixedvol_spec(3, 3, 3000, 0.3, 0.5, 1, seed=1),
    lambda: mixedvol_spec(2, 1, 3000, 0.0, 0.5, 1),
    lambda: mixedvol_spec(2, 1, 3000, -0.1, 0.5, 1),
    lambda: mixedvol_spec(2, 1, 3000, 0.7, 0.5, 1),
    lambda: moments_spec(3, 1, 1, 50),
    lambda: moments_spec(2, 3, 1, 1000),
], ids=["path_d5", "path_d1", "scape_d5", "scape_p0", "scape_pd", "moments_j3",
        "mixedvol_3d_p0", "mixedvol_3d_pd", "mixedvol_R0", "mixedvol_R_negative",
        "mixedvol_R_beyond_window", "moments_few_samples", "moments_p_above_d"])
def test_unsupported_specs_fail_at_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("spec", [
    path_spec(4, 1000, 0.3, 1), scape_spec(4, 3, 1000, 0.3, 1),
    mixedvol_spec(2, 0, 3000, 0.3, 0.5, 1), mixedvol_spec(2, 2, 3000, 0.3, 0.5, 1),
    mixedvol_spec(3, 1, 3000, 0.3, 0.5, 1), moments_spec(3, 0, 2, 1000),
], ids=["path", "scape_flat", "mixedvol_p0", "mixedvol_pd", "mixedvol_3d",
        "moments"])
def test_valid_specs_rebuild_with_more_trials(spec):
    # pooling single-trial results rebuilds their spec with the pooled count
    assert replace(spec, trials=250).trials == 250


def test_specs_compare_and_hash_by_value():
    a, b = path_spec(2, 100, 0.3, 1), path_spec(2, 100, 0.3, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, scape_spec(3, 2, 100, 0.2, 1)}) == 2
    assert a != path_spec(2, 100, 0.3, 2)
    assert a != path_spec(2, 100, 0.3, 1, window=Window("box", [0.5, 0.6], 0.5))
    assert a != replace(a, window=replace(a.window, kind="ball"))
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a) and c is not a


def test_explicit_specs_compare_points_by_value():
    pts = [[0.1, 0.2], [0.3, 0.4]]
    assert explicit(pts) == explicit(np.array(pts))
    assert hash(explicit(pts)) == hash(explicit(np.array(pts)))
    assert explicit(pts) != explicit([[0.1, 0.2], [0.3, 0.5]])
    assert explicit(np.zeros((2, 3))) != explicit(np.zeros((3, 2)))
    q = pickle.loads(pickle.dumps(explicit(pts)))
    assert q == explicit(pts) and replace(q, points=q.points + 1.0) != q


def test_default_margin_value():
    # four typical spacings: 4 * (rho * nu_d)^(-1/d)
    got = default_margin(poisson(1000.0), 2)
    assert got == pytest.approx(4 * (1000 * pi) ** -0.5, rel=1e-12)


def test_probe_must_fit_core():
    spec = path_spec(2, 1000, 0.3, 2, margin=0.55)
    with pytest.raises(ValueError, match="does not fit"):
        run_experiment(spec)


def test_trial_abort_reports_seed():
    # explicit margin too small on a sparse instance: the probe can escape
    # the hull and the error must carry the reproducing trial seed
    spec = path_spec(2, 20, 0.9, 30, seed=5, margin=1e-6)
    with pytest.raises(CoverageError, match=r"trial seed \[5, \d+\]"):
        run_experiment(spec)


@pytest.mark.parametrize("error", [ConsistencyError, CoverageError,
                                   DegenerateInputError, UnboundedCellError])
def test_trial_errors_name_their_seed(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("stage failed")

    monkeypatch.setattr(experiments, "build_mosaic", fail)
    monkeypatch.setenv(WORKERS_ENV, "1")
    with pytest.raises(error, match=r"^stage failed \(trial seed \[7, 0\]\)$"):
        run_experiment(path_spec(2, 200, 0.3, 3, seed=7))


def test_worker_count_validation(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert worker_count(8) == 1
    monkeypatch.setenv(WORKERS_ENV, "")
    assert worker_count(8) == 1
    for bad in ("two", "1.5", "0", "-3"):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ValueError, match=WORKERS_ENV):
            worker_count(8)
    # only the count is computed here; no pool of this size is started
    monkeypatch.setenv(WORKERS_ENV, str(10 ** 6))
    assert worker_count(10 ** 7) == os.cpu_count()
    assert worker_count(1) == 1


# ---------------- determinism and aggregation ----------------

def test_bitwise_determinism_and_workers():
    spec = path_spec(2, 400, 0.3, 12, seed=9)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert np.array_equal(a.values, b.values)
    os.environ["VOROSCAPE_WORKERS"] = "3"
    try:
        c = run_experiment(spec)
    finally:
        del os.environ["VOROSCAPE_WORKERS"]
    assert np.array_equal(a.values, c.values)


def test_single_trial_omits_z():
    res = run_experiment(path_spec(2, 300, 0.3, 1, seed=3))
    assert res.stderr is None and res.z is None
    assert res.gate_passed()
    assert len(res.values) == 1


def test_metadata_complete():
    res = run_experiment(path_spec(2, 300, 0.3, 4, seed=11))
    md = res.metadata
    assert md["trial_seeds"] == [[11, t] for t in range(4)]
    assert md["margin"] == pytest.approx(default_margin(poisson(300), 2))
    assert "elapsed_s" in md and "versions" in md
    assert set(md["versions"]) >= {"voroscape", "numpy", "scipy"}
    doc = res.to_json_dict()
    assert doc["seed"] == 11 and doc["trials"] == 4
    assert doc["predicted"] == pytest.approx(4 / pi)
    json.dumps(doc)  # must be serializable as-is


def test_versions_looked_up_once(monkeypatch):
    calls = []
    real = experiments.version

    def counting(name):
        calls.append(name)
        return real(name)

    monkeypatch.setattr(experiments, "version", counting)
    experiments._versions.cache_clear()
    a = run_experiment(moments_spec(2, 1, 1, 100))
    b = run_experiment(path_spec(2, 300, 0.3, 2, seed=1))
    assert calls == ["voroscape"]
    # equal payloads, but no result shares its dict with another
    assert a.metadata["versions"] == b.metadata["versions"]
    assert a.metadata["versions"] is not b.metadata["versions"]
    experiments._versions.cache_clear()


def test_aggregate_stats():
    res = run_experiment(path_spec(2, 400, 0.3, 8, seed=2))
    v = res.values
    assert res.mean == pytest.approx(v.mean())
    assert res.stderr == pytest.approx(v.std(ddof=1) / np.sqrt(len(v)))
    assert res.z == pytest.approx((res.mean - res.predicted) / res.stderr)


def test_cross_kind_same_seed_agreement():
    # a line patch scape run must reproduce the path run per trial
    a = run_experiment(path_spec(2, 500, 0.3, 8, seed=21))
    b = run_experiment(scape_spec(2, 1, 500, 0.3, 8, seed=21))
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=0)


def test_moments_experiment():
    res = run_experiment(moments_spec(5, 2, 2, 100000, seed=0))
    assert res.predicted == pytest.approx(0.1)
    assert abs(res.z) <= 4
    res0 = run_experiment(moments_spec(3, 3, 1, 1000, seed=0))
    assert res0.mean == 1.0 and res0.z == 0.0  # p=d is exact


def test_mixedvol_experiment_fields():
    res = run_experiment(mixedvol_spec(2, 1, 4000, 0.3, 0.5, 3, seed=1))
    assert res.predicted == 1.0
    assert len(res.metadata["boundary_shares"]) == 3
    assert res.metadata["ratio_gate"] == 0.05
    assert expected_interior_sites(4000, 2, 0.3) == pytest.approx(
        4000 * pi * 0.09)


def test_mixedvol_partition_gate():
    res = run_experiment(mixedvol_spec(2, 0, 3000, 0.3, 0.5, 2, seed=2))
    assert res.metadata["ratio_gate"] == 0.01
    assert res.mean == pytest.approx(1.0, abs=1e-9)
    assert res.gate_passed()


PAYLOAD_KEYS = ["kind", "d", "p", "trials", "seed", "margin", "process",
                "window", "probe_size", "R", "j", "samples", "values", "mean",
                "stderr", "predicted", "z", "gate_passed", "metadata"]
_META_TAIL = ["trial_seeds", "elapsed_s", "versions", "z_gate"]
METADATA_KEYS = {
    "path": ["margin", "placement"] + _META_TAIL,
    "scape_flat": ["margin", "placement"] + _META_TAIL,
    "mixedvol": ["margin", "boundary_shares", "mean_boundary_share", "n_cells",
                 "n_boundary", "ratio_gate"] + _META_TAIL,
    "moments": ["margin", "samples"] + _META_TAIL,
}


@pytest.mark.parametrize("spec", [
    path_spec(3, 1000, 0.3, 2, seed=3),
    scape_spec(3, 2, 2000, 0.3, 2, seed=3),
    mixedvol_spec(2, 1, 3000, 0.3, 0.5, 2, seed=3),
    mixedvol_spec(2, 0, 3000, 0.3, 0.5, 1, seed=3),
    moments_spec(4, 2, 1, 2000, seed=3),
    moments_spec(3, 0, 2, 100, seed=3),
], ids=["path", "scape_flat", "mixedvol", "mixedvol_p0", "moments",
        "moments_p0"])
def test_result_payload_layout(spec):
    # the key order of the JSON report and of its metadata is part of the
    # output format, per experiment kind
    doc = run_experiment(spec).to_json_dict()
    assert list(doc) == PAYLOAD_KEYS
    assert list(doc["metadata"]) == METADATA_KEYS[spec.kind]
    assert doc["metadata"]["trial_seeds"] == [[3, t] for t in range(spec.trials)]
    assert json.loads(json.dumps(doc)) == doc


def test_moments_result_is_its_estimate():
    res = run_experiment(moments_spec(4, 2, 1, 2000, seed=3))
    est = moment_monte_carlo(MomentQuery(2, 4, 1), 2000, seed=[3, 0])
    assert res.values.tolist() == [est.mean] and res.mean == est.mean
    assert res.stderr == est.stderr > 0
    assert res.z == (est.mean - res.predicted) / est.stderr
    assert res.metadata["samples"] == 2000
    # p = 0 and p = d are exact: zero stderr and z = 0
    for p in (0, 3):
        res = run_experiment(moments_spec(3, p, 2, 100, seed=3))
        assert (res.mean, res.stderr, res.z) == (res.predicted, 0.0, 0.0)


def test_boundary_share_shrinks_with_R():
    a = run_experiment(mixedvol_spec(2, 1, 20000, 0.20, 0.5, 3, seed=4))
    b = run_experiment(mixedvol_spec(2, 1, 20000, 0.40, 0.5, 3, seed=4))
    assert b.metadata["mean_boundary_share"] < a.metadata["mean_boundary_share"]


# ---------------- constants table ----------------

def test_run_constants_entries():
    rows = run_constants(10)
    assert len(rows) == 55
    by_pd = {(r["p"], r["d"]): r for r in rows}
    assert by_pd[(1, 5)]["exact"] == "15/8"
    assert by_pd[(2, 10)]["value"] == pytest.approx(5.0, rel=1e-12)
    for d in range(1, 11):
        assert by_pd[(d, d)]["value"] == 1.0


def test_run_constants_cap():
    with pytest.raises(ValueError):
        run_constants(201)
    assert len(run_constants(200)) == 200 * 201 // 2


# ---------------- CLI ----------------

def test_cli_constants_csv():
    code, out, _ = run_cli("constants", "--dmax", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "d", "value", "exact"]
    assert len(rows) == 11
    lookup = {(r[0], r[1]): r for r in rows[1:]}
    assert lookup[("1", "2")][3] == "4/pi"
    assert float(lookup[("2", "4")][2]) == pytest.approx(2.0)


def test_cli_constants_json(tmp_path):
    out_file = tmp_path / "table.json"
    code, _, _ = run_cli("constants", "--dmax", "3", "--json",
                         "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert len(doc) == 6


@pytest.mark.parametrize("argv, default", [
    (["constants"], "csv"),
    (["moments", "--p", "1", "--dim", "2"], "json"),
    (["path"], "json"),
    (["scape"], "json"),
    (["mixedvol"], "json"),
])
def test_cli_format_switches(argv, default):
    parse = build_parser().parse_args
    assert parse(argv).fmt == default
    assert parse(argv + ["--json"]).fmt == "json"
    assert parse(argv + ["--csv"]).fmt == "csv"
    with pytest.raises(SystemExit), redirect_stderr(io.StringIO()):
        parse(argv + ["--json", "--csv"])


def test_cli_moments_csv():
    code, out, _ = run_cli("moments", "--p", "1", "--dim", "3", "--samples",
                           "1000", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["trial", "value"] and len(rows) == 2


def test_cli_moments_gate():
    code, out, err = run_cli("moments", "--p", "1", "--dim", "3", "--j", "2",
                             "--samples", "20000", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == pytest.approx(1 / 3)
    assert "gate=pass" in err


def test_cli_path_json_roundtrip(tmp_path):
    out_file = tmp_path / "path.json"
    code, _, err = run_cli("path", "--dim", "2", "--rho", "400", "--trials",
                           "6", "--seed", "1", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "path" and doc["trials"] == 6
    assert len(doc["values"]) == 6
    assert doc["metadata"]["trial_seeds"][3] == [1, 3]


def test_cli_path_csv():
    code, out, _ = run_cli("path", "--dim", "2", "--rho", "400", "--trials",
                           "4", "--seed", "1", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["trial", "value"]
    assert len(rows) == 5
    float(rows[1][1])


def test_cli_scape_runs():
    code, out, _ = run_cli("scape", "--dim", "2", "--p", "1", "--rho", "300",
                           "--side", "0.2", "--trials", "4", "--seed", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "scape_flat"


def test_cli_mixedvol_gate_failure_exit_2():
    # sparse instance misses the 5% band: statistical failure is exit 2
    code, out, _ = run_cli("mixedvol", "--rho", "3000", "--radius", "0.3",
                           "--trials", "2", "--seed", "0")
    assert code == 2
    assert json.loads(out)["gate_passed"] is False


def test_cli_runtime_error_exit_1():
    code, _, err = run_cli("path", "--dim", "2", "--rho", "400",
                           "--trials", "2", "--margin", "-3")
    assert code == 1
    assert "error:" in err


def test_cli_usage_error():
    assert run_cli("no-such-command")[0] == 1
    assert run_cli()[0] == 1
    assert run_cli("--help")[0] == 0


def test_cli_export_mosaic_from_csv(tmp_path):
    pts_file = tmp_path / "pts.csv"
    from voroscape.pointproc import sample, write_points_csv
    pts = sample(poisson(40), unit_box_window(2), 3)
    write_points_csv(pts_file, pts)
    out_file = tmp_path / "mosaic.json"
    code, _, _ = run_cli("export-mosaic", "--points", str(pts_file),
                         "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert np.allclose(doc["sites"], pts)


def test_cli_determinism():
    a = run_cli("path", "--dim", "2", "--rho", "300", "--trials", "5",
                "--seed", "7")
    b = run_cli("path", "--dim", "2", "--rho", "300", "--trials", "5",
                "--seed", "7")
    assert a[0] == b[0] == 0
    da, db = json.loads(a[1]), json.loads(b[1])
    # wall-clock timing is the only field allowed to move between runs
    da["metadata"].pop("elapsed_s")
    db["metadata"].pop("elapsed_s")
    assert da == db


# ---------------- demos ----------------

@pytest.mark.parametrize("demo", ["01_constant_table.py",
                                  "02_projection_moments.py",
                                  "03_segment_path_2d.py",
                                  "04_plane_scape_3d.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
