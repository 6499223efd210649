"""Seeded Monte Carlo experiments over random mosaics.

Each experiment runs independent trials; trial t draws from
np.random.default_rng([base_seed, t]), so any single trial can be re-run
in isolation and the aggregate is independent of worker count and
completion order.  Probes are placed by a Haar-random rotation and a
uniform translation inside a core window (the sampling window shrunk by
a margin plus the probe's bounding radius), which keeps boundary tiles
of the finite sample away from the probe.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cache
from importlib.metadata import PackageNotFoundError, version
from types import MappingProxyType

import numpy as np

from .errors import (ConsistencyError, CoverageError, DegenerateInputError,
                     UnboundedCellError)
from .mixedvol import ball_sum
from .moments import (MomentQuery, distortion_constant,
                      distortion_exact_string, moment_closed_form,
                      moment_monte_carlo, sample_stiefel)
from .pointproc import (ProcessSpec, Window, _uniform_in_window, poisson,
                        sample, unit_ball_volume, unit_box_window)
from .scape import distortion, flat_patch_probe, segment_probe, voronoi_path, \
    voronoi_scape_flat

WORKERS_ENV = "VOROSCAPE_WORKERS"
TRIAL_ERRORS = (ConsistencyError, CoverageError, DegenerateInputError,
                UnboundedCellError)

Z_GATE = 4.0             # statistical acceptance band for mean vs prediction
RATIO_GATE = 0.05        # mixed-volume ratio band, interior sums
PARTITION_GATE = 0.01    # ratio band for the exact partition cases p in {0, d}

# what a path, scape or moments run measures beyond its values: nothing,
# one read-only mapping shared by all of their results
NOTHING_MEASURED = MappingProxyType({})

EXPERIMENT_KINDS = ("path", "scape_flat", "mixedvol", "moments")


def nearest_neighbor_scale(process: ProcessSpec, d: int) -> float:
    """Typical spacing of the process, used to size the core margin."""
    if process.kind == "poisson":
        return (1.0 / (process.rho * unit_ball_volume(d))) ** (1.0 / d)
    if process.kind == "lattice":
        return process.spacing
    raise ValueError("explicit point sets need an explicit margin")


def default_margin(process: ProcessSpec, d: int) -> float:
    return 4.0 * nearest_neighbor_scale(process, d)


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    kind: str
    d: int
    p: int
    process: ProcessSpec
    window: Window
    trials: int
    seed: int = 0
    margin: float | None = None       # None: default_margin(process, d)
    probe_size: float = 0.0           # segment length, or patch side
    R: float | None = None            # summation radius (mixedvol)
    j: int | None = None              # moment power (moments)
    samples: int | None = None        # sample count (moments)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.margin is not None and self.margin <= 0.0:
            raise ValueError("margin must be positive")
        if self.kind == "path" and self.p != 1:
            raise ValueError("path experiments have p=1")
        if self.kind in ("path", "scape_flat"):
            if self.probe_size <= 0.0:
                raise ValueError("probe size must be positive")
            if self.d not in (2, 3, 4):
                raise ValueError("path and scape experiments cover d in {2, 3, 4}")
        if self.kind == "scape_flat" and not 1 <= self.p <= self.d - 1:
            raise ValueError("flat scape experiments need 1 <= p < d")
        if self.kind == "mixedvol":
            if self.R is None:
                raise ValueError("mixedvol experiments need a summation radius")
            if not 0.0 < self.R <= self.window.extent:
                raise ValueError(f"summation radius {self.R} must lie in "
                                 f"(0, {self.window.extent}], the window extent")
            if self.p in (0, self.d) and self.d != 2:
                raise ValueError("partition sums (p = 0 or p = d) are "
                                 "implemented for d = 2")
        if self.kind == "moments":
            if self.j is None or self.samples is None:
                raise ValueError("moment experiments need j and a sample count")
            if self.j > 2:
                raise ValueError("no closed form implemented for j > 2")
            if not 0 <= self.p <= self.d:
                raise ValueError(f"need 0 <= p <= d, got p={self.p}, d={self.d}")
            if self.samples < 100:
                raise ValueError("need at least 100 samples")

    def resolved_margin(self) -> float:
        if self.margin is not None:
            return self.margin
        return default_margin(self.process, self.d)


@dataclass(frozen=True, slots=True, init=False)
class ExperimentResult:
    """A run's trial values and statistics. measured holds the per-trial
    data that the values do not carry (boundary shares and cell counts of
    mixedvol runs; NOTHING_MEASURED for other kinds); metadata is derived
    from it and the spec on each read, so a kept result holds only what was
    measured. A one-trial result keeps no values array: its value is its
    mean bitwise, and values builds the array from it on each read."""

    spec: ExperimentSpec
    kept_values: np.ndarray | None = field(compare=False, repr=False)
    mean: float
    stderr: float | None
    predicted: float
    z: float | None
    measured: Mapping = field(compare=False)
    elapsed_s: float = field(compare=False)

    def __init__(self, spec, values, mean, stderr, predicted, z, measured,
                 elapsed_s=0.0):
        if len(values) == 1 and float(values[0]).hex() == float(mean).hex():
            values = None
        for f, value in zip(fields(self), (spec, values, mean, stderr, predicted,
                                           z, measured, elapsed_s)):
            object.__setattr__(self, f.name, value)

    @property
    def values(self) -> np.ndarray:
        if self.kept_values is None:
            return np.array([self.mean])
        return self.kept_values

    @property
    def metadata(self) -> dict:
        """The report's metadata, a fresh dict on each read."""
        s = self.spec
        if s.kind == "mixedvol":
            m = self.measured
            meta = {"margin": None, "boundary_shares": list(m["boundary_shares"]),
                    "mean_boundary_share": float(np.mean(m["boundary_shares"])),
                    "n_cells": list(m["n_cells"]),
                    "n_boundary": list(m["n_boundary"]),
                    "ratio_gate": PARTITION_GATE if s.p in (0, s.d) else RATIO_GATE}
        elif s.kind == "moments":
            meta = {"margin": None, "samples": s.samples}
        else:
            meta = {"margin": s.resolved_margin(),
                    "placement": "haar rotation + uniform translation in core window"}
        meta["trial_seeds"] = [[s.seed, t] for t in range(s.trials)]
        meta["elapsed_s"] = round(self.elapsed_s, 3)
        meta["versions"] = dict(_versions())
        meta["z_gate"] = Z_GATE
        return meta

    def gate_passed(self) -> bool:
        """Statistical acceptance: |z| within the band, or the ratio band
        for mixed-volume runs (which test a limit, not an unbiased mean)."""
        if self.spec.kind == "mixedvol":
            band = PARTITION_GATE if self.spec.p in (0, self.spec.d) else RATIO_GATE
            return abs(self.mean - 1.0) <= band
        if self.z is None:
            return True
        return abs(self.z) <= Z_GATE

    def to_json_dict(self) -> dict:
        s = self.spec
        meta = self.metadata
        return {
            "kind": s.kind, "d": s.d, "p": s.p, "trials": s.trials,
            "seed": s.seed, "margin": meta["margin"],
            "process": {"kind": s.process.kind, "rho": s.process.rho,
                        "spacing": s.process.spacing},
            "window": {"kind": s.window.kind,
                       "center": s.window.center.tolist(),
                       "extent": s.window.extent},
            "probe_size": s.probe_size, "R": s.R, "j": s.j,
            "samples": s.samples,
            "values": [float(v) for v in self.values],
            "mean": self.mean, "stderr": self.stderr,
            "predicted": self.predicted, "z": self.z,
            "gate_passed": self.gate_passed(),
            "metadata": meta,
        }


def _aggregate(spec, values, predicted, measured, elapsed, stderr=None, z=None):
    """Result of the trial values; stderr and z come from the values unless
    the caller passes its estimator's own."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if stderr is None and len(values) >= 2:
        stderr = float(values.std(ddof=1) / np.sqrt(len(values)))
        z = (mean - predicted) / stderr if stderr > 0 else float("inf")
    return ExperimentResult(spec, values, mean, stderr, predicted, z, measured,
                            elapsed)


@cache
def _versions() -> dict:
    """Installed versions, looked up once per process; callers copy it."""
    import scipy
    try:
        own = version("voroscape")
    except PackageNotFoundError:
        own = "unknown"
    return {"voroscape": own, "numpy": np.__version__, "scipy": scipy.__version__}


def place_probe_frame(rng, d, p, window, shrink):
    """Haar-random p-frame and a uniform center in the shrunk window."""
    frame = sample_stiefel(p, d, rng)
    if window.extent <= shrink:
        raise ValueError("probe does not fit in the core window")
    core = Window(window.kind, window.center, window.extent - shrink)
    center = _uniform_in_window(core, 1, rng)[0]
    return frame, center


def _probe_radius(spec) -> float:
    if spec.kind == "path":
        return spec.probe_size / 2.0
    return (spec.probe_size / 2.0) * np.sqrt(spec.p)  # patch half-diagonal


def _distortion_trial(spec: ExperimentSpec, trial: int) -> float:
    rng = np.random.default_rng([spec.seed, trial])
    points = sample(spec.process, spec.window, rng)
    shrink = spec.resolved_margin() + _probe_radius(spec)
    frame, center = place_probe_frame(rng, spec.d, spec.p, spec.window, shrink)
    if spec.kind == "path":
        u = frame.rows[0]
        half = spec.probe_size / 2.0
        probe = segment_probe(center - half * u, center + half * u)
        scape = voronoi_path(points, probe)
    else:
        half = np.full(spec.p, spec.probe_size / 2.0)
        probe = flat_patch_probe(frame, center, "box", half)
        scape = voronoi_scape_flat(points, probe)
    return distortion(scape, probe)


def _mixedvol_trial(spec: ExperimentSpec, trial: int) -> dict:
    """One ball sum over B(window center, R). ball_sum triangulates only the
    sites near the ball and certifies that every cell it reads is a cell of
    the whole sample's mosaic, so the values equal those of the whole
    mosaic bitwise."""
    rng = np.random.default_rng([spec.seed, trial])
    points = sample(spec.process, spec.window, rng)
    rep = ball_sum(points, spec.p, spec.R, spec.window)
    return {"value": rep.ratio,
            "boundary_share": rep.sum_boundary / rep.predicted,
            "n_cells": rep.n_cells, "n_boundary": rep.n_boundary}


def _run_trial(spec: ExperimentSpec, trial: int):
    try:
        if spec.kind == "mixedvol":
            return trial, _mixedvol_trial(spec, trial)
        return trial, {"value": _distortion_trial(spec, trial)}
    except TRIAL_ERRORS as exc:
        raise type(exc)(f"{exc} (trial seed [{spec.seed}, {trial}])") from exc


def worker_count(trials: int) -> int:
    """Worker processes for a run: VOROSCAPE_WORKERS (unset or empty means
    1), capped at the trial count and the CPU count."""
    raw = os.environ.get(WORKERS_ENV, "").strip() or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    n = min(int(raw), trials)
    return n if n == 1 else min(n, os.cpu_count() or 1)


def _run_trials(spec: ExperimentSpec) -> list[dict]:
    out = [None] * spec.trials
    n = worker_count(spec.trials)
    if n == 1:
        for t in range(spec.trials):
            out[t] = _run_trial(spec, t)[1]
        return out
    # imported here: a single-process run never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n) as pool:
        for t, payload in pool.map(_run_trial, [spec] * spec.trials,
                                   range(spec.trials)):
            out[t] = payload
    return out


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run a spec's trials and aggregate them; each kind adds only its
    prediction and what its trials measured beyond their values."""
    t0 = time.perf_counter()
    if spec.kind == "moments":
        query = MomentQuery(spec.p, spec.d, spec.j)
        est = moment_monte_carlo(query, spec.samples, seed=[spec.seed, 0])
        predicted = moment_closed_form(query)
        # single estimate, one trial key: the estimator's own stderr stands
        # in for the across-trial one, and the z-score is computed from it
        if est.stderr > 0:
            z = (est.mean - predicted) / est.stderr
        else:
            z = 0.0 if est.mean == predicted else None
        return _aggregate(spec, [est.mean], predicted, NOTHING_MEASURED,
                          time.perf_counter() - t0, est.stderr, z)
    rows = _run_trials(spec)
    if spec.kind == "mixedvol":
        predicted = 1.0
        measured = {"boundary_shares": [r["boundary_share"] for r in rows],
                    "n_cells": [r["n_cells"] for r in rows],
                    "n_boundary": [r["n_boundary"] for r in rows]}
    else:
        predicted = distortion_constant(spec.p, spec.d)
        measured = NOTHING_MEASURED
    return _aggregate(spec, [r["value"] for r in rows], predicted, measured,
                      time.perf_counter() - t0)


def run_constants(d_max: int) -> list[dict]:
    """Distortion constant table for 1 <= p <= d <= d_max.

    Every entry carries a 15-digit float and an exact form (integer,
    fraction, or fraction over pi; the parities always admit one).
    """
    if d_max > 200:
        raise ValueError("d_max must be <= 200")
    rows = []
    for d in range(1, d_max + 1):
        for p in range(1, d + 1):
            rows.append({
                "p": p, "d": d,
                "value": float(distortion_constant(p, d)),
                "exact": distortion_exact_string(p, d),
            })
    return rows


def constants_csv_rows(d_max: int) -> list[list[str]]:
    head = [["p", "d", "value", "exact"]]
    return head + [[str(r["p"]), str(r["d"]), f"{r['value']:.15g}", r["exact"]]
                   for r in run_constants(d_max)]


def path_spec(d, rho, length, trials, seed=0, margin=None, window=None):
    window = unit_box_window(d) if window is None else window
    return ExperimentSpec("path", d, 1, poisson(rho),
                          window, trials, seed=seed, margin=margin,
                          probe_size=length)


def scape_spec(d, p, rho, side, trials, seed=0, margin=None, window=None):
    window = unit_box_window(d) if window is None else window
    return ExperimentSpec("scape_flat", d, p, poisson(rho),
                          window, trials, seed=seed, margin=margin,
                          probe_size=side)


def mixedvol_spec(d, p, rho, R, window_radius, trials, seed=0):
    window = Window("ball", np.zeros(d), window_radius)
    return ExperimentSpec("mixedvol", d, p, poisson(rho),
                          window, trials, seed=seed, R=R)


def moments_spec(d, p, j, samples, seed=0):
    return ExperimentSpec("moments", d, p, poisson(1.0),
                          unit_box_window(max(d, 1)), 1, seed=seed, j=j,
                          samples=samples)


def expected_interior_sites(rho, d, R) -> float:
    return rho * unit_ball_volume(d) * R ** d
