"""Benchmark workloads: seeded experiment specs and traced trial replicas.

A workload runs in rounds. A round has one or more parts, and each part is
a few run_experiment calls of one trial each, built from one spec template.
Call k of a run with workload seed n gets spec seed n * CALLS_PER_SEED + k,
so the seed alone fixes every input and every trial key (spec seed, 0) is
unique in the run. The untraced loop times each call; the traced loop
replays each call's trial with a span around every layer call.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from voroscape.delaunay import build_mosaic, lower_hull_simplices
from voroscape.experiments import (ExperimentResult, ExperimentSpec,
                                   mixedvol_spec, path_spec, place_probe_frame,
                                   run_experiment, scape_spec)
from voroscape.mixedvol import mixed_volume_sum, partition_sum
from voroscape.pointproc import sample
from voroscape.scape import (distortion, flat_patch_probe, segment_probe,
                             voronoi_path, voronoi_scape_flat)

CALLS_PER_SEED = 10 ** 6
GATE_BLOCK = 100   # trials per pooled gate check, the size of criteria 5 and 6


class Part(NamedTuple):
    make: Callable[[int], ExperimentSpec]   # spec seed -> one-trial spec
    calls: int                              # calls per round


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]
    round_s: float   # untraced seconds per round, measured on a 2-core Xeon host

    def rounds(self, seed: int):
        """Rounds for a workload seed: per part, the specs of its calls."""
        if seed < 0:
            raise ValueError("seed must be non-negative")
        seeds = iter(range(seed * CALLS_PER_SEED, (seed + 1) * CALLS_PER_SEED))
        per_round = sum(part.calls for part in self.parts)
        for _ in range(CALLS_PER_SEED // per_round):
            yield [[part.make(next(seeds)) for _ in range(part.calls)]
                   for part in self.parts]

    def trace_rounds(self, seconds: float) -> int:
        # the traced run repeats each call untraced, so half the budget each;
        # a fixed count (not a time budget) makes its counts repeat exactly
        return max(1, int(seconds // (2.0 * self.round_s)))


def _mixedvol(p: int):
    return lambda seed: mixedvol_spec(2, p, 40000, 0.35, 0.5, 1, seed=seed)


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("path_3d", (
        Part(lambda seed: path_spec(3, 1000, 0.3, 1, seed=seed), 5),), 0.65),
    Workload("scape_3d", (
        Part(lambda seed: scape_spec(3, 2, 2000, 0.3, 1, seed=seed), 3),), 0.95),
    Workload("mixedvol_2d", (
        Part(_mixedvol(1), 4), Part(_mixedvol(0), 1), Part(_mixedvol(2), 1)), 13.9),
)}


def checked_call(spec: ExperimentSpec):
    """One run_experiment call: (result or None, seconds, problem or None)."""
    start = time.perf_counter()
    try:
        res = run_experiment(spec)
    except Exception:
        return None, time.perf_counter() - start, traceback.format_exc()
    elapsed = time.perf_counter() - start
    problem = None
    if len(res.values) != spec.trials or not all(map(math.isfinite, res.values)):
        problem = f"expected {spec.trials} finite values, got {res.values!r}"
    elif not res.gate_passed():
        problem = f"gate failed: mean {res.mean!r}, z {res.z!r}"
    return res, elapsed, problem


def _pooled(results: list[ExperimentResult]) -> ExperimentResult:
    # aggregated as run_experiment aggregates the trials of one call
    values = np.concatenate([r.values for r in results])
    n, predicted = len(values), results[0].predicted
    mean = float(values.mean())
    stderr = z = None
    if n >= 2:
        stderr = float(values.std(ddof=1) / np.sqrt(n))
        z = (mean - predicted) / stderr if stderr > 0 else float("inf")
    return ExperimentResult(replace(results[0].spec, trials=n), values, mean,
                            stderr, predicted, z, {})


def gate_blocks(results: list[ExperimentResult]) -> list[ExperimentResult]:
    """One part's single-trial results, in run order, pooled into blocks.

    A single-trial call has no z-score, so its own gate checks only the
    mixed-volume ratio band. Each block of GATE_BLOCK to 2 * GATE_BLOCK - 1
    trials (fewer if the run has fewer) is one experiment whose
    gate_passed() must hold too. A fixed block size keeps the gate as strict
    as the acceptance criteria however many trials a faster program fits in
    a run.
    """
    if not results:
        return []
    blocks = np.array_split(np.arange(len(results)), max(1, len(results) // GATE_BLOCK))
    return [_pooled(results[b[0]:b[-1] + 1]) for b in blocks]


def _probe_radius(spec: ExperimentSpec) -> float:
    if spec.kind == "path":
        return spec.probe_size / 2.0
    return (spec.probe_size / 2.0) * np.sqrt(spec.p)


def _distortion_layers(rec, key, spec, rng, points):
    shrink = spec.resolved_margin() + _probe_radius(spec)
    with rec.layer("experiments.place_probe_frame", key):
        frame, center = place_probe_frame(rng, spec.d, spec.p, spec.window, shrink)
    with rec.layer("delaunay.build_mosaic", key):
        mosaic = build_mosaic(points, spec.d)
    half = spec.probe_size / 2.0
    if spec.kind == "path":
        u = frame.rows[0]
        probe = segment_probe(center - half * u, center + half * u)
        with rec.layer("scape.voronoi_path", key):
            scape = voronoi_path(mosaic, probe)
    else:
        probe = flat_patch_probe(frame, center, "box", np.full(spec.p, half))
        with rec.layer("scape.voronoi_scape_flat", key):
            scape = voronoi_scape_flat(mosaic, probe)
    return distortion(scape, probe), mosaic, scape


def _mixedvol_layers(rec, key, spec, points):
    with rec.layer("delaunay.build_mosaic", key):
        mosaic = build_mosaic(points, spec.d)
    if spec.p in (0, spec.d):
        with rec.layer("mixedvol.partition_sum", key):
            rep = partition_sum(mosaic, spec.p, spec.R, spec.window.center)
    else:
        with rec.layer("mixedvol.mixed_volume_sum", key):
            rep = mixed_volume_sum(mosaic, spec.p, spec.R, spec.window.center)
    return rep.ratio, mosaic, rep


def traced_trial(rec, spec: ExperimentSpec):
    """Replay the one trial of spec with a span around each layer call.

    Returns the trial's value, which must equal run_experiment's bitwise,
    and the trial's counts. Counts are read after the trial span closes,
    so lazy work they trigger is charged to no layer. The lower-hull
    control is a separate Qhull call on the same lifted sites, made after
    the trial span closes so it is not part of the trial's time.
    """
    key = (spec.seed, 0)   # run_experiment's seed key for the trial
    with rec.trial(key):
        rng = np.random.default_rng(key)
        with rec.layer("pointproc.sample", key):
            points = sample(spec.process, spec.window, rng)
        if spec.kind == "mixedvol":
            value, mosaic, out = _mixedvol_layers(rec, key, spec, points)
        else:
            value, mosaic, out = _distortion_layers(rec, key, spec, rng, points)
    lifted = np.column_stack([points, np.einsum("ij,ij->i", points, points)])
    with rec.layer("delaunay.lower_hull", key):
        lower_hull_simplices(lifted)
    counts = {"pointproc.sites": len(points),
              "delaunay.tops": mosaic.n_cells(mosaic.d),
              "delaunay.faces": sum(mosaic.n_cells(k) for k in range(mosaic.d + 1))}
    if spec.kind == "mixedvol":
        counts["mixedvol.n_cells"] = out.n_cells
        counts["mixedvol.n_boundary"] = out.n_boundary
    else:
        counts["scape.entries"] = len(out.entries)
        counts["scape.perturbed_trials"] = int(out.perturbed)
    return value, counts
