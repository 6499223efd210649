"""voroscape benchmark: trial throughput per workload, or a traced per-layer breakdown.

Run from the repository root, for example

    python3 perfbench/run.py --workload path_3d --seed 0 --seconds 30 --trace 0

--trace 0 times rounds of one-trial run_experiment calls for about
--seconds and reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 runs a fixed number of rounds sized from --seconds; each call runs
untraced, then its trial is replayed with a span around each layer call,
and the per-layer metrics are reported. Every call and every pooled block
of calls must pass the statistical gate, and every replayed value must
equal the untraced one bitwise; a trial that fails a check counts as failed.

The last line of standard output is the JSON result. The machine record,
every call and (traced) every span are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import Recorder, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# closed loop, one client: one trial at a time, no worker processes and no
# BLAS threads (the measuring machine has 2 cores)
PINNED_ENV = {"VOROSCAPE_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
LAYERS = ("pointproc.sample", "experiments.place_probe_frame",
          "delaunay.build_mosaic", "delaunay.lower_hull",
          "scape.voronoi_path", "scape.voronoi_scape_flat",
          "mixedvol.partition_sum", "mixedvol.mixed_volume_sum")
COUNTS = ("pointproc.sites", "delaunay.tops", "delaunay.faces",
          "scape.entries", "scape.perturbed_trials",
          "mixedvol.n_cells", "mixedvol.n_boundary")


def load_program():
    """Import voroscape from this checkout's src/, then the workload table."""
    if not (SRC / "voroscape" / "__init__.py").is_file():
        sys.exit(f"voroscape sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import voroscape
    if Path(voroscape.__file__).resolve().parent != SRC / "voroscape":
        sys.exit(f"imported voroscape from {voroscape.__file__}, not from {SRC}")
    import workloads
    return workloads


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_record(load_start) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "env": {k: os.environ[k] for k in PINNED_ENV},
            "loadavg_start": list(load_start)}


def setup_probe(workload: str, seed: int) -> float:
    """Time from launching a fresh interpreter to its first timed call."""
    launched = time.time()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - launched


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def call_record(spec, res, elapsed, problem) -> dict:
    if problem:
        print(f"call failed, spec seed {spec.seed}, p {spec.p}: {problem}",
              file=sys.stderr)
    return {"seed": spec.seed, "p": spec.p, "seconds": elapsed,
            "value": None if res is None else float(res.values[0]),
            "problem": problem}


def gate_failures(program, passed) -> int:
    """Trials in failing pooled gate blocks, over every part."""
    failed = 0
    for results in passed:
        for block in program.gate_blocks(results):
            if not block.gate_passed():
                print(f"gate failed over {block.spec.trials} trials of p = "
                      f"{block.spec.p}: mean {block.mean!r}, z {block.z!r}",
                      file=sys.stderr)
                failed += block.spec.trials
    return failed


def run_untraced(program, workload, seed, seconds):
    """Whole rounds, as many as end closest to the budget; at least one.

    The setup probes run between rounds, spread over the run, so that
    their median sees the same host conditions as the calls; their own
    time is left out of the budget.
    """
    passed = [[] for _ in workload.parts]
    calls, setups, failed = [], [], 0
    probe_s = 0.0
    start = time.perf_counter()
    for done, specs_by_part in enumerate(workload.rounds(seed)):
        spent = time.perf_counter() - start - probe_s
        if done and spent + spent / (2 * done) >= seconds:
            break
        # probe k is due once k / SETUP_PROBES of the budget is spent
        if len(setups) < SETUP_PROBES and len(setups) * seconds <= SETUP_PROBES * spent:
            probe_start = time.perf_counter()
            setups.append(setup_probe(workload.name, seed))
            probe_s += time.perf_counter() - probe_start
        for j, specs in enumerate(specs_by_part):
            for spec in specs:
                res, elapsed, problem = program.checked_call(spec)
                calls.append(call_record(spec, res, elapsed, problem))
                if problem:
                    failed += 1
                else:
                    passed[j].append(res)
    setups += [setup_probe(workload.name, seed)
               for _ in range(SETUP_PROBES - len(setups))]
    failed += gate_failures(program, passed)
    values = {"trials_per_s": len(calls) / sum(c["seconds"] for c in calls),
              "setup_s": statistics.median(setups), "setup_probes_s": setups,
              "peak_rss_mb": peak_rss_mb()}
    return values, calls, len(calls), failed


def replay(rec, program, spec, res):
    """Replay a call's trial under tracing: (problem or None, its counts)."""
    try:
        value, counts = program.traced_trial(rec, spec)
    except Exception:
        return traceback.format_exc(), None
    if float(value).hex() != float(res.values[0]).hex():
        return f"traced {value!r} != untraced {res.values[0]!r}", None
    if spec.kind == "mixedvol" and (
            counts["mixedvol.n_cells"] != res.metadata["n_cells"][0]
            or counts["mixedvol.n_boundary"] != res.metadata["n_boundary"][0]):
        return "traced cell counts differ from untraced", None
    return None, counts


def run_traced(program, workload, seed, seconds):
    """A fixed number of rounds; each call untraced, then replayed traced."""
    rec = Recorder()
    counts, calls = Counter(), []
    passed = [[] for _ in workload.parts]
    failed = 0
    untraced_s = 0.0
    for specs_by_part in itertools.islice(workload.rounds(seed),
                                          workload.trace_rounds(seconds)):
        for j, specs in enumerate(specs_by_part):
            for spec in specs:
                res, elapsed, problem = program.checked_call(spec)
                if problem is None:
                    problem, trial_counts = replay(rec, program, spec, res)
                if problem is None:
                    untraced_s += elapsed
                    counts.update(trial_counts)
                    passed[j].append(res)
                else:
                    failed += 1
                calls.append(call_record(spec, res, elapsed, problem))
    failed += gate_failures(program, passed)

    own = self_times(rec.spans)
    trial_s = rec.durations("trial")
    total = sum(trial_s)
    values = {f"{name}_s": own.get(name, 0.0) for name in LAYERS}
    values["delaunay.lattice_rest_s"] = (values["delaunay.build_mosaic_s"]
                                         - values["delaunay.lower_hull_s"])
    values["other_s"] = own.get("trial", 0.0)
    values["trace_overhead_s"] = total - untraced_s
    for name in LAYERS + ("delaunay.lattice_rest", "other"):
        values[f"{name}.share"] = values[f"{name}_s"] / total if total else 0.0
    deciles = statistics.quantiles(trial_s, n=10, method="inclusive") \
        if len(trial_s) > 1 else trial_s * 9
    values["trial_s.p50"], values["trial_s.p90"] = deciles[4], deciles[8]
    values.update({name: counts[name] for name in COUNTS})
    values["scape.faces_used_per_built"] = \
        counts["scape.entries"] / max(1, counts["delaunay.faces"])
    values["failed_trials"] = failed
    spans = [s.to_json() for s in rec.spans]
    return values, calls, len(calls), failed, spans


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return ap, args


def main(argv=None) -> int:
    load_start = os.getloadavg()
    ap, args = parse_args(argv)
    os.environ.update(PINNED_ENV)   # before numpy loads its BLAS
    program = load_program()
    if args.workload not in program.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(program.WORKLOADS)}")
    workload = program.WORKLOADS[args.workload]
    if args.setup_probe:
        next(workload.rounds(args.seed))   # spec construction
        print(repr(time.time()))
        return 0

    machine = machine_record(load_start)
    print(json.dumps({"machine": machine}), flush=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = None
    if args.trace:
        values, calls, attempted, failed, spans = run_traced(
            program, workload, args.seed, args.seconds)
        section = bench["per_layer"]
    else:
        values, calls, attempted, failed = run_untraced(
            program, workload, args.seed, args.seconds)
        section = bench["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({"args": vars(args), "machine": machine,
                               "values": values, "result": result,
                               "calls": calls, "spans": spans}))
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
