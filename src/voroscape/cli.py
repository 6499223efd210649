"""Command line front end.

Subcommands: constants, moments, path, scape, mixedvol, export-mosaic.
Exit codes: 0 on success, 2 when a statistical acceptance gate fails,
1 on runtime error.  Set VOROSCAPE_WORKERS to run trials in parallel;
results are bitwise independent of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .delaunay import build_mosaic, export_mosaic_json
from .experiments import (WORKERS_ENV, constants_csv_rows, mixedvol_spec,
                          moments_spec, path_spec, run_constants,
                          run_experiment, scape_spec)
from .pointproc import poisson, read_points_csv, sample, unit_box_window


def _write_text(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _write_csv_rows(rows, out: str | None):
    if out is None:
        w = csv.writer(sys.stdout)
        w.writerows(rows)
    else:
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def _result_csv_rows(res):
    rows = [["trial", "value"]]
    rows += [[str(t), repr(float(v))] for t, v in enumerate(res.values)]
    return rows


def _emit_result(res, args) -> int:
    if args.fmt == "csv":
        _write_csv_rows(_result_csv_rows(res), args.out)
    else:
        _write_text(json.dumps(res.to_json_dict(), indent=2), args.out)
    z_part = "" if res.z is None else f" z={res.z:+.2f}"
    err_part = "" if res.stderr is None else f" stderr={res.stderr:.4g}"
    sys.stderr.write(
        f"mean={res.mean:.6f} predicted={res.predicted:.6f}"
        f"{err_part}{z_part} gate={'pass' if res.gate_passed() else 'FAIL'}\n")
    return 0 if res.gate_passed() else 2


def _add_common(sub, trials_default):
    sub.add_argument("--seed", type=int, default=0, help="base seed")
    sub.add_argument("--trials", type=int, default=trials_default)
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    _add_format(sub, "json")


def _add_format(sub, default):
    """Exclusive --json and --csv switches; default is the subcommand's."""
    fmt = sub.add_mutually_exclusive_group()
    for name in ("json", "csv"):
        note = " (default)" if name == default else ""
        fmt.add_argument(f"--{name}", dest="fmt", action="store_const",
                         const=name, help=f"{name.upper()} output{note}")
    sub.set_defaults(fmt=default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="voroscape",
        description="Voronoi paths, scapes, and mixed-volume sums over "
                    "random Delaunay mosaics.",
        epilog=f"Set {WORKERS_ENV} to parallelize trials; outputs are "
               "bitwise identical for any worker count.")
    sp = ap.add_subparsers(dest="command", required=True)

    c = sp.add_parser("constants", help="closed-form distortion constant table")
    c.add_argument("--dmax", type=int, default=10)
    c.add_argument("--out", default=None)
    _add_format(c, "csv")

    m = sp.add_parser("moments", help="Monte Carlo projection moment vs closed form")
    m.add_argument("--p", type=int, required=True)
    m.add_argument("--dim", type=int, required=True)
    m.add_argument("--j", type=int, default=1, choices=(0, 1, 2))
    m.add_argument("--samples", type=int, default=100000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default=None)
    _add_format(m, "json")

    p = sp.add_parser("path", help="segment distortion experiment")
    p.add_argument("--dim", type=int, default=2, choices=(2, 3, 4))
    p.add_argument("--rho", type=float, default=1000.0)
    p.add_argument("--length", type=float, default=0.3)
    p.add_argument("--margin", type=float, default=None,
                   help="core margin (default: 4 typical spacings)")
    _add_common(p, 200)

    s = sp.add_parser("scape", help="flat patch distortion experiment")
    s.add_argument("--dim", type=int, default=3, choices=(2, 3, 4))
    s.add_argument("--p", type=int, default=2)
    s.add_argument("--rho", type=float, default=2000.0)
    s.add_argument("--side", type=float, default=0.3)
    s.add_argument("--margin", type=float, default=None)
    _add_common(s, 100)

    v = sp.add_parser("mixedvol", help="mixed-volume ball sums vs prediction")
    v.add_argument("--dim", type=int, default=2, choices=(2,))
    v.add_argument("--p", type=int, default=1)
    v.add_argument("--rho", type=float, default=40000.0)
    v.add_argument("--radius", type=float, default=0.35,
                   help="summation ball radius")
    v.add_argument("--window-radius", type=float, default=0.5,
                   help="sampling ball radius")
    _add_common(v, 20)

    e = sp.add_parser("export-mosaic", help="build a mosaic and write it as JSON")
    e.add_argument("--points", default=None,
                   help="input points CSV; omit to sample a Poisson instance")
    e.add_argument("--dim", type=int, default=2)
    e.add_argument("--rho", type=float, default=100.0)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None)
    return ap


def _cmd_constants(args) -> int:
    if args.fmt == "json":
        _write_text(json.dumps(run_constants(args.dmax), indent=2), args.out)
    else:
        _write_csv_rows(constants_csv_rows(args.dmax), args.out)
    return 0


def _cmd_export_mosaic(args) -> int:
    if args.points is not None:
        pts = read_points_csv(args.points)
    else:
        rng = np.random.default_rng(args.seed)
        pts = sample(poisson(args.rho), unit_box_window(args.dim), rng)
    m = build_mosaic(pts)
    _write_text(export_mosaic_json(m), args.out)
    return 0


def _dispatch(args) -> int:
    if args.command == "constants":
        return _cmd_constants(args)
    if args.command == "export-mosaic":
        return _cmd_export_mosaic(args)
    if args.command == "moments":
        spec = moments_spec(args.dim, args.p, args.j, args.samples,
                            seed=args.seed)
    elif args.command == "path":
        spec = path_spec(args.dim, args.rho, args.length, args.trials,
                         seed=args.seed, margin=args.margin)
    elif args.command == "scape":
        spec = scape_spec(args.dim, args.p, args.rho, args.side, args.trials,
                          seed=args.seed, margin=args.margin)
    else:
        spec = mixedvol_spec(args.dim, args.p, args.rho, args.radius,
                             args.window_radius, args.trials, seed=args.seed)
    return _emit_result(run_experiment(spec), args)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(args)
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
