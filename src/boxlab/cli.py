"""Command line entry points: the feasibility calculator and the
verification pipeline.

Reports are JSON (schema version 1) and byte-identical for identical
(config, seed) pairs; wall-clock and CPU timings and per-criterion
high-water marks are only included on request since they would break that
reproducibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from . import __version__
from .suites import SUITES, min_feasible_level, run_suite

REPORT_VERSION = 1


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_feasibility(args) -> int:
    try:
        result = min_feasible_level(args.q, args.k)
    except ValueError as exc:
        print(f"boxlab feasibility: {exc}", file=sys.stderr)
        return 2
    report = {
        "version": REPORT_VERSION,
        "command": "feasibility",
        "params": {"q": args.q, "k": args.k},
        "seed": args.seed,
        "results": [{"name": "min-feasible-level", "passed":
                     result["depth_condition_ok"], "details": result}],
        "pass": result["depth_condition_ok"],
        "tool_version": __version__,
    }
    _write_report(report, args.out)
    return 0


def cmd_pipeline(args) -> int:
    if args.csv_dir and args.suite != "spectra":
        print("boxlab pipeline: --csv-dir needs --suite spectra", file=sys.stderr)
        return 2
    start = time.monotonic()
    criteria: dict[str, tuple[float, float, float]] = {}
    results = run_suite(args.suite, seed=args.seed, timings=criteria)
    elapsed = time.monotonic() - start
    csv_files = None
    if args.csv_dir:
        from .suites import export_spectra_csv

        os.makedirs(args.csv_dir, exist_ok=True)
        csv_files = export_spectra_csv(args.csv_dir)
    report = {
        "version": REPORT_VERSION,
        "command": "pipeline",
        "params": {"suite": args.suite},
        "seed": args.seed,
        "results": results,
        "pass": all(r["passed"] for r in results),
        "tool_version": __version__,
    }
    if csv_files is not None:
        report["csv_files"] = csv_files
    if args.timings:
        report["timings"] = {
            "total_seconds": round(elapsed, 3),
            "criteria": {k: round(t, 3) for k, (t, _, _) in criteria.items()},
            "cpu_seconds": {k: round(cpu, 3)
                            for k, (_, cpu, _) in criteria.items()},
            "peak_rss_mb": {k: round(mb, 1)
                            for k, (_, _, mb) in criteria.items()}}
    _write_report(report, args.out)
    if not report["pass"]:
        failing = [r["name"] for r in results if not r["passed"]]
        print(f"failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def non_negative_int(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative seeds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="construct and verify Cayley graphs, covers, spectra, "
                    "and representation data at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=non_negative_int, default=0)
    common.add_argument("--out", default=None, help="report path (default stdout)")

    feas = sub.add_parser("feasibility", parents=[common],
                          help="minimal depth for the size condition")
    feas.add_argument("--q", type=int, default=29)
    feas.add_argument("--k", type=int, default=1)
    feas.set_defaults(fn=cmd_feasibility)

    pipe = sub.add_parser("pipeline", parents=[common],
                          help="run a verification bundle")
    pipe.add_argument("--suite", required=True, choices=sorted(SUITES))
    pipe.add_argument("--timings", action="store_true",
                      help="include wall-clock and CPU timings and "
                           "per-criterion peak RSS in the report")
    pipe.add_argument("--csv-dir", default=None,
                      help="export eigenvalue CSVs here; --suite spectra only")
    pipe.set_defaults(fn=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a report is written only at the end, so a missing directory is caught
    # before any work is done
    directory = args.out and os.path.dirname(os.path.abspath(args.out))
    if directory and not os.path.isdir(directory):
        print(f"boxlab {args.command}: --out directory does not exist: "
              f"{directory}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
