"""Run every workload over several seeds, print each metric with its unit
and spread, and optionally write the result as a baseline.

    python3 benchmarks/baseline.py --runs 10 --out benchmarks/baseline.json

Run from the root of a boxlab checkout.  Each run is one ``run.py`` run
(``--trace 0``, ``run_seconds`` from BENCHMARK.json), seeds 1..runs, with the
workloads interleaved.  The spread of a metric is the distance between the
first and third quartile of its per-run values over their median
(``statistics.quantiles(values, n=4)``), compared with the metric's bound.
``--trace-runs`` adds traced runs for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from run import run


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workloads", nargs="+",
                        default=["lps", "algebra", "covers"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    reports: dict[str, list[dict]] = {w: [] for w in args.workloads}
    traced: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for i, seed in enumerate(seeds):
        for workload in args.workloads:
            reports[workload].append(
                run(workload, seed, bench["run_seconds"], False, root))
            if i < args.trace_runs:
                traced[workload].append(
                    run(workload, seed, bench["run_seconds"], True, root))
            print(f"seed {seed} {workload} done", file=sys.stderr)

    out = {"run_seconds": bench["run_seconds"], "seeds": seeds,
           "environment": reports[args.workloads[0]][0]["environment"],
           "workloads": {}}
    steady = True
    for workload, runs in reports.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"failed_frac": failed / attempted, "checks": attempted,
                 "children_per_run": [r["reps"] for r in runs],
                 "end_to_end": {}, "per_layer": {}}
        print(f"{workload}: failed_frac {failed / attempted:.6g} "
              f"({failed} of {attempted} checks)")
        for name, bound in bounds.items():
            unit = runs[0]["metrics"][name]["unit"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=unit, bound=bound)
            entry["end_to_end"][name] = stats
            within = stats["spread"] <= bound / 3
            steady = steady and within
            print(f"  {name:14s} median {stats['median']:10.4f} {unit:3s} "
                  f"q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}  "
                  f"spread {stats['spread']:.4f}  bound {bound}"
                  f"{'' if within else '  (above a third of the bound)'}")
        for name in (traced[workload][0]["metrics"] if traced[workload] else ()):
            entry["per_layer"][name] = {
                "median": statistics.median(
                    r["metrics"][name]["value"] for r in traced[workload]),
                "unit": traced[workload][0]["metrics"][name]["unit"]}
        out["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
