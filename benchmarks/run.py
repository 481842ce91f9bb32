"""boxlab benchmark: time to a verified result, per workload.

    python3 benchmarks/run.py --workload lps --seed 1 --seconds 30 --trace 0

Run from the root of a boxlab checkout; the code under test is imported from
its ``src``.  Every repetition runs in a fresh child process (worker.py), so
module-level caches such as ``suites.lps_cayley``'s ``lru_cache`` or
``quaternion._R2_TABLE`` are paid on each repetition, as a CLI user pays
them.  Children run one at a time, in rounds: ``SETUP_PER_REP`` children
that only import, to sample set-up time, then one workload child.  Rounds
start until ``--seconds`` would be exceeded, with at least ``MIN_REPS``, so
the set-up samples are spread over the whole run.

``--trace 0`` reports the end-to-end metrics (medians over the children);
``--trace 1`` alternates traced and untraced children and reports the
per-layer metrics of the traced ones, with the tracing overhead.  The last
line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from tracing import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".bench_out"          # spans of traced runs, relative to the root

# workload children per run, at the least; more start while the run stays
# within --seconds.  Two keeps a run under about 50 s even on a slow host.
MIN_REPS = 2
# children that only import, before each workload child.  The host's speed
# drifts within seconds, so set-up samples taken together at the start of a
# run vary with the moment; spread over the run, their median steadies.
SETUP_PER_REP = 2
TIME_LIMIT = 170.0              # seconds; a run must end within 180

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


class Child:
    """One finished child: its JSON result (or None) and its own rusage."""

    def __init__(self, cmd: list[str], env: dict, timeout: float):
        self.spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would give
        # the maximum RSS over every child reaped so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.ended = time.monotonic()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024      # ru_maxrss is in KiB
        self.result = None
        if proc.returncode == 0:
            try:
                self.result = json.loads(out.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                pass
        if self.result is None:
            print(f"child exited with {proc.returncode}: {' '.join(cmd)}",
                  file=sys.stderr)

    @property
    def setup_s(self) -> float | None:
        # CLOCK_MONOTONIC is system-wide, so the child's clock reads compare
        return self.result["ready"] - self.spawned if self.result else None


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: str) -> dict:
    start = time.monotonic()
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[workload]
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    base = [sys.executable, WORKER, "--src", src]

    def remaining() -> float:
        return max(1.0, TIME_LIMIT - (time.monotonic() - start))

    if trace:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    setup: list[Child] = []
    reps: list[tuple[bool, Child]] = []
    rounds: list[float] = []
    while True:
        if len(reps) >= MIN_REPS:
            now = time.monotonic()
            if (now - start + statistics.median(rounds) > seconds
                    or now - start + 1.5 * max(rounds) > TIME_LIMIT):
                break
        round_start = time.monotonic()
        setup += [Child(base + ["--setup-only"], env, remaining())
                  for _ in range(SETUP_PER_REP)]
        traced = trace and len(reps) % 2 == 0
        cmd = base + ["--workload", workload, "--seed", str(seed),
                      "--trace", str(int(traced))]
        if traced:
            cmd += ["--spans", os.path.join(
                root, OUT_DIR, f"{workload}-seed{seed}-rep{len(reps)}.json")]
        reps.append((traced, Child(cmd, env, remaining())))
        rounds.append(time.monotonic() - round_start)

    attempted = failed = 0
    missing: set[str] = set()
    for _, child in reps:
        attempted += len(reference)
        if child.result is None:
            failed += len(reference)            # a crash fails every check
        else:
            failed += child.result["failed"]
            missing.update(child.result.get("missing", ()))
            for err in child.result["errors"]:
                print(f"failed case: {err}", file=sys.stderr)
    ok = [(traced, c) for traced, c in reps if c.result is not None]
    plain = [c for traced, c in ok if not traced]
    setups = [c.setup_s for c in setup + [c for _, c in ok]
              if c.setup_s is not None]
    values: dict[str, float] = {}
    if trace:
        traced = [c for t, c in ok if t]
        if traced:
            for name in traced[0].result["layers"]:
                values[name] = statistics.median(
                    c.result["layers"][name] for c in traced)
            if plain:
                values["trace_overhead_s"] = statistics.median(
                    c.result["wall_s"] for c in traced) - statistics.median(
                    c.result["wall_s"] for c in plain)
    else:
        if plain:
            values["wall_s"] = statistics.median(c.result["wall_s"] for c in plain)
            values["cpu_s"] = statistics.median(c.cpu_s for c in plain)
            values["peak_rss_mb"] = statistics.median(c.peak_rss_mb for c in plain)
        if setups:
            values["setup_s"] = statistics.median(setups)
    units = LAYER_UNITS if trace else END_TO_END
    sample = ok[0][1].result if ok else {}
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "reps": len(reps), "setup_samples": len(setups),
        "missing": sorted(missing),
        "environment": {**machine(), **sample.get("environment", {})},
        "correct": failed == 0 and not missing and len(ok) == len(reps),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lps", "algebra", "covers"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "boxlab", "__init__.py")):
        print(f"no boxlab source tree under {root}/src; run from the root of "
              "a boxlab checkout", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), root)

    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  children {report['reps']}  "
          f"set-up samples {report['setup_samples']}")
    print("environment " + json.dumps(report["environment"]))
    for name, metric in report["metrics"].items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    if report["missing"]:
        print(f"  missing (function gone, metric not reported): "
              f"{', '.join(report['missing'])}")
    print(f"  {'failed_frac':30s} {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} checks)")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
