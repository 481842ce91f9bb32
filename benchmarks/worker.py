"""One repetition of one workload, in a fresh process started by run.py.

Prints a single JSON object on stdout: the moment set-up ended, the body's
wall time, the gate's counts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy
import scipy
import scipy.linalg  # noqa: F401
import scipy.sparse.linalg  # noqa: F401

import boxlab
from boxlab import (cli, freegroup, graphs, poincare, psl, quaternion,  # noqa: F401
                    reps, spectral, suites, zmod)

READY = time.monotonic()

import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("Threads:"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True,
                        help="the boxlab source tree that must be imported")
    args = parser.parse_args()

    # everything but the result goes to stderr, so stdout stays parseable
    out, sys.stdout = sys.stdout, sys.stderr
    expected = os.path.realpath(os.path.join(args.src, "boxlab"))
    if os.path.dirname(os.path.realpath(boxlab.__file__)) != expected:
        print(f"imported {boxlab.__file__}, expected {expected}",
              file=sys.stderr)
        return 3
    result = {"ready": READY}
    if not args.setup_only:
        with open(os.path.join(os.path.dirname(__file__),
                               "reference.json")) as fh:
            reference = json.load(fh)[args.workload]
        tracer = tracing.Tracer(args.workload) if args.trace \
            else tracing.NullTracer()
        if args.trace:
            tracer.install()
        gate = workloads.Gate(reference, tracer)
        start = time.perf_counter()
        workloads.WORKLOADS[args.workload](gate, tracer, args.seed)
        wall = time.perf_counter() - start
        result.update(wall_s=wall, attempted=gate.attempted,
                      failed=gate.failed, errors=gate.errors,
                      environment={"python": platform.python_version(),
                                   "numpy": numpy.__version__,
                                   "scipy": scipy.__version__,
                                   "threads": os_threads(),
                                   "blas_threads": blas_threads()})
        if args.trace:
            result.update(layers=tracer.layer_metrics(wall),
                          missing=tracer.missing)
            if args.spans:
                tracer.write(args.spans)
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
