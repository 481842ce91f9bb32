"""Self-test of the correctness gate: it must be able to fail.

    PYTHONPATH=src python3 benchmarks/selftest.py

Runs the real C6 slice of the ``covers`` workload three times: against its
frozen reference (no failure), against a reference with one perturbed value,
and with a layer call that raises.  The last two must give failed_frac > 0,
and the raising case must not stop the cases after it.  Exits 1 if any
expectation does not hold.
"""

from __future__ import annotations

import copy
import json
import os
import sys

from boxlab import graphs

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def c6_slice(reference: dict) -> workloads.Gate:
    gate = workloads.Gate(reference)
    workloads._homology_covers(gate, [("C6", graphs.cycle(6))])
    return gate


def main() -> int:
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = {cid: ref for cid, ref in json.load(fh)["covers"].items()
                     if cid.split(".")[0] in ("C6", "C6-m2", "C6-m3")}
    outcomes = []

    gate = c6_slice(reference)
    outcomes.append(("frozen reference passes", gate.failed == 0))

    perturbed = copy.deepcopy(reference)
    perturbed["C6-m2.girth"]["value"] += 1
    gate = c6_slice(perturbed)
    outcomes.append(("perturbed reference fails one check",
                     gate.failed == 1 and gate.failed / gate.attempted > 0))

    def boom(cover):
        raise RuntimeError("injected failure")

    real = graphs.verify_covering
    graphs.verify_covering = boom
    try:
        gate = c6_slice(reference)
    finally:
        graphs.verify_covering = real
    # both cover cases raise at "covering" and lose it and the two checks
    # after it; the base case and the checks before the raise still pass
    outcomes.append(("raising case fails its remaining checks and the next "
                     "case still runs",
                     gate.failed == 6 and len(gate.errors) == 2
                     and gate.results["C6-m3.vertices"]))

    # last, since it leaves the other graphs functions wrapped
    real = graphs.girth
    del graphs.girth
    try:
        tracer = tracing.Tracer("covers")
        tracer.install()
    finally:
        graphs.girth = real
    metrics = tracer.layer_metrics(wall=1.0)
    outcomes.append(("a layer function that is gone is reported missing, "
                     "not as 0", tracer.missing == ["graphs.girth"]
                     and "graphs.girth_s" not in metrics
                     and "graphs.cover_s" in metrics))

    for name, ok in outcomes:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(ok for _, ok in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
