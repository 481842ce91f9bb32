"""Spans around the calls into boxlab's layers, and the per-layer metrics.

A traced run replaces the public functions listed in ``WRAPPED`` by
wrappers that record a span per call.  The wrappers are installed as module
(or class) attributes, so calls that boxlab makes internally through those
names are recorded too: ``gamma_image_check`` calling ``subgroup_closure``
gives a child span, and self time (span minus children) keeps the two
apart.  Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

WRAPPED = {
    "zmod": ("find_admissible_q",),
    "quaternion": ("loop_count_quat",),
    "psl": ("lps_letter_images", "subgroup_closure", "kernel_enumerate",
            "CongruenceKernel.is_abelian", "gamma_image_check",
            "mgen_commutator_identity"),
    "freegroup": ("trivial_word_counts",),
    "graphs": ("cayley_graph", "homology_cover", "girth", "verify_covering",
               "is_automorphism", "CoverGraph.deck_translate"),
    "spectral": ("spectrum", "extreme_spectrum", "ramanujan_check",
                 "lift_decomposition", "nb_trace", "nb_spectral_formula"),
    "poincare": ("certify_relative", "expander_bound_check"),
    "reps": ("borel_group", "irrep_inventory", "classify_all",
             "brute_force_irreps"),
}


def _words_visited(counts):
    # the DFS visits every reduced word of length 1..m: 6 * 5^(d-1) of length d
    return sum(6 * 5 ** (d - 1) for d in range(1, len(counts)))


# work done per call, from its result, for the count-based rates
COUNTS = {
    "psl.subgroup_closure": len,
    "graphs.cayley_graph": lambda cay: cay.graph.num_edges,
    "freegroup.trivial_word_counts": _words_visited,
}

# per-layer busy time: the self time of these spans, summed over the run.
# "zmod.hensel" and "psl.exponent" are spans the workloads open themselves.
LAYER_SPANS = {
    "psl.closure_s": ("psl.subgroup_closure",),
    "psl.kernel_s": ("psl.kernel_enumerate",),
    "psl.abelian_s": ("psl.CongruenceKernel.is_abelian",),
    "psl.exponent_s": ("psl.exponent",),
    "psl.gamma_s": ("psl.gamma_image_check",),
    "graphs.cayley_s": ("graphs.cayley_graph",),
    "graphs.cover_s": ("graphs.homology_cover",),
    "graphs.girth_s": ("graphs.girth",),
    "graphs.verify_s": ("graphs.verify_covering",),
    "graphs.automorphism_s": ("graphs.is_automorphism",
                              "graphs.CoverGraph.deck_translate"),
    "spectral.extreme_s": ("spectral.extreme_spectrum",),
    "spectral.ramanujan_s": ("spectral.ramanujan_check",),
    "spectral.dense_s": ("spectral.spectrum",),
    "spectral.lift_s": ("spectral.lift_decomposition",),
    "spectral.nb_trace_s": ("spectral.nb_trace", "spectral.nb_spectral_formula"),
    "poincare.certify_s": ("poincare.certify_relative",),
    "poincare.adversarial_s": ("poincare.expander_bound_check",),
    "zmod.hensel_s": ("zmod.hensel",),
    "reps.inventory_s": ("reps.borel_group", "reps.irrep_inventory"),
    "reps.classify_s": ("reps.classify_all",),
    "reps.oracle_s": ("reps.brute_force_irreps",),
    "freegroup.words_s": ("freegroup.trivial_word_counts",),
    "quaternion.loops_s": ("quaternion.loop_count_quat",),
}

# rate = summed span counts / the layer's busy time
RATES = {
    "psl.closure_elements_per_s": ("psl.closure_s", "elements/s"),
    "graphs.cayley_edges_per_s": ("graphs.cayley_s", "edges/s"),
    "zmod.roots_per_s": ("zmod.hensel_s", "roots/s"),
    "freegroup.words_per_s": ("freegroup.words_s", "words/s"),
}

# every per-layer metric the traced run reports, with its unit
LAYER_UNITS = {**{name: "s" for name in LAYER_SPANS},
               **{name: unit for name, (_, unit) in RATES.items()},
               "unattributed_s": "s", "trace_overhead_s": "s"}


class NullTracer:
    """The untraced run: spans cost one call and record nothing."""

    case = None

    def span(self, name, count=None, **args):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.case: str | None = None
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int | None = None, **args):
        rec = {"name": name, "workload": self.workload, "case": self.case,
               "parent": self._stack[-1] if self._stack else None,
               "args": args, "count": count, "start": time.perf_counter(),
               "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ints = [a for a in args if isinstance(a, int)]
            with self.span(name, **({"ints": ints} if ints else {})) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["count"] = count(result)
                return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED; a name that no longer exists is
        recorded in ``missing``."""
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(f"boxlab.{module_name}")
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name \
                    else module
                fn = getattr(owner, fn_name, None)
                if owner is None or not callable(fn):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, fn_name, self._wrap(f"{module_name}.{attr}", fn))

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced workload run of ``wall`` seconds.

        ``trace_overhead_s`` needs an untraced run and is added by the caller.
        Metrics fed by a missing function are left out, never reported as 0.
        """
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for rec in self.spans:
            duration = rec["end"] - rec["start"]
            if rec["parent"] is None:
                top_level += duration
            else:
                child_time[rec["parent"]] += duration
        self_time: dict[str, float] = {}
        counts: dict[str, int] = {}
        for rec, children in zip(self.spans, child_time):
            name = rec["name"]
            self_time[name] = self_time.get(name, 0.0) \
                + rec["end"] - rec["start"] - children
            counts[name] = counts.get(name, 0) + (rec["count"] or 0)
        missing = set(self.missing)
        out = {}
        for metric, names in LAYER_SPANS.items():
            if not missing.intersection(names):
                out[metric] = sum(self_time.get(n, 0.0) for n in names)
        for metric, (busy, _) in RATES.items():
            if busy in out:
                work = sum(counts.get(n, 0) for n in LAYER_SPANS[busy])
                out[metric] = work / out[busy] if out[busy] > 0 else 0.0
        out["unattributed_s"] = wall - top_level
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "missing": self.missing,
                       "spans": self.spans}, fh)
