"""The three benchmark workloads and the gate that checks their outputs.

Each workload is a function ``(gate, tracer, seed)`` that calls boxlab's
layers directly, through module attributes so that a traced run can wrap
them (see ``tracing.py``), and hands every output to ``gate.check``.  The
seed only reaches ``extreme_spectrum`` and the random sign maps of
``certify_relative``; every other input is fixed, so the frozen reference
values in ``reference.json`` hold for any seed.

Why these three (the layer -> metric predictions are in README.md):

* ``lps`` is the scale axis: one 113,460-element closure at q=61, a Cayley
  graph and a Krylov solve.  ``psl`` closure, ``graphs`` build and
  ``spectral`` extremes do the work; ``reps``, ``freegroup`` and
  ``poincare`` are untouched.
* ``algebra`` uses ``psl`` in the opposite regime: many pairwise and
  chained products in groups of order <= 729, where per-call overhead
  dominates.  It also carries the Hensel sweep, the irrep audit and the
  word DFS, and builds no graph.
* ``covers`` builds graphs from the cover machinery instead of a group and
  is the only workload on ``poincare`` and the dense ``spectral`` path; it
  barely touches ``psl``.
"""

from __future__ import annotations

import contextlib
import sys
import traceback

from boxlab import (freegroup, graphs, poincare, psl, quaternion, reps,
                    spectral, zmod)


def _plain(value):
    """Tuples to lists and numpy scalars to Python numbers, as JSON holds them."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def matches(value, ref: dict) -> bool:
    """Exact equality, or within ``ref["tol"]`` for floats and float lists."""
    value = _plain(value)
    expected = ref["value"]
    tol = ref.get("tol")
    if tol is None:
        return value == expected
    if isinstance(expected, list):
        return (isinstance(value, list) and len(value) == len(expected)
                and all(abs(v - e) <= tol for v, e in zip(value, expected)))
    return isinstance(value, (int, float)) and abs(value - expected) <= tol


class Gate:
    """Compares outputs against one workload's frozen reference values.

    Check ids are ``<case>.<key>``.  A case that raises fails every check of
    that case not yet made, and the workload goes on with the next case; a
    reference check that is never made counts as failed.
    """

    def __init__(self, reference: dict, tracer=None):
        self.reference = reference
        self.tracer = tracer
        self.results: dict[str, bool] = {}
        self.errors: list[str] = []
        self._case: str | None = None

    @contextlib.contextmanager
    def case(self, name: str):
        self._case = name
        if self.tracer is not None:
            self.tracer.case = name
        try:
            yield
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.errors.append(f"{name}: {exc!r}")
            for cid in self.reference:
                if cid.startswith(name + ".") and cid not in self.results:
                    self.results[cid] = False
        finally:
            self._case = None
            if self.tracer is not None:
                self.tracer.case = None

    def check(self, key: str, value) -> None:
        cid = f"{self._case}.{key}"
        if cid not in self.reference:
            raise KeyError(f"no reference value for check {cid!r}")
        self.results[cid] = matches(value, self.reference[cid])

    @property
    def attempted(self) -> int:
        return len(self.reference)

    @property
    def failed(self) -> int:
        return sum(1 for cid in self.reference if not self.results.get(cid))


# --- lps ---------------------------------------------------------------------

LPS_PRIMES = (29, 41, 61)


def lps(gate: Gate, tracer, seed: int) -> None:
    for q in LPS_PRIMES:
        with gate.case(f"q{q}"):
            params = zmod.LpsParams.build(q, 1)
            gens = quaternion.quaternion_generators(params.p)
            mats = psl.lps_letter_images(gens, q, 1, params.epsilon(1))
            elements = psl.subgroup_closure(mats, q, q)
            cay = graphs.cayley_graph(
                elements, lambda a, b, q=q: psl.mat_mul(a, b, q, q), mats)
            g = cay.graph
            ext = spectral.extreme_spectrum(g, seed=seed)
            cert = spectral.ramanujan_check(g, ext, tolerance=1e-7)
            with tracer.span("graphs.is_bipartite"):
                bipartite = g.is_bipartite()
            gate.check("vertices", g.n)
            gate.check("regularity", g.k)
            gate.check("second_largest", ext.second_largest)
            gate.check("smallest", ext.smallest)
            gate.check("ramanujan", cert.passed)
            gate.check("bipartite", bipartite)
            if q == 29:
                gate.check("nb_trace_cumulative",
                           spectral.nb_trace(g, 8).cumulative)


# --- algebra -----------------------------------------------------------------

KERNEL_CASES = ((3, 2, 1), (3, 3, 1), (3, 4, 2), (5, 2, 1))
BOREL_CASES = ((3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3))
WORD_RADIUS = 8
WORD_Q = 29


def _exponent_checks(kernel, q: int, n: int, k: int) -> bool:
    """Exponent q^(n-k) exactly, three independent generators of that order,
    and their closure is the whole kernel (as in acceptance criterion 4)."""
    modulus = q ** n
    ok = kernel.exponent_divides(q ** (n - k))
    if n > k:
        ident = psl.canon(psl.IDENT, modulus, q)
        ok = ok and any(psl.mat_pow(x, q ** (n - k - 1), modulus, q) != ident
                        for x in kernel.elements)
        qk = q ** k
        triple = [psl.canon((1, qk, 0, 1), modulus, q),
                  psl.canon((1, 0, qk, 1), modulus, q),
                  psl.canon((1 + qk, 0, 0, pow(1 + qk, -1, modulus)),
                            modulus, q)]
        order = q ** (n - k)
        ok = ok and all(psl.mat_pow(t, order, modulus, q) == ident
                        and psl.mat_pow(t, order // q, modulus, q) != ident
                        for t in triple)
        span = psl.subgroup_closure(triple, modulus, q)
        ok = ok and set(span) == set(kernel.elements)
    return ok


def _kernel_lattice(gate: Gate, tracer) -> None:
    for q, n, k in KERNEL_CASES:
        with gate.case(f"kernel-{q}-{n}-{k}"):
            kernel = psl.kernel_enumerate(q, n, k)
            gate.check("kernel_order", len(kernel))
            if n <= 2 * k:
                gate.check("abelian", kernel.is_abelian())
                with tracer.span("psl.exponent", q=q, n=n, k=k):
                    exponent_ok = _exponent_checks(kernel, q, n, k)
                gate.check("exponent_ok", exponent_ok)
            gamma = psl.gamma_image_check(q, n, k)
            gate.check("gamma_image", gamma.passed)
            gate.check("gamma_order", gamma.generated_order)
            gate.check("commutator_identity",
                       [psl.mgen_commutator_identity(q, n, kk)
                        for kk in range(n - 2)])
            top = psl.subgroup_closure(list(psl.mgen_generators(q, n)),
                                       q ** n, q)
            gate.check("top_kernel_generated", set(top) == set(
                psl.kernel_enumerate(q, n, n - 1).elements))


def _hensel(gate: Gate, tracer) -> None:
    """Criterion 2's sweep.  The brute-force square tables are the oracle
    and stay outside the ``zmod.hensel`` spans."""
    for q in (q for q in range(3, 51) if zmod.is_prime(q)):
        with gate.case(f"hensel-{q}"):
            complete = roots_ok = True
            for n in range(1, 7):
                modulus = q ** n
                if modulus <= 10 ** 5:
                    square_map: dict[int, list[int]] | None = {}
                    for r in range(modulus):
                        square_map.setdefault(r * r % modulus, []).append(r)
                    candidates = [u for u in range(1, modulus) if u % q]
                else:
                    square_map = None
                    step = max(1, (modulus - 1) // 97)
                    candidates = [u for u in sorted(set(range(1, q))
                                                    | set(range(1, modulus, step)))
                                  if u % q]
                with tracer.span("zmod.hensel", count=len(candidates),
                                 q=q, n=n):
                    pairs = [zmod.sqrt_hensel(u, q, n) for u in candidates]
                for u, pair in zip(candidates, pairs):
                    if square_map is not None:
                        complete = complete and (sorted(pair) if pair else []) \
                            == square_map.get(u, [])
                    if pair is not None:
                        roots_ok = roots_ok and all(
                            r * r % modulus == u for r in pair)
            gate.check("complete", complete)
            gate.check("roots_square", roots_ok)


def _admissible(gate: Gate) -> None:
    with gate.case("admissible"):
        found = zmod.find_admissible_q(3, 100)
        verdicts_ok = True
        for q in range(3, 101):
            if not zmod.is_prime(q) or q == 5:
                continue
            minus_one = (q - 1) in {x * x % q for x in range(q)}
            five = 5 in {x * x % (2 * q) for x in range(2 * q)}
            verdicts_ok = verdicts_ok and (q in found) == (minus_one and five)
        gate.check("found", found)
        gate.check("verdicts", verdicts_ok)


def _irreps(gate: Gate) -> None:
    for q, k, n in BOREL_CASES:
        with gate.case(f"borel-{q}-{k}-{n}"):
            group = reps.borel_group(q, k, n)
            table = reps.irrep_inventory(group)
            classified = reps.classify_all(table)
            dims = table.dimensions()
            oracle = reps.brute_force_irreps(group.elements, group.mul)
            gate.check("order", group.order)
            gate.check("dimensions", sorted(dims.items()))
            gate.check("classified", len(classified))
            gate.check("orthonormal", table.gram_defect <= 1e-9)
            gate.check("oracle_match", oracle == dims)


def _words(gate: Gate) -> None:
    """Criterion 9's exhaustive word DFS against the quaternion counter."""
    m_max = WORD_RADIUS
    for n in (0, 1):
        with gate.case(f"words-n{n}"):
            counts = freegroup.trivial_word_counts(n, None, m_max, WORD_Q)
            quat = [quaternion.loop_count_quat(n, m, WORD_Q)
                    for m in range(0, m_max + 1, 2)]
            gate.check("counts", counts)
            gate.check("quat", quat)
            gate.check("two_to_one", all(
                quat[m // 2] == 2 * sum(counts[0:m + 1:2])
                for m in range(0, m_max + 1, 2)))


def algebra(gate: Gate, tracer, seed: int) -> None:
    _kernel_lattice(gate, tracer)
    _hensel(gate, tracer)
    _admissible(gate)
    _irreps(gate)
    _words(gate)


# --- covers ------------------------------------------------------------------


def _psl23_cayley() -> graphs.Graph:
    """The 3-regular Cayley graph of PSL(2, 3) of acceptance criterion 5."""
    elems = psl.psl_elements(3, 1)
    gens = [psl.canon((1, 1, 0, 1), 3, 3), psl.canon((1, -1, 0, 1), 3, 3),
            psl.canon((0, 1, -1, 0), 3, 3)]
    return graphs.cayley_graph(elems, lambda a, b: psl.mat_mul(a, b, 3, 3),
                               gens).graph


def _corpus() -> list[tuple[str, graphs.Graph]]:
    return [("C6", graphs.cycle(6)), ("K4", graphs.complete(4)),
            ("K33", graphs.complete_bipartite(3, 3)),
            ("petersen", graphs.petersen()), ("psl23", _psl23_cayley())]


def _homology_covers(gate: Gate, corpus) -> dict:
    """Criterion 5 over the corpus; returns the m=2 covers for reuse."""
    doubles = {}
    for name, base in corpus:
        with gate.case(name):
            gate.check("girth", graphs.girth(base))
        for m in (2, 3):
            with gate.case(f"{name}-m{m}"):
                cover = graphs.homology_cover(base, m)
                gate.check("vertices", cover.graph.n)
                gate.check("rank", cover.rank)
                gate.check("regularity", cover.graph.k)
                gate.check("covering", graphs.verify_covering(cover))
                gate.check("girth", graphs.girth(cover.graph))
                deck = []
                for j in range(cover.rank):
                    shift = [0] * cover.rank
                    shift[j] = 1
                    deck.append(graphs.is_automorphism(
                        cover.graph, cover.deck_translate(shift)))
                gate.check("deck_automorphisms", all(deck))
                if m == 2:
                    doubles[name] = cover
    return doubles


def _lift_pairs(gate: Gate, doubles: dict, seed: int) -> None:
    """Lift decomposition then the Poincare certificate reusing it."""
    pairs = [("C8-C4", graphs.cycle(8), graphs.cycle(4),
              tuple(v % 4 for v in range(8)))]
    pairs += [(f"{name}-lift", doubles[name].graph, doubles[name].base,
               doubles[name].projection)
              for name in ("K4", "petersen", "psl23") if name in doubles]
    for name, g, h, fibers in pairs:
        with gate.case(name):
            deco = spectral.lift_decomposition(g, h, fibers)
            base_vals = spectral.spectrum(h).laplacian_values()
            cert = poincare.certify_relative(g, h, fibers, deco=deco, seed=seed)
            gate.check("epsilon", deco.epsilon)
            gate.check("lift_dim", len(deco.lifted.values))
            gate.check("lifted_match", max(
                abs(a - b) for a, b in zip(deco.lifted.values, base_vals))
                <= 1e-9)
            gate.check("certified", cert.passed)


def _nb_traces(gate: Gate, doubles: dict) -> None:
    with gate.case("petersen-nb"):
        g = doubles["petersen"].graph
        values = spectral.spectrum(g).values
        trace = spectral.nb_trace(g, 10)
        formula = spectral.nb_spectral_formula(values, trace.p, 10)
        gate.check("cumulative", trace.cumulative)
        gate.check("formula_match", max(
            abs(f - t) for f, t in zip(formula, trace.cumulative)) <= 1e-6)


def _adversarial(gate: Gate) -> None:
    """Criterion 7's translation map on C64 beats C = k/eps above the gap."""
    with gate.case("c64"):
        c64 = graphs.cayley_graph(list(range(64)), lambda a, b: (a + b) % 64,
                                  [1, 63])
        lam1 = spectral.spectrum(c64.graph).laplacian_values()[1]
        violated = [poincare.expander_bound_check(
            c64, C=c64.graph.k / eps).violated
            for eps in (lam1 * 1.000001, 2 * lam1, 10 * lam1, 1.0)]
        gate.check("gap", lam1)
        gate.check("violated", violated)


def covers(gate: Gate, tracer, seed: int) -> None:
    doubles = _homology_covers(gate, _corpus())
    _lift_pairs(gate, doubles, seed)
    _nb_traces(gate, doubles)
    _adversarial(gate)


WORKLOADS = {"lps": lps, "algebra": algebra, "covers": covers}
