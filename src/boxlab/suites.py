"""Verification bundles: one function per acceptance criterion.

Each function takes a seed (most ignore it) and returns a plain dict
{criterion, name, passed, details} so the CLI can aggregate them into
reports and the test suite can assert on them.  All randomness is seeded;
details contain only reproducible values.
"""

from __future__ import annotations

import functools
import math
import time

from . import psl, reps
from .freegroup import trivial_word_counts
from .graphs import (cayley_graph, complete, complete_bipartite, cycle, fibers,
                     girth, homology_cover, is_automorphism, petersen,
                     verify_covering)
from .poincare import certify_relative, expander_bound_check
from .quaternion import loop_count_quat, quaternion_generators
from .reps import borel_group, brute_force_irreps, classify_all, irrep_inventory
from .spectral import (extreme_spectrum, lift_decomposition,
                       nb_spectral_formula, nb_trace, ramanujan_check,
                       spectrum, trace_inequality_audit)
from .zmod import (LpsParams, find_admissible_q, is_prime, require_odd_prime,
                   sqrt_hensel)


@functools.lru_cache(maxsize=None)
def lps_cayley(q: int = 29, n: int = 1):
    """Cayley graph of PSL(2, q^n) on the six norm-5 generators."""
    params = LpsParams.build(q, n)
    gens = quaternion_generators(params.p)
    modulus = q ** n
    mats = psl.lps_letter_images(gens, q, n, params.epsilon(n))
    elements = psl.subgroup_closure(mats, modulus, q)
    return cayley_graph(elements, lambda a, b: psl.mat_mul(a, b, modulus, q),
                        mats)


@functools.lru_cache(maxsize=None)
def psl23_cayley():
    """A 3-regular Cayley graph of PSL(2, 3) on 12 vertices."""
    elems = psl.psl_elements(3, 1)
    u = psl.canon((1, 1, 0, 1), 3, 3)
    u_inv = psl.canon((1, -1, 0, 1), 3, 3)
    h = psl.canon((0, 1, -1, 0), 3, 3)
    return cayley_graph(elems, lambda a, b: psl.mat_mul(a, b, 3, 3),
                        [u, u_inv, h])


def criterion_ramanujan(seed: int = 0) -> dict:
    """6-regular Cayley graph of PSL(2, 29): extreme eigenvalues within the
    optimal bound 2*sqrt(5), non-bipartite."""
    cay = lps_cayley()
    g = cay.graph
    ext = extreme_spectrum(g, seed=seed)
    bound = 2 * math.sqrt(5)
    cert = ramanujan_check(g, ext, tolerance=1e-7)
    bipartite = g.is_bipartite()
    passed = (g.n == 12180 and g.k == 6 and not bipartite
              and ext.second_largest <= bound + 1e-7
              and ext.smallest >= -bound - 1e-7
              and cert.passed)
    return {
        "criterion": 1, "name": "ramanujan-psl2-29", "passed": passed,
        "details": {
            "vertices": g.n, "regularity": g.k, "bipartite": bipartite,
            "second_largest": ext.second_largest, "smallest": ext.smallest,
            "bound": bound, "margin": cert.margin,
            "residuals": [ext.residual_second, ext.residual_smallest],
        },
    }


def criterion_hensel(seed: int = 0) -> dict:
    """Returned roots square back to u mod q^n for all primes q <= 50 and
    n <= 6; for every modulus q^n <= 1e5 the check runs over ALL u coprime to
    q and the returned pair must exhaust the brute-force solution set."""
    primes = [q for q in range(3, 51) if is_prime(q)]
    checked = 0
    complete_checked = 0
    passed = True
    for q in primes:
        for n in range(1, 7):
            modulus = q ** n
            if modulus <= 10 ** 5:
                square_map: dict[int, list[int]] = {}
                for r in range(modulus):
                    square_map.setdefault(r * r % modulus, []).append(r)
                candidates = range(1, modulus)
            else:
                square_map = None
                step = max(1, (modulus - 1) // 97)
                candidates = sorted(set(range(1, q)) | set(range(1, modulus, step)))
            for u in candidates:
                if u % q == 0:
                    continue
                pair = sqrt_hensel(u, q, n)
                if square_map is not None:
                    expected = square_map.get(u, [])
                    got = sorted(pair) if pair else []
                    passed = passed and got == expected
                    complete_checked += 1
                if pair is not None:
                    r, s = pair
                    passed = passed and r * r % modulus == u % modulus \
                        and s * s % modulus == u % modulus
                checked += 1
    return {"criterion": 2, "name": "hensel-roots", "passed": passed,
            "details": {"pairs_checked": checked,
                        "complete_solution_sets": complete_checked}}


def criterion_admissible(seed: int = 0) -> dict:
    """Admissible primes in [3, 100] contain 29 and exclude 13; every verdict
    re-verified by residue enumeration."""
    found = find_admissible_q(3, 100)
    verdicts_ok = True
    for q in range(3, 101):
        if not is_prime(q) or q == 2:
            continue
        if q == 5:
            verdicts_ok = verdicts_ok and q not in found
            continue
        minus_one = (q - 1) in {x * x % q for x in range(q)}
        five = 5 % (2 * q) in {x * x % (2 * q) for x in range(2 * q)}
        verdicts_ok = verdicts_ok and ((q in found) == (minus_one and five))
    passed = 29 in found and 13 not in found and verdicts_ok
    return {"criterion": 3, "name": "admissible-primes", "passed": passed,
            "details": {"found": found}}


def criterion_subgroups(seed: int = 0) -> dict:
    """Kernel lattice at small parameters: orders, abelian structure, the
    power-commutator generation identity, and the commutator form of the
    diagonal generator."""
    rows = []
    passed = True
    for q, n, k in [(3, 2, 1), (3, 3, 1), (3, 4, 2), (5, 2, 1)]:
        kernel = psl.kernel_enumerate(q, n, k)
        ok = len(kernel) == q ** (3 * (n - k))
        abelian = exponent_ok = None
        if n <= 2 * k:
            abelian = kernel.is_abelian()
            exponent_ok = kernel.exponent_divides(q ** (n - k))
            if n > k:
                modulus = q ** n
                ident = psl.canon(psl.IDENT, modulus, q)
                smaller = q ** (n - k - 1)
                exponent_ok = exponent_ok and any(
                    psl.mat_pow(x, smaller, modulus, q) != ident
                    for x in kernel.elements)
                # three independent generators of order q^(n-k)
                triple = list(psl.kernel_generators(q, n, k))
                order = q ** (n - k)
                exponent_ok = exponent_ok and all(
                    psl.mat_pow(t, order, modulus, q) == ident
                    and psl.mat_pow(t, order // q, modulus, q) != ident
                    for t in triple)
                span = psl.subgroup_closure(triple, modulus, q)
                exponent_ok = exponent_ok and set(span) == set(kernel.elements)
            ok = ok and abelian and exponent_ok
        gamma = psl.gamma_image_check(q, n, k)
        ok = ok and gamma.passed
        commutator_ids = []
        for kk in range(0, n - 2):
            commutator_ids.append(psl.mgen_commutator_identity(q, n, kk))
        ok = ok and all(commutator_ids)
        if n >= 2:
            closure = psl.subgroup_closure(list(psl.mgen_generators(q, n)),
                                           q ** n, q)
            ok = ok and set(closure) == set(
                psl.kernel_enumerate(q, n, n - 1).elements)
        rows.append({"q": q, "n": n, "k": k, "kernel_order": len(kernel),
                     "abelian": abelian, "exponent_ok": exponent_ok,
                     "gamma_image": gamma.passed,
                     "commutator_identity": commutator_ids, "passed": ok})
        passed = passed and ok
    return {"criterion": 4, "name": "subgroup-lattice", "passed": passed,
            "details": {"cases": rows}}


def criterion_covers(seed: int = 0) -> dict:
    """Homology covers over the corpus: fold count, local bijectivity,
    degree, girth monotonicity, deck action by automorphisms."""
    corpus = [("C6", cycle(6)), ("K4", complete(4)),
              ("K33", complete_bipartite(3, 3)), ("petersen", petersen()),
              ("cayley-psl23", psl23_cayley().graph)]
    rows = []
    passed = True
    for name, base in corpus:
        base_girth = girth(base)
        for m in (2, 3):
            cover = homology_cover(base, m)
            ok = cover.graph.n == m ** cover.rank * base.n
            ok = ok and verify_covering(cover)
            ok = ok and cover.graph.k == base.k
            cover_girth = girth(cover.graph)
            ok = ok and cover_girth >= base_girth
            for j in range(cover.rank):
                shift = [0] * cover.rank
                shift[j] = 1
                ok = ok and is_automorphism(cover.graph,
                                            cover.deck_translate(shift))
            rows.append({"base": name, "m": m, "vertices": cover.graph.n,
                         "rank": cover.rank, "girth_base": base_girth,
                         "girth_cover": cover_girth, "passed": ok})
            passed = passed and ok
    return {"criterion": 5, "name": "homology-covers", "passed": passed,
            "details": {"cases": rows}}


def _lift_pairs():
    cover = homology_cover(complete(4), 2)
    return [
        ("C8-over-C4", cycle(8), cycle(4), tuple(v % 4 for v in range(8))),
        ("cover-K4-over-K4", cover.graph, complete(4), cover.projection),
    ]


def criterion_lift(seed: int = 0) -> dict:
    """Lifted spectrum equals the base spectrum; relative eigenvectors have
    vanishing fiber sums."""
    rows = []
    passed = True
    for name, g, h, fiber_map in _lift_pairs():
        deco = lift_decomposition(g, h, fiber_map)
        base_vals = spectrum(h).laplacian_values()
        diff = max(abs(a - b) for a, b in zip(deco.lifted.values, base_vals))
        ok = diff <= 1e-9 and len(deco.lifted.values) == h.n
        sums = deco.relative_vectors()[fibers(fiber_map, h.n)].sum(axis=1)
        fiber_max = float(abs(sums).max(initial=0.0))
        ok = ok and fiber_max <= 1e-8
        rows.append({"pair": name, "epsilon": deco.epsilon,
                     "lift_dim": len(deco.lifted.values),
                     "lifted_match": diff, "max_fiber_sum": fiber_max,
                     "passed": ok})
        passed = passed and ok
    return {"criterion": 6, "name": "lift-decomposition", "passed": passed,
            "details": {"cases": rows}}


def criterion_poincare(seed: int = 0) -> dict:
    """Certificates at C = 2k/eps on the lift pairs; the adversarial map on
    C64 breaks the plain expander bound at C = k/eps for any eps above the
    spectral gap."""
    rows = []
    passed = True
    for name, g, h, fiber_map in _lift_pairs():
        cert = certify_relative(g, h, fiber_map, seed=seed)
        rows.append({"pair": name, "C": cert.C, "epsilon": cert.epsilon,
                     "worst_map": cert.worst_map, "worst_sum": cert.worst_sum,
                     "passed": cert.passed})
        passed = passed and cert.passed
    c64 = cayley_graph(list(range(64)), lambda a, b: (a + b) % 64, [1, 63])
    lam1 = spectrum(c64.graph).laplacian_values()[1]
    violations = []
    for eps in (lam1 * 1.000001, 2 * lam1, 10 * lam1, 1.0):
        report = expander_bound_check(c64, C=c64.graph.k / eps)
        violations.append({"eps": eps, "C": report.C, "lhs": report.lhs,
                           "rhs": report.rhs, "violated": report.violated})
        passed = passed and report.violated
    return {"criterion": 7, "name": "poincare-certificates", "passed": passed,
            "details": {"certificates": rows, "gap_c64": lam1,
                        "adversarial": violations}}


def criterion_reps(seed: int = 0) -> dict:
    """Representation audit: completeness, orthonormality, the dimension law,
    and agreement with the numeric regular-representation oracle."""
    rows = []
    passed = True
    for q, k, n in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3)]:
        group = borel_group(q, k, n)
        table = irrep_inventory(group)       # raises on audit failure
        classify_all(table)                  # raises if the law fails
        dims = table.dimensions()
        ok = sum(d * d * c for d, c in dims.items()) == group.order
        oracle = None
        if group.order <= reps.ORACLE_CAP:
            oracle = brute_force_irreps(group.elements, group.mul)
            ok = ok and oracle == dims
        rows.append({"q": q, "k": k, "n": n, "order": group.order,
                     "dimensions": sorted(dims.items()),
                     "gram_defect": table.gram_defect,
                     "oracle_match": oracle == dims if oracle else None,
                     "passed": ok})
        passed = passed and ok
    return {"criterion": 8, "name": "representation-audit", "passed": passed,
            "details": {"cases": rows}}


def criterion_loops(seed: int = 0) -> dict:
    """Loop counts from words and quaternions agree; the trace inequality
    holds on the PSL(2, 29) graph; girth zeros and the spectral formula for
    the walk traces check out."""
    q = 29
    m_max = 8
    cay = lps_cayley()
    graph = cay.graph
    index_a = graph.n

    exact_words = {n: trivial_word_counts(n, None, m_max, q) for n in (0, 1)}
    cumulative = {n: [sum(c[: m + 1]) for m in range(m_max + 1)]
                  for n, c in exact_words.items()}
    quat = {n: {m: loop_count_quat(n, m, q) for m in range(0, m_max + 1, 2)}
            for n in (0, 1)}

    passed = True
    # the two counters are tied by a 2:1 correspondence of representatives
    for n in (0, 1):
        for m in range(0, m_max + 1, 2):
            expected = 2 * sum(exact_words[n][mm] for mm in range(0, m + 1, 2))
            passed = passed and quat[n][m] == expected

    trace = nb_trace(graph, m_max)
    # closed non-backtracking walks per vertex are exactly the trivial words
    for m in range(m_max + 1):
        parity_sum = sum(exact_words[1][mm] for mm in range(m % 2, m + 1, 2))
        passed = passed and trace.cumulative[m] == index_a * parity_sum

    top = extreme_spectrum(graph).second_largest
    audit_words = trace_inequality_audit(
        {m: cumulative[1][m] for m in range(m_max + 1)}, index_a, trace,
        top_eigenvalue=top)
    audit_quat = trace_inequality_audit(
        {m: quat[1][m] for m in range(0, m_max + 1, 2)}, index_a, trace)
    passed = passed and audit_words.passed and audit_quat.passed
    passed = passed and audit_words.threshold_below_6
    passed = passed and audit_words.cosh_bound <= audit_words.threshold

    pet = petersen()
    pet_trace = nb_trace(pet, 8)
    pet_girth = girth(pet)
    girth_zeros = all(pet_trace.exact[m] == 0 for m in range(1, int(pet_girth)))
    passed = passed and girth_zeros

    formula_defect = 0.0
    for g in (complete(7), pet, cycle(12), psl23_cayley().graph,
              homology_cover(complete(4), 2).graph):
        tr = nb_trace(g, 10)
        formula = nb_spectral_formula(spectrum(g).values, tr.p, 10)
        formula_defect = max(formula_defect,
                             max(abs(formula[m] - tr.cumulative[m])
                                 for m in range(11)))
    passed = passed and formula_defect <= 1e-6

    return {"criterion": 9, "name": "loop-counts-and-traces", "passed": passed,
            "details": {
                "exact_words_n1": exact_words[1],
                "quat_n1": sorted(quat[1].items()),
                "trace_cumulative": list(trace.cumulative),
                "audit_threshold": audit_words.threshold,
                "cosh_bound": audit_words.cosh_bound,
                "petersen_girth_zeros": girth_zeros,
                "spectral_formula_defect": formula_defect,
            }}


def min_feasible_level(q: int, k: int) -> dict:
    """Smallest admissible depth for the size condition, with the implied
    quotient-order magnitude showing it is far beyond desk scale.
    ValueError unless q is an odd prime and k >= 1."""
    require_odd_prime(q)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    margin = 3 * k + 3 + 2 * q ** (3 * k + 1)
    n_min = 6 * margin
    exponent = 3 * n_min + 3 * k + 3 + 2 * q ** (3 * k + 1)
    digits = int(exponent * math.log10(q)) + 1
    return {"q": q, "k": k, "n_min": n_min,
            "depth_condition_ok": 18 * (k + 1) <= n_min,
            "order_bound_exponent": exponent,
            "order_bound_digits": digits}


def criterion_feasibility(seed: int = 0) -> dict:
    r29 = min_feasible_level(29, 1)
    r3 = min_feasible_level(3, 1)
    passed = (r29["n_min"] == 6 * (6 + 2 * 29 ** 4)
              and r29["depth_condition_ok"]
              and r3["n_min"] == 1008
              and r29["order_bound_digits"] > 10 ** 6)
    return {"criterion": 10, "name": "feasibility-calculator", "passed": passed,
            "details": {"q29_k1": r29, "q3_k1": r3}}


def export_spectra_csv(directory: str) -> list[str]:
    """Eigenvalue CSV files for the lift-pair graphs; returns written paths."""
    import os

    from .spectral import write_spectrum_csv

    written = []
    for name, g, h, _ in _lift_pairs():
        for tag, graph in (("total", g), ("base", h)):
            path = os.path.join(directory, f"{name}-{tag}.csv")
            write_spectrum_csv(spectrum(graph), path)
            written.append(path)
    return written


SUITES = {
    "hensel": (criterion_hensel, criterion_admissible),
    "subgroups": (criterion_subgroups,),
    "covers": (criterion_covers,),
    "spectra": (criterion_lift,),
    "poincare": (criterion_poincare,),
    "reps": (criterion_reps,),
    "loops": (criterion_loops,),
    "ramanujan": (criterion_ramanujan,),
}


def run_suite(name: str, seed: int, timings: dict) -> list[dict]:
    """Run every criterion of a suite.  A crash becomes a failed result
    carrying the error and the seed.  Each result's wall seconds, its CPU
    seconds (the user plus system time of every thread of the process), and
    the process's high-water mark in MB once it is done (``ru_maxrss``, which
    Linux gives in KiB), are stored in ``timings`` under its name."""
    import resource     # loaded only by a run that reads it

    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for fn in SUITES[name]:
        start = time.perf_counter()
        before = resource.getrusage(resource.RUSAGE_SELF)
        try:
            results.append(fn(seed))
        except Exception as exc:       # a crash is a failed criterion
            results.append({"criterion": None, "name": fn.__name__,
                            "passed": False,
                            "details": {"error": repr(exc), "seed": seed}})
        after = resource.getrusage(resource.RUSAGE_SELF)
        timings[results[-1]["name"]] = (
            time.perf_counter() - start,
            after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
            after.ru_maxrss / 1024)
    return results
