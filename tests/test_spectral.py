import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import spectral
from boxlab.errors import ResourceLimitError
from boxlab.graphs import (Graph, complete, complete_bipartite, cycle, girth,
                           homology_cover, petersen)
from boxlab.suites import lps_cayley
from boxlab.spectral import (POLISHED_RESIDUAL, ExtremeSpectrum, Spectrum,
                             eigenvalue_threshold, extreme_spectrum,
                             lift_decomposition, nb_spectral_formula,
                             nb_trace, ramanujan_check, spectrum,
                             trace_inequality_audit, write_spectrum_csv)
from conftest import adj, edges


def test_c4_laplacian():
    spec = spectrum(cycle(4))
    lap = spec.laplacian_values()
    assert np.allclose(lap, [0, 2, 2, 4], atol=1e-9)
    closed = sorted(2 - 2 * math.cos(2 * math.pi * j / 4) for j in range(4))
    assert np.allclose(lap, closed, atol=1e-9)


def test_k4_adjacency():
    spec = spectrum(complete(4))
    assert np.allclose(spec.values, [-1, -1, -1, 3], atol=1e-9)


def test_spectrum_trace_identities():
    for g in [cycle(8), complete(7), petersen(), complete_bipartite(3, 3)]:
        vals = np.array(spectrum(g).values)
        assert abs(vals.sum()) < 1e-8
        assert abs((vals ** 2).sum() - g.k * g.n) < 1e-8


def test_laplacian_adjacency_mirror():
    spec = spectrum(petersen())
    lap = spec.laplacian_values()
    adj = spec.adjacency_values()
    assert np.allclose(sorted(3 - v for v in lap), sorted(adj), atol=1e-12)


def test_connected_laplacian_zero_simple():
    lap = spectrum(petersen()).laplacian_values()
    assert abs(lap[0]) < 1e-9
    assert lap[1] > 1e-9


def test_ramanujan_k4():
    cert = ramanujan_check(complete(4), spectrum(complete(4)))
    assert cert.passed
    assert 4 <= 3 + 2 * math.sqrt(2)


def test_ramanujan_c12():
    cert = ramanujan_check(cycle(12), spectrum(cycle(12)))
    assert cert.passed   # all cycle eigenvalues lie in [-2, 2]


def test_ramanujan_petersen_and_bipartite():
    assert ramanujan_check(petersen(), spectrum(petersen())).passed
    cert = ramanujan_check(complete_bipartite(3, 3), spectrum(complete_bipartite(3, 3)))
    assert cert.bipartite and cert.passed


def test_ramanujan_disconnected_rejected():
    from boxlab.graphs import Graph

    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError):
        ramanujan_check(g, None)


def _worst_by_removal(spec, bipartite):
    """Largest nontrivial |eigenvalue|, read the long way: drop k, and -k on
    a bipartite graph, from the dense list, or take both Krylov extremes."""
    if isinstance(spec, ExtremeSpectrum):
        return max([spec.second_largest]
                   + ([] if bipartite else [-spec.smallest]))
    values = list(spec.adjacency_values())
    values.remove(max(values))
    if bipartite:
        values.remove(min(values))
    return max((abs(v) for v in values), default=0.0)


def test_extreme_mode_matches_dense(corpus_cover):
    # on K_n every nontrivial eigenvalue is -1, below the constant's 0
    covers = [corpus_cover(name, m).graph
              for name in ("K4", "C6", "K33", "petersen") for m in (2, 3)
              if (name, m) != ("petersen", 3)]      # 7,290 vertices
    for g in [petersen(), complete(5), complete(8), cycle(5),
              complete_bipartite(4, 4), complete(2), complete(4), complete(7),
              cycle(7), cycle(12), complete_bipartite(3, 3)] + covers:
        dense = spectrum(g)
        specs = [dense]
        if g.n >= 4:
            ext = extreme_spectrum(g)
            assert abs(ext.second_largest - dense.values[-2]) < 1e-7
            assert abs(ext.smallest - dense.values[0]) < 1e-7
            assert ext.residual_second <= 1e-7 * g.k
            assert ext.residual_smallest <= 1e-7 * g.k
            specs.append(ext)
        for spec in specs:
            cert = ramanujan_check(g, spec)
            worst = _worst_by_removal(spec, cert.bipartite)
            assert cert.margin == cert.bound - worst
            assert cert.passed == (worst <= cert.bound + cert.tolerance)
        if g.n == 2:
            assert cert.margin == cert.bound


@pytest.mark.parametrize("seed", range(5))
def test_extreme_spectrum_residuals_at_rounding_level(seed):
    # the Lanczos run stops on T's estimates; the residuals are measured
    # against A, and at q=29 they come out between 4e-15 and 6e-14
    g = lps_cayley(29).graph
    ext = extreme_spectrum(g, seed=seed)
    assert max(ext.residual_second, ext.residual_smallest) <= \
        POLISHED_RESIDUAL * g.k
    assert ext.second_largest == pytest.approx(4.442016442593806, abs=1e-12)
    assert ext.smallest == pytest.approx(-4.410655995562926, abs=1e-12)


@pytest.mark.parametrize("name", ["psl23", "petersen"])
def test_extreme_spectrum_matches_dense_on_covers(corpus_cover, name):
    # the PSL(2, 3) m=2 cover (1,536 vertices) is not vertex-transitive
    g = corpus_cover(name, 2).graph
    dense = spectrum(g).values
    for seed in range(3):
        ext = extreme_spectrum(g, seed=seed)
        assert abs(ext.second_largest - dense[-2]) < 1e-10
        assert abs(ext.smallest - dense[0]) < 1e-10
        assert max(ext.residual_second, ext.residual_smallest) <= \
            POLISHED_RESIDUAL * g.k


def test_extreme_spectrum_certifies_against_a_not_t(corpus_cover,
                                                   monkeypatch):
    import scipy.linalg

    solve = scipy.linalg.eigh_tridiagonal
    rng = np.random.default_rng(0)

    def perturbed(d, e):
        vals, vecs = solve(d, e)
        return vals, vecs + 1e-4 * rng.standard_normal(vecs.shape)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
    with pytest.raises(RuntimeError, match="residual too large"):
        extreme_spectrum(corpus_cover("petersen", 2).graph)


def test_extreme_spectrum_too_small_points_to_dense():
    assert extreme_spectrum(cycle(4)).second_largest == pytest.approx(0.0)
    for g in (complete(3), complete(2)):
        with pytest.raises(ValueError, match=r"spectrum\(\)"):
            extreme_spectrum(g)


def test_lift_decomposition_c8_c4():
    g, h = cycle(8), cycle(4)
    deco = lift_decomposition(g, h, [v % 4 for v in range(8)])
    assert np.allclose(deco.lifted.values, [0, 2, 2, 4], atol=1e-9)
    rel = sorted(deco.relative.values)
    expected = sorted([2 - math.sqrt(2), 2 - math.sqrt(2),
                       2 + math.sqrt(2), 2 + math.sqrt(2)])
    assert np.allclose(rel, expected, atol=1e-9)
    assert abs(deco.epsilon - (2 - math.sqrt(2))) < 1e-9
    assert deco.relative_vectors().shape == (8, 4)


def test_lift_decomposition_trivial_quotient():
    g = cycle(6)
    deco = lift_decomposition(g, g, list(range(6)))
    assert deco.relative.values == ()
    assert deco.epsilon == math.inf


def test_lift_decomposition_cover_k4():
    base = complete(4)
    cover = homology_cover(base, 2)
    deco = lift_decomposition(cover.graph, base, cover.projection)
    base_lap = spectrum(base).laplacian_values()
    assert np.allclose(deco.lifted.values, base_lap, atol=1e-9)
    assert len(deco.lifted.values) == 4
    assert len(deco.relative.values) == 28
    cover_lap = spectrum(cover.graph).laplacian_values()
    combined = sorted(deco.lifted.values + deco.relative.values)
    assert np.allclose(combined, cover_lap, atol=1e-9)
    # relative eigenvectors sum to zero on every fiber
    for bv in range(4):
        fiber = [v for v, p in enumerate(cover.projection) if p == bv]
        sums = deco.relative_vectors()[fiber, :].sum(axis=0)
        assert np.abs(sums).max() < 1e-8


def test_lift_decomposition_rejects_bad_fibers():
    with pytest.raises(ValueError):
        lift_decomposition(cycle(8), cycle(4), [0, 1, 2, 3, 0, 1, 2, 2])


# --- the block split against the dense oracle --------------------------------


@dataclasses.dataclass(eq=False)
class BruteLift:
    lifted: Spectrum
    relative: Spectrum
    epsilon: float


def lift_decomposition_brute(g: Graph, h: Graph, fiber_map) -> BruteLift:
    """Split the Laplacian spectrum of g into the part lifted from h
    (functions constant on fibers) and the relative part (functions with zero
    fiber sums).  The lifted part must match the spectrum of h exactly.
    Every solve uses scipy's default driver (MRRR), a different LAPACK
    algorithm from the divide and conquer that spectrum() runs."""
    fiber_map = tuple(fiber_map)
    if len(fiber_map) != g.n:
        raise ValueError("fiber map must assign every vertex of g")
    fibers: dict[int, list[int]] = {}
    for v, b in enumerate(fiber_map):
        fibers.setdefault(b, []).append(v)
    if sorted(fibers) != list(range(h.n)):
        raise ValueError("fiber map must be onto the base vertex set")
    sizes = {len(f) for f in fibers.values()}
    if len(sizes) != 1:
        raise ValueError(f"fibers must have constant size, got {sizes}")
    f = sizes.pop()
    k = g.k
    if h.k != k:
        raise ValueError("base and total graph must share the regularity")

    lap_g = k * np.eye(g.n) - g.adjacency_matrix()
    lap_h = k * np.eye(h.n) - h.adjacency_matrix()

    q_lift = np.zeros((g.n, h.n))
    for b, verts in fibers.items():
        for v in verts:
            q_lift[v, b] = 1 / math.sqrt(f)
    projected = q_lift.T @ lap_g @ q_lift
    if np.abs(projected - lap_h).max() > 1e-9:
        raise ValueError("lift subspace does not reproduce the base Laplacian; "
                         "fiber map is not a covering quotient")

    cols = []
    for b in sorted(fibers):
        verts = fibers[b]
        for i in range(1, f):
            vec = np.zeros(g.n)
            vec[verts[:i]] = 1.0
            vec[verts[i]] = -float(i)
            vec /= math.sqrt(i * (i + 1))
            cols.append(vec)
    from scipy.linalg import eigh

    h_vals = np.sort(eigh(lap_h, eigvals_only=True))
    if cols:
        q_rel = np.stack(cols, axis=1)
        rel_op = q_rel.T @ lap_g @ q_rel
        rel_vals, rel_vecs = eigh(rel_op)
        rel_vectors = q_rel @ rel_vecs
        epsilon = float(rel_vals[0])
    else:
        rel_vals = np.zeros(0)
        rel_vectors = np.zeros((g.n, 0))
        epsilon = math.inf

    g_vals = np.sort(eigh(lap_g, eigvals_only=True))
    combined = np.sort(np.concatenate([h_vals, rel_vals]))
    if np.abs(combined - g_vals).max() > 1e-9:
        raise RuntimeError("lifted and relative parts do not recombine")

    fiber_sums = math.sqrt(f) * (q_lift.T @ rel_vectors)
    if np.abs(fiber_sums).max(initial=0.0) > 1e-8:
        raise RuntimeError("relative eigenvectors have nonzero fiber sums")

    return BruteLift(
        lifted=Spectrum(values=tuple(float(v) for v in h_vals),
                        operator="laplacian", k=k),
        relative=Spectrum(values=tuple(float(v) for v in rel_vals),
                          operator="laplacian", k=k),
        epsilon=epsilon)


def voltage_cover(h: Graph, f: int, voltages: dict, seed: int = 0):
    """The f-fold cover of h whose edge (u, v), u < v, joins (u, s) to
    (v, voltages[(u, v)][s]) (the identity when absent), with its vertices
    shuffled; returns the cover and its fiber map."""
    relabel = np.random.default_rng(seed).permutation(h.n * f)
    lifted = [(relabel[u * f + s], relabel[v * f + pi[s]])
              for u, v in edges(h)
              for pi in [voltages.get((u, v), range(f))] for s in range(f)]
    fiber_map = np.empty(h.n * f, dtype=np.int64)
    fiber_map[relabel] = np.arange(h.n * f) // f
    return Graph.from_edges(h.n * f, lifted), fiber_map.tolist()


def assert_matches_brute(g, h, fiber_map):
    deco = lift_decomposition(g, h, fiber_map)
    ref = lift_decomposition_brute(g, h, fiber_map)
    assert np.abs(np.subtract(deco.lifted.values,
                              ref.lifted.values)).max() <= 1e-9
    assert len(deco.relative.values) == len(ref.relative.values) == g.n - h.n
    assert np.abs(np.subtract(sorted(deco.relative.values),
                              ref.relative.values)).max(initial=0) <= 1e-9
    if math.isinf(ref.epsilon):
        assert deco.epsilon == math.inf
    else:
        assert abs(deco.epsilon - ref.epsilon) <= 1e-9
    vecs = deco.relative_vectors()
    assert vecs.shape == (g.n, g.n - h.n)
    for count in (0, 1, 2):
        assert np.array_equal(deco.relative_vectors(count), vecs[:, :count])
    gram = vecs.conj().T @ vecs
    assert np.abs(gram - np.eye(g.n - h.n)).max(initial=0) <= 1e-9
    proj = np.asarray(fiber_map)
    for b in range(h.n):
        assert np.abs(vecs[proj == b].sum(axis=0)).max(initial=0) <= 1e-9
    lap_g = g.k * np.eye(g.n) - g.adjacency_matrix()
    values = np.array(deco.relative.values)
    assert np.abs(lap_g @ vecs - vecs * values).max(initial=0) <= 1e-9


def test_lift_matches_brute_c8_c4_and_trivial_quotient():
    assert_matches_brute(cycle(8), cycle(4), [v % 4 for v in range(8)])
    assert_matches_brute(cycle(6), cycle(6), list(range(6)))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", ["C6", "K4", "K33"])
def test_lift_matches_brute_on_homology_covers(corpus_cover, name, m):
    cover = corpus_cover(name, m)
    assert_matches_brute(cover.graph, cover.base, cover.projection)


@pytest.mark.parametrize("name", ["petersen", "psl23"])
def test_lift_matches_brute_on_large_double_covers(corpus_cover, name):
    cover = corpus_cover(name, 2)
    assert_matches_brute(cover.graph, cover.base, cover.projection)


def test_lift_matches_brute_on_trivial_disconnected_cover():
    # two shuffled copies of a base that is itself disconnected: C3 + C4.
    # The brute split still holds, but a disconnected cover has relative
    # eigenvalue 0, and the lift takes connected covers only
    h = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0),
                             (3, 4), (4, 5), (5, 6), (6, 3)])
    g, fiber_map = voltage_cover(h, 2, {}, seed=3)
    assert not g.is_connected()
    assert lift_decomposition_brute(g, h, fiber_map).epsilon == \
        pytest.approx(0, abs=1e-9)
    with pytest.raises(ValueError, match="connected"):
        lift_decomposition(g, h, fiber_map)


def test_lift_matches_brute_on_non_commuting_voltages():
    # S_3 voltages on K4's non-tree edges: a 3-cycle and a transposition
    # generate S_3, so the monodromy does not commute and has no basis of
    # characters; the lift refuses it
    g, fiber_map = voltage_cover(complete(4), 3, {(1, 2): (1, 2, 0),
                                                  (1, 3): (1, 0, 2),
                                                  (2, 3): (0, 2, 1)}, seed=1)
    assert g.is_connected()
    lift_decomposition_brute(g, complete(4), fiber_map)
    with pytest.raises(ValueError, match="does not commute"):
        lift_decomposition(g, complete(4), fiber_map)


SMALL_REGULAR = [cycle(5), cycle(6), complete(4), complete(5),
                 complete_bipartite(3, 3), petersen()]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data(), base=st.sampled_from(range(len(SMALL_REGULAR))),
       group=st.sampled_from([(1, False), (2, False), (3, False), (4, False),
                              (4, True)]),
       seed=st.integers(0, 2 ** 16))
def test_lift_matches_brute_on_random_voltage_covers(data, base, group, seed):
    # translations of Z_f, or of Z_2 x Z_2 (s -> s xor a) at f = 4: abelian
    # monodromy, whose cover is connected when the voltages generate
    h = SMALL_REGULAR[base]
    f, klein = group
    voltages = {}
    for e in edges(h):
        a = data.draw(st.integers(0, f - 1))
        voltages[e] = [s ^ a if klein else (s + a) % f for s in range(f)]
    g, fiber_map = voltage_cover(h, f, voltages, seed=seed)
    if g.is_connected():
        assert_matches_brute(g, h, fiber_map)
    else:
        with pytest.raises(ValueError, match="connected"):
            lift_decomposition(g, h, fiber_map)


def test_lift_rejects_a_fiber_map_that_is_not_a_covering():
    # constant fibers of size 2, but vertex 5 over 1 has neighbours over 0, 3
    fiber_map = [0, 1, 2, 3, 0, 1, 3, 2]
    with pytest.raises(ValueError, match="not a covering quotient"):
        lift_decomposition_brute(cycle(8), cycle(4), fiber_map)
    with pytest.raises(ValueError, match="not a covering quotient"):
        lift_decomposition(cycle(8), cycle(4), fiber_map)


def test_lift_rejects_a_cover_above_the_dense_limit(monkeypatch):
    import scipy.linalg

    def no_solve(*args, **kwargs):
        raise AssertionError("solved past the cap")

    monkeypatch.setattr(scipy.linalg, "eigh", no_solve)
    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    cover = homology_cover(petersen(), 3)
    assert cover.graph.n == 7290
    with pytest.raises(ResourceLimitError, match="4000"):
        lift_decomposition(cover.graph, cover.base, cover.projection)


@pytest.mark.parametrize("name,m", [("C6", 3), ("K4", 3), ("K33", 3)])
def test_lift_certificate_rejects_split_blocks(corpus_cover, monkeypatch,
                                               name, m):
    # one character label moved to its neighbouring root of unity: the
    # character's vector is no longer an eigenvector of that arc's
    # permutation, and only the read-back against g's arcs tells
    cover = corpus_cover(name, m)
    real_characters = spectral._characters

    def corrupted(perms, f):
        labels, exponents = real_characters(perms, f)
        labels = labels.copy()
        labels[0, -1] = (labels[0, -1] + 1) % f
        return labels, exponents

    monkeypatch.setattr(spectral, "_characters", corrupted)
    with pytest.raises(RuntimeError, match="do not recombine"):
        lift_decomposition(cover.graph, cover.base, cover.projection)


@pytest.mark.parametrize("name,m", [("C6", 2), ("C6", 3), ("K4", 2),
                                    ("K4", 3), ("K33", 2), ("K33", 3),
                                    ("petersen", 2), ("psl23", 2)])
def test_lift_matches_twisted_operators_of_the_spanning_tree(corpus_cover,
                                                             name, m):
    # every corpus cover up to DENSE_LIMIT.  L^2 of the Z_m^r homology cover
    # splits over the characters c != 0 of Z_m^r: the relative spectrum is
    # the union of spec(k - A_c), where A_c carries 1 on tree edges and
    # omega^c_j (omega^-c_j reversed) on non-tree edge j, built from the
    # cover's spanning tree alone
    from scipy.linalg import eigvalsh

    cover = corpus_cover(name, m)
    assert cover.graph.n <= spectral.DENSE_LIMIT
    base, tree = cover.base, cover.tree
    omega = np.exp(2j * np.pi / m)
    expected = []
    for c in itertools.product(range(m), repeat=cover.rank):
        if not any(c):
            continue
        a = np.zeros((base.n, base.n), dtype=complex)
        for u, v in tree.tree_edges.tolist():
            a[u, v] = a[v, u] = 1
        for (u, v), cj in zip(tree.non_tree_edges.tolist(), c):
            a[u, v], a[v, u] = omega ** cj, omega ** -cj
        expected.extend(eigvalsh(base.k * np.eye(base.n) - a))
    expected = np.sort(expected)
    deco = lift_decomposition(cover.graph, base, cover.projection)
    assert len(deco.relative.values) == len(expected) == cover.graph.n - base.n
    assert np.abs(np.subtract(deco.relative.values, expected)).max() <= 1e-9
    assert abs(deco.epsilon - expected[0]) <= 1e-9


def test_lift_on_nearly_degenerate_characters():
    # C4000 over C4, f = 1000: values of the generic T of the characters of
    # Z_1000 nearly coincide, and their eigenvectors mix; the relative
    # values are 2 - 2 cos(2 pi j / 4000) for j not divisible by 1000
    g, h = cycle(4000), cycle(4)
    deco = lift_decomposition(g, h, np.arange(4000) % 4)
    j = np.arange(4000)
    expected = np.sort(2 - 2 * np.cos(2 * np.pi * j[j % 1000 != 0] / 4000))
    assert np.abs(np.subtract(deco.relative.values, expected)).max() <= 1e-9
    assert abs(deco.epsilon - expected[0]) <= 1e-9


@pytest.mark.parametrize("name,m", [("C6", 2), ("K4", 2), ("K4", 3),
                                    ("petersen", 2)])
def test_lift_certificate_ties_blocks_to_g(corpus_cover, monkeypatch, name, m):
    # a swap inside one arc permutation after _sheets' own rebuild check
    # assembles the block operators of another graph over the base.  On C6
    # m=2 it turns the one transposition into the identity: the operators
    # are those of two disjoint copies of C6, symmetric and solved to
    # rounding, and only the read-back against g's arcs tells
    cover = corpus_cover(name, m)
    real_sheets = spectral._sheets

    def swapped(h, nbr, blocks):
        vertex, perms, arc_perm = real_sheets(h, nbr, blocks)
        perms = perms.copy()
        perms[-1, [0, 1]] = perms[-1, [1, 0]]
        return vertex, perms, arc_perm

    lift_decomposition(cover.graph, cover.base, cover.projection)
    monkeypatch.setattr(spectral, "_sheets", swapped)
    with pytest.raises(RuntimeError, match="do not recombine"):
        lift_decomposition(cover.graph, cover.base, cover.projection)


def test_spectrum_matches_mrrr_driver(corpus_cover):
    from scipy.linalg import eigh

    names = ("C6", "K4", "K33", "petersen", "psl23")
    graphs = [corpus_cover(name, 2).base for name in names]
    graphs += [corpus_cover(name, m).graph for name in names for m in (2, 3)]
    graphs = [g for g in graphs if g.n <= spectral.DENSE_LIMIT]
    assert len(graphs) == 13         # petersen and psl23 at m=3 are too large
    for g in graphs:
        ref = eigh(g.adjacency_matrix(), driver="evr", eigvals_only=True)
        assert np.abs(np.subtract(spectrum(g).values, ref)).max() <= 1e-9


def test_spectrum_above_dense_limit_is_a_resource_limit():
    from boxlab.spectral import DENSE_LIMIT

    with pytest.raises(ResourceLimitError, match=f"{DENSE_LIMIT} vertices"):
        spectrum(cycle(DENSE_LIMIT + 1))


def test_nb_trace_t0_and_girth_zeros():
    g = petersen()
    tr = nb_trace(g, 8)
    assert tr.exact[0] == 10
    assert all(tr.exact[m] == 0 for m in range(1, 5))
    assert girth(g) == 5
    assert tr.exact[5] > 0


def nb_closed_walks_brute(graph, m):
    """Independent oracle: enumerate closed walks of length m with no
    immediate reversal, summed over all start vertices."""
    if m == 0:
        return graph.n
    nbrs = adj(graph)
    total = 0

    def extend(start: int, prev: int, cur: int, depth: int) -> int:
        if depth == m:
            return 1 if cur == start else 0
        count = 0
        for nxt in nbrs[cur]:
            if nxt == prev:
                continue
            count += extend(start, cur, nxt, depth + 1)
        return count

    for s in range(graph.n):
        for first in nbrs[s]:
            total += extend(s, s, first, 1)
    return total


def test_nb_trace_matches_brute_walks():
    for g in [complete(7), petersen(), cycle(5)]:
        tr = nb_trace(g, 5)
        for m in range(6):
            assert tr.exact[m] == nb_closed_walks_brute(g, m), (g, m)


def test_nb_trace_k7_m3():
    g = complete(7)
    tr = nb_trace(g, 3)
    # closed non-backtracking triangles: 7*6*5 ordered
    assert tr.exact[3] == nb_closed_walks_brute(g, 3) == 210


def test_nb_trace_transitive_flag_consistent():
    g = petersen()
    flat = nb_trace(g, 6)
    g_no_flag = dataclasses.replace(g, vertex_transitive=False)
    slow = nb_trace(g_no_flag, 6)
    assert flat.exact == slow.exact


def test_nb_spectral_formula_matches_cumulative():
    for g in [complete(7), petersen(), cycle(12),
              homology_cover(complete(4), 2).graph]:
        tr = nb_trace(g, 10)
        formula = nb_spectral_formula(spectrum(g).values, tr.p, 10)
        for m in range(11):
            assert abs(formula[m] - tr.cumulative[m]) < 1e-6, (m, g.n)


def test_threshold_constant():
    t = eigenvalue_threshold()
    assert abs(t - (5 ** (71 / 72) + 5 ** (1 / 72))) == 0
    assert t < 6


def test_trace_inequality_audit_identity_case():
    g = complete(7)
    tr = nb_trace(g, 4)
    # m = 0: A * f(0) = A = |V| = t_0 exactly
    report = trace_inequality_audit({0: 1}, 7, tr)
    assert report.passed
    assert report.checks[0] == (0, 7, 7)
    assert report.threshold_below_6


def test_trace_audit_cosh_bound():
    tr = nb_trace(complete(7), 2)
    root = 2 * math.sqrt(5)
    inside = trace_inequality_audit({0: 1}, 7, tr, top_eigenvalue=root - 0.1)
    assert inside.psi == 0.0 and abs(inside.cosh_bound - root) < 1e-12
    outside = trace_inequality_audit({0: 1}, 7, tr, top_eigenvalue=6.0)
    assert outside.psi > 0
    assert abs(outside.cosh_bound - 6.0) < 1e-12   # 2 sqrt(5) cosh(psi) = mu


def test_write_spectrum_csv(tmp_path):
    path = str(tmp_path / "spectrum.csv")
    write_spectrum_csv(spectrum(complete(4)), path)
    with open(path) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "eigenvalue,multiplicity"
    assert rows[1] == "-1,3"
    assert rows[2] == "3,1"


@pytest.mark.parametrize("name,m", [("C6", 2), ("C6", 3), ("K4", 2), ("K4", 3),
                                    ("K33", 2), ("K33", 3), ("petersen", 2),
                                    ("psl23", 2)])
def test_nb_trace_cover_flag_matches_all_sources(corpus_cover, name, m):
    g = corpus_cover(name, m).graph
    assert g.vertex_transitive and g.n <= 1536
    g_no_flag = dataclasses.replace(g, vertex_transitive=False)
    assert nb_trace(g, 10) == nb_trace(g_no_flag, 10)


def test_nb_trace_beyond_int64_range():
    g = complete(4)
    g_no_flag = dataclasses.replace(g, vertex_transitive=False)
    big = nb_trace(g, 45)           # 3^46 > 2^62: counted in Python ints
    assert big == nb_trace(g_no_flag, 45)
    assert all(type(v) is int for v in big.exact)
    formula = nb_spectral_formula(spectrum(g).values, big.p, 45)
    assert all(abs(f - t) <= 1e-6 + 1e-12 * t
               for f, t in zip(formula, big.cumulative))
