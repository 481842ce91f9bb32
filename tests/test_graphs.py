import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxlab import graphs, psl
from boxlab.errors import ResourceLimitError
from boxlab.graphs import (Graph, cayley_graph, complete,
                           bfs_tree, complete_bipartite, cycle,
                           generator_table, girth,
                           homology_cover, inverse_permutations,
                           is_automorphism, petersen, tree_products,
                           verify_covering, voltage_tree)
from boxlab.quaternion import quaternion_generators
from boxlab.suites import lps_cayley
from boxlab.zmod import LpsParams
from conftest import adj, edges


def psl23_cayley():
    elems = psl.psl_elements(3, 1)
    mul = lambda a, b: psl.mat_mul(a, b, 3, 3)
    u = psl.canon((1, 1, 0, 1), 3, 3)
    u_inv = psl.canon((1, -1, 0, 1), 3, 3)
    h = psl.canon((0, 1, -1, 0), 3, 3)
    return cayley_graph(elems, mul, [u, u_inv, h])


def test_from_edges_rejects_non_simple():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_cayley_cycle():
    cay = cayley_graph(list(range(6)), lambda a, b: (a + b) % 6, [1, 5])
    assert adj(cay.graph) == adj(cycle(6))
    assert cay.graph.k == 2


def test_cayley_rejects_asymmetric_gens():
    with pytest.raises(ValueError, match="inverse"):
        cayley_graph(list(range(6)), lambda a, b: (a + b) % 6, [1])


def test_cayley_rejects_non_generating():
    with pytest.raises(ValueError, match="component of size 3"):
        cayley_graph(list(range(6)), lambda a, b: (a + b) % 6, [2, 4])


def test_cayley_psl23():
    cay = psl23_cayley()
    assert cay.graph.n == 12
    assert cay.graph.k == 3
    assert cay.graph.num_edges == 18
    assert cay.graph.is_connected()


def girth_brute(graph):
    """The retired per-root BFS with depth pruning against the best cycle
    found so far; vertex 0 alone when the graph is flagged vertex-transitive."""
    nbrs = adj(graph)
    best = math.inf
    roots = range(graph.n)
    for root in roots[:1] if graph.vertex_transitive else roots:
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                if 2 * dist[u] >= best - 1:
                    continue
                for v in nbrs[u]:
                    if v == parent[u]:
                        continue
                    if v in dist:
                        best = min(best, dist[u] + dist[v] + 1)
                    else:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if best == 3:
            break
    return best


@st.composite
def simple_graphs(draw):
    """A random simple graph on 0..14 vertices, forests and disconnected
    graphs included."""
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.1, 0.2, 0.4]))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, x in zip(pairs, keep) if x < density])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(graph=simple_graphs(), expected=st.none())
@example(graph=complete(4), expected=3)
@example(graph=petersen(), expected=5)
@example(graph=cycle(9), expected=9)
@example(graph=Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
         expected=math.inf)
@example(graph=complete_bipartite(3, 3), expected=4)
def test_girth(graph, expected):
    value = girth(graph)
    assert value == girth_brute(graph)
    assert expected is None or value == expected
    assert type(value) is int or value == math.inf


def test_spanning_tree_counts():
    g = petersen()
    voltage, rank = voltage_tree(g.indptr, g.indices, arc_partners(g))[2:]
    assert np.count_nonzero(voltage < 0) == 2 * 9
    assert rank == 6
    assert sorted(voltage[voltage >= 0].tolist()) == list(range(12))


def test_deck_translate_rejects_a_non_integer_shift():
    cover = homology_cover(cycle(4), 2)
    assert cover.rank == 1
    assert cover.deck_translate([1.0]).tolist() == [4, 5, 6, 7, 0, 1, 2, 3]
    for shift in ([0.5], [1.5], np.array([0.25])):
        with pytest.raises(ValueError, match="not integer"):
            cover.deck_translate(shift)


def test_cover_of_cycle_is_long_cycle():
    cover = homology_cover(cycle(6), 3)
    assert cover.rank == 1
    g = cover.graph
    assert g.n == 18
    assert g.k == 2
    assert g.is_connected()
    assert girth(g) == 18


def test_cover_k4_m2():
    cover = homology_cover(complete(4), 2)
    assert cover.rank == 3
    assert cover.graph.n == 32
    assert cover.graph.num_edges == 48
    assert cover.graph.k == 3
    assert verify_covering(cover)


def test_cover_petersen_girth_monotone():
    base = petersen()
    cover = homology_cover(base, 2)
    assert verify_covering(cover)
    assert girth(cover.graph) >= girth(base) == 5


def test_cover_fibers_and_deck_action():
    cover = homology_cover(complete(4), 2)
    for bv in range(4):
        assert np.count_nonzero(cover.projection == bv) == 8
    # generators of the deck group act as automorphisms, freely
    for j in range(cover.rank):
        shift = [0] * cover.rank
        shift[j] = 1
        perm = cover.deck_translate(shift)
        assert is_automorphism(cover.graph, perm)
        assert all(perm[v] != v for v in range(cover.graph.n))
    # orbit of vertex 0 under the deck group has size m^r
    orbit = set()
    for a in range(2 ** cover.rank):
        shift = [(a >> i) & 1 for i in range(cover.rank)]
        orbit.add(cover.deck_translate(shift)[0])
    assert len(orbit) == 8


def test_cover_cap(monkeypatch):
    monkeypatch.setattr(graphs, "COVER_CAP", 100)
    with pytest.raises(ResourceLimitError):
        homology_cover(petersen(), 3)


def test_projection_preserves_degree():
    cover = homology_cover(complete_bipartite(3, 3), 2)
    assert cover.graph.k == 3
    assert verify_covering(cover)


# --- the retired per-vertex loops, kept as oracles ---------------------------


def deck_translate_digit_loop(cover, shift):
    n = cover.base.n
    m, r = cover.m, cover.rank
    weights = [m ** i for i in range(r)]
    perm = []
    for cv in range(cover.graph.n):
        block, v = divmod(cv, n)
        digits = [(block // w) % m for w in weights]
        shifted = sum(((digits[i] + shift[i]) % m) * weights[i]
                      for i in range(r))
        perm.append(shifted * n + v)
    return perm


def is_automorphism_edge_set(graph, perm):
    """Edge-set check; only meaningful when perm is a bijection."""
    edge_set = set(edges(graph))
    return all(((perm[u], perm[v]) if perm[u] < perm[v] else
                (perm[v], perm[u])) in edge_set for u, v in edge_set)


def flag_off(graph):
    return dataclasses.replace(graph, vertex_transitive=False)


CORPUS = ("C6", "K4", "K33", "petersen", "psl23")


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", CORPUS)
def test_cover_girth_matches_all_roots(corpus_cover, name, m):
    cover = corpus_cover(name, m)
    for g in (cover.base, cover.graph):
        assert g.vertex_transitive
        value = girth(g)
        assert type(value) is int
        assert value == girth_brute(g) == girth_brute(flag_off(g))
        assert girth(flag_off(g)) == value


def test_flagged_girth_runs_one_bfs(corpus_cover, monkeypatch):
    searches = []
    search = graphs._shortest_cycle_from

    def counting_search(graph, roots, best):
        searches.append(roots.tolist())
        return search(graph, roots, best)

    monkeypatch.setattr(graphs, "_shortest_cycle_from", counting_search)
    for name in CORPUS:
        for m in (2, 3):
            graph = corpus_cover(name, m).graph
            searches.clear()
            girth(graph)
            assert searches == [[0]], (name, m)


def random_graph(rng, n, density):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if rng.random() < density])


@pytest.mark.parametrize("pairs", [1, 7, 40, graphs.GIRTH_PAIRS])
def test_unflagged_girth_matches_brute_in_every_batching(monkeypatch, pairs):
    # batches of one root, of a few and of all; forests, disconnected
    # graphs and the corpus covers of C6 and K4 included
    monkeypatch.setattr(graphs, "GIRTH_PAIRS", pairs)
    rng = random.Random(pairs)
    cases = [random_graph(rng, rng.randrange(1, 30),
                          rng.choice([0.05, 0.1, 0.2, 0.5]))
             for _ in range(40)]
    cases += [flag_off(homology_cover(base, m).graph)
              for base in (cycle(6), complete(4)) for m in (2, 3)]
    for g in cases:
        assert not g.vertex_transitive
        assert girth(g) == girth_brute(g)


def test_cover_of_non_transitive_base_is_not_flagged():
    base = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    cover = homology_cover(base, 2)
    assert not cover.graph.vertex_transitive
    assert girth(cover.graph) == 6


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", CORPUS)
def test_deck_translate_matches_digit_loop(corpus_cover, name, m):
    cover = corpus_cover(name, m)
    shifts = []
    for j in range(cover.rank):
        shift = [0] * cover.rank
        shift[j] = 1
        shifts.append(shift)
    rng = random.Random(f"{name}-{m}")
    shifts.append([rng.randrange(-m, 2 * m) for _ in range(cover.rank)])
    for shift in shifts:
        perm = cover.deck_translate(shift)
        assert perm.dtype == np.int64
        assert np.array_equal(perm, deck_translate_digit_loop(cover, shift))
    with pytest.raises(ValueError, match="rank"):
        cover.deck_translate([1] * (cover.rank + 1))


def test_is_automorphism_rejects_non_bijections():
    g = complete_bipartite(3, 3)
    assert is_automorphism(g, [3, 4, 5, 0, 1, 2])
    assert not is_automorphism(g, [0, 0, 0, 3, 3, 3])
    assert not is_automorphism(g, [0, 1, 2])
    assert not is_automorphism(g, [0, 1, 2, 3, 4, 5, 0])
    assert not is_automorphism(g, [0, 1, 2, 3, 4, 6])
    assert not is_automorphism(g, [0, 1, 2, 3, 4, -1])


@pytest.mark.parametrize("name", ["K4", "K33", "petersen"])
def test_is_automorphism_matches_edge_set_check(corpus_cover, name):
    cover = corpus_cover(name, 2)
    g = cover.graph
    rng = random.Random(name)
    perms = [cover.deck_translate([1] * cover.rank), list(range(g.n))]
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        perms.append(perm)
        swapped = cover.deck_translate([0] * (cover.rank - 1) + [1])
        i, j = rng.sample(range(g.n), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        perms.append(swapped)
    results = [is_automorphism(g, p) for p in perms]
    assert results == [is_automorphism_edge_set(g, p) for p in perms]
    assert results[:2] == [True, True]


# --- the retired edge-set Cayley build, kept as an oracle ---------------------


def cayley_adj_edge_set(elements, mul, gens):
    index = {e: i for i, e in enumerate(elements)}
    edges = set()
    for i, x in enumerate(elements):
        for s in gens:
            j = index[mul(x, s)]
            edges.add((i, j) if i < j else (j, i))
    return adj(Graph.from_edges(len(elements), sorted(edges)))


def cayley_input(name):
    if name == "C6":
        return list(range(6)), lambda a, b: (a + b) % 6, [1, 5]
    if name == "C64":
        return list(range(64)), lambda a, b: (a + b) % 64, [1, 63]
    if name == "psl23":    # u, u^-1 and h
        return psl.psl_elements(3, 1), lambda a, b: psl.mat_mul(a, b, 3, 3), \
            [psl.canon(m, 3, 3)
             for m in ((1, 1, 0, 1), (1, -1, 0, 1), (0, 1, -1, 0))]
    params = LpsParams.build(29, 1)
    mats = psl.lps_letter_images(quaternion_generators(params.p), 29, 1,
                                 params.epsilon(1))
    return lps_cayley(29).elements, lambda a, b: psl.mat_mul(a, b, 29, 29), mats


@pytest.mark.parametrize("name", ["C6", "psl23", "lps29"])
def test_cayley_table_matches_edge_set(name):
    elements, mul, gens = cayley_input(name)
    cay = lps_cayley(29) if name == "lps29" else cayley_graph(elements, mul, gens)
    assert adj(cay.graph) == cayley_adj_edge_set(elements, mul, gens)
    assert cay.table.shape == (len(elements), len(gens))


def right_translation_word_walk(cay, z):
    """The permutation x -> x * z of the element indices, walked along the
    generator word of z in the BFS tree."""
    word = []
    while z != cay.order[0]:
        word.append(int(cay.via[z]))
        z = int(cay.parent[z])
    perm = np.arange(cay.graph.n)
    for j in reversed(word):
        perm = cay.table[perm, j]
    return perm


def test_right_translation_matches_mul():
    cay = psl23_cayley()
    elems = cay.elements
    products = tree_products(cay.table, cay.order, cay.parent, cay.via)
    for i, z in enumerate(cay.order.tolist()):
        assert [elems[y] for y in products[:, i]] == \
            [psl.mat_mul(x, elems[z], 3, 3) for x in elems]


@pytest.mark.parametrize("name", ["C16", "psl23", "lps29"])
def test_tree_products_match_word_walk(name):
    if name == "C16":
        cay = cayley_graph(list(range(16)), lambda a, b: (a + b) % 16, [1, 15])
    else:
        cay = lps_cayley(29) if name == "lps29" else psl23_cayley()
    # every column of the small groups; of PSL(2, 29), a BFS prefix that
    # spans the first levels, and its last columns are the longest words
    order = cay.order[:300]
    products = tree_products(cay.table, order, cay.parent, cay.via)
    assert products.shape == (cay.graph.n, len(order))
    assert products.dtype == np.min_scalar_type(cay.graph.n)
    spots = range(len(order)) if len(order) == cay.graph.n \
        else [0, 1, 150, *range(260, 300)]
    for i in spots:
        assert np.array_equal(products[:, i],
                              right_translation_word_walk(cay, cay.order[i]))


def test_cayley_mul_call_budget():
    calls = []

    def counting_mul(a, b):
        calls.append(1)
        return psl.mat_mul(a, b, 3, 3)

    elems, _, gens = cayley_input("psl23")
    cayley_graph(elems, counting_mul, gens)
    assert len(calls) <= len(elems) * len(gens) + 2 * len(elems)


def test_cayley_rejects_unclosed_elements_and_duplicate_gens():
    with pytest.raises(ValueError, match="not closed"):
        cayley_graph(list(range(6)), lambda a, b: (a + b) % 7, [1, 5])
    with pytest.raises(ValueError, match="duplicate generators"):
        cayley_graph(list(range(6)), lambda a, b: (a + b) % 6, [1, 5, 1])


# --- inverse columns derived by permutation inversion -------------------------


@pytest.mark.parametrize("name", ["C6", "C64", "psl23", "lps29"])
def test_derived_inverse_columns_match_all_mul_table(name):
    elements, mul, gens = cayley_input(name)
    cay = lps_cayley(29) if name == "lps29" else cayley_graph(elements, mul, gens)
    assert (cay.table == generator_table(elements, mul, gens)[1]).all()


def test_cayley_exact_mul_calls_on_lps29():
    elements, mul, gens = cayley_input("lps29")
    calls = []

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    # a plain list carries no rows, so the table is filled with mul
    cayley_graph(list(elements), counting_mul, gens)
    # n * |S| / 2 table entries (three inverse pairs), |S|^2 generator
    # products, and 2 identity probes: elements[0] is the identity
    assert len(calls) == len(elements) * len(gens) // 2 + len(gens) ** 2 + 2


def test_cayley_exact_mul_calls_on_lps29_closure():
    elements, mul, gens = cayley_input("lps29")
    calls = []

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    cay = cayley_graph(elements, counting_mul, gens)
    # |S|^2 generator products, 2 identity probes, and the spot checks:
    # every 64th row from the last, in each of the three filled columns
    assert len(calls) == len(gens) ** 2 + 2 + 3 * math.ceil(len(elements) / 64)
    assert (cay.table == lps_cayley(29).table).all()


def random_symmetric_closure(q, picks):
    """The closure in PSL(2, q) of the chosen elements and their inverses,
    with that generating set, the identity dropped."""
    elements = psl.psl_elements(q, 1)
    ident = psl.canon(psl.IDENT, q, q)
    gens = {elements[i] for i in picks} | \
        {psl.mat_inv(elements[i], q, q) for i in picks}
    gens = sorted(gens - {ident})
    return psl.subgroup_closure(gens, q, q), gens


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data(), q=st.sampled_from([5, 7, 11, 13]))
def test_closure_rows_fill_the_mul_table(data, q):
    picks = data.draw(st.lists(st.integers(0, psl.psl_order(q, 1) - 1),
                               min_size=1, max_size=3))
    closure, gens = random_symmetric_closure(q, picks)
    if not gens:        # only the identity was picked
        return
    mul = lambda a, b: psl.mat_mul(a, b, q, q)
    assert (cayley_graph(closure, mul, gens).table
            == generator_table(list(closure), mul, gens)[1]).all()


@pytest.mark.parametrize("q", [29, 41])
def test_closure_rows_fill_the_mul_table_lps(q):
    params = LpsParams.build(q, 1)
    mats = psl.lps_letter_images(quaternion_generators(params.p), q, 1,
                                 params.epsilon(1))
    closure = psl.subgroup_closure(mats, q, q)
    mul = lambda a, b: psl.mat_mul(a, b, q, q)
    assert (cayley_graph(closure, mul, mats).table
            == generator_table(list(closure), mul, mats)[1]).all()


def test_closure_rows_reject_a_mul_that_disagrees():
    elements, mul, gens = cayley_input("lps29")
    with pytest.raises(ValueError, match="mul disagrees"):
        cayley_graph(elements, lambda a, b: mul(b, a), gens)
    # PSL(2, 5) has 60 elements, so one row is checked: the last
    closure, gens5 = random_symmetric_closure(5, [7, 31])
    assert len(closure) == 60
    with pytest.raises(ValueError, match="mul disagrees"):
        cayley_graph(closure, lambda a, b: psl.mat_mul(b, a, 5, 5), gens5)
    # a mul wrong at the last element alone, which the stride checks
    last = elements[-1]
    with pytest.raises(ValueError, match="mul disagrees"):
        cayley_graph(elements, lambda a, b: mul(b, a) if a == last
                     else mul(a, b), gens)


def test_closure_rows_reject_generators_that_do_not_close():
    _, mul, gens = cayley_input("lps29")
    u, u_inv = gens[:2]
    cyclic = psl.subgroup_closure([u, u_inv], 29, 29)
    with pytest.raises(ValueError, match="not closed"):
        cayley_graph(cyclic, mul, gens)
    with pytest.raises(ValueError, match="not closed"):
        cyclic.right_table(gens)


def test_closure_rows_reject_duplicate_elements():
    closure, gens = random_symmetric_closure(5, [7, 31])
    mul = lambda a, b: psl.mat_mul(a, b, 5, 5)
    doubled = psl.Elements(np.concatenate([closure.keys, closure.keys[-1:]]),
                           closure.modulus, closure.q)
    with pytest.raises(ValueError, match="duplicate elements"):
        cayley_graph(doubled, mul, gens)
    with pytest.raises(ValueError, match="duplicate elements"):
        cayley_graph(list(doubled), mul, gens)


def test_elements_position_reads_the_row_keys():
    closure, _ = random_symmetric_closure(7, [3])     # a cyclic subgroup
    assert [closure.position(x) for x in closure] == list(range(len(closure)))
    outside = next(x for x in psl.psl_elements(7, 1) if x not in set(closure))
    with pytest.raises(ValueError, match="not in the sequence"):
        closure.position(outside)


def test_cayley_rejects_generator_without_inverse():
    elements, mul, gens = cayley_input("psl23")
    u, _, h = gens
    with pytest.raises(ValueError, match="inverse"):
        cayley_graph(elements, mul, [u, h])


def test_inverse_permutations_rejects_non_permutation():
    cols = np.array([[1, 0], [2, 2], [0, 2]])
    with pytest.raises(ValueError, match="not a permutation"):
        inverse_permutations(cols)
    assert inverse_permutations(cols[:, :1]).ravel().tolist() == [2, 0, 1]
    # out of range either way, a repeat, and a repeat in a later column
    for bad in ([[0], [1], [3]], [[0], [-1], [1]], [[2], [0], [0]],
                [[0, 1], [1, 0], [2, 0]]):
        with pytest.raises(ValueError, match="not a permutation"):
            inverse_permutations(np.array(bad))


@pytest.mark.parametrize("dtype", [np.int64, np.uint16])
def test_inverse_permutations_match_argsort(dtype):
    rng = np.random.default_rng(7)
    cols = np.column_stack([rng.permutation(500) for _ in range(4)])
    inverse = inverse_permutations(cols.astype(dtype))
    assert inverse.dtype == np.int64
    assert np.array_equal(inverse, np.argsort(cols, axis=0))
    assert inverse_permutations(cols[:, :0]).shape == (500, 0)


def test_degree_checks_match_distinct_degrees():
    graphs_ = [cycle(5), petersen(), complete_bipartite(2, 3),
               Graph.from_edges(0, []), Graph.from_edges(3, []),
               Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])]
    for g in graphs_:
        degs = np.unique(g.degrees())
        assert g.is_regular() is (len(degs) <= 1)
        if len(degs) == 1:
            assert g.k == degs[0] and type(g.k) is int
        else:
            with pytest.raises(ValueError, match="not regular"):
                g.k


def bfs_tree_queue(rows, roots):
    """The retired element-at-a-time queue BFS, kept as an oracle: rows[u]
    lists u's out-neighbours in slot order, and the roots start the queue."""
    parent = [-1] * len(rows)
    via = [-1] * len(rows)
    depth = [-1] * len(rows)
    for root in roots:
        parent[root] = root
        depth[root] = 0
    order = list(roots)
    for u in order:
        for j, v in enumerate(rows[u]):
            if parent[v] < 0:
                parent[v] = u
                via[v] = j
                depth[v] = depth[u] + 1
                order.append(v)
    return order, parent, via, depth


def bfs_tree_lists(indptr, indices, root):
    """bfs_tree's four outputs, as lists."""
    return tuple(a.tolist() for a in bfs_tree(indptr, indices, root))


def table_csr(table):
    """The CSR whose rows are the table's rows."""
    return np.arange(len(table) + 1) * table.shape[1], table.ravel()


@pytest.mark.parametrize("name", ["C6", "C64", "psl23", "lps29"])
def test_bfs_tree_matches_queue_bfs(name):
    elements, mul, gens = cayley_input(name)
    table = generator_table(elements, mul, gens)[1]
    for root in (0, len(elements) // 2, len(elements) - 1):
        assert bfs_tree_lists(*table_csr(table), root) == \
            bfs_tree_queue(table.tolist(), [root])
    # a disconnected table: the even and the odd residues of C6 under +2
    table = generator_table(list(range(6)), lambda a, b: (a + b) % 6, [2, 4])[1]
    assert bfs_tree_lists(*table_csr(table), 1) == \
        bfs_tree_queue(table.tolist(), [1])


@pytest.mark.parametrize("name, block", [
    # the real block keeps the plain case name
    pytest.param(name, block,
                 id=name if block == psl.ROW_BLOCK else f"{name}-block{block}")
    for name in ("petersen-cover", "isolated", "random", "lps29")
    for block in (1, 3, psl.ROW_BLOCK)])
def test_bfs_tree_matches_queue_bfs_on_uneven_csr(name, block, monkeypatch):
    # bfs_tree reads each level ROW_BLOCK rows at a time: blocks of 1 and 3
    # rows split every level, so a vertex found in an earlier block must not
    # be found again in a later one
    monkeypatch.setattr(graphs, "ROW_BLOCK", block)
    if name == "lps29":
        indptr, indices = table_csr(lps_cayley(29).table)
    else:
        if name == "petersen-cover":
            graph = homology_cover(petersen(), 2).graph
        elif name == "isolated":
            # degrees 0 to 4, with isolated vertices first, inside and last
            graph = Graph.from_edges(12, [(1, 2), (1, 3), (1, 5), (1, 6),
                                          (2, 3), (5, 6), (6, 8), (8, 9),
                                          (9, 10)])
        else:
            rng = np.random.default_rng(5)
            pairs = {tuple(sorted(p))
                     for p in rng.integers(0, 60, (70, 2)).tolist()
                     if p[0] != p[1]}
            graph = Graph.from_edges(60, sorted(pairs))
        indptr, indices = graph.indptr, graph.indices
    n = len(indptr) - 1
    rows = [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(n)]
    for roots in ([0], [n - 1], [4, 0, n // 2], list(range(n))):
        assert bfs_tree_lists(indptr, indices, np.array(roots)) \
            == bfs_tree_queue(rows, roots)
    assert bfs_tree_lists(indptr, indices, 0) == bfs_tree_queue(rows, [0])


@pytest.mark.parametrize("name", ["lps29", "petersen-cover"])
def test_sparse_adjacency_is_one_csr_on_the_graph_arrays(name):
    from scipy import sparse

    if name == "lps29":
        g = lps_cayley(29).graph
    else:
        g = homology_cover(petersen(), 3).graph
    a = g.sparse_adjacency()
    assert g.sparse_adjacency() is a
    assert np.shares_memory(a.indices, g.indices)
    assert np.shares_memory(a.indptr, g.indptr)
    assert a.indices.dtype == a.indptr.dtype == np.int64
    # the products are those of the constructor's own (int32) CSR, bit for bit
    fresh = sparse.csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr),
                              shape=(g.n, g.n))
    rng = np.random.default_rng(7)
    for x in (rng.standard_normal(g.n), rng.standard_normal((g.n, 2))):
        assert np.array_equal(a @ x, fresh @ x)


def test_cayley_graph_keeps_one_adjacency():
    """A q=29 Cayley graph holds its arcs once, as the graph's int64
    adjacency, beside a one-byte slot map and its BFS tree: at most 120 B
    per vertex once it returns.  A stored int64 table beside the adjacency
    kept 148 B."""
    elements, mul, gens = cayley_input("lps29")
    cayley_graph(elements, mul, gens)       # fill the module's caches
    tracemalloc.start()
    try:
        cay = cayley_graph(elements, mul, gens)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cay.slot.dtype == np.uint8
    assert kept <= 120 * cay.graph.n


@pytest.mark.parametrize("name", ["psl23", "lps29", "C6-shifted"])
def test_cayley_graph_distances_from_vertex_0(name):
    # a Cayley graph's BFS from the identity gives vertex 0's distances when
    # the identity is vertex 0; "C6-shifted" lists the identity last
    if name == "C6-shifted":
        cay = cayley_graph([1, 2, 3, 4, 5, 0], lambda a, b: (a + b) % 6, [1, 5])
    else:
        cay = cayley_graph(*cayley_input(name))
    g = cay.graph
    depth = g.bfs_distances(0)
    assert depth.tolist() == bfs_distances_brute(g, 0)
    assert not depth.flags.writeable and g.bfs_distances(0) is depth
    assert g.is_connected()


# --- the retired vertex-at-a-time loops, kept as oracles ----------------------


def from_edges_brute(n, edges):
    """The edge-set build: adjacency tuples, or the ValueError of the first
    bad edge."""
    seen = set()
    lists = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"loop at vertex {u} rejected")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key} rejected")
        seen.add(key)
        lists[u].append(v)
        lists[v].append(u)
    return tuple(tuple(sorted(l)) for l in lists)


def bfs_distances_brute(graph, source):
    nbrs = adj(graph)
    dist = [-1] * graph.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def is_bipartite_brute(graph):
    nbrs = adj(graph)
    color = [-1] * graph.n
    for start in range(graph.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if color[v] < 0:
                        color[v] = color[u] ^ 1
                        nxt.append(v)
                    elif color[v] == color[u]:
                        return False
            frontier = nxt
    return True


def arc_partners(graph):
    """The reverse of each arc of a simple graph, found one arc at a time."""
    arc = {}
    for u, row in enumerate(adj(graph)):
        for v in row:
            arc[(u, v)] = len(arc)
    return np.array([arc[(v, u)] for u, v in arc], dtype=np.int64)


def spanning_tree_brute(graph):
    """(parent, via, voltage, rank) of ``voltage_tree`` on a simple graph:
    the BFS tree from vertex 0 over sorted neighbours, one vertex at a time,
    and the non-tree edges (u, v), u < v, numbered lexicographically."""
    if graph.n == 0:
        raise ValueError("a graph with no vertices has no spanning tree")
    if not all(d >= 0 for d in bfs_distances_brute(graph, 0)):
        raise ValueError("graph must be connected")
    nbrs = adj(graph)
    parent, via = [-1] * graph.n, [-1] * graph.n
    parent[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for slot, v in enumerate(nbrs[u]):
                if parent[v] < 0:
                    parent[v], via[v] = u, slot
                    nxt.append(v)
        frontier = nxt
    arcs = [(u, v) for u in range(graph.n) for v in nbrs[u]]
    position = {arc: a for a, arc in enumerate(arcs)}
    voltage = [-1] * len(arcs)
    rank = 0
    for a, (u, v) in enumerate(arcs):
        if u < v and parent[v] != u and parent[u] != v:
            voltage[a], voltage[position[(v, u)]] = 2 * rank, 2 * rank + 1
            rank += 1
    as_array = lambda x: np.array(x, dtype=np.int64)
    return as_array(parent), as_array(via), as_array(voltage), rank


def homology_cover_edges_brute(graph, m, voltage):
    """The cover's edges, one block of Z_m^r at a time: each edge u < v of
    the base, in block a and joined to block a + unit_j if its voltage is
    2j."""
    n, r = graph.n, (max(voltage, default=-1) + 1) // 2
    arcs = [(u, v) for u in range(n) for v in adj(graph)[u]]
    weights = [m ** i for i in range(r)]
    edges = []
    for block in range(m ** r):
        for (u, v), w in zip(arcs, voltage.tolist()):
            if u > v:
                continue
            target = block
            if w >= 0:
                digit = (block // weights[w // 2]) % m
                target += ((digit + 1) % m - digit) * weights[w // 2]
            edges.append((block * n + u, target * n + v))
    return edges


def verify_covering_brute(cover):
    base = cover.base
    proj = cover.projection
    cover_nbrs, base_nbrs = adj(cover.graph), adj(base)
    for cv in range(cover.graph.n):
        image = sorted(proj[w] for w in cover_nbrs[cv])
        if image != sorted(base_nbrs[proj[cv]]):
            return False
    return True


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def assert_same_tree(tree, expected):
    parent, via, voltage, rank = tree
    assert rank == expected[3]
    for got, want in zip((parent, via, voltage), expected):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def assert_cover_matches_brute(cover):
    base = cover.base
    tree = spanning_tree_brute(base)
    assert_same_tree(voltage_tree(base.indptr, base.indices,
                                  arc_partners(base)), tree)
    assert np.array_equal(cover.voltage, tree[2]) and cover.rank == tree[3]
    edges = homology_cover_edges_brute(base, cover.m, tree[2])
    assert adj(cover.graph) == from_edges_brute(cover.graph.n, edges)
    assert np.array_equal(cover.projection,
                          [cv % base.n for cv in range(cover.graph.n)])
    assert verify_covering(cover) is verify_covering_brute(cover) is True


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", CORPUS)
def test_cover_matches_block_loop(corpus_cover, name, m):
    cover = corpus_cover(name, m)
    assert_cover_matches_brute(cover)
    for g in (cover.base, cover.graph):
        assert g.is_bipartite() == is_bipartite_brute(g)
        assert g.bfs_distances(g.n - 1).tolist() == bfs_distances_brute(g, g.n - 1)


# ragged degrees, several components, odd cycles away from vertex 0, and the
# non-transitive base of test_cover_of_non_transitive_base_is_not_flagged
RAGGED = {
    "path": (5, [(3, 4), (0, 1), (2, 1), (2, 3)]),
    "star": (5, [(2, 0), (1, 2), (2, 4), (3, 2)]),
    "K23": (5, [(i, 2 + j) for i in range(2) for j in range(3)]),
    "forest": (7, [(0, 1), (2, 1), (4, 3), (3, 5)]),
    "isolated": (4, []),
    "empty": (0, []),
    "odd-component": (6, [(0, 1), (3, 2), (3, 4), (4, 2)]),
    "non-transitive": (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    "matching-2000": (2000, [(2 * i, 2 * i + 1) for i in range(1000)]),
    # disjoint 6-, 5-, 4- and 3-cycles; vertex 0 is on the 6-cycle
    "cycles": (18, [(a + i, a + (i + 1) % m) for a, m in
                    ((0, 6), (6, 5), (11, 4), (15, 3)) for i in range(m)]),
}


@pytest.mark.parametrize("name", RAGGED)
def test_array_graph_matches_vertex_loops(name):
    n, edges = RAGGED[name]
    g = Graph.from_edges(n, edges)
    assert adj(g) == from_edges_brute(n, edges)
    assert g.is_bipartite() == is_bipartite_brute(g)
    assert g.is_connected() == all(d >= 0 for d in
                                   (bfs_distances_brute(g, 0) if n else []))
    for source in range(n):
        assert g.bfs_distances(source).tolist() == bfs_distances_brute(g, source)
    # the empty graph has no vertex 0 to grow a tree from, and a
    # disconnected one no spanning tree: both raise ValueError
    expected = outcome(spanning_tree_brute, g)
    if isinstance(expected, tuple) and expected[0] is ValueError:
        assert outcome(homology_cover, g, 2) == expected
        assert outcome(voltage_tree, g.indptr, g.indices,
                       arc_partners(g)) == expected
    else:
        assert_same_tree(voltage_tree(g.indptr, g.indices, arc_partners(g)),
                         expected)
    if g.is_connected() and n:
        for m in (2, 3):
            assert_cover_matches_brute(homology_cover(g, m))


@pytest.mark.parametrize("name", RAGGED)
def test_two_colouring_splits_every_edge_once_per_graph(name, monkeypatch):
    # connected_components runs at most once per graph, and only when the
    # BFS from vertex 0 does not span it
    import scipy.sparse.csgraph

    n, edges = RAGGED[name]
    g = Graph.from_edges(n, edges)
    calls = []
    real = scipy.sparse.csgraph.connected_components
    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    side = g.two_colouring()
    assert g.two_colouring() is side and g.is_bipartite() is (side is not None)
    assert len(calls) == (n > 0 and not g.is_connected())
    if side is not None:
        src, dst = g.arcs()
        assert side.dtype == bool and not side.flags.writeable
        assert (side[src] != side[dst]).all()
        # the first vertex of each component is on side False, which pins
        # the rest of the component
        seen = set()
        for v in range(n):
            if v not in seen:
                assert not side[v]
                seen |= {u for u, d in enumerate(bfs_distances_brute(g, v))
                         if d >= 0}


@st.composite
def voltage_inputs(draw):
    """(indptr, indices, partner) of a random connected multigraph, loops
    and repeated edges included, or of a random transitive coset table of
    three letters and their inverses."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        vertex = st.integers(0, n - 1)
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        edges += draw(st.lists(st.tuples(vertex, vertex), max_size=12))
        edges = draw(st.permutations(edges))
        # arc a < e is edge a, arc a + e its reverse; sorted by tail, stably
        e = len(edges)
        tail = [u for u, _ in edges] + [v for _, v in edges]
        head = [v for _, v in edges] + [u for u, _ in edges]
        order = sorted(range(2 * e), key=tail.__getitem__)
        position = {a: i for i, a in enumerate(order)}
        indptr = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n))])
        return (indptr, np.array([head[a] for a in order], dtype=np.int64),
                np.array([position[(a + e) % (2 * e)] for a in order],
                         dtype=np.int64))
    # letter 0 walks one n-cycle, so the table is transitive
    ring = draw(st.permutations(range(n)))
    perms = [[0] * n]
    for i in range(n):
        perms[0][ring[i]] = ring[(i + 1) % n]
    perms += [draw(st.permutations(range(n))) for _ in range(2)]
    table = np.empty((n, 6), dtype=np.int64)
    for j, perm in enumerate(perms):
        table[:, 2 * j] = perm
        table[perm, 2 * j + 1] = np.arange(n)
    return (np.arange(n + 1) * 6, table.ravel(),
            (table * 6 + (np.arange(6) ^ 1)).ravel())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(voltage_inputs())
def test_voltage_tree_numbers_each_non_tree_edge_once(case):
    indptr, indices, partner = case
    n, arcs = len(indptr) - 1, len(indices)
    parent, via, voltage, rank = voltage_tree(indptr, indices, partner)
    assert rank == arcs // 2 - n + 1
    # the 2(n - 1) tree arcs: each vertex's arc from its parent, reversed too
    assert parent[0] == 0 and via[0] == -1
    tree = [indptr[parent[v]] + via[v] for v in range(1, n)]
    assert [indices[t] for t in tree] == list(range(1, n))
    tree_arcs = set(tree) | {partner[t] for t in tree}
    assert len(tree_arcs) == 2 * (n - 1)
    assert tree_arcs == set(np.flatnonzero(voltage == -1).tolist())
    # each non-tree index j on one arc pair, 2j on its first arc in order
    first = [np.flatnonzero(voltage == 2 * j) for j in range(rank)]
    second = [np.flatnonzero(voltage == 2 * j + 1) for j in range(rank)]
    assert all(len(a) == len(b) == 1 for a, b in zip(first, second))
    assert all(partner[a[0]] == b[0] > a[0] for a, b in zip(first, second))
    assert [a[0] for a in first] == sorted(a[0] for a in first)
    assert np.count_nonzero(voltage >= 0) == 2 * rank


@pytest.mark.parametrize("n,edges", [
    (3, [(0, 0)]),
    (3, [(0, 1), (1, 0)]),
    (2, [(0, 5)]),
    (4, [(0, 1), (2, -1)]),
    (4, [(0, 1), (1, 2), (2, 1), (3, 3)]),         # a repeat before a loop
    (4, [(0, 1), (3, 3), (1, 0)]),                 # a loop before a repeat
    (4, [(0, 1), (1, 2), (0, 9), (1, 0)]),         # out of range first
    (3, [(0, 1), (5, 5)]),                         # a loop out of range
    (3, [(0, 5), (1, 2)]),                         # 0 * 3 + 5 is the key of (1, 2)
    (3, [(1, 2), (0, 5)]),
    (3, [(0, 1), (0, 1), (0, 1)]),
])
def test_from_edges_errors_match_edge_set_loop(n, edges):
    expected = outcome(from_edges_brute, n, edges)
    assert expected[0] is ValueError
    assert outcome(Graph.from_edges, n, edges) == expected


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError, match="negative"):
        Graph.from_edges(-3, [])


@st.composite
def connected_graphs(draw):
    """A random tree on 2..7 vertices plus up to three more edges."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    return Graph.from_edges(n, sorted(edges))


def test_verify_covering_matches_brute_on_random_graphs():
    swapped_results = []

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(base=connected_graphs(), m=st.sampled_from([2, 3]), data=st.data())
    def check(base, m, data):
        cover = homology_cover(base, m)
        assert verify_covering(cover) is verify_covering_brute(cover) is True
        total = cover.graph.n
        i = data.draw(st.integers(0, total - 1))
        j = data.draw(st.integers(0, total - 1).filter(
            lambda j: cover.projection[j] != cover.projection[i]))
        proj = cover.projection.copy()
        proj[[i, j]] = proj[[j, i]]
        swapped = dataclasses.replace(cover, projection=proj)
        swapped_results.append(verify_covering(swapped))
        assert swapped_results[-1] is verify_covering_brute(swapped)

    check()
    assert False in swapped_results


# --- quotients as int64 arrays -----------------------------------------------


def test_fibers_rows_and_rejections():
    assert np.array_equal(graphs.fibers([1, 0, 1, 0, 2, 2], 3),
                          [[1, 3], [0, 2], [4, 5]])
    for out_of_range in ([0, 1, 3, 1], [0, -1, 0, -1]):
        with pytest.raises(ValueError, match="onto"):
            graphs.fibers(out_of_range, 2)
    with pytest.raises(ValueError, match="onto"):
        graphs.fibers([0, 0, 2, 2], 3)
    with pytest.raises(ValueError, match="constant size"):
        graphs.fibers([0, 1, 1, 1], 2)


def neighbours_by_row_sort(g, h, proj):
    """nbr[u, j], the neighbour of u over the j-th neighbour of proj[u], by
    sorting each row of a regular cover by base vertex: the retired check of
    the lift decomposition's sheets."""
    k = h.k
    rows = g.indices.reshape(g.n, k)
    by_base = np.argsort(proj[rows], axis=1)
    if not np.array_equal(np.take_along_axis(proj[rows], by_base, axis=1),
                          h.indices.reshape(h.n, k)[proj]):
        raise ValueError("not a covering quotient")
    return np.take_along_axis(rows, by_base, axis=1)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", CORPUS)
def test_covering_neighbours_match_row_sort(corpus_cover, name, m):
    cover = corpus_cover(name, m)
    g, h, proj = cover.graph, cover.base, cover.projection
    nbr = graphs.covering_neighbours(g, h, proj)
    assert nbr.shape == g.indices.shape
    assert np.array_equal(nbr.reshape(g.n, h.k),
                          neighbours_by_row_sort(g, h, proj))


def test_covering_neighbours_reject_a_non_covering_map():
    # constant fibers of size 2, but vertex 5 over 1 has neighbours over 0, 3
    proj = np.array([0, 1, 2, 3, 0, 1, 3, 2])
    with pytest.raises(ValueError, match="not a covering quotient"):
        graphs.covering_neighbours(cycle(8), cycle(4), proj)
    with pytest.raises(ValueError, match="not a covering quotient"):
        neighbours_by_row_sort(cycle(8), cycle(4), proj)
