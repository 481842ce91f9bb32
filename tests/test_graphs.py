import math
import random

import numpy as np
import pytest

from boxlab import psl
from boxlab.errors import ResourceLimitError
from boxlab.graphs import (Graph, cayley_graph, cheeger_exact, complete,
                           bfs_tree, complete_bipartite, cycle,
                           generator_table, girth,
                           homology_cover, inverse_permutations,
                           is_automorphism, petersen, read_graph_file,
                           spanning_tree, verify_covering)
from boxlab.quaternion import quaternion_generators
from boxlab.suites import lps_cayley
from boxlab.zmod import LpsParams


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
    assert cay.graph.adj == cycle(6).adj
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


def test_girth():
    assert girth(complete(4)) == 3
    assert girth(petersen()) == 5
    assert girth(cycle(9)) == 9
    tree = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert girth(tree) == math.inf
    assert girth(complete_bipartite(3, 3)) == 4


def brute_cheeger(graph):
    best = math.inf
    n = graph.n
    for s in range(1, 1 << n):
        verts = [v for v in range(n) if s >> v & 1]
        if len(verts) > n // 2:
            continue
        inside = set(verts)
        boundary = sum(1 for u in verts for v in graph.adj[u] if v not in inside)
        best = min(best, boundary / len(verts))
    return best


def test_cheeger_c4():
    res = cheeger_exact(cycle(4))
    assert res.exact and res.value == 1.0
    assert len(res.witness) == 2
    u, v = sorted(res.witness)
    assert v in cycle(4).adj[u]


def test_cheeger_k4():
    res = cheeger_exact(complete(4))
    assert res.value == 2.0
    assert brute_cheeger(complete(4)) == 2.0


def test_cheeger_petersen_matches_brute():
    assert cheeger_exact(petersen()).value == brute_cheeger(petersen()) == 1.0


def test_cheeger_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    res = cheeger_exact(g)
    assert res.value == 0.0


def test_cheeger_bounds_for_large_graph():
    cay = cayley_graph(list(range(40)), lambda a, b: (a + b) % 40, [1, 39])
    res = cheeger_exact(cay.graph, exhaustive_limit=24)
    assert not res.exact
    assert res.lower > 0
    assert res.lower <= 2 / 40 * 2 <= res.upper  # h(C_40) = 2/20 = 0.1

def test_cheeger_buser_sandwich():
    from boxlab.spectral import spectrum

    for g in [cycle(4), cycle(12), complete(4), petersen(),
              complete_bipartite(3, 3)]:
        h = cheeger_exact(g).value
        lam1 = spectrum(g).laplacian_values()[1]
        assert lam1 / 2 - 1e-9 <= h <= math.sqrt(2 * g.k * lam1) + 1e-9


def test_spanning_tree_counts():
    st = spanning_tree(petersen())
    assert len(st.tree_edges) == 9
    assert st.rank == 6
    assert len(st.non_tree_edges) == 6


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
        assert len(cover.fiber(bv)) == 8
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


def test_cover_cap():
    with pytest.raises(ResourceLimitError):
        homology_cover(petersen(), 3, cap=100)


def test_projection_preserves_degree():
    cover = homology_cover(complete_bipartite(3, 3), 2)
    assert cover.graph.k == 3
    assert verify_covering(cover)


def test_graph_file_round_trip(tmp_path):
    g = petersen()
    path = str(tmp_path / "petersen.txt")
    g.write_file(path)
    back = read_graph_file(path)
    assert back.adj == g.adj


def test_graph_file_rejects_non_simple(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n0 1\n1 0\n")
    with pytest.raises(ValueError):
        read_graph_file(str(path))


def test_cover_file_includes_projection(tmp_path):
    cover = homology_cover(cycle(4), 2)
    path = str(tmp_path / "cover.txt")
    cover.write_file(path)
    text = open(path).read()
    assert "projection" in text
    assert f"{cover.graph.n} {cover.graph.num_edges}" in text.splitlines()[0]
    back = read_graph_file(path)
    assert back.adj == cover.graph.adj


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
    edge_set = set(graph.edges())
    return all(((perm[u], perm[v]) if perm[u] < perm[v] else
                (perm[v], perm[u])) in edge_set for u, v in edge_set)


def flag_off(graph):
    return Graph(n=graph.n, adj=graph.adj, labels=graph.labels,
                 vertex_transitive=False)


CORPUS = ("C6", "K4", "K33", "petersen", "psl23")


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", CORPUS)
def test_cover_girth_matches_all_roots(corpus_cover, name, m):
    g = corpus_cover(name, m).graph
    assert g.vertex_transitive
    assert girth(g) == girth(flag_off(g))


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
        assert perm == deck_translate_digit_loop(cover, shift)
        assert all(type(v) is int for v in perm)
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
    return Graph.from_edges(len(elements), sorted(edges)).adj


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
    assert cay.graph.adj == cayley_adj_edge_set(elements, mul, gens)
    assert cay.table.shape == (len(elements), len(gens))


def test_right_translation_matches_mul():
    cay = psl23_cayley()
    elems = cay.elements
    for z in range(len(elems)):
        perm = cay.right_translation(z)
        assert [elems[y] for y in perm] == \
            [psl.mat_mul(x, elems[z], 3, 3) for x in elems]


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

    cayley_graph(elements, counting_mul, gens)
    # n * |S| / 2 table entries (three inverse pairs), |S|^2 generator
    # products, and 2 identity probes: elements[0] is the identity
    assert len(calls) == len(elements) * len(gens) // 2 + len(gens) ** 2 + 2


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


def bfs_tree_queue(table, root):
    """The retired element-at-a-time queue BFS, kept as an oracle."""
    rows = table.tolist()
    parent = [-1] * len(rows)
    via = [-1] * len(rows)
    parent[root] = root
    order = [root]
    for u in order:
        for j, v in enumerate(rows[u]):
            if parent[v] < 0:
                parent[v] = u
                via[v] = j
                order.append(v)
    return order, parent, via


@pytest.mark.parametrize("name", ["C6", "C64", "psl23", "lps29"])
def test_bfs_tree_matches_queue_bfs(name):
    elements, mul, gens = cayley_input(name)
    table = generator_table(elements, mul, gens)[1]
    for root in (0, len(elements) // 2, len(elements) - 1):
        assert bfs_tree(table, root) == bfs_tree_queue(table, root)
    # a disconnected table: the even and the odd residues of C6 under +2
    table = generator_table(list(range(6)), lambda a, b: (a + b) % 6, [2, 4])[1]
    assert bfs_tree(table, 1) == bfs_tree_queue(table, 1)
