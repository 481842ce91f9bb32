import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxlab import psl
from boxlab.graphs import (cayley_graph, complete, cycle, fibers,
                           homology_cover, petersen, tree_products)
from boxlab.poincare import (LipschitzMap, adversarial_map, certify_relative,
                             distance_map, double_sum, expander_bound_check,
                             poincare_sum)
from boxlab.spectral import lift_decomposition, spectrum
from conftest import adj, edges


def cyclic_cayley(n, gens=(1, -1)):
    return cayley_graph(list(range(n)), lambda a, b: (a + b) % n,
                        [g % n for g in gens])


def kernel_pair_blocks(cay, kernel):
    """The blocks of the kernel-pair measure: the right cosets x * N of the
    kernel element set."""
    index = {e: i for i, e in enumerate(cay.elements)}
    kernel = [index[z] for z in kernel]
    if cay.order[0] not in kernel:
        raise ValueError("kernel must contain the identity")
    # row x * z over z in the kernel; column x is the coset x * N
    products = tree_products(cay.table, cay.order, cay.parent, cay.via)
    position = np.argsort(cay.order)
    cosets = products[:, position[kernel]].T
    # blocks are numbered by their least vertex
    least, block_of = np.unique(cosets.min(axis=0), return_inverse=True)
    return fibers(block_of, len(least))


def pair_count(blocks):
    """D, the number of ordered pairs x != y in a common block."""
    return sum(len(b) * (len(b) - 1) for b in blocks)


def test_kernel_measure_z4():
    cay = cyclic_cayley(4)
    blocks = kernel_pair_blocks(cay, [0, 2])
    assert pair_count(blocks) == 4
    pairs = [(x, y) for block in blocks.tolist() for x in block for y in block
             if x != y]
    assert sorted(pairs) == [(0, 2), (1, 3), (2, 0), (3, 1)]


def test_kernel_measure_rejects_trivial():
    cay = cyclic_cayley(4)
    blocks = kernel_pair_blocks(cay, [0])
    phi = LipschitzMap(graph=cay.graph, vectors=np.ones((4, 1)))
    with pytest.raises(ValueError, match="kernel is trivial"):
        poincare_sum(phi, blocks)


def test_kernel_and_fiber_measures_agree():
    cay = cyclic_cayley(8)
    via_kernel = kernel_pair_blocks(cay, [0, 4])
    via_fibers = fibers([v % 4 for v in range(8)], 4)
    assert pair_count(via_kernel) == pair_count(via_fibers)
    assert sorted(map(sorted, via_kernel.tolist())) == \
        sorted(map(sorted, via_fibers.tolist()))


def test_poincare_sum_constant_map():
    g = cycle(4)
    mu = fibers([0, 1, 0, 1], 2)
    phi = LipschitzMap(graph=g, vectors=np.ones((4, 2)), name="const")
    assert poincare_sum(phi, mu) == 0.0


def test_poincare_sum_identity_coordinates_c4():
    g = cycle(4)
    mu = fibers([0, 1, 0, 1], 2)   # antipodal blocks
    phi = LipschitzMap(graph=g, vectors=np.eye(4) / math.sqrt(2), name="coords")
    # each of the 4 ordered antipodal pairs contributes ||e_x - e_y||^2 / 2 = 1
    assert abs(poincare_sum(phi, mu) - 1.0) < 1e-12


def test_poincare_sum_rejects_stretched_map():
    g = cycle(4)
    mu = fibers([0, 1, 0, 1], 2)
    phi = LipschitzMap(graph=g, vectors=3 * np.eye(4), name="stretched")
    with pytest.raises(ValueError, match="not 1-Lipschitz"):
        poincare_sum(phi, mu)


def test_distance_map_is_lipschitz():
    g = cycle(9)
    phi = distance_map(g)
    stretch, _ = phi.lipschitz_defect()
    assert stretch <= 1


def test_certify_c8_over_c4():
    g, h = cycle(8), cycle(4)
    fibers = [v % 4 for v in range(8)]
    deco = lift_decomposition(g, h, fibers)
    cert = certify_relative(g, h, fibers, deco)
    assert abs(cert.epsilon - (2 - math.sqrt(2))) < 1e-9
    assert abs(cert.C - 4 / (2 - math.sqrt(2))) < 1e-9
    assert cert.passed
    assert cert.worst_sum <= cert.C + 1e-9


def test_certify_cover_k4():
    base = complete(4)
    cover = homology_cover(base, 2)
    cert = certify_relative(cover.graph, base, cover.projection)
    assert cert.passed


def test_certify_refuses_trivial_kernel():
    g = cycle(6)
    with pytest.raises(ValueError, match="refused"):
        certify_relative(g, g, list(range(6)))


def test_adversarial_map_centered_and_lipschitz():
    cay = cyclic_cayley(16)
    phi = adversarial_map(cay)
    assert np.abs(phi.vectors.sum(axis=0)).max() < 1e-8
    stretch, _ = phi.lipschitz_defect()
    assert stretch <= 1 + 1e-9


def test_double_sum_identity_when_centered():
    cay = cyclic_cayley(12)
    phi = adversarial_map(cay)
    v = phi.vectors
    direct = double_sum(phi)
    identity = 2 * 12 * float((v * v).sum())
    assert abs(direct - identity) < 1e-8 * max(1.0, abs(identity))


def test_edge_sum_is_twice_laplacian_form():
    g = cycle(10)
    lap = g.k * np.eye(10) - g.adjacency_matrix()
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.standard_normal(10)
        edge_sum = sum((f[u] - f[v]) ** 2 for u in range(10) for v in adj(g)[u])
        assert abs(edge_sum - 2 * f @ lap @ f) < 1e-9


def test_adversarial_violation_on_large_cycle():
    cay = cyclic_cayley(64)
    lam1 = spectrum(cay.graph).laplacian_values()[1]
    for eps in [lam1 * 1.0001, 2 * lam1, 10 * lam1, 1.0]:
        report = expander_bound_check(cay, C=2 / eps)
        assert report.violated, (eps, report)


def test_no_violation_on_k7():
    cay = cayley_graph(list(range(7)), lambda a, b: (a + b) % 7,
                       [1, 2, 3, 4, 5, 6])
    lam1 = spectrum(cay.graph).laplacian_values()[1]
    report = expander_bound_check(cay, C=cay.graph.k / lam1)
    assert not report.violated


def test_adversarial_rejects_constant_vector():
    cay = cyclic_cayley(8)
    with pytest.raises(ValueError):
        adversarial_map(cay, np.ones(8))


# --- the retired pair and edge loops, kept as oracles -------------------------


def poincare_sum_pairwise(phi, blocks):
    terms = []
    for block in blocks.tolist():
        for x in block:
            for y in block:
                if x != y:
                    diff = phi.vectors[x] - phi.vectors[y]
                    terms.append(float(diff @ diff))
    return math.fsum(terms) / len(terms)


def lipschitz_defect_edge_loop(phi):
    worst, worst_edge = 0.0, (-1, -1)
    for u, v in edges(phi.graph):
        d = float(np.linalg.norm(phi.vectors[u] - phi.vectors[v]))
        if d > worst:
            worst, worst_edge = d, (u, v)
    return worst, worst_edge


@functools.lru_cache(maxsize=None)
def quotient_pair(name):
    if name == "C8/C4":
        return cycle(8), fibers([v % 4 for v in range(8)], 4)
    cover = homology_cover(complete(4) if name == "K4-m2" else petersen(), 2)
    return cover.graph, fibers(cover.projection, cover.base.n)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(pair=st.sampled_from(["C8/C4", "K4-m2", "petersen-m2"]),
       dim=st.integers(1, 4),
       offset=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pair="petersen-m2", dim=3, offset=1e6, seed=0)
def test_poincare_sum_matches_pair_loop(pair, dim, offset, seed):
    g, mu = quotient_pair(pair)
    vecs = np.random.default_rng(seed).standard_normal((g.n, dim))
    stretch, _ = LipschitzMap(graph=g, vectors=vecs).lipschitz_defect()
    phi = LipschitzMap(graph=g, vectors=0.5 * vecs / stretch + offset)
    closed, pairwise = poincare_sum(phi, mu), poincare_sum_pairwise(phi, mu)
    assert abs(closed - pairwise) <= 1e-12 * pairwise


def test_lipschitz_defect_matches_edge_loop():
    g = homology_cover(petersen(), 2).graph
    rng = np.random.default_rng(1)
    maps = [LipschitzMap(graph=g, vectors=rng.standard_normal((g.n, 3))),
            LipschitzMap(graph=g, vectors=rng.integers(0, 3, (g.n, 1)) * 1.0),
            distance_map(g), LipschitzMap(graph=g, vectors=np.ones((g.n, 2)))]
    for phi in maps:
        assert phi.lipschitz_defect() == lipschitz_defect_edge_loop(phi)
    assert maps[-1].lipschitz_defect() == (0.0, (-1, -1))


# --- the retired mul loops, kept as oracles ----------------------------------


def adversarial_vectors_mul_loop(elements, mul, gens, f):
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    mul_idx = lambda i, j: index[mul(elements[i], elements[j])]
    identity = next(i for i in range(n)
                    if all(mul_idx(i, j) == j for j in range(n)))
    inv = [next(j for j in range(n) if mul_idx(i, j) == identity)
           for i in range(n)]
    vectors = np.empty((n, n))
    for x in range(n):
        for y in range(n):
            vectors[x, y] = f[mul_idx(inv[y], x)]
    stretches = [sum((f[u] - f[mul_idx(u, index[s])]) ** 2 for u in range(n))
                 for s in gens]
    return vectors / math.sqrt(max(stretches))


def kernel_blocks_mul_loop(elements, mul, kernel):
    index = {e: i for i, e in enumerate(elements)}
    block_of = [-1] * len(elements)
    n_blocks = 0
    for i, x in enumerate(elements):
        if block_of[i] < 0:
            for z in kernel:
                block_of[index[mul(x, z)]] = n_blocks
            n_blocks += 1
    return block_of


def psl23_input():
    return (psl.psl_elements(3, 1), lambda a, b: psl.mat_mul(a, b, 3, 3),
            [psl.canon(m, 3, 3)
             for m in ((1, 1, 0, 1), (1, -1, 0, 1), (0, 1, -1, 0))])


@pytest.mark.parametrize("name", ["C16", "psl23"])
def test_adversarial_map_matches_mul_loop(name):
    if name == "C16":
        elements, mul, gens = list(range(16)), lambda a, b: (a + b) % 16, [1, 15]
    else:
        elements, mul, gens = psl23_input()
    cay = cayley_graph(elements, mul, gens)
    f = np.random.default_rng(3).standard_normal(len(elements))
    phi = adversarial_map(cay, f)
    assert np.array_equal(phi.vectors,
                          adversarial_vectors_mul_loop(elements, mul, gens, f))


def test_kernel_measure_matches_mul_loop_on_psl23():
    elements, mul, gens = psl23_input()
    ident = psl.canon(psl.IDENT, 3, 3)
    # the Klein four-group: the identity and the three involutions of A4
    kernel = [x for x in elements if mul(x, x) == ident]
    assert len(kernel) == 4
    blocks = kernel_pair_blocks(cayley_graph(elements, mul, gens), kernel)
    block_of = kernel_blocks_mul_loop(elements, mul, kernel)
    assert np.array_equal(blocks, fibers(block_of, max(block_of) + 1))
