"""Poincare-sum diagnostics against kernel-pair measures.

A kernel-pair measure puts equal weight on the pairs of vertices lying in a
common fiber (equivalently, differing by a nontrivial kernel element), with
total mass one.  A relative spectral gap of size eps certifies the bound
2k / eps on the Poincare sum of any 1-Lipschitz map; a suite of concrete
maps makes that literally checkable, and an adversarial translation map
witnesses failure of the plain expander bound when the gap is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CayleyGraph, Graph, fibers, tree_products
from .spectral import LiftDecomposition, lift_decomposition

LIPSCHITZ_SLACK = 1e-9


@dataclass(eq=False)
class LipschitzMap:
    graph: Graph
    vectors: np.ndarray          # one row per vertex
    name: str = "map"

    def lipschitz_defect(self) -> tuple[float, tuple[int, int]]:
        """Largest edge stretch and the first edge achieving it, among the
        arcs (u, v) with u < v in adjacency order; (0.0, (-1, -1)) when no
        edge is stretched."""
        edges = np.stack(self.graph.arcs(), axis=1)
        edges = edges[edges[:, 0] < edges[:, 1]]
        vecs = np.asarray(self.vectors).reshape(self.graph.n, -1)
        stretch = np.linalg.norm(vecs[edges[:, 0]] - vecs[edges[:, 1]], axis=1)
        if not (stretch > 0).any():
            return 0.0, (-1, -1)
        i = int(np.argmax(stretch))
        return float(stretch[i]), (int(edges[i, 0]), int(edges[i, 1]))


def poincare_sum(phi: LipschitzMap, blocks: np.ndarray) -> float:
    """Exact sum over ordered pairs x != y in a row of ``graphs.fibers``'
    blocks, weight 1/D, D = |G| (f - 1); rejects f < 2, non-Lipschitz maps."""
    f = blocks.shape[1]
    if f < 2:
        raise ValueError("kernel is trivial; measure undefined")
    stretch, edge = phi.lipschitz_defect()
    if stretch > 1 + LIPSCHITZ_SLACK:
        raise ValueError(
            f"map {phi.name!r} is not 1-Lipschitz: stretch {stretch:.6g} "
            f"on edge {edge}")
    # sum_{x != y in B} |phi x - phi y|^2
    #     = 2 |B| sum_{x in B} |phi x - mean_B|^2;
    # centring first keeps a large common offset from cancelling, and the
    # modulus keeps the imaginary part of a complex map
    block_vectors = np.asarray(phi.vectors)[blocks]
    centred = block_vectors - block_vectors.mean(axis=1, keepdims=True)
    pairs = blocks.size * (f - 1)
    return 2 * f * math.fsum((centred * centred.conj()).real.ravel()) / pairs


# --- the test-map suite ------------------------------------------------------


def _rescaled(graph: Graph, vectors: np.ndarray, name: str) -> LipschitzMap:
    phi = LipschitzMap(graph=graph, vectors=vectors, name=name)
    stretch, _ = phi.lipschitz_defect()
    if stretch > 0:
        phi = LipschitzMap(graph=graph, vectors=vectors / stretch, name=name)
    return phi


def spectral_maps(g: Graph, deco: LiftDecomposition) -> list[LipschitzMap]:
    """Embeddings along the two bottom relative eigenvectors, rescaled to
    Lipschitz constant one."""
    vecs = deco.relative_vectors(2)
    return [_rescaled(g, vecs[:, j:j + 1], f"relative-eigenvector-{j}")
            for j in range(vecs.shape[1])]


def distance_map(g: Graph) -> LipschitzMap:
    dist = g.bfs_distances(0).astype(float).reshape(-1, 1)
    return LipschitzMap(graph=g, vectors=dist, name="distance-to-0")


def random_sign_maps(g: Graph, seed: int = 0) -> list[LipschitzMap]:
    """Two maps to random signs in R^3, rescaled to Lipschitz constant one."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(2):
        vecs = rng.choice([-1.0, 1.0], size=(g.n, 3))
        out.append(_rescaled(g, vecs, f"random-signs-{j}"))
    return out


@dataclass(frozen=True)
class PoincareCertificate:
    epsilon: float
    C: float
    k: int
    worst_map: str
    worst_sum: float
    passed: bool
    tolerance: float = LIPSCHITZ_SLACK


def certify_relative(g: Graph, h: Graph, fiber_map,
                     deco: LiftDecomposition | None = None,
                     seed: int = 0) -> PoincareCertificate:
    """Certificate C = 2k/eps from the relative gap: every suite map must
    have Poincare sum at most C.  Refused when the kernel is trivial or the
    relative gap vanishes."""
    if deco is None:
        deco = lift_decomposition(g, h, fiber_map)
    if not math.isfinite(deco.epsilon):
        raise ValueError("trivial kernel: no relative part, certificate refused")
    if deco.epsilon <= 0:
        raise ValueError("relative gap is zero, certificate refused")
    k = g.k
    c = 2 * k / deco.epsilon
    blocks = fibers(fiber_map, h.n)
    maps = spectral_maps(g, deco) + [distance_map(g)] + random_sign_maps(g, seed)
    sums = [(phi.name, poincare_sum(phi, blocks)) for phi in maps]
    worst_map, worst_sum = max(sums, key=lambda t: t[1])
    return PoincareCertificate(epsilon=deco.epsilon, C=c, k=k,
                               worst_map=worst_map, worst_sum=worst_sum,
                               passed=worst_sum <= c + LIPSCHITZ_SLACK)


# --- the adversarial construction -------------------------------------------


def adversarial_map(cay: CayleyGraph, f: np.ndarray | None = None) -> LipschitzMap:
    """Translation map x -> (y -> f(y^-1 x)) / sqrt(L) built from an
    eigenvector f for the Laplacian gap, L being the largest per-generator
    edge stretch so the map is exactly 1-Lipschitz."""
    g = cay.graph
    n = g.n
    if f is None:
        from scipy.linalg import eigh

        lap = g.k * np.eye(n) - g.adjacency_matrix()
        _, vecs = eigh(lap)
        f = vecs[:, 1]
    f = np.asarray(f, dtype=float)
    if np.allclose(f, f[0]):
        raise ValueError("eigenvector must be nonconstant")
    # row x, column y holds f(y^-1 x); with z = y^-1 x that is vectors[y * z, y]
    vectors = np.empty((n, n))
    table = cay.table       # gathered on each read
    products = tree_products(table, cay.order, cay.parent, cay.via)
    vectors[products, np.arange(n)[:, None]] = f[cay.order]
    # sum_u (f(u) - f(u s))^2 per generator s, summed left to right
    diffs = f[:, None] - f[table]
    scale = math.sqrt(max(sum(col * col) for col in diffs.T))
    return LipschitzMap(graph=g, vectors=vectors / scale, name="adversarial")


def double_sum(phi: LipschitzMap) -> float:
    """sum over all ordered vertex pairs of ||phi(x) - phi(y)||^2."""
    v = phi.vectors
    n = v.shape[0]
    sq = (v * v).sum(axis=1)
    gram = v @ v.T
    return float(n * sq.sum() * 2 - 2 * gram.sum())


@dataclass(frozen=True)
class ExpanderBoundReport:
    C: float
    lhs: float
    rhs: float
    violated: bool


def expander_bound_check(cay: CayleyGraph, C: float) -> ExpanderBoundReport:
    """Whether the adversarial map breaks sum_{x,y} ||phi(x)-phi(y)||^2 <= C |G|^2."""
    phi = adversarial_map(cay)
    stretch, edge = phi.lipschitz_defect()
    if stretch > 1 + LIPSCHITZ_SLACK:
        raise RuntimeError(f"adversarial map not Lipschitz: {stretch} on {edge}")
    lhs = double_sum(phi)
    rhs = C * cay.graph.n ** 2
    return ExpanderBoundReport(C=C, lhs=lhs, rhs=rhs, violated=lhs > rhs)
