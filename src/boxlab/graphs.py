"""Finite simple graphs as CSR arrays: Cayley graphs, girth, and homology
covers built from a voltage tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import ResourceLimitError
from .psl import ROW_BLOCK


@dataclass(eq=False)
class Graph:
    """A simple graph as int64 CSR arrays: the neighbours of vertex u are
    indices[indptr[u]:indptr[u + 1]], in ascending order.

    The scipy CSR of ``sparse_adjacency`` is built once per graph and holds
    these two arrays themselves, not copies, so neither may be mutated once
    the graph is made."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    vertex_transitive: bool = False

    @classmethod
    def from_edges(cls, n: int, edges, vertex_transitive: bool = False) -> "Graph":
        """The graph on range(n) with the (u, v) pairs as edges; ValueError
        at the first pair out of range, a loop or a repeat of an earlier one."""
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        u, v = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2).T
        out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        repeat = np.ones(len(u), dtype=bool)
        repeat[np.unique(np.minimum(u, v) * n + np.maximum(u, v),
                         return_index=True)[1]] = False
        bad = np.flatnonzero(out | (u == v) | repeat)
        if len(bad):
            a, b = int(u[bad[0]]), int(v[bad[0]])
            if out[bad[0]]:
                raise ValueError(f"vertex out of range in edge ({a}, {b})")
            if a == b:
                raise ValueError(f"loop at vertex {a} rejected")
            raise ValueError(f"duplicate edge {(min(a, b), max(a, b))} rejected")
        src, dst = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.lexsort((dst, src))
        return cls(n=n, indptr=np.searchsorted(src[order], np.arange(n + 1)),
                   indices=dst[order], vertex_transitive=vertex_transitive)

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 (src, dst) of every arc u -> v, in adjacency order."""
        return np.repeat(np.arange(self.n), self.degrees()), self.indices

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def is_regular(self) -> bool:
        degs = self.degrees()
        return not len(degs) or bool(degs.min() == degs.max())

    @property
    def k(self) -> int:
        degs = self.degrees()
        if not len(degs) or degs.min() != degs.max():
            raise ValueError("graph is not regular")
        return int(degs[0])

    def bfs_distances(self, source: int) -> np.ndarray:
        """int64 BFS distance of every vertex from source, -1 if unreached.
        The distances from vertex 0, which the connectivity and
        bipartiteness checks read, are found once per graph and returned
        read-only."""
        if source == 0:
            return self._distances_from_0
        return bfs_tree(self.indptr, self.indices, source)[3]

    @functools.cached_property
    def _distances_from_0(self) -> np.ndarray:
        depth = bfs_tree(self.indptr, self.indices, 0)[3]
        depth.flags.writeable = False
        return depth

    def is_connected(self) -> bool:
        return self.n == 0 or bool((self.bfs_distances(0) >= 0).all())

    def is_bipartite(self) -> bool:
        """Whether the graph has a two-colouring, read from two_colouring."""
        return self.two_colouring() is not None

    def two_colouring(self) -> np.ndarray | None:
        """The parity of every vertex's BFS depth as a read-only bool array,
        when every edge joins opposite parities, else None; found once per
        graph.  The depths are those from vertex 0 or, when that BFS misses
        vertices, from one BFS seeded with the first vertex of every
        component, so each component's first vertex is on side False."""
        return self._two_colouring

    @functools.cached_property
    def _two_colouring(self) -> np.ndarray | None:
        depth = self.bfs_distances(0) if self.n else np.zeros(0, np.int64)
        if (depth < 0).any():
            from scipy.sparse.csgraph import connected_components

            labels = connected_components(self.sparse_adjacency(),
                                          directed=False)[1]
            roots = np.unique(labels, return_index=True)[1]
            depth = bfs_tree(self.indptr, self.indices, roots)[3]
        odd = (depth & 1).astype(bool)
        # each row's parity, repeated by degree, against its neighbours'
        if (np.repeat(odd, self.degrees()) == odd[self.indices]).any():
            return None
        odd.flags.writeable = False
        return odd

    def adjacency_matrix(self):
        a = np.zeros((self.n, self.n))
        a[self.arcs()] = 1.0
        return a

    def sparse_adjacency(self):
        """The adjacency as a scipy CSR, built once per graph; read-only."""
        return self._sparse_adjacency

    @functools.cached_property
    def _sparse_adjacency(self):
        from scipy import sparse

        # the constructor would copy the index arrays down to int32: an
        # empty matrix is given the graph's own int64 arrays instead, and
        # only the float64 ones are new
        a = sparse.csr_matrix((self.n, self.n))
        a.indptr, a.indices = self.indptr, self.indices
        a.data = np.ones(len(self.indices))
        return a


# --- named graphs ----------------------------------------------------------


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)],
                            vertex_transitive=True)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                            vertex_transitive=True)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)],
                            vertex_transitive=(a == b))


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges, vertex_transitive=True)


# --- Cayley graphs ---------------------------------------------------------


def generator_table(elements: Sequence[Hashable], mul: Callable,
                    gens: Sequence[Hashable]) -> tuple[dict, np.ndarray]:
    """Element index and int64 table[i, j] = index of mul(elements[i], gens[j]),
    one mul call per entry; ValueError on duplicate or unclosed elements."""
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements")
    flat = np.fromiter((index.get(mul(x, s), -1) for x in elements for s in gens),
                       dtype=np.int64, count=len(elements) * len(gens))
    if (flat < 0).any():
        raise ValueError("elements not closed under the generators")
    return index, flat.reshape(len(elements), len(gens))


SPOT_STRIDE = 64    # rows between the mul checks of a right_table column


def filled_table(elements: Sequence[Hashable], mul: Callable,
                 gens: Sequence[Hashable], identity) -> tuple[int, np.ndarray]:
    """The index of identity among the elements and generator_table's
    table, taken from elements.right_table(gens) when the sequence has one
    (``psl.Elements``), else from generator_table; ValueError on either
    path if identity is not among the elements.  On the row path the
    duplicate check and the identity's index come from the row keys, and no
    element index is built.

    A right_table column is checked against mul at every SPOT_STRIDE-th row,
    counted from the last: ValueError on a mismatch, so the mul passed is
    never ignored.  Counting from the end keeps a one-row check off a
    closure's first element, the identity, which no mul can get wrong.  The
    checked rows and their products are read with one ``elements.take``."""
    right_table = getattr(elements, "right_table", None)
    if right_table is None:
        index, table = generator_table(elements, mul, gens)
        if identity not in index:   # the message of Elements.position
            raise ValueError(f"{identity!r} is not in the sequence")
        return index[identity], table
    table = right_table(gens)
    rows = np.arange(len(elements) - 1, -1, -SPOT_STRIDE)
    # each checked row, then its products, as tuples from one batch read
    checked = elements.take(np.column_stack([rows, table[rows]]).ravel())
    width = len(gens) + 1
    for k in range(0, len(checked), width):
        x, *products = checked[k:k + width]
        for s, y in zip(gens, products):
            if mul(x, s) != y:
                raise ValueError(f"mul disagrees with the elements' own "
                                 f"product at {x!r} * {s!r}")
    return elements.position(identity), table


def inverse_permutations(columns: np.ndarray) -> np.ndarray:
    """The inverse of each column of an (n, k) integer array whose columns
    are permutations of range(n), as int64; ValueError if one is not.

    One scatter per column, inverse[columns[i, j], j] = i: an entry out of
    range is rejected first, and a repeat is an entry that does not read
    back."""
    n, k = columns.shape
    if columns.size and (columns.min() < 0 or columns.max() >= n):
        raise ValueError("a table column is not a permutation")
    inverse = np.empty((n, k), dtype=np.int64)
    rows = np.arange(n)
    for j in range(k):
        inverse[columns[:, j], j] = rows
        if not (inverse[columns[:, j], j] == rows).all():
            raise ValueError("a table column is not a permutation")
    return inverse


def bfs_tree(indptr: np.ndarray, indices: np.ndarray,
             root) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Queue BFS from root along CSR rows, each row's slots in order: the
    vertices in discovery order and, per vertex, the vertex and row slot it
    was reached by (a root: itself and -1; unreached: -1, -1) and its
    depth (unreached: -1).  root is a vertex, or an array of vertices that
    all start the queue at depth 0.  A generator table is the CSR whose
    rows all hold |S| entries; there the slot is the column.

    Run a level at a time: a queue BFS discovers the next level in the
    row-major order of the current level's rows, first occurrence first.
    A level is read ``ROW_BLOCK`` rows at a time, in order, so no level's
    neighbours are all held at once; the order is unchanged, since a vertex
    found in one block is no longer fresh in the blocks after it."""
    parent = np.full(len(indptr) - 1, -1, dtype=np.int64)
    via = np.full(len(parent), -1, dtype=np.int64)
    depth = np.full(len(parent), -1, dtype=np.int64)
    # per vertex, its first position in the block that reaches it
    first_at = np.full(len(parent), len(indices), dtype=np.int64)
    roots = np.atleast_1d(np.asarray(root, dtype=np.int64))
    parent[roots] = roots
    depth[roots] = 0
    levels = [roots]
    while len(levels[-1]):
        new = []
        for at in range(0, len(levels[-1]), ROW_BLOCK):
            level = levels[-1][at:at + ROW_BLOCK]
            start = indptr[level]
            sizes = indptr[level + 1] - start
            # the block's rows laid end to end: position p is slot
            # p - offsets[row[p]] of row row[p], at indices[gather[p]]
            offsets = np.cumsum(sizes)
            offsets -= sizes
            row = np.repeat(np.arange(len(level)), sizes)
            gather = (start - offsets)[row]
            gather += np.arange(len(gather))
            reached = indices[gather]
            fresh = np.flatnonzero(parent[reached] < 0)
            candidates = reached[fresh]
            np.minimum.at(first_at, candidates, fresh)
            is_first = first_at[candidates] == fresh
            first, found = fresh[is_first], candidates[is_first]
            row = row[first]
            parent[found] = level[row]
            via[found] = first - offsets[row]
            depth[found] = len(levels)
            new.append(found)
        levels.append(np.concatenate(new))
    return np.concatenate(levels), parent, via, depth


@dataclass(eq=False)
class CayleyGraph:
    """A Cayley graph with its group kept as a generator table: element i
    times generator j is element table[i, j], and order/parent/via are
    ``bfs_tree``'s from the identity, order[0], so every element is a word.

    The table is not stored.  Row i of it is row i of the graph's ascending
    adjacency, permuted: column j sits at column slot[i, j] of that row,
    and ``table`` gathers the int64 array on each read."""

    graph: Graph
    elements: Sequence
    slot: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    parent: np.ndarray = field(repr=False)
    via: np.ndarray = field(repr=False)

    @property
    def table(self) -> np.ndarray:
        rows = self.graph.indices.reshape(self.slot.shape)
        return np.take_along_axis(rows, self.slot, axis=1)


def tree_products(columns: np.ndarray, order: np.ndarray, parent: np.ndarray,
                  via: np.ndarray) -> np.ndarray:
    """Column i maps each row x of a generator table to x * order[i], in the
    narrowest type that holds a row index.  Each tree vertex is its parent
    times the generator of column via; order starts at the identity and
    lists each vertex after its parent, as bfs_tree's order and prefixes do."""
    position = np.empty(len(parent), dtype=np.int64)
    position[order] = np.arange(len(order))
    products = np.empty((len(columns), len(order)),
                        dtype=np.min_scalar_type(len(columns)), order="F")
    products[:, 0] = np.arange(len(columns))
    for i, v in enumerate(order[1:].tolist(), 1):
        products[:, i] = columns[products[:, position[parent[v]]], via[v]]
    return products


def cayley_graph(elements: Sequence[Hashable], mul: Callable,
                 gens: Sequence[Hashable]) -> CayleyGraph:
    """Cayley graph on the given element list.  gens must exclude the
    identity, be distinct and be closed under inverses; non-generating sets
    raise.

    The |S|^2 products of generators pair each generator with its inverse.
    One table column per pair is filled by ``filled_table``: from the
    elements' own rows when they carry them (``psl.Elements``), else with
    mul, one call per entry.  The partner column is its inverse
    permutation, since x * s^-1 = y exactly when y * s = x.

    The BFS tree is taken on the table; its rows are then sorted in place
    into the graph's adjacency, so the table is held only as the slot map
    of ``CayleyGraph``.
    """
    if not hasattr(elements, "right_table"):
        elements = list(elements)
    probe = elements[0]
    identity = next((e for e in elements
                     if mul(e, probe) == probe and mul(probe, e) == probe), None)
    if identity is None:
        raise ValueError("no identity found in element list")
    gens = list(gens)
    if identity in gens:
        raise ValueError("identity may not be a generator")
    inverse_of = []
    for s in gens:
        hits = [j for j, t in enumerate(gens) if mul(s, t) == identity]
        if len(hits) > 1:       # s * t = s * u = 1 forces t = u
            raise ValueError("duplicate generators")
        if not hits:
            raise ValueError(f"generator set not closed under inverses: {s!r}")
        inverse_of.append(hits[0])
    if any(inverse_of[i] != j for j, i in enumerate(inverse_of)):
        raise ValueError("generator inverses do not pair up")
    filled = [j for j, i in enumerate(inverse_of) if j <= i]
    ident, columns = filled_table(elements, mul, [gens[j] for j in filled],
                                  identity)
    table = np.empty((len(elements), len(gens)), dtype=np.int64)
    table[:, filled] = columns
    # an involution's column is its own inverse permutation
    table[:, [inverse_of[j] for j in filled]] = inverse_permutations(columns)
    del columns
    indptr = np.arange(len(elements) + 1) * len(gens)
    order, parent, via, depth = bfs_tree(indptr, table.ravel(), ident)
    if len(order) < len(elements):
        raise ValueError(
            f"generators do not generate: reached component of size "
            f"{len(order)} of {len(elements)}")
    # sort the table's rows in place, ROW_BLOCK at a time, into the graph's
    # adjacency: each entry carries its column through the sort in its low
    # bits (a row's entries are distinct), and the slot map notes where
    # each column went
    k = len(gens)
    bits = max(k - 1, 0).bit_length()
    slot = np.empty(table.shape, dtype=np.min_scalar_type(k))
    for start in range(0, len(table), ROW_BLOCK):
        rows = table[start:start + ROW_BLOCK]
        rows <<= bits
        rows |= np.arange(k)
        rows.sort(axis=1)
        column = rows & ((1 << bits) - 1)
        rows >>= bits
        column += np.arange(start * k, (start + len(rows)) * k, k)[:, None]
        slot.reshape(-1)[column] = np.arange(k, dtype=slot.dtype)
    graph = Graph(n=len(elements), indptr=indptr, indices=table.ravel(),
                  vertex_transitive=True)
    if ident == 0:
        # BFS depths do not depend on the order of a row's neighbours
        depth.flags.writeable = False
        graph._distances_from_0 = depth
    return CayleyGraph(graph=graph, elements=elements, slot=slot,
                       order=order, parent=parent, via=via)


# --- girth ----------------------------------------------------------------


GIRTH_PAIRS = 1 << 20   # (root, vertex) depths held by one girth batch


def girth(graph: Graph) -> float:
    """Length of the shortest cycle, math.inf for forests: the shortest
    cycle through any root, found by ``_shortest_cycle_from`` a batch of
    roots at a time.  Every vertex of a vertex-transitive graph lies on a
    shortest cycle, so a flagged graph is searched from vertex 0 alone."""
    roots = min(graph.n, 1) if graph.vertex_transitive else graph.n
    batch = max(1, GIRTH_PAIRS // max(graph.n, 1))
    best = math.inf
    for first in range(0, roots, batch):
        best = _shortest_cycle_from(
            graph, np.arange(first, min(first + batch, roots)), best)
        if best == 3:
            break
    return best


def _shortest_cycle_from(graph: Graph, roots: np.ndarray, best) -> float:
    """min(best, the length of a shortest cycle through one of the roots).

    One BFS per root, all run a level at a time together.  At depth d, an
    arc within the level closes a cycle of length at most 2d + 1, and a
    vertex of the next level reached twice one of length at most 2d + 2,
    with equality from a root on a shortest cycle; so the search stops at
    the first depth d where one is found or where 2d + 1 >= best."""
    n = graph.n
    # depth[i * n + v]: the depth of v from roots[i], -1 until reached
    depth = np.full(len(roots) * n, -1, dtype=np.int64)
    level = np.arange(len(roots)) * n + roots
    depth[level] = 0
    d = 0
    while len(level) and 2 * d + 1 < best:
        offset, u = np.divmod(level, n)
        offset *= n
        start = graph.indptr[u]
        sizes = graph.indptr[u + 1] - start
        # the level's rows laid end to end, each keyed by its root
        ends = np.cumsum(sizes)
        gather = np.repeat(start - ends + sizes, sizes)
        gather += np.arange(len(gather))
        reached = np.repeat(offset, sizes)
        reached += graph.indices[gather]
        at = depth[reached]
        if (at == d).any():
            return min(best, 2 * d + 1)
        level = np.sort(reached[at < 0])
        if (level[1:] == level[:-1]).any():
            return min(best, 2 * d + 2)
        d += 1
        depth[level] = d
    return best


# --- voltage trees and homology covers --------------------------------------

COVER_CAP = 500_000     # vertices of the largest homology cover built


def voltage_tree(indptr: np.ndarray, indices: np.ndarray, partner: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``bfs_tree``'s parent and via from vertex 0, an int64 voltage per arc
    and the rank, for a CSR multigraph whose arc a reverses arc partner[a]:
    -1 on tree arcs, 2j on the first arc in arc order of non-tree edge j (a
    free generator of the fundamental group) and 2j + 1 on its reverse.
    ValueError unless the graph has vertices and is connected."""
    n = len(indptr) - 1
    if n < 1:
        raise ValueError("a graph with no vertices has no spanning tree")
    order, parent, via, _ = bfs_tree(indptr, indices, 0)
    if len(order) < n:
        raise ValueError("graph must be connected")
    tree = indptr[parent[order[1:]]] + via[order[1:]]
    voltage = np.zeros(len(indices), dtype=np.int64)
    voltage[tree] = voltage[partner[tree]] = -1
    first = np.flatnonzero((voltage == 0) & (np.arange(len(indices)) < partner))
    rank = len(indices) // 2 - n + 1
    if len(first) != rank:
        raise RuntimeError(f"{len(first)} non-tree edges, expected rank {rank}")
    voltage[first] = 2 * np.arange(rank)
    voltage[partner[first]] = voltage[first] + 1
    return parent, via, voltage, rank


@dataclass(eq=False)
class CoverGraph:
    graph: Graph
    base: Graph
    projection: np.ndarray       # int64 base vertex of each cover vertex
    m: int
    rank: int
    voltage: np.ndarray          # int64 per base arc, from ``voltage_tree``

    def deck_translate(self, shift: Sequence[int]) -> np.ndarray:
        """int64 vertex permutation translating the Z_m^r coordinate by
        shift; ValueError unless shift has r integer coordinates."""
        m, r = self.m, self.rank
        if len(shift) != r:
            raise ValueError(f"shift has {len(shift)} coordinates, rank is {r}")
        steps = np.asarray(shift, dtype=np.int64)
        if not np.array_equal(steps, shift):
            raise ValueError(f"shift {list(shift)!r} is not integer")
        weights = m ** np.arange(r, dtype=np.int64)
        digits = np.arange(m ** r, dtype=np.int64)[:, None] // weights % m
        shifted = ((digits + steps) % m) @ weights
        n = self.base.n
        return (shifted[:, None] * n + np.arange(n)).ravel()


def homology_cover(graph: Graph, m: int) -> CoverGraph:
    """The m-fold homology cover: one copy of the base per element a of
    Z_m^r, the first arc u -> v of each base edge joining u in block a to v
    in block a, or in block a + unit_j when its voltage is 2j;
    ResourceLimitError above COVER_CAP vertices.

    The cover belongs to the characteristic subgroup pi1^m [pi1, pi1], so
    every automorphism of the base lifts, and with the deck group transitive
    on fibers the cover is vertex-transitive whenever the base is."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    n = graph.n
    src, dst = graph.arcs()
    # the reverse of u -> v is v -> u, found in the ascending arc keys
    partner = np.searchsorted(src * n + dst, dst * n + src)
    voltage, r = voltage_tree(graph.indptr, graph.indices, partner)[2:]
    n_blocks = m ** r
    total = n_blocks * n
    if total > COVER_CAP:
        raise ResourceLimitError(
            f"cover would have {total} > {COVER_CAP} vertices")
    block = np.arange(n_blocks)[:, None]
    weights = m ** np.arange(r)
    digit = block // weights % m
    # column j steps block a to a + unit_j; column r, for tree arcs, is 0
    step = np.zeros((n_blocks, r + 1), dtype=np.int64)
    step[:, :r] = ((digit + 1) % m - digit) * weights
    first = np.flatnonzero(src < dst)
    edges = np.stack([block * n + src[first],
                      (block + step[:, voltage[first] // 2]) * n + dst[first]],
                     axis=-1)
    cover = Graph.from_edges(total, edges.reshape(-1, 2),
                             vertex_transitive=graph.vertex_transitive)
    return CoverGraph(graph=cover, base=graph,
                      projection=np.tile(np.arange(n), n_blocks), m=m,
                      rank=r, voltage=voltage)


def fibers(projection, base_n: int) -> np.ndarray:
    """(base_n, f) int64 array, row b the vertices over base vertex b in
    ascending order; ValueError unless onto range(base_n) with equal fibers."""
    proj = np.asarray(projection, dtype=np.int64)
    if not np.array_equal(np.unique(proj), np.arange(base_n)):
        raise ValueError("fiber map must be onto the base vertex set")
    sizes = set(np.bincount(proj).tolist())
    if len(sizes) != 1:
        raise ValueError(f"fibers must have constant size, got {sizes}")
    return np.argsort(proj, kind="stable").reshape(base_n, -1)


def covering_neighbours(g: Graph, h: Graph, projection) -> np.ndarray:
    """int64 array aligned with g.indices whose entry g.indptr[u] + j is the
    neighbour of u over the j-th neighbour of its base vertex; ValueError
    unless each vertex has exactly one neighbour over each base neighbour."""
    proj = np.asarray(projection, dtype=np.int64)
    if np.array_equal(g.degrees(), h.degrees()[proj]):
        src, dst = g.arcs()
        # arc i of u is slot i - indptr[u] of the base row of proj[u]
        wanted = h.indices[h.indptr[proj[src]] + np.arange(len(src))
                           - g.indptr[src]]
        key = src * h.n + proj[dst]
        by_base = np.argsort(key, kind="stable")
        if np.array_equal(key[by_base], src * h.n + wanted):
            return dst[by_base]
    raise ValueError("a vertex does not have exactly one neighbour over "
                     "each base neighbour; fiber map is not a covering "
                     "quotient")


def verify_covering(cover: CoverGraph) -> bool:
    """Whether the projection maps each neighborhood onto the base one."""
    try:
        covering_neighbours(cover.graph, cover.base, cover.projection)
        return True
    except ValueError:
        return False


def is_automorphism(graph: Graph, perm: Sequence[int]) -> bool:
    """Whether perm is a permutation of range(n) mapping edges onto edges."""
    n = graph.n
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        return False
    # a bijection maps the arcs u -> v injectively, so they must sort equal
    src, dst = graph.arcs()
    return np.array_equal(np.sort(p[src] * n + p[dst]), np.sort(src * n + dst))
