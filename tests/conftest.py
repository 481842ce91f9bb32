import functools

import pytest

from boxlab import psl
from boxlab.graphs import (cayley_graph, complete, complete_bipartite, cycle,
                           homology_cover, petersen)
from boxlab.quaternion import Quat

ONE = Quat(1, 0, 0, 0)


def adj(graph):
    """The neighbour tuple of each vertex, for searches that walk one vertex
    at a time."""
    flat, bounds = graph.indices.tolist(), graph.indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def edges(graph):
    """The (u, v) edges with u < v, in adjacency order."""
    src, dst = graph.arcs()
    return list(zip(src[src < dst].tolist(), dst[src < dst].tolist()))


def canonical_class(x):
    """Class representative of a quaternion up to powers of 5 and sign:
    divide out powers of 5, make the first nonzero coefficient positive."""
    if x == (0, 0, 0, 0):
        raise ValueError("zero quaternion has no class")
    while all(c % 5 == 0 for c in x):
        x = Quat(*(c // 5 for c in x))
    for c in x:
        if c != 0:
            if c < 0:
                x = Quat(*(-v for v in x))
            break
    return x


def word_to_class(word, gens):
    """Class of the product of generator letters along a reduced word.

    The representative of a reduced word of length m has norm exactly 5^m;
    non-reduced words are rejected.
    """
    for i, letter in enumerate(word):
        if not 0 <= letter < len(gens.elements):
            raise ValueError(f"letter {letter} out of range")
        if i and word[i - 1] == letter ^ 1:
            raise ValueError(f"word not reduced at position {i}")
    out = ONE
    for letter in word:
        out = out * gens.elements[letter]
    out = canonical_class(out)
    if out.norm() != 5 ** len(word):
        raise RuntimeError(f"class of norm {out.norm()}, expected 5^{len(word)}")
    return out


def _psl23_cayley():
    gens = [psl.canon((1, 1, 0, 1), 3, 3), psl.canon((1, -1, 0, 1), 3, 3),
            psl.canon((0, 1, -1, 0), 3, 3)]
    return cayley_graph(psl.psl_elements(3, 1),
                        lambda a, b: psl.mat_mul(a, b, 3, 3), gens).graph


@pytest.fixture(scope="session")
def corpus_cover():
    """corpus_cover(name, m): the m-fold homology cover of a graph of
    acceptance criterion 5's corpus (C6, K4, K33, petersen, psl23), built
    once per session."""
    bases = {"C6": cycle(6), "K4": complete(4),
             "K33": complete_bipartite(3, 3), "petersen": petersen(),
             "psl23": _psl23_cayley()}
    return functools.lru_cache(maxsize=None)(
        lambda name, m: homology_cover(bases[name], m))
