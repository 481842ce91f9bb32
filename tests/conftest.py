import functools

import pytest

from boxlab import psl
from boxlab.graphs import (cayley_graph, complete, complete_bipartite, cycle,
                           homology_cover, petersen)


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
