"""Words in the free group on three letters, Schreier data for finite
quotients, and loop counting in congruence / homology kernels.

Letters are encoded 0..5 with letter l inverse to l ^ 1, ordered
x1 < x1^-1 < x2 < x2^-1 < x3 < x3^-1.  A word is a tuple of letters with no
adjacent inverse pair; its length is the word metric.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import psl
from .errors import ResourceLimitError
from .graphs import (bfs_tree, filled_table, inverse_permutations,
                     voltage_tree)
from .quaternion import quaternion_generators
from .zmod import LpsParams

N_LETTERS = 6
MAX_RADIUS = 12  # largest word length trivial_word_counts accepts


# --- Schreier data for a finite quotient ----------------------------------


@dataclass(eq=False)
class SchreierData:
    """Coset table of a finite quotient of the free group, on the layout of
    ``graphs.voltage_tree``: coset c times letter l is coset table[c, l],
    the cosets are numbered breadth first from the identity, coset 0, along
    the tree parent/via, and voltage numbers the free generators of the
    kernel, rank = 1 + 2 * n_cosets of them."""

    n_cosets: int
    table: np.ndarray       # int64 (n_cosets, 6)
    parent: np.ndarray      # int64 per coset, 0 at the root
    via: np.ndarray         # int64 letter per coset, -1 at the root
    voltage: np.ndarray     # int64 (n_cosets, 6)
    rank: int


def schreier_build(elements: Sequence, mul: Callable, identity,
                   gen_images: Sequence) -> SchreierData:
    """Build the coset table for the quotient hom sending the three positive
    letters to gen_images; the columns come from ``filled_table``.  Raises
    if the images do not generate."""
    if len(gen_images) != 3:
        raise ValueError("need images for exactly three generators")
    ident, images = filled_table(elements, mul, gen_images, identity)
    n = len(elements)
    # letter 2j is gen_images[j]; right multiplication by its inverse,
    # letter 2j + 1, is the inverse permutation of that column
    letters = np.empty((n, N_LETTERS), dtype=np.int64)
    letters[:, 0::2] = images
    letters[:, 1::2] = inverse_permutations(images)

    # BFS from the identity with letter priority; discovery order numbers cosets
    indptr = np.arange(n + 1) * N_LETTERS
    order = bfs_tree(indptr, letters.ravel(), ident)[0]
    if len(order) < n:
        raise ValueError(
            f"generator images generate a proper subgroup of order "
            f"{len(order)} < {n}")
    table = np.argsort(order)[letters[order]]
    # the reverse of arc (c, l) is (table[c, l], l ^ 1)
    partner = table * N_LETTERS + (np.arange(N_LETTERS) ^ 1)
    parent, via, voltage, rank = voltage_tree(indptr, table.ravel(),
                                              partner.ravel())
    return SchreierData(n_cosets=n, table=table, parent=parent, via=via,
                        voltage=voltage.reshape(n, N_LETTERS), rank=rank)


# --- the combined congruence / homology quotient ---------------------------


@dataclass
class FiberContext:
    """Precomputed data for mapping words into PSL(2, q^n) paired with the
    level-k homology quotient."""

    q: int
    n: int
    k: int | None
    letter_mats: list[psl.Mat]
    sd: SchreierData | None

    @classmethod
    def build(cls, q: int, n: int, k: int | None = None) -> "FiberContext":
        params = LpsParams.build(q, max(n, k or 0, 1))
        gens = quaternion_generators(params.p)
        letter_mats = (psl.lps_letter_images(gens, q, n, params.epsilon(n))
                       if n >= 1 else [])
        sd = None
        if k is not None:
            modulus_k = q ** k
            mats_k = psl.lps_letter_images(gens, q, k, params.epsilon(k))
            elements = psl.psl_elements(q, k)
            sd = schreier_build(
                elements,
                lambda a, b: psl.mat_mul(a, b, modulus_k, q),
                psl.canon(psl.IDENT, modulus_k, q),
                [mats_k[0], mats_k[2], mats_k[4]])
        return cls(q=q, n=n, k=k, letter_mats=letter_mats, sd=sd)


def trivial_word_counts(n: int, k: int | None, m: int, q: int,
                        ctx: FiberContext | None = None) -> list[int]:
    """counts[d] = number of reduced words of length exactly d that are
    trivial in PSL(2, q^n) (skipped when n = 0) and in the level-k homology
    quotient (skipped when k is None), for d = 0..m.

    Meets in the middle.  A reduced word of length d splits uniquely as
    u v^-1 with |u| = ceil(d/2) and |v| = floor(d/2); the product is reduced
    exactly when u and v end in different letters, and trivial exactly when
    u and v have the same value.  So counts[d] comes from the reduced words
    of length <= ceil(m/2), tallied by value and by (value, last letter)."""
    if m < 0 or n < 0 or (k is not None and k < 1):
        raise ValueError(f"need m >= 0, n >= 0 and k >= 1 or None, got "
                         f"m={m}, n={n}, k={k}")
    if m > MAX_RADIUS:
        raise ResourceLimitError(f"ball radius {m} exceeds cap {MAX_RADIUS}")
    use_mat = n >= 1
    use_hom = k is not None
    if ctx is None and (use_mat or use_hom):
        ctx = FiberContext.build(q, n, k)
    if ctx is not None:
        if ctx.q != q or (use_mat and ctx.n != n) or (use_hom and ctx.k != k):
            raise ValueError("context was built for different parameters")
    modulus = q ** n
    mats = ctx.letter_mats if use_mat else None
    sd = ctx.sd if use_hom else None

    # tallies of the reduced words of each length, by (value, last letter)
    # and by value; a value is (matrix or None, coset, frozen vector items)
    start = (psl.canon(psl.IDENT, modulus, q) if use_mat else None, 0,
             frozenset())
    by_last = [Counter({(start, None): 1})]
    by_value = [Counter({start: 1})]
    for _ in range((m + 1) // 2):
        level, values = Counter(), Counter()
        for ((mat, coset, vec), last), count in by_last[-1].items():
            for l in range(N_LETTERS):
                if l ^ 1 == last:
                    continue
                mat_l = psl.mat_mul(mat, mats[l], modulus, q) if mats else None
                coset_l, vec_l = coset, vec
                if sd is not None:
                    coset_l = int(sd.table[coset, l])
                    v = int(sd.voltage[coset, l])
                    if v >= 0:      # +1 on arc 2j, -1 on its reverse
                        j, tally = v >> 1, dict(vec)
                        tally[j] = (tally.get(j, 0) + 1 - 2 * (v & 1)) % q
                        vec_l = frozenset(kv for kv in tally.items() if kv[1])
                value = (mat_l, coset_l, vec_l)
                level[(value, l)] += count
                values[value] += count
        by_last.append(level)
        by_value.append(values)

    counts = [1] + [0] * m
    for d in range(1, m + 1):
        a, b = (d + 1) // 2, d // 2
        pairs = sum(c * by_value[b][g] for g, c in by_value[a].items())
        same_last = sum(c * by_last[b][key] for key, c in by_last[a].items())
        counts[d] = pairs - same_last
    return counts
