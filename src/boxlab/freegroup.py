"""Words in the free group on three letters, Schreier data for finite
quotients, and loop counting in congruence / homology kernels.

Letters are encoded 0..5 with letter l inverse to l ^ 1, ordered
x1 < x1^-1 < x2 < x2^-1 < x3 < x3^-1.  A word is a tuple of letters with no
adjacent inverse pair; its length is the word metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import psl
from .errors import ResourceLimitError
from .graphs import bfs_tree, generator_table, inverse_permutations
from .quaternion import GeneratorSet, quaternion_generators
from .zmod import LpsParams

N_LETTERS = 6


def inverse_letter(letter: int) -> int:
    return letter ^ 1


def is_reduced(word: Sequence[int]) -> bool:
    return all(word[i + 1] != word[i] ^ 1 for i in range(len(word) - 1))


def reduce_word(letters: Sequence[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for l in letters:
        if not 0 <= l < N_LETTERS:
            raise ValueError(f"letter {l} out of range")
        if stack and stack[-1] == l ^ 1:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


def word_inverse(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(l ^ 1 for l in reversed(word))


def ball_size(radius: int) -> int:
    """Number of reduced words of length <= radius (1 + 6 + 30 + ...)."""
    total = 1
    for m in range(1, radius + 1):
        total += 6 * 5 ** (m - 1)
    return total


# --- Schreier data for a finite quotient ----------------------------------


@dataclass
class SchreierData:
    """Coset table of a finite quotient of the free group, with a
    breadth-first prefix-closed transversal and indexed non-tree edges.

    The non-tree edges are free generators of the kernel; their number is
    1 + 2 * (number of cosets).
    """

    n_cosets: int
    table: list[list[int]]                      # coset x letter -> coset
    transversal: list[tuple[int, ...]]          # shortest word per coset
    sgen_of: dict[tuple[int, int], tuple[int, int]]  # (coset, letter) -> (index, sign)
    rank: int

    def coset_mul(self, c1: int, c2: int) -> int:
        for l in self.transversal[c2]:
            c1 = self.table[c1][l]
        return c1


def schreier_build(elements: Sequence, mul: Callable, identity,
                   gen_images: Sequence) -> SchreierData:
    """Build the coset table for the quotient hom sending the three positive
    letters to gen_images.  Raises if the images do not generate."""
    if len(gen_images) != 3:
        raise ValueError("need images for exactly three generators")
    index, images = generator_table(elements, mul, gen_images)
    n = len(index)
    # letter 2j is gen_images[j]; right multiplication by its inverse,
    # letter 2j + 1, is the inverse permutation of that column
    letters = np.empty((n, N_LETTERS), dtype=np.int64)
    letters[:, 0::2] = images
    letters[:, 1::2] = inverse_permutations(images)

    # BFS from the identity with letter priority; discovery order numbers cosets
    order, parent, via = bfs_tree(letters, index[identity])
    if len(order) < n:
        raise ValueError(
            f"generator images generate a proper subgroup of order "
            f"{len(order)} < {n}")
    coset_of = np.argsort(order)
    table = coset_of[letters[order]].tolist()

    transversal: list[tuple[int, ...]] = [()] * n
    tree = set()
    for c in range(1, n):
        pc, pl = int(coset_of[parent[order[c]]]), via[order[c]]
        transversal[c] = transversal[pc] + (pl,)
        tree.add((pc, pl))
        tree.add((c, pl ^ 1))

    sgen_of: dict[tuple[int, int], tuple[int, int]] = {}
    rank = 0
    for c in range(n):
        for l in range(N_LETTERS):
            if (c, l) in tree or (c, l) in sgen_of:
                continue
            target = table[c][l]
            sgen_of[(c, l)] = (rank, 1)
            sgen_of[(target, l ^ 1)] = (rank, -1)
            rank += 1
    if rank != 2 * n + 1:
        raise RuntimeError(f"{rank} Schreier generators, expected {2 * n + 1}")
    return SchreierData(n_cosets=n, table=table, transversal=transversal,
                        sgen_of=sgen_of, rank=rank)


@dataclass
class HomologyElement:
    """Image of a word in the homology-cover quotient: a coset together with
    a sparse vector over Z_q in the non-tree-edge basis.  The stored witness
    word makes products computable via rescanning."""

    coset: int
    vector: dict[int, int]
    word: tuple[int, ...]
    sd: SchreierData
    q: int

    def is_identity(self) -> bool:
        return self.coset == 0 and not self.vector

    def __mul__(self, other: "HomologyElement") -> "HomologyElement":
        vec = dict(self.vector)
        coset = _scan(other.word, self.sd, self.q, self.coset, vec)
        return HomologyElement(coset=coset, vector=vec,
                               word=reduce_word(self.word + other.word),
                               sd=self.sd, q=self.q)

    def __eq__(self, other) -> bool:  # type: ignore[override]
        return (self.coset, self.vector) == (other.coset, other.vector)


def _scan(word: Sequence[int], sd: SchreierData, q: int, start: int,
          vec: dict[int, int]) -> int:
    """Walk word through the coset table accumulating signed non-tree-edge
    crossings mod q; returns the final coset."""
    c = start
    for l in word:
        hit = sd.sgen_of.get((c, l))
        if hit is not None:
            idx, sign = hit
            v = (vec.get(idx, 0) + sign) % q
            if v:
                vec[idx] = v
            else:
                vec.pop(idx, None)
        c = sd.table[c][l]
    return c


def homology_map(word: Sequence[int], sd: SchreierData, q: int) -> HomologyElement:
    word = tuple(word)
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    vec: dict[int, int] = {}
    coset = _scan(word, sd, q, 0, vec)
    return HomologyElement(coset=coset, vector=vec, word=word, sd=sd, q=q)


# --- the combined congruence / homology quotient ---------------------------


@dataclass
class FiberContext:
    """Precomputed data for mapping words into PSL(2, q^n) paired with the
    level-k homology quotient."""

    q: int
    n: int
    k: int | None
    params: LpsParams
    gens: GeneratorSet
    letter_mats: list[psl.Mat]
    sd: SchreierData | None

    @classmethod
    def build(cls, q: int, n: int, k: int | None = None,
              params: LpsParams | None = None,
              psl_cap: int = 10 ** 7) -> "FiberContext":
        nmax = max(n, k or 0, 1)
        if params is None:
            params = LpsParams.build(q, nmax)
        gens = quaternion_generators(params.p)
        letter_mats = (psl.lps_letter_images(gens, q, n, params.epsilon(n))
                       if n >= 1 else [])
        sd = None
        if k is not None:
            modulus_k = q ** k
            mats_k = psl.lps_letter_images(gens, q, k, params.epsilon(k))
            elements = psl.psl_elements(q, k, cap=psl_cap)
            sd = schreier_build(
                elements,
                lambda a, b: psl.mat_mul(a, b, modulus_k, q),
                psl.canon(psl.IDENT, modulus_k, q),
                [mats_k[0], mats_k[2], mats_k[4]])
        return cls(q=q, n=n, k=k, params=params, gens=gens,
                   letter_mats=letter_mats, sd=sd)


def word_matrix(word: Sequence[int], ctx: FiberContext) -> psl.Mat:
    modulus = ctx.q ** ctx.n
    out = psl.canon(psl.IDENT, modulus, ctx.q)
    for l in word:
        out = psl.mat_mul(out, ctx.letter_mats[l], modulus, ctx.q)
    return out


def fiber_map(word: Sequence[int], ctx: FiberContext):
    """Image of a reduced word as a (matrix, homology element) pair; the
    kernel is the intersection of the level-n congruence kernel with the
    level-k homology kernel."""
    word = tuple(word)
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    mat = word_matrix(word, ctx) if ctx.n >= 1 else None
    hom = homology_map(word, ctx.sd, ctx.q) if ctx.sd is not None else None
    return mat, hom


def trivial_word_counts(n: int, k: int | None, m: int, q: int,
                        params: LpsParams | None = None,
                        ctx: FiberContext | None = None,
                        max_radius: int = 12) -> list[int]:
    """counts[d] = number of reduced words of length exactly d that are
    trivial in PSL(2, q^n) (skipped when n = 0) and in the level-k homology
    quotient (skipped when k is None).  Exhaustive over the radius-m ball."""
    if m > max_radius:
        raise ResourceLimitError(f"ball radius {m} exceeds cap {max_radius}")
    if ctx is None and (n or k is not None):
        ctx = FiberContext.build(q, max(n, 1), k, params)
    use_mat = n >= 1
    use_hom = k is not None
    if ctx is not None:
        if ctx.q != q or (use_mat and ctx.n != n) or (use_hom and ctx.k != k):
            raise ValueError("context was built for different parameters")
    modulus = q ** n if use_mat else 0
    ident = psl.canon(psl.IDENT, modulus, q) if use_mat else None
    letter_mats = ctx.letter_mats if use_mat else None
    sd = ctx.sd if use_hom else None

    counts = [0] * (m + 1)
    counts[0] = 1
    if m == 0:
        return counts

    # iterative DFS; per-branch state is pushed and popped exactly once
    mat_stack = [ident]
    coset_stack = [0]
    vec: dict[int, int] = {}
    word: list[int] = []
    undo: list[tuple[int, int] | None] = []

    def push(letter: int) -> None:
        word.append(letter)
        if use_mat:
            mat_stack.append(psl.mat_mul(mat_stack[-1], letter_mats[letter],
                                         modulus, q))
        if use_hom:
            c = coset_stack[-1]
            hit = sd.sgen_of.get((c, letter))
            if hit is None:
                undo.append(None)
            else:
                idx, sign = hit
                old = vec.get(idx, 0)
                undo.append((idx, old))
                nv = (old + sign) % q
                if nv:
                    vec[idx] = nv
                else:
                    vec.pop(idx, None)
            coset_stack.append(sd.table[c][letter])

    def pop() -> None:
        word.pop()
        if use_mat:
            mat_stack.pop()
        if use_hom:
            coset_stack.pop()
            u = undo.pop()
            if u is not None:
                idx, old = u
                if old:
                    vec[idx] = old
                else:
                    vec.pop(idx, None)

    def trivial() -> bool:
        if use_mat and mat_stack[-1] != ident:
            return False
        if use_hom and (coset_stack[-1] != 0 or vec):
            return False
        return True

    def dfs(depth: int) -> None:
        last = word[-1] if word else None
        for letter in range(N_LETTERS):
            if last is not None and letter == last ^ 1:
                continue
            push(letter)
            if trivial():
                counts[depth] += 1
            if depth < m:
                dfs(depth + 1)
            pop()

    dfs(1)
    return counts


def loop_count_words(n: int, k: int | None, m: int, q: int,
                     params: LpsParams | None = None) -> int:
    """Cumulative count of trivial words of length <= m (identity included)."""
    return sum(trivial_word_counts(n, k, m, q, params))


def loop_count_words_exact(n: int, k: int | None, m: int, q: int,
                           params: LpsParams | None = None) -> int:
    """Count of trivial words of length exactly m."""
    return trivial_word_counts(n, k, m, q, params)[m]
