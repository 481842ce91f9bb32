import random
from dataclasses import dataclass

import numpy as np
import pytest

from boxlab import psl
from boxlab.errors import ResourceLimitError
from boxlab.freegroup import (N_LETTERS, FiberContext, SchreierData,
                              schreier_build, trivial_word_counts)
from boxlab.quaternion import loop_count_quat
from boxlab.spectral import nb_trace
from boxlab.suites import lps_cayley


def is_reduced(word):
    return all(word[i + 1] != word[i] ^ 1 for i in range(len(word) - 1))


def reduce_word(letters):
    stack = []
    for l in letters:
        if not 0 <= l < N_LETTERS:
            raise ValueError(f"letter {l} out of range")
        if stack and stack[-1] == l ^ 1:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


def word_inverse(word):
    return tuple(l ^ 1 for l in reversed(word))


def transversal_word(sd, c):
    """The shortest word of coset c, read up its tree path."""
    word = []
    while c:
        word.append(int(sd.via[c]))
        c = sd.parent[c]
    return tuple(reversed(word))


def coset_mul(sd, c1, c2):
    """The coset of c1 times c2, walked along c2's transversal word."""
    for l in transversal_word(sd, c2):
        c1 = sd.table[c1][l]
    return c1


def scan(word, sd, q, start, vec):
    """Walk word through the coset table accumulating signed non-tree-arc
    crossings mod q in vec; returns the final coset."""
    c = start
    for l in word:
        v = int(sd.voltage[c, l])
        if v >= 0:
            idx, sign = divmod(v, 2)
            x = (vec.get(idx, 0) + (-1 if sign else 1)) % q
            if x:
                vec[idx] = x
            else:
                vec.pop(idx, None)
        c = int(sd.table[c, l])
    return c


# --- the homology quotient map, word by word, kept as an oracle ---------------


@dataclass
class HomologyElement:
    """Image of a word in the homology-cover quotient: a coset together with
    a sparse vector over Z_q in the non-tree-edge basis.  The stored witness
    word makes products computable via rescanning."""

    coset: int
    vector: dict
    word: tuple
    sd: SchreierData
    q: int

    def is_identity(self):
        return self.coset == 0 and not self.vector

    def __mul__(self, other):
        vec = dict(self.vector)
        coset = scan(other.word, self.sd, self.q, self.coset, vec)
        return HomologyElement(coset=coset, vector=vec,
                               word=reduce_word(self.word + other.word),
                               sd=self.sd, q=self.q)

    def __eq__(self, other):
        return (self.coset, self.vector) == (other.coset, other.vector)


def homology_map(word, sd, q):
    word = tuple(word)
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    vec = {}
    coset = scan(word, sd, q, 0, vec)
    return HomologyElement(coset=coset, vector=vec, word=word, sd=sd, q=q)


def word_matrix(word, ctx):
    modulus = ctx.q ** ctx.n
    out = psl.canon(psl.IDENT, modulus, ctx.q)
    for l in word:
        out = psl.mat_mul(out, ctx.letter_mats[l], modulus, ctx.q)
    return out


def fiber_map(word, ctx):
    """Image of a reduced word as a (matrix, homology element) pair; the
    kernel is the intersection of the level-n congruence kernel with the
    level-k homology kernel."""
    word = tuple(word)
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    mat = word_matrix(word, ctx) if ctx.n >= 1 else None
    hom = homology_map(word, ctx.sd, ctx.q) if ctx.sd is not None else None
    return mat, hom


def z2_quotient():
    # all three generators map to the nontrivial element of Z_2
    return schreier_build([0, 1], lambda a, b: a ^ b, 0, [1, 1, 1])


def psl23_quotient():
    elems = psl.psl_elements(3, 1)
    mul = lambda a, b: psl.mat_mul(a, b, 3, 3)
    ident = psl.canon(psl.IDENT, 3, 3)
    u = psl.canon((1, 1, 0, 1), 3, 3)
    h = psl.canon((0, 1, -1, 0), 3, 3)
    w = psl.canon((1, 0, 1, 1), 3, 3)
    return schreier_build(elems, mul, ident, [u, h, w])


def random_reduced_word(rng, length):
    word = []
    for _ in range(length):
        letter = rng.randrange(6)
        while word and letter == word[-1] ^ 1:
            letter = rng.randrange(6)
        word.append(letter)
    return tuple(word)


def test_reduce_word():
    assert reduce_word([0, 1]) == ()
    assert reduce_word([0, 2, 3, 1]) == ()
    assert reduce_word([0, 2, 2, 3]) == (0, 2)
    assert is_reduced((0, 2, 4, 0))
    assert not is_reduced((0, 1))
    assert not is_reduced((4, 5))
    assert word_inverse((0, 2)) == (3, 1)


def test_schreier_trivial_quotient():
    sd = schreier_build([0], lambda a, b: 0, 0, [0, 0, 0])
    assert sd.n_cosets == 1
    assert sd.rank == 3


def test_schreier_z2():
    sd = z2_quotient()
    assert sd.n_cosets == 2
    assert sd.rank == 5
    # explicit Schreier generators: x1^2, x1 x2, x1 x3, x2 x1, ... audit table
    for c in range(2):
        for l in range(6):
            assert sd.table[c][l] == c ^ 1


def test_schreier_psl23():
    sd = psl23_quotient()
    assert sd.n_cosets == 12
    assert sd.rank == 25
    # table rows are permutations per letter
    for l in range(6):
        targets = [sd.table[c][l] for c in range(12)]
        assert sorted(targets) == list(range(12))
        back = [sd.table[c][l ^ 1] for c in range(12)]
        assert all(back[targets[c]] == c for c in range(12))
    # transversal is prefix-closed
    words = {transversal_word(sd, c) for c in range(12)}
    assert len(words) == 12
    for w in words:
        assert all(w[:i] in words for i in range(len(w)))


# --- the retired two-pass build, kept as an oracle ----------------------------


def schreier_two_pass(elements, mul, identity, gen_images):
    """(table, parent, via, voltage, elements in coset order)."""
    index = {e: i for i, e in enumerate(elements)}
    inverses = [next(h for h in elements if mul(g, h) == identity)
                for g in gen_images]
    letter_img = [gen_images[0], inverses[0], gen_images[1], inverses[1],
                  gen_images[2], inverses[2]]
    order = [identity]
    coset_of = {index[identity]: 0}
    parent = [None]
    head = 0
    while head < len(order):
        for l in range(6):
            t = mul(order[head], letter_img[l])
            if index[t] not in coset_of:
                coset_of[index[t]] = len(order)
                parent.append((head, l))
                order.append(t)
        head += 1
    table = [[coset_of[index[mul(e, letter_img[l])]] for l in range(6)]
             for e in order]
    tree = set()
    for c in range(1, len(order)):
        pc, pl = parent[c]
        tree.update({(pc, pl), (c, pl ^ 1)})
    voltage = [[-1] * 6 for _ in order]
    rank = 0
    for c in range(len(order)):
        for l in range(6):
            if (c, l) not in tree and voltage[c][l] < 0:
                voltage[c][l] = 2 * rank
                voltage[table[c][l]][l ^ 1] = 2 * rank + 1
                rank += 1
    as_array = lambda x: np.array(x, dtype=np.int64)
    return (as_array(table), as_array([0] + [pc for pc, _ in parent[1:]]),
            as_array([-1] + [pl for _, pl in parent[1:]]), as_array(voltage),
            order)


def psl23_quotient_input():
    return (psl.psl_elements(3, 1), lambda a, b: psl.mat_mul(a, b, 3, 3),
            psl.canon(psl.IDENT, 3, 3),
            [psl.canon(m, 3, 3)
             for m in ((1, 1, 0, 1), (0, 1, -1, 0), (1, 0, 1, 1))])


@pytest.mark.parametrize("name", ["Z2", "psl23"])
def test_schreier_matches_two_pass_build(name):
    args = (([0, 1], lambda a, b: a ^ b, 0, [1, 1, 1]) if name == "Z2"
            else psl23_quotient_input())
    sd = schreier_build(*args)
    *expected, order = schreier_two_pass(*args)
    for got, want in zip((sd.table, sd.parent, sd.via, sd.voltage), expected):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert sd.rank == 2 * len(order) + 1
    mul = args[1]
    for c1, x in enumerate(order):
        for c2, y in enumerate(order):
            assert order[coset_mul(sd, c1, c2)] == mul(x, y)


def test_schreier_makes_one_mul_call_per_element_and_image():
    elements, mul, identity, images = psl23_quotient_input()
    calls = []

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    # a plain list carries no rows, so the table is filled with mul
    schreier_build(list(elements), counting_mul, identity, images)
    assert len(calls) == 3 * len(elements)


def test_schreier_on_psl_rows_calls_mul_for_the_spot_checks_only():
    elements, mul, identity, images = psl23_quotient_input()
    calls = []

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    sd = schreier_build(elements, counting_mul, identity, images)
    # one checked row (the last) of 12, for each of the three images
    assert len(calls) == 3
    assert np.array_equal(sd.table, schreier_build(list(elements), mul,
                                                   identity, images).table)


def test_schreier_rejects_non_generating():
    with pytest.raises(ValueError, match="proper subgroup"):
        schreier_build([0, 1, 2, 3], lambda a, b: a ^ b, 0, [1, 1, 1])


@pytest.mark.parametrize("kind", ["list", "Elements"])
def test_schreier_rejects_an_identity_outside_the_elements(kind):
    # the same ValueError from the generic table and from psl's rows
    elements, mul, _, images = psl23_quotient_input()
    if kind == "list":
        elements = list(elements)
    with pytest.raises(ValueError,
                       match=r"^\(2, 2, 2, 2\) is not in the sequence$"):
        schreier_build(elements, mul, (2, 2, 2, 2), images)


def test_homology_identity():
    sd = z2_quotient()
    h = homology_map((), sd, 3)
    assert h.coset == 0 and h.vector == {}
    assert h.is_identity()


def test_homology_qth_powers_vanish():
    rng = random.Random(6)
    for sd, q in [(z2_quotient(), 3), (psl23_quotient(), 5)]:
        for _ in range(20):
            w = random_reduced_word(rng, rng.randint(1, 6))
            h = homology_map(w, sd, q)
            if h.coset != 0:
                continue
            power = reduce_word(w * q)
            hp = homology_map(power, sd, q)
            assert hp.coset == 0 and hp.vector == {}


def test_homology_commutators_vanish():
    rng = random.Random(7)
    sd = z2_quotient()
    q = 3
    found = 0
    for _ in range(200):
        w1 = random_reduced_word(rng, rng.randint(1, 6))
        w2 = random_reduced_word(rng, rng.randint(1, 6))
        if homology_map(w1, sd, q).coset or homology_map(w2, sd, q).coset:
            continue
        comm = reduce_word(w1 + w2 + word_inverse(w1) + word_inverse(w2))
        h = homology_map(comm, sd, q)
        assert h.is_identity()
        found += 1
    assert found > 10


def test_homology_map_is_homomorphism():
    rng = random.Random(8)
    for sd, q in [(z2_quotient(), 3), (psl23_quotient(), 3)]:
        for _ in range(50):
            w1 = random_reduced_word(rng, rng.randint(0, 7))
            w2 = random_reduced_word(rng, rng.randint(0, 7))
            lhs = homology_map(reduce_word(w1 + w2), sd, q)
            rhs = homology_map(w1, sd, q) * homology_map(w2, sd, q)
            assert lhs == rhs


def test_homology_product_coset_is_coset_product():
    rng = random.Random(9)
    for sd, q in [(z2_quotient(), 3), (psl23_quotient(), 3)]:
        for _ in range(50):
            a = homology_map(random_reduced_word(rng, rng.randint(0, 7)), sd, q)
            b = homology_map(random_reduced_word(rng, rng.randint(0, 7)), sd, q)
            assert (a * b).coset == coset_mul(sd, a.coset, b.coset)


@pytest.fixture(scope="module")
def ctx29_21():
    return FiberContext.build(29, 2, 1)


@pytest.fixture(scope="module")
def ctx29_11():
    return FiberContext.build(29, 1, 1)


def test_fiber_map_identity_and_homomorphism(ctx29_21):
    ctx = ctx29_21
    modulus = 29 ** 2
    mat, hom = fiber_map((), ctx)
    assert mat == psl.canon(psl.IDENT, modulus, 29)
    assert hom.is_identity()
    rng = random.Random(9)
    for _ in range(30):
        w1 = random_reduced_word(rng, rng.randint(0, 6))
        w2 = random_reduced_word(rng, rng.randint(0, 6))
        m1, h1 = fiber_map(w1, ctx)
        m2, h2 = fiber_map(w2, ctx)
        m12, h12 = fiber_map(reduce_word(w1 + w2), ctx)
        assert psl.mat_mul(m1, m2, modulus, 29) == m12
        assert h1 * h2 == h12


def test_fiber_map_rejects_unreduced():
    ctx = FiberContext.build(29, 1, None)
    with pytest.raises(ValueError):
        fiber_map((0, 1), ctx)


def test_injectivity_radius_psl29(ctx29_11):
    # no nontrivial word of length <= 4 maps to the identity pair at q=29
    counts = trivial_word_counts(1, 1, 4, 29, ctx=ctx29_11)
    assert counts == [1, 0, 0, 0, 0]


def test_ball_count_no_conditions():
    assert sum(trivial_word_counts(0, None, 2, 29)) == 37


def test_loop_count_psl29_small_ball():
    assert sum(trivial_word_counts(1, None, 2, 29)) == 1


def test_kernel_sandwich(ctx29_21, ctx29_11):
    # words trivial in the (n=2, k=1) fiber are trivial at (n=1, k=1) and at k=1
    q = 29
    rng = random.Random(10)
    hits = 0
    for _ in range(500):
        w = random_reduced_word(rng, rng.randint(0, 6))
        m2, h2 = fiber_map(w, ctx29_21)
        if m2 != psl.canon(psl.IDENT, q ** 2, q) or not h2.is_identity():
            continue
        m1, h1 = fiber_map(w, ctx29_11)
        assert m1 == psl.canon(psl.IDENT, q, q)
        assert h1.is_identity()
        hits += 1
    assert hits >= 1   # at least the empty word


def test_monotone_and_parity_cross_check_with_quaternions():
    q = 29
    counts = trivial_word_counts(1, None, 6, q)
    cumulative = [sum(counts[: m + 1]) for m in range(7)]
    assert all(cumulative[m] <= cumulative[m + 1] for m in range(6))
    for m in (0, 2, 4, 6):
        expected = 2 * sum(counts[mm] for mm in range(m % 2, m + 1, 2))
        assert loop_count_quat(1, m, q) == expected


def test_quat_words_agree_n0():
    # with no congruence condition every reduced word is trivial
    for m in (0, 2, 4):
        expected = 2 * sum((6 * 5 ** (mm - 1) if mm else 1)
                           for mm in range(m % 2, m + 1, 2))
        assert loop_count_quat(0, m, 29) == expected


def test_loop_count_words_exact():
    assert trivial_word_counts(0, None, 2, 29)[2] == 30
    assert trivial_word_counts(1, None, 2, 29)[2] == 0


def trivial_word_counts_brute(n, k, m, q, ctx=None):
    """Oracle for trivial_word_counts: a depth-first walk over every reduced
    word of length <= m, testing each for triviality."""
    if ctx is None and (n or k is not None):
        ctx = FiberContext.build(q, max(n, 1), k)
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
            v = int(sd.voltage[c][letter])
            if v < 0:
                undo.append(None)
            else:
                idx, sign = v // 2, (-1 if v % 2 else 1)
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


def _assert_matches_brute(n, k, m_max, q, ctx):
    # the brute counts at radius m_max hold those at every smaller radius
    brute = trivial_word_counts_brute(n, k, m_max, q, ctx)
    for m in range(m_max + 1):
        assert trivial_word_counts(n, k, m, q, ctx) == brute[: m + 1], (n, k, m)


@pytest.mark.parametrize("n, k, m_max, ctx_name", [
    (0, None, 5, None), (1, None, 7, "ctx29_11"), (2, None, 5, "ctx29_21"),
    (0, 1, 5, "ctx29_11"), (1, 1, 5, "ctx29_11")])
def test_counts_match_brute_psl29(n, k, m_max, ctx_name, request):
    ctx = request.getfixturevalue(ctx_name) if ctx_name else None
    _assert_matches_brute(n, k, m_max, 29, ctx)


@pytest.fixture(scope="module")
def small_ctx():
    # small quotients where short trivial words exist on every path, unlike
    # at q = 29 where the girth is 9: PSL(2, 3) with its mod-3 homology, and
    # Z_2 with its mod-2 homology
    u = psl.canon((1, 1, 0, 1), 3, 3)
    h = psl.canon((0, 1, -1, 0), 3, 3)
    w = psl.canon((1, 0, 1, 1), 3, 3)
    mats = [m for g in (u, h, w) for m in (g, psl.mat_inv(g, 3, 3))]
    return {"psl23": FiberContext(q=3, n=1, k=1, letter_mats=mats,
                                  sd=psl23_quotient()),
            "z2": FiberContext(q=2, n=0, k=1, letter_mats=[],
                               sd=z2_quotient())}


@pytest.mark.parametrize("name, n, k", [
    ("psl23", 1, None), ("psl23", 0, 1), ("psl23", 1, 1), ("z2", 0, 1)])
def test_counts_match_brute_small_quotients(name, n, k, small_ctx):
    ctx = small_ctx[name]
    _assert_matches_brute(n, k, 6, ctx.q, ctx)
    assert sum(trivial_word_counts(n, k, 6, ctx.q, ctx)[1:]) > 0


def test_counts_beyond_brute_reach():
    q, m_max = 29, 12
    counts = trivial_word_counts(1, None, m_max, q)
    assert counts[9] == 216
    graph = lps_cayley(q).graph
    trace = nb_trace(graph, m_max)
    for m in range(m_max + 1):
        same_parity = sum(counts[m % 2: m + 1: 2])
        assert trace.cumulative[m] == graph.n * same_parity
        if m % 2 == 0:
            assert loop_count_quat(1, m, q) == 2 * same_parity


def test_counts_radius_cap(monkeypatch):
    def no_context(*args, **kwargs):
        raise AssertionError("context built before the radius check")
    monkeypatch.setattr(FiberContext, "build", no_context)
    with pytest.raises(ResourceLimitError):
        trivial_word_counts(1, None, 13, 29)


@pytest.mark.parametrize("n, m, k", [
    pytest.param(0, -1, None, id="0--1"), pytest.param(1, -2, None, id="1--2"),
    pytest.param(-1, 3, None, id="-1-3"), pytest.param(1, 3, 0, id="k=0"),
    pytest.param(1, 3, -1, id="k=-1")])
def test_counts_reject_negative(n, m, k, monkeypatch):
    def no_context(*args, **kwargs):
        raise AssertionError("context built before the argument check")
    monkeypatch.setattr(FiberContext, "build", no_context)
    with pytest.raises(ValueError):
        trivial_word_counts(n, k, m, 29)
