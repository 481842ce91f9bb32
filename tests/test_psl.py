import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import psl
from boxlab.errors import ResourceLimitError
from boxlab.graphs import generator_table
from boxlab.quaternion import Quat, quaternion_generators
from boxlab.zmod import LpsParams
from conftest import word_to_class


def random_reduced_word(rng, length):
    word = []
    for _ in range(length):
        letter = rng.randrange(6)
        while word and letter == word[-1] ^ 1:
            letter = rng.randrange(6)
        word.append(letter)
    return word


def word_image(word, mats, modulus, q):
    out = psl.canon(psl.IDENT, modulus, q)
    for letter in word:
        out = psl.mat_mul(out, mats[letter], modulus, q)
    return out


def test_lps_embed_one_plus_two_i():
    m = psl.lps_embed(Quat(1, 2, 0, 0), 29, 1, 12)
    raw = (25, 0, 0, 6)
    assert (raw[0] * raw[3] - raw[1] * raw[2]) % 29 == 5
    assert m == psl.canon(raw, 29, 29)


def test_lps_embed_one_plus_two_j():
    m = psl.lps_embed(Quat(1, 0, 2, 0), 29, 1, 12)
    assert m == psl.canon((1, 2, -2, 1), 29, 29)


def test_lps_embed_identity():
    assert psl.lps_embed(Quat(1, 0, 0, 0), 29, 1, 12) == psl.canon(psl.IDENT, 29, 29)


def test_lps_embed_determinant_is_p():
    params = LpsParams.build(29, 3)
    gens = quaternion_generators(5)
    for n in (1, 2, 3):
        modulus = 29 ** n
        eps = params.epsilon(n)
        for g in gens.elements:
            x0, x1, x2, x3 = g
            raw = (x0 + x1 * eps, x2 + x3 * eps, -x2 + x3 * eps, x0 - x1 * eps)
            a, b, c, d = raw
            assert (a * d - b * c) % modulus == 5 % modulus


def test_lps_embed_rejects_bad_eps():
    with pytest.raises(ValueError):
        psl.lps_embed(Quat(1, 2, 0, 0), 29, 1, 11)


def test_conjugate_embeds_to_inverse():
    params = LpsParams.build(29, 2)
    gens = quaternion_generators(5)
    for n in (1, 2):
        modulus = 29 ** n
        for g in gens.elements:
            a = psl.lps_embed(g, 29, n, params.epsilon(n))
            b = psl.lps_embed(g.conjugate(), 29, n, params.epsilon(n))
            assert psl.mat_inv(a, modulus, 29) == b


def test_embed_is_homomorphism_on_words():
    params = LpsParams.build(29, 2)
    gens = quaternion_generators(5)
    rng = random.Random(4)
    for n in (1, 2):
        modulus = 29 ** n
        eps = params.epsilon(n)
        mats = psl.lps_letter_images(gens, 29, n, eps)
        for _ in range(40):
            w = random_reduced_word(rng, rng.randint(0, 6))
            via_quat = psl.lps_embed(word_to_class(w, gens), 29, n, eps)
            assert word_image(w, mats, modulus, 29) == via_quat


def test_reduce_identity_and_homomorphism():
    params = LpsParams.build(29, 2)
    gens = quaternion_generators(5)
    mats = psl.lps_letter_images(gens, 29, 2, params.epsilon(2))
    modulus = 29 ** 2
    ident = psl.canon(psl.IDENT, modulus, 29)
    assert psl.canon(ident, 29, 29) == psl.canon(psl.IDENT, 29, 29)
    rng = random.Random(5)
    for _ in range(40):
        g = word_image(random_reduced_word(rng, 5), mats, modulus, 29)
        h = word_image(random_reduced_word(rng, 5), mats, modulus, 29)
        lhs = psl.canon(psl.mat_mul(g, h, modulus, 29), 29, 29)
        rhs = psl.mat_mul(psl.canon(g, 29, 29), psl.canon(h, 29, 29), 29, 29)
        assert lhs == rhs


def test_reduce_compatible_with_eps_chain():
    params = LpsParams.build(29, 3)
    gens = quaternion_generators(5)
    for g in gens.elements:
        at3 = psl.lps_embed(g, 29, 3, params.epsilon(3))
        at1 = psl.lps_embed(g, 29, 1, params.epsilon(1))
        assert psl.canon(at3, 29, 29) == at1


def test_kernel_sizes_and_structure():
    kernel = psl.kernel_enumerate(3, 2, 1)
    assert len(kernel) == 27
    assert kernel.is_abelian()
    assert kernel.exponent_divides(3)
    ident = psl.canon(psl.IDENT, 9, 3)
    assert sum(1 for x in kernel.elements if x != ident
               and psl.mat_pow(x, 3, 9, 3) == ident) == 26

    assert len(psl.kernel_enumerate(5, 2, 1)) == 125
    assert psl.kernel_enumerate(3, 1, 1).elements == (psl.canon(psl.IDENT, 3, 3),)


def test_kernel_matches_brute_force_enumeration():
    kernel = set(psl.kernel_enumerate(3, 2, 1).elements)
    ident = psl.canon(psl.IDENT, 3, 3)
    brute = {m for m in psl.psl_elements(3, 2)
             if psl.canon(m, 3, 3) == ident}
    assert kernel == brute


def test_psl_order_formula_vs_brute_count():
    assert len(psl.psl_elements(3, 1)) == psl.psl_order(3, 1) == 12
    assert len(psl.psl_elements(5, 1)) == psl.psl_order(5, 1) == 60
    assert psl.psl_order(29, 1) == 12180


def test_closure_of_lps_generators_is_full_psl():
    params = LpsParams.build(29, 1)
    gens = quaternion_generators(5)
    mats = psl.lps_letter_images(gens, 29, 1, params.epsilon(1))
    closure = psl.subgroup_closure(mats, 29, 29)
    assert len(closure) == 12180
    assert set(closure) == set(psl.psl_elements(29, 1))


def test_closure_small_cases():
    assert psl.subgroup_closure([psl.canon(psl.IDENT, 9, 3)], 9, 3) == \
        [psl.canon(psl.IDENT, 9, 3)]
    closure = psl.subgroup_closure(list(psl.mgen_generators(3, 2)), 9, 3)
    assert len(closure) == 27
    assert set(closure) == set(psl.kernel_enumerate(3, 2, 1).elements)


def test_mgen_generator_orders():
    for q, n in [(3, 2), (3, 3), (5, 2)]:
        modulus = q ** n
        ident = psl.canon(psl.IDENT, modulus, q)
        for g in psl.mgen_generators(q, n):
            assert psl.mat_pow(g, q, modulus, q) == ident
            assert g != ident


def test_mgen_commutator_identity():
    assert psl.mgen_commutator_identity(3, 3, 0)
    assert psl.mgen_commutator_identity(3, 4, 0)
    assert psl.mgen_commutator_identity(3, 4, 1)
    assert psl.mgen_commutator_identity(5, 4, 1)
    with pytest.raises(ValueError):
        psl.mgen_commutator_identity(3, 3, 1)


def test_gamma_image_check():
    for q, n, k in [(3, 2, 1), (3, 3, 1), (5, 2, 1)]:
        report = psl.gamma_image_check(q, n, k)
        assert report.passed, report
    r = psl.gamma_image_check(3, 3, 1)
    assert r.expected_order == 27


def test_gamma_image_trivial_target():
    report = psl.gamma_image_check(3, 2, 1)
    assert report.generated_order == 1
    assert report.expected_order == 1


def all_pairs_subgroup(q, n, k):
    """Retired all-pairs generation: the subgroup generated by every x^q and
    every [x, y] for x, y in the level-k kernel."""
    modulus = q ** n
    kernel = psl.kernel_enumerate(q, n, k).elements
    inverses = [psl.mat_inv(x, modulus, q) for x in kernel]
    gens = {psl.mat_pow(x, q, modulus, q) for x in kernel}
    gens |= {psl.mat_mul(psl.mat_mul(x, y, modulus, q),
                         psl.mat_mul(xi, yi, modulus, q), modulus, q)
             for x, xi in zip(kernel, inverses)
             for y, yi in zip(kernel, inverses)}
    return set(psl.subgroup_closure(sorted(gens), modulus, q))


def all_pairs_is_abelian(kernel):
    mod, q = kernel.modulus, kernel.q
    return all(psl.mat_mul(x, y, mod, q) == psl.mat_mul(y, x, mod, q)
               for x in kernel.elements for y in kernel.elements)


@pytest.mark.parametrize("q,n,k", [(3, 2, 1), (5, 2, 1), (3, 3, 1)])
def test_normal_closure_matches_all_pairs_generation(q, n, k):
    modulus = q ** n
    triple = psl.kernel_generators(q, n, k)
    seeds = [psl.mat_pow(s, q, modulus, q) for s in triple]
    seeds += [psl.commutator(s, t, modulus, q)
              for i, s in enumerate(triple) for t in triple[i + 1:]]
    closure = psl.normal_closure(seeds, list(triple), modulus, q)
    assert set(closure) == all_pairs_subgroup(q, n, k)


@pytest.mark.parametrize("q,n,k", [(3, 2, 1), (3, 3, 1), (5, 2, 1)])
def test_is_abelian_matches_all_pairs_oracle(q, n, k):
    kernel = psl.kernel_enumerate(q, n, k)
    assert kernel.is_abelian() == all_pairs_is_abelian(kernel)


@pytest.mark.parametrize("q,n,k", [(3, 4, 1), (5, 3, 1), (3, 5, 2)])
def test_gamma_image_check_beyond_pair_loop_reach(q, n, k):
    report = psl.gamma_image_check(q, n, k)
    assert report.passed, report
    assert report.generated_order == report.expected_order == q ** (3 * (n - k - 1))


def test_normal_closure_of_involution_in_a4():
    h = psl.canon((0, 1, -1, 0), 3, 3)
    psl23 = [psl.canon((1, 1, 0, 1), 3, 3), h]
    assert len(psl.subgroup_closure(psl23, 3, 3)) == 12
    assert len(psl.subgroup_closure([h], 3, 3)) == 2
    assert len(psl.normal_closure([h], psl23, 3, 3)) == 4


def test_mgen_generators_unchanged_by_kernel_generators():
    for q, n in [(3, 2), (3, 3), (5, 2)]:
        modulus, t = q ** n, q ** (n - 1)
        assert psl.mgen_generators(q, n) == (
            psl.canon((1 + t, 0, 0, 1 - t), modulus, q),
            psl.canon((1, t, 0, 1), modulus, q),
            psl.canon((1, 0, t, 1), modulus, q))


def test_is_abelian_raises_when_triple_does_not_span():
    kernel = psl.CongruenceKernel(q=3, n=2, k=1,
                                  elements=(psl.canon(psl.IDENT, 9, 3),))
    with pytest.raises(RuntimeError):
        kernel.is_abelian()


def test_gamma_image_check_fails_when_triple_does_not_span(monkeypatch):
    upper = psl.kernel_generators(3, 3, 1)[0]
    monkeypatch.setattr(psl, "kernel_generators",
                        lambda q, n, k: (upper, upper, upper))
    assert not psl.gamma_image_check(3, 3, 1).passed


# --- the element-at-a-time closure, kept as the oracle of the batch one -------


def subgroup_closure_brute(gens, modulus, q, cap=10 ** 7):
    identity = psl.canon(psl.IDENT, modulus, q)
    elements = [identity]
    index = {identity}
    frontier = [identity]
    gens = [psl.canon(g, modulus, q) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = psl.mat_mul(x, g, modulus, q)
                if y not in index:
                    if len(elements) >= cap:
                        raise ResourceLimitError(f"closure exceeded cap {cap}")
                    index.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def closure_input(name):
    if name == "lps29":
        params = LpsParams.build(29, 1)
        return psl.lps_letter_images(quaternion_generators(5), 29, 1,
                                     params.epsilon(1)), 29, 29
    if name == "psl23":
        return [(1, 1, 0, 1), (1, -1, 0, 1), (0, 1, -1, 0)], 3, 3
    if name == "identity":
        return [psl.IDENT], 9, 3
    if name == "singular":
        # the second generator is singular, and 243 of the 990 elements
        # pivot on each of b, c and d
        return [(23, 11, 5, 19), (24, 21, 18, 5)], 27, 3
    if name.startswith("random"):
        return random_symmetric_generators(*map(int, name.split("-")[1:]))
    kind, *qnk = name.split("-")
    q, n = int(qnk[0]), int(qnk[1])
    if kind == "mgen":
        return list(psl.mgen_generators(q, n)), q ** n, q
    return list(psl.kernel_generators(q, n, int(qnk[2]))), q ** n, q


def random_symmetric_generators(q, seed):
    """One to three random elements of PSL(2, q) and their inverses, the
    identity dropped, sorted; q is also the modulus."""
    rng = random.Random(seed)
    elements = psl.psl_elements(q, 1)
    picks = [elements[rng.randrange(len(elements))]
             for _ in range(rng.randint(1, 3))]
    gens = set(picks) | {psl.mat_inv(x, q, q) for x in picks}
    return sorted(gens - {psl.canon(psl.IDENT, q, q)}), q, q


CLOSURE_CASES = [
    "lps29", "psl23", "identity", "mgen-3-2", "mgen-3-3", "mgen-3-4",
    "mgen-5-2", "kernel-3-2-1", "kernel-3-3-1", "kernel-3-4-2", "kernel-5-2-1",
    "singular", *(f"random-{q}-{seed}" for q in (7, 11, 13) for seed in range(4))]


@pytest.mark.parametrize("name", CLOSURE_CASES)
def test_subgroup_closure_matches_brute_order(name):
    gens, modulus, q = closure_input(name)
    assert psl.subgroup_closure(gens, modulus, q) == \
        subgroup_closure_brute(gens, modulus, q)


def test_subgroup_closure_and_table_without_generators():
    # empty levels and empty generator lists reach the kernel with no rows
    # or no columns
    assert psl.subgroup_closure([], 9, 3) == [psl.IDENT]
    elements = psl.subgroup_closure(list(psl.kernel_generators(3, 2, 1)), 9, 3)
    assert elements.right_table([]).shape == (27, 0)


def test_subgroup_closure_cap(monkeypatch):
    gens, modulus, q = closure_input("lps29")
    monkeypatch.setattr(psl, "CAP", 12180)
    assert len(psl.subgroup_closure(gens, modulus, q)) == 12180
    monkeypatch.setattr(psl, "CAP", 12179)
    with pytest.raises(ResourceLimitError):
        psl.subgroup_closure(gens, modulus, q)
    with pytest.raises(ResourceLimitError):
        subgroup_closure_brute(gens, modulus, q, cap=12179)


# --- the int64 batch layer against the tuple arithmetic -----------------------

BATCH_LEVELS = [(3, 2), (5, 2), (29, 1), (61, 1), (233, 2)]


def random_sl(rng, q, modulus, count):
    """count random SL(2, Z/modulus) matrices; every other one has a
    non-unit top-left entry, so the scan must move on to b."""
    out = []
    for i, (a, b, c, d) in enumerate(rng.integers(0, modulus, (count, 4)).tolist()):
        if i % 2:
            a -= a % q
        if a % q:
            d = (1 + b * c) * pow(a, -1, modulus) % modulus
        else:
            b += 0 if b % q else 1
            c = (a * d - 1) * pow(b, -1, modulus) % modulus
        out.append((a, b, c, d))
    return out


def unreduced(rng, rows, modulus):
    return np.asarray(rows, dtype=np.int64) + modulus * rng.integers(-3, 4, (len(rows), 4))


def tuple_key(m, modulus):
    a, b, c, d = m
    return ((a * modulus + b) * modulus + c) * modulus + d


def grid_rows(x, y, modulus, q):
    """Every row of x times every row of y, in row-major order, as rows."""
    keys = psl.product_keys(x, y, modulus, q).ravel()
    return np.stack(np.unravel_index(keys, (modulus,) * 4), axis=1)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(level=st.sampled_from(BATCH_LEVELS), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_rows_match_tuple_arithmetic(level, seed):
    q, n = level
    modulus = q ** n
    rng = np.random.default_rng(seed)
    x, y = random_sl(rng, q, modulus, 20), random_sl(rng, q, modulus, 20)
    # arbitrary rows too: the first unit may sit in any of the four places
    rows = rng.integers(0, modulus, (20, 4)) * np.where(
        rng.random((20, 4)) < 0.5, q, 1) % modulus
    rows = [r for r in map(tuple, rows.tolist()) if any(e % q for e in r)]
    assert psl.canon_rows(unreduced(rng, x + rows, modulus), modulus, q).tolist() \
        == [list(psl.canon(m, modulus, q)) for m in x + rows]
    got = psl.product_keys(np.array(x), np.array(y), modulus, q)
    assert got.tolist() == [[tuple_key(psl.mat_mul(a, b, modulus, q), modulus)
                             for b in y] for a in x]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(level=st.sampled_from(BATCH_LEVELS), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_rows_group_axioms(level, seed):
    q, n = level
    modulus = q ** n
    rng = np.random.default_rng(seed)
    x, y, z = (psl.canon_rows(random_sl(rng, q, modulus, 10), modulus, q)
               for _ in range(3))
    ident = psl.canon_rows([psl.IDENT], modulus, q)
    inv = psl.canon_rows([psl.mat_inv(m, modulus, q)
                          for m in map(tuple, x.tolist())], modulus, q)
    mul = lambda a, b: grid_rows(a, b, modulus, q)
    # both sides list the products x[i] y[j] z[l] in (i, j, l) order
    assert (mul(mul(x, y), z) == mul(x, mul(y, z))).all()
    assert (mul(x, ident) == x).all() and (mul(ident, x) == x).all()
    diagonal = np.arange(10) * 11       # the pairs (i, i) of a 10 x 10 grid
    assert (mul(x, inv)[diagonal] == ident).all()
    assert (mul(inv, x)[diagonal] == ident).all()


def rows_with_a_unit(rng, q, modulus, count):
    """count random rows with a unit entry and of any determinant; in every
    other one a and b are multiples of q, so its products have no unit in
    the top row and pivot on c or d, or have no unit entry at all."""
    out = []
    while len(out) < count:
        row = rng.integers(0, modulus, 4)
        row[rng.random(4) < 0.5] *= q
        if len(out) % 2:
            row[:2] *= q
        row %= modulus
        if (row % q).any():
            out.append(tuple(row.tolist()))
    return out


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(level=st.sampled_from(BATCH_LEVELS), seed=st.integers(0, 2 ** 32 - 1))
def test_product_keys_on_rows_of_any_determinant(level, seed):
    # SL rows multiply to products with a unit a or b; the c and d pivots
    # and the "no unit entry" error need determinants that are not units
    q, n = level
    modulus = q ** n
    rng = np.random.default_rng(seed)
    x = rows_with_a_unit(rng, q, modulus, 12)
    y = np.array(rows_with_a_unit(rng, q, modulus, 8))
    for row in x:
        try:
            want = [tuple_key(psl.mat_mul(row, g, modulus, q), modulus)
                    for g in map(tuple, y.tolist())]
        except ValueError:
            with pytest.raises(ValueError, match="no unit entry"):
                psl.product_keys(np.array([row]), y, modulus, q)
        else:
            assert psl.product_keys(np.array([row]), y, modulus,
                                    q).tolist() == [want]


def test_product_keys_pivots_on_c_and_d_and_rejects_no_unit():
    modulus, q = 27, 3
    x = [(3, 6, 1, 0), (3, 0, 0, 2)]    # pivots c = 1 and d = 2 times I
    got = psl.product_keys(np.array(x), np.array([psl.IDENT]), modulus, q)
    assert got.ravel().tolist() == [
        tuple_key(psl.canon(m, modulus, q), modulus) for m in x]
    assert psl.canon(x[1], modulus, q) == (15, 0, 0, 1)
    with pytest.raises(ValueError, match="no unit entry"):
        psl.product_keys(np.array([(1, 0, 0, 0)]), np.array([(0, 0, 0, 1)]),
                         modulus, q)


def test_canon_rows_rejects_row_without_unit():
    with pytest.raises(ValueError, match="no unit entry"):
        psl.canon_rows([(1, 0, 0, 1), (3, 6, 0, 9)], 27, 3)


def test_batch_layer_key_bound():
    modulus = 55_109
    with pytest.raises(ResourceLimitError):
        psl.canon_rows([psl.IDENT], modulus, modulus)
    with pytest.raises(ResourceLimitError):
        psl.product_keys(np.array([psl.IDENT]), np.array([psl.IDENT]),
                         modulus, modulus)
    with pytest.raises(ResourceLimitError):
        psl.subgroup_closure([psl.IDENT], modulus, modulus)
    assert psl.KEY_MODULUS_LIMIT ** 4 < 2 ** 63 <= modulus ** 4


# --- the slot index -------------------------------------------------------------


def canonical_rows(modulus, q):
    """Every canonical row below modulus, as an (N, 4) int64 array in key
    order: its first unit entry is 1, all four pivot positions included."""
    rows = np.stack(np.unravel_index(np.arange(modulus ** 4), (modulus,) * 4),
                    axis=1)
    units = rows % q != 0
    has_unit = units.any(axis=1)
    pivot = rows[np.arange(len(rows)), units.argmax(axis=1)]
    return rows[has_unit & (pivot == 1)]


def row_of_slot(slot, modulus, q):
    """The canonical row at a slot, read off the layout ``psl._slots``
    documents: pivot a, b, c or d, in ranges of m^3, r m^2, r^2 m and r^3."""
    m, r = modulus, modulus // q
    if slot < m ** 3:
        b, rest = divmod(slot, m * m)
        return (1, b, *divmod(rest, m))
    slot -= m ** 3
    if slot < r * m * m:
        a, rest = divmod(slot, m * m)
        return (q * a, 1, *divmod(rest, m))
    slot -= r * m * m
    if slot < r * r * m:
        ab, d = divmod(slot, m)
        a, b = divmod(ab, r)
        return (q * a, q * b, 1, d)
    ab, c = divmod(slot - r * r * m, r)
    a, b = divmod(ab, r)
    return (q * a, q * b, q * c, 1)


@pytest.mark.parametrize("modulus,q", [(7, 7), (9, 3), (25, 5), (27, 3)])
def test_slots_are_a_bijection_onto_the_index(modulus, q):
    rows = canonical_rows(modulus, q)
    pivots = (rows % q != 0).argmax(axis=1)
    assert set(pivots.tolist()) == {0, 1, 2, 3}
    # rows of any determinant: product_keys returns each one as it is
    keys = psl.product_keys(rows, np.array([psl.IDENT]), modulus, q).ravel()
    assert keys.tolist() == row_keys_of(rows.tolist(), modulus)
    slots = psl._slots(keys, modulus, q)
    size = len(psl._slot_index(modulus, q))
    assert np.array_equal(np.sort(slots), np.arange(size))
    assert [row_of_slot(s, modulus, q) for s in slots.tolist()] == \
        [tuple(row) for row in rows.tolist()]
    # any four entries below the modulus land inside the index
    stray = psl._slots(np.random.default_rng(modulus).integers(
        0, modulus ** 4, 5000), modulus, q)
    assert 0 <= stray.min() and stray.max() < size


def test_slot_index_cap_raises_before_allocating():
    modulus = 347                   # 347**3 > SLOT_CAP
    assert modulus ** 3 > psl.SLOT_CAP
    elements = psl.Elements(np.array([tuple_key(psl.IDENT, modulus)]),
                            modulus, modulus)
    psl.canon_rows([psl.IDENT], modulus, modulus)   # fill the inverse cache
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="slot index"):
            psl.subgroup_closure([psl.IDENT], modulus, modulus)
        with pytest.raises(ResourceLimitError, match="slot index"):
            elements.right_table([psl.IDENT])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


@pytest.mark.parametrize("q,n", [(271, 1), (3, 5), (2, 8)])
def test_slot_index_admits_every_modulus_whose_psl_fits_in_cap(q, n):
    # the largest prime, power of 3 and power of 2 with PSL(2, Z/m) within
    # CAP; their indexes are the largest of any such modulus
    assert psl.psl_order(q, n) <= psl.CAP < psl.psl_order(q, n + 1)
    assert psl.subgroup_closure([psl.IDENT], q ** n, q) == [psl.IDENT]


@pytest.mark.parametrize("name", CLOSURE_CASES)
def test_right_table_matches_generator_table(name):
    gens, modulus, q = closure_input(name)
    closure = psl.subgroup_closure(gens, modulus, q)
    mul = lambda x, y: psl.mat_mul(x, y, modulus, q)
    assert np.array_equal(closure.right_table(gens),
                          generator_table(list(closure), mul, gens)[1])


# --- element sequences that carry their rows ----------------------------------


def psl_elements_brute(q, n):
    """The retired tuple loop over SL matrices, kept as an oracle."""
    modulus = q ** n
    seen = set()
    for a in range(modulus):
        if a % q:
            ainv = pow(a, -1, modulus)
            for b in range(modulus):
                for c in range(modulus):
                    d = (1 + b * c) * ainv % modulus
                    seen.add(psl.canon((a, b, c, d), modulus, q))
        else:
            for b in range(modulus):
                if b % q == 0:
                    continue
                binv = pow(b, -1, modulus)
                for d in range(modulus):
                    c = (a * d - 1) * binv % modulus
                    seen.add(psl.canon((a, b, c, d), modulus, q))
    return sorted(seen)


def row_keys_of(elements, modulus):
    return [int(np.ravel_multi_index(e, (modulus,) * 4)) for e in elements]


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_psl_elements_matches_tuple_loop(q, n):
    elements = psl.psl_elements(q, n)
    assert elements == psl_elements_brute(q, n)
    assert elements.keys.tolist() == row_keys_of(elements, q ** n)


def test_psl_elements_cap(monkeypatch):
    monkeypatch.setattr(psl, "CAP", 12179)
    with pytest.raises(ResourceLimitError):
        psl.psl_elements(29, 1)


@pytest.mark.parametrize("name", ["lps29", "psl23", "identity", "mgen-3-3",
                                  "kernel-3-4-2"])
def test_closure_carries_the_keys_of_its_tuples(name):
    gens, modulus, q = closure_input(name)
    closure = psl.subgroup_closure(gens, modulus, q)
    assert closure.keys.tolist() == row_keys_of(closure, modulus)
    plain = list(closure)
    assert plain == closure and type(plain) is list
    assert not hasattr(closure[:], "right_table")


def sequence_input(name):
    """An Elements and the tuple list that the retired list subclass held,
    from the element-at-a-time oracles."""
    if name == "lps29":
        gens, modulus, q = closure_input(name)
        return (psl.subgroup_closure(gens, modulus, q),
                subgroup_closure_brute(gens, modulus, q))
    return psl.psl_elements(5, 1), psl_elements_brute(5, 1)


@pytest.mark.parametrize("name", ["lps29", "psl2-5"])
def test_elements_reads_as_a_sequence_of_tuples(name):
    elements, tuples = sequence_input(name)
    n = len(tuples)
    assert len(elements) == n
    assert [elements[i] for i in (0, 1, n // 2, n - 1)] == \
        [tuples[i] for i in (0, 1, n // 2, n - 1)]
    assert elements[-1] == tuples[-1] and elements[-n] == tuples[0]
    with pytest.raises(IndexError):
        elements[n]
    for part in (slice(None), slice(3, 40), slice(-7, None), slice(None, None, 5),
                 slice(None, None, -3), slice(5, 5)):
        got = elements[part]
        assert type(got) is list and got == tuples[part]
    picks = np.array([n - 1, 0, 7, 7])
    assert elements.take(picks) == [tuples[i] for i in picks]
    assert list(elements) == tuples         # iteration, in the oracle's order
    assert elements == tuples and tuples == elements
    assert elements != tuples[:-1] and elements != tuples[::-1]
    assert elements != tuple(tuples)


@pytest.mark.parametrize("name", ["lps29", "psl2-5"])
def test_elements_finds_members_by_key(name):
    elements, tuples = sequence_input(name)
    modulus = elements.modulus
    for i in (0, 1, len(tuples) // 3, len(tuples) - 1):
        assert tuples[i] in elements
        assert elements.index(tuples[i]) == elements.position(tuples[i]) == i
    # not canonical, out of range, no unit entry, or not a matrix at all
    outside = [(2, 0, 0, (modulus + 1) // 2), (modulus, 0, 0, 1), (0, 0, 0, 1),
               (1, 0, 0), "abcd", None]
    for x in outside:
        assert x not in elements
        with pytest.raises(ValueError, match="not in the sequence"):
            elements.index(x)


def test_closure_keeps_only_its_keys():
    """A q=29 closure holds one int64 key per element once it returns, and no
    Python object per element."""
    gens, modulus, q = closure_input("lps29")
    psl.subgroup_closure(gens, modulus, q)      # fill the module's caches
    tracemalloc.start()
    try:
        closure = psl.subgroup_closure(gens, modulus, q)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(closure) == 12180
    assert kept <= 16 * len(closure)
