import cmath
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from boxlab.errors import ResourceLimitError
from boxlab.reps import (GROUP_CAP, borel_group, brute_force_irreps, classify_all,
                         dimension_by_level, induced_rep, irrep_inventory)


def monomial_mul(x, y, denominator):
    """Matrix product of monomial matrices: column c goes through y then x."""
    px, fx = x
    py, fy = y
    perm = tuple(px[py[c]] for c in range(len(py)))
    phases = tuple((fy[c] + fx[py[c]]) % denominator for c in range(len(py)))
    return perm, phases


def row(r, g):
    """The irrep's monomial matrix at g as (perm, phases) tuples: the one
    row of a single-element ``matrices`` batch."""
    perm, phases = r.matrices([g])
    return tuple(perm[0].tolist()), tuple(phases[0].tolist())


def inverse(group, g):
    """g^-1 = (a^-1, -b), with a^-1 read from the group's own table."""
    a, b = g
    return int(group.a_inv[a]), -b % group.modulus


def dense(r, g):
    """The irrep's matrix at g as a dense complex array."""
    perm, phases = row(r, g)
    out = np.zeros((r.dim, r.dim), dtype=complex)
    for c, target in enumerate(perm):
        out[target, c] = cmath.exp(2j * cmath.pi * phases[c] / r.group.modulus)
    return out


def is_abelian(group):
    els = group.elements
    return all(group.mul(a, b) == group.mul(b, a)
               for i, a in enumerate(els) for b in els[i + 1:])


def test_borel_orders():
    assert borel_group(3, 1, 2).order == 9
    assert borel_group(3, 1, 3).order == 81
    assert borel_group(5, 1, 2).order == 25


def test_borel_group_order_cap():
    # 47^4 = 4,879,681 elements; the cap is checked before any is built
    assert GROUP_CAP == 10 ** 6
    with pytest.raises(ResourceLimitError,
                       match="^group order 4879681 exceeds cap 1000000$"):
        borel_group(47, 1, 3)


def test_borel_group_axioms():
    g = borel_group(3, 1, 3)
    rng = random.Random(11)
    els = g.elements
    for _ in range(60):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.mul(a, inverse(g, a)) == g.mul(inverse(g, a), a) == (1, 0)
        assert g.mul(a, (1, 0)) == g.mul((1, 0), a) == a
    matrix_check = all(
        g.mul(x, y) == ((x[0] * y[0]) % 27, (x[0] * y[1] + x[1] * pow(y[0], -1, 27)) % 27)
        for x in els[:9] for y in els[:9])
    assert matrix_check


def test_borel_abelian_iff_n_equals_2k():
    assert is_abelian(borel_group(3, 1, 2))
    assert is_abelian(borel_group(5, 1, 2))
    assert not is_abelian(borel_group(3, 1, 3))


def test_induced_rep_dimension():
    g = borel_group(3, 1, 3)
    pi = induced_rep(g, 1)
    assert pi.dim == 3
    with pytest.raises(ValueError):
        induced_rep(g, 0)
    with pytest.raises(ValueError):
        induced_rep(borel_group(3, 1, 4), 3)   # 3 = 0 mod q


def test_induced_rep_homomorphism_random_pairs():
    for q, k, n in [(3, 1, 3), (3, 1, 4), (5, 1, 3)]:
        g = borel_group(q, k, n)
        pi = induced_rep(g, 1, jp=1)
        rng = random.Random(13)
        for _ in range(100):
            x, y = rng.choice(g.elements), rng.choice(g.elements)
            lhs = row(pi, g.mul(x, y))
            rhs = monomial_mul(row(pi, x), row(pi, y), g.modulus)
            assert lhs == rhs


def _matrix_reference(r, g):
    """An irrep's (perm, phases) at g by the closed forms, with the
    exponent of 1 + q^k found by search and a^-1 by pow."""
    q, k, n = r.group.q, r.group.k, r.group.n
    mod = q ** n
    a, b = g
    beta = next(e for e in range(q ** (n - k)) if pow(1 + q ** k, e, mod) == a)
    if r.kind == "character":
        return (0,), ((beta * r.j + b // q ** k * r.jp) * q ** (n - k) % mod,)
    if r.kind == "induced":
        ainv, step = pow(a, -1, mod), q ** k
        xs = [r.j + step * t for t in range(r.dim)]
        perm = tuple((ainv * ainv * x % q ** (n - k) - r.j) // step for x in xs)
        return perm, tuple((ainv * b * x + beta * r.jp * step) % mod for x in xs)
    low = q ** (n - 1)
    perm, phases = _matrix_reference(r.base, (a % low, b % low))
    return perm, tuple((p * q + beta * r.j * q ** k) % mod for p in phases)


def _kinds_inventory(q, k, n):
    g = borel_group(q, k, n)
    irreps = list(irrep_inventory(g).irreps)
    assert {r.kind for r in irreps} >= {"induced", "lift"}
    return g, irreps


def test_every_irrep_is_a_homomorphism():
    kinds = set()
    for q, k, n in [(3, 1, 4), (5, 1, 3)]:
        g, irreps = _kinds_inventory(q, k, n)
        rng = random.Random(15)
        for r in irreps:
            kinds |= {r.kind} | ({r.base.kind} if r.base else set())
            for _ in range(6):
                x, y = rng.choice(g.elements), rng.choice(g.elements)
                lhs = row(r, g.mul(x, y))
                assert lhs == monomial_mul(row(r, x), row(r, y), g.modulus)
    assert kinds == {"character", "induced", "lift"}


def test_batch_matrices_match_reference_rows():
    for q, k, n in [(3, 1, 3), (3, 1, 4), (5, 1, 3)]:
        g, irreps = _kinds_inventory(q, k, n)
        rng = random.Random(16)
        for r in irreps:
            perm, phases = r.matrices(g.elements)
            assert perm.shape == phases.shape == (g.order, r.dim)
            for i in rng.sample(range(g.order), 6):
                batch_row = tuple(perm[i].tolist()), tuple(phases[i].tolist())
                assert batch_row == row(r, g.elements[i])
                assert batch_row == _matrix_reference(r, g.elements[i])


def test_batch_matrices_reject_foreign_elements():
    g = borel_group(3, 1, 3)
    for a in (2, -26, 28):      # not a power of 4; 1 and 1 + 27 wrapped
        with pytest.raises(ValueError, match="power of 1"):
            induced_rep(g, 1).matrices([(1, 0), (a, 0)])


def test_mul_and_inv_reject_foreign_elements():
    g = borel_group(3, 1, 3)
    for a in (2, -26, 28, 0):
        with pytest.raises(ValueError, match="power of 1"):
            g.mul((1, 0), (a, 0))
        with pytest.raises(ValueError, match="power of 1"):
            g.mul((a, 0), (1, 0))


def test_batch_characters_are_bitwise_char():
    for q, k, n in [(3, 1, 3), (3, 1, 4), (5, 1, 3)]:
        g, irreps = _kinds_inventory(q, k, n)
        rng = random.Random(17)
        for r in irreps:
            chars = r.characters(g.elements)
            for i in rng.sample(range(g.order), 6):
                perm, phases = _matrix_reference(r, g.elements[i])
                expected = 0j
                for c, target in enumerate(perm):
                    if target == c:
                        expected += cmath.exp(2j * cmath.pi * phases[c]
                                              / g.modulus)
                assert chars[i] == r.characters([g.elements[i]])[0] \
                    == expected


def test_irrep_unitary():
    g = borel_group(3, 1, 3)
    table = irrep_inventory(g)
    rng = random.Random(14)
    for r in table.irreps:
        for _ in range(5):
            m = dense(r, rng.choice(g.elements))
            assert np.abs(m @ m.conj().T - np.eye(r.dim)).max() < 1e-10


def test_inventory_3_1_2():
    table = irrep_inventory(borel_group(3, 1, 2))
    assert table.dimensions() == {1: 9}
    assert table.gram_defect < 1e-9


def test_inventory_3_1_3():
    table = irrep_inventory(borel_group(3, 1, 3))
    assert table.dimensions() == {3: 6, 1: 27}
    assert 6 * 9 + 27 == 81


def test_inventory_5_1_3():
    table = irrep_inventory(borel_group(5, 1, 3))
    assert table.dimensions() == {5: 20, 1: 125}
    assert 20 * 25 + 125 == 625


def test_inventory_3_1_4():
    table = irrep_inventory(borel_group(3, 1, 4))
    dims = table.dimensions()
    assert sum(d * d * c for d, c in dims.items()) == 729
    assert dims[9] == 6


def test_characters_pairwise_distinct():
    table = irrep_inventory(borel_group(3, 1, 3))
    rows = [tuple(np.round(row, 9)) for row in table.char_matrix]
    assert len(set(rows)) == len(rows)


def test_dimension_by_level():
    g = borel_group(3, 1, 3)
    pi = induced_rep(g, 1)
    level, predicted = dimension_by_level(g, pi)
    assert (level, predicted) == (0, 3)
    # the diagonal character of index 1, lifted from the trivial character
    rho = next(r for r in irrep_inventory(g).irreps
               if r.rep_id == "lift[char(c=0,d=0)]*diag(j=1)")
    level, predicted = dimension_by_level(g, rho)
    assert predicted == 1 and level == g.n - 2 * g.k


def test_classify_all_inventories():
    for q, k, n in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3)]:
        table = irrep_inventory(borel_group(q, k, n))
        rows = classify_all(table)
        assert len(rows) == len(table.irreps)


def test_brute_force_oracle_matches_inventory():
    for q, k, n in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3)]:
        g = borel_group(q, k, n)
        calls = []

        def mul(x, y):
            calls.append(None)
            return g.mul(x, y)

        dims = brute_force_irreps(g.elements, mul)
        assert dims == irrep_inventory(g).dimensions()
        # generator columns and spot rows, not the |G|^2 products
        assert len(calls) <= 20000


def _permutation_group(gens):
    """Closure of permutation tuples under composition (p*r)(i) = p[r[i]]."""
    elements = [tuple(range(len(gens[0])))]
    for x in elements:
        for s in gens:
            y = tuple(x[i] for i in s)
            if y not in elements:
                elements.append(y)
    return elements, lambda p, r: tuple(p[i] for i in r)


def test_brute_force_oracle_on_groups_that_are_not_borel():
    s3, compose = _permutation_group([(1, 0, 2), (1, 2, 0)])
    assert len(s3) == 6
    assert brute_force_irreps(s3, compose) == {1: 2, 2: 1}
    # Q8 as (sign, unit) with unit 0..3 for 1, i, j, k
    table = [[(1, 0), (1, 1), (1, 2), (1, 3)],
             [(1, 1), (-1, 0), (1, 3), (-1, 2)],
             [(1, 2), (-1, 3), (-1, 0), (1, 1)],
             [(1, 3), (1, 2), (-1, 1), (-1, 0)]]

    def quat_mul(x, y):
        sign, unit = table[x[1]][y[1]]
        return (x[0] * y[0] * sign, unit)

    q8 = [(s, u) for u in range(4) for s in (1, -1)]
    assert brute_force_irreps(q8, quat_mul) == {1: 4, 2: 1}


def test_brute_force_spot_check_catches_a_wrong_mul():
    g = borel_group(3, 1, 3)
    last, square = g.elements[-1], g.mul(g.elements[1], g.elements[1])

    def wrong(x, y):
        # the generators' columns stay right; the last row is spot-checked
        if (x, y) == (last, square):
            return (1, 0)
        return g.mul(x, y)

    assert brute_force_irreps(g.elements, g.mul) == {1: 27, 3: 6}
    with pytest.raises(ValueError, match="mul disagrees"):
        brute_force_irreps(g.elements, wrong)


def test_brute_force_rejects_elements_not_closed():
    g = borel_group(3, 1, 3)
    for subset in (g.elements[:40], g.elements[1:], g.elements[::2]):
        with pytest.raises(ValueError, match="not closed"):
            brute_force_irreps(subset, g.mul)


def test_brute_force_trivial_group():
    assert brute_force_irreps([0], lambda a, b: 0) == {1: 1}


def test_dimension_law_at_shifted_parameters():
    # the restriction ingredient: at (q, k, n) = (3, 2, 6) a probe level of
    # k = 2 forces dimension 3^(6-4-2) = 1, and level 0 forces 3^2
    from boxlab.reps import Irrep

    g4 = borel_group(3, 2, 4)
    g5 = borel_group(3, 2, 5)
    g6 = borel_group(3, 2, 6)
    base = Irrep(group=g4, kind="character", dim=1, j=1, jp=1)
    chain = Irrep(group=g5, kind="lift", dim=1, j=0, base=base)
    chain = Irrep(group=g6, kind="lift", dim=1, j=0, base=chain)
    assert dimension_by_level(g6, chain) == (2, 1)
    pi = induced_rep(g6, 1)
    assert dimension_by_level(g6, pi) == (0, 9)
    assert pi.dim == 9


def test_oracle_solves_one_fortran_operator_in_place(monkeypatch):
    # the |G|-square operator goes to LAPACK as it is built, to be
    # overwritten there, not copied into another
    import scipy.linalg

    real_eigh = scipy.linalg.eigh
    calls = []

    def recording_eigh(a, **kwargs):
        calls.append((a.shape, a.dtype, a.flags.f_contiguous,
                      kwargs.get("overwrite_a"), kwargs.get("eigvals_only")))
        return real_eigh(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
    g = borel_group(3, 1, 3)
    assert brute_force_irreps(g.elements, g.mul) == {1: 27, 3: 6}
    assert calls
    for shape, dtype, fortran, overwrite, vals_only in calls:
        assert shape == (81, 81) and dtype == np.complex128
        assert fortran and overwrite is True and vals_only is True


def test_oracle_peak_memory_is_one_operator():
    # VmHWM over one oracle call at order 729 rises by less than 1.5
    # operators of 16 * 729^2 bytes: a copy of the operator would add a
    # second one
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status")
    import boxlab

    script = textwrap.dedent("""
        import scipy.linalg
        from boxlab.reps import borel_group, brute_force_irreps

        def high_water():
            with open("/proc/self/status") as fh:
                line = next(x for x in fh if x.startswith("VmHWM"))
            return int(line.split()[1]) * 1024

        small = borel_group(3, 1, 3)
        brute_force_irreps(small.elements, small.mul)
        g = borel_group(3, 1, 4)
        before = high_water()
        assert brute_force_irreps(g.elements, g.mul) == {1: 81, 3: 18, 9: 6}
        print(high_water() - before)
        """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(boxlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) <= 1.5 * 16 * 729 ** 2


def test_representation_audit_skips_the_oracle_above_its_cap(monkeypatch):
    from boxlab import reps, suites

    sizes = []

    def recording_oracle(elements, mul):
        sizes.append(len(elements))
        return brute_force_irreps(elements, mul)

    monkeypatch.setattr(reps, "ORACLE_CAP", 728)
    monkeypatch.setattr(suites, "brute_force_irreps", recording_oracle)
    result = suites.criterion_reps()
    match = {(c["q"], c["k"], c["n"]): c["oracle_match"]
             for c in result["details"]["cases"]}
    assert match == {(3, 1, 2): True, (3, 1, 3): True, (3, 1, 4): None,
                     (5, 1, 2): True, (5, 1, 3): True}
    assert sorted(sizes) == [9, 25, 81, 625]
    assert result["passed"]


BOREL_CASES = [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3)]


def _oracle_draw(seed, inv):
    """The oracle's random y for one seed, over elements whose inverses
    are at inv: real at an involution, conjugate at an inverse pair."""
    rng = np.random.default_rng(seed)
    y = np.zeros(len(inv), dtype=complex)
    for i in range(len(inv)):
        if y[i] != 0:
            continue
        if inv[i] == i:
            y[i] = rng.standard_normal()
        else:
            y[i] = rng.standard_normal() + 1j * rng.standard_normal()
            y[inv[i]] = y[i].conjugate()
    return y


@pytest.mark.parametrize("q, k, n", BOREL_CASES)
def test_oracle_operator_is_the_element_ordered_gather(monkeypatch, q, k, n):
    # the operator scattered from the BFS-ordered tree products is, bit for
    # bit, y[table] over the element-ordered table [i, j] = idx(e_i^-1 e_j)
    import scipy.linalg

    real_eigh = scipy.linalg.eigh
    operators = []

    def recording_eigh(a, **kwargs):
        operators.append(a.copy())
        return real_eigh(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
    g = borel_group(q, k, n)
    brute_force_irreps(g.elements, g.mul)
    a, b = np.array(g.elements).T
    ainv, mod = g.a_inv[a], g.modulus
    index = np.full((mod, mod), -1)
    index[a, b] = np.arange(g.order)
    table = index[ainv[:, None] * a % mod,
                  (ainv[:, None] * b - b[:, None] * ainv) % mod]
    inv = index[ainv, -b % mod]
    for i, j in [(0, g.order - 1), (g.order - 1, 1), (g.order // 2, 2)]:
        assert table[i, j] == g.elements.index(
            g.mul(inverse(g, g.elements[i]), g.elements[j]))
        assert g.mul(g.elements[i], g.elements[inv[i]]) == (1, 0)
    assert operators
    for seed, op in enumerate(operators):
        expected = _oracle_draw(seed, inv)[table]
        assert op.tobytes(order="C") == expected.tobytes(order="C")


def test_gram_product_runs_on_the_character_matrix_itself(monkeypatch):
    # the Gram product goes to scipy's BLAS, the one the oracle's eigh runs
    # on, as the table's own F-ordered view: nothing is copied first
    import scipy.linalg.blas

    real_zherk = scipy.linalg.blas.zherk
    seen = []

    def recording_zherk(alpha, a, **kwargs):
        seen.append(a)
        return real_zherk(alpha, a, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "zherk", recording_zherk)
    table = irrep_inventory(borel_group(3, 1, 3))
    [a] = seen
    assert a.dtype == np.complex128 and a.flags.f_contiguous
    assert a.shape == (81, 33)
    assert np.shares_memory(a, table.char_matrix)


@pytest.mark.parametrize("q, k, n", BOREL_CASES)
def test_gram_defect_is_the_full_product_formula(q, k, n):
    group = borel_group(q, k, n)
    table = irrep_inventory(group)
    chars = table.char_matrix
    expected = np.abs(chars @ chars.conj().T / group.order
                      - np.eye(len(chars))).max()
    assert table.gram_defect == expected


def test_orthonormality_audit_catches_a_repeated_irrep(monkeypatch):
    # one irrep replaced by another of the same dimension keeps the squared
    # dimensions summing to the order, so only the Gram matrix can see it;
    # the repeat's inner product 1 sits in one triangle only
    from boxlab import reps

    real_inventory = reps._inventory

    def repeated(group):
        irreps = real_inventory(group)
        if group.n == 3:
            first = next(i for i, r in enumerate(irreps) if r.dim == 3)
            later = next(i for i, r in enumerate(irreps)
                         if r.dim == 3 and i > first)
            irreps[later] = irreps[first]
        return irreps

    monkeypatch.setattr(reps, "_inventory", repeated)
    with pytest.raises(RuntimeError,
                       match="^character orthonormality defect "):
        irrep_inventory(borel_group(3, 1, 3))
