import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxlab.errors import NoResidueError
from boxlab.reps import borel_group
from boxlab.zmod import (LpsParams, find_admissible_q, is_prime, is_square_mod_q,
                         sqrt_hensel, sqrt_minus_one_chain)

PRIMES_TO_50 = [q for q in range(3, 51) if is_prime(q)]


def brute_roots(u, modulus):
    return sorted(r for r in range(modulus) if (r * r - u) % modulus == 0)


@functools.lru_cache(maxsize=None)
def square_table(modulus):
    """Every root of each square mod modulus, in increasing order."""
    table = {}
    for r in range(modulus):
        table.setdefault(r * r % modulus, []).append(r)
    return table


@st.composite
def hensel_cases(draw):
    q = draw(st.sampled_from(PRIMES_TO_50))
    top = 1
    while q ** (top + 1) <= 2 * 10 ** 4:
        top += 1
    n = draw(st.integers(1, top))
    u = draw(st.integers())
    assume(u % q)
    return u, q, n


def test_sqrt_hensel_minus_one_mod_25():
    # brute force over all residues mod 25 gives exactly {7, 18}
    assert brute_roots(-1 % 25, 25) == [7, 18]
    assert sqrt_hensel(-1, 5, 2) == (7, 18)


def test_sqrt_hensel_four_mod_343():
    roots = sqrt_hensel(4, 7, 3)
    assert roots == (2, 341)


def test_sqrt_hensel_nonresidue():
    # squares mod 5 are {0, 1, 4}
    assert sorted({x * x % 5 for x in range(5)}) == [0, 1, 4]
    assert sqrt_hensel(3, 5, 1) is None


def test_sqrt_hensel_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sqrt_hensel(2, 4, 1)
    with pytest.raises(ValueError):
        sqrt_hensel(2, 9, 1)
    with pytest.raises(ValueError):
        sqrt_hensel(10, 5, 2)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(hensel_cases())
def test_sqrt_hensel_is_the_square_table_solution_set(case):
    # any u prime to q, negative or past q^n; the second call reads the
    # memoised start that the first one left
    u, q, n = case
    expected = square_table(q ** n).get(u % q ** n, [])
    for _ in range(2):
        pair = sqrt_hensel(u, q, n)
        if pair is None:
            assert expected == []
        else:
            assert list(pair) == expected


def test_bad_parameters_raise_on_every_call():
    # the memoised checks cache results, not exceptions
    assert sqrt_hensel(4, 7, 3) == (2, 341)
    borel_group(3, 1, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="odd prime, got 9"):
            sqrt_hensel(2, 9, 1)
        with pytest.raises(ValueError, match="odd prime, got 9"):
            borel_group(9, 1, 2)
        with pytest.raises(ValueError, match="divisible by q"):
            sqrt_hensel(10, 5, 2)
        with pytest.raises(ValueError, match="divisible by q"):
            sqrt_hensel(-7, 7, 1)


def test_sqrt_hensel_squares_back_randomized():
    rng = random.Random(0)
    for _ in range(300):
        q = rng.choice(PRIMES_TO_50)
        n = rng.randint(1, 6)
        u = rng.randrange(1, q ** n)
        if u % q == 0:
            continue
        pair = sqrt_hensel(u, q, n)
        if pair is None:
            assert not is_square_mod_q(u, q)
            continue
        r, s = pair
        modulus = q ** n
        assert r * r % modulus == u % modulus
        assert s == modulus - r
        assert 1 <= r <= modulus // 2


def test_sqrt_hensel_solution_set_complete_small_moduli():
    for q in [3, 5, 7, 11]:
        n = 1
        modulus = q
        while modulus * q <= 10 ** 5:
            n += 1
            modulus *= q
        for level in range(1, n + 1):
            mod = q ** level
            squares = {}
            for r in range(mod):
                squares.setdefault(r * r % mod, []).append(r)
            for u in range(1, q):
                pair = sqrt_hensel(u, q, level)
                expected = sorted(squares.get(u % mod, []))
                if pair is None:
                    assert expected == []
                else:
                    assert sorted(pair) == expected


def test_find_admissible_q():
    found = find_admissible_q(3, 30)
    assert 29 in found
    assert 13 not in found
    assert 41 in find_admissible_q(3, 50)
    assert find_admissible_q(30, 28) == []


def test_admissible_verdicts_brute_force():
    for q in range(3, 500):
        if not is_prime(q):
            continue
        if q == 5:
            continue
        minus_one = (q - 1) in {x * x % q for x in range(q)}
        five = 5 % (2 * q) in {x * x % (2 * q) for x in range(2 * q)}
        expected = minus_one and five
        assert (q in find_admissible_q(q, q)) == expected


def test_epsilon_chain_values():
    assert sqrt_minus_one_chain(29, 1) == (12,)
    assert 12 * 12 % 29 == 29 - 1
    assert sqrt_minus_one_chain(13, 1) == (5,)
    with pytest.raises(NoResidueError):
        sqrt_minus_one_chain(3, 2)


def test_epsilon_chain_coherence():
    for q in [5, 13, 29, 37, 41]:
        chain = sqrt_minus_one_chain(q, 6)
        for n in range(1, 7):
            assert (chain[n - 1] ** 2 + 1) % q ** n == 0
        for n in range(2, 7):
            assert chain[n - 1] % q ** (n - 1) == chain[n - 2]
    for q in find_admissible_q(3, 99):
        chain = sqrt_minus_one_chain(q, 6)
        for j in range(1, 7):
            assert chain[j - 1] ** 2 % q ** j == q ** j - 1


def test_lps_params():
    params = LpsParams.build(29, 3)
    assert params.p == 5
    assert params.epsilon(1) == 12
    with pytest.raises(NoResidueError, match="^5 is not a square mod 26$"):
        LpsParams.build(13, 2)
    # -1 is tested first, so 3 fails on it although 5 is no square mod 6
    with pytest.raises(NoResidueError, match="^-1 is not a square mod 3$"):
        LpsParams.build(3, 2)
