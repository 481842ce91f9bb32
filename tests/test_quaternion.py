import math
import random

import pytest

from boxlab import quaternion
from boxlab.errors import ResourceLimitError
from boxlab.quaternion import (Quat, count_three_squares, loop_count_quat,
                               quaternion_generators)
from conftest import ONE, canonical_class, word_to_class


def brute_three_squares(x):
    bound = math.isqrt(x)
    count = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if a * a + b * b + c * c == x:
                    count += 1
    return count


def reduced_words(length, alphabet=6):
    if length == 0:
        yield ()
        return
    for prefix in reduced_words(length - 1, alphabet):
        for letter in range(alphabet):
            if prefix and prefix[-1] == letter ^ 1:
                continue
            yield prefix + (letter,)


def test_norm_multiplicative():
    rng = random.Random(2)
    for _ in range(50):
        a = Quat(*(rng.randint(-9, 9) for _ in range(4)))
        b = Quat(*(rng.randint(-9, 9) for _ in range(4)))
        assert (a * b).norm() == a.norm() * b.norm()


def test_conjugate_gives_norm():
    a = Quat(1, 2, -3, 4)
    prod = a * a.conjugate()
    assert prod == Quat(a.norm(), 0, 0, 0)


def test_generators_p5():
    gens = quaternion_generators(5)
    assert len(gens.elements) == 6
    expected = {Quat(1, 2, 0, 0), Quat(1, -2, 0, 0), Quat(1, 0, 2, 0),
                Quat(1, 0, -2, 0), Quat(1, 0, 0, 2), Quat(1, 0, 0, -2)}
    assert set(gens.elements) == expected
    for i, g in enumerate(gens.elements):
        assert gens.elements[i ^ 1] == g.conjugate()


def test_generators_p13():
    gens = quaternion_generators(13)
    assert len(gens.elements) == 14
    for g in gens.elements:
        assert g.norm() == 13
        assert g.x0 > 0 and g.x0 % 2 == 1
        assert g.x1 % 2 == g.x2 % 2 == g.x3 % 2 == 0


def test_generators_reject_p7():
    with pytest.raises(ValueError):
        quaternion_generators(7)


def test_word_to_class_identity():
    gens = quaternion_generators(5)
    assert word_to_class((), gens) == ONE


def test_word_to_class_rejects_unreduced():
    gens = quaternion_generators(5)
    with pytest.raises(ValueError):
        word_to_class((0, 1), gens)


def test_length_two_words_distinct_classes():
    gens = quaternion_generators(5)
    classes = [word_to_class(w, gens) for w in reduced_words(2)]
    assert len(classes) == 30
    assert len(set(classes)) == 30
    assert all(c.norm() == 25 for c in classes)


def test_freeness_to_length_five():
    gens = quaternion_generators(5)
    seen = set()
    total = 0
    for length in range(6):
        for w in reduced_words(length):
            c = word_to_class(w, gens)
            assert c.norm() == 5 ** length
            assert c not in seen
            seen.add(c)
            total += 1
    assert total == 1 + sum(6 * 5 ** (m - 1) for m in range(1, 6))


def test_count_three_squares_small():
    assert count_three_squares(0) == 1
    assert count_three_squares(1) == 6
    for x in [2, 3, 4, 5, 6, 7, 25, 50, 99]:
        assert count_three_squares(x) == brute_three_squares(x)
    assert count_three_squares(25) == 30


def test_loop_count_quat_norm_one():
    assert loop_count_quat(0, 0, 29) == 2
    assert loop_count_quat(1, 0, 29) == 2


def test_loop_count_quat_rejects_odd():
    with pytest.raises(ValueError):
        loop_count_quat(1, 3, 29)


def test_loop_count_quat_builds_the_r2_table_once(monkeypatch):
    # the remainders grow along the loop; one table sized for the largest
    # serves them all
    monkeypatch.setattr(quaternion, "_R2_TABLE", None)
    build = quaternion._r2_upto
    built = []

    def counting(limit):
        before = quaternion._R2_TABLE
        table = build(limit)
        if table is not before:
            built.append(limit)
        return table

    monkeypatch.setattr(quaternion, "_r2_upto", counting)
    assert loop_count_quat(0, 8, 29) == 976562
    assert len(built) <= 1


def test_r2_table_cap_raises_before_allocating():
    # n = 0, m = 14 would ask for 5^14 / 4, about 1.5e9 entries
    table = quaternion._R2_TABLE
    with pytest.raises(ResourceLimitError, match="r2 table"):
        loop_count_quat(0, 14, 29)
    with pytest.raises(ResourceLimitError, match="r2 table"):
        count_three_squares(quaternion.R2_CAP)
    assert quaternion._R2_TABLE is table


def test_loop_count_quat_brute_cross_check():
    # direct enumeration of quaternions a + 2q^n(ci+dj+ek) of norm 5^m
    for n, m, q in [(0, 2, 29), (0, 4, 29), (1, 2, 3), (1, 4, 3), (1, 2, 29)]:
        s = 5 ** (m // 2)
        step = 2 * q ** n
        count = 0
        for a in range(-s, s + 1):
            rem = 5 ** m - a * a
            bound = math.isqrt(rem) // step if rem >= 0 else -1
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    left = rem - (step * step) * (c * c + d * d)
                    if left < 0:
                        continue
                    e = math.isqrt(left)
                    if e % step:
                        continue
                    ee = e // step
                    if (step * ee) ** 2 == left:
                        count += 1 if ee == 0 else 2
        assert loop_count_quat(n, m, q) == count


def test_canonical_class_strips_fives_and_sign():
    assert canonical_class(Quat(-5, 0, 10, 0)) == Quat(1, 0, -2, 0)
    with pytest.raises(ValueError):
        canonical_class(Quat(0, 0, 0, 0))


def test_loop_count_growth_trend_bounded():
    # the count stays within a fixed multiple of 5^(13m/12)/q^3 + 5^(7m/12)/q
    q = 29
    ratios = []
    for m in range(0, 11, 2):
        f = loop_count_quat(1, m, q)
        envelope = 5 ** (13 * m / 12) / q ** 3 + 5 ** (7 * m / 12) / q
        ratios.append(f / envelope)
    assert max(ratios) < 60
    assert loop_count_quat(1, 10, q) == 2162   # first level with kernel mass
