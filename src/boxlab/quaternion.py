"""Integer quaternions: norm-p generator sets and loop counting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ResourceLimitError
from .zmod import is_prime


class Quat(NamedTuple):
    x0: int
    x1: int
    x2: int
    x3: int

    def __mul__(self, other):  # type: ignore[override]
        a0, a1, a2, a3 = self
        b0, b1, b2, b3 = other
        return Quat(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def conjugate(self) -> "Quat":
        return Quat(self.x0, -self.x1, -self.x2, -self.x3)

    def norm(self) -> int:
        return self.x0 ** 2 + self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2


@dataclass(frozen=True)
class GeneratorSet:
    """The p+1 norm-p quaternions with odd positive real part and even
    imaginary parts, interleaved as (g, conj(g)) pairs so letter l has
    inverse letter l ^ 1."""

    p: int
    elements: tuple[Quat, ...]

    def __len__(self) -> int:
        return len(self.elements)


def quaternion_generators(p: int) -> GeneratorSet:
    """Enumerate the p+1 solutions of x0^2+x1^2+x2^2+x3^2 = p with x0 > 0 odd
    and x1, x2, x3 even."""
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"p must be a prime = 1 mod 4, got {p}")
    bound = math.isqrt(p)
    even_bound = bound - bound % 2
    sols = []
    for x0 in range(1, bound + 1, 2):
        for x1 in range(-even_bound, even_bound + 1, 2):
            for x2 in range(-even_bound, even_bound + 1, 2):
                rem = p - x0 * x0 - x1 * x1 - x2 * x2
                if rem < 0:
                    continue
                x3 = math.isqrt(rem)
                if x3 * x3 != rem or x3 % 2 != 0:
                    continue
                for s3 in ({x3, -x3} if x3 else {0}):
                    sols.append(Quat(x0, x1, x2, s3))
    if len(sols) != p + 1:
        raise RuntimeError(f"expected {p + 1} solutions, found {len(sols)}")
    positives = [s for s in sols if _first_imag_sign(s) > 0]
    positives.sort(reverse=True)
    elements: list[Quat] = []
    for g in positives:
        elements.append(g)
        elements.append(g.conjugate())
    gens = GeneratorSet(p=p, elements=tuple(elements))
    if set(gens.elements) != set(sols):
        raise RuntimeError("generator list is not the solution set")
    return gens


def _first_imag_sign(x: Quat) -> int:
    for c in (x.x1, x.x2, x.x3):
        if c:
            return 1 if c > 0 else -1
    return 0


# --- counting three-square representations -------------------------------

_R2_TABLE = None  # table of r2(v) = #{(a, b) in Z^2 : a^2 + b^2 = v}
R2_CAP = 4 * 10 ** 6  # r2 entries (32 MB); n = 0, m = 10 takes 2,441,407


def _r2_upto(limit: int):
    global _R2_TABLE
    import numpy as np

    if _R2_TABLE is not None and len(_R2_TABLE) > limit:
        return _R2_TABLE
    if limit + 1 > R2_CAP:
        raise ResourceLimitError(f"r2 table of {limit + 1} > {R2_CAP} entries")
    table = np.zeros(limit + 1, dtype=np.int64)
    amax = math.isqrt(limit)
    squares = np.arange(amax + 1, dtype=np.int64) ** 2
    for a in range(amax + 1):
        wa = 2 if a else 1
        rest = limit - a * a
        bmax = math.isqrt(rest)
        idx = a * a + squares[: bmax + 1]
        weights = np.full(bmax + 1, 2 * wa, dtype=np.int64)
        weights[0] = wa
        np.add.at(table, idx, weights)
    _R2_TABLE = table
    return table


def count_three_squares(x: int) -> int:
    """Number of ordered integer triples (a, b, c) with a^2 + b^2 + c^2 = x."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1
    import numpy as np

    table = _r2_upto(x)
    c = np.arange(math.isqrt(x) + 1, dtype=np.int64)
    weights = np.where(c > 0, 2, 1)
    return int(weights @ table[x - c * c])


def loop_count_quat(n: int, m: int, q: int) -> int:
    """Exact count of quaternions of norm 5^m of the shape fixed by level n.

    Counted are x0 + x1 i + x2 j + x3 k with x0 odd and x1, x2, x3 = 0
    mod 2*q^n, i.e. the norm-5^m representatives of classes trivial at level
    n.  x0 is restricted to +-5^(m/2) mod q^(2n) before enumerating
    three-square decompositions of the remainder.  m must be even.
    """
    if m < 0 or m % 2 != 0:
        raise ValueError(f"m must be even and nonnegative, got {m}")
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    s = 5 ** (m // 2)
    qq = q ** (2 * n)
    if n == 0:
        candidates = range(-s, s + 1, 2)  # s odd, so this is every odd value
    else:
        residues = {s % qq, (-s) % qq}
        candidates = [
            a
            for r in sorted(residues)
            for a in range(r - ((r + s) // qq) * qq, s + 1, qq)
            if a % 2 != 0
        ]
    total = 0
    divisor = 4 * qq
    _r2_upto(5 ** m // divisor)      # one table holds every rem // divisor
    for a in candidates:
        rem = 5 ** m - a * a
        if rem < 0:
            continue
        if rem % divisor:
            raise RuntimeError(f"5^{m} - {a}^2 is not divisible by {divisor}")
        total += count_three_squares(rem // divisor)
    return total
