"""Exact arithmetic mod q^n: square-root lifting and admissible primes.

A square root mod q^n is one Hensel lift: the smaller root mod q, found by
Tonelli-Shanks, is lifted level by level with the update
a = b - t*(b^2 - u) mod q^j, where b^2 - u = c*q^(j-1) and t inverts 2b
mod q.  All integers are arbitrary precision.

Two facts depend only on q or only on u mod q, and are memoised in bounded
``lru_cache``s of ``CACHE_SIZE`` entries: that q passes ``require_odd_prime``,
and the start of the lift, i.e. the smaller root r mod q with t = (2r)^-1
mod q, or "non-residue".  A sweep over many u and levels then pays one trial
division per q, and one Euler test and one Tonelli-Shanks root per residue
class.  ``lru_cache`` never caches an exception, so a bad q raises on every
call.  The lift itself is not cached, and its final check r^2 = u mod q^n
still runs on every call: it guards the cached start as well as the loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import NoResidueError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


CACHE_SIZE = 4096


@functools.lru_cache(maxsize=CACHE_SIZE)     # caches passes; a failure re-raises
def require_odd_prime(q: int) -> None:
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")


def is_square_mod_q(u: int, q: int) -> bool:
    """Euler criterion for u a nonzero square mod the odd prime q."""
    u %= q
    if u == 0:
        raise ValueError("u must not be divisible by q")
    return pow(u, (q - 1) // 2, q) == 1


def _sqrt_mod_prime(u: int, q: int) -> int:
    """One square root of u mod odd prime q (Tonelli-Shanks); u a known residue."""
    u %= q
    if q % 4 == 3:
        return pow(u, (q + 1) // 4, q)
    # factor q-1 = s * 2^e with s odd
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c = pow(z, s, q)
    r = pow(u, (s + 1) // 2, q)
    t = pow(u, s, q)
    m = e
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        r = r * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return r


@functools.lru_cache(maxsize=CACHE_SIZE)
def _start(u: int, q: int) -> tuple[int, int] | None:
    """The smaller root r of x^2 = u mod q and t = (2r)^-1 mod q, or None
    when u is a non-residue; u is taken already reduced mod q."""
    if not is_square_mod_q(u, q):
        return None
    r = _sqrt_mod_prime(u, q)
    r = min(r, q - r)
    return r, pow(2 * r, -1, q)      # r is fixed mod q, so t is too


def _lift(u: int, q: int, n: int) -> int | None:
    """The root of x^2 = u mod q^n that reduces to the smaller root mod q,
    or None when u is a non-residue mod q.  Lifts of one start are prefixes
    of each other, so the roots at successive levels reduce onto each other."""
    start = _start(u % q, q)
    if start is None:
        return None
    r, t = start
    modulus = q
    for _ in range(1, n):
        modulus *= q
        r = (r - t * (r * r - u)) % modulus   # q^(j-1) divides r^2 - u
    if (r * r - u) % modulus:
        raise RuntimeError(f"{r}^2 != {u} mod {modulus}")
    return r


def sqrt_hensel(u: int, q: int, n: int) -> tuple[int, int] | None:
    """Both square roots of u modulo q^n, or None when u is a non-residue mod q.

    Returns (r, q^n - r) with the canonical root r in [1, q^n / 2].  The pair
    is the complete solution set.  u divisible by q is unsupported.
    """
    require_odd_prime(q)
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if u % q == 0:
        raise ValueError("u divisible by q is unsupported")
    r = _lift(u, q, n)
    if r is None:
        return None
    modulus = q ** n
    s = modulus - r
    return (r, s) if r < s else (s, r)


def find_admissible_q(lo: int, hi: int) -> list[int]:
    """All odd primes q in [lo, hi] with -1 a square mod q and 5 a square mod 2q.

    Primes dividing 5 are excluded since the residue hypotheses need q coprime
    to the tested value.
    """
    out = []
    for q in range(max(3, lo), hi + 1):
        if q % 2 == 0 or not is_prime(q) or 5 % q == 0:
            continue
        # every odd number is a square mod 2, so by CRT mod 2q is mod q
        if is_square_mod_q(-1, q) and is_square_mod_q(5, q):
            out.append(q)
    return out


def sqrt_minus_one_chain(q: int, nmax: int) -> tuple[int, ...]:
    """Compatible square roots of -1: eps_n^2 = -1 mod q^n, eps_n = eps_{n-1} mod q^(n-1).

    Deterministic: each entry is the lift of the smaller root mod q, not
    re-normalised, so successive entries reduce onto each other.
    """
    require_odd_prime(q)
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if not is_square_mod_q(-1, q):
        raise NoResidueError(f"-1 is not a square mod {q}")
    return tuple(_lift(-1, q, j) for j in range(1, nmax + 1))


@dataclass(frozen=True)
class LpsParams:
    """Admissible parameter bundle: prime p = 1 mod 4, admissible q, root chain."""

    p: int
    q: int
    chain: tuple[int, ...]

    @classmethod
    def build(cls, q: int, nmax: int) -> "LpsParams":
        require_odd_prime(q)
        if q == 5:
            raise ValueError("q must differ from p")
        chain = sqrt_minus_one_chain(q, nmax)   # raises for -1 first
        if not is_square_mod_q(5, q):       # so mod 2q too, by CRT
            raise NoResidueError(f"5 is not a square mod {2 * q}")
        return cls(p=5, q=q, chain=chain)

    def epsilon(self, n: int) -> int:
        if not 1 <= n <= len(self.chain):
            raise ValueError(f"no chain entry for level {n}")
        return self.chain[n - 1]
