"""Exact arithmetic mod q^n and 2*q^n: square-root lifting and admissible primes.

Square roots modulo a prime come from Tonelli-Shanks; roots modulo prime
powers are lifted level by level with the update a = b - t*c*q^(j-1) where
t inverts 2b mod q.  All integers are arbitrary precision.
"""

from __future__ import annotations

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


def _require_odd_prime(q: int) -> None:
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


def _hensel_step(r: int, u: int, q: int, prev: int) -> int:
    """Lift a root r of x^2 = u mod prev = q^(j-1) to a root mod q^j."""
    c = (r * r - u) // prev          # r^2 = u + c * q^(j-1)
    t = pow(2 * r % q, -1, q)
    return (r - t * c * prev) % (prev * q)


def sqrt_hensel(u: int, q: int, n: int) -> tuple[int, int] | None:
    """Both square roots of u modulo q^n, or None when u is a non-residue mod q.

    Returns (r, q^n - r) with the canonical root r in [1, q^n / 2].  The pair
    is the complete solution set.  u divisible by q is unsupported.
    """
    _require_odd_prime(q)
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if u % q == 0:
        raise ValueError("u divisible by q is unsupported")
    if not is_square_mod_q(u, q):
        return None
    r = _sqrt_mod_prime(u, q)
    modulus = q
    for _ in range(2, n + 1):
        r = _hensel_step(r, u, q, modulus)
        modulus *= q
    if (r * r - u) % modulus:
        raise RuntimeError(f"{r}^2 != {u} mod {modulus}")
    r = min(r, modulus - r)
    return r, modulus - r


def sqrt_hensel_even(u: int, q: int, n: int) -> int | None:
    """Canonical square root of u modulo 2*q^n, or None when none exists.

    Every root is u mod 2, so the roots mod 2*q^n are, by CRT, the member of
    the ``sqrt_hensel`` pair (r, q^n - r) with the parity of u and its
    negative; the member is below q^n, so it is the canonical one.
    """
    pair = sqrt_hensel(u, q, n)
    if pair is None:
        return None
    r = pair[0] if (pair[0] - u) % 2 == 0 else pair[1]
    if (r * r - u) % (2 * q ** n):
        raise RuntimeError(f"{r}^2 != {u} mod {2 * q ** n}")
    return r


def find_admissible_q(lo: int, hi: int) -> list[int]:
    """All odd primes q in [lo, hi] with -1 a square mod q and 5 a square mod 2q.

    Primes dividing 5 are excluded since the residue hypotheses need q coprime
    to the tested value.
    """
    out = []
    for q in range(max(3, lo), hi + 1):
        if q % 2 == 0 or not is_prime(q) or 5 % q == 0:
            continue
        if is_square_mod_q(-1, q) and sqrt_hensel_even(5, q, 1) is not None:
            out.append(q)
    return out


def sqrt_minus_one_chain(q: int, nmax: int) -> tuple[int, ...]:
    """Compatible square roots of -1: eps_n^2 = -1 mod q^n, eps_n = eps_{n-1} mod q^(n-1).

    Deterministic: starts from the smallest root mod q and lifts without
    re-normalising, so successive entries reduce onto each other.
    """
    _require_odd_prime(q)
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    base = sqrt_hensel(-1, q, 1)
    if base is None:
        raise NoResidueError(f"-1 is not a square mod {q}")
    r = base[0]
    chain = [r]
    modulus = q
    for _ in range(2, nmax + 1):
        r = _hensel_step(r, -1, q, modulus)
        modulus *= q
        if (r * r + 1) % modulus:
            raise RuntimeError(f"{r}^2 != -1 mod {modulus}")
        chain.append(r)
    return tuple(chain)


@dataclass(frozen=True)
class LpsParams:
    """Admissible parameter bundle: prime p = 1 mod 4, admissible q, root chain."""

    p: int
    q: int
    chain: tuple[int, ...]

    @classmethod
    def build(cls, q: int, nmax: int, p: int = 5) -> "LpsParams":
        if p % 4 != 1 or not is_prime(p):
            raise ValueError(f"p must be a prime = 1 mod 4, got {p}")
        _require_odd_prime(q)
        if q == p:
            raise ValueError("q must differ from p")
        if not is_square_mod_q(-1, q):
            raise NoResidueError(f"-1 is not a square mod {q}")
        if sqrt_hensel_even(p, q, 1) is None:
            raise NoResidueError(f"{p} is not a square mod {2 * q}")
        return cls(p=p, q=q, chain=sqrt_minus_one_chain(q, nmax))

    def epsilon(self, n: int) -> int:
        if not 1 <= n <= len(self.chain):
            raise ValueError(f"no chain entry for level {n}")
        return self.chain[n - 1]
