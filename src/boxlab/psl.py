"""Projective 2x2 matrix groups over Z/q^n.

Matrices are 4-tuples (a, b, c, d) for [[a, b], [c, d]].  The canonical
representative of a projective class scales the first entry that is a unit
mod q^n (scan order a, b, c, d) to 1; at least one entry is a unit because
the determinant is.  This identifies M with -M, so canonical tuples carry
PSL elements whenever the determinant is a square.

``canon_rows`` is ``canon`` on (N, 4) int64 arrays, one matrix per row, and
``product_keys`` is ``mat_mul`` of every row by every generator, kept as
one int64 key per product; ``canon``/``mat_mul`` are their oracle.
``subgroup_closure`` and ``psl_elements`` return ``Elements``: a read-only
sequence of the tuples that holds only their int64 row keys, 8 bytes per
element, makes tuples from the keys when they are read, and fills Cayley
table columns from the keys with ``right_table``.

``subgroup_closure`` and ``right_table`` find rows by direct address, not by
sorting keys: ``_slots`` maps a canonical row to its pivot position and
other three entries, one int32 entry of a ``_slot_index`` per slot, about
modulus**3 of them.  The index lives for one call and is capped at
SLOT_CAP entries.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import ResourceLimitError
from .quaternion import Quat

Mat = tuple[int, int, int, int]

IDENT: Mat = (1, 0, 0, 1)

CAP = 10 ** 7       # elements of the largest group or kernel enumerated


def canon(m: Mat, modulus: int, q: int) -> Mat:
    a, b, c, d = (x % modulus for x in m)
    for e in (a, b, c, d):
        if e % q:
            inv = pow(e, -1, modulus)
            return (a * inv % modulus, b * inv % modulus,
                    c * inv % modulus, d * inv % modulus)
    raise ValueError("matrix has no unit entry; determinant not a unit")


def mat_mul(x: Mat, y: Mat, modulus: int, q: int) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return canon((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
                 modulus, q)


def mat_inv(x: Mat, modulus: int, q: int) -> Mat:
    a, b, c, d = x
    return canon((d, -b, -c, a), modulus, q)


# --- batch rows -------------------------------------------------------------

KEY_MODULUS_LIMIT = 55_108      # the largest modulus with modulus**4 < 2**63


def _check_key_bound(modulus: int) -> None:
    if modulus > KEY_MODULUS_LIMIT:
        raise ResourceLimitError(
            f"modulus {modulus} > {KEY_MODULUS_LIMIT}: int64 row keys overflow")


@functools.lru_cache(maxsize=None)
def _unit_inverses(modulus: int, q: int) -> np.ndarray:
    """inv[e] = e^-1 mod modulus for every unit e, 0 for the non-units."""
    inv = np.array([pow(e, -1, modulus) if e % q else 0 for e in range(modulus)],
                   dtype=np.int64)
    inv.flags.writeable = False
    return inv


def canon_rows(rows, modulus: int, q: int) -> np.ndarray:
    """``canon`` on every row of an (N, 4) int64 array: the same scan order
    and the same ValueError."""
    _check_key_bound(modulus)
    return _canon_reduced(np.asarray(rows, dtype=np.int64) % modulus, modulus, q)


def _canon_reduced(rows: np.ndarray, modulus: int, q: int) -> np.ndarray:
    """``canon_rows`` in place on an (N, 4) array already reduced mod modulus."""
    units = rows % q != 0
    if not units.any(axis=1).all():
        raise ValueError("matrix has no unit entry; determinant not a unit")
    pivot = np.take_along_axis(rows, units.argmax(axis=1)[:, None], axis=1)
    rows *= _unit_inverses(modulus, q)[pivot]
    rows %= modulus
    return rows


def product_keys(rows: np.ndarray, gens: np.ndarray, modulus: int,
                 q: int) -> np.ndarray:
    """int64 keys[i, j]: the row key of ``mat_mul(rows[i], gens[j])``, for
    (N, 4) and (S, 4) int64 arrays reduced mod modulus; ValueError if a
    product has no unit entry.

    Each entry of a product is formed unreduced, below 2 * modulus**2, and
    is reduced once, after scaling by the inverse of the first unit entry
    (scan order a, b, c, d); x % q of an unreduced entry is that of its
    residue, since q divides modulus."""
    _check_key_bound(modulus)
    n, s = len(rows), len(gens)
    # prod[r, c, j, i] is entry (r, c) of rows[i] @ gens[j], from one matmul
    # of the generators' columns, stacked, against each row's two rows, with
    # no temporary; a, b, c, d are then (S, N) blocks
    columns = gens.reshape(s, 2, 2).transpose(2, 0, 1).reshape(2 * s, 2)
    prod = (columns @ rows.T.reshape(2, 2, n)).reshape(2, 2, s, n)
    (a, b), (c, d) = prod
    # np.where in place, in reverse scan order: the last unit entry written
    # is the first one of a, b, c, d.  Every entry is non-negative, so
    # y - y // k * k is y % k, and numpy's // by a scalar is several times
    # faster than its %; spare holds y // k * k.
    pivot = d.copy()
    spare = np.empty_like(pivot)
    for y in (c, b, a):
        np.floor_divide(y, q, out=spare)
        spare *= q
        np.copyto(pivot, y, where=spare != y)
    np.floor_divide(pivot, modulus, out=spare)
    spare *= modulus
    pivot -= spare
    del spare
    inv = _unit_inverses(modulus, q)[pivot]
    if not inv.all():       # inv is 0 exactly at a non-unit pivot
        raise ValueError("matrix has no unit entry; determinant not a unit")
    prod *= inv
    for y in (a, b, c, d):
        np.floor_divide(y, modulus, out=inv)        # inv is spent
        inv *= modulus
        y -= inv
    keys = np.multiply(a, modulus, out=pivot)       # pivot is spent
    keys += b
    keys *= modulus
    keys += c
    keys *= modulus
    keys += d
    return keys.T


def _row_keys(rows: np.ndarray, modulus: int) -> np.ndarray:
    """One int64 per reduced row, ordered as the tuples are."""
    return np.ravel_multi_index(tuple(rows.T), (modulus,) * 4)


# --- slot index ---------------------------------------------------------------

# Entries of the largest slot index allocated: 2 * 271**3 int32, 159 MB.  An
# index has fewer than 2 * modulus**3 entries for every q >= 2, so this
# admits every modulus up to 271, the largest prime whose whole PSL(2, Z/m)
# fits in CAP; of those, 2**8 has the largest index, 31.5 million entries.
# The LPS builds hold 0.9 MB at q=61, 5.2 MB at q=109 and 23.9 MB at q=181.
SLOT_CAP = 2 * 271 ** 3

# Frontier or element rows per ``product_keys`` call in ``subgroup_closure``
# and ``right_table``.  At q=61 (best of 12 on a 2-core host) the closure
# took 29.5, 31.5, 34.9 and 40.8 ms at 4,096, 8,192, 16,384 and 32,768 rows
# and 47.5 ms at a whole level per call; ``right_table`` took 18.9-19.8 ms
# from 4,096 rows up and 28.7 ms in one call.  8,192 rows keep a block's
# temporaries near 3 MB at |S| = 6.
ROW_BLOCK = 8192


def _slot_index(modulus: int, q: int) -> np.ndarray:
    """A zeroed int32 array with one entry per slot of ``_slots``;
    ResourceLimitError, before allocating, above SLOT_CAP entries."""
    r = modulus // q
    size = modulus ** 3 + r * modulus ** 2 + r * r * modulus + r ** 3
    if size > SLOT_CAP:
        raise ResourceLimitError(f"slot index of {size} > {SLOT_CAP} entries "
                                 f"for modulus {modulus}")
    return np.zeros(size, dtype=np.int32)


def _slots(keys: np.ndarray, modulus: int, q: int) -> np.ndarray:
    """The slot of each row key, an array of the same shape: a canonical
    row's pivot position and its other three entries, in a range of its own
    per pivot position.  With m = modulus and r = m // q, and x = q * x' for
    a non-unit entry x:

    * pivot a (a = 1):                   b m^2 + c m + d, below m^3;
    * pivot b (b = 1):            m^3 + a' m^2 + c m + d;
    * pivot c (c = 1):  m^3 + r m^2 + (a' r + b') m + d;
    * pivot d (d = 1):  m^3 + r m^2 + r^2 m + (a' r + b') r + c'.

    Injective on canonical rows, which are all the rows ``product_keys``
    returns, and below the length of ``_slot_index`` for any four entries
    below m.  Most rows of a group have pivot a, whose slot is the key
    minus m^3; only the others are unravelled."""
    m, r = modulus, modulus // q
    cube = m ** 3
    slots = keys - cube
    # a != 1 exactly where the key is outside [m^3, 2 m^3); as unsigned, a
    # negative difference is above m^3 too
    other = np.nonzero(slots.view(np.uint64) >= cube)
    if len(other[0]):
        a, b, c, d = np.unravel_index(keys[other], (m,) * 4)
        ab = a // q * r + b // q
        slots[other] = cube + np.where(
            b == 1, (a // q * m + c) * m + d,
            r * m * m + np.where(c == 1, ab * m + d, r * r * m + ab * r + c // q))
    return slots


def mat_pow(x: Mat, e: int, modulus: int, q: int) -> Mat:
    out = canon(IDENT, modulus, q)
    base = x
    while e:
        if e & 1:
            out = mat_mul(out, base, modulus, q)
        base = mat_mul(base, base, modulus, q)
        e >>= 1
    return out


def commutator(x: Mat, y: Mat, modulus: int, q: int) -> Mat:
    xy = mat_mul(x, y, modulus, q)
    yx = mat_mul(y, x, modulus, q)
    return mat_mul(xy, mat_inv(yx, modulus, q), modulus, q)


def lps_embed(g: Quat, q: int, n: int, eps: int) -> Mat:
    """Matrix [[x0 + x1*e, x2 + x3*e], [-x2 + x3*e, x0 - x1*e]] mod q^n,
    canonicalised.  The determinant before normalisation is the quaternion
    norm since e^2 = -1."""
    modulus = q ** n
    if (eps * eps + 1) % modulus != 0:
        raise ValueError(f"eps^2 != -1 mod {q}^{n}")
    x0, x1, x2, x3 = g
    return canon((x0 + x1 * eps, x2 + x3 * eps, -x2 + x3 * eps, x0 - x1 * eps),
                 modulus, q)


def lps_letter_images(gens, q: int, n: int, eps: int) -> list[Mat]:
    """Images of the interleaved generator letters at level n."""
    return [lps_embed(g, q, n, eps) for g in gens.elements]


def psl_order(q: int, n: int) -> int:
    return q ** (3 * n - 2) * (q * q - 1) // 2


class Elements(Sequence):
    """Canonical tuples, read-only, held only as their int64 row keys:
    ``keys[i]`` is the key of ``self[i]``, and a tuple is made from its key
    when it is read.

    An index gives one tuple; a slice, and ``take``, give a plain list from
    one unravel of the keys.  ``in``, ``index`` and ``position`` find a
    tuple by its key.  An ``Elements`` equals a list, or another
    ``Elements``, with the same tuples in the same order.  ``right_table``
    fills Cayley table columns from the keys with ``product_keys`` and a
    slot index, without a tuple product.
    """

    def __init__(self, keys: np.ndarray, modulus: int, q: int):
        self.keys = keys
        self.modulus = modulus
        self.q = q

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return self.take([i])[0]

    def take(self, indices) -> list[Mat]:
        """The tuples at indices (an index array or a slice), as a list."""
        entries = np.unravel_index(self.keys[indices], (self.modulus,) * 4)
        return list(zip(*(e.tolist() for e in entries)))

    def __iter__(self):
        # 4,096 tuples at a time: a pass never holds them all
        return chain.from_iterable(self.take(slice(start, start + 4096))
                                   for start in range(0, len(self), 4096))

    def __contains__(self, x) -> bool:
        try:
            self.position(x)
        except ValueError:
            return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, Elements)):
            return NotImplemented
        return len(self) == len(other) and all(
            x == y for x, y in zip(self, other))

    def position(self, x) -> int:
        """The index of the canonical tuple x, found by its row key;
        ValueError if x is not in the sequence."""
        try:
            hits = np.flatnonzero(
                self.keys == _row_keys(np.array([x]), self.modulus)[0])
        except (ValueError, TypeError):     # not four entries below modulus
            hits = ()
        if not len(hits):
            raise ValueError(f"{x!r} is not in the sequence")
        return int(hits[0])

    index = position

    def right_table(self, gens) -> np.ndarray:
        """int64 table[i, j] = index of self[i] * gens[j]; ValueError if an
        element repeats or a product is not in the sequence.

        Each element's index is written at its slot of a ``_slot_index``;
        a repeat is an index that does not read back.  Products are formed
        ``ROW_BLOCK`` rows at a time with ``product_keys``, and each is
        found at its slot and confirmed by its key."""
        n, modulus, q = len(self), self.modulus, self.q
        index = _slot_index(modulus, q)
        slots = _slots(self.keys, modulus, q)
        ids = np.arange(1, n + 1, dtype=np.int32)   # 0 marks a free slot
        index[slots] = ids
        if (index[slots] != ids).any():
            raise ValueError("duplicate elements")
        del slots, ids
        gens = canon_rows(np.asarray(gens, dtype=np.int64).reshape(-1, 4),
                          modulus, q)
        table = np.empty((n, len(gens)), dtype=np.int64)
        for start in range(0, n, ROW_BLOCK):
            rows = np.array(np.unravel_index(
                self.keys[start:start + ROW_BLOCK], (modulus,) * 4)).T
            keys = product_keys(rows, gens, modulus, q)
            found = index[_slots(keys, modulus, q)]
            block = np.subtract(found, 1, out=table[start:start + ROW_BLOCK])
            if not (found.all() and (self.keys[block] == keys).all()):
                raise ValueError("elements not closed under the generators")
        return table


def psl_elements(q: int, n: int) -> Elements:
    """Every element of PSL(2, Z/q^n) as a canonical tuple, in ascending
    order; ResourceLimitError above CAP elements.

    Enumerates SL matrices directly: with a a unit, d is determined by
    b, c; otherwise b must be a unit and c is determined by d.
    """
    modulus = q ** n
    expected = psl_order(q, n)
    if expected > CAP:
        raise ResourceLimitError(f"PSL(2, {q}^{n}) has {expected} > cap elements")
    _check_key_bound(modulus)
    inv = _unit_inverses(modulus, q)
    r = np.arange(modulus, dtype=np.int64)
    units, others = r[r % q != 0], r[r % q == 0]
    a, b, c = (x.ravel() for x in np.meshgrid(units, r, r, indexing="ij"))
    d = (1 + b * c) % modulus * inv[a] % modulus
    a2, b2, d2 = (x.ravel() for x in np.meshgrid(others, units, r, indexing="ij"))
    c2 = (a2 * d2 - 1) % modulus * inv[b2] % modulus
    rows = np.concatenate([np.stack([a, b, c, d], axis=1),
                           np.stack([a2, b2, c2, d2], axis=1)])
    keys = np.unique(_row_keys(_canon_reduced(rows, modulus, q), modulus))
    if len(keys) != expected:
        raise RuntimeError(f"PSL(2, {q}^{n}): {len(keys)} != {expected} elements")
    return Elements(keys, modulus, q)


def subgroup_closure(gens: list[Mat], modulus: int, q: int) -> Elements:
    """Breadth-first closure under right multiplication; insertion-ordered.

    Each BFS level is the frontier times the generators in row-major order,
    as ``product_keys`` gives them, ``ROW_BLOCK`` frontier rows at a time;
    its new elements are kept in order of first occurrence, which is the
    order of an element-at-a-time loop.  A product is new when its slot of
    a ``_slot_index`` is unmarked.  ResourceLimitError above
    KEY_MODULUS_LIMIT or SLOT_CAP, or past CAP elements.
    """
    ident = _row_keys(canon_rows([IDENT], modulus, q), modulus)
    gens = canon_rows(np.asarray(gens, dtype=np.int64).reshape(-1, 4),
                      modulus, q)
    shape = (modulus,) * 4
    seen = _slot_index(modulus, q)          # nonzero at an element's slot
    seen[_slots(ident, modulus, q)] = 1
    levels = [ident]
    count = 1
    while len(levels[-1]):
        new = []
        for start in range(0, len(levels[-1]), ROW_BLOCK):
            rows = np.array(np.unravel_index(
                levels[-1][start:start + ROW_BLOCK], shape)).T
            keys = product_keys(rows, gens, modulus, q).ravel()
            slots = _slots(keys, modulus, q)
            fresh = np.flatnonzero(seen[slots] == 0)
            # mark each unmarked slot with len(keys) - p for the smallest
            # position p that reaches it: the first occurrence
            marks = np.subtract(len(keys), fresh, dtype=np.int32)
            slots = slots[fresh]
            np.maximum.at(seen, slots, marks)
            new.append(keys[fresh[seen[slots] == marks]])
            count += len(new[-1])
            if count > CAP:
                raise ResourceLimitError(f"closure exceeded cap {CAP}")
        levels.append(np.concatenate(new))
    return Elements(np.concatenate(levels), modulus, q)


@dataclass(frozen=True)
class CongruenceKernel:
    """Elements of PSL(2, q^n) reducing to the identity at level k."""

    q: int
    n: int
    k: int
    elements: tuple[Mat, ...]

    @property
    def modulus(self) -> int:
        return self.q ** self.n

    def __len__(self) -> int:
        return len(self.elements)

    def is_abelian(self) -> bool:
        """Decided on ``kernel_generators``, after checking by closure that
        they span the kernel (RuntimeError if not)."""
        mod, q = self.modulus, self.q
        gens = kernel_generators(q, self.n, self.k)
        if not _spans(gens, self):
            raise RuntimeError(f"kernel_generators({q}, {self.n}, {self.k}) "
                               "does not span the kernel")
        return all(mat_mul(x, y, mod, q) == mat_mul(y, x, mod, q)
                   for x, y in combinations(gens, 2))

    def exponent_divides(self, e: int) -> bool:
        mod, q = self.modulus, self.q
        ident = canon(IDENT, mod, q)
        return all(mat_pow(x, e, mod, q) == ident for x in self.elements)


def kernel_enumerate(q: int, n: int, k: int) -> CongruenceKernel:
    """The kernel of reduction PSL(2, q^n) -> PSL(2, q^k), enumerated.

    Parametrised by I + q^k * [[x, y], [z, w]] with w forced by det = 1,
    giving exactly q^(3*(n-k)) elements.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    size = q ** (3 * (n - k))
    if size > CAP:
        raise ResourceLimitError(f"kernel size {size} exceeds cap {CAP}")
    modulus = q ** n
    qk = q ** k
    r = q ** (n - k)
    elems = []
    for x in range(r):
        top = 1 + qk * x
        top_inv = pow(top, -1, modulus)
        for y in range(r):
            for z in range(r):
                w = (-x + qk * y * z) * top_inv % r
                m = canon((top, qk * y, qk * z, 1 + qk * w), modulus, q)
                elems.append(m)
    if len(set(elems)) != size:
        raise RuntimeError(f"kernel has {len(set(elems))} != {size} elements")
    return CongruenceKernel(q=q, n=n, k=k, elements=tuple(elems))


def kernel_generators(q: int, n: int, k: int) -> tuple[Mat, Mat, Mat]:
    """I + q^k*E12, I + q^k*E21 and diag(1 + q^k, (1 + q^k)^-1) mod q^n.

    They generate the level-k kernel; ``is_abelian`` and
    ``gamma_image_check`` verify that by closure.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    modulus = q ** n
    qk = q ** k
    return (canon((1, qk, 0, 1), modulus, q),
            canon((1, 0, qk, 1), modulus, q),
            canon((1 + qk, 0, 0, pow(1 + qk, -1, modulus)), modulus, q))


def _spans(gens, kernel: CongruenceKernel) -> bool:
    closure = subgroup_closure(list(gens), kernel.modulus, kernel.q)
    return set(closure) == set(kernel.elements)


def normal_closure(gens: list[Mat], conjugators: list[Mat], modulus: int,
                   q: int) -> list[Mat]:
    """The smallest subgroup containing gens and normalised by conjugators.

    Re-closes until conjugating each generator by each conjugator adds
    nothing new; in a finite group g^-1 is a power of g, so that suffices.
    """
    pairs = [(mat_inv(g, modulus, q), g) for g in conjugators]
    gens = [canon(x, modulus, q) for x in gens]
    while True:
        closure = subgroup_closure(gens, modulus, q)
        new = {mat_mul(mat_mul(g_inv, x, modulus, q), g, modulus, q)
               for x in gens for g_inv, g in pairs} - set(closure)
        if not new:
            return closure
        gens += sorted(new)


def mgen_generators(q: int, n: int) -> tuple[Mat, Mat, Mat]:
    """Diagonal and unipotent generators of the level n-1 -> n kernel.

    For k <= n - 3 the diagonal generator equals, exactly mod q^n, the
    commutator of [[1, q^(k+1)], [0, 1]] and [[1, 0], [q^(n-k-2), 1]].
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    upper, lower, diag = kernel_generators(q, n, n - 1)
    return diag, upper, lower


def mgen_commutator_identity(q: int, n: int, k: int) -> bool:
    """Whether [[1+q^(n-1), 0], [0, 1-q^(n-1)]] equals the commutator of
    [[1, q^(k+1)], [0, 1]] and [[1, 0], [q^(n-k-2), 1]] mod q^n."""
    if not 0 <= k < n - 2:
        raise ValueError(f"need 0 <= k < n - 2, got k={k}, n={n}")
    modulus = q ** n
    upper = canon((1, q ** (k + 1), 0, 1), modulus, q)
    lower = canon((1, 0, q ** (n - k - 2), 1), modulus, q)
    diag = mgen_generators(q, n)[0]
    return commutator(upper, lower, modulus, q) == diag


@dataclass(frozen=True)
class GammaImageReport:
    q: int
    n: int
    k: int
    generated_order: int
    expected_order: int
    passed: bool


def gamma_image_check(q: int, n: int, k: int) -> GammaImageReport:
    """Check that q-th powers and commutators of the level-k kernel generate
    exactly the level-(k+1) kernel inside PSL(2, q^n).

    For K generated by S, K^q[K, K] is the normal closure in K of
    {s^q, [s, t] : s, t in S}: modulo that closure the generators commute
    and have order dividing q.  Verified: that the ``kernel_generators``
    triple S spans the enumerated level-k kernel, and that the normal
    closure of its three q-th powers and three commutators equals the
    independently enumerated level-(k+1) kernel.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    modulus = q ** n
    kernel = kernel_enumerate(q, n, k)
    target = set(kernel_enumerate(q, n, k + 1).elements)
    triple = kernel_generators(q, n, k)
    seeds = [mat_pow(s, q, modulus, q) for s in triple]
    seeds += [commutator(s, t, modulus, q) for s, t in combinations(triple, 2)]
    closure = normal_closure(seeds, list(triple), modulus, q)
    return GammaImageReport(q=q, n=n, k=k, generated_order=len(closure),
                            expected_order=len(target),
                            passed=_spans(triple, kernel)
                            and set(closure) == target)
