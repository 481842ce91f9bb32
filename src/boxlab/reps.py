"""Irreducible representations of the upper-triangular congruence groups.

The group at parameters (q, k, n) consists of pairs (a, b) with a a unit
congruent to 1 mod q^k and b congruent to 0 mod q^k, both mod q^n, composing
as the matrices [[a, b], [0, a^-1]].  Every irreducible representation here
is monomial, so matrices are stored exactly as a basis permutation plus
root-of-unity exponents mod q^n; floats only enter the orthogonality audit.

The dimension law (probe level l on the unipotent part forces dimension
q^(n-2k-l)) is the checkable ingredient behind lower bounds on
representations of the much larger quotient groups, whose restriction to the
subgroup at parameters (k+1, n) with probe level k+1 has dimension
q^(n-3k-3); those quotients themselves are far beyond enumeration.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .errors import ResourceLimitError
from .zmod import require_odd_prime

Element = tuple[int, int]

ORACLE_CAP = 1000
GROUP_CAP = 10 ** 6


@dataclass(eq=False)
class BorelGroup:
    q: int
    k: int
    n: int
    elements: list[Element]
    # int64 tables by a value: exponent of 1 + q^k and a^-1 (-1 and 0 off
    # the group; mul and Irrep.matrices raise there)
    beta_of: np.ndarray = field(repr=False)
    a_inv: np.ndarray = field(repr=False)

    @property
    def modulus(self) -> int:
        return self.q ** self.n

    @property
    def order(self) -> int:
        return len(self.elements)

    def _unit_inverse(self, a: int) -> int:
        """a^-1 mod q^n; ValueError unless a is a power of 1 + q^k."""
        if not 0 <= a < self.modulus or self.beta_of[a] < 0:
            raise ValueError(f"a = {a} is not a power of 1 + q^k "
                             f"mod {self.modulus}")
        return int(self.a_inv[a])

    def mul(self, g: Element, h: Element) -> Element:
        a, b = g
        a2, b2 = h
        mod = self.modulus
        self._unit_inverse(a)             # g off the group raises too
        return (a * a2 % mod, (a * b2 + b * self._unit_inverse(a2)) % mod)


def borel_group(q: int, k: int, n: int) -> BorelGroup:
    """Full enumeration; the order is q^(2(n-k))."""
    require_odd_prime(q)
    if not 0 < 2 * k <= n:
        raise ValueError(f"need 0 < 2k <= n, got k={k}, n={n}")
    order = q ** (2 * (n - k))
    if order > GROUP_CAP:
        raise ResourceLimitError(f"group order {order} exceeds cap {GROUP_CAP}")
    mod = q ** n
    gen = 1 + q ** k
    powers = [1]
    while len(powers) < q ** (n - k):
        powers.append(powers[-1] * gen % mod)
    if powers[-1] * gen % mod != 1:
        raise RuntimeError("1 + q^k must have order q^(n-k)")
    beta_of = np.full(mod, -1, dtype=np.int64)
    beta_of[powers] = np.arange(len(powers))
    a_inv = np.zeros(mod, dtype=np.int64)
    a_inv[powers] = [pow(a, -1, mod) for a in powers]
    elements = [(a, b) for a in powers for b in range(0, mod, q ** k)]
    if len(elements) != order:
        raise RuntimeError(f"{len(elements)} elements, expected order {order}")
    return BorelGroup(q=q, k=k, n=n, elements=elements, beta_of=beta_of,
                      a_inv=a_inv)


# --- monomial representations ------------------------------------------------

@dataclass(eq=False)
class Irrep:
    """One irreducible representation, evaluated on demand.

    kind "character": the base abelian case n = 2k, parameters (j, jp)
    giving the character exp(2 pi i (beta j + btilde jp) / q^k).
    kind "induced": parameters (j, jp) with j not divisible by q; acts on
    basis {x = j mod q^k} by (a, b): xi_x -> phase(a^-1 b x) xi_(a^-2 x),
    tensored with the diagonal character of index jp.
    kind "lift": a level n-1 irrep precomposed with reduction, tensored with
    the diagonal character of index j in [0, q).
    """

    group: BorelGroup
    kind: str
    dim: int
    j: int | None = None
    jp: int | None = None
    base: "Irrep | None" = None
    rep_id: str = ""

    def matrices(self, elements) -> tuple[np.ndarray, np.ndarray]:
        """Batch matrix: int64 perm and phases of shape (len(elements), dim),
        where at elements[i] basis vector c goes to basis vector perm[i, c]
        times exp(2 pi i phases[i, c] / q^n); elements may be an (m, 2)
        array."""
        group = self.group
        q, k, n = group.q, group.k, group.n
        mod = group.modulus
        a, b = np.asarray(elements, dtype=np.int64).reshape(-1, 2).T
        beta = group.beta_of[a % mod]
        if (beta < 0).any() or (a % mod != a).any():
            raise ValueError("an element's a value is not a power of 1 + q^k")
        step = q ** k
        # the diagonal character that twists induced and lift
        rho = beta[:, None] * (self.jp if self.kind == "induced" else self.j) \
            * step % mod
        if self.kind == "character":
            expo = (beta * self.j + b // step * self.jp) * q ** (n - k) % mod
            return np.zeros((len(a), 1), dtype=np.int64), expo[:, None]
        if self.kind == "induced":
            ainv = group.a_inv[a]
            r = q ** (n - k)
            x = self.j + step * np.arange(self.dim)
            target = (ainv * ainv % r)[:, None] * x % r
            return ((target - self.j) // step,
                    ((ainv * b % mod)[:, None] * x + rho) % mod)
        if self.kind == "lift":
            perm, phases = self.base.matrices(np.c_[a, b] % q ** (n - 1))
            return perm, (phases * q + rho) % mod
        raise ValueError(f"unknown kind {self.kind!r}")

    def characters(self, elements) -> np.ndarray:
        """Batch character: entry i is the character at elements[i], the sum
        in column order of exp(2 pi i p / q^n) over the fixed columns'
        phases p."""
        perm, phases = self.matrices(elements)
        mod = self.group.modulus
        fixed = perm == np.arange(self.dim)
        roots = np.zeros(mod, dtype=complex)
        for p in np.unique(phases[fixed]).tolist():
            roots[p] = cmath.exp(2j * cmath.pi * p / mod)
        out = np.zeros(len(perm), dtype=complex)
        for c in range(self.dim):
            out[fixed[:, c]] += roots[phases[fixed[:, c], c]]
        return out


def induced_rep(group: BorelGroup, j: int, jp: int = 0) -> Irrep:
    """Induced representation on basis {x = j mod q^k}; j must not be
    divisible by q."""
    q, k, n = group.q, group.k, group.n
    if not 0 <= j < q ** k:
        raise ValueError(f"j out of range: {j}")
    if j % q == 0:
        raise ValueError(f"induced representation needs j nonzero mod q, got {j}")
    return Irrep(group=group, kind="induced", dim=q ** (n - 2 * k), j=j, jp=jp,
                 rep_id=f"ind(j={j})*diag(j'={jp})")


def _inventory(group: BorelGroup) -> list[Irrep]:
    q, k, n = group.q, group.k, group.n
    if n == 2 * k:
        return [Irrep(group=group, kind="character", dim=1, j=c, jp=d,
                      rep_id=f"char(c={c},d={d})")
                for c in range(q ** k) for d in range(q ** k)]
    out = [induced_rep(group, j, jp)
           for j in range(q ** k) if j % q
           for jp in range(q ** k)]
    lower = borel_group(q, k, n - 1)
    for sigma in _inventory(lower):
        for j in range(q):
            out.append(Irrep(group=group, kind="lift", dim=sigma.dim, j=j,
                             base=sigma,
                             rep_id=f"lift[{sigma.rep_id}]*diag(j={j})"))
    return out


@dataclass(eq=False)
class CharacterTable:
    group: BorelGroup
    irreps: tuple[Irrep, ...]
    char_matrix: np.ndarray          # irreps x elements
    gram_defect: float

    def dimensions(self) -> Counter[int]:
        return Counter(r.dim for r in self.irreps)


def irrep_inventory(group: BorelGroup) -> CharacterTable:
    """Full inventory with completeness and orthonormality audits; failure of
    either is a construction bug and raises.

    The Gram matrix comes from scipy's zherk, the BLAS that the oracle's eigh
    runs on: numpy bundles a second OpenBLAS, whose thread pool would contend
    with scipy's for the cores."""
    from scipy.linalg.blas import zherk

    irreps = tuple(_inventory(group))
    total = sum(r.dim ** 2 for r in irreps)
    if total != group.order:
        raise RuntimeError(
            f"completeness failure: sum of squared dimensions {total} != "
            f"group order {group.order}")
    chars = np.array([r.characters(group.elements) for r in irreps])
    # chars.T is the table's own F-ordered view; zherk fills only the upper
    # triangle, of conj(chars @ chars^H), whose moduli are the Gram's
    gram = np.triu(zherk(1.0, chars.T, trans=2)) / group.order
    gram[np.diag_indices_from(gram)] -= 1
    defect = float(np.abs(gram).max())
    if defect > 1e-9:
        raise RuntimeError(f"character orthonormality defect {defect}")
    return CharacterTable(group=group, irreps=irreps, char_matrix=chars,
                          gram_defect=defect)


def dimension_by_level(group: BorelGroup, irrep: Irrep) -> tuple[int, int]:
    """Probe level and predicted dimension.

    s is the least exponent with the representation trivial on
    [[1, q^s], [0, 1]]; the reported level is l = min(n - s, n - 2k), and the
    predicted dimension q^(n - 2k - l) must match.  The cap applies only to
    one-dimensional representations that are trivial on the whole unipotent
    part earlier than the classification range covers.
    """
    q, k, n = group.q, group.k, group.n
    perm, phases = irrep.matrices(
        [(1, q ** s % group.modulus) for s in range(k, n + 1)])
    # the last probe, s = n, is the identity, so some probe is trivial
    s = k + int(np.argmax((perm == np.arange(irrep.dim)).all(axis=1)
                          & ~phases.any(axis=1)))
    level = min(n - s, n - 2 * k)
    return level, q ** (n - 2 * k - level)


def classify_all(table: CharacterTable) -> list[tuple[str, int, int]]:
    """(rep id, probe level, dimension) with the dimension law asserted."""
    out = []
    for r in table.irreps:
        level, predicted = dimension_by_level(table.group, r)
        if predicted != r.dim:
            raise RuntimeError(
                f"dimension law fails for {r.rep_id}: level {level}, "
                f"predicted {predicted}, actual {r.dim}")
        out.append((r.rep_id, level, r.dim))
    return out


# --- numeric oracle -----------------------------------------------------------


def brute_force_irreps(elements, mul) -> dict[int, int]:
    """Irreducible dimensions with multiplicities, found by diagonalising a
    random self-adjoint operator commuting with the left regular
    representation.  Eigenvalue multiplicities of such an operator are the
    irreducible dimensions, each dimension d occurring d times per
    irreducible of that dimension.

    The product table is filled from greedy generator columns along a BFS
    tree; ValueError if mul disagrees on a spot-checked row or is not closed.
    The operator is one Fortran-ordered |G|-square array, scattered from
    that table, which LAPACK solves in place."""
    from scipy.linalg import eigh

    elements = list(elements)
    size = len(elements)
    if size > ORACLE_CAP:
        raise ResourceLimitError(f"group order {size} exceeds cap {ORACLE_CAP}")
    columns = graphs.generator_table(elements, mul, elements[:1])[1]
    # the identity x is the one with x * elements[0] = elements[0]
    identity = int(graphs.inverse_permutations(columns)[0, 0])
    while True:
        order, parent, via, _ = graphs.bfs_tree(
            np.arange(size + 1) * columns.shape[1], columns.ravel(), identity)
        if (parent >= 0).all():
            break
        gen = elements[int(np.argmin(parent >= 0))]     # first unreached
        columns = np.hstack([columns, graphs.generator_table(
            elements, mul, [gen])[1]])
    # [i, c] = idx(e_i order[c]), in tree_products' own BFS column order
    table = graphs.tree_products(columns, order, parent, via)
    for i in range(size - 1, -1, -graphs.SPOT_STRIDE):
        for v, iv in zip(order.tolist(), table[i].tolist()):
            if mul(elements[i], elements[v]) != elements[iv]:
                raise ValueError(f"mul disagrees with the generator-filled "
                                 f"table at {elements[i]!r} * {elements[v]!r}")
    rows, cols = np.nonzero(table == identity)
    if not np.array_equal(rows, np.arange(size)):
        raise ValueError("a product table row has no unique identity")
    inv = order[cols]

    for seed in range(5):
        rng = np.random.default_rng(seed)
        y = np.zeros(size, dtype=complex)
        for i in range(size):
            if y[i] != 0:
                continue
            if inv[i] == i:
                y[i] = rng.standard_normal()
            else:
                z = rng.standard_normal() + 1j * rng.standard_normal()
                y[i] = z
                y[inv[i]] = z.conjugate()
        # [i, j] = y(e_i^-1 e_j), as e_j = e_i order[c] at j = table[i, c]:
        # Hermitian, and it commutes with left translation
        op = np.empty((size, size), dtype=complex, order="F")
        np.put_along_axis(op, table, y[order][None, :], axis=1)
        vals = eigh(op, eigvals_only=True, overwrite_a=True, driver="evd")
        tol = 1e-6 * max(1.0, float(np.abs(vals).max()))
        # a cluster ends where the next eigenvalue is more than tol above
        ends = np.flatnonzero(np.append(np.diff(vals) > tol, True))
        counts = Counter(np.diff(ends, prepend=-1).tolist())
        if any(c % d for d, c in counts.items()):
            continue
        dims = {d: c // d for d, c in counts.items()}
        if sum(d * d * c for d, c in dims.items()) == size:
            return dims
    raise RuntimeError("eigenvalue clustering failed after retries")
