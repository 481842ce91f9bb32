"""Adjacency and Laplacian spectra, Ramanujan certification, eigenspace
decomposition along quotient maps, and non-backtracking walk traces.

The Laplacian is k*Id - A for a k-regular graph, so the two spectra are
mirror multisets.  The Ramanujan certificate reads the bound in the
adjacency view and raises unless the Laplacian reading agrees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .graphs import Graph, bfs_tree, covering_neighbours, fibers

# vertices of the largest graph solved densely: spectrum() solves the whole
# adjacency, and lift_decomposition one f x f matrix T for the characters of
# its f <= |G| sheets
DENSE_LIMIT = 4000
# per unit of degree, the residual that extreme_spectrum's certificate must
# reach before it stops: its Lanczos run goes on until T's estimates are 100
# times below it, and the measured residuals against A were 4e-15 to 6e-14
# on LPS graphs at q = 29, 41, 61 (seeds 0-9)
POLISHED_RESIDUAL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    values: tuple[float, ...]        # ascending
    operator: str                    # "adjacency" | "laplacian"
    k: int

    def adjacency_values(self) -> tuple[float, ...]:
        return self._as("adjacency")

    def laplacian_values(self) -> tuple[float, ...]:
        return self._as("laplacian")

    def _as(self, operator: str) -> tuple[float, ...]:
        """The values in the given view; the other view is their mirror k - v."""
        if self.operator == operator:
            return self.values
        return tuple(sorted(self.k - v for v in self.values))


@dataclass(frozen=True)
class ExtremeSpectrum:
    k: int
    n: int
    second_largest: float
    smallest: float
    residual_second: float
    residual_smallest: float


def spectrum(graph: Graph) -> Spectrum:
    """Full adjacency spectrum by a dense divide-and-conquer solve
    (|V| <= 4000), which deflates the repeated eigenvalues that symmetric
    graphs have in bulk; the residual is taken against the sparse adjacency.
    The extreme eigenvalues of larger graphs come from extreme_spectrum."""
    if graph.n > DENSE_LIMIT:
        raise ResourceLimitError(
            f"dense spectrum limited to {DENSE_LIMIT} vertices, got {graph.n}")
    from scipy.linalg import eigh

    # the adjacency is symmetric, so its transpose is the same matrix in the
    # Fortran order that LAPACK overwrites with the eigenvectors, uncopied
    vals, vecs = eigh(graph.adjacency_matrix().T, driver="evd",
                      overwrite_a=True)
    r = graph.sparse_adjacency() @ vecs
    r -= vecs * vals
    residual = float(np.abs(r, out=r).max())
    k = graph.k if graph.is_regular() else int(graph.degrees().max())
    if residual > 1e-9 * max(1, k):
        raise RuntimeError(f"dense solve residual {residual} too large")
    return Spectrum(values=tuple(float(v) for v in vals),
                    operator="adjacency", k=k)


def extreme_spectrum(graph: Graph, seed: int = 0) -> ExtremeSpectrum:
    """Second-largest and smallest adjacency eigenvalues of a regular graph,
    both from one Lanczos run on A restricted to the complement of the
    constant vector, the known top eigenvector (eigenvalue k).  The
    restriction is exact: A maps 1-perp to itself, and each step subtracts
    its vector's mean, so the constant direction cannot return by rounding
    even when every other eigenvalue is negative (K_n gives -1, not k).

    The first pass keeps the last three Lanczos vectors and the
    coefficients of the tridiagonal T: the plain three-term recurrence,
    without reorthogonalisation, checks T every 10 steps and stops once
    the bottom entries of T's two extreme eigenvectors, times the last
    beta, are 100 times below POLISHED_RESIDUAL, or when the Krylov space
    is exhausted.  A second pass regenerates the same Lanczos vectors from the
    stored coefficients and sums the two Ritz vectors, so memory stays O(n).
    T decides only when to stop: each value is the Rayleigh quotient of its
    Ritz vector, certified by its residual against A.  A run above
    POLISHED_RESIDUAL is followed by one more from the sum of its two Ritz
    vectors.

    Dot products are einsum reductions, not BLAS calls: on a 2-core host a
    BLAS dot in the loop doubled the CPU time of a q=29 solve, by waking
    OpenBLAS threads that then spin between the sparse matvecs."""
    from scipy.linalg import eigh_tridiagonal

    n = graph.n
    k = graph.k
    if n < 4:
        raise ValueError(f"{n} vertices leave {n - 1} dimensions off the "
                         "constant vector; a two-ended Krylov run needs 3: "
                         "use spectrum()")
    a = graph.sparse_adjacency()
    scale = max(1, k)

    def dot(u, v):
        return float(np.einsum("i,i", u, v))

    def unit(v):
        v = v - v.mean()
        return v / math.sqrt(dot(v, v))

    def lanczos(v, alphas, betas):
        """Yield v_0 = v, v_1, ... in 1-perp.  Coefficients past the end of
        alphas and betas are measured and appended, stored ones are reused,
        so a second run yields the same vectors bit for bit.  Returns at a
        breakdown, where the Krylov space is invariant."""
        prev, b = v, 0.0
        for j in itertools.count():
            yield v
            w = a @ v
            w -= w.mean()
            w -= b * prev
            if j == len(alphas):
                alphas.append(dot(w, v))
                w -= alphas[j] * v
                betas.append(math.sqrt(dot(w, w)))
                if betas[j] <= 1e-13 * scale:
                    return
            else:
                w -= alphas[j] * v
            w /= betas[j]
            prev, v, b = v, w, betas[j]

    def ritz(alphas, betas):
        """Eigenvectors s of T for its smallest and largest values, as two
        columns, and the residual estimates |beta_m s_m| of their Ritz
        pairs."""
        _, s = eigh_tridiagonal(alphas, betas[:-1])
        s = s[:, [0, -1]]
        return s, np.abs(betas[-1] * s[-1])

    def certified(vec):
        vec = unit(vec)
        av = a @ vec
        lam = dot(vec, av)
        av -= lam * vec
        return lam, math.sqrt(dot(av, av))

    v0 = unit(np.random.default_rng(seed).standard_normal(n))
    for _ in range(2):
        alphas, betas = [], []
        for j, _ in enumerate(lanczos(v0, alphas, betas)):
            # T has j rows once v_j is out
            if j == n - 1 or j and j % 10 == 0 and ritz(alphas, betas)[1].max() \
                    <= 1e-2 * POLISHED_RESIDUAL * scale:
                break
        s, _ = ritz(alphas, betas)
        vecs = np.zeros((2, n))
        for row, v in zip(s, lanczos(v0, alphas, betas)):
            for vec, c in zip(vecs, row):
                vec += c * v
        smallest, res_s = certified(vecs[0])
        second, res2 = certified(vecs[1])
        if max(res2, res_s) <= POLISHED_RESIDUAL * scale:
            break
        v0 = unit(vecs.sum(axis=0))
    if max(res2, res_s) > 1e-7 * scale:
        raise RuntimeError(f"extreme solve residual too large: {res2}, {res_s}")
    return ExtremeSpectrum(k=k, n=n, second_largest=second, smallest=smallest,
                           residual_second=res2, residual_smallest=res_s)


@dataclass(frozen=True)
class RamanujanCertificate:
    k: int
    bound: float
    passed: bool
    margin: float
    bipartite: bool
    tolerance: float


def ramanujan_check(graph: Graph, spec, tolerance: float = 1e-9) -> RamanujanCertificate:
    """Certify that all nontrivial eigenvalues lie within 2*sqrt(k-1) of zero
    in the adjacency view, equivalently inside [k - 2 sqrt(k-1), k + 2 sqrt(k-1)]
    in the Laplacian view."""
    if not graph.is_connected():
        raise ValueError("certificate requires a connected graph")
    k = graph.k
    bound = 2 * math.sqrt(k - 1)
    bipartite = graph.is_bipartite()
    if isinstance(spec, ExtremeSpectrum):
        top = spec.second_largest
        bottom = -top if bipartite else spec.smallest   # bipartite: symmetric
    else:
        adj = spec.adjacency_values()   # [-1] is k; [0] is -k if bipartite
        top = adj[-2]
        bottom = adj[1] if bipartite else adj[0]
    worst = max(top, -bottom, 0.0)      # 0.0 for K2: nothing is nontrivial
    passed = worst <= bound + tolerance
    # the Laplacian reading of the same bound must agree
    if (k - worst >= k - bound - tolerance) != passed:
        raise RuntimeError("adjacency and Laplacian readings of the Ramanujan "
                           "bound disagree")
    return RamanujanCertificate(k=k, bound=bound, passed=passed,
                                margin=bound - worst, bipartite=bipartite,
                                tolerance=tolerance)


# --- lift / relative decomposition along a quotient map ---------------------


@dataclass(eq=False)
class LiftDecomposition:
    lifted: Spectrum                 # laplacian values, |H| of them
    relative: Spectrum               # laplacian values, |G| - |H| of them
    epsilon: float                   # min of the relative part, +inf if empty
    vertex: np.ndarray               # [b, s]: the vertex of g over b on sheet s
    # [c, s]: the vector of character c is omega^exponents[c, s] / sqrt(f)
    exponents: np.ndarray
    vectors: np.ndarray              # [c]: eigenvectors of character c's block
    # [i]: c |H| + j, the i-th smallest relative value being eigenvalue j of
    # character c's block (a stable sort)
    order: np.ndarray

    def relative_vectors(self, count: int | None = None) -> np.ndarray:
        """The complex relative eigenvectors on g of the first ``count``
        (default: all) relative values, as columns in that order: the column
        of character c and block eigenvector w is w(b) u_c(s) at the vertex
        over b on sheet s."""
        picked = self.order[:count]
        n_base, f = self.vertex.shape
        c, j = np.divmod(picked, n_base)
        u = np.exp(2j * np.pi / f * self.exponents[c]) / math.sqrt(f)
        values = self.vectors[c, :, j][:, :, None] * u[:, None, :]
        out = np.zeros((self.vertex.size, len(picked)), dtype=complex)
        out[self.vertex.ravel()] = \
            values.reshape(len(picked), self.vertex.size).T
        return out


def lift_decomposition(g: Graph, h: Graph, fiber_map) -> LiftDecomposition:
    """Split the Laplacian spectrum of g into the part lifted from h
    (functions constant on fibers) and the relative part (functions with zero
    fiber sums).  The lifted part is the spectrum of h.  ValueError unless g
    is connected with commuting monodromy, as every homology cover is;
    ResourceLimitError above DENSE_LIMIT vertices.

    No |G|-square matrix is formed.  Lifting a BFS spanning tree of h labels
    each vertex of g by (base vertex, sheet), and each arc e of h then moves
    the f sheets by a permutation P_e, so that L_g = k - sum_e E_bb' (x) P_e.
    Each nontrivial character c of the monodromy has a vector u_c with
    P_e u_c = chi_c(e) u_c, so C^|H| (x) u_c carries one |H|-row block
    k - sum_e chi_c(e) E_bb'; one batched eigh solves the f - 1 blocks.

    Certificates: an integer read-back of u_c[P_e] = chi_c(e) u_c on every
    arc e, with P_e from g's own arcs, for f - 1 distinct nontrivial
    characters makes the u_c an exact orthonormal basis of 1-perp.  The
    block eigenvectors are orthonormal, and sqrt(|G|) times the largest
    residual over the lifted and relative eigenpairs (on g, that of the base
    or block eigenvector, up to the rounding of the roots of unity), which
    bounds (Weyl) how far each eigenvalue of L_g lies from the returned one
    of the same rank, is at most 1e-9 * k."""
    if g.n > DENSE_LIMIT:
        raise ResourceLimitError(
            f"lift decomposition limited to {DENSE_LIMIT} vertices, got {g.n}")
    from scipy.linalg import eigh

    if len(fiber_map) != g.n:
        raise ValueError("fiber map must assign every vertex of g")
    blocks = fibers(fiber_map, h.n)
    k = g.k
    if h.k != k:
        raise ValueError("base and total graph must share the regularity")
    # nbr[u, j] is the neighbour of u over the j-th neighbour of its base
    nbr = covering_neighbours(g, h, fiber_map).reshape(g.n, h.k)
    if not g.is_connected():
        raise ValueError("lift decomposition needs a connected cover")
    vertex, perms, arc_perm = _sheets(h, nbr, blocks)
    f = blocks.shape[1]
    sheet = np.empty(g.n, dtype=np.int64)
    sheet[vertex] = np.arange(f)
    # [i, s]: the sheet of g's neighbour of the vertex on sheet s along arc i
    moves = sheet[nbr[vertex].transpose(0, 2, 1).reshape(-1, f)]

    lap_h = k * np.eye(h.n) - h.adjacency_matrix()
    h_vals, h_vecs = eigh(lap_h, driver="evd")
    worst = np.linalg.norm(lap_h @ h_vecs - h_vecs * h_vals, axis=0).max(
        initial=0.0)

    labels, exponents = _characters(perms, f)
    # [c, i]: chi_c on arc i of h is omega^volt[c, i], omega = exp(2 pi i / f)
    volt = labels[:, arc_perm]
    readback = exponents[:, moves] - exponents[:, None] - volt[:, :, None]
    if len(np.unique(volt, axis=0)) != f - 1 or len(volt) != f - 1 \
            or not volt.any(axis=1).all() or (readback % f).any():
        raise RuntimeError("lifted and relative parts do not recombine: the "
                           "characters do not read back against g's arcs")
    src, dst = h.arcs()
    diag = np.arange(h.n)
    op = np.zeros((f - 1, h.n, h.n), dtype=complex)
    op[:, src, dst] = -np.exp(2j * np.pi / f * volt)
    op[:, diag, diag] = k
    vals, vecs = np.linalg.eigh(op)
    gram = vecs.conj().transpose(0, 2, 1) @ vecs
    if np.abs(gram - np.eye(h.n)).max(initial=0.0) > 1e-9:
        raise RuntimeError("block eigenvectors are not orthonormal")
    residual = np.linalg.norm(op @ vecs - vecs * vals[:, None], axis=1)
    worst = max(worst, residual.max(initial=0.0))
    if math.sqrt(g.n) * worst > 1e-9 * max(1, k):
        raise RuntimeError(f"lifted and relative parts do not recombine: "
                           f"Weyl bound {math.sqrt(g.n) * worst:.3g}")
    rel_vals = vals.ravel()
    order = np.argsort(rel_vals, kind="stable")
    rel_vals = rel_vals[order]

    return LiftDecomposition(
        lifted=Spectrum(values=tuple(float(v) for v in h_vals),
                        operator="laplacian", k=k),
        relative=Spectrum(values=tuple(float(v) for v in rel_vals),
                          operator="laplacian", k=k),
        epsilon=float(rel_vals[0]) if len(rel_vals) else math.inf,
        vertex=vertex, exponents=exponents, vectors=vecs, order=order)


def _sheets(h: Graph, nbr: np.ndarray,
            blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vertex, perms, arc_perm): vertex[b, s] is the vertex of g over b on
    sheet s, and arc i of h, in h.arcs() order, carries sheet s to sheet
    perms[arc_perm[i], s]; perms holds each distinct permutation once.
    nbr[u, j] is the neighbour of u over the j-th neighbour of its base
    vertex, as covering_neighbours gives it, and h is connected.
    ValueError unless the permutations commute.

    The sheets over vertex 0 are its row of blocks, and each arc of a BFS
    spanning tree of h carries them unchanged to the child."""
    f = blocks.shape[1]
    _, parent, via, depth = bfs_tree(h.indptr, h.indices, 0)
    vertex = blocks.copy()
    for d in range(1, int(depth.max()) + 1):
        level = np.flatnonzero(depth == d)
        vertex[level] = nbr[vertex[parent[level]], via[level, None]]
    sheet = np.empty(len(nbr), dtype=np.int64)
    sheet[vertex] = np.arange(f)
    # [i, s]: the neighbour of the vertex on sheet s along arc i of h
    heads = nbr[vertex].transpose(0, 2, 1).reshape(-1, f)
    perms, arc_perm = np.unique(sheet[heads], axis=0, return_inverse=True)
    arc_perm = arc_perm.ravel()
    if not np.array_equal(vertex[h.indices[:, None], perms[arc_perm]], heads):
        raise RuntimeError("sheet labels and arc permutations do not "
                           "rebuild g")
    for p in perms:
        if not np.array_equal(perms[:, p], p[perms]):
            raise ValueError("the cover's monodromy does not commute")
    return vertex, perms, arc_perm


def _characters(perms: np.ndarray, f: int) -> tuple[np.ndarray, np.ndarray]:
    """(labels, exponents) of the nontrivial characters of the abelian group
    that perms generate on the f sheets, uncertified: with
    omega = exp(2 pi i / f), u_c(s) = omega^exponents[c, s] / sqrt(f) has
    u_c[perms[j]] = omega^labels[c, j] u_c.

    The eigenvectors of T = sum_j c_j (P_j + P_j^T) + i d_j (P_j - P_j^T),
    for fixed generic c, d, are joint eigenvectors up to rounding; their
    Rayleigh quotients u* P_j u, rounded to f-th roots of unity, stay exact
    where two values of T nearly coincide and their eigenvectors mix.  The
    exponents follow the labels along a BFS tree of the sheets."""
    from scipy.linalg import eigh

    c, d = np.random.default_rng(0).random((2, len(perms)))
    # T = M + M^H with M = sum_j (c_j + i d_j) P_j, (P x)[s] = x[P[s]]
    t = np.zeros((f, f), dtype=complex)
    np.add.at(t, (np.tile(np.arange(f), len(perms)), perms.ravel()),
              np.repeat(c + 1j * d, f))
    _, u = eigh(t + t.conj().T)
    quotients = np.array([np.einsum("sc,sc->c", u.conj(), u[p])
                          for p in perms]).T
    labels = np.rint(np.angle(quotients) * f / (2 * np.pi)) % f
    labels = labels[labels.any(axis=1)].astype(np.int64)
    # sheet perms[j, s] is row s, column j of a generator table
    _, parent, via, depth = bfs_tree(
        np.arange(0, perms.size + 1, len(perms)), perms.T.ravel(), 0)
    exponents = np.zeros((len(labels), f), dtype=np.int64)
    for level in range(1, int(depth.max()) + 1):
        at = np.flatnonzero(depth == level)
        exponents[:, at] = (exponents[:, parent[at]] + labels[:, via[at]]) % f
    return labels, exponents


# --- non-backtracking walk traces -------------------------------------------


@dataclass(frozen=True)
class TraceSequence:
    """exact[m] counts closed non-backtracking walks of length exactly m;
    cumulative[m] = exact[m] + exact[m-2] + ... matches the spectral sum
    sum_j p^(m/2) sin((m+1) theta_j) / sin(theta_j)."""

    exact: tuple[int, ...]
    cumulative: tuple[int, ...]
    p: int
    k: int


def nb_trace(graph: Graph, M: int) -> TraceSequence:
    """Traces of the non-backtracking operators via the recursion
    T0 = Id, T1 = A, T2 = A^2 - (p+1) Id, T_m = A T_{m-1} - p T_{m-2}."""
    k = graph.k
    p = k - 1
    n = graph.n
    nbrs = graph.indices.reshape(n, k)
    # |A T_{m-1}| < 2 k^m; Python ints take over where int64 could overflow
    dtype = np.int64 if k ** (M + 1) < 2 ** 62 else object
    sources = [0] if graph.vertex_transitive else range(n)
    scale = n if graph.vertex_transitive else 1
    diag = [0] * (M + 1)
    for s in sources:
        t_prev = np.zeros(n, dtype=dtype)
        t_prev[s] = 1
        diag[0] += 1
        if M == 0:
            continue
        t_cur = np.zeros(n, dtype=dtype)
        t_cur[nbrs[s]] = 1
        diag[1] += int(t_cur[s])
        for m in range(2, M + 1):
            c = p + 1 if m == 2 else p
            t_prev, t_cur = t_cur, t_cur[nbrs].sum(axis=1) - c * t_prev
            diag[m] += int(t_cur[s])
    exact = tuple(v * scale for v in diag)
    cum = list(exact)
    for m in range(2, M + 1):
        cum[m] += cum[m - 2]
    return TraceSequence(exact=exact, cumulative=tuple(cum), p=p, k=k)


def nb_spectral_formula(adjacency_values, p: int, M: int) -> list[float]:
    """sum_j p^(m/2) sin((m+1) theta_j)/sin(theta_j) with mu = 2 sqrt(p) cos(theta),
    using the sinh form for |mu| > 2 sqrt(p)."""
    out = []
    root = 2 * math.sqrt(p)
    for m in range(M + 1):
        total = 0.0
        for mu in adjacency_values:
            x = mu / root
            sign = 1.0 if (x >= 0 or m % 2 == 0) else -1.0
            ax = abs(x)
            if ax >= 1 - 1e-12:
                if ax <= 1 + 1e-12:
                    ratio = float(m + 1)
                else:
                    psi = math.acosh(ax)
                    ratio = math.sinh((m + 1) * psi) / math.sinh(psi)
            else:
                theta = math.acos(ax)
                ratio = math.sin((m + 1) * theta) / math.sin(theta)
            total += sign * p ** (m / 2) * ratio
        out.append(total)
    return out


def eigenvalue_threshold() -> float:
    """The constant 5^(71/72) + 5^(1/72); evaluates below 6."""
    return 5 ** (71 / 72) + 5 ** (1 / 72)


@dataclass(frozen=True)
class TraceAuditReport:
    checks: tuple[tuple[int, int, int], ...]   # (m, A * f(m), trace m)
    passed: bool
    threshold: float
    threshold_below_6: bool
    psi: float
    cosh_bound: float


def trace_inequality_audit(loop_counts, index_a: int, trace: TraceSequence,
                           top_eigenvalue: float | None = None) -> TraceAuditReport:
    """Verify index * f(m) >= cumulative trace for every supplied m, and
    evaluate the cosh form of the eigenvalue bound."""
    checks = []
    ok = True
    for m in sorted(loop_counts):
        lhs = index_a * loop_counts[m]
        rhs = trace.cumulative[m]
        checks.append((m, lhs, rhs))
        ok = ok and lhs >= rhs
    threshold = eigenvalue_threshold()
    root = 2 * math.sqrt(5)
    if top_eigenvalue is None or top_eigenvalue <= root:
        psi = 0.0
    else:
        psi = math.acosh(top_eigenvalue / root)
    cosh_bound = root * math.cosh(psi)
    return TraceAuditReport(checks=tuple(checks), passed=ok,
                            threshold=threshold,
                            threshold_below_6=threshold < 6,
                            psi=psi, cosh_bound=cosh_bound)


def write_spectrum_csv(spec: Spectrum, path: str) -> None:
    """CSV rows (eigenvalue, multiplicity), grouping values within 1e-8."""
    groups: list[list[float]] = []
    for v in spec.values:
        if groups and abs(v - groups[-1][-1]) <= 1e-8:
            groups[-1].append(v)
        else:
            groups.append([v])
    with open(path, "w") as fh:
        fh.write("eigenvalue,multiplicity\n")
        for grp in groups:
            fh.write(f"{sum(grp) / len(grp):.12g},{len(grp)}\n")
