"""Adjacency and Laplacian spectra, Ramanujan certification, eigenspace
decomposition along quotient maps, and non-backtracking walk traces.

The Laplacian is k*Id - A for a k-regular graph, so the two spectra are
mirror multisets and either view may be checked; both are implemented and
checked equivalent in the Ramanujan certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .graphs import Graph

DENSE_LIMIT = 4000
# per unit of degree; converged extreme_spectrum residuals measured 1.1e-14
# or less on LPS graphs up to q=61
POLISHED_RESIDUAL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    values: tuple[float, ...]        # ascending
    operator: str                    # "adjacency" | "laplacian"
    k: int
    residual: float = 0.0

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
    """Full adjacency spectrum by a dense solve (|V| <= 4000); the extreme
    eigenvalues of larger graphs come from extreme_spectrum."""
    if graph.n > DENSE_LIMIT:
        raise ValueError(f"dense spectrum limited to {DENSE_LIMIT} vertices")
    from scipy.linalg import eigh

    a = graph.adjacency_matrix()
    vals, vecs = eigh(a)
    residual = float(np.abs(a @ vecs - vecs * vals).max())
    k = graph.k if graph.is_regular() else int(graph.degrees().max())
    if residual > 1e-9 * max(1, k):
        raise RuntimeError(f"dense solve residual {residual} too large")
    return Spectrum(values=tuple(float(v) for v in vals),
                    operator="adjacency", k=k, residual=residual)


def extreme_spectrum(graph: Graph, seed: int = 0) -> ExtremeSpectrum:
    """Second-largest and smallest adjacency eigenvalues of a regular graph,
    both from one restarted Krylov run (``which="BE"``) on A restricted to
    the complement of the constant vector, the known top eigenvector
    (eigenvalue k).  The restriction is exact: the operator acts on
    coordinates in a Householder basis of that complement, so the constant
    direction is not in its space even when every other eigenvalue is
    negative.  Each value is the Rayleigh quotient of its lifted vector,
    certified by its residual against A.

    A two-ended run keeps only its two wanted Ritz values across restarts,
    and its Ritz vectors can stop short of rounding level: at q=29, 3 of 8
    seeds left a residual near 2e-10.  A run above POLISHED_RESIDUAL is
    followed by one more from the sum of its two Ritz vectors, which took
    39 matvecs in those cases."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = graph.n
    k = graph.k
    if n < 4:
        raise ValueError(f"{n} vertices leave {n - 1} dimensions off the "
                         "constant vector; a two-ended Krylov run needs 3: "
                         "use spectrum()")
    a = graph.sparse_adjacency()
    # H = I - 2 u u^T / |u|^2 with u = e_0 + r*1, r = 1/sqrt(n), swaps -e_0
    # and the unit constant vector, so its columns 1..n-1 are an orthonormal
    # basis of 1-perp.  u.v is taken as a sum, not a BLAS dot: on a 2-core
    # host a BLAS call inside the matvec made each Lanczos step about 3x
    # slower, by waking OpenBLAS threads between ARPACK's own BLAS calls.
    r = 1 / math.sqrt(n)

    def reflect(v):
        s = (v.sum() * r + v[0]) / (1 + r)      # 2 u.v / |u|^2
        w = v - s * r
        w[0] -= s
        return w

    def lift(y):
        return reflect(np.concatenate(([0.0], np.ravel(y))))

    def certified(y):
        vec = lift(y)
        vec /= np.linalg.norm(vec)
        lam = float(vec @ (a @ vec))
        res = float(np.linalg.norm(a @ vec - lam * vec))
        return lam, res

    op = LinearOperator((n - 1, n - 1), matvec=lambda y: reflect(a @ lift(y))[1:],
                        dtype=float)
    rng = np.random.default_rng(seed)
    v0 = reflect(rng.standard_normal(n))[1:]
    for _ in range(2):
        vals, vecs = eigsh(op, k=2, which="BE", v0=v0, tol=0)
        smallest, res_s = certified(vecs[:, np.argmin(vals)])
        second, res2 = certified(vecs[:, np.argmax(vals)])
        if max(res2, res_s) <= POLISHED_RESIDUAL * max(1, k):
            break
        v0 = vecs.sum(axis=1)
    if max(res2, res_s) > 1e-7 * max(1, k):
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
    mode: str

    def to_json(self) -> dict:
        return asdict(self)


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
        extremes = [spec.second_largest]
        if not bipartite:
            extremes.append(-spec.smallest)
        worst = max(extremes)
        return RamanujanCertificate(k=k, bound=bound,
                                    passed=worst <= bound + tolerance,
                                    margin=bound - worst, bipartite=bipartite,
                                    tolerance=tolerance, mode="extreme")
    adj = list(spec.adjacency_values())
    adj.remove(max(adj))                    # trivial eigenvalue k
    if bipartite:
        adj.remove(min(adj))                # trivial eigenvalue -k
    worst = max(abs(v) for v in adj) if adj else 0.0
    passed_adj = worst <= bound + tolerance
    # equivalent Laplacian-interval reading must agree
    lap = [k - v for v in adj]
    passed_lap = all(k - bound - tolerance <= v <= k + bound + tolerance
                     for v in lap)
    if passed_adj != passed_lap:
        raise RuntimeError("adjacency and Laplacian readings of the Ramanujan "
                           "bound disagree")
    return RamanujanCertificate(k=k, bound=bound, passed=passed_adj,
                                margin=bound - worst, bipartite=bipartite,
                                tolerance=tolerance, mode="dense")


# --- lift / relative decomposition along a quotient map ---------------------


@dataclass(eq=False)
class LiftDecomposition:
    lifted: Spectrum                 # laplacian values, |H| of them
    relative: Spectrum               # laplacian values, |G| - |H| of them
    epsilon: float                   # min of the relative part, +inf if empty
    relative_vectors: np.ndarray     # columns are relative eigenvectors on G
    fiber_map: tuple[int, ...]
    fiber_size: int


def lift_decomposition(g: Graph, h: Graph, fiber_map) -> LiftDecomposition:
    """Split the Laplacian spectrum of g into the part lifted from h
    (functions constant on fibers) and the relative part (functions with zero
    fiber sums).  The lifted part must match the spectrum of h exactly."""
    fiber_map = tuple(fiber_map)
    if len(fiber_map) != g.n:
        raise ValueError("fiber map must assign every vertex of g")
    fibers: dict[int, list[int]] = {}
    for v, b in enumerate(fiber_map):
        fibers.setdefault(b, []).append(v)
    if sorted(fibers) != list(range(h.n)):
        raise ValueError("fiber map must be onto the base vertex set")
    sizes = {len(f) for f in fibers.values()}
    if len(sizes) != 1:
        raise ValueError(f"fibers must have constant size, got {sizes}")
    f = sizes.pop()
    k = g.k
    if h.k != k:
        raise ValueError("base and total graph must share the regularity")

    lap_g = k * np.eye(g.n) - g.adjacency_matrix()
    lap_h = k * np.eye(h.n) - h.adjacency_matrix()

    q_lift = np.zeros((g.n, h.n))
    for b, verts in fibers.items():
        for v in verts:
            q_lift[v, b] = 1 / math.sqrt(f)
    projected = q_lift.T @ lap_g @ q_lift
    if np.abs(projected - lap_h).max() > 1e-9:
        raise ValueError("lift subspace does not reproduce the base Laplacian; "
                         "fiber map is not a covering quotient")

    cols = []
    for b in sorted(fibers):
        verts = fibers[b]
        for i in range(1, f):
            vec = np.zeros(g.n)
            vec[verts[:i]] = 1.0
            vec[verts[i]] = -float(i)
            vec /= math.sqrt(i * (i + 1))
            cols.append(vec)
    from scipy.linalg import eigh

    h_vals = np.sort(eigh(lap_h, eigvals_only=True))
    if cols:
        q_rel = np.stack(cols, axis=1)
        rel_op = q_rel.T @ lap_g @ q_rel
        rel_vals, rel_vecs = eigh(rel_op)
        rel_vectors = q_rel @ rel_vecs
        epsilon = float(rel_vals[0])
    else:
        rel_vals = np.zeros(0)
        rel_vectors = np.zeros((g.n, 0))
        epsilon = math.inf

    g_vals = np.sort(eigh(lap_g, eigvals_only=True))
    combined = np.sort(np.concatenate([h_vals, rel_vals]))
    if np.abs(combined - g_vals).max() > 1e-9:
        raise RuntimeError("lifted and relative parts do not recombine")

    fiber_sums = math.sqrt(f) * (q_lift.T @ rel_vectors)
    if np.abs(fiber_sums).max(initial=0.0) > 1e-8:
        raise RuntimeError("relative eigenvectors have nonzero fiber sums")

    return LiftDecomposition(
        lifted=Spectrum(values=tuple(float(v) for v in h_vals),
                        operator="laplacian", k=k),
        relative=Spectrum(values=tuple(float(v) for v in rel_vals),
                          operator="laplacian", k=k),
        epsilon=epsilon, relative_vectors=rel_vectors, fiber_map=fiber_map,
        fiber_size=f)


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


def nb_closed_walks_brute(graph: Graph, m: int) -> int:
    """Independent oracle: enumerate closed walks of length m with no
    immediate reversal, summed over all start vertices."""
    if m == 0:
        return graph.n
    total = 0

    def extend(start: int, prev: int, cur: int, depth: int) -> int:
        if depth == m:
            return 1 if cur == start else 0
        count = 0
        for nxt in graph.adj[cur]:
            if nxt == prev:
                continue
            count += extend(start, cur, nxt, depth + 1)
        return count

    for s in range(graph.n):
        for first in graph.adj[s]:
            total += extend(s, s, first, 1)
    return total


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

    def to_json(self) -> dict:
        return asdict(self)


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


def write_spectrum_csv(spec: Spectrum, path: str, tol: float = 1e-8) -> None:
    """CSV export grouping near-equal eigenvalues: eigenvalue, multiplicity."""
    groups: list[list[float]] = []
    for v in spec.values:
        if groups and abs(v - groups[-1][-1]) <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    with open(path, "w") as fh:
        fh.write("eigenvalue,multiplicity\n")
        for grp in groups:
            fh.write(f"{sum(grp) / len(grp):.12g},{len(grp)}\n")
