import dataclasses
import math

import numpy as np
import pytest

from boxlab.graphs import (complete, complete_bipartite, cycle, girth,
                           homology_cover, petersen)
from boxlab.suites import lps_cayley
from boxlab.spectral import (POLISHED_RESIDUAL, eigenvalue_threshold,
                             extreme_spectrum,
                             lift_decomposition, nb_closed_walks_brute,
                             nb_spectral_formula,
                             nb_trace, ramanujan_check, spectrum,
                             trace_inequality_audit, write_spectrum_csv)


def test_c4_laplacian():
    spec = spectrum(cycle(4))
    lap = spec.laplacian_values()
    assert np.allclose(lap, [0, 2, 2, 4], atol=1e-9)
    closed = sorted(2 - 2 * math.cos(2 * math.pi * j / 4) for j in range(4))
    assert np.allclose(lap, closed, atol=1e-9)


def test_k4_adjacency():
    spec = spectrum(complete(4))
    assert np.allclose(spec.values, [-1, -1, -1, 3], atol=1e-9)


def test_spectrum_trace_identities():
    for g in [cycle(8), complete(7), petersen(), complete_bipartite(3, 3)]:
        vals = np.array(spectrum(g).values)
        assert abs(vals.sum()) < 1e-8
        assert abs((vals ** 2).sum() - g.k * g.n) < 1e-8


def test_laplacian_adjacency_mirror():
    spec = spectrum(petersen())
    lap = spec.laplacian_values()
    adj = spec.adjacency_values()
    assert np.allclose(sorted(3 - v for v in lap), sorted(adj), atol=1e-12)


def test_connected_laplacian_zero_simple():
    lap = spectrum(petersen()).laplacian_values()
    assert abs(lap[0]) < 1e-9
    assert lap[1] > 1e-9


def test_ramanujan_k4():
    cert = ramanujan_check(complete(4), spectrum(complete(4)))
    assert cert.passed
    assert 4 <= 3 + 2 * math.sqrt(2)


def test_ramanujan_c12():
    cert = ramanujan_check(cycle(12), spectrum(cycle(12)))
    assert cert.passed   # all cycle eigenvalues lie in [-2, 2]


def test_ramanujan_petersen_and_bipartite():
    assert ramanujan_check(petersen(), spectrum(petersen())).passed
    cert = ramanujan_check(complete_bipartite(3, 3), spectrum(complete_bipartite(3, 3)))
    assert cert.bipartite and cert.passed


def test_ramanujan_disconnected_rejected():
    from boxlab.graphs import Graph

    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError):
        ramanujan_check(g, None)


def test_extreme_mode_matches_dense():
    # on K_n every nontrivial eigenvalue is -1, below the constant's 0
    for g in (petersen(), complete(5), complete(8), cycle(5),
              complete_bipartite(4, 4)):
        ext = extreme_spectrum(g)
        dense = sorted(spectrum(g).values)
        assert abs(ext.second_largest - dense[-2]) < 1e-7
        assert abs(ext.smallest - dense[0]) < 1e-7
        assert ext.residual_second <= 1e-7 * g.k
        assert ext.residual_smallest <= 1e-7 * g.k


@pytest.mark.parametrize("seed", [0, 2])
def test_extreme_spectrum_residuals_at_rounding_level(seed):
    # at q=29 a single two-ended run stops near 2e-10 for these seeds
    g = lps_cayley(29).graph
    ext = extreme_spectrum(g, seed=seed)
    assert max(ext.residual_second, ext.residual_smallest) <= \
        POLISHED_RESIDUAL * g.k
    assert ext.second_largest == pytest.approx(4.442016442593806, abs=1e-12)
    assert ext.smallest == pytest.approx(-4.410655995562926, abs=1e-12)


def test_extreme_spectrum_too_small_points_to_dense():
    assert extreme_spectrum(cycle(4)).second_largest == pytest.approx(0.0)
    for g in (complete(3), complete(2)):
        with pytest.raises(ValueError, match=r"spectrum\(\)"):
            extreme_spectrum(g)


def test_lift_decomposition_c8_c4():
    g, h = cycle(8), cycle(4)
    deco = lift_decomposition(g, h, [v % 4 for v in range(8)])
    assert np.allclose(deco.lifted.values, [0, 2, 2, 4], atol=1e-9)
    rel = sorted(deco.relative.values)
    expected = sorted([2 - math.sqrt(2), 2 - math.sqrt(2),
                       2 + math.sqrt(2), 2 + math.sqrt(2)])
    assert np.allclose(rel, expected, atol=1e-9)
    assert abs(deco.epsilon - (2 - math.sqrt(2))) < 1e-9
    assert deco.relative_vectors.shape == (8, 4)


def test_lift_decomposition_trivial_quotient():
    g = cycle(6)
    deco = lift_decomposition(g, g, list(range(6)))
    assert deco.relative.values == ()
    assert deco.epsilon == math.inf


def test_lift_decomposition_cover_k4():
    base = complete(4)
    cover = homology_cover(base, 2)
    deco = lift_decomposition(cover.graph, base, cover.projection)
    base_lap = spectrum(base).laplacian_values()
    assert np.allclose(deco.lifted.values, base_lap, atol=1e-9)
    assert len(deco.lifted.values) == 4
    assert len(deco.relative.values) == 28
    cover_lap = spectrum(cover.graph).laplacian_values()
    combined = sorted(deco.lifted.values + deco.relative.values)
    assert np.allclose(combined, cover_lap, atol=1e-9)
    # relative eigenvectors sum to zero on every fiber
    for bv in range(4):
        fiber = cover.fiber(bv)
        sums = deco.relative_vectors[fiber, :].sum(axis=0)
        assert np.abs(sums).max() < 1e-8


def test_lift_decomposition_rejects_bad_fibers():
    with pytest.raises(ValueError):
        lift_decomposition(cycle(8), cycle(4), [0, 1, 2, 3, 0, 1, 2, 2])


def test_nb_trace_t0_and_girth_zeros():
    g = petersen()
    tr = nb_trace(g, 8)
    assert tr.exact[0] == 10
    assert all(tr.exact[m] == 0 for m in range(1, 5))
    assert girth(g) == 5
    assert tr.exact[5] > 0


def test_nb_trace_matches_brute_walks():
    for g in [complete(7), petersen(), cycle(5)]:
        tr = nb_trace(g, 5)
        for m in range(6):
            assert tr.exact[m] == nb_closed_walks_brute(g, m), (g, m)


def test_nb_trace_k7_m3():
    g = complete(7)
    tr = nb_trace(g, 3)
    # closed non-backtracking triangles: 7*6*5 ordered
    assert tr.exact[3] == nb_closed_walks_brute(g, 3) == 210


def test_nb_trace_transitive_flag_consistent():
    g = petersen()
    flat = nb_trace(g, 6)
    g_no_flag = dataclasses.replace(g, vertex_transitive=False)
    slow = nb_trace(g_no_flag, 6)
    assert flat.exact == slow.exact


def test_nb_spectral_formula_matches_cumulative():
    for g in [complete(7), petersen(), cycle(12),
              homology_cover(complete(4), 2).graph]:
        tr = nb_trace(g, 10)
        formula = nb_spectral_formula(spectrum(g).values, tr.p, 10)
        for m in range(11):
            assert abs(formula[m] - tr.cumulative[m]) < 1e-6, (m, g.n)


def test_threshold_constant():
    t = eigenvalue_threshold()
    assert abs(t - (5 ** (71 / 72) + 5 ** (1 / 72))) == 0
    assert t < 6


def test_trace_inequality_audit_identity_case():
    g = complete(7)
    tr = nb_trace(g, 4)
    # m = 0: A * f(0) = A = |V| = t_0 exactly
    report = trace_inequality_audit({0: 1}, 7, tr)
    assert report.passed
    assert report.checks[0] == (0, 7, 7)
    assert report.threshold_below_6


def test_trace_audit_cosh_bound():
    tr = nb_trace(complete(7), 2)
    root = 2 * math.sqrt(5)
    inside = trace_inequality_audit({0: 1}, 7, tr, top_eigenvalue=root - 0.1)
    assert inside.psi == 0.0 and abs(inside.cosh_bound - root) < 1e-12
    outside = trace_inequality_audit({0: 1}, 7, tr, top_eigenvalue=6.0)
    assert outside.psi > 0
    assert abs(outside.cosh_bound - 6.0) < 1e-12   # 2 sqrt(5) cosh(psi) = mu


def test_ramanujan_certificate_json():
    cert = ramanujan_check(petersen(), spectrum(petersen()))
    blob = cert.to_json()
    assert set(blob) >= {"k", "bound", "passed", "margin", "tolerance"}
    assert blob["passed"] is True


def test_write_spectrum_csv(tmp_path):
    path = str(tmp_path / "spectrum.csv")
    write_spectrum_csv(spectrum(complete(4)), path)
    rows = open(path).read().strip().splitlines()
    assert rows[0] == "eigenvalue,multiplicity"
    assert rows[1] == "-1,3"
    assert rows[2] == "3,1"


@pytest.mark.parametrize("name,m", [("C6", 2), ("C6", 3), ("K4", 2), ("K4", 3),
                                    ("K33", 2), ("K33", 3), ("petersen", 2),
                                    ("psl23", 2)])
def test_nb_trace_cover_flag_matches_all_sources(corpus_cover, name, m):
    g = corpus_cover(name, m).graph
    assert g.vertex_transitive and g.n <= 1536
    g_no_flag = dataclasses.replace(g, vertex_transitive=False)
    assert nb_trace(g, 10) == nb_trace(g_no_flag, 10)


def test_nb_trace_beyond_int64_range():
    g = complete(4)
    g_no_flag = dataclasses.replace(g, vertex_transitive=False)
    big = nb_trace(g, 45)           # 3^46 > 2^62: counted in Python ints
    assert big == nb_trace(g_no_flag, 45)
    assert all(type(v) is int for v in big.exact)
    formula = nb_spectral_formula(spectrum(g).values, big.p, 45)
    assert all(abs(f - t) <= 1e-6 + 1e-12 * t
               for f, t in zip(formula, big.cumulative))
