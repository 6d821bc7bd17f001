"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Statistical criteria use frozen seeds; tolerances are the stated ones, never
loosened at runtime.
"""

import time

import numpy as np
import pytest

from nfgdual.bp import run_bp
from nfgdual.gaussian import (
    GmrfModel,
    exact_dual_vertex_variances,
    exact_variances,
    gmrf_dual_gibbs,
    map_variance_dual_to_primal,
    primal_precision,
)
from nfgdual.graphs import Graph, grid_graph, path_graph, ring_graph, scale_factor
from nfgdual.mapping import (
    CLOCK4_CRITICAL,
    ISING_CRITICAL,
    SingularMapError,
    clock_fixed_point,
    ising_fixed_point,
    ising_lower_bounds,
    map_dual_to_primal,
    potts_critical,
    potts_fixed_point,
    potts_lower_bounds,
)
from nfgdual.nfg import dualize, ising_model, potts_model
from nfgdual.oracle import (
    chain_ising_marginals,
    marginals_dual,
    marginals_primal,
    ring_potts_marginals,
)
from nfgdual.samplers import (
    SamplerConfig,
    estimate_primal_via_dual,
    swp_state_histogram,
    swp_state_weights,
)
from nfgdual.validate import run_validation
from tests.conftest import random_connected_graph, random_model


@pytest.fixture(scope="module")
def model_corpus_500():
    """500 random Ising/Potts/clock models with oracle marginals in both domains.

    Couplings lie in [-1, 1], fields in (0, 1], |V| <= 8, |E| <= 12, q <= 4;
    the per-q state cap keeps the dual enumeration within the runtime budget.
    """
    rng = np.random.default_rng(910)
    t0 = time.time()
    corpus = []
    for _ in range(500):
        p, family = random_model(rng, max_states=2 ** 16)
        d = dualize(p)
        corpus.append((p, family, marginals_primal(p), marginals_dual(d), d))
    return corpus, time.time() - t0


def test_criterion_1_duality_theorem(model_corpus_500):
    corpus, build_time = model_corpus_500
    # the draw must actually cover the stated envelope
    families = {family for _p, family, *_ in corpus}
    assert families == {"ising", "potts", "clock"}
    assert {p.alphabet.q for p, *_ in corpus} == {2, 3, 4}
    assert any(p.edge_tables[:, 0].real.min() < 1.0 for p, *_ in corpus)  # antiferro
    assert max(p.graph.num_vertices for p, *_ in corpus) == 8
    t0 = time.time()
    worst = 0.0
    for p, _family, om, dm, _d in corpus:
        alpha = scale_factor(p.graph, p.alphabet)
        residual = abs(dm.partition - alpha * om.partition) / abs(om.partition)
        worst = max(worst, residual)
    assert worst < 1e-10
    elapsed = build_time + (time.time() - t0)
    assert elapsed < 120
    print(f"\nPASS criterion-1: duality residual < 1e-10 on 500 random models "
          f"(max {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_2_marginal_mapping(model_corpus_500):
    corpus, _build_time = model_corpus_500
    t0 = time.time()
    worst = 0.0
    singular_vertices = 0
    for p, family, om, dm, d in corpus:
        for e in range(p.graph.num_edges):
            mapped = map_dual_to_primal(dm.edge(e), p.edge_tables[e], d.edge_tables[e])
            worst = max(worst, float(np.abs(mapped.values - om.edge_values[e]).max()))
        for v in range(p.graph.num_vertices):
            if family == "clock":
                # zero-field vertex tables sit outside the map's precondition
                with pytest.raises(SingularMapError):
                    map_dual_to_primal(dm.vertex(v), p.vertex_tables[v], d.vertex_tables[v])
                singular_vertices += 1
                continue
            mapped = map_dual_to_primal(dm.vertex(v), p.vertex_tables[v], d.vertex_tables[v])
            worst = max(worst, float(np.abs(mapped.values - om.vertex_values[v]).max()))
    assert worst < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 180
    print(f"\nPASS criterion-2: oracle dual marginals map onto primal ones, max "
          f"entrywise error {worst:.2e} (every edge/vertex; {singular_vertices} "
          f"zero-field clock vertices correctly refused as singular)")


def test_criterion_3_fixed_point_criticality():
    err_ising = np.abs(
        ising_fixed_point(ISING_CRITICAL)
        - [(2 + np.sqrt(2)) / 4, (2 - np.sqrt(2)) / 4]
    ).max()
    assert err_ising < 1e-12

    for q in (3, 4, 5, 10, 100):
        fp = potts_fixed_point(q, potts_critical(q))
        assert abs(fp[0] - (1 + 1 / np.sqrt(q)) / 2) < 1e-12
        assert np.abs(fp[1:] - (1 - 1 / np.sqrt(q)) / (2 * (q - 1))).max() < 1e-12

    # quoted plot marks, matched to half an ulp of their quoted precision
    marks = [  # (q, beta_quoted, beta_tol, pi0_quoted, pi0_tol)
        (3, 1.005, 5e-4, 0.7887, 5e-5),
        (4, 1.099, 5e-4, 0.75, 5e-5),
        (5, 1.174, 5e-4, 0.7236, 5e-5),
        (10, 1.426, 5e-4, 0.658, 5e-4),
        (100, 2.398, 5e-4, 0.55, 5e-5),
    ]
    for q, bq, btol, pq, ptol in marks:
        crit = potts_critical(q)
        assert abs(crit - bq) < btol
        assert abs(potts_fixed_point(q, crit)[0] - pq) < ptol

    clock_fp = clock_fixed_point(4, CLOCK4_CRITICAL)
    expected = [(3 + 2 * np.sqrt(2)) / 8, 1 / 8, (3 - 2 * np.sqrt(2)) / 8, 1 / 8]
    assert np.abs(clock_fp - expected).max() < 1e-12
    # quoted clock plot marks, to one ulp of their quoted precision
    assert abs(CLOCK4_CRITICAL - 0.88) < 1e-2
    assert abs(clock_fp[0] - 0.72855) < 1e-5
    assert abs(clock_fp[1] - 0.125) < 1e-12
    assert abs(clock_fp[2] - 0.021446) < 1e-6

    # grid extrema land on the grid point nearest each critical coupling
    grid = np.round(np.arange(0.01, 3.0001, 0.01), 10)

    def nearest(crit):
        return int(np.argmin(np.abs(grid - crit)))

    assert int(np.argmin([ising_fixed_point(b)[0] for b in grid])) == nearest(ISING_CRITICAL)
    for q in (3, 4, 5, 10, 100):
        vals = [potts_fixed_point(q, b)[0] for b in grid]
        assert int(np.argmin(vals)) == nearest(potts_critical(q))
    clock_curve = np.array([clock_fixed_point(4, b) for b in grid])
    assert int(np.argmin(clock_curve[:, 0])) == nearest(CLOCK4_CRITICAL)
    assert int(np.argmax(clock_curve[:, 1])) == nearest(CLOCK4_CRITICAL)
    assert int(np.argmax(clock_curve[:, 2])) == nearest(CLOCK4_CRITICAL)
    print("\nPASS criterion-3: fixed-point criticality constants to 1e-12, plot "
          "marks to quoted precision, grid extrema at the critical grid points")


def test_criterion_4_bounds_and_uncertainty():
    rng = np.random.default_rng(911)
    bound_violations = 0
    product_violations = 0
    checked_edges = 0
    for _ in range(200):
        family = ("ising", "potts")[int(rng.integers(0, 2))]
        q = 2 if family == "ising" else int(rng.integers(2, 6))
        g = random_connected_graph(rng, max_vertices=10, max_edges=16, q=q,
                                   max_states=2 ** 16)
        couplings = rng.uniform(0.02, 2.0, size=g.num_edges)
        fields = rng.uniform(0.02, 1.0, size=g.num_vertices)
        p = (ising_model(g, couplings, fields) if family == "ising"
             else potts_model(g, q, couplings, fields))
        om = marginals_primal(p)
        dm = marginals_dual(dualize(p))
        for e in range(g.num_edges):
            pe0 = om.edge_values[e, 0].real
            de0 = dm.edge_values[e, 0].real
            if family == "ising":
                bp, bd = ising_lower_bounds(couplings[e])
                floor = 0.5
            else:
                bp, bd = potts_lower_bounds(q, couplings[e])
                floor = 1.0 / q
            bound_violations += (pe0 < bp - 1e-12) + (de0 < bd - 1e-12)
            product_violations += pe0 * de0 < floor - 1e-12
            checked_edges += 1
    assert bound_violations == 0
    assert product_violations == 0
    print(f"\nPASS criterion-4: lower bounds and uncertainty products hold on "
          f"{checked_edges} edges of 200 random ferromagnetic models, zero violations")


def _record_gap(closed, p) -> float:
    """Largest gap between a (primal, dual) closed-form pair and enumeration of p."""
    exact = (marginals_primal(p), marginals_dual(dualize(p)))
    return max(float(np.abs(getattr(c, kind) - getattr(x, kind)).max())
               for c, x in zip(closed, exact) for kind in ("edge_values", "vertex_values"))


def test_criterion_5_closed_forms():
    grid = np.round(np.arange(0.1, 2.0001, 0.1), 10)
    worst = 0.0
    for n_edges in range(1, 9):
        for bj in grid:
            bjs = np.full(n_edges, bj)
            closed_p, closed_d = chain_ising_marginals(bjs, "free")
            p = ising_model(path_graph(n_edges + 1), bjs)
            worst = max(worst, _record_gap((closed_p, closed_d), p))
            # the free chain attains the ferromagnetic lower bound exactly
            bound_p, _ = ising_lower_bounds(bj)
            assert abs(closed_p.edge_values[0, 0].real - bound_p) < 1e-15
            if n_edges >= 3:
                rp = ising_model(ring_graph(n_edges), bjs)
                worst = max(worst, _record_gap(chain_ising_marginals(bjs, "periodic"), rp))
    for q in (3, 4, 5):
        for n_edges in range(3, 9):
            for bj in grid[::2]:
                p = potts_model(ring_graph(n_edges), q, bj)
                worst = max(worst, _record_gap(ring_potts_marginals(q, bj, n_edges), p))
    assert worst < 1e-12
    print(f"\nPASS criterion-5: chain/ring closed forms equal enumeration "
          f"(max error {worst:.2e}); free chain attains the lower bound exactly")


def test_criterion_6_subgraphs_world():
    t0 = time.time()
    # stationary law on a 3-edge model at 1e6 steps, 3 sigma per state
    tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
    p = ising_model(tri, [0.8, 0.6, 0.7], [0.7, 0.5, 0.6])
    weights = swp_state_weights(p)
    probs = weights / weights.sum()
    counts = swp_state_histogram(p, 10 ** 6, seed=202)
    emp = counts / counts.sum()
    z = np.abs(emp - probs) / np.sqrt(probs * (1 - probs) / counts.sum())
    assert (z < 3.0).all()

    # homogeneous-field setting at the reduced 4x4 size where the oracle is
    # feasible (stated substitution for the 6x6 lattice of the experiment);
    # the assessed quantity is the reported (lexicographically first) edge
    g = grid_graph(4, 4, periodic=True)
    worst = 0.0
    worst_any_edge = 0.0
    for i, bj in enumerate([round(0.05 + 0.1 * k, 2) for k in range(8)]):
        model = ising_model(g, bj, 0.15)
        exact = marginals_primal(model).edge_values[:, 0].real
        est = estimate_primal_via_dual(
            model, "swp", SamplerConfig(seed=600 + i, samples=100_000)
        )
        rel = np.abs(est.edge_values[:, 0].real - exact) / exact
        worst = max(worst, float(rel[0]))
        worst_any_edge = max(worst_any_edge, float(rel.max()))
    assert worst <= 1e-2
    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"\nPASS criterion-6: SWP stationary law within 3 sigma (max z "
          f"{z.max():.2f}); mapped estimate of the reported edge within 1e-2 "
          f"across the coupling sweep (max {worst:.2e}; worst over all edges "
          f"{worst_any_edge:.2e}; {elapsed:.0f}s)")


def test_criterion_7_bp_directional_claims():
    # half-normal couplings, 4x4 periodic (oracle-feasible reduced size)
    g = grid_graph(4, 4, periodic=True)
    for sigma2 in (0.45, 0.85, 1.25, 1.65):
        prim, dual = [], []
        for r in range(20):
            rng = np.random.default_rng([701, int(sigma2 * 100), r])
            couplings = np.abs(rng.normal(0.0, np.sqrt(sigma2), size=g.num_edges))
            p = ising_model(g, couplings, 0.0)
            exact = marginals_primal(p).edge_values[:, 0].real
            rp = run_bp(p)
            bd = estimate_primal_via_dual(p, "bp_dual")
            prim.append(abs(rp.edge_values[0, 0].real - exact[0]) / exact[0])
            dual.append(abs(bd.edge_values[0, 0].real - exact[0]) / exact[0])
        assert np.median(dual) < np.median(prim)

    # fully connected model at the full N=10 (enumeration is feasible there;
    # at N=8 the 0.25 point sits exactly on the BP branch transition)
    gc = Graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
    for beta_x in (0.25, 0.35, 0.45, 0.55, 0.65):
        prim, dual = [], []
        for r in range(20):
            rng = np.random.default_rng([702, int(beta_x * 100), r])
            couplings = rng.uniform(0.05, beta_x, size=gc.num_edges)
            p = ising_model(gc, couplings, 0.0)
            exact = marginals_primal(p).edge_values[:, 0].real
            rp = run_bp(p)
            bd = estimate_primal_via_dual(p, "bp_dual")
            prim.append(abs(rp.edge_values[0, 0].real - exact[0]) / exact[0])
            dual.append(abs(bd.edge_values[0, 0].real - exact[0]) / exact[0])
        assert np.median(dual) < np.median(prim)

    # homogeneous 6x6 with field: the two domains agree to 1e-3
    g66 = grid_graph(6, 6, periodic=True)
    worst_gap = 0.0
    for bj in [round(0.05 + 0.1 * k, 2) for k in range(8)]:
        p = ising_model(g66, bj, 0.15)
        rp = run_bp(p)
        bd = estimate_primal_via_dual(p, "bp_dual")
        assert rp.converged and bd.converged
        gap = float(np.abs(rp.edge_values - bd.edge_values).max())
        worst_gap = max(worst_gap, gap)
    assert worst_gap < 1e-3
    print(f"\nPASS criterion-7: dual BP beats primal BP (median over 20 seeds) on "
          f"half-normal and fully connected models; the domains agree to "
          f"{worst_gap:.1e} on the homogeneous 6x6 lattice")


def test_criterion_8_gaussian():
    t0 = time.time()
    torus = grid_graph(15, 15, periodic=True)
    for s, quoted in ((1.0, 0.5589), (20.0, 20.2046), (40.0, 23.5498)):
        m = GmrfModel(torus, s, 5.0)
        var = exact_variances(primal_precision(m))[0]
        assert abs(var - quoted) < 1e-4  # one unit in the last quoted digit

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, max_vertices=50, max_edges=120, q=2,
                                   max_states=None)
        m = GmrfModel(g, float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5)))
        mapped = map_variance_dual_to_primal(m.sigma, exact_dual_vertex_variances(m))
        exact = exact_variances(primal_precision(m))
        worst = max(worst, float(np.abs(mapped - exact).max()))
    assert worst < 1e-10

    m40 = GmrfModel(torus, 40.0, 5.0)
    exact = exact_variances(primal_precision(m40))[0]
    res = gmrf_dual_gibbs(m40, SamplerConfig(seed=14, samples=100))
    mapped = map_variance_dual_to_primal(5.0, res.derived_trajectory[-1])
    rel = abs(mapped - exact) / exact
    assert rel <= 5e-3
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"\nPASS criterion-8: quoted variances reproduced, Woodbury identity to "
          f"{worst:.1e} on 50 graphs, dual-Gibbs-then-map at s=40 reaches "
          f"{rel:.1e} by 100 samples ({elapsed:.0f}s)")


def test_criterion_9_validation_suite():
    t0 = time.time()
    ok_a, results_a = run_validation(seed=1234)
    ok_b, results_b = run_validation(seed=1234)
    elapsed = time.time() - t0
    assert ok_a and ok_b
    assert results_a == results_b  # deterministic from the fixed master seed
    assert elapsed < 900  # both runs together, well under 15 min each
    print(f"\nPASS criterion-9: validation matrix passes deterministically "
          f"({len(results_a)} checks, {elapsed / 2:.0f}s per run)")
