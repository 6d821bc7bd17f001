"""Gibbs chains in both domains, the subgraphs-world process, and the
dual-estimate-then-map composition.  Statistical assertions run on frozen
seeds chosen with comfortable z-margins."""

import numpy as np
import pytest

from nfgdual.graphs import Alphabet, Graph, betti, grid_graph, path_graph, ring_graph
from nfgdual.mapping import SingularMapError, map_dual_to_primal
from nfgdual.nfg import DualNFG, Marginals, PrimalNFG, dualize, ising_model, potts_model
from nfgdual.oracle import chain_ising_marginals, marginals_dual, marginals_primal
from nfgdual.samplers import (
    SamplerConfig,
    SamplerError,
    SubgraphState,
    estimate_primal_via_dual,
    gibbs_dual,
    gibbs_primal,
    subgraph_weight,
    swp,
    swp_state_histogram,
    swp_state_weights,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def binomial_sigma(p, n):
    return np.sqrt(p * (1 - p) / n)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, samples=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, thinning=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, sweep="zigzag")

    def test_negative_burn_in_refused(self):
        # it used to shorten the retained run, down to 0/0 = NaN marginals
        with pytest.raises(ValueError, match="burn_in"):
            gibbs_primal(ising_model(triangle(), 0.5, 0.1),
                         SamplerConfig(seed=1, samples=5, burn_in=-10))

    def test_default_burn_in_scales_with_variables(self):
        cfg = SamplerConfig(seed=1)
        assert cfg.resolved_burn_in(36) == 360
        assert SamplerConfig(seed=1, burn_in=5).resolved_burn_in(36) == 5


class TestGibbsPrimal:
    def test_zero_coupling_uniform(self):
        p = potts_model(triangle(), 3, 0.0, 0.0)
        est = gibbs_primal(p, SamplerConfig(seed=11, samples=10_000))
        sigma = binomial_sigma(1 / 3, 10_000)
        assert np.abs(est.edge_values - 1 / 3).max() < 3 * sigma * 2.5
        assert np.abs(est.edge_values.sum(axis=1) - 1).max() < 1e-12

    def test_single_free_edge_closed_form(self):
        bj = 0.8
        p = ising_model(path_graph(2), bj)
        est = gibbs_primal(p, SamplerConfig(seed=1, samples=20_000))
        exact = np.exp(bj) / (2 * np.cosh(bj))
        assert abs(est.edge_values[0, 0] - exact) < 3 * binomial_sigma(exact, 20_000)

    def test_torus_matches_oracle(self):
        p = ising_model(grid_graph(3, 3, periodic=True), 0.3, 0.1)
        om = marginals_primal(p)
        est = gibbs_primal(p, SamplerConfig(seed=21, samples=20_000))
        # correlated sweeps: allow 3x the iid band
        sigma = binomial_sigma(om.edge_values.real.clip(0.05, 0.95), 20_000)
        assert (np.abs(est.edge_values - om.edge_values.real) < 9 * sigma).all()

    def test_torus_three_sigma_at_long_run(self):
        p = ising_model(grid_graph(3, 3, periodic=True), 0.3, 0.1)
        exact = marginals_primal(p).edge_values.real
        est = gibbs_primal(p, SamplerConfig(seed=32, samples=100_000))
        z = np.abs(est.edge_values[:, 0] - exact[:, 0]) / binomial_sigma(exact[:, 0], 100_000)
        assert z.max() < 3.0

    def test_determinism(self):
        p = ising_model(triangle(), 0.5, 0.2)
        cfg = SamplerConfig(seed=42, samples=500)
        a, b = gibbs_primal(p, cfg), gibbs_primal(p, cfg)
        assert np.array_equal(a.edge_values, b.edge_values)
        assert np.array_equal(a.vertex_values, b.vertex_values)

    def test_random_scan_also_valid(self):
        p = ising_model(path_graph(2), 0.8)
        est = gibbs_primal(p, SamplerConfig(seed=5, samples=20_000, sweep="random"))
        exact = np.exp(0.8) / (2 * np.cosh(0.8))
        assert abs(est.edge_values[0, 0] - exact) < 4 * binomial_sigma(exact, 20_000)

    def test_zero_weight_conditional_refused(self):
        # hard equality on every edge and x_0 forced to 1: the all-zero start
        # state has zero weight, and vertex 0 has no state to move to
        g = path_graph(3)
        p = PrimalNFG(g, Alphabet(2), [[1.0, 0.0], [1.0, 0.0]],
                      [[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SamplerError, match="vertex 0"):
            gibbs_primal(p, SamplerConfig(seed=1, samples=10))

    def test_signed_model_refused(self):
        p = ising_model(triangle(), 0.5)
        bad = DualNFG(p.graph, p.alphabet, p.edge_tables, p.vertex_tables)
        bad_tables = p.edge_tables.copy()
        bad_tables[0, 0] = -1.0
        bad.edge_tables = bad_tables
        with pytest.raises(SamplerError, match="nonnegative"):
            gibbs_primal(bad, SamplerConfig(seed=1, samples=10))


class TestGibbsDual:
    def test_free_chain_is_exact_immediately(self):
        bjs = [0.3, 0.9, 0.5]
        d = dualize(ising_model(path_graph(4), bjs))
        est = gibbs_dual(d, SamplerConfig(seed=2, samples=50))
        assert np.array_equal(est.edge_values[:, 0], np.ones(3))

    def test_ring_with_field_matches_oracle(self):
        p = ising_model(ring_graph(4), 0.6, 0.2)
        d = dualize(p)
        dm = marginals_dual(d)
        est = gibbs_dual(d, SamplerConfig(seed=2, samples=20_000))
        sigma = binomial_sigma(dm.edge_values.real.clip(0.05, 0.95), 20_000)
        assert (np.abs(est.edge_values - dm.edge_values.real) < 9 * sigma).all()

    def test_torus_with_field_matches_oracle(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.5, 0.2)
        d = dualize(p)
        dm = marginals_dual(d)
        est = gibbs_dual(d, SamplerConfig(seed=8, samples=20_000))
        assert np.abs(est.edge_values - dm.edge_values.real).max() < 0.02

    def test_nonbinary_dual_chain_matches_oracle(self):
        p = potts_model(ring_graph(4), 3, 0.8, 0.4)
        d = dualize(p)
        dm = marginals_dual(d)
        est = gibbs_dual(d, SamplerConfig(seed=41, samples=30_000))
        assert np.abs(est.edge_values - dm.edge_values.real).max() < 0.015
        assert np.abs(est.vertex_values - dm.vertex_values.real).max() < 0.015

    def test_signed_dual_refused_with_bp_guidance(self):
        d = dualize(ising_model(triangle(), [-0.5, 0.5, 0.5], 0.1))
        with pytest.raises(SamplerError, match="run_bp"):
            gibbs_dual(d, SamplerConfig(seed=1, samples=10))

    def test_zero_field_cycle_refused_as_nonergodic(self):
        d = dualize(ising_model(ring_graph(4), 0.6))
        with pytest.raises(SamplerError, match="non-ergodic"):
            gibbs_dual(d, SamplerConfig(seed=1, samples=10))


class TestSubgraphState:
    def test_incremental_parity_matches_recompute(self):
        g = grid_graph(2, 3)
        state = SubgraphState.empty(g)
        rng = np.random.default_rng(0)
        for _ in range(300):
            e = int(rng.integers(0, g.num_edges))
            t, h = g.edges[e]
            state.toggle(e, t, h)
            assert state.odd == state.recompute_odd(g)

    def test_weight_of_single_edge_state(self):
        g = triangle()
        p = ising_model(g, [0.8, 0.6, 0.7], [0.7, 0.5, 0.6])
        state = SubgraphState.empty(g)
        state.toggle(0, *g.edges[0])
        w = subgraph_weight(state, np.tanh([0.8, 0.6, 0.7]), np.tanh([0.7, 0.5, 0.6]))
        assert w == pytest.approx(np.tanh(0.8) * np.tanh(0.7) * np.tanh(0.5), rel=1e-12)


class TestSwp:
    def test_preconditions(self):
        with pytest.raises(SamplerError, match="binary"):
            swp(potts_model(triangle(), 3, 0.5, 0.1), SamplerConfig(seed=1, samples=10))
        with pytest.raises(SamplerError, match="couplings"):
            swp(ising_model(triangle(), -0.5, 0.3), SamplerConfig(seed=1, samples=10))
        with pytest.raises(SamplerError, match="fields"):
            swp(ising_model(triangle(), 0.5, 0.0), SamplerConfig(seed=1, samples=10))

    def test_single_edge_exact_two_state_law(self):
        p = ising_model(path_graph(2), 0.5, 0.3)
        w1 = np.tanh(0.5) * np.tanh(0.3) ** 2
        exact = w1 / (1 + w1)
        est = swp(p, SamplerConfig(seed=3, samples=200_000), audit_every=1_000)
        assert abs(est.edge_values[0, 1] - exact) < 3 * binomial_sigma(exact, 200_000)

    def test_tiny_coupling_edge_is_never_occupied(self):
        p = ising_model(path_graph(3), [1e-8, 0.8], 0.5)
        est = swp(p, SamplerConfig(seed=4, samples=20_000))
        assert est.edge_values[0, 1] < 1e-3

    def test_matches_dual_oracle_on_small_torus(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.44, 0.15)
        dm = marginals_dual(dualize(p))
        est = swp(p, SamplerConfig(seed=4, samples=100_000))
        assert np.abs(est.edge_values - dm.edge_values.real).max() < 0.01

    def test_stationary_distribution_three_edges(self):
        p = ising_model(triangle(), [0.8, 0.6, 0.7], [0.7, 0.5, 0.6])
        weights = swp_state_weights(p)
        probs = weights / weights.sum()
        counts = swp_state_histogram(p, 200_000, seed=101)
        emp = counts / counts.sum()
        sigma = np.sqrt(probs * (1 - probs) / counts.sum())
        assert (np.abs(emp - probs) < 3.5 * sigma).all()

    def test_determinism(self):
        p = ising_model(triangle(), 0.6, 0.4)
        cfg = SamplerConfig(seed=77, samples=2_000)
        assert np.array_equal(swp(p, cfg).edge_values, swp(p, cfg).edge_values)

    def test_error_shrinks_with_more_samples(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.5, 0.25)
        exact = marginals_dual(dualize(p)).edge_values.real
        errs = {n: [] for n in (1_000, 10_000)}
        for seed in range(9):
            for n in errs:
                est = swp(p, SamplerConfig(seed=1_000 + seed, samples=n))
                errs[n].append(np.abs(est.edge_values - exact).max())
        assert np.median(errs[10_000]) < np.median(errs[1_000])


class TestEstimateViaDual:
    def test_free_chain_gibbs_dual_is_exact(self):
        bjs = [0.4, 1.0]
        p = ising_model(path_graph(3), bjs)
        est = estimate_primal_via_dual(p, "gibbs_dual", SamplerConfig(seed=6, samples=100))
        closed, _ = chain_ising_marginals(bjs, "free")
        for e in range(2):
            assert np.abs(est.edge_values[e] - closed.edge(e).values).max() < 1e-12
        assert est.vertex_values is None  # zero field makes the vertex map singular

    def test_swp_estimates_primal_marginals(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.44, 0.15)
        om = marginals_primal(p)
        est = estimate_primal_via_dual(p, "swp", SamplerConfig(seed=5, samples=100_000))
        assert isinstance(est, Marginals)
        assert np.abs(est.edge_values - om.edge_values).max() < 5e-3
        assert np.abs(est.vertex_values - om.vertex_values).max() < 5e-3

    def test_bp_dual_route(self):
        p = ising_model(grid_graph(3, 3, periodic=True), 0.25, 0.15)
        om = marginals_primal(p)
        est = estimate_primal_via_dual(p, "bp_dual")
        assert est.converged
        assert np.abs(est.edge_values - om.edge_values).max() < 0.05

    def test_batched_maps_match_per_site_maps(self):
        p = potts_model(grid_graph(3, 3, periodic=True), 3, 0.3, 0.2)
        d = dualize(p)
        est = estimate_primal_via_dual(p, "bp_dual")
        dual = est.dual_estimates
        for e in range(p.graph.num_edges):
            one = map_dual_to_primal(dual.edge(e), p.edge_tables[e], d.edge_tables[e])
            assert np.abs(one.values - est.edge_values[e]).max() < 1e-14
        for v in range(p.graph.num_vertices):
            one = map_dual_to_primal(dual.vertex(v), p.vertex_tables[v], d.vertex_tables[v])
            assert np.abs(one.values - est.vertex_values[v]).max() < 1e-14

    def test_zero_field_vertex_accessor_raises(self):
        # zero field makes every phi~_v vanish at 1, so no vertex estimate is mapped
        p = ising_model(grid_graph(2, 2, periodic=True), 0.4)
        est = estimate_primal_via_dual(p, "bp_dual")
        assert est.vertex_values is None
        with pytest.raises(SingularMapError, match="vertex map was singular"):
            est.vertex(0)

    def test_singular_edge_map_raises(self):
        # bJ = 0 makes psi~_1 = 2 sinh 0 vanish at edge 1
        p = ising_model(ring_graph(4), [0.5, 0.0, 0.4, 0.3], 0.2)
        with pytest.raises(SingularMapError, match="dual edge table 1 "):
            estimate_primal_via_dual(p, "bp_dual")

    def test_estimates_stay_normalized(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.6, 0.3)
        est = estimate_primal_via_dual(p, "swp", SamplerConfig(seed=9, samples=5_000))
        assert np.abs(est.edge_values.sum(axis=1) - 1).max() < 1e-10

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_primal_via_dual(ising_model(triangle(), 0.5, 0.1), "jt")
