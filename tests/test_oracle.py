"""Enumeration oracles: partition functions, duality, marginals, closed forms."""

import numpy as np
import pytest

from nfgdual.graphs import Graph, grid_graph, path_graph, ring_graph, scale_factor
from nfgdual.nfg import dualize, ising_model, potts_model
from nfgdual.oracle import (
    EnumerationBudgetError,
    chain_ising_marginals,
    duality_check,
    enumeration_budget,
    extrinsic_vector,
    intermediate_dual_partition,
    marginals_dual,
    marginals_primal,
    partition_dual,
    partition_primal,
    ring_potts_marginals,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


class TestPartitionPrimal:
    def test_single_edge_closed_form(self):
        bj = 0.6
        z = partition_primal(ising_model(path_graph(2), bj))
        assert z.real == pytest.approx(2 * np.exp(bj) + 2 * np.exp(-bj), rel=1e-14)

    def test_zero_model_counts_states(self):
        assert partition_primal(potts_model(triangle(), 3, 0.0)).real == pytest.approx(27)
        assert partition_primal(ising_model(grid_graph(2, 3), 0.0)).real == pytest.approx(64)

    def test_budget_refusal(self):
        p = ising_model(grid_graph(3, 3), 0.3)
        with pytest.raises(EnumerationBudgetError, match="budget"):
            partition_primal(p, budget=100)

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv("NFG_DUAL_BUDGET", "100")
        assert enumeration_budget() == 100
        p = ising_model(grid_graph(3, 3), 0.3)
        with pytest.raises(EnumerationBudgetError):
            partition_primal(p)
        monkeypatch.delenv("NFG_DUAL_BUDGET")
        assert enumeration_budget() == 2 ** 26


class TestPartitionDual:
    def test_tree_zero_field_closed_form(self):
        bjs = np.array([0.4, 0.9, 1.3])
        p = ising_model(path_graph(4), bjs)
        zd = partition_dual(dualize(p))
        expected = 2 ** 4 * np.prod(np.cosh(bjs))
        assert zd.real == pytest.approx(expected, rel=1e-12)

    def test_ring_zero_field_closed_form_up_to_scale(self):
        bjs = np.array([0.5, 0.8, 1.1])
        p = ising_model(ring_graph(3), bjs)
        zd = partition_dual(dualize(p))
        alpha = scale_factor(p.graph, p.alphabet)
        closed = 2 ** 3 * (np.prod(np.cosh(bjs)) + np.prod(np.sinh(bjs)))
        assert zd.real == pytest.approx(alpha * closed, rel=1e-12)

    def test_zero_couplings_zero_fields(self):
        p = potts_model(triangle(), 3, 0.0, 0.0)
        zd = partition_dual(dualize(p))
        assert zd.real == pytest.approx(3 ** 4, rel=1e-12)


class TestDuality:
    def test_triangle_ising(self):
        assert duality_check(ising_model(triangle(), 0.5)) < 1e-12

    def test_grid_potts_random(self):
        rng = np.random.default_rng(11)
        p = potts_model(grid_graph(2, 3), 3, rng.uniform(0, 1, 7), rng.uniform(0, 1, 6))
        assert duality_check(p) < 1e-12

    def test_tree_any_model(self):
        p = potts_model(path_graph(5), 4, [0.3, -0.6, 1.2, 0.1], 0.2)
        assert scale_factor(p.graph, p.alphabet) == 1
        assert duality_check(p) < 1e-12

    def test_random_corpus(self, small_model_corpus):
        for p, _family in small_model_corpus:
            assert duality_check(p) < 1e-10

    def test_sixteen_dual_variables(self):
        # densest binary case the invariant quantifies over: 16 edge variables
        rng = np.random.default_rng(6)
        from tests.conftest import random_connected_graph

        g = random_connected_graph(rng, max_vertices=8, max_edges=16, q=2,
                                   max_states=2 ** 16)
        while g.num_edges < 16:
            g = random_connected_graph(rng, max_vertices=8, max_edges=16, q=2,
                                       max_states=2 ** 16)
        p = ising_model(g, rng.uniform(-1, 1, g.num_edges), rng.uniform(0, 1, g.num_vertices))
        assert duality_check(p) < 1e-10


class TestMarginals:
    def test_single_free_edge(self):
        bj = 0.8
        mv = marginals_primal(ising_model(path_graph(2), bj)).edge(0)
        assert mv.values[0].real == pytest.approx(np.exp(bj) / (2 * np.cosh(bj)), rel=1e-13)

    def test_zero_coupling_uniform(self):
        om = marginals_primal(potts_model(triangle(), 3, 0.0))
        assert np.allclose(om.edge_values, 1 / 3, atol=1e-13)
        assert np.allclose(om.vertex_values, 1 / 3, atol=1e-13)

    def test_toroidal_ising_sums(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.4)
        om = marginals_primal(p)
        assert np.allclose(om.edge_values.sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(om.vertex_values.sum(axis=1), 1.0, atol=1e-10)

    def test_vertex_marginal_known_symmetry(self):
        p = ising_model(ring_graph(4), 0.7)
        mv = marginals_primal(p).vertex(2)
        assert np.allclose(mv.values.real, [0.5, 0.5], atol=1e-12)

    def test_signed_marginal_functions_sum_to_one(self, small_model_corpus):
        for p, _family in small_model_corpus[:12]:
            dm = marginals_dual(dualize(p))
            assert np.allclose(dm.edge_values.sum(axis=1), 1.0, atol=1e-10)
            assert np.allclose(dm.vertex_values.sum(axis=1), 1.0, atol=1e-10)

    def test_ring_dual_marginal_closed_form(self):
        bjs = np.array([0.4, 0.6, 0.9, 1.2])
        p = ising_model(ring_graph(4), bjs)
        mv = marginals_dual(dualize(p)).edge(1)
        expected = 1.0 / (1.0 + np.prod(np.tanh(bjs)))
        assert mv.values[0].real == pytest.approx(expected, rel=1e-12)

    def test_free_chain_dual_is_delta(self):
        p = ising_model(path_graph(4), [0.3, 0.7, 1.0])
        dm = marginals_dual(dualize(p))
        assert np.allclose(dm.edge_values[:, 0], 1.0, atol=1e-12)
        assert np.allclose(dm.edge_values[:, 1], 0.0, atol=1e-12)


class TestSumProductDecomposition:
    def test_sum_product_rule_every_edge(self):
        rng = np.random.default_rng(3)
        p = potts_model(triangle(), 3, rng.uniform(-1, 1, 3), rng.uniform(0, 1, 3))
        zp = partition_primal(p)
        for e in range(p.graph.num_edges):
            s = extrinsic_vector(p, e)
            assert abs(np.dot(s, p.edge_tables[e]) - zp) / abs(zp) < 1e-10

    def test_intermediate_dual_identity(self):
        rng = np.random.default_rng(4)
        p = ising_model(ring_graph(4), rng.uniform(-1, 1, 4), rng.uniform(0, 1, 4))
        alpha = scale_factor(p.graph, p.alphabet)
        for e in (0, 2):
            zi = intermediate_dual_partition(p, e)
            s = extrinsic_vector(p, e)
            assert np.abs(zi - alpha * s).max() / np.abs(s).max() < 1e-10


class TestClosedForms:
    @pytest.mark.parametrize("boundary", ["free", "periodic"])
    def test_chain_matches_enumeration(self, boundary):
        rng = np.random.default_rng(8)
        for n_edges in (3, 5, 8):
            bjs = rng.uniform(0.1, 2.0, n_edges)
            if boundary == "free":
                g = path_graph(n_edges + 1)
            else:
                g = ring_graph(n_edges)
            p = ising_model(g, bjs)
            closed = chain_ising_marginals(bjs, boundary)
            om = marginals_primal(p)
            dm = marginals_dual(dualize(p))
            for e in range(n_edges):
                assert np.abs(closed.edge_primal[e].values - om.edge_values[e]).max() < 1e-12
                assert np.abs(closed.edge_dual[e].values - dm.edge_values[e]).max() < 1e-12
            for v in range(g.num_vertices):
                assert np.abs(closed.vertex_primal[v].values - om.vertex_values[v]).max() < 1e-12
                assert np.abs(closed.vertex_dual[v].values - dm.vertex_values[v]).max() < 1e-12

    def test_chain_zero_coupling_uniform_edges(self):
        closed = chain_ising_marginals([0.0, 0.0], "free")
        assert np.allclose(closed.edge_primal[0].values.real, [0.5, 0.5], atol=1e-14)
        ring = chain_ising_marginals([0.0, 0.0, 0.0], "periodic")
        assert np.allclose(ring.edge_primal[0].values.real, [0.5, 0.5], atol=1e-14)

    def test_ring_potts_matches_enumeration(self):
        for q, n, bj in ((3, 4, 0.7), (4, 5, 1.1), (5, 3, 0.4)):
            primal, dual = ring_potts_marginals(q, bj, n)
            p = potts_model(ring_graph(n), q, bj)
            om = marginals_primal(p)
            dm = marginals_dual(dualize(p))
            assert np.abs(primal.values - om.edge_values[0]).max() < 1e-12
            assert np.abs(dual.values - dm.edge_values[0]).max() < 1e-12

    def test_ring_potts_q2_consistent_with_ising_ring(self):
        bj, n = 0.9, 5
        primal, dual = ring_potts_marginals(2, 2 * bj, n)
        closed = chain_ising_marginals([bj] * n, "periodic")
        # the q=2 Potts model at coupling 2*bJ is the Ising model at bJ up to
        # a constant factor per edge, so the marginals coincide
        assert np.abs(primal.values - closed.edge_primal[0].values).max() < 1e-12
        assert np.abs(dual.values - closed.edge_dual[0].values).max() < 1e-12

    def test_ring_potts_zero_coupling_uniform(self):
        primal, dual = ring_potts_marginals(3, 0.0, 4)
        assert np.allclose(primal.values.real, 1 / 3, atol=1e-13)

    def test_signed_couplings_supported(self):
        bjs = np.array([-0.4, 0.6, 0.9])
        closed = chain_ising_marginals(bjs, "periodic")
        p = ising_model(ring_graph(3), bjs)
        dm = marginals_dual(dualize(p))
        assert np.abs(closed.edge_dual[0].values - dm.edge_values[0]).max() < 1e-12
