"""Enumeration oracles: partition functions, duality, marginals, closed forms."""

import numpy as np
import pytest

from nfgdual import oracle
from nfgdual.graphs import Graph, grid_graph, path_graph, ring_graph, scale_factor
from nfgdual.nfg import PrimalNFG, _factor_view, clock_model, dualize, ising_model, potts_model
from nfgdual.oracle import (
    EnumerationBudgetError,
    _enumerate,
    chain_ising_marginals,
    duality_check,
    enumeration_budget,
    extrinsic_vector,
    intermediate_dual_partition,
    marginals_dual,
    marginals_primal,
    ring_potts_marginals,
)
from nfgdual.validate import random_connected_graph, random_model


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def reference_enumerate(model, skip_factor=None):
    """The per-chunk enumerator that _enumerate must reproduce bit for bit.

    Every state's digits come from integer division, every factor argument
    from a signed-sum matmul; weights multiply in factor order, Z adds one
    pairwise sum per 2^17-state chunk and each factor row accumulates by
    np.add.at in state order.
    """
    scopes, num_vars, tables = _factor_view(model)
    q = model.alphabet.q
    total = q ** num_vars
    chunk = 1 << 17
    direct = [vs[0] if ss == (1,) else None for vs, ss in scopes]
    summed = [i for i, var in enumerate(direct) if var is None]
    signs = np.zeros((len(summed), num_vars), dtype=np.int64)
    for row, i in enumerate(summed):
        for var, sign in zip(*scopes[i]):
            signs[row, var] += sign
    powers = q ** np.arange(num_vars, dtype=np.int64)
    sums = np.zeros((len(scopes), q), dtype=np.complex128)
    z = 0.0 + 0.0j
    for lo in range(0, total, chunk):
        digits = np.arange(lo, min(lo + chunk, total), dtype=np.int64) // powers[:, None]
        digits %= q
        rows = signs @ digits
        rows %= q
        args = [None if var is None else digits[var] for var in direct]
        for row, i in enumerate(summed):
            args[i] = rows[row]
        w = np.ones(digits.shape[1], dtype=np.complex128)
        for i, arg in enumerate(args):
            if i != skip_factor:
                w *= tables[i][arg]
        z += w.sum()
        for i, arg in enumerate(args):
            np.add.at(sums[i], arg, w)
    return z, sums


def _reference_corpus():
    rng = np.random.default_rng(8801)
    models = [random_model(rng, max_vertices=7, max_edges=10, max_states=2 ** 14)[0]
              for _ in range(10)]
    for family in (potts_model, clock_model):
        g = random_connected_graph(rng, max_vertices=6, max_edges=6, q=5, max_states=5 ** 6)
        models.append(family(g, 5, rng.uniform(-1, 1, g.num_edges)))
    models += [
        potts_model(grid_graph(3, 3), 3, rng.uniform(-1, 1, 12), rng.uniform(0, 1, 9)),
        clock_model(grid_graph(2, 3), 4, rng.uniform(-1, 1, 7), rng.uniform(0, 1, 6)),
        ising_model(triangle(), [0.4, -0.7, 0.2], [0.3, 0.1, 0.6]),
        ising_model(path_graph(2), 0.8, [0.2, 0.5]),
        ising_model(Graph(1, []), [], 0.5),
    ]
    return [m for p in models for m in (p, dualize(p))]


REFERENCE_CORPUS = _reference_corpus()


class TestEnumerateMatchesReference:
    """_enumerate against reference_enumerate: Z and every row, bit for bit.

    The corpus holds random models with q from 2 to 5 in both domains, a
    q=3 dual of 3^12 states (several 2^17-state chunks), a q=4 clock grid
    (four blocks of 4^6 states in the dual), models of a few
    states, a one-edge graph and the dual of a one-vertex, zero-edge graph.
    Each runs as it is, with edge 0 struck and with the last edge struck: the
    struck edge's table set to ones, as extrinsic_vector does it, against
    the reference that leaves the table out of the product.
    """

    @pytest.mark.parametrize("model", REFERENCE_CORPUS,
                             ids=[f"{m.domain}-q{m.alphabet.q}-e{m.graph.num_edges}"
                                  for m in REFERENCE_CORPUS])
    def test_bit_identical(self, model):
        ne = model.graph.num_edges
        for skip in dict.fromkeys([None, 0, ne - 1] if ne else [None]):
            z, sums = _enumerate(model if skip is None else oracle._struck(model, skip))
            z_ref, sums_ref = reference_enumerate(model, skip_factor=skip)
            assert z == z_ref
            assert np.array_equal(sums, sums_ref)


class TestPartitionPrimal:
    def test_single_edge_closed_form(self):
        bj = 0.6
        z = marginals_primal(ising_model(path_graph(2), bj)).partition
        assert z.real == pytest.approx(2 * np.exp(bj) + 2 * np.exp(-bj), rel=1e-14)

    def test_zero_model_counts_states(self):
        assert marginals_primal(potts_model(triangle(), 3, 0.0)).partition.real == pytest.approx(27)
        assert marginals_primal(ising_model(grid_graph(2, 3), 0.0)).partition.real == pytest.approx(64)

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("NFG_DUAL_BUDGET", "100")
        p = ising_model(grid_graph(3, 3), 0.3)
        with pytest.raises(EnumerationBudgetError, match="budget"):
            marginals_primal(p).partition

    @pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
    def test_env_var_budget_must_be_a_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("NFG_DUAL_BUDGET", value)
        with pytest.raises(ValueError, match=f"NFG_DUAL_BUDGET='{value}'"):
            enumeration_budget()

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv("NFG_DUAL_BUDGET", "100")
        assert enumeration_budget() == 100
        p = ising_model(grid_graph(3, 3), 0.3)
        with pytest.raises(EnumerationBudgetError):
            marginals_primal(p).partition
        monkeypatch.delenv("NFG_DUAL_BUDGET")
        assert enumeration_budget() == 2 ** 26


class TestPartitionDual:
    def test_tree_zero_field_closed_form(self):
        bjs = np.array([0.4, 0.9, 1.3])
        p = ising_model(path_graph(4), bjs)
        zd = marginals_dual(dualize(p)).partition
        expected = 2 ** 4 * np.prod(np.cosh(bjs))
        assert zd.real == pytest.approx(expected, rel=1e-12)

    def test_ring_zero_field_closed_form_up_to_scale(self):
        bjs = np.array([0.5, 0.8, 1.1])
        p = ising_model(ring_graph(3), bjs)
        zd = marginals_dual(dualize(p)).partition
        alpha = scale_factor(p.graph, p.alphabet)
        closed = 2 ** 3 * (np.prod(np.cosh(bjs)) + np.prod(np.sinh(bjs)))
        assert zd.real == pytest.approx(alpha * closed, rel=1e-12)

    def test_zero_couplings_zero_fields(self):
        p = potts_model(triangle(), 3, 0.0, 0.0)
        zd = marginals_dual(dualize(p)).partition
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
    @pytest.mark.parametrize("domain", ["primal", "dual"])
    def test_overflowed_table_refused(self, domain):
        # exp(800) overflows edge 0's primal table to [inf, 0]; the model
        # refuses it when it is built, so no enumeration reads it
        marginals = marginals_primal if domain == "primal" else lambda p: marginals_dual(dualize(p))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="edge 0 table is not finite"):
                marginals(ising_model(ring_graph(4), [800, 0.3, 0.2, 0.1], 0.1))

    @pytest.mark.parametrize("domain", ["primal", "dual"])
    def test_overflowing_weights_refused(self, domain):
        # every table is finite, but e^709.5 on edge 0 times its neighbours'
        # weights overflows; the sums were NaN before, under numpy warnings
        p = ising_model(ring_graph(4), [709.5, 0.3, 0.2, 0.1], 0.1)
        marginals = marginals_primal if domain == "primal" else lambda p: marginals_dual(dualize(p))
        with pytest.raises(ValueError, match=f"^{domain} enumeration overflows"):
            marginals(p)

    def test_non_finite_vertex_table_refused(self):
        p = ising_model(ring_graph(3), 0.3, 0.1)
        vertex_tables = p.vertex_tables.copy()
        vertex_tables[2, 1] = np.nan
        with pytest.raises(ValueError, match="vertex 2 table is not finite"):
            marginals_primal(PrimalNFG(p.graph, p.alphabet, p.edge_tables, vertex_tables)).partition

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
        zp = marginals_primal(p).partition
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

    def test_intermediate_dual_partition_enumerates_once(self, monkeypatch):
        calls = []
        enumerate_ = oracle._enumerate

        def counted(model, *args, **kwargs):
            calls.append(model)
            return enumerate_(model, *args, **kwargs)

        monkeypatch.setattr(oracle, "_enumerate", counted)
        p = potts_model(triangle(), 3, [0.4, -0.2, 0.7], 0.3)
        zi = intermediate_dual_partition(p, 1)
        assert [m.domain for m in calls] == ["dual"]
        assert np.array_equal(calls[0].edge_tables[1], np.ones(3))
        assert zi.shape == (3,)

    @pytest.mark.parametrize("e", [-1, 3, True, 1.0])
    def test_edge_index_out_of_range_refused(self, e):
        p = ising_model(triangle(), 0.3, 0.1)
        for strike in (extrinsic_vector, intermediate_dual_partition):
            with pytest.raises(ValueError, match=r"not in \[0, 3\): the model has 3 edges"):
                strike(p, e)


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
            closed_p, closed_d = chain_ising_marginals(bjs, boundary)
            om = marginals_primal(p)
            dm = marginals_dual(dualize(p))
            for closed, exact in ((closed_p, om), (closed_d, dm)):
                assert closed.domain == exact.domain
                assert np.abs(closed.edge_values - exact.edge_values).max() < 1e-12
                assert np.abs(closed.vertex_values - exact.vertex_values).max() < 1e-12

    def test_chain_zero_coupling_uniform_edges(self):
        closed, _ = chain_ising_marginals([0.0, 0.0], "free")
        assert np.allclose(closed.edge_values.real, 0.5, atol=1e-14)
        ring, _ = chain_ising_marginals([0.0, 0.0, 0.0], "periodic")
        assert np.allclose(ring.edge_values.real, 0.5, atol=1e-14)

    def test_ring_potts_matches_enumeration(self):
        for q, n, bj in ((3, 4, 0.7), (4, 5, 1.1), (5, 3, 0.4)):
            primal, dual = ring_potts_marginals(q, bj, n)
            p = potts_model(ring_graph(n), q, bj)
            for closed, exact in ((primal, marginals_primal(p)), (dual, marginals_dual(dualize(p)))):
                assert closed.domain == exact.domain
                assert closed.edge_values.shape == (n, q) and closed.vertex_values.shape == (n, q)
                assert np.abs(closed.edge_values - exact.edge_values).max() < 1e-12
                assert np.abs(closed.vertex_values - exact.vertex_values).max() < 1e-12

    def test_ring_potts_q2_consistent_with_ising_ring(self):
        bj, n = 0.9, 5
        potts = ring_potts_marginals(2, 2 * bj, n)
        ising = chain_ising_marginals([bj] * n, "periodic")
        # the q=2 Potts model at coupling 2*bJ is the Ising model at bJ up to
        # a constant factor per edge, so the marginals coincide
        for closed_potts, closed_ising in zip(potts, ising):
            assert np.abs(closed_potts.edge_values - closed_ising.edge_values).max() < 1e-12
            assert np.array_equal(closed_potts.vertex_values, closed_ising.vertex_values)

    @pytest.mark.parametrize("args,name,least", [
        ((1, 0.5, 4), "q", 2),  # used to return one-state records
        ((3.0, 0.5, 4), "q", 2),
        ((3, 0.5, 2), "num_edges", 3),
        ((3, 0.5, True), "num_edges", 3),
    ])
    def test_ring_potts_counts_refused_by_name(self, args, name, least):
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least {least}"):
            ring_potts_marginals(*args)

    def test_ring_potts_zero_coupling_uniform(self):
        primal, _ = ring_potts_marginals(3, 0.0, 4)
        assert np.allclose(primal.edge_values.real, 1 / 3, atol=1e-13)

    def test_signed_couplings_supported(self):
        bjs = np.array([-0.4, 0.6, 0.9])
        _, closed_d = chain_ising_marginals(bjs, "periodic")
        p = ising_model(ring_graph(3), bjs)
        dm = marginals_dual(dualize(p))
        assert np.abs(closed_d.edge_values - dm.edge_values).max() < 1e-12
