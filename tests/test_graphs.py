"""Graph backbone: incidence construction, mod-q configurations, topology constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfgdual.graphs import (
    Alphabet,
    Graph,
    GraphError,
    betti,
    build_incidence,
    complete_graph,
    dual_vertex_config,
    edge_config,
    grid_graph,
    path_graph,
    ring_graph,
    scale_factor,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0), (1, 2)])

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            Graph(4, [(0, 1), (2, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_single_vertex_allowed(self):
        g = Graph(1, [])
        assert g.num_edges == 0
        assert betti(g) == 0

    def test_alphabet_requires_q_at_least_two(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    @pytest.mark.parametrize("q", [2.5, 3.0, "3"])
    def test_alphabet_refuses_a_q_that_is_not_an_integer(self, q):
        # Alphabet(2.5) used to build a 3x3 DFT matrix from exp(-2 pi i / 2.5)
        with pytest.raises(ValueError, match="alphabet size must be an integer"):
            Alphabet(q)

    def test_alphabet_accepts_numpy_integers(self):
        assert np.array_equal(Alphabet(np.int64(3)).dft_matrix(), Alphabet(3).dft_matrix())


class TestIncidence:
    def test_triangle_rows(self):
        m = build_incidence(triangle())
        expected = np.array([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])
        assert np.array_equal(m, expected)

    def test_path_single_row(self):
        m = build_incidence(path_graph(2))
        assert np.array_equal(m, [[1, -1]])

    def test_rows_sum_to_zero(self):
        for g in (triangle(), grid_graph(3, 3), complete_graph(5)):
            assert np.all(build_incidence(g).sum(axis=1) == 0)

    def test_column_nnz_is_degree(self):
        g = grid_graph(3, 4)
        m = build_incidence(g)
        for v in range(g.num_vertices):
            assert np.count_nonzero(m[:, v]) == len(g.incident_edges(v))

    def test_rank_is_vertices_minus_one(self):
        for g in (triangle(), grid_graph(2, 3), complete_graph(4)):
            assert np.linalg.matrix_rank(build_incidence(g).astype(float)) == g.num_vertices - 1


class TestConfigs:
    def test_three_cycle_mod2(self):
        m = build_incidence(triangle())
        y = edge_config(m, [1, 0, 1], Alphabet(2))
        assert np.array_equal(y, [1, 1, 0])

    def test_path_equal_endpoints(self):
        m = build_incidence(path_graph(2))
        assert np.array_equal(edge_config(m, [1, 1], Alphabet(2)), [0])

    def test_path_mod3(self):
        m = build_incidence(path_graph(2))
        assert np.array_equal(edge_config(m, [0, 2], Alphabet(3)), [1])

    def test_triangle_mod4(self):
        m = build_incidence(triangle())
        assert np.array_equal(edge_config(m, [1, 3, 2], Alphabet(4)), [2, 1, 1])

    def test_dual_config_zeros(self):
        m = build_incidence(triangle())
        assert np.array_equal(dual_vertex_config(m, [0, 0, 0], Alphabet(2)), [0, 0, 0])

    def test_dual_config_cycle_ones(self):
        m = build_incidence(triangle())
        assert np.array_equal(dual_vertex_config(m, [1, 1, 1], Alphabet(2)), [0, 0, 0])

    def test_dual_config_path_mod3(self):
        m = build_incidence(path_graph(2))
        assert np.array_equal(dual_vertex_config(m, [2], Alphabet(3)), [2, 1])

    def test_dimension_mismatch(self):
        m = build_incidence(triangle())
        with pytest.raises(ValueError):
            edge_config(m, [0, 1], Alphabet(2))
        with pytest.raises(ValueError):
            dual_vertex_config(m, [0, 1], Alphabet(2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10 ** 9))
    def test_edge_config_is_linear(self, q, seed):
        g = grid_graph(2, 3)
        m = build_incidence(g)
        a = Alphabet(q)
        rng = np.random.default_rng(seed)
        x1 = rng.integers(0, q, g.num_vertices)
        x2 = rng.integers(0, q, g.num_vertices)
        lhs = edge_config(m, (x1 + x2) % q, a)
        rhs = (edge_config(m, x1, a) + edge_config(m, x2, a)) % q
        assert np.array_equal(lhs, rhs)


class TestTopologyConstants:
    def test_betti_tree_zero(self):
        assert betti(path_graph(2)) == 0
        assert betti(path_graph(7)) == 0

    def test_betti_triangle(self):
        assert betti(triangle()) == 1

    def test_betti_torus(self):
        for n in (3, 4, 5):
            g = grid_graph(n, n, periodic=True)
            assert g.num_edges == 2 * n * n
            assert betti(g) == n * n + 1

    def test_betti_nonnegative_tree_iff_zero(self):
        assert betti(ring_graph(5)) == 1
        assert betti(complete_graph(5)) == 6

    def test_scale_factor(self):
        assert scale_factor(path_graph(5), Alphabet(3)) == 1
        assert scale_factor(triangle(), Alphabet(2)) == 2
        assert scale_factor(grid_graph(3, 3, periodic=True), Alphabet(3)) == 3 ** 10


class TestBuilders:
    def test_ring_minimum_size(self):
        with pytest.raises(GraphError):
            ring_graph(2)

    def test_periodic_2x2_deduplicates_wrap_edges(self):
        g = grid_graph(2, 2, periodic=True)
        assert g.num_edges == 4
        assert betti(g) == 1

    def test_periodic_grid_degrees(self):
        g = grid_graph(4, 4, periodic=True)
        assert all(len(g.incident_edges(v)) == 4 for v in range(16))

    def test_complete_graph_edge_count(self):
        assert complete_graph(10).num_edges == 45
