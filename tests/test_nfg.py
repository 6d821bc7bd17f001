"""Factor tables, DFT/IDFT, model builders, dualization, and dual-sign gating."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfgdual.graphs import Alphabet, Graph, path_graph, ring_graph
from nfgdual.nfg import (
    PrimalNFG,
    clock_edge_table,
    clock_model,
    dft_table,
    dualize,
    idft_table,
    ising_edge_table,
    ising_model,
    is_nonnegative,
    potts_edge_table,
    potts_model,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


class TestDft:
    def test_ising_table_transforms_to_hyperbolics(self):
        bj = 0.73
        out = dft_table(ising_edge_table(bj), Alphabet(2))
        assert np.allclose(out, [2 * np.cosh(bj), 2 * np.sinh(bj)], atol=1e-14)

    def test_uniform_becomes_delta(self):
        out = dft_table([1, 1, 1], Alphabet(3))
        assert np.allclose(out, [3, 0, 0], atol=1e-14)

    def test_potts_q3_closed_form(self):
        bj = 0.9
        out = dft_table(potts_edge_table(3, bj), Alphabet(3))
        e = np.exp(bj)
        assert np.allclose(out, [e + 2, e - 1, e - 1], atol=1e-12)

    def test_idft_of_delta(self):
        assert np.allclose(idft_table([2, 0], Alphabet(2)), [1, 1], atol=1e-15)

    def test_idft_recovers_potts_table(self):
        bj = 1.3
        e = np.exp(bj)
        out = idft_table([e + 2, e - 1, e - 1], Alphabet(3))
        assert np.allclose(out, [e, 1, 1], atol=1e-12)

    def test_roundtrip_fixed_table(self):
        a = Alphabet(2)
        forth = dft_table([1.0, 2.0], a)
        assert np.allclose(forth, [3.0, -1.0], atol=1e-14)
        assert np.allclose(idft_table(forth, a), [1.0, 2.0], atol=1e-14)

    def test_wrong_length_table_rejected(self):
        for transform in (dft_table, idft_table):
            with pytest.raises(ValueError, match="alphabet size 3"):
                transform([1.0, 2.0], Alphabet(3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10 ** 9))
    def test_roundtrip_random_complex(self, q, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=q) + 1j * rng.normal(size=q)
        a = Alphabet(q)
        back = idft_table(dft_table(table, a), a)
        scale = max(1.0, np.abs(table).max())
        assert np.abs(back - table).max() < 1e-12 * scale
        forth = dft_table(idft_table(table, a), a)
        assert np.abs(forth - table).max() < 1e-12 * scale


class TestBuilders:
    def test_ising_zero_coupling_uniform(self):
        p = ising_model(path_graph(2), 0.0)
        assert np.allclose(p.edge_tables[0], [1, 1])

    def test_ising_exponentials(self):
        p = ising_model(path_graph(2), 0.44, 0.15)
        assert np.allclose(p.edge_tables[0].real, [1.5527072, 0.6440364], atol=1e-6)
        assert np.allclose(p.vertex_tables[0].real, [1.1618342, 0.8607080], atol=1e-6)

    def test_potts_tables(self):
        p = potts_model(triangle(), 3, 1.0)
        assert np.allclose(p.edge_tables[0], [np.e, 1, 1])
        p5 = potts_model(triangle(), 5, np.log(2.0))
        assert np.allclose(p5.edge_tables[0], [2, 1, 1, 1, 1])
        p0 = potts_model(triangle(), 3, 0.0)
        assert np.allclose(p0.edge_tables, 1.0)

    def test_clock_q4_table(self):
        t = clock_edge_table(4, 1.0)
        assert np.allclose(t, [np.e, 1, 1 / np.e, 1], atol=1e-14)

    def test_clock_q2_reduces_to_ising(self):
        assert np.allclose(clock_edge_table(2, 0.7), ising_edge_table(0.7), atol=1e-14)

    def test_clock_q3_table(self):
        t = clock_edge_table(3, 1.0)
        assert np.allclose(t, [np.e, np.exp(-0.5), np.exp(-0.5)], atol=1e-14)

    def test_clock_vertex_factors_are_ones(self):
        p = clock_model(triangle(), 4, 0.5)
        assert np.allclose(p.vertex_tables, 1.0)

    def test_clock_field_tables(self):
        p = clock_model(triangle(), 4, 0.5, [1.0, 0.0, -1.0])
        assert np.allclose(p.vertex_tables[0], [np.e, 1, 1 / np.e, 1], atol=1e-14)
        assert np.allclose(p.vertex_tables[1], 1.0)
        assert np.allclose(p.vertex_tables[2], [1 / np.e, 1, np.e, 1], atol=1e-14)

    def test_per_edge_couplings(self):
        p = ising_model(triangle(), [0.1, 0.2, 0.3])
        assert np.allclose(p.edge_tables[:, 0].real, np.exp([0.1, 0.2, 0.3]))

    def test_wrong_length_couplings_rejected(self):
        with pytest.raises(ValueError):
            ising_model(triangle(), [0.1, 0.2])

    def test_primal_rejects_negative_tables(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PrimalNFG(path_graph(2), Alphabet(2), [[1.0, -0.5]], [[1, 1], [1, 1]])

    def test_primal_rejects_complex_tables(self):
        with pytest.raises(ValueError, match="real"):
            PrimalNFG(path_graph(2), Alphabet(2), [[1.0, 0.5 + 1e-9j]], [[1, 1], [1, 1]])

    @pytest.mark.parametrize("build,q", [
        (lambda g: ising_model(g, [], 0.5), 2),
        (lambda g: potts_model(g, 3, [], 0.5), 3),
        (lambda g: clock_model(g, 4, [], 0.5), 4),
    ], ids=["ising", "potts", "clock"])
    def test_graph_without_edges(self, build, q):
        p = build(Graph(1, []))
        assert p.edge_tables.shape == (0, q) and p.vertex_tables.shape == (1, q)


class TestDualize:
    def test_ising_dual_tables(self):
        bj, bh = 0.8, 0.3
        d = dualize(ising_model(path_graph(2), bj, bh))
        assert np.allclose(d.edge_tables[0], [2 * np.cosh(bj), 2 * np.sinh(bj)], atol=1e-13)
        assert np.allclose(d.vertex_tables[0], [2 * np.cosh(bh), 2 * np.sinh(bh)], atol=1e-13)

    def test_potts_dual_tables(self):
        q, bj = 4, 0.6
        d = dualize(potts_model(ring_graph(4), q, bj))
        e = np.exp(bj)
        assert np.allclose(d.edge_tables[0], [e - 1 + q, e - 1, e - 1, e - 1], atol=1e-12)

    def test_clock4_dual_table(self):
        bj = 0.9
        d = dualize(clock_model(ring_graph(4), 4, bj))
        ch, sh = np.cosh(bj), np.sinh(bj)
        assert np.allclose(
            d.edge_tables[0], [2 * (ch + 1), 2 * sh, 2 * (ch - 1), 2 * sh], atol=1e-12
        )

    def test_dual_table_helpers_match_dft(self):
        from nfgdual.nfg import ising_dual_edge_table, potts_dual_edge_table

        for bj in (-0.6, 0.3, 1.7):
            got = dft_table(ising_edge_table(bj), Alphabet(2))
            assert np.abs(got - ising_dual_edge_table(bj)).max() < 1e-12
        for q, bj in ((3, -0.4), (4, 0.7), (7, 1.3)):
            got = dft_table(potts_edge_table(q, bj), Alphabet(q))
            assert np.abs(got - potts_dual_edge_table(q, bj)).max() < 1e-12

    def test_zero_model_dual_is_scaled_delta(self):
        for p in (
            ising_model(triangle(), 0.0, 0.0),
            potts_model(triangle(), 3, 0.0, 0.0),
            clock_model(triangle(), 4, 0.0),
        ):
            q = p.alphabet.q
            d = dualize(p)
            expected = np.zeros(q)
            expected[0] = q
            assert np.allclose(d.edge_tables, expected[None, :], atol=1e-12)

    def test_ising_hyperbolic_identity(self):
        rng = np.random.default_rng(7)
        bjs = rng.uniform(-2, 2, size=6)
        d = dualize(ising_model(path_graph(7), bjs, 0.1))
        vals = d.edge_tables.real
        assert np.allclose(vals[:, 0] ** 2 - vals[:, 1] ** 2, 4.0, atol=1e-10)

    def test_potts_dual_gap_is_q(self):
        for q in (3, 4, 5):
            d = dualize(potts_model(triangle(), q, 0.77))
            vals = d.edge_tables.real
            for t in range(1, q):
                assert np.allclose(vals[:, 0] - vals[:, t], q, atol=1e-10)


class TestNonnegativity:
    def test_ferromagnetic_ising_nonnegative(self):
        d = dualize(ising_model(triangle(), 0.9, 0.2))
        assert is_nonnegative(d)

    def test_antiferromagnetic_ising_signed(self):
        d = dualize(ising_model(triangle(), [-0.5, 0.5, 0.5], 0.0))
        assert not is_nonnegative(d)

    def test_frustrated_potts_signed(self):
        d = dualize(potts_model(triangle(), 3, [-0.25, 0.8, 0.8]))
        assert not is_nonnegative(d)
