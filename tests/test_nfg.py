"""Factor tables, DFT/IDFT, model builders, dualization, and dual-sign gating."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfgdual.graphs import Alphabet, Graph, path_graph, ring_graph
from nfgdual.nfg import (
    DualNFG,
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
from nfgdual.oracle import _struck, marginals_primal


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def _tables_with(kind: str, row) -> tuple:
    """Triangle edge and vertex tables of ones, with row 1 of kind's tables set to row."""
    tables = {"edge": np.ones((3, 2)), "vertex": np.ones((3, 2))}
    tables[kind][1] = row
    return tables["edge"], tables["vertex"]


# (site, build) of a model with a table that is not finite at that site
_NON_FINITE = {
    f"{build.__name__}-{kind}-{name}": (
        f"{kind} 1", lambda build=build, kind=kind, value=value:
        build(triangle(), Alphabet(2), *_tables_with(kind, [1.0, value])))
    for build in (PrimalNFG, DualNFG) for kind in ("edge", "vertex")
    for name, value in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf))
}
_NON_FINITE.update({
    "ising_model-coupling-overflow": ("edge 1", lambda: ising_model(triangle(), [0.1, 800, 0.2])),
    "ising_model-coupling-nan": ("edge 1", lambda: ising_model(triangle(), [0.1, np.nan, 0.2])),
    "ising_model-field-overflow": ("vertex 1",
                                   lambda: ising_model(triangle(), 0.1, [0.1, -800, 0.2])),
    "potts_model-coupling-overflow": ("edge 1", lambda: potts_model(triangle(), 3, [0, 800, 0])),
    "clock_model-field-overflow": ("vertex 1",
                                   lambda: clock_model(triangle(), 4, 0.1, [0, 800, 0])),
    # finite primal tables whose DFT overflows
    "dualize-edge-overflow": ("edge 1", lambda: dualize(
        PrimalNFG(triangle(), Alphabet(2), *_tables_with("edge", [1e308, 1e308])))),
    "dualize-vertex-overflow": ("vertex 1", lambda: dualize(
        PrimalNFG(triangle(), Alphabet(2), *_tables_with("vertex", [1e308, 1e308])))),
})


class TestFrozenModels:
    @pytest.mark.parametrize("site,build", _NON_FINITE.values(), ids=_NON_FINITE)
    def test_non_finite_table_refused_when_built(self, site, build):
        # no np.errstate here: the suite turns a RuntimeWarning into an error,
        # so each refusal must come without a numpy overflow warning
        with pytest.raises(ValueError, match=f"^{site} table is not finite$"):
            build()

    @pytest.mark.parametrize("name", [name for name in _NON_FINITE
                                      if name.split("-")[0].endswith("_model")
                                      and name.endswith("-overflow")])
    def test_builder_overflow_refused_without_a_warning(self, name):
        # the suite turns a RuntimeWarning into an error, so numpy's overflow
        # warning from the table builder would fail this before the refusal
        site, build = _NON_FINITE[name]
        with pytest.raises(ValueError, match=f"^{site} table is not finite$"):
            build()

    @pytest.mark.parametrize("domain", ["primal", "dual"])
    def test_tables_cannot_be_rebound_or_written(self, domain):
        p = ising_model(triangle(), 0.5, 0.1)
        model = p if domain == "primal" else dualize(p)
        for name in ("graph", "alphabet", "edge_tables", "vertex_tables"):
            with pytest.raises(FrozenInstanceError):
                setattr(model, name, getattr(model, name))
        with pytest.raises(ValueError, match="read-only"):
            model.vertex_tables[0, 0] = 2.0

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("domain", ["primal", "dual"])
    def test_copies_stay_read_only(self, copy_of, domain):
        p = ising_model(ring_graph(4), 0.5, 0.1)
        model = p if domain == "primal" else dualize(p)
        twin = copy_of(model)
        assert type(twin) is type(model)
        for kind in ("edge_tables", "vertex_tables"):
            tables = getattr(twin, kind)
            assert np.array_equal(tables, getattr(model, kind))
            assert not tables.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                tables[0, 0] = np.nan

    def test_tables_are_private_copies(self):
        edge, vertex = _tables_with("edge", [2.0, 1.0])
        p = PrimalNFG(triangle(), Alphabet(2), edge, vertex)
        edge[1] = 5.0
        assert np.array_equal(p.edge_tables[1], [2.0, 1.0])


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

    def test_builders_refuse_a_q_that_is_not_an_integer(self):
        # potts_model(g, 2.5) used to fail inside numpy with a TypeError
        for build in (potts_model, clock_model):
            with pytest.raises(ValueError, match="alphabet size must be an integer"):
                build(triangle(), 2.5, 0.1)

    def test_primal_rejects_negative_tables(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PrimalNFG(path_graph(2), Alphabet(2), [[1.0, -0.5]], [[1, 1], [1, 1]])

    def test_primal_rejects_complex_tables(self):
        with pytest.raises(ValueError, match="real"):
            PrimalNFG(path_graph(2), Alphabet(2), [[1.0, 0.5 + 1e-9j]], [[1, 1], [1, 1]])

    def test_primal_imaginary_rounding_snapped_when_built(self):
        # the 1e-13j used to be stored, so the oracle returned Z = 28+2.4e-12j and
        # edge rows with 3.3e-14j while BP's real engine dropped them
        p = PrimalNFG(ring_graph(3), Alphabet(2), [[2, 1 + 1e-13j]] * 3, [[1, 1]] * 3)
        assert not p.edge_tables.imag.any() and not p.vertex_tables.imag.any()
        exact = marginals_primal(p)
        assert exact.partition == 28 and not exact.edge_values.imag.any()
        assert not exact.vertex_values.imag.any()

    @pytest.mark.parametrize("build,q", [
        (lambda g: ising_model(g, [], 0.5), 2),
        (lambda g: potts_model(g, 3, [], 0.5), 3),
        (lambda g: clock_model(g, 4, [], 0.5), 4),
    ], ids=["ising", "potts", "clock"])
    def test_graph_without_edges(self, build, q):
        p = build(Graph(1, []))
        assert p.edge_tables.shape == (0, q) and p.vertex_tables.shape == (1, q)


class TestDualize:
    def test_refuses_a_dual_model(self):
        d = dualize(ising_model(ring_graph(4), 0.5, 0.2))
        with pytest.raises(TypeError, match="DualNFG"):
            dualize(d)

    def test_one_dual_per_model(self):
        p = ising_model(ring_graph(4), 0.5, 0.2)
        assert dualize(p) is dualize(p) is p.dual

    @pytest.mark.parametrize("rebuild", [
        copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)), lambda m: _struck(m, 1),
    ], ids=["deepcopy", "pickle", "struck"])
    def test_rebuilt_model_has_its_own_dual(self, rebuild):
        p = ising_model(ring_graph(4), [0.5, 0.6, 0.7, 0.8], 0.2)
        d = dualize(p)
        twin = rebuild(p)
        twin_dual = dualize(twin)
        assert twin_dual is not d and dualize(twin) is twin_dual
        for kind in ("edge_tables", "vertex_tables"):
            want = [dft_table(row, twin.alphabet) for row in getattr(twin, kind)]
            assert np.allclose(getattr(twin_dual, kind), want, rtol=0, atol=1e-14)

    def test_overflowing_dual_refused_on_every_call(self):
        # a refused dual is not kept, so asking again refuses again
        p = PrimalNFG(triangle(), Alphabet(2), *_tables_with("edge", [1e308, 1e308]))
        for _ in range(2):
            with pytest.raises(ValueError, match="^edge 1 table is not finite$"):
                dualize(p)

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

    def test_rounding_is_measured_against_the_table_scale(self):
        # parts above 1e-12 against entries up to 65 are rounding, not a complex
        # or signed dual; dualize snaps its own rounding by the same rule
        edge = [[65.0, 1.0 + 3e-11j], [65.0, -3e-11]]
        d = DualNFG(path_graph(3), Alphabet(2), edge, [[1.0, 1.0]] * 3)
        assert is_nonnegative(d)
        d = dualize(potts_model(path_graph(3), 64, 0.9, 0.4))
        assert not d.edge_tables.imag.any() and not d.vertex_tables.imag.any()
        assert is_nonnegative(d)

    def test_imaginary_part_above_the_table_scale_is_complex(self):
        edge = [[65.0, 1.0 + 1e-9j]]
        d = DualNFG(path_graph(2), Alphabet(2), edge, [[1.0, 1.0]] * 2)
        assert not is_nonnegative(d)
