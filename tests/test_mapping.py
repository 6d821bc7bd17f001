"""Local marginal mappings, fixed points, criticality constants, and bounds."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfgdual.graphs import Alphabet, Graph, grid_graph, path_graph, ring_graph
from nfgdual.mapping import (
    CLOCK4_CRITICAL,
    ISING_CRITICAL,
    SingularMapError,
    clock_fixed_point,
    fixed_point,
    ising_fixed_point,
    ising_lower_bounds,
    magnetization_roundtrip,
    map_dual_to_primal,
    map_marginals,
    map_primal_to_dual,
    potts_critical,
    potts_fixed_point,
    potts_lower_bounds,
)
from nfgdual.nfg import (
    DUAL, PRIMAL, MarginalVector, Marginals, PrimalNFG, clock_model, dft_table, dualize,
    ising_edge_table, ising_model, potts_model,
)
from nfgdual.oracle import (
    chain_ising_marginals, marginals_dual, marginals_primal, ring_potts_marginals,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


class TestMapAgainstOracle:
    def test_three_ring_ising(self):
        p = ising_model(ring_graph(3), 0.5)
        d = dualize(p)
        om, dm = marginals_primal(p), marginals_dual(d)
        mv = map_dual_to_primal(dm.edge(0), p.edge_tables[0], d.edge_tables[0])
        assert np.abs(mv.values - om.edge_values[0]).max() < 1e-10
        assert mv.domain == "primal"

    def test_frustrated_potts_signed_dual(self):
        p = potts_model(triangle(), 3, [-0.25, 0.8, 0.8], 0.1)
        d = dualize(p)
        om, dm = marginals_primal(p), marginals_dual(d)
        for e in range(3):
            mapped = map_dual_to_primal(dm.edge(e), p.edge_tables[e], d.edge_tables[e])
            assert np.abs(mapped.values - om.edge_values[e]).max() < 1e-10
            assert np.abs(mapped.values.imag).max() < 1e-10  # real-out from signed-in

    def test_vertices_map_too(self, small_model_corpus):
        # clock models carry no field, so their dual vertex tables have zeros
        # and sit outside the map's precondition; everything else must map
        for p, family in small_model_corpus[:10]:
            d = dualize(p)
            om, dm = marginals_primal(p), marginals_dual(d)
            for v in range(p.graph.num_vertices):
                if family == "clock":
                    with pytest.raises(SingularMapError):
                        map_dual_to_primal(dm.vertex(v), p.vertex_tables[v], d.vertex_tables[v])
                    continue
                mapped = map_dual_to_primal(dm.vertex(v), p.vertex_tables[v], d.vertex_tables[v])
                assert np.abs(mapped.values - om.vertex_values[v]).max() < 1e-10

    def test_clock_in_field_vertices_map(self):
        # a field makes the clock model's dual vertex tables invertible
        g = grid_graph(2, 3)
        p = clock_model(g, 4, [0.4, -0.3, 0.5, 0.2, -0.6, 0.3, 0.1],
                        [0.3, -0.2, 0.15, 0.4, -0.35, 0.25])
        d = dualize(p)
        om, dm = marginals_primal(p), marginals_dual(d)
        for v in range(g.num_vertices):
            mapped = map_dual_to_primal(dm.vertex(v), p.vertex_tables[v], d.vertex_tables[v])
            assert np.abs(mapped.values - om.vertex_values[v]).max() < 1e-12

    def test_corpus_edges_both_directions(self, small_model_corpus):
        for p, _family in small_model_corpus[:10]:
            d = dualize(p)
            om, dm = marginals_primal(p), marginals_dual(d)
            for e in range(p.graph.num_edges):
                to_p = map_dual_to_primal(dm.edge(e), p.edge_tables[e], d.edge_tables[e])
                assert np.abs(to_p.values - om.edge_values[e]).max() < 1e-10
                to_d = map_primal_to_dual(om.edge(e), p.edge_tables[e], d.edge_tables[e])
                assert np.abs(to_d.values - dm.edge_values[e]).max() < 1e-10

    def test_torus_primal_to_dual(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.44)
        d = dualize(p)
        om, dm = marginals_primal(p), marginals_dual(d)
        mapped = map_primal_to_dual(om.edge(0), p.edge_tables[0], d.edge_tables[0])
        assert np.abs(mapped.values - dm.edge_values[0]).max() < 1e-10

    def test_mapped_output_sums_to_one(self):
        # the map preserves the unit sum exactly, even for noisy inputs
        rng = np.random.default_rng(5)
        psi = ising_edge_table(0.6)
        psit = dft_table(psi, Alphabet(2))
        noisy = np.array([0.93, 0.07]) + rng.normal(0, 0.01, 2)
        noisy /= noisy.sum()
        out = map_dual_to_primal(noisy, psi, psit)
        assert out.values.sum().real == pytest.approx(1.0, abs=1e-12)


def _largest_gap(got, want) -> float:
    return float(np.abs(got - want).max(initial=0.0))


class TestMapMarginals:
    """map_marginals carries a whole record, every edge and vertex, across."""

    @pytest.mark.parametrize("model,message", [
        (ising_model(ring_graph(4), 0.4, 0.2), "dual edge marginals: the record has 3 sites, "
                                               "the model 4"),
        (ising_model(path_graph(4), 0.4, 0.2), "dual vertex marginals: the record has 3 sites, "
                                               "the model 4"),
    ], ids=["edges", "vertices"])
    def test_record_of_another_graph_names_the_counts(self, model, message):
        # both models have q = 2; the refusal used to blame the alphabet size
        record = marginals_dual(dualize(ising_model(ring_graph(3), 0.4, 0.2)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            map_marginals(record, model)

    def test_both_directions_match_the_oracle(self, small_model_corpus):
        for p, family in small_model_corpus[:10]:
            om, dm = marginals_primal(p), marginals_dual(dualize(p))
            to_p, to_d = map_marginals(dm, p), map_marginals(om, p)
            assert (to_p.domain, to_d.domain) == (PRIMAL, DUAL)
            assert _largest_gap(to_p.edge_values, om.edge_values) < 1e-10
            assert _largest_gap(to_d.edge_values, dm.edge_values) < 1e-10
            assert _largest_gap(to_d.vertex_values, dm.vertex_values) < 1e-10
            # clock models carry no field, so only their dual vertex tables vanish
            assert (to_p.vertex_values is None) == (family == "clock")
            if family != "clock":
                assert _largest_gap(to_p.vertex_values, om.vertex_values) < 1e-10

    def test_every_site_equals_the_per_site_map(self, small_model_corpus):
        for p, _family in small_model_corpus[:10]:
            d = dualize(p)
            for record, one_site in ((marginals_dual(d), map_dual_to_primal),
                                     (marginals_primal(p), map_primal_to_dual)):
                mapped = map_marginals(record, p)
                for e in range(p.graph.num_edges):
                    one = one_site(record.edge(e), p.edge_tables[e], d.edge_tables[e])
                    assert _largest_gap(one.values, mapped.edge_values[e]) < 1e-14
                if mapped.vertex_values is None:
                    continue
                for v in range(p.graph.num_vertices):
                    one = one_site(record.vertex(v), p.vertex_tables[v], d.vertex_tables[v])
                    assert _largest_gap(one.values, mapped.vertex_values[v]) < 1e-14

    def test_round_trip_gives_the_record_back(self, small_model_corpus):
        for p, family in small_model_corpus[:10]:
            for record in (marginals_primal(p), marginals_dual(dualize(p))):
                back = map_marginals(map_marginals(record, p), p)
                assert back.domain == record.domain
                assert _largest_gap(back.edge_values, record.edge_values) < 1e-12
                if family == "clock":
                    assert back.vertex_values is None  # lost on the way to the primal
                else:
                    assert _largest_gap(back.vertex_values, record.vertex_values) < 1e-12

    def test_missing_vertex_block_stays_missing(self):
        p = ising_model(ring_graph(3), 0.5, 0.2)
        om = marginals_primal(p)
        record = Marginals(om.edge_values, None, PRIMAL)
        there = map_marginals(record, p)
        assert there.vertex_values is None
        assert map_marginals(there, p).vertex_values is None

    def test_refuses_a_dual_model(self):
        p = ising_model(ring_graph(4), 0.5, 0.2)
        d = dualize(p)
        with pytest.raises(TypeError, match="DualNFG"):
            map_marginals(marginals_dual(d), d)

    def test_singular_primal_vertex_names_a_hard_constraint(self):
        # a zero in a primal vertex table blocks the map to the dual; it is no field
        p = PrimalNFG(path_graph(3), Alphabet(2), [[2, 1]] * 2, [[1, 0], [1, 1], [1, 1]])
        to_d = map_marginals(marginals_primal(p), p)
        assert to_d.vertex_values is None
        with pytest.raises(SingularMapError, match="hard constraint") as err:
            to_d.vertex(0)
        assert "field" not in str(err.value)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10 ** 9))
    def test_random_marginal_roundtrip(self, q, seed):
        rng = np.random.default_rng(seed)
        table = rng.uniform(0.2, 2.0, q).astype(complex)
        dual_table = dft_table(table, Alphabet(q))
        if np.abs(dual_table).min() < 1e-6:
            return  # singular draw, nothing to round-trip
        marg = rng.uniform(0.05, 1.0, q)
        marg = (marg / marg.sum()).astype(complex)
        there = map_primal_to_dual(marg, table, dual_table)
        back = map_dual_to_primal(there, table, dual_table)
        assert np.abs(back.values - marg).max() < 1e-12

    def test_low_temperature_limit(self):
        bj = 2.0
        psi = ising_edge_table(bj)
        psit = dft_table(psi, Alphabet(2))
        out = map_primal_to_dual(np.array([1.0, 0.0]), psi, psit)
        expected = [(1 + np.exp(-2 * bj)) / 2, (1 - np.exp(-2 * bj)) / 2]
        assert np.allclose(out.values.real, expected, atol=1e-13)

    def test_singular_zero_coupling(self):
        psi = ising_edge_table(0.0)
        psit = dft_table(psi, Alphabet(2))  # [2, 0]
        with pytest.raises(SingularMapError, match="singular"):
            map_dual_to_primal(np.array([1.0, 0.0]), psi, psit)

    def test_singular_primal_zero(self):
        psi = np.array([1.0, 0.0])
        psit = dft_table(psi, Alphabet(2))
        with pytest.raises(SingularMapError):
            map_primal_to_dual(np.array([0.5, 0.5]), psi, psit)
        # the refusal names a hard constraint, not a zero coupling or field
        for site, other_cause in ((("edge", 1), "coupling"), (("vertex", 2), "field")):
            mv = MarginalVector([0.5, 0.5], site, PRIMAL)
            with pytest.raises(SingularMapError, match=f"primal {site[0]} {site[1]} table "
                                                       ".*hard constraint") as err:
                map_primal_to_dual(mv, psi, psit)
            assert other_cause not in str(err.value)


class TestFixedPoints:
    def test_fixed_under_map(self):
        psi = ising_edge_table(0.6)
        psit = dft_table(psi, Alphabet(2))
        star = fixed_point(psi, psit)
        assert isinstance(star, np.ndarray) and star.dtype == np.complex128
        mapped = map_dual_to_primal(star, psi, psit)
        assert np.abs(mapped.values - star).max() < 1e-14

    def test_homogeneous_ising_closed_form(self):
        bj = 0.37
        got = ising_fixed_point(bj)
        denom = 1 + np.sinh(2 * bj)
        expected = [np.exp(bj) * np.cosh(bj) / denom, np.exp(-bj) * np.sinh(bj) / denom]
        assert np.allclose(got, expected, atol=1e-14)

    def test_ising_criticality_values(self):
        got = ising_fixed_point(ISING_CRITICAL)
        expected = [(2 + np.sqrt(2)) / 4, (2 - np.sqrt(2)) / 4]
        assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("q", [3, 4, 5, 10, 100])
    def test_potts_criticality_values(self, q):
        got = potts_fixed_point(q, potts_critical(q))
        assert abs(got[0] - (1 + 1 / np.sqrt(q)) / 2) < 1e-12
        assert np.abs(got[1:] - (1 - 1 / np.sqrt(q)) / (2 * (q - 1))).max() < 1e-12

    def test_antiferromagnetic_ising_fixed_point_is_a_marginal_function(self):
        # the dual table 2 sinh bJ is negative for bJ < 0: unit sum, one negative entry
        got = ising_fixed_point(-1.0)
        assert got.sum() == pytest.approx(1.0, abs=1e-14)
        assert got[0] < 0 < got[1]
        assert got == pytest.approx([-0.2161, 1.2161], abs=1e-4)

    def test_potts_q3_plot_point(self):
        assert potts_critical(3) == pytest.approx(1.005, abs=5e-4)
        fp = potts_fixed_point(3, potts_critical(3))
        assert fp[0] == pytest.approx(0.7887, abs=5e-5)
        assert fp[1] == pytest.approx(0.10565, abs=5e-5)

    def test_clock4_criticality_values(self):
        got = clock_fixed_point(4, CLOCK4_CRITICAL)
        expected = [(3 + 2 * np.sqrt(2)) / 8, 1 / 8, (3 - 2 * np.sqrt(2)) / 8, 1 / 8]
        assert np.abs(got - expected).max() < 1e-12

    def test_potts_critical_consistency(self):
        assert potts_critical(2) == pytest.approx(2 * ISING_CRITICAL, rel=1e-14)
        assert CLOCK4_CRITICAL == pytest.approx(2 * ISING_CRITICAL, rel=1e-14)

    def test_grid_argmin_ising(self):
        grid = np.round(np.arange(0.01, 3.0001, 0.01), 10)
        vals = [ising_fixed_point(b)[0] for b in grid]
        assert grid[int(np.argmin(vals))] == pytest.approx(0.44, abs=1e-9)

    def test_many_component_limit(self):
        prev = None
        for q in (10, 100, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            fp0 = potts_fixed_point(q, potts_critical(q))[0]
            assert fp0 == pytest.approx((1 + 1 / np.sqrt(q)) / 2, abs=1e-9)
            if prev is not None:
                assert fp0 < prev  # monotone approach to 1/2 from above
            prev = fp0
        assert abs(prev - 0.5) < 1e-3


NOT_FINITE = {
    "zero-table-sum": lambda: fixed_point([0, 0], [0, 0]),
    "magnetization": lambda: magnetization_roundtrip(800.0, delta_p=0.5),
}


@pytest.mark.parametrize("call", NOT_FINITE)
def test_a_result_that_is_not_finite_is_refused_without_a_warning(call):
    # Delta_d = cosh 2bJ - Delta_p sinh 2bJ overflows at bJ = 800; the refusal names bJ or the zero sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"bJ = 800\.0|sum to 0j"):
            NOT_FINITE[call]()


def _edge_rows(pair, e):
    return [record.edge_values[e] for record in pair]


FINITE_LIMITS = {  # each the exact limit of its e^-bJ-small terms, to double precision
    "chain-free": (lambda: _edge_rows(chain_ising_marginals([800, 0.3]), 0),
                   [[1, 0], [1, 0]]),
    "chain-periodic": (lambda: _edge_rows(chain_ising_marginals([0.3, 800, 0.3], "periodic"), 1),
                       [[1, 0], [1 / (1 + np.tanh(0.3) ** 2), 1 - 1 / (1 + np.tanh(0.3) ** 2)]]),
    "ring-potts": (lambda: _edge_rows(ring_potts_marginals(3, 800.0, 5), 2),
                   [[1, 0, 0], [1 / 3, 1 / 3, 1 / 3]]),
    "potts-bounds": (lambda: potts_lower_bounds(3, 800.0), (1, 1 / 3)),
    # bJ = 1e308 is finite, though 2 bJ is not
    "chain-free-1e308": (lambda: _edge_rows(chain_ising_marginals([1e308, 0.3]), 0),
                         [[1, 0], [1, 0]]),
}


@pytest.mark.parametrize("call", FINITE_LIMITS)
def test_a_finite_limit_is_computed_without_a_warning(call):
    # the edge rows (primal, dual) or the bounds at bJ = 800, where e^bJ overflows
    compute, limit = FINITE_LIMITS[call]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compute()
    assert np.abs(np.asarray(got) - np.asarray(limit)).max() < 1e-15


FIXED_POINT_LIMITS = {  # where e^bJ overflows, the limit of the tables' e^-bJ-small terms
    "ising-fixed-point": (ising_fixed_point, [1, 0]),
    "potts-fixed-point": (lambda bj: potts_fixed_point(3, bj), [1, 0, 0]),
    "clock-fixed-point": (lambda bj: clock_fixed_point(4, bj), [1, 0, 0, 0]),
}


@pytest.mark.parametrize("bj", [800.0, 1e4])
@pytest.mark.parametrize("call", FIXED_POINT_LIMITS)
def test_a_fixed_point_limit_is_computed_without_a_warning(call, bj):
    compute, limit = FIXED_POINT_LIMITS[call]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compute(bj)
    assert np.abs(got - limit).max() < 1e-15


def test_limits_at_couplings_whose_double_overflows():
    # e^-2|bJ| is 0 at |bJ| = 1e308, as it is at 800: the limits, exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ising_lower_bounds(1e308) == (1.0, 0.5)
        assert magnetization_roundtrip(400.0, delta_d=0.5) == (1.0, 0.5)
        assert magnetization_roundtrip(-1e308, delta_d=0.5) == (-1.0, 0.5)
        assert np.array_equal(ising_fixed_point(1e308), [1.0, 0.0])


NON_FINITE_COUPLING = {
    "chain-free": lambda bj: chain_ising_marginals([0.3, bj]),
    "chain-periodic": lambda bj: chain_ising_marginals([0.3, bj, 0.3], "periodic"),
    "ring-potts": lambda bj: ring_potts_marginals(3, bj, 5),
    "ising-bounds": ising_lower_bounds,
    "potts-bounds": lambda bj: potts_lower_bounds(3, bj),
    "ising-fixed-point": ising_fixed_point,
    "potts-fixed-point": lambda bj: potts_fixed_point(3, bj),
    "clock-fixed-point": lambda bj: clock_fixed_point(4, bj),
    "magnetization": lambda bj: magnetization_roundtrip(bj, delta_d=0.5),
}


@pytest.mark.parametrize("bj", [np.inf, np.nan])
@pytest.mark.parametrize("call", NON_FINITE_COUPLING)
def test_a_coupling_that_is_not_finite_is_refused_by_name(call, bj):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^coupling bJ = {bj} is not finite$"):
            NON_FINITE_COUPLING[call](bj)


class TestBounds:
    def test_boundary_values(self):
        assert ising_lower_bounds(0.0) == pytest.approx((0.5, 1.0))
        bp, bd = potts_lower_bounds(3, 0.0)
        assert (bp, bd) == pytest.approx((1 / 3, 1.0))

    def test_intersection_at_criticality(self):
        bp, bd = ising_lower_bounds(ISING_CRITICAL)
        assert bp == pytest.approx(bd, abs=1e-14)
        assert bp == pytest.approx(np.sqrt(2) / 2, abs=1e-14)
        qp, qd = potts_lower_bounds(3, potts_critical(3))
        assert qp == pytest.approx(qd, abs=1e-14)
        assert qp == pytest.approx(1 / np.sqrt(3), abs=1e-14)

    def test_formula_at_unit_coupling(self):
        bp, bd = ising_lower_bounds(1.0)
        assert bp == pytest.approx(1 / (1 + np.exp(-2)), rel=1e-14)
        assert bd == pytest.approx((1 + np.exp(-2)) / 2, rel=1e-14)

    def test_potts_q2_reduces_to_ising(self):
        bj = 0.65
        bp2, bd2 = potts_lower_bounds(2, 2 * bj)
        bp, bd = ising_lower_bounds(bj)
        assert bp2 == pytest.approx(bp, rel=1e-13)
        assert bd2 == pytest.approx(bd, rel=1e-13)

    def test_bound_products_are_exact_floors(self):
        for bj in (0.1, 0.44, 1.7):
            bp, bd = ising_lower_bounds(bj)
            assert bp * bd == pytest.approx(0.5, rel=1e-14)
            qp, qd = potts_lower_bounds(5, bj)
            assert qp * qd == pytest.approx(0.2, rel=1e-14)

    def test_oracle_marginals_respect_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            bjs = rng.uniform(0.05, 2.0, 3)
            p = ising_model(triangle(), bjs, rng.uniform(0, 1, 3))
            om = marginals_primal(p)
            dm = marginals_dual(dualize(p))
            for e in range(3):
                bp, bd = ising_lower_bounds(bjs[e])
                assert om.edge_values[e, 0].real >= bp - 1e-12
                assert dm.edge_values[e, 0].real >= bd - 1e-12

    def test_ferromagnetic_precondition(self):
        with pytest.raises(ValueError):
            ising_lower_bounds(-0.1)


class TestPottsSymmetry:
    def test_ratio_constant_over_nonzero_states(self):
        p = potts_model(ring_graph(4), 4, 0.8, 0.3)
        om = marginals_primal(p)
        dm = marginals_dual(dualize(p))
        d = dualize(p)
        for e in range(4):
            ratios = (om.edge_values[e] / p.edge_tables[e])[1:]
            assert np.abs(ratios - ratios[0]).max() < 1e-12
            dratios = (dm.edge_values[e] / d.edge_tables[e])[1:]
            assert np.abs(dratios - dratios[0]).max() < 1e-12


class TestMagnetization:
    def test_critical_fixed_point(self):
        delta_p, _ = magnetization_roundtrip(ISING_CRITICAL, delta_d=np.sqrt(2) / 2)
        assert delta_p == pytest.approx(np.sqrt(2) / 2, abs=1e-14)

    def test_free_chain_limit(self):
        bj = 0.9
        delta_p, _ = magnetization_roundtrip(bj, delta_d=1.0)
        assert (1 + delta_p) / 2 == pytest.approx(np.exp(bj) / (2 * np.cosh(bj)), rel=1e-13)

    @pytest.mark.parametrize("bj", [1e-3, 0.05, -0.2, 2.0])
    def test_free_chain_limit_to_rounding(self, bj):
        # (cosh 2bJ - 1) / sinh 2bJ = tanh bJ, which cosh 2bJ - 1 loses at weak coupling
        delta_p, _ = magnetization_roundtrip(bj, delta_d=1.0)
        assert delta_p == pytest.approx(np.tanh(bj), rel=1e-15, abs=0)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            delta_d, bj = rng.uniform(0, 1), 0.7
            delta_p, same = magnetization_roundtrip(bj, delta_d=delta_d)
            assert same == delta_d
            _, back = magnetization_roundtrip(bj, delta_p=delta_p)
            assert back == pytest.approx(delta_d, abs=1e-12)

    def test_consistent_with_local_map(self):
        bj, delta_d = 0.6, 0.55
        delta_p, _ = magnetization_roundtrip(bj, delta_d=delta_d)
        psi = ising_edge_table(bj)
        psit = dft_table(psi, Alphabet(2))
        mapped = map_dual_to_primal(np.array([1 + delta_d, 1 - delta_d]) / 2, psi, psit)
        assert np.abs(mapped.values.real - [(1 + delta_p) / 2, (1 - delta_p) / 2]).max() < 1e-12

    def test_requires_exactly_one_delta(self):
        with pytest.raises(ValueError):
            magnetization_roundtrip(0.5)
        with pytest.raises(ValueError):
            magnetization_roundtrip(0.5, delta_p=0.1, delta_d=0.2)
