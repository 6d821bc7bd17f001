"""Gibbs chains in both domains, the subgraphs-world process, and the
dual-estimate-then-map composition.  Statistical assertions run on frozen
seeds chosen with comfortable z-margins.  The table-driven chains are also
checked, bit for bit, against per-site reference loops kept here."""

import tracemalloc
from bisect import bisect_right
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from nfgdual.graphs import (
    Alphabet, Graph, build_incidence, grid_graph, path_graph, ring_graph,
)
from nfgdual.mapping import SingularMapError, map_dual_to_primal
from nfgdual.nfg import (
    DUAL, PRIMAL, DualNFG, Marginals, PrimalNFG, clock_model, dualize,
    is_nonnegative, ising_model, potts_model,
)
from nfgdual.oracle import chain_ising_marginals, marginals_dual, marginals_primal
from nfgdual import nfg, samplers
from nfgdual.samplers import (
    SamplerConfig,
    SamplerError,
    _conditional,
    estimate_primal_via_dual,
    gibbs_dual,
    gibbs_primal,
    swp,
    swp_state_histogram,
    swp_state_weights,
)
from nfgdual.validate import random_connected_graph, random_model


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def binomial_sigma(p, n):
    return np.sqrt(p * (1 - p) / n)


def reference_heat_bath(model, cfg):
    """Heat bath one site at a time: multiply the factors' weights for every
    value, then walk the running sum until it passes u * total.

    gibbs_primal and gibbs_dual must reproduce this loop bit for bit: they
    perform the same float operations, looked up from memoized tables.
    """
    scopes, num_vars, tables = model.scopes, model.num_vars, model.tables
    q = model.alphabet.q
    kind = "vertex" if model.domain == PRIMAL else "edge"
    real = tables.real.clip(min=0.0)
    by_var = [[] for _ in range(num_vars)]
    for f in sorted(range(len(scopes)), key=lambda f: len(scopes[f][0]) > 1):
        for var, sign in zip(*scopes[f]):
            by_var[var].append((f, sign, real[f][(sign * np.arange(2 * q)) % q].tolist()))
    rng = np.random.default_rng(cfg.seed)
    z = [0] * num_vars
    arg = [0] * len(scopes)
    counts = np.zeros((len(scopes), q), dtype=np.int64)
    burn = cfg.resolved_burn_in(num_vars)
    retained = 0
    for sweep in range(burn + cfg.samples * cfg.thinning):
        for i, u in enumerate(rng.random(num_vars).tolist()):
            cur = z[i]
            rows = [(t2, (sign * arg[f] - cur) % q) for f, sign, t2 in by_var[i]]
            weights = []
            for a in range(q):
                w = 1.0
                for t2, b in rows:
                    w *= t2[b + a]
                weights.append(w)
            total = sum(weights)
            if total <= 0.0:
                raise SamplerError(
                    f"every state of {kind} {i} has zero weight given its neighbors "
                    "(a hard constraint the current configuration violates)"
                )
            u *= total
            acc = 0.0
            for new, w in enumerate(weights):
                acc += w
                if u < acc:
                    break
            else:
                new = max(a for a, w in enumerate(weights) if w > 0.0)
            if new != cur:
                z[i] = new
                for f, sign, _ in by_var[i]:
                    arg[f] = (arg[f] + sign * (new - cur)) % q
        if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
            retained += 1
            counts[np.arange(len(scopes)), arg] += 1
    return model.record(counts / retained)


def count_audits(monkeypatch, argument_map=DualNFG.argument_map) -> list:
    """A list that gains an entry at every call of the map that swp's audit
    recomputes its state with (the dual's argument map); `argument_map` is
    bound to the unpatched method, so repeated calls do not nest."""
    audits = []

    def counted(model):
        recompute = argument_map(model)
        return lambda rows: audits.append(1) or recompute(rows)

    monkeypatch.setattr(DualNFG, "argument_map", counted)
    return audits


def reference_swp(p, cfg, audit_every=None):
    """Subgraphs-world process one toggle at a time, with the Metropolis ratio
    recomputed at every proposal and one scalar uniform per ratio below 1."""
    g = p.graph
    tanh_j = np.tanh(np.log(p.edge_tables[:, 0].real)).tolist()
    tanh_h = np.tanh(np.log(p.vertex_tables[:, 0].real)).tolist()
    rng = np.random.default_rng(cfg.seed)
    member, odd = [0] * g.num_edges, [0] * g.num_vertices
    edge_counts = np.zeros(g.num_edges, dtype=np.int64)
    vertex_counts = np.zeros(g.num_vertices, dtype=np.int64)
    burn = cfg.resolved_burn_in(g.num_edges)
    retained = proposals = 0
    for sweep in range(burn + cfg.samples * cfg.thinning):
        for e in range(g.num_edges):
            t, h = g.edges[e]
            ratio = tanh_j[e] if not member[e] else 1.0 / tanh_j[e]
            ratio *= 1.0 / tanh_h[t] if odd[t] else tanh_h[t]
            ratio *= 1.0 / tanh_h[h] if odd[h] else tanh_h[h]
            if ratio >= 1.0 or rng.random() < ratio:
                member[e] ^= 1
                odd[t] ^= 1
                odd[h] ^= 1
            proposals += 1
            if audit_every and proposals % audit_every == 0:
                recomputed = [0] * g.num_vertices
                for (a, b), inside in zip(g.edges, member):
                    recomputed[a] ^= inside
                    recomputed[b] ^= inside
                assert odd == recomputed
        if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
            retained += 1
            edge_counts += np.array(member, dtype=np.int64)
            vertex_counts += np.array(odd, dtype=np.int64)
    in_freq, odd_freq = edge_counts / retained, vertex_counts / retained
    return Marginals(np.stack([1.0 - in_freq, in_freq], axis=1),
                     np.stack([1.0 - odd_freq, odd_freq], axis=1), DUAL)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, samples=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, thinning=0)

    @pytest.mark.parametrize("field,value", [
        ("seed", True), ("seed", 1.0), ("seed", -1),
        ("samples", 2.5), ("samples", True), ("samples", "10"),
        ("burn_in", 2.5), ("burn_in", False), ("thinning", 1.5), ("thinning", np.float64(2.0)),
    ])
    def test_non_integer_counts_refused_by_name(self, field, value):
        # they used to be accepted and fail later, inside the chain's range()
        # or numpy's generator, or (seed=True) run as seed 1
        with pytest.raises(ValueError, match=field):
            SamplerConfig(**{"seed": 1, field: value})

    def test_numpy_integer_counts_accepted(self):
        p = ising_model(triangle(), 0.5, 0.1)
        want = gibbs_primal(p, SamplerConfig(seed=3, samples=50, burn_in=7, thinning=2))
        got = gibbs_primal(p, SamplerConfig(seed=3, samples=np.int64(50), burn_in=np.int32(7),
                                            thinning=np.uint8(2)))
        assert np.array_equal(got.edge_values, want.edge_values)

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

    def test_zero_weight_conditional_refused(self):
        # hard equality on every edge and x_0 forced to 1: the all-zero start
        # state has zero weight, and vertex 0 has no state to move to
        g = path_graph(3)
        p = PrimalNFG(g, Alphabet(2), [[1.0, 0.0], [1.0, 0.0]],
                      [[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SamplerError, match="vertex 0"):
            gibbs_primal(p, SamplerConfig(seed=1, samples=10))

    @pytest.mark.parametrize("domain,site", [("primal", "vertex 1"), ("dual", "edge 0")])
    def test_overflowing_conditional_refused(self, domain, site):
        # every table is finite, but e^709.5 on edge 0 times the site's other
        # weights overflows: the total was inf, and u * inf >= inf always drew 1
        p = ising_model(ring_graph(4), [709.5, 0.3, 0.2, 0.1], 0.1)
        cfg = SamplerConfig(seed=1, samples=10)
        with pytest.raises(SamplerError, match=f"conditional of {site} overflows"):
            gibbs_primal(p, cfg) if domain == "primal" else gibbs_dual(dualize(p), cfg)

    def test_signed_model_refused(self):
        # a primal model refuses a signed table when it is built and cannot
        # have its tables rebound after, so no signed model reaches the chain
        p = ising_model(triangle(), 0.5)
        tables = p.edge_tables.copy()
        tables[0, 0] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            PrimalNFG(p.graph, p.alphabet, tables, p.vertex_tables)
        with pytest.raises(FrozenInstanceError):
            p.edge_tables = tables

    def test_dual_model_refused(self):
        d = dualize(ising_model(path_graph(3), 0.5, 0.3))
        with pytest.raises(SamplerError, match="not a dual"):
            gibbs_primal(d, SamplerConfig(seed=1, samples=50))


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

    def test_zero_vertex_entry_up_to_rounding_refused(self):
        # 1e-17 against entries of 2 is a rounding residue of zero, which the
        # gate used to take for a positive weight
        d = DualNFG(ring_graph(3), Alphabet(2), [[2.0, 1.0]] * 3, [[2.0, 1e-17]] * 3)
        assert is_nonnegative(d)
        with pytest.raises(SamplerError, match="non-ergodic"):
            gibbs_dual(d, SamplerConfig(seed=1, samples=10))

    def test_primal_model_refused(self):
        p = ising_model(path_graph(3), 0.5, 0.3)
        with pytest.raises(SamplerError, match="not a primal"):
            gibbs_dual(p, SamplerConfig(seed=1, samples=50))

    def test_large_q_dual_samples(self):
        # its DFT rounds to imaginary parts of 1.8e-12 against entries up to
        # 65, which dualize snaps as rounding: no reason to refuse the chain
        d = dualize(potts_model(path_graph(3), 64, 0.9, 0.4))
        exact = marginals_dual(d).edge_values.real
        n = 5_000
        est = gibbs_dual(d, SamplerConfig(seed=64, samples=n))
        # nearly all mass sits on value 0, so its frequency carries the test
        want = exact[:, 0]
        assert (np.abs(est.edge_values[:, 0] - want) < 3.5 * binomial_sigma(want, n)).all()


REFERENCE_CONFIGS = {
    "systematic": SamplerConfig(seed=31, samples=80),
    "random_thin3": SamplerConfig(seed=32, samples=40, thinning=3),
}


def assert_same(got, want):
    assert np.array_equal(got.edge_values, want.edge_values)
    assert np.array_equal(got.vertex_values, want.vertex_values)


class _CountingRng:
    """Forwards random/integers to a seeded PCG64 generator and counts the calls."""

    made = []

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.calls = 0
        _CountingRng.made.append(self)

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)


class TestAgainstReference:
    """The memoized heat bath and the table-driven SWP against the per-site loops."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(7007)
        models = [random_model(rng, max_vertices=6, max_edges=9, ferromagnetic=True,
                               families=("ising", "potts")) for _ in range(10)]
        assert {p.alphabet.q for p, _ in models} == {2, 3, 4}
        assert "ising" in {family for _, family in models}
        return models

    @pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
    def test_random_models_both_domains(self, corpus, config):
        cfg = REFERENCE_CONFIGS[config]
        for p, family in corpus:
            d = dualize(p)
            assert_same(gibbs_primal(p, cfg), reference_heat_bath(p, cfg))
            assert_same(gibbs_dual(d, cfg), reference_heat_bath(d, cfg))
            if family == "ising":
                assert_same(swp(p, cfg), reference_swp(p, cfg))

    @pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
    def test_one_edge_and_tree(self, config):
        cfg = REFERENCE_CONFIGS[config]
        tree = Graph(6, [(0, 1), (0, 2), (3, 0), (3, 4), (5, 3)])
        for p in (ising_model(path_graph(2), 0.7, 0.3),
                  ising_model(tree, [0.2, 0.9, 0.5, 1.3, 0.4], [0.1, 0.6, 0.3, 0.8, 0.2, 0.5]),
                  clock_model(tree, 4, [0.4, 0.8, 0.3, 1.1, 0.6], [0.2, 0.5, 0.1, 0.7, 0.3, 0.4]),
                  potts_model(tree, 3, [0.5, -0.7, 0.2, -0.4, 0.9], 0.3)):
            assert_same(gibbs_primal(p, cfg), reference_heat_bath(p, cfg))
            if p.alphabet.q == 2:
                assert_same(gibbs_dual(dualize(p), cfg), reference_heat_bath(dualize(p), cfg))
                assert_same(swp(p, cfg), reference_swp(p, cfg))
            elif is_nonnegative(dualize(p)):
                assert_same(gibbs_dual(dualize(p), cfg), reference_heat_bath(dualize(p), cfg))

    @pytest.fixture(scope="class")
    def benchmark_tori(self):
        """Three 6x6 periodic Ising models drawn like the benchmark's mcmc_torus."""
        rng = np.random.default_rng(1606)
        g = grid_graph(6, 6, periodic=True)
        return [ising_model(g, rng.uniform(0.2, 0.3, g.num_edges),
                            rng.uniform(0.1, 0.2, g.num_vertices)) for _ in range(3)]

    @pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
    def test_binary_sweep_on_benchmark_tori(self, benchmark_tori, config):
        cfg = REFERENCE_CONFIGS[config]
        for p in benchmark_tori:
            d = dualize(p)
            assert_same(gibbs_primal(p, cfg), reference_heat_bath(p, cfg))
            assert_same(gibbs_dual(d, cfg), reference_heat_bath(d, cfg))

    def test_memo_grows_with_the_keys_visited(self):
        # the hub's key has 31 bits, one per factor (30 edges and its field):
        # a memo sized by the key space would hold 2**31 entries
        star = Graph(31, [(0, leaf) for leaf in range(1, 31)])
        p = ising_model(star, 0.3, 0.2)
        cfg = SamplerConfig(seed=16, samples=200, burn_in=50)
        tracemalloc.start()
        try:
            est = gibbs_primal(p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert_same(est, reference_heat_bath(p, cfg))
        assert_same(gibbs_dual(dualize(p), cfg), reference_heat_bath(dualize(p), cfg))

    def test_memo_stops_growing_at_its_cap(self, monkeypatch):
        # at q = 20 nearly every visit is a new key, so a memo without a cap
        # grows with the run: about 1.4 MB from 100 to 300 sweeps here
        p = potts_model(grid_graph(3, 3, periodic=True), 20, 0.3, 0.1)

        def run(samples, entries):
            monkeypatch.setattr(samplers, "_MEMO_ENTRIES", entries)
            tracemalloc.start()
            try:
                est = gibbs_primal(p, SamplerConfig(seed=1, samples=samples, burn_in=0))
                return est, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        uncapped, uncapped_300 = run(300, 1 << 40)
        _, uncapped_100 = run(100, 1 << 40)
        capped, peak_300 = run(300, 20 * 16)  # 16 keys a variable
        _, peak_100 = run(100, 20 * 16)
        assert np.array_equal(capped.edge_values, uncapped.edge_values)
        assert np.array_equal(capped.vertex_values, uncapped.vertex_values)
        assert uncapped_300 > uncapped_100 + 2 ** 20
        assert peak_300 < peak_100 + 2 ** 16  # the tallies' allocations vary by a few kB

    def test_memo_bound_is_per_variable(self, monkeypatch):
        # each variable of an Ising torus has at most 2^4 keys, so a bound of
        # 16 keys a variable keeps them all, however many variables there are
        p = ising_model(grid_graph(5, 5, periodic=True), 0.3, 0.1)
        computed = []
        conditional = samplers._conditional

        def counted(t2s, digits, *rest):
            computed.append((rest[-1], tuple(digits)))
            return conditional(t2s, digits, *rest)

        monkeypatch.setattr(samplers, "_conditional", counted)
        monkeypatch.setattr(samplers, "_MEMO_ENTRIES", 2 * 16)
        gibbs_primal(p, SamplerConfig(seed=1, samples=200, burn_in=0))
        assert len(computed) == len(set(computed))

    @pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
    def test_binary_value_with_zero_weight(self, config):
        # x_0 = 1 and x_2 = 0 have zero weight: the draw at vertex 0 never
        # reaches its threshold, and the one at vertex 2 always does
        p = PrimalNFG(path_graph(3), Alphabet(2), [[2.0, 1.0], [1.0, 3.0]],
                      [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        est = gibbs_primal(p, REFERENCE_CONFIGS[config])
        assert est.vertex_values[0].tolist() == [1.0, 0.0]
        assert est.vertex_values[2].tolist() == [0.0, 1.0]
        assert_same(est, reference_heat_bath(p, REFERENCE_CONFIGS[config]))

    def test_alphabet_wider_than_a_byte(self):
        # values from 256 up do not fit a byte snapshot of the configuration
        p = potts_model(path_graph(3), 300, 0.9, 0.4)
        cfg = SamplerConfig(seed=17, samples=30, burn_in=10)
        est = gibbs_primal(p, cfg)
        assert est.vertex_values[:, 256:].sum() > 0
        assert_same(est, reference_heat_bath(p, cfg))

    def test_zero_weight_conditional_at_the_same_update(self, monkeypatch):
        # x_0 is forced to 0, x_1 to 2, and every edge forbids a difference of
        # 2: the all-zero start has zero weight, and vertex 1, drawn while
        # vertex 2 is still 0, has no allowed value.  Under the fixed scan a
        # refusal can only come in the first sweep: once a site has been
        # drawn, its current value keeps positive weight, because a
        # neighbour's move reads the factor they share at that value.
        p = PrimalNFG(path_graph(4), Alphabet(3),
                      [[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
                      [[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        monkeypatch.setattr(np.random, "default_rng", _CountingRng)
        outcomes = set()
        for cfg in [SamplerConfig(seed=s, samples=5, burn_in=5) for s in range(14)]:
            results = []
            for run in (gibbs_primal, reference_heat_bath):
                try:
                    est = run(p, cfg)
                    results.append(("ok", est.edge_values.tolist(), est.vertex_values.tolist()))
                except SamplerError as err:
                    results.append((str(err), _CountingRng.made[-1].calls))
            assert results[0] == results[1]
            outcomes.add(results[0][1] if len(results[0]) == 2 else "ok")
        assert outcomes == {1}  # every seed is refused, in the first sweep

    def test_draw_past_the_last_weight(self):
        # weights [0.5, 0.25, 0, 0.25, 0]: a u * total at or past a running sum
        # goes on, and one at the total lands on the last weighted value, 3
        table = [0.5, 0.25, 0.0, 0.25, 0.0]
        total, cumulative = _conditional([table * 2], [0], 5, "vertex", 0)
        assert (total, cumulative) == (1.0, [0.5, 0.75, 0.75])
        for x, want in [(0.0, 0), (0.49, 0), (0.5, 1), (0.75, 3), (0.9, 3), (1.0, 3)]:
            assert bisect_right(cumulative, x) == want

    @pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
    @pytest.mark.parametrize("audit_every", [1, 7, 50])
    def test_swp_audits(self, config, audit_every, monkeypatch):
        p = ising_model(grid_graph(3, 3, periodic=True), 0.44, 0.15)
        cfg = REFERENCE_CONFIGS[config]
        want = reference_swp(p, cfg, audit_every=audit_every)
        audits = count_audits(monkeypatch)
        assert_same(swp(p, cfg, audit_every=audit_every), want)
        proposals = (cfg.resolved_burn_in(18) + cfg.samples * cfg.thinning) * 18
        assert len(audits) == proposals // audit_every


SWP_ENTRY_POINTS = {
    "swp": lambda p: swp(p, SamplerConfig(seed=1, samples=10)),
    "swp_state_histogram": lambda p: swp_state_histogram(p, 10, seed=1),
    "swp_state_weights": swp_state_weights,
}
SWP_REFUSALS = {  # model: (builder, the cause its refusal names)
    "potts_q3": (lambda: potts_model(triangle(), 3, 0.5, 0.1), "binary"),
    "negative_coupling": (lambda: ising_model(triangle(), -0.5, 0.3), "couplings"),
    "zero_field": (lambda: ising_model(triangle(), 0.5, 0.0), "fields"),
    "zero_dual_edge_entry": (lambda: PrimalNFG(triangle(), Alphabet(2), [[1, 1], [3, 1], [3, 1]],
                                               [[2, 1]] * 3), "couplings"),
    "negative_dual_edge_entry": (lambda: PrimalNFG(triangle(), Alphabet(2),
                                                   [[3, 1], [1, 3], [3, 1]], [[2, 1]] * 3),
                                 "couplings"),
    "zero_dual_vertex_entry": (lambda: PrimalNFG(triangle(), Alphabet(2), [[3, 1]] * 3,
                                                 [[2, 1], [2, 1], [1, 1]]), "fields"),
}
POSITIVE_DUAL_MODELS = {
    "potts2_torus": lambda: potts_model(grid_graph(2, 2, periodic=True), 2, 0.6, 0.25),
    "hand_built_triangle": lambda: PrimalNFG(triangle(), Alphabet(2), [[3, 1]] * 3,
                                             [[2, 1]] * 3),
}


class TestSwp:
    def test_toggle_sites_are_each_edge_and_its_endpoints(self):
        rng = np.random.default_rng(27)
        graphs = [grid_graph(3, 3, periodic=True)] + [random_connected_graph(rng) for _ in range(8)]
        for g in graphs:
            _, sites = samplers._toggle_ratios(dualize(ising_model(g, 0.4, 0.2)))
            ne = g.num_edges
            assert sites == [(e, ne + t, ne + h, 8 * e) for e, (t, h) in enumerate(g.edges)]

    def test_heat_bath_and_swp_build_each_models_scopes_once(self, monkeypatch):
        built = []
        entries = nfg._incidence_entries
        monkeypatch.setattr(nfg, "_incidence_entries", lambda g: built.append(g) or entries(g))
        p = ising_model(ring_graph(4), 0.4, 0.2)
        gibbs_primal(p, SamplerConfig(seed=1, samples=5))
        swp(p, SamplerConfig(seed=1, samples=5), audit_every=3)
        swp_state_histogram(p, 10, 1)
        assert len(built) == 2  # p's scopes, then its dual's

    def test_dual_model_refused(self):
        d = dualize(ising_model(ring_graph(4), 0.5, 0.2))
        with pytest.raises(TypeError, match="DualNFG"):
            swp(d, SamplerConfig(seed=1, samples=10))

    def test_preconditions(self):
        with pytest.raises(SamplerError, match="binary"):
            swp(potts_model(triangle(), 3, 0.5, 0.1), SamplerConfig(seed=1, samples=10))
        with pytest.raises(SamplerError, match="couplings"):
            swp(ising_model(triangle(), -0.5, 0.3), SamplerConfig(seed=1, samples=10))
        with pytest.raises(SamplerError, match="fields"):
            swp(ising_model(triangle(), 0.5, 0.0), SamplerConfig(seed=1, samples=10))

    @pytest.mark.parametrize("run", sorted(SWP_ENTRY_POINTS))
    @pytest.mark.parametrize("model", sorted(SWP_REFUSALS))
    def test_refusals_name_their_cause(self, run, model):
        build, cause = SWP_REFUSALS[model]
        with pytest.raises(SamplerError, match=cause):
            SWP_ENTRY_POINTS[run](build())

    @pytest.mark.parametrize("audit_every", [-3, 0, 2.5, True])
    def test_audit_every_must_be_positive(self, audit_every):
        p = ising_model(triangle(), 0.5, 0.3)
        with pytest.raises(ValueError, match="audit_every"):
            swp(p, SamplerConfig(seed=1, samples=10), audit_every=audit_every)

    @pytest.mark.parametrize("steps,seed,name", [
        (True, 1, "steps"), (-1, 1, "steps"), (2.5, 1, "steps"),
        (10, -1, "seed"), (10, True, "seed"),
    ])
    def test_state_histogram_counts_refused_by_name(self, steps, seed, name):
        # steps=True used to run one step, and steps=-1 fail with islice's message
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
            swp_state_histogram(ising_model(triangle(), 0.5, 0.3), steps, seed)

    @pytest.mark.parametrize("run", ["swp_state_histogram", "swp_state_weights"])
    def test_state_enumerations_refuse_more_than_20_edges(self, run):
        p = ising_model(path_graph(22), 0.5, 0.3)  # 21 edges, a positive binary dual
        with pytest.raises(SamplerError, match=r"exponential in \|E\|; keep \|E\| <= 20"):
            SWP_ENTRY_POINTS[run](p)

    def test_scaled_tables_sample_like_their_unscaled_twin(self):
        # the scaled dual's DFT rounds to imaginary parts of about 1e-11, which
        # the sampler used to refuse as "couplings > 0"
        g = ring_graph(4)
        scaled = PrimalNFG(g, Alphabet(2), [[1e5, 1e4]] * 4, [[2e4, 1e4]] * 4)
        twin = PrimalNFG(g, Alphabet(2), [[10.0, 1.0]] * 4, [[2.0, 1.0]] * 4)
        cfg = SamplerConfig(seed=7, samples=2_000)
        assert_same(swp(scaled, cfg), swp(twin, cfg))

    def test_numpy_integer_audit_every_audits_like_an_int(self, monkeypatch):
        p = ising_model(grid_graph(3, 3, periodic=True), 0.44, 0.15)
        cfg = SamplerConfig(seed=5, samples=20)
        results = []
        for audit_every in (5, np.int64(5)):
            audits = count_audits(monkeypatch)
            results.append((swp(p, cfg, audit_every=audit_every), len(audits)))
        (want, want_audits), (got, got_audits) = results
        assert_same(got, want)
        assert got_audits == want_audits == (cfg.resolved_burn_in(18) + cfg.samples) * 18 // 5

    def test_audit_catches_bookkeeping_that_diverges(self, monkeypatch):
        def edge_only(sites, ratios, arg, uniform):  # toggles no endpoint parity
            for e, _, _, _ in sites:
                arg[e] ^= 1

        monkeypatch.setattr(samplers, "_propose", edge_only)
        with pytest.raises(AssertionError, match="diverged from recomputation"):
            swp(ising_model(triangle(), 0.5, 0.3), SamplerConfig(seed=1, samples=10), audit_every=1)

    @pytest.mark.parametrize("model", sorted(POSITIVE_DUAL_MODELS))
    def test_binary_models_with_a_positive_dual(self, model):
        # neither has [e^b, e^-b] tables; both have a positive dual
        p = POSITIVE_DUAL_MODELS[model]()
        dm = marginals_dual(dualize(p))
        n = 100_000
        est = swp(p, SamplerConfig(seed=12, samples=n))
        for got, want in ((est.edge_values, dm.edge_values.real),
                          (est.vertex_values, dm.vertex_values.real)):
            assert (np.abs(got - want) < 3.5 * binomial_sigma(want, n)).all()

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

    @pytest.mark.parametrize("model", ["triangle_ising", "hand_built_triangle"])
    def test_state_weights_marginalize_to_the_dual_oracle(self, model):
        p = (ising_model(triangle(), [0.8, 0.6, 0.7], [0.7, 0.5, 0.6]) if model == "triangle_ising"
             else POSITIVE_DUAL_MODELS[model]())
        probs = swp_state_weights(p)
        probs = probs / probs.sum()
        g = p.graph
        y = (np.arange(2 ** g.num_edges)[:, None] >> np.arange(g.num_edges)) & 1
        parity = y @ np.abs(build_incidence(g)) % 2
        dm = marginals_dual(dualize(p))
        for values, want in ((y, dm.edge_values), (parity, dm.vertex_values)):
            got = np.stack([probs @ (1 - values), probs @ values], axis=1)
            assert np.abs(got - want.real).max() < 1e-12

    @pytest.mark.parametrize("block", [None, 100])
    def test_state_weights_equal_the_unblocked_product(self, block, monkeypatch):
        if block:  # blocks that do not divide the 2^12 states
            monkeypatch.setattr(samplers, "_STATES", block)
        p = ising_model(grid_graph(3, 3), 0.4, 0.3)
        d = dualize(p)
        y = (np.arange(2 ** d.num_vars)[:, None] >> np.arange(d.num_vars)) & 1
        want = d.tables.real[np.arange(len(d.tables)), d.argument_map()(y)].prod(axis=1)
        assert np.array_equal(swp_state_weights(p), want)

    def test_state_weights_memory_is_bounded(self):
        # 2^17 states on the 17-edge 3x4 grid: all at once, the argument arrays need 250 MB
        p = ising_model(grid_graph(3, 4), 0.4, 0.3)
        tracemalloc.start()
        try:
            weights = swp_state_weights(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weights.shape == (2 ** 17,) and (weights > 0).all()
        assert peak < 32 * 2 ** 20

    def test_state_weights_closed_form(self):
        # w(U) / w(empty) = prod_{e in U} tanh bJ_e * prod_{v odd in U} tanh bH_v
        bj, bh = [0.8, 0.6, 0.7], [0.7, 0.5, 0.6]
        g = triangle()
        weights = swp_state_weights(ising_model(g, bj, bh))
        for mask in range(8):
            odd = [0] * 3
            w = 1.0
            for e, (t, h) in enumerate(g.edges):
                if mask >> e & 1:
                    w *= np.tanh(bj[e])
                    odd[t] ^= 1
                    odd[h] ^= 1
            for v in range(3):
                if odd[v]:
                    w *= np.tanh(bh[v])
            assert weights[mask] / weights[0] == pytest.approx(w, rel=1e-12)

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
            assert np.abs(est.edge_values[e] - closed.edge_values[e]).max() < 1e-12
        assert est.vertex_values is None  # zero field makes the vertex map singular

    def test_swp_estimates_primal_marginals(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.44, 0.15)
        om = marginals_primal(p)
        est = estimate_primal_via_dual(p, "swp", SamplerConfig(seed=5, samples=100_000))
        assert isinstance(est, Marginals)
        assert np.abs(est.edge_values - om.edge_values).max() < 5e-3
        assert np.abs(est.vertex_values - om.vertex_values).max() < 5e-3

    def test_swp_on_binary_potts(self):
        p = POSITIVE_DUAL_MODELS["potts2_torus"]()
        om = marginals_primal(p)
        n = 100_000
        est = estimate_primal_via_dual(p, "swp", SamplerConfig(seed=13, samples=n))
        for got, want in ((est.edge_values, om.edge_values), (est.vertex_values, om.vertex_values)):
            assert (np.abs(got - want) < 3.5 * binomial_sigma(want, n)).all()

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

    def test_singular_map_names_its_cause(self):
        # a zero field blames the field, a zero coupling the coupling
        p = ising_model(ring_graph(4), 0.5, [0.2, 0.0, 0.3, 0.1])
        est = estimate_primal_via_dual(p, "bp_dual")
        with pytest.raises(SingularMapError, match="zero external field") as err:
            est.vertex(1)
        assert "coupling" not in str(err.value)
        p = ising_model(ring_graph(4), [0.5, 0.0, 0.4, 0.3], 0.2)
        with pytest.raises(SingularMapError, match="zero-coupling edges") as err:
            estimate_primal_via_dual(p, "bp_dual")
        assert "field" not in str(err.value)

    def test_singular_edge_map_raises(self):
        # bJ = 0 makes psi~_1 = 2 sinh 0 vanish at edge 1
        p = ising_model(ring_graph(4), [0.5, 0.0, 0.4, 0.3], 0.2)
        with pytest.raises(SingularMapError, match="dual edge table 1 "):
            estimate_primal_via_dual(p, "bp_dual")

    def test_estimates_stay_normalized(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.6, 0.3)
        est = estimate_primal_via_dual(p, "swp", SamplerConfig(seed=9, samples=5_000))
        assert np.abs(est.edge_values.sum(axis=1) - 1).max() < 1e-10

    @pytest.mark.parametrize("method", ["swp", "gibbs_dual", "bp_dual"])
    def test_dual_model_refused(self, method):
        # dualizing the dual again would map to a wrong primal record
        d = dualize(ising_model(ring_graph(4), 0.5, 0.2))
        with pytest.raises(TypeError, match="DualNFG"):
            estimate_primal_via_dual(d, method, SamplerConfig(seed=1, samples=10))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_primal_via_dual(ising_model(triangle(), 0.5, 0.1), "jt")
