"""Sum-product on both domains: tree exactness, loopy behavior, signed duals."""

import numpy as np
import pytest

from nfgdual.bp import BpConfig, DegenerateMessageError, _Engine, run_bp
from nfgdual.graphs import Alphabet, Graph, build_incidence, grid_graph, path_graph, ring_graph
from nfgdual.mapping import map_dual_to_primal, map_primal_to_dual
from nfgdual.nfg import (
    DualNFG, Marginals, PrimalNFG, clock_model, dualize, ising_model, potts_model,
)
from nfgdual.oracle import marginals_dual, marginals_primal


def incident(g, v):
    """(edges at v ascending, their signs): column v of the incidence matrix."""
    column = build_incidence(g)[:, v]
    edges = np.flatnonzero(column)
    return tuple(edges.tolist()), tuple(column[edges].tolist())


def factor_graph_diameter(nfg, domain):
    """BFS diameter of the bipartite (factor, variable) expansion."""
    g = nfg.graph
    if domain == "primal":
        n_vars = g.num_vertices
        groups = [list(e) for e in g.edges] + [[v] for v in range(g.num_vertices)]
    else:
        n_vars = g.num_edges
        groups = [[e] for e in range(g.num_edges)] + [
            incident(g, v)[0] for v in range(g.num_vertices)
        ]
    n = n_vars + len(groups)
    adj = [[] for _ in range(n)]
    for fi, vs in enumerate(groups):
        for v in vs:
            adj[n_vars + fi].append(v)
            adj[v].append(n_vars + fi)
    diameter = 0
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = [src]
        for node in queue:
            for nbr in adj[node]:
                if dist[nbr] < 0:
                    dist[nbr] = dist[node] + 1
                    queue.append(nbr)
        diameter = max(diameter, max(dist))
    return diameter


def reference_bp(nfg, cfg):
    """Sum-product one message at a time, with the engine's update rules.

    The engine's flooding sweep must reproduce this loop: the same iteration
    count and beliefs to 1e-12 (the products and DFTs are grouped differently,
    so the two can differ in the last bits).
    """
    g, q = nfg.graph, nfg.alphabet.q
    if isinstance(nfg, PrimalNFG):
        scopes = [((t, h), (1, -1)) for t, h in g.edges] + [((v,), (1,)) for v in range(g.num_vertices)]
    else:
        scopes = [((e,), (1,)) for e in range(g.num_edges)] + [
            incident(g, v) for v in range(g.num_vertices)
        ]
    tables = np.concatenate([nfg.edge_tables, nfg.vertex_tables])
    real = np.abs(tables.imag).max() < 1e-12
    w = np.exp(-2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
    perm = {1: np.arange(q), -1: (-np.arange(q)) % q}

    def normalize(m):
        m = m / np.abs(m).sum()
        if real:
            return m.real + 0j
        lead = m[np.argmax(np.abs(m))]
        return m * np.conj(lead / abs(lead))

    msgs = {(f, j): np.full(q, 1 / q, dtype=complex) for f, (vs, _) in enumerate(scopes)
            for j in range(len(vs))}

    def incoming(f):
        out = []
        for var, sign in zip(*scopes[f]):
            m = np.ones(q, dtype=complex)
            for (f2, j2), msg in msgs.items():
                if f2 != f and scopes[f2][0][j2] == var:
                    m = m * msg
            out.append(normalize(m)[perm[sign]])
        return out

    def updates(f):
        vs, signs = scopes[f]
        if len(vs) == 1:
            return [normalize(tables[f][perm[signs[0]]])]
        hats = [w @ m for m in incoming(f)]
        out = []
        for j, sign in enumerate(signs):
            others = np.prod([h for i, h in enumerate(hats) if i != j], axis=0)
            g_ = np.conj(w) @ ((w @ tables[f]) * others[(-np.arange(q)) % q]) / q
            out.append(normalize(g_[perm[sign]]))
        return out

    def store(new):
        res = 0.0
        for key, m in new.items():
            b = normalize((1 - cfg.damping) * m + cfg.damping * msgs[key])
            res = max(res, float(np.abs(b - msgs[key]).max()))
            msgs[key] = b
        return res

    for it in range(1, cfg.max_iters + 1):
        residual = store({(f, j): m for f in range(len(scopes))
                          for j, m in enumerate(updates(f))})
        if residual < cfg.tol:
            break
    beliefs = []
    for f in range(len(scopes)):
        inc = incoming(f)
        conv = inc[0] if len(inc) == 1 else np.conj(w) @ np.prod([w @ m for m in inc], axis=0) / q
        b = tables[f] * conv
        beliefs.append(b / b.sum())
    return it, np.array(beliefs)


class TestTreeExactness:
    @pytest.mark.parametrize("domain", ["primal", "dual"])
    def test_chain_matches_oracle_within_diameter(self, domain):
        p = ising_model(path_graph(6), [0.4, -0.9, 0.3, 0.7, 1.1], 0.2)
        nfg = p if domain == "primal" else dualize(p)
        oracle = marginals_primal(p) if domain == "primal" else marginals_dual(dualize(p))
        res = run_bp(nfg, BpConfig(damping=0.0))
        assert res.converged
        assert res.iterations <= factor_graph_diameter(p, domain)
        assert np.abs(res.edge_values - oracle.edge_values).max() < 1e-10
        assert np.abs(res.vertex_values - oracle.vertex_values).max() < 1e-10

    def test_star_tree_potts(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        p = potts_model(g, 4, [0.8, -0.3, 0.5, 1.0], 0.25)
        res = run_bp(p, BpConfig(damping=0.0))
        oracle = marginals_primal(p)
        assert res.converged
        assert np.abs(res.edge_values - oracle.edge_values).max() < 1e-10

    def test_signed_dual_tree_exact(self):
        p = ising_model(path_graph(5), [-0.6, 0.4, -0.2, 0.9], 0.3)
        d = dualize(p)
        oracle = marginals_dual(d)
        res = run_bp(d, BpConfig(damping=0.0))
        assert res.converged
        assert np.abs(res.edge_values - oracle.edge_values).max() < 1e-10
        assert np.abs(res.vertex_values - oracle.vertex_values).max() < 1e-10


class TestAgainstReference:
    # the "flooding" ids name the sweep that run_bp and reference_bp both run
    @pytest.mark.parametrize("cfg", [BpConfig(damping=0.3, tol=1e-10, max_iters=500)],
                             ids=["flooding"])
    @pytest.mark.parametrize("make", [
        lambda: ising_model(grid_graph(3, 4, periodic=True), 0.45, 0.1),
        lambda: dualize(ising_model(grid_graph(3, 3, periodic=True), 0.4, 0.2)),
        lambda: dualize(potts_model(grid_graph(2, 3), 3, [0.4, -0.3, 0.5, -0.2, 0.3, 0.6, -0.4], -0.2)),
        lambda: dualize(clock_model(Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), 4, -0.5)),
        lambda: DualNFG(Graph(3, [(0, 1), (1, 2), (2, 0)]), potts_model(path_graph(2), 3, 0.1).alphabet,
                        [[1, 0.5j, -0.2], [0.7, 1j, 0.3], [1 + 1j, 0.2, 0.4]],
                        np.exp(1j * np.arange(9).reshape(3, 3))),
    ], ids=["primal-torus", "dual-torus", "signed-potts-dual", "clock-dual", "complex-dual"])
    def test_matches_message_by_message_loop(self, make, cfg):
        nfg = make()
        res = run_bp(nfg, cfg)
        iterations, beliefs = reference_bp(nfg, cfg)
        assert res.iterations == iterations
        got = np.concatenate([res.edge_values, res.vertex_values])
        assert np.abs(got - beliefs).max() < 1e-12

    @pytest.mark.parametrize("domain", ["primal", "dual"])
    def test_default_config_on_benchmark_torus(self, domain):
        # the 4x4 periodic Ising model at the bp_torus coupling and field ranges
        g = grid_graph(4, 4, periodic=True)
        rng = np.random.default_rng(5)
        p = ising_model(g, rng.uniform(0.2, 0.3, g.num_edges),
                        rng.uniform(0.1, 0.2, g.num_vertices))
        nfg = p if domain == "primal" else dualize(p)
        cfg = BpConfig()
        res = run_bp(nfg, cfg)
        iterations, beliefs = reference_bp(nfg, cfg)
        assert res.converged
        assert res.iterations == iterations
        got = np.concatenate([res.edge_values, res.vertex_values])
        assert np.abs(got - beliefs).max() < 1e-12

    @pytest.mark.parametrize("domain", ["primal", "dual"])
    @pytest.mark.parametrize("g", [Graph(2, [(0, 1)]), Graph(1, [])], ids=["one-edge", "no-edge"])
    def test_degree_zero_and_one_factors(self, g, domain):
        p = ising_model(g, 0.35, [0.2, -0.1][: g.num_vertices])
        nfg = p if domain == "primal" else dualize(p)
        exact = marginals_primal(p) if domain == "primal" else marginals_dual(nfg)
        res = run_bp(nfg, BpConfig(tol=1e-12))
        assert res.converged
        assert np.abs(res.edge_values - exact.edge_values).max(initial=0.0) < 1e-10
        assert np.abs(res.vertex_values - exact.vertex_values).max() < 1e-10

    @pytest.mark.parametrize("cfg", [BpConfig(damping=0.0)], ids=["flooding"])
    def test_tree_with_factor_degrees_one_to_four(self, cfg):
        # dual vertex factors of degree 4, 3, 2 and 1 run as separate groups
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 0), (1, 5), (6, 1), (2, 7)])
        p = potts_model(g, 3, [0.7, -0.4, 0.3, 0.9, -0.6, 0.5, 0.2], 0.25)
        d = dualize(p)
        assert sorted({len(incident(g, v)[0]) for v in range(8)}) == [1, 2, 3, 4]
        res = run_bp(d, cfg)
        oracle = marginals_dual(d)
        assert res.converged
        assert np.abs(res.edge_values - oracle.edge_values).max() < 1e-10
        assert np.abs(res.vertex_values - oracle.vertex_values).max() < 1e-10


class TestLayout:
    @pytest.mark.parametrize("make", [
        lambda: ising_model(grid_graph(6, 6, periodic=True), 0.25, 0.15),
        lambda: dualize(ising_model(grid_graph(6, 6, periodic=True), 0.25, 0.15)),
        lambda: dualize(potts_model(Graph(8, [(0, 1), (0, 2), (0, 3), (4, 0), (1, 5), (6, 1), (2, 7)]),
                                    3, 0.4, 0.25)),
        lambda: DualNFG(Graph(3, [(0, 1), (1, 2), (2, 0)]), Alphabet(3),
                        [[1, 0.5j, -0.2], [0.7, 1j, 0.3], [1 + 1j, 0.2, 0.4]],
                        np.exp(1j * np.arange(9).reshape(3, 3))),
    ], ids=["primal-torus", "dual-torus", "dual-tree-degrees-1-to-4", "complex-dual"])
    def test_group_index_and_table_arrays_are_c_contiguous(self, make):
        # the sweep reads gathered rows, sign-reindexed rows and table
        # transforms row by row, and numpy's indexing keeps a strided layout
        for grp in _Engine(make(), BpConfig()).groups:
            for name in ("gather", "sign_index", "table_hat_neg"):
                assert getattr(grp, name).flags.c_contiguous, (grp.shape, name)


class TestLoopyBehavior:
    def test_beliefs_normalized_every_location(self):
        p = ising_model(grid_graph(3, 3, periodic=True), 0.4, 0.15)
        res = run_bp(p)
        assert np.abs(res.edge_values.sum(axis=1) - 1).max() < 1e-9
        assert np.abs(res.vertex_values.sum(axis=1) - 1).max() < 1e-9

    def test_damping_levels_share_fixed_point(self):
        p = ising_model(grid_graph(3, 3, periodic=True), 0.5, 0.1)
        r0 = run_bp(p, BpConfig(damping=0.0))
        r5 = run_bp(p, BpConfig(damping=0.5))
        assert r0.converged and r5.converged
        assert np.abs(r0.edge_values - r5.edge_values).max() < 1e-6

    def test_loopy_close_to_oracle_high_temperature(self):
        # the 3x3 torus has girth-3 loops, so a few percent of bias is expected
        p = ising_model(grid_graph(3, 3, periodic=True), 0.2, 0.15)
        oracle = marginals_primal(p)
        res = run_bp(p)
        assert res.converged
        err = abs(res.edge_values[0, 0] - oracle.edge_values[0, 0]) / abs(oracle.edge_values[0, 0])
        assert err < 0.05

    def test_nonconvergence_is_returned_not_raised(self):
        p = ising_model(grid_graph(3, 3, periodic=True), -2.0, 0.05)
        res = run_bp(p, BpConfig(damping=0.0, max_iters=40))
        assert isinstance(res, Marginals)
        assert not res.converged
        assert res.iterations == 40
        assert np.isfinite(res.residual)

    def test_primal_and_dual_fixed_points_correspond(self):
        # the local map carries one domain's BP fixed point onto the other's
        p = ising_model(grid_graph(3, 3, periodic=True), 0.6, 0.15)
        d = dualize(p)
        cfg = BpConfig(tol=1e-12, max_iters=20000)
        rp, rd = run_bp(p, cfg), run_bp(d, cfg)
        assert rp.converged and rd.converged
        for e in range(p.graph.num_edges):
            mapped = map_dual_to_primal(rd.edge(e), p.edge_tables[e], d.edge_tables[e])
            assert np.abs(mapped.values - rp.edge_values[e]).max() < 1e-9


class TestSignedDual:
    @pytest.mark.parametrize("build", [
        lambda: ising_model(ring_graph(4), -10.0, 0.5),
        lambda: ising_model(ring_graph(4), -9.3, 0.5),
        lambda: clock_model(ring_graph(4), 6, 30.0, 0.5),
    ], ids=["ising-10", "ising-9.3", "clock6-30"])
    def test_large_real_duals_run_in_real_mode(self, build):
        # their DFTs round to imaginary parts above 1e-12 against entries of 1e4
        # and more, which dualize used to keep, sending BP to its complex engine
        d = dualize(build())
        assert not d.edge_tables.imag.any() and not d.vertex_tables.imag.any()
        assert _Engine(d, BpConfig()).real_mode

    def test_frustrated_triangle_consistency(self):
        # dual BP on signed factors converges; its beliefs agree with mapped
        # primal BP to solver precision, and sit near the oracle marginal
        # functions at ordinary loopy-BP accuracy
        tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
        p = potts_model(tri, 3, [-0.25, 0.8, 0.8], 0.1)
        d = dualize(p)
        cfg = BpConfig(tol=1e-12, max_iters=20000)
        rp, rd = run_bp(p, cfg), run_bp(d, cfg)
        assert rp.converged and rd.converged
        dm = marginals_dual(d)
        assert np.abs(rd.edge_values - dm.edge_values).max() < 0.05
        for e in range(3):
            mapped = map_primal_to_dual(rp.edge(e), p.edge_tables[e], d.edge_tables[e])
            assert np.abs(mapped.values - rd.edge_values[e]).max() < 1e-6

    def test_degenerate_message_is_identified(self):
        g = path_graph(2)
        d = DualNFG(
            g,
            ising_model(g, 0.5).alphabet,
            np.array([[0.0 + 0j, 0.0 + 0j]]),
            np.array([[1.0 + 0j, 1.0 + 0j], [1.0 + 0j, 1.0 + 0j]]),
        )
        with pytest.raises(DegenerateMessageError, match="edge"):
            run_bp(d)

    def test_zero_message_out_of_a_multi_variable_factor(self):
        # vertex 1 is a degree-2 factor whose table vanishes
        g = path_graph(3)
        d = DualNFG(g, ising_model(g, 0.5).alphabet, np.ones((2, 2)),
                    [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateMessageError, match="message at vertex 1 "):
            run_bp(d)

    @pytest.mark.parametrize("cfg", [BpConfig(damping=0.0)], ids=["flooding"])
    def test_zero_message_into_a_factor_names_the_variable(self, cfg):
        # variable 0 (edge 0) hears [1, 0] from its unary factor and [0, 1]
        # from vertex 0, so the message into vertex 1 along edge 0 vanishes
        g = path_graph(3)
        d = DualNFG(g, ising_model(g, 0.5).alphabet, [[1.0, 0.0], [1.0, 1.0]],
                    [[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateMessageError, match="message at variable 0 cancelled to zero"):
            run_bp(d, cfg)

    @pytest.mark.parametrize("domain", ["primal", "dual"])
    def test_overflowing_message_is_not_finite(self, domain):
        # edge 0's table [1e308, 1e308] is finite, but its DFT and its norm,
        # which every message out of edge 0 reads, overflow
        build = PrimalNFG if domain == "primal" else DualNFG
        nfg = build(ring_graph(4), Alphabet(2), [[1e308, 1e308]] + [[1.0, 2.0]] * 3,
                    [[1.0, 2.0]] * 4)
        with pytest.raises(DegenerateMessageError, match="message at edge 0 is not finite"):
            run_bp(nfg)

    @pytest.mark.parametrize("domain", ["primal", "dual"])
    def test_vanishing_table_cancels_to_zero(self, domain):
        p = ising_model(ring_graph(4), 0.3, 0.1)
        tables = p.edge_tables.copy()
        tables[2] = 0.0
        p = PrimalNFG(p.graph, p.alphabet, tables, p.vertex_tables)
        nfg = p if domain == "primal" else dualize(p)
        with pytest.raises(DegenerateMessageError, match="message at edge 2 cancelled to zero"):
            run_bp(nfg)


class TestRelativeError:
    def test_oracle_vs_bp_small_torus(self):
        p = ising_model(grid_graph(2, 2, periodic=True), 0.4, 0.1)
        oracle = marginals_primal(p)
        res = run_bp(p)
        err = abs(res.edge_values[0, 0] - oracle.edge_values[0, 0]) / abs(oracle.edge_values[0, 0])
        assert 0 <= err < 0.05


class TestConfigValidation:
    def test_bad_damping(self):
        with pytest.raises(ValueError):
            BpConfig(damping=1.0)
        for damping in (True, False, "0.5", None, 0.5 + 0j):
            with pytest.raises(ValueError, match="damping"):
                BpConfig(damping=damping)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            BpConfig(tol=0.0)
        for tol in (True, False, "1e-9", None, 1e-9 + 0j):
            with pytest.raises(ValueError, match="tol"):
                BpConfig(tol=tol)

    def test_real_damping_and_tol_accepted(self):
        cfg = BpConfig(damping=0, tol=1)
        assert (cfg.damping, cfg.tol) == (0, 1)
        cfg = BpConfig(damping=np.float64(0.5), tol=np.float32(1e-6))
        assert (cfg.damping, cfg.tol) == (0.5, np.float32(1e-6))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            BpConfig(tol=tol)

    @pytest.mark.parametrize("max_iters", [0, -5, 2.5, True, "10"])
    def test_bad_max_iters(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            BpConfig(max_iters=max_iters)

    def test_integer_max_iters_accepted(self):
        assert BpConfig(max_iters=1).max_iters == 1
        assert BpConfig(max_iters=np.int64(7)).max_iters == 7
