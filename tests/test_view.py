"""The factor view that every engine reads off a model: scopes, tables, site
names, the record split and the argument map, in both domains, checked
against the signed incidence matrix."""

import numpy as np
import pytest

from nfgdual.graphs import Graph, build_incidence, complete_graph, grid_graph, path_graph
from nfgdual.nfg import DUAL, PRIMAL, potts_model
from nfgdual.validate import random_connected_graph

_rng = np.random.default_rng(2611)
GRAPHS = {"single-vertex": Graph(1, []), "path2": path_graph(2), "K6": complete_graph(6),
          "torus6x6": grid_graph(6, 6, periodic=True)}
GRAPHS.update({f"random{i}": random_connected_graph(_rng) for i in range(30)})
MODELS = {f"{name}-q{2 + i % 3}": potts_model(g, 2 + i % 3, 0.3, 0.2)
          for i, (name, g) in enumerate(GRAPHS.items())}


@pytest.fixture(params=[(name, domain) for name in MODELS for domain in (PRIMAL, DUAL)],
                ids=lambda param: "-".join(param))
def model(request):
    name, domain = request.param
    p = MODELS[name]
    return p if domain == PRIMAL else p.dual


def test_scopes_are_built_once_per_model(model):
    assert model.scopes is model.scopes


def test_shared_scopes_are_the_incidence_rows_or_columns(model):
    g, scopes = model.graph, model.scopes
    m = build_incidence(g).astype(int)
    assert len(scopes) == g.num_edges + g.num_vertices
    assert all(type(x) is int for vs, ss in scopes for x in vs + ss)
    if model.domain == PRIMAL:  # edge e sees x_tail - x_head, vertex v sees x_v
        shared, unary = scopes[:g.num_edges], scopes[g.num_edges:]
        lines = m
        assert all(ss == (1, -1) for _, ss in shared)
    else:  # edge e sees y~_e, vertex v sees (M^T y~)_v, its edges in edge order
        unary, shared = scopes[:g.num_edges], scopes[g.num_edges:]
        lines = m.T
        assert all(list(vs) == sorted(vs) for vs, _ in shared)
    for (vs, ss), line in zip(shared, lines, strict=True):
        assert len(set(vs)) == len(vs) == len(ss)
        assert dict(zip(vs, ss)) == {i: int(line[i]) for i in np.flatnonzero(line)}
    assert unary == [((i,), (1,)) for i in range(model.num_vars)]


def test_tables_and_variable_count(model):
    g = model.graph
    assert np.array_equal(model.tables, np.vstack([model.edge_tables, model.vertex_tables]))
    assert model.num_vars == (g.num_vertices if model.domain == PRIMAL else g.num_edges)


def test_site_names_every_factor(model):
    g = model.graph
    names = [model.site(f) for f in range(g.num_edges + g.num_vertices)]
    assert names == ([f"edge {e}" for e in range(g.num_edges)]
                     + [f"vertex {v}" for v in range(g.num_vertices)])


def test_record_puts_the_edge_rows_first(model):
    g, q = model.graph, model.alphabet.q
    rows = np.arange((g.num_edges + g.num_vertices) * q, dtype=float).reshape(-1, q)
    rec = model.record(rows, converged=True, iterations=3)
    assert np.array_equal(rec.edge_values, rows[:g.num_edges])
    assert np.array_equal(rec.vertex_values, rows[g.num_edges:])
    assert (rec.domain, rec.converged, rec.iterations) == (model.domain, True, 3)


def test_argument_map_is_the_incidence_product(model):
    g, q = model.graph, model.alphabet.q
    m = build_incidence(g).astype(np.int64)
    z = np.random.default_rng(q).integers(0, q, (5, model.num_vars))
    shared = z @ (m.T if model.domain == PRIMAL else m) % q
    want = np.hstack([shared, z] if model.domain == PRIMAL else [z, shared])
    assert np.array_equal(model.argument_map()(z), want)

