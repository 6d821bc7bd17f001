"""Tests of the benchmark's own references, tolerances and span arithmetic.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nfgdual import (  # noqa: E402
    GmrfModel,
    dualize,
    exact_dual_vertex_variances,
    exact_variances,
    grid_graph,
    ising_model,
    map_dual_to_primal,
    marginals_primal,
    primal_precision,
)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transfer_matrix_matches_enumeration_on_4x4_torus(seed):
    rng = np.random.default_rng(seed)
    g = grid_graph(4, 4, periodic=True)
    beta_j = rng.normal(0.0, 0.5, g.num_edges)
    beta_h = rng.normal(0.0, 0.5, g.num_vertices)
    exact = marginals_primal(ising_model(g, beta_j, beta_h))
    edge, vertex = reference.torus_ising_marginals(4, 4, g.edges, beta_j, beta_h)
    assert np.abs(exact.edge_values - edge).max() <= 1e-12
    assert np.abs(exact.vertex_values - vertex).max() <= 1e-12


def test_transfer_matrix_refuses_a_non_torus_bond():
    with pytest.raises(ValueError):
        reference.torus_ising_marginals(3, 3, [(0, 4)], [0.1], np.zeros(9))


def test_gmrf_reference_matches_program():
    g = grid_graph(4, 5, periodic=True)
    m = GmrfModel(g, 2.0, 1.5)
    primal, dual = reference.gmrf_variances(g.num_vertices, g.edges, m.s, m.sigma)
    assert np.allclose(exact_variances(primal_precision(m)), primal, rtol=1e-12, atol=0)
    assert np.allclose(exact_dual_vertex_variances(m), dual, rtol=1e-12, atol=0)


def test_dual_probability_agrees_with_local_map():
    """The closed form behind the MCMC tolerance inverts the program's map."""
    rng = np.random.default_rng(5)
    g = grid_graph(3, 3, periodic=True)
    beta_j = rng.uniform(0.2, 0.3, g.num_edges)
    beta_h = rng.uniform(0.1, 0.2, g.num_vertices)
    p = ising_model(g, beta_j, beta_h)
    d = dualize(p)
    edge, vertex = reference.torus_ising_marginals(3, 3, g.edges, beta_j, beta_h)
    for e in range(g.num_edges):
        pd1 = workloads._dual_probability_one(edge[e, 0], beta_j[e])
        back = map_dual_to_primal([1 - pd1, pd1], p.edge_tables[e], d.edge_tables[e])
        assert abs(back.values[0] - edge[e, 0]) < 1e-12
    for v in range(g.num_vertices):
        pd1 = workloads._dual_probability_one(vertex[v, 0], beta_h[v])
        back = map_dual_to_primal([1 - pd1, pd1], p.vertex_tables[v], d.vertex_tables[v])
        assert abs(back.values[0] - vertex[v, 0]) < 1e-12


@pytest.mark.parametrize("s", [1.0, 20.0, 40.0])
def test_gmrf_mode_sum_matches_dense_inverse(s):
    """The eigenmodes behind the GMRF tolerance give the reference's mean variances."""
    g = grid_graph(6, 6, periodic=True)
    primal, dual = reference.gmrf_variances(g.num_vertices, g.edges, s, 5.0)
    for domain, want in (("primal", primal), ("dual", dual)):
        mean, _, _ = workloads.gmrf_spread(domain, s, 5.0, size=6)
        assert mean == pytest.approx(want.mean(), rel=1e-12)


def test_gmrf_spread_shrinks_with_sweeps():
    _, short, few = workloads.gmrf_spread("dual", 20.0, samples=200)
    _, long, many = workloads.gmrf_spread("dual", 20.0, samples=800)
    assert long == pytest.approx(short / 2)
    assert many == pytest.approx(4 * few)


def test_slow_primal_chain_has_too_few_effective_samples():
    """At s = 1 the primal chain's slowest mode gets about one sample in 200 sweeps."""
    _, _, effective = workloads.gmrf_spread("primal", 1.0)
    assert effective < workloads.GMRF_MIN_SAMPLES
    for domain, s in (("primal", 20.0), ("dual", 1.0)):
        assert workloads.gmrf_spread(domain, s)[2] >= workloads.GMRF_MIN_SAMPLES


def test_self_time_subtracts_direct_children():
    spans = [tracing.Span("a", "bp", 0.0, -1, 0, None),
             tracing.Span("b", "graphs", 1.0, 0, 0, None),
             tracing.Span("c", "bp", 1.5, 1, 0, None)]
    for s, end in zip(spans, (10.0, 4.0, 2.0)):
        s.end = end
    assert tracing.self_times(spans) == [7.0, 2.5, 0.5]


def test_workload_inputs_depend_only_on_seed():
    a, b = workloads.BpTorus(7), workloads.BpTorus(7)
    assert np.array_equal(a.take(3)["beta_j"], b.take(3)["beta_j"])
    assert not np.array_equal(a.take(4)["beta_j"], b.take(5)["beta_j"])
