"""The one Marginals record: every engine returns it, with the same accessors."""

import numpy as np
import pytest

from nfgdual.bp import run_bp
from nfgdual.graphs import ring_graph
from nfgdual.mapping import map_marginals
from nfgdual.nfg import DUAL, PRIMAL, Marginals, dualize, ising_model
from nfgdual.oracle import chain_ising_marginals, marginals_dual, marginals_primal
from nfgdual.samplers import (
    SamplerConfig,
    estimate_primal_via_dual,
    gibbs_dual,
    gibbs_primal,
    swp,
)

TRIANGLE = ising_model(ring_graph(3), 0.5, 0.2)
CFG = SamplerConfig(seed=3, samples=200)

ENGINES = {
    "marginals_primal": (lambda: marginals_primal(TRIANGLE), PRIMAL),
    "marginals_dual": (lambda: marginals_dual(dualize(TRIANGLE)), DUAL),
    "run_bp primal": (lambda: run_bp(TRIANGLE), PRIMAL),
    "run_bp dual": (lambda: run_bp(dualize(TRIANGLE)), DUAL),
    "gibbs_primal": (lambda: gibbs_primal(TRIANGLE, CFG), PRIMAL),
    "gibbs_dual": (lambda: gibbs_dual(dualize(TRIANGLE), CFG), DUAL),
    "swp": (lambda: swp(TRIANGLE, CFG), DUAL),
    "via dual swp": (lambda: estimate_primal_via_dual(TRIANGLE, "swp", CFG), PRIMAL),
    "via dual gibbs_dual": (lambda: estimate_primal_via_dual(TRIANGLE, "gibbs_dual", CFG),
                            PRIMAL),
    "via dual bp_dual": (lambda: estimate_primal_via_dual(TRIANGLE, "bp_dual"), PRIMAL),
    "map_marginals to primal": (lambda: map_marginals(marginals_dual(dualize(TRIANGLE)), TRIANGLE),
                                PRIMAL),
    "map_marginals to dual": (lambda: map_marginals(marginals_primal(TRIANGLE), TRIANGLE), DUAL),
    "chain primal": (lambda: chain_ising_marginals([0.5, 0.7, 0.9], "periodic")[0], PRIMAL),
    "chain dual": (lambda: chain_ising_marginals([0.5, 0.7, 0.9], "periodic")[1], DUAL),
}


@pytest.mark.parametrize("name", list(ENGINES))
def test_engine_returns_marginals(name):
    make, domain = ENGINES[name]
    res = make()
    assert isinstance(res, Marginals)
    assert res.domain == domain
    assert res.edge_values.shape == (3, 2)
    assert res.vertex_values.shape == (3, 2)
    for e in range(3):
        mv = res.edge(e)
        assert mv.site == ("edge", e) and mv.domain == domain
        assert np.array_equal(mv.values, res.edge_values[e])
    for v in range(3):
        mv = res.vertex(v)
        assert mv.site == ("vertex", v) and mv.domain == domain
        assert np.array_equal(mv.values, res.vertex_values[v])


def test_diagnostics_name_their_engine():
    exact = marginals_primal(TRIANGLE)
    assert exact.partition is not None and exact.converged is None
    bp = run_bp(TRIANGLE)
    assert bp.converged and bp.iterations >= 1 and bp.partition is None
    mapped = estimate_primal_via_dual(TRIANGLE, "bp_dual")
    assert isinstance(mapped.dual_estimates, Marginals)
    assert mapped.dual_estimates.domain == DUAL
    assert mapped.converged is mapped.dual_estimates.converged
    assert estimate_primal_via_dual(TRIANGLE, "swp", CFG).converged is None
    dual_bp = run_bp(dualize(TRIANGLE))
    to_primal = map_marginals(dual_bp, TRIANGLE)
    assert to_primal.dual_estimates is dual_bp and to_primal.converged is dual_bp.converged
    to_dual = map_marginals(exact, TRIANGLE)
    assert to_dual.dual_estimates is None and to_dual.converged is None

