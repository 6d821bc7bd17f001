"""Golden fixtures: seeded Gibbs and SWP frequencies and exact marginals, bit for bit.

tests/data/golden.json holds outputs recorded from the library, with the
models and configurations built below.  The samplers promise bit-identical
estimates for a given (model, SamplerConfig), and the oracle is a fixed
sequence of float operations, so every comparison is exact equality.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nfgdual.graphs import Graph, grid_graph
from nfgdual.nfg import dualize, ising_model, potts_model
from nfgdual.oracle import marginals_dual, marginals_primal
from nfgdual.samplers import SamplerConfig, gibbs_dual, gibbs_primal, swp, swp_state_histogram

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())

MODELS = {
    "triangle_ising": lambda: ising_model(Graph(3, [(0, 1), (1, 2), (2, 0)]),
                                          [0.5, 0.3, 0.7], 0.2),
    "grid_potts3": lambda: potts_model(grid_graph(2, 2), 3, 0.6, 0.25),
}
SWP_MODELS = {
    "triangle_ising": MODELS["triangle_ising"],
    "torus4_ising": lambda: ising_model(grid_graph(4, 4, periodic=True), 0.44, 0.15),
}
CONFIGS = {
    "systematic": SamplerConfig(seed=2024, samples=400),
}


def signed_potts():
    return potts_model(grid_graph(2, 3), 3, [0.4, -0.3, 0.25, -0.5, 0.35, 0.2, -0.15],
                       [0.3, 0.1, 0.2, 0.15, 0.25, 0.05])


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("domain", ["primal", "dual"])
def test_gibbs_frequencies(model, config, domain):
    p = MODELS[model]()
    est = (gibbs_primal(p, CONFIGS[config]) if domain == "primal"
           else gibbs_dual(dualize(p), CONFIGS[config]))
    want = GOLDEN["gibbs"][f"{model}/{config}/{domain}"]
    assert np.array_equal(est.edge_values, np.array(want["edge"]))
    assert np.array_equal(est.vertex_values, np.array(want["vertex"]))


@pytest.mark.parametrize("model", sorted(SWP_MODELS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_swp_frequencies(model, config):
    est = swp(SWP_MODELS[model](), CONFIGS[config])
    want = GOLDEN["swp"][f"{model}/{config}"]
    assert np.array_equal(est.edge_values, np.array(want["edge"]))
    assert np.array_equal(est.vertex_values, np.array(want["vertex"]))


def test_swp_state_histogram():
    counts = swp_state_histogram(SWP_MODELS["triangle_ising"](), 200_000, seed=2026)
    assert np.array_equal(counts, np.array(GOLDEN["swp_histogram"]["triangle_ising"]))


@pytest.mark.parametrize("domain", ["primal", "dual"])
def test_signed_model_marginals(domain):
    p = signed_potts()
    om = marginals_primal(p) if domain == "primal" else marginals_dual(dualize(p))
    want = GOLDEN["marginals"][domain]
    assert om.partition == complex(*want["partition"])
    for got, (real, imag) in ((om.edge_values, want["edge"]),
                              (om.vertex_values, want["vertex"])):
        assert np.array_equal(got, np.array(real) + 1j * np.array(imag))
