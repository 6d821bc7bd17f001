"""Golden fixtures: seeded Gibbs and SWP frequencies, exact marginals and
sum-product beliefs, bit for bit.

tests/data/golden.json holds outputs recorded from the library, with the
models and configurations built below.  The samplers promise bit-identical
estimates for a given (model, SamplerConfig), and the oracle and run_bp are
fixed sequences of float operations, so every comparison is exact equality.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nfgdual.bp import run_bp
from nfgdual.graphs import Alphabet, Graph, grid_graph
from nfgdual.nfg import PrimalNFG, dualize, ising_model, potts_model
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


def asymmetric_potts3():
    """A q = 3 triangle whose tables are not symmetric under t -> -t, so its dual is complex."""
    return PrimalNFG(Graph(3, [(0, 1), (1, 2), (2, 0)]), Alphabet(3),
                     [[1.0, 0.6, 0.3], [0.8, 0.2, 0.5], [1.0, 0.4, 0.7]],
                     [[1.0, 0.5, 0.8], [0.6, 1.0, 0.3], [0.9, 0.7, 0.4]])


# run_bp under the default BpConfig, keyed "model/domain"
BP_MODELS = {
    **{f"{name}/{domain}": (make if domain == "primal" else lambda make=make: dualize(make()))
       for name, make in (("triangle_ising", MODELS["triangle_ising"]),
                          ("grid_potts3", MODELS["grid_potts3"]),
                          ("asymmetric_potts3", asymmetric_potts3),
                          ("torus4_ising", SWP_MODELS["torus4_ising"]))
       for domain in ("primal", "dual")},
    "signed_potts/dual": lambda: dualize(signed_potts()),
}


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


@pytest.mark.parametrize("key", sorted(BP_MODELS))
def test_bp_beliefs(key):
    res = run_bp(BP_MODELS[key]())
    want = GOLDEN["bp"][key]
    assert (res.iterations, res.residual, res.converged) == \
        (want["iterations"], want["residual"], want["converged"])
    for got, (real, imag) in ((res.edge_values, want["edge"]),
                              (res.vertex_values, want["vertex"])):
        assert np.array_equal(got, np.array(real) + 1j * np.array(imag))
