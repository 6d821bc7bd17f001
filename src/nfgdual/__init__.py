"""Pairwise graphical models on normal factor graphs, their Fourier duals, and
local mappings that carry marginal probabilities between the two domains."""

__version__ = "0.1.0"

from .graphs import (
    Alphabet,
    Graph,
    GraphError,
    betti,
    build_incidence,
    complete_graph,
    dual_vertex_config,
    edge_config,
    grid_graph,
    path_graph,
    ring_graph,
    scale_factor,
)
from .nfg import (
    DualNFG,
    MarginalVector,
    Marginals,
    PrimalNFG,
    clock_model,
    dft_table,
    dualize,
    idft_table,
    ising_model,
    is_nonnegative,
    potts_model,
)
from .oracle import (
    EnumerationBudgetError,
    chain_ising_marginals,
    duality_check,
    enumeration_budget,
    marginals_dual,
    marginals_primal,
    ring_potts_marginals,
)
from .mapping import (
    CLOCK4_CRITICAL,
    ISING_CRITICAL,
    SingularMapError,
    fixed_point,
    ising_lower_bounds,
    magnetization_roundtrip,
    map_dual_to_primal,
    map_marginals,
    map_primal_to_dual,
    potts_critical,
    potts_lower_bounds,
)
from .bp import BpConfig, DegenerateMessageError, run_bp
from .samplers import (
    SamplerConfig,
    SamplerError,
    estimate_primal_via_dual,
    gibbs_dual,
    gibbs_primal,
    swp,
)
from .gaussian import (
    GmrfModel,
    dual_precision,
    exact_dual_vertex_variances,
    exact_variances,
    gibbs_gaussian,
    map_variance_dual_to_primal,
    primal_precision,
)
