"""MCMC marginal estimators: heat-bath Gibbs in both domains and the
subgraphs-world process for ferromagnetic binary models in a positive field.

All chains are driven by numpy's PCG64 generator (stable across versions, so
seeded estimates can serve as golden fixtures) and use a systematic sweep by
default: sites are updated in ascending index order, one full pass per sweep.
`samples` counts retained sweeps; the default burn-in is ten times the number
of variables in the sampled domain.  Both Gibbs samplers run one heat bath on
the factor view of their domain, and draw a sweep's uniforms at once, after
its site order: one `rng.random(n)` gives the same PCG64 stream as n scalar
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bp import BpConfig, run_bp
from .graphs import betti
from .mapping import SingularMapError, _map_rows
from .nfg import (
    DUAL, PRIMAL, DualNFG, MarginalVector, PrimalNFG, _factor_view, dualize, is_nonnegative,
)


class SamplerError(ValueError):
    """Model violates a sampler's precondition."""


@dataclass(frozen=True)
class SamplerConfig:
    """seed/burn-in/samples/thinning; deterministic given seed.

    burn_in=None means 10x the number of variables in the sampled domain.
    """

    seed: int
    samples: int = 10_000
    burn_in: int | None = None
    thinning: int = 1
    sweep: str = "systematic"  # or "random"

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.sweep not in ("systematic", "random"):
            raise ValueError(f"unknown sweep strategy {self.sweep!r}")

    def resolved_burn_in(self, num_variables: int) -> int:
        return 10 * num_variables if self.burn_in is None else self.burn_in


@dataclass
class SampleEstimates:
    """Empirical per-edge and per-vertex marginal frequencies of one domain."""

    edge_values: np.ndarray
    vertex_values: np.ndarray
    domain: str

    def edge(self, e: int) -> MarginalVector:
        return MarginalVector(self.edge_values[e], ("edge", e), self.domain)

    def vertex(self, v: int) -> MarginalVector:
        return MarginalVector(self.vertex_values[v], ("vertex", v), self.domain)


def _require_pmf_tables(tables: np.ndarray, what: str) -> None:
    if tables.size and np.abs(tables.imag).max() > 1e-12:
        raise SamplerError(f"{what} must be real for sampling")
    if tables.size and tables.real.min() < -1e-12:  # same tolerance as is_nonnegative
        raise SamplerError(f"{what} must be nonnegative for sampling")


def _site_order(n: int, sweep: str, rng) -> list:
    if sweep == "systematic":
        return list(range(n))
    return [int(i) for i in rng.integers(0, n, size=n)]


def _draw(weights: list, u: float, kind: str, site: int) -> int:
    """Heat-bath draw of a state with probability proportional to its weight.

    u is a uniform draw from [0, 1).
    """
    total = sum(weights)
    if total <= 0.0:
        raise SamplerError(
            f"every state of {kind} {site} has zero weight given its neighbors "
            "(a hard constraint the current configuration violates)"
        )
    u *= total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    # u can round up to total itself; the draw then belongs to the last weighted state
    return max(i for i, w in enumerate(weights) if w > 0.0)


def _heat_bath(model, cfg: SamplerConfig) -> SampleEstimates:
    """Single-variable heat bath on the factor view of either domain.

    Variable i's conditional weight of value a is the product, over the
    factors f whose scope holds i, of table_f at s a + r_f, where s is i's
    sign in f and r_f the signed sum of f's other variables.  Each variable lists its
    factors unary first, with the table reindexed by s and stored twice over
    (t2[c] = table_f[s c mod q] for c < 2q), so that with b = s r_f mod q the
    weight of a is t2[b + a].  Factor arguments are kept up to date as
    variables change, and a retained sweep counts every factor at its
    argument: these are the edge and vertex frequencies.
    """
    scopes, num_vars, tables = _factor_view(model)
    q = model.alphabet.q
    kind = "vertex" if model.domain == PRIMAL else "edge"
    real = tables.real.clip(min=0.0)
    by_var = [[] for _ in range(num_vars)]
    for f in sorted(range(len(scopes)), key=lambda f: len(scopes[f][0]) > 1):
        for var, sign in zip(*scopes[f]):
            t2 = real[f][(sign * np.arange(2 * q)) % q].tolist()
            by_var[var].append((f, sign, t2))
    rng = np.random.default_rng(cfg.seed)
    z = [0] * num_vars
    arg = [0] * len(scopes)
    counts = np.zeros((len(scopes), q), dtype=np.int64)
    factors = np.arange(len(scopes))
    burn = cfg.resolved_burn_in(num_vars)
    retained = 0
    for sweep in range(burn + cfg.samples * cfg.thinning):
        order = _site_order(num_vars, cfg.sweep, rng)
        for i, u in zip(order, rng.random(num_vars).tolist()):
            cur = z[i]
            rows = [(t2, (sign * arg[f] - cur) % q) for f, sign, t2 in by_var[i]]
            weights = []
            for a in range(q):
                w = 1.0
                for t2, b in rows:
                    w *= t2[b + a]
                weights.append(w)
            new = _draw(weights, u, kind, i)
            if new != cur:
                z[i] = new
                for f, sign, _ in by_var[i]:
                    arg[f] = (arg[f] + sign * (new - cur)) % q
        if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
            retained += 1
            counts[factors, arg] += 1
    e = model.graph.num_edges
    return SampleEstimates(counts[:e] / retained, counts[e:] / retained, model.domain)


def gibbs_primal(p: PrimalNFG, cfg: SamplerConfig) -> SampleEstimates:
    """Single-site heat bath over vertex configurations.

    Each update resamples x_v from its exact conditional given the neighbors:
    weight(a) = phi_v(a) * prod over incident edges of psi_e at the implied
    edge value.  Estimates are empirical frequencies of x_v and y_e(x) over
    retained sweeps.
    """
    _require_pmf_tables(p.edge_tables, "primal edge tables")
    _require_pmf_tables(p.vertex_tables, "primal vertex tables")
    return _heat_bath(p, cfg)


def gibbs_dual(d: DualNFG, cfg: SamplerConfig) -> SampleEstimates:
    """Single-edge-variable heat bath over dual configurations y~.

    The conditional of y~_e involves psi~_e and the two phi~ factors at its
    endpoints (x~ = M^T y~ is tracked incrementally).  Requires a nonnegative
    dual; signed duals have no dual-domain PMF -- estimate those with run_bp.
    Zero entries in phi~ (zero-field models) act as hard parity constraints,
    under which single-edge moves are non-ergodic on any graph with cycles,
    so that combination is refused as well.
    """
    if not is_nonnegative(d):
        raise SamplerError(
            "dual factors are signed or complex, so no dual PMF exists; "
            "estimate dual marginal functions with run_bp instead"
        )
    if (d.vertex_tables.real <= 0.0).any() and betti(d.graph) > 0:
        raise SamplerError(
            "dual vertex table has zero entries (zero external field): the "
            "single-edge heat bath is non-ergodic on cyclic graphs; add a "
            "field, or use run_bp / the subgraphs-world process"
        )
    return _heat_bath(d, cfg)


@dataclass
class SubgraphState:
    """Edge subset U plus the per-vertex parity of its degrees, kept in sync."""

    member: list  # bool per edge
    odd: list     # 0/1 per vertex

    @classmethod
    def empty(cls, graph) -> "SubgraphState":
        return cls([False] * graph.num_edges, [0] * graph.num_vertices)

    def toggle(self, e: int, tail: int, head: int) -> None:
        self.member[e] = not self.member[e]
        self.odd[tail] ^= 1
        self.odd[head] ^= 1

    def recompute_odd(self, graph) -> list:
        odd = [0] * graph.num_vertices
        for e, (t, h) in enumerate(graph.edges):
            if self.member[e]:
                odd[t] ^= 1
                odd[h] ^= 1
        return odd

    def bitmask(self) -> int:
        mask = 0
        for e, inside in enumerate(self.member):
            if inside:
                mask |= 1 << e
        return mask


def subgraph_weight(state: SubgraphState, tanh_j, tanh_h) -> float:
    """w(U) = prod_{e in U} tanh(bJ_e) * prod_{v odd in U} tanh(bH_v)."""
    w = 1.0
    for e, inside in enumerate(state.member):
        if inside:
            w *= tanh_j[e]
    for v, parity in enumerate(state.odd):
        if parity:
            w *= tanh_h[v]
    return w


def _swp_parameters(p: PrimalNFG):
    if p.alphabet.q != 2:
        raise SamplerError("the subgraphs-world process is a binary-model sampler")
    bj = np.log(p.edge_tables[:, 0].real) if p.graph.num_edges else np.zeros(0)
    bh = np.log(p.vertex_tables[:, 0].real)
    # builder tables are [e^b, e^-b]; verify and recover b
    if p.graph.num_edges and np.abs(p.edge_tables[:, 1].real - np.exp(-bj)).max() > 1e-9:
        raise SamplerError("edge tables are not of the [e^bJ, e^-bJ] binary form")
    if np.abs(p.vertex_tables[:, 1].real - np.exp(-bh)).max() > 1e-9:
        raise SamplerError("vertex tables are not of the [e^bH, e^-bH] binary form")
    if p.graph.num_edges and bj.min() <= 0:
        raise SamplerError("subgraphs-world sampling needs all couplings > 0")
    if bh.min() <= 0:
        raise SamplerError("subgraphs-world sampling needs all fields > 0")
    return np.tanh(bj).tolist(), np.tanh(bh).tolist()


def _toggle_ratio(state: SubgraphState, e: int, t: int, h: int, tanh_j, tanh_h) -> float:
    """Metropolis ratio w(U xor {e}) / w(U) of toggling edge e = (t, h)."""
    ratio = tanh_j[e] if not state.member[e] else 1.0 / tanh_j[e]
    ratio *= 1.0 / tanh_h[t] if state.odd[t] else tanh_h[t]
    ratio *= 1.0 / tanh_h[h] if state.odd[h] else tanh_h[h]
    return ratio


def swp(p: PrimalNFG, cfg: SamplerConfig, audit_every: int | None = None) -> SampleEstimates:
    """Subgraphs-world process: Metropolis single-edge toggles over U, stationary
    on w(U) = prod_{e in U} tanh(bJ_e) * prod_{v in odd(U)} tanh(bH_v).

    That law is exactly the dual PMF of a ferromagnetic binary model in a
    positive field, so the estimates it returns are dual-domain marginals:
    pi~_d,e(1) is the frequency of e in U and pi~_d,v(1) the frequency of v
    having odd degree in U.  audit_every cross-checks the incremental parity
    bookkeeping against a recomputation every so many proposals.
    """
    tanh_j, tanh_h = _swp_parameters(p)
    g = p.graph
    rng = np.random.default_rng(cfg.seed)
    state = SubgraphState.empty(g)
    edges = list(g.edges)
    edge_counts = np.zeros(g.num_edges, dtype=np.int64)
    vertex_counts = np.zeros(g.num_vertices, dtype=np.int64)
    burn = cfg.resolved_burn_in(g.num_edges)
    total_sweeps = burn + cfg.samples * cfg.thinning
    retained = 0
    proposals = 0
    for sweep in range(total_sweeps):
        for e in _site_order(g.num_edges, cfg.sweep, rng):
            t, h = edges[e]
            ratio = _toggle_ratio(state, e, t, h, tanh_j, tanh_h)
            if ratio >= 1.0 or rng.random() < ratio:
                state.toggle(e, t, h)
            proposals += 1
            if audit_every and proposals % audit_every == 0:
                if state.odd != state.recompute_odd(g):
                    raise AssertionError("parity bookkeeping diverged from recomputation")
        if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
            retained += 1
            for e in range(g.num_edges):
                if state.member[e]:
                    edge_counts[e] += 1
            for v in range(g.num_vertices):
                if state.odd[v]:
                    vertex_counts[v] += 1
    in_freq = edge_counts / retained
    odd_freq = vertex_counts / retained
    return SampleEstimates(
        np.stack([1.0 - in_freq, in_freq], axis=1),
        np.stack([1.0 - odd_freq, odd_freq], axis=1),
        DUAL,
    )


def swp_state_histogram(p: PrimalNFG, steps: int, seed: int) -> np.ndarray:
    """Per-proposal occupancy counts over all 2^|E| subgraph states.

    The recorded chain includes every step after a 10*|E|-sweep burn-in;
    intended for detailed-balance checks on very small graphs.
    """
    g = p.graph
    if g.num_edges > 20:
        raise SamplerError("state histogram is exponential in |E|; keep |E| <= 20")
    tanh_j, tanh_h = _swp_parameters(p)
    rng = np.random.default_rng(seed)
    state = SubgraphState.empty(g)
    edges = list(g.edges)
    counts = np.zeros(2 ** g.num_edges, dtype=np.int64)
    burn_proposals = 10 * g.num_edges * g.num_edges
    for step in range(burn_proposals + steps):
        e = step % g.num_edges
        t, h = edges[e]
        ratio = _toggle_ratio(state, e, t, h, tanh_j, tanh_h)
        if ratio >= 1.0 or rng.random() < ratio:
            state.toggle(e, t, h)
        if step >= burn_proposals:
            counts[state.bitmask()] += 1
    return counts


def swp_state_weights(p: PrimalNFG) -> np.ndarray:
    """Exact stationary weights w(U) over all 2^|E| states, for small graphs."""
    g = p.graph
    if g.num_edges > 20:
        raise SamplerError("state weights are exponential in |E|; keep |E| <= 20")
    tanh_j, tanh_h = _swp_parameters(p)
    out = np.zeros(2 ** g.num_edges)
    for mask in range(2 ** g.num_edges):
        state = SubgraphState.empty(g)
        for e, (t, h) in enumerate(g.edges):
            if mask & (1 << e):
                state.toggle(e, t, h)
        out[mask] = subgraph_weight(state, tanh_j, tanh_h)
    return out


@dataclass
class PrimalEstimates:
    """Dual-domain estimates pushed through the local maps, edge by edge.

    vertex_values is None when the vertex map is singular (zero-field models).
    """

    edge_values: np.ndarray
    vertex_values: np.ndarray | None
    dual_estimates: SampleEstimates
    converged: bool | None = None  # set by the bp_dual method

    def edge(self, e: int) -> MarginalVector:
        return MarginalVector(self.edge_values[e], ("edge", e), PRIMAL)

    def vertex(self, v: int) -> MarginalVector:
        if self.vertex_values is None:
            raise SingularMapError("vertex map was singular for this model")
        return MarginalVector(self.vertex_values[v], ("vertex", v), PRIMAL)


def estimate_primal_via_dual(
    p: PrimalNFG,
    method: str,
    cfg: SamplerConfig | None = None,
    bp_config: BpConfig | None = None,
) -> PrimalEstimates:
    """Estimate in the dual domain, then transform every location at once.

    method: "swp" (ferromagnetic binary, positive field), "gibbs_dual"
    (nonnegative dual), or "bp_dual" (any signs).  Edge estimates are always
    mapped; vertex estimates are mapped when every phi~ table is nonsingular
    and reported as None otherwise.
    """
    d = dualize(p)
    converged = None
    if method == "swp":
        if cfg is None:
            raise ValueError("swp needs a SamplerConfig")
        dual_est = swp(p, cfg)
    elif method == "gibbs_dual":
        if cfg is None:
            raise ValueError("gibbs_dual needs a SamplerConfig")
        dual_est = gibbs_dual(d, cfg)
    elif method == "bp_dual":
        res = run_bp(d, bp_config or BpConfig())
        dual_est = SampleEstimates(res.edge_values, res.vertex_values, DUAL)
        converged = res.converged
    else:
        raise ValueError(f"unknown method {method!r}")

    edge_values = _map_rows(dual_est.edge_values, d.edge_tables, p.edge_tables, "dual edge")
    try:
        vertex_values = _map_rows(
            dual_est.vertex_values, d.vertex_tables, p.vertex_tables, "dual vertex"
        )
    except SingularMapError:
        vertex_values = None
    return PrimalEstimates(edge_values, vertex_values, dual_est, converged)
