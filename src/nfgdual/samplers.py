"""MCMC marginal estimators: heat-bath Gibbs in both domains and the
subgraphs-world process for ferromagnetic binary models in a positive field.

All chains are driven by numpy's PCG64 generator (stable across versions, so
seeded estimates can serve as golden fixtures) and use a systematic sweep by
default: sites are updated in ascending index order, one full pass per sweep.
`samples` counts retained sweeps; the default burn-in is ten times the number
of variables in the sampled domain.  Both Gibbs samplers run one heat bath on
the factor view of their domain, and draw a sweep's uniforms at once, after
its site order: one `rng.random(n)` gives the same PCG64 stream as n scalar
draws.  A site update looks its conditional up by the variable's neighbour
key (the table offsets of its factors, kept up to date as neighbours move);
each key's cumulative weights are computed once, with the float operations
of a product loop, and a draw bisects them.  The subgraphs-world process
reads its Metropolis ratio from a per-edge table of eight entries, keeps U
and its parities in integer lists, and under a systematic sweep draws its
uniforms in blocks.  These change no seeded output: every chain returns
the same frequencies, bit for bit, as a loop that recomputes each
conditional and ratio and draws one uniform at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, cycle, islice, product

import numpy as np

from .bp import BpConfig, run_bp
from .graphs import betti
from .mapping import _map_rows
from .nfg import (
    DUAL, PRIMAL, DualNFG, Marginals, PrimalNFG, SingularMapError, _factor_view, dualize,
    is_nonnegative,
)


_BLOCK = 64  # retained configurations counted per numpy call


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


def _require_pmf_tables(tables: np.ndarray, what: str) -> None:
    if tables.size and np.abs(tables.imag).max() > 1e-12:
        raise SamplerError(f"{what} must be real for sampling")
    if tables.size and tables.real.min() < -1e-12:  # same tolerance as is_nonnegative
        raise SamplerError(f"{what} must be nonnegative for sampling")


def _site_order(n: int, sweep: str, rng) -> list:
    if sweep == "systematic":
        return list(range(n))
    return rng.integers(0, n, size=n).tolist()


def _conditional(tables, digits, q: int, kind: str, site: int) -> tuple:
    """(total, cumulative weights below the last weighted value) of one
    variable's heat-bath conditional, given its factors' doubled tables t2
    and their digits b.

    bisect_right(cumulative, u * total) is then the first value whose running
    sum exceeds u * total, or the last weighted value when u * total reaches
    past its predecessors (also when rounding puts u * total at the total).
    """
    weights = []
    for a in range(q):
        w = 1.0
        for t2, b in zip(tables, digits):
            w *= t2[b + a]
        weights.append(w)
    total = sum(weights)
    if total <= 0.0:
        raise SamplerError(
            f"every state of {kind} {site} has zero weight given its neighbors "
            "(a hard constraint the current configuration violates)"
        )
    cumulative, acc = [], 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    return total, cumulative[:max(a for a, w in enumerate(weights) if w > 0.0)]


def _heat_bath(model, cfg: SamplerConfig) -> Marginals:
    """Single-variable heat bath on the factor view of either domain.

    Variable i's conditional weight of value a is the product, over the
    factors f whose scope holds i, of table_f at s a + r_f, where s is i's
    sign in f and r_f the signed sum of f's other variables.  Each variable lists its
    factors unary first, with the table reindexed by s and stored twice over
    (t2[c] = table_f[s c mod q] for c < 2q), so that with the digit
    b = s r_f mod q the weight of a is t2[b + a].  The digits of a variable,
    read in base q, are its neighbour key; when variable j moves by d, the
    digit of every other variable i in a factor it shares with j moves by
    s_i s_j d mod q.  Each variable memoizes its conditional per key, so an
    update is one dict lookup and one bisection of the cumulative weights.
    Retained configurations are kept and, a block at a time, every factor is
    counted at its argument in each: these are the edge and vertex
    frequencies.
    """
    scopes, num_vars, tables = _factor_view(model)
    q = model.alphabet.q
    kind = "vertex" if model.domain == PRIMAL else "edge"
    real = tables.real.clip(min=0.0)
    factors_of = [[] for _ in range(num_vars)]
    t2s = [[] for _ in range(num_vars)]
    for f in sorted(range(len(scopes)), key=lambda f: len(scopes[f][0]) > 1):
        for var, sign in zip(*scopes[f]):
            factors_of[var].append(f)
            t2s[var].append(real[f][(sign * np.arange(2 * q)) % q].tolist())
    # digit slot of variable i's p-th factor: start[i] + p, worth q**p in i's key
    start = [0, *accumulate(len(fs) for fs in factors_of)]
    slot = {(f, i): (start[i] + p, q ** p) for i, fs in enumerate(factors_of)
            for p, f in enumerate(fs)}
    moves = [[] for _ in range(num_vars)]
    for f, (variables, signs) in enumerate(scopes):
        for j, sj in zip(variables, signs):
            moves[j] += [(*slot[f, i], i, si * sj) for i, si in zip(variables, signs) if i != j]
    digit = [0] * start[-1]
    key = [0] * num_vars
    memo = [{} for _ in range(num_vars)]
    scope_vars = np.zeros((len(scopes), max(len(v) for v, _ in scopes)), dtype=np.int64)
    scope_signs = np.zeros_like(scope_vars)  # padding reads variable 0 with sign 0
    for f, (variables, signs) in enumerate(scopes):
        scope_vars[f, :len(variables)] = variables
        scope_signs[f, :len(signs)] = signs
    offsets = q * np.arange(len(scopes))

    def tally(configs: list) -> np.ndarray:
        """Counts of every factor at its argument, over the given configurations."""
        z_rows = np.array(configs, dtype=np.int64).reshape(len(configs), num_vars)
        args = (z_rows[:, scope_vars] * scope_signs).sum(axis=2) % q
        return np.bincount((args + offsets).ravel(), minlength=len(scopes) * q)

    rng = np.random.default_rng(cfg.seed)
    z = [0] * num_vars
    counts = np.zeros(len(scopes) * q, dtype=np.int64)
    kept = []
    burn = cfg.resolved_burn_in(num_vars)
    retained = 0
    for sweep in range(burn + cfg.samples * cfg.thinning):
        order = _site_order(num_vars, cfg.sweep, rng)
        for i, u in zip(order, rng.random(num_vars).tolist()):
            entry = memo[i].get(key[i])
            if entry is None:
                entry = memo[i][key[i]] = _conditional(
                    t2s[i], digit[start[i]:start[i + 1]], q, kind, i)
            total, cumulative = entry
            new = bisect_right(cumulative, u * total)
            d = new - z[i]
            if d:
                z[i] = new
                for k, weight, other, mult in moves[i]:
                    old = digit[k]
                    digit[k] = b = (old + mult * d) % q
                    key[other] += (b - old) * weight
        if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
            retained += 1
            kept.append(z[:])
            if len(kept) == _BLOCK:
                counts += tally(kept)
                kept.clear()
    counts = (counts + tally(kept)).reshape(len(scopes), q)
    e = model.graph.num_edges
    return Marginals(counts[:e] / retained, counts[e:] / retained, model.domain)


def gibbs_primal(p: PrimalNFG, cfg: SamplerConfig) -> Marginals:
    """Single-site heat bath over vertex configurations.

    Each update resamples x_v from its exact conditional given the neighbors:
    weight(a) = phi_v(a) * prod over incident edges of psi_e at the implied
    edge value.  Estimates are empirical frequencies of x_v and y_e(x) over
    retained sweeps.
    """
    _require_pmf_tables(p.edge_tables, "primal edge tables")
    _require_pmf_tables(p.vertex_tables, "primal vertex tables")
    return _heat_bath(p, cfg)


def gibbs_dual(d: DualNFG, cfg: SamplerConfig) -> Marginals:
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

    member: list  # 0/1 per edge
    odd: list     # 0/1 per vertex

    @classmethod
    def empty(cls, graph) -> "SubgraphState":
        return cls([0] * graph.num_edges, [0] * graph.num_vertices)

    def toggle(self, e: int, tail: int, head: int) -> None:
        self.member[e] ^= 1
        self.odd[tail] ^= 1
        self.odd[head] ^= 1

    def recompute_odd(self, graph) -> list:
        odd = [0] * graph.num_vertices
        for e, (t, h) in enumerate(graph.edges):
            if self.member[e]:
                odd[t] ^= 1
                odd[h] ^= 1
        return odd


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


def _toggle_ratios(p: PrimalNFG) -> list:
    """Metropolis ratios w(U xor {e}) / w(U) of toggling each edge e = (t, h).

    The ratio of edge e sits at 8 e + 4 member[e] + 2 odd[t] + odd[h].
    """
    tanh_j, tanh_h = _swp_parameters(p)
    ratios = []
    for e, (t, h) in enumerate(p.graph.edges):
        for inside, odd_t, odd_h in product((0, 1), repeat=3):
            ratio = tanh_j[e] if not inside else 1.0 / tanh_j[e]
            ratio *= 1.0 / tanh_h[t] if odd_t else tanh_h[t]
            ratio *= 1.0 / tanh_h[h] if odd_h else tanh_h[h]
            ratios.append(ratio)
    return ratios


def _block_uniforms(rng, size: int = 1024):
    """A callable returning the values of successive rng.random() calls,
    drawn size at a time."""
    return chain.from_iterable(iter(lambda: rng.random(size).tolist(), None)).__next__


def _propose(sites, ratios, member, odd, uniform) -> None:
    """One Metropolis toggle proposal per site (e, tail, head, 8 e), in order."""
    for e, t, h, row in sites:
        ratio = ratios[row + 4 * member[e] + 2 * odd[t] + odd[h]]
        if ratio >= 1.0 or uniform() < ratio:
            member[e] ^= 1
            odd[t] ^= 1
            odd[h] ^= 1


def swp(p: PrimalNFG, cfg: SamplerConfig, audit_every: int | None = None) -> Marginals:
    """Subgraphs-world process: Metropolis single-edge toggles over U, stationary
    on w(U) = prod_{e in U} tanh(bJ_e) * prod_{v in odd(U)} tanh(bH_v).

    That law is exactly the dual PMF of a ferromagnetic binary model in a
    positive field, so the estimates it returns are dual-domain marginals:
    pi~_d,e(1) is the frequency of e in U and pi~_d,v(1) the frequency of v
    having odd degree in U.  Only a proposal with ratio < 1 draws a uniform;
    a systematic sweep draws them in blocks (random sweeps interleave them
    with their site draws).  audit_every cross-checks the incremental parity
    bookkeeping against a recomputation every so many proposals.
    """
    ratios = _toggle_ratios(p)
    g = p.graph
    rng = np.random.default_rng(cfg.seed)
    uniform = rng.random if cfg.sweep == "random" else _block_uniforms(rng)
    state = SubgraphState.empty(g)
    member, odd = state.member, state.odd
    sites = [(e, t, h, 8 * e) for e, (t, h) in enumerate(g.edges)]
    counts = np.zeros(g.num_edges + g.num_vertices, dtype=np.int64)
    kept = []

    def tally(configs: list) -> np.ndarray:
        """Edge memberships and vertex parities summed over the given states."""
        return np.array(configs, dtype=np.int64).reshape(len(configs), len(counts)).sum(axis=0)

    burn = cfg.resolved_burn_in(g.num_edges)
    total_sweeps = burn + cfg.samples * cfg.thinning
    retained = 0
    for sweep in range(total_sweeps):
        order = [sites[e] for e in _site_order(g.num_edges, cfg.sweep, rng)]
        done = 0
        if audit_every:  # after every proposal whose running count divides by audit_every
            for stop in range(audit_every - sweep * g.num_edges % audit_every,
                              g.num_edges + 1, audit_every):
                _propose(order[done:stop], ratios, member, odd, uniform)
                done = stop
                if odd != state.recompute_odd(g):
                    raise AssertionError("parity bookkeeping diverged from recomputation")
        _propose(order[done:], ratios, member, odd, uniform)
        if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
            retained += 1
            kept.append(member + odd)
            if len(kept) == _BLOCK:
                counts += tally(kept)
                kept.clear()
    counts += tally(kept)
    in_freq = counts[:g.num_edges] / retained
    odd_freq = counts[g.num_edges:] / retained
    return Marginals(
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
    ratios = _toggle_ratios(p)
    uniform = _block_uniforms(np.random.default_rng(seed))
    member, odd = [0] * g.num_edges, [0] * g.num_vertices
    sites = [(e, t, h, 8 * e) for e, (t, h) in enumerate(g.edges)]
    for _ in range(10 * g.num_edges):
        _propose(sites, ratios, member, odd, uniform)
    counts = [0] * 2 ** g.num_edges
    mask = sum(1 << e for e, inside in enumerate(member) if inside)
    for e, t, h, row in islice(cycle(sites), steps):
        ratio = ratios[row + 4 * member[e] + 2 * odd[t] + odd[h]]
        if ratio >= 1.0 or uniform() < ratio:
            member[e] ^= 1
            odd[t] ^= 1
            odd[h] ^= 1
            mask ^= 1 << e
        counts[mask] += 1
    return np.array(counts, dtype=np.int64)


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


def estimate_primal_via_dual(
    p: PrimalNFG,
    method: str,
    cfg: SamplerConfig | None = None,
    bp_config: BpConfig | None = None,
) -> Marginals:
    """Estimate in the dual domain, then transform every location at once.

    method: "swp" (ferromagnetic binary, positive field), "gibbs_dual"
    (nonnegative dual), or "bp_dual" (any signs).  Edge estimates are always
    mapped; vertex estimates are mapped when every phi~ table is nonsingular
    and reported as None otherwise.  The primal record keeps the dual one as
    dual_estimates and its converged flag (None for the samplers).
    """
    d = dualize(p)
    if method == "swp":
        if cfg is None:
            raise ValueError("swp needs a SamplerConfig")
        dual_est = swp(p, cfg)
    elif method == "gibbs_dual":
        if cfg is None:
            raise ValueError("gibbs_dual needs a SamplerConfig")
        dual_est = gibbs_dual(d, cfg)
    elif method == "bp_dual":
        dual_est = run_bp(d, bp_config or BpConfig())
    else:
        raise ValueError(f"unknown method {method!r}")

    edge_values = _map_rows(dual_est.edge_values, d.edge_tables, p.edge_tables, "dual edge")
    try:
        vertex_values = _map_rows(
            dual_est.vertex_values, d.vertex_tables, p.vertex_tables, "dual vertex"
        )
    except SingularMapError:
        vertex_values = None
    return Marginals(edge_values, vertex_values, PRIMAL, converged=dual_est.converged,
                     dual_estimates=dual_est)
