"""MCMC marginal estimators: heat-bath Gibbs in both domains and the
subgraphs-world process for binary models whose dual is a positive PMF.

All chains are driven by numpy's PCG64 generator (stable across versions, so
seeded estimates can serve as golden fixtures) and sweep systematically: sites
are updated in ascending index order, one full pass per sweep.
`samples` counts retained sweeps; the default burn-in is ten times the number
of variables in the sampled domain.  `_run_chain` runs the burn-in, thinning
and retention of every chain, these and `gaussian.gibbs_gaussian`; a kernel
supplies its sweep and tallies a block of retained states.  A sweep returns a
snapshot that the chain will not mutate (here `bytes` of the configuration,
two or more bytes a value when q > 256), so `_run_chain` keeps it uncopied
and a tally reads a block of them with one `np.frombuffer`.  Both kernels here
read a model's factor view (its `scopes`, `tables` and `argument_map()`, and
`record` for the result).  The Gibbs samplers run one heat bath on the model
of their domain, and draw a sweep's uniforms at once: one `rng.random(n)`
gives the same PCG64 stream as n scalar draws.  A site update looks its
conditional up by the variable's neighbour key (the table offsets of its
factors, kept up to date as neighbours move; for q = 2, one key bit per
factor, toggled when a neighbour in that factor flips); each key's
conditional is computed once while a bounded memo has room, with the float
operations of a product loop, and a draw bisects its cumulative weights, or
for q = 2 is one comparison.  The subgraphs-world process is a Metropolis
kernel on the checked positive dual: its state lists every dual factor's
argument, a toggle's ratio is read from a per-edge table of eight entries,
and uniforms are drawn in blocks.
These change no seeded output: every chain returns the same frequencies, bit
for bit, as a loop that recomputes each conditional and ratio and draws one
uniform at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, cycle, islice, product

import numpy as np

from .bp import BpConfig, run_bp
from .graphs import _check_count, betti
from .mapping import map_marginals
from .nfg import (
    DUAL, PRIMAL, DualNFG, Marginals, PrimalNFG, _rounding, dualize, is_nonnegative,
)


_BLOCK = 64  # retained states tallied per numpy call (and Gaussian sweeps per draw)
_MEMO_ENTRIES = 1 << 12  # most table entries (q a key) that one variable's memo holds
_UNIFORMS = 1024  # uniforms that SWP draws per numpy call
_STATES = 1 << 12  # states whose weights swp_state_weights fills per numpy call


class SamplerError(ValueError):
    """Model violates a sampler's precondition."""


@dataclass(frozen=True)
class SamplerConfig:
    """seed/burn-in/samples/thinning; deterministic given seed.

    Each is an integer, not a bool, refused by name below 0, 0, 1 and 1;
    burn_in=None means 10x the number of variables in the sampled domain.
    """

    seed: int
    samples: int = 10_000
    burn_in: int | None = None
    thinning: int = 1

    def __post_init__(self):
        for name, least in (("seed", 0), ("samples", 1), ("thinning", 1)):
            _check_count(name, getattr(self, name), least)
        if self.burn_in is not None:
            _check_count("burn_in", self.burn_in, 0)

    def resolved_burn_in(self, num_variables: int) -> int:
        return 10 * num_variables if self.burn_in is None else self.burn_in


def _run_chain(cfg: SamplerConfig, num_vars: int, sweep, tally) -> np.ndarray:
    """Mean tallies over the retained states of a chain of cfg's length.

    The one burn-in, thinning and retention loop, shared by the heat bath,
    SWP and the Gaussian chains.  sweep(s) runs sweep s and returns the
    state as a snapshot that the chain will not mutate later (the discrete
    chains return bytes, the Gaussian chain a fresh array), so a retained
    state is kept as it is given; tally(states) sums a list of states into
    an array, and is called once per _BLOCK retained states and once for the
    rest, which may be none.
    """
    burn = cfg.resolved_burn_in(num_vars)
    counts, kept = 0, []
    for s in range(burn + cfg.samples * cfg.thinning):
        state = sweep(s)
        if s >= burn and (s - burn) % cfg.thinning == 0:
            kept.append(state)
            if len(kept) == _BLOCK:
                counts = counts + tally(kept)
                kept.clear()
    return (counts + tally(kept)) / cfg.samples


def _rows(states: list, dtype, width: int) -> np.ndarray:
    """The byte snapshots of a list of states as the rows of one array."""
    return np.frombuffer(b"".join(states), dtype).reshape(len(states), width)


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
    if not math.isfinite(total):
        raise SamplerError(f"the conditional of {kind} {site} overflows given its neighbors: "
                           "its weights have no finite sum")
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
    s_i s_j d mod q.  Each variable memoizes its conditional per key visited,
    so an update is one dict lookup and a draw; once a variable's memo holds
    _MEMO_ENTRIES entries (q a key), a new key's conditional is not kept.
    For q > 2 the draw bisects the cumulative weights and the move reads
    each neighbour's digit back from its key and rewrites it there.  For q = 2
    every move is d = 1, which toggles bit p of each neighbour's key (its p-th
    factor's digit), and a draw is one comparison u * total >= threshold,
    where the memoized threshold is the first cumulative weight (inf when
    value 1 has zero weight): what the bisection of that list returns.
    A sweep returns an immutable snapshot of the configuration; of the
    retained ones, a block at a time, every factor is counted at its argument
    in each: these are the edge and vertex frequencies.
    """
    scopes, num_vars, tables = model.scopes, model.num_vars, model.tables
    q = model.alphabet.q
    kind = "vertex" if model.domain == PRIMAL else "edge"
    real = tables.real.clip(min=0.0)
    factors_of = [[] for _ in range(num_vars)]
    t2s = [[] for _ in range(num_vars)]
    for f in sorted(range(len(scopes)), key=lambda f: len(scopes[f][0]) > 1):
        for var, sign in zip(*scopes[f]):
            factors_of[var].append(f)
            t2s[var].append(real[f][(sign * np.arange(2 * q)) % q].tolist())
    # the digit of variable i's p-th factor has place value q**p in i's key
    place = {(f, i): q ** p for i, fs in enumerate(factors_of) for p, f in enumerate(fs)}
    moves = [[] for _ in range(num_vars)]
    for f, (variables, signs) in enumerate(scopes):
        for j, sj in zip(variables, signs):
            moves[j] += [(place[f, i], i, si * sj) for i, si in zip(variables, signs) if i != j]
    key = [0] * num_vars
    memo = [{} for _ in range(num_vars)]
    arguments = model.argument_map()
    offsets = q * np.arange(len(scopes))
    dtype = np.min_scalar_type(q - 1)
    snapshot = bytes if dtype.itemsize == 1 else lambda z: np.array(z, dtype).tobytes()

    def tally(configs: list) -> np.ndarray:
        """Counts of every factor at its argument, over the given configurations."""
        args = arguments(_rows(configs, dtype, num_vars))
        return np.bincount((args + offsets).ravel(), minlength=len(scopes) * q)

    def conditional(i: int) -> tuple:
        """Variable i's (total, cumulative or threshold) at its key, kept while its memo has room."""
        k = key[i]
        total, cumulative = _conditional(
            t2s[i], [k // q ** p % q for p in range(len(t2s[i]))], q, kind, i)
        if q == 2:
            cumulative = cumulative[0] if cumulative else math.inf
        if len(memo[i]) * q < _MEMO_ENTRIES:
            memo[i][k] = total, cumulative
        return total, cumulative

    rng = np.random.default_rng(cfg.seed)
    z = [0] * num_vars

    if q == 2:
        flips = [[(other, bit) for bit, other, _ in m] for m in moves]

        def sweep(_) -> bytes:
            for i, u in enumerate(rng.random(num_vars).tolist()):
                total, threshold = memo[i].get(key[i]) or conditional(i)
                if (u * total >= threshold) != z[i]:
                    z[i] ^= 1
                    for other, bit in flips[i]:
                        key[other] ^= bit
            return bytes(z)
    else:
        def sweep(_) -> bytes:
            for i, u in enumerate(rng.random(num_vars).tolist()):
                total, cumulative = memo[i].get(key[i]) or conditional(i)
                new = bisect_right(cumulative, u * total)
                d = new - z[i]
                if d:
                    z[i] = new
                    for weight, other, mult in moves[i]:
                        old = key[other] // weight % q
                        key[other] += ((old + mult * d) % q - old) * weight
            return snapshot(z)

    return model.record(_run_chain(cfg, num_vars, sweep, tally).reshape(len(scopes), q))


def _require_domain(model, domain: str) -> None:
    """Refuse a model of the other domain, which the heat bath would sample as it is."""
    if model.domain != domain:
        raise SamplerError(f"gibbs_{domain} samples a {domain} model, "
                           f"not a {model.domain} one")


def gibbs_primal(p: PrimalNFG, cfg: SamplerConfig) -> Marginals:
    """Single-site heat bath over vertex configurations.

    Each update resamples x_v from its exact conditional given the neighbors:
    weight(a) = phi_v(a) * prod over incident edges of psi_e at the implied
    edge value.  Estimates are empirical frequencies of x_v and y_e(x) over
    retained sweeps of a PrimalNFG, whose tables are nonnegative as built.
    """
    _require_domain(p, PRIMAL)
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
    _require_domain(d, DUAL)
    if (d.vertex_tables.real < _rounding(d.vertex_tables)).any() and betti(d.graph) > 0:
        raise SamplerError(
            "dual vertex table has zero entries (zero external field): the "
            "single-edge heat bath is non-ergodic on cyclic graphs; add a "
            "field, or use run_bp / the subgraphs-world process"
        )
    return _heat_bath(d, cfg)


def _positive_dual(p: PrimalNFG) -> DualNFG:
    """p's dual, the model that SWP samples and audits, refused unless q = 2 and
    every dual entry is positive beyond rounding.  The Ising [e^b, e^-b] has the
    dual [2 cosh b, 2 sinh b], so a non-positive dual edge (vertex) entry is a
    coupling (field) that is not."""
    if p.alphabet.q != 2:
        raise SamplerError("the subgraphs-world process is a binary-model sampler")
    d = dualize(p)
    for kind, what, tables in (("edge", "couplings", d.edge_tables),
                               ("vertex", "fields", d.vertex_tables)):
        tol = _rounding(tables)
        bad = np.flatnonzero(((tables.real < tol) | (np.abs(tables.imag) >= tol)).any(axis=1))
        if bad.size:
            raise SamplerError(f"subgraphs-world sampling needs all {what} > 0: "
                               f"dual {kind} table {bad[0]} has an entry that is not positive")
    return d


def _toggle_ratios(d: DualNFG) -> tuple:
    """(ratios, sites) of single toggles on the checked positive dual d, whose
    state is every dual factor's argument: y~_e at e, then x~_v at |E| + v.

    Edge variable e = (t, h) is in three scopes, which sort by (sign descending, factor)
    as e, |E| + t, |E| + h.  A toggle flips all three arguments, so its ratio is the product
    of their table ratios, at 8 e + 4 y~_e + 2 x~_t + x~_h; its site is (e, |E| + t, |E| + h, 8 e).
    """
    flip = (d.tables.real[:, ::-1] / d.tables.real).tolist()  # table_f[1 - a] / table_f[a]
    held = sorted((v, -s, f) for f, (vs, ss) in enumerate(d.scopes) for v, s in zip(vs, ss))
    ratios, sites = [], []
    for (_, _, e), (_, _, t), (_, _, h) in zip(held[0::3], held[1::3], held[2::3]):
        ratios += [flip[e][a] * flip[t][b] * flip[h][c] for a, b, c in product((0, 1), repeat=3)]
        sites.append((e, t, h, 8 * e))
    return ratios, sites


def _block_uniforms(rng):
    """A callable returning the values of successive rng.random() calls,
    drawn _UNIFORMS at a time."""
    return chain.from_iterable(iter(lambda: rng.random(_UNIFORMS).tolist(), None)).__next__


def _propose(sites, ratios, arg, uniform) -> None:
    """One Metropolis toggle proposal per site (e, |E| + t, |E| + h, 8 e), in order."""
    for e, t, h, row in sites:
        ratio = ratios[row + 4 * arg[e] + 2 * arg[t] + arg[h]]
        if ratio >= 1.0 or uniform() < ratio:
            arg[e] ^= 1
            arg[t] ^= 1
            arg[h] ^= 1


def swp(p: PrimalNFG, cfg: SamplerConfig, audit_every: int | None = None) -> Marginals:
    """Subgraphs-world process: Metropolis single-edge toggles on the factor
    view of p's dual, stationary on the dual PMF, the product of the dual
    tables w(y~) = prod_e psi~_e(y~_e) * prod_v phi~_v((M^T y~)_v) / Z_d.

    A binary y~ is an edge subset U and M^T y~ marks the vertices of odd
    degree in U; for an Ising model w(U) is proportional to
    prod_{e in U} tanh(bJ_e) * prod_{v in odd(U)} tanh(bH_v).  The estimates
    are dual marginals: pi~_d,e(1) is the frequency of e in U and pi~_d,v(1)
    that of v having odd degree.  Every dual entry must be positive (Ising:
    couplings and fields > 0), so every state has positive weight and single
    toggles are irreducible.  Only a ratio < 1 draws a uniform, and the
    uniforms are drawn in blocks.  audit_every (None or a positive integer)
    recomputes the state from y~ by the dual's argument_map() every so many proposals.
    """
    if audit_every is not None:
        _check_count("audit_every", audit_every, 1)
    d = _positive_dual(p)
    ratios, sites = _toggle_ratios(d)
    num_edges, arg = d.num_vars, [0] * len(d.tables)
    uniform = _block_uniforms(np.random.default_rng(cfg.seed))
    recompute = d.argument_map() if audit_every else None

    def sweep(s: int) -> bytes:
        rest = sites
        if audit_every:  # after every proposal whose running count divides by audit_every
            done = 0
            for stop in range(audit_every - s * num_edges % audit_every,
                              num_edges + 1, audit_every):
                _propose(sites[done:stop], ratios, arg, uniform)
                done = stop
                if arg != recompute(np.array([arg[:num_edges]]))[0].tolist():
                    raise AssertionError("parity bookkeeping diverged from recomputation")
            rest = sites[done:]
        _propose(rest, ratios, arg, uniform)
        return bytes(arg)

    def tally(states: list) -> np.ndarray:
        """Edge memberships and vertex parities summed over the given states."""
        return _rows(states, np.uint8, len(arg)).sum(axis=0)

    freq = _run_chain(cfg, num_edges, sweep, tally)
    return d.record(np.stack([1.0 - freq, freq], axis=1))


def _enumerable(p: PrimalNFG, what: str):
    """p's graph, refused above 20 edges: `what` (a plural) lists all 2^|E| states."""
    if p.graph.num_edges > 20:
        raise SamplerError(f"{what} over all 2^|E| states are exponential in |E|; keep |E| <= 20")
    return p.graph


def swp_state_histogram(p: PrimalNFG, steps: int, seed: int) -> np.ndarray:
    """Per-proposal occupancy counts over all 2^|E| subgraph states.

    The recorded chain includes every step after SamplerConfig's default burn-in,
    10 sweeps per edge; intended for detailed-balance checks on very small graphs.
    """
    _check_count("steps", steps, 1)
    burn_in = SamplerConfig(seed).resolved_burn_in(_enumerable(p, "occupancy counts").num_edges)
    d = _positive_dual(p)
    ratios, sites = _toggle_ratios(d)
    uniform = _block_uniforms(np.random.default_rng(seed))
    n, arg = d.num_vars, [0] * len(d.tables)
    for _ in range(burn_in):
        _propose(sites, ratios, arg, uniform)
    counts = [0] * 2 ** n
    mask = sum(1 << e for e in range(n) if arg[e])
    for site in islice(cycle(sites), steps):
        e, before = site[0], arg[site[0]]
        _propose((site,), ratios, arg, uniform)
        mask ^= (arg[e] ^ before) << e
        counts[mask] += 1
    return np.array(counts, dtype=np.int64)


def swp_state_weights(p: PrimalNFG) -> np.ndarray:
    """Unnormalized stationary weights over all 2^|E| states, for small graphs:
    the product of the dual tables at each (bit e of a state's index is y~_e),
    filled _STATES states at a time."""
    _enumerable(p, "stationary weights")
    d = _positive_dual(p)
    arguments, tables, n = d.argument_map(), d.tables.real, d.num_vars
    factors = np.arange(len(tables))
    weights = np.empty(2 ** n)
    for lo in range(0, 2 ** n, _STATES):
        y = (np.arange(lo, min(lo + _STATES, 2 ** n))[:, None] >> np.arange(n)) & 1
        weights[lo:lo + len(y)] = tables[factors, arguments(y)].prod(axis=1)
    return weights


def estimate_primal_via_dual(
    p: PrimalNFG,
    method: str,
    cfg: SamplerConfig | None = None,
    bp_config: BpConfig | None = None,
) -> Marginals:
    """Estimate in the dual domain with method "swp" (binary, every dual entry
    positive), "gibbs_dual" (nonnegative dual) or "bp_dual" (any signs), then
    map the record to the primal with map_marginals."""
    if method in ("swp", "gibbs_dual") and cfg is None:
        raise ValueError(f"{method} needs a SamplerConfig")
    if method == "swp":
        dual_est = swp(p, cfg)
    elif method == "gibbs_dual":
        dual_est = gibbs_dual(dualize(p), cfg)
    elif method == "bp_dual":
        dual_est = run_bp(dualize(p), bp_config or BpConfig())
    else:
        raise ValueError(f"unknown method {method!r}")
    return map_marginals(dual_est, p)
