"""The benchmark's four workloads: inputs, one operation ("estimate"), and output checks.

Every workload draws operation i's inputs from numpy's PCG64 seeded with
(workload seed, 1, i), and the untimed warm-up operation's inputs from
(workload seed, 0), so no two operations share a model and the same seed
gives the same inputs. Graphs and the first `PREBUILT` models are built
during set-up; a run that gets further builds the next model between timed
operations. Everything from `dualize` onward is inside the operation. The
checks compare outputs with the references of `reference.py` or with
properties the method must have, and run outside the timed region.

Library calls go through the module attributes (`bp.run_bp`, not a name
imported here), so the timing wrappers of `tracing.py` see them.
"""

from __future__ import annotations

import math

import numpy as np

from nfgdual import bp, gaussian, graphs, mapping, nfg, oracle, samplers

import reference

PREBUILT = 16

# mcmc_torus: one sweep budget for all three chains
MCMC_BURN_IN = 100
MCMC_SAMPLES = 1000
# Bound on the integrated autocorrelation time of a site indicator, in sweeps,
# and the number of standard errors a site may stray (README, "Tolerances").
MCMC_TAU = 8.0
MCMC_Z = 5.0

# gmrf_chains: one burn-in and sweep count for both chains
GMRF_SIZE = 15
GMRF_SIGMA = 5.0
GMRF_S = (1.0, 20.0, 40.0)
GMRF_BURN_IN = 100
GMRF_SAMPLES = 200
# Standard errors a site-averaged variance may stray, and the fewest effective
# samples for which that bound is trusted (README, "Tolerances").
GMRF_Z = 6.0
GMRF_MIN_SAMPLES = 1000

# bp_torus: bound on the loopy-BP error, 4 tanh(0.3)^4 (README, "Tolerances")
BP_COUPLING = (0.2, 0.3)
BP_FIELD = (0.1, 0.2)
BP_ERROR_BOUND = 4 * math.tanh(BP_COUPLING[1]) ** 4

EXACT_TOL = 1e-12
GMRF_EXACT_TOL = 1e-10


def _rng(seed: int, index: int | None) -> np.random.Generator:
    seed %= 2 ** 64  # SeedSequence takes no negative entries
    return np.random.default_rng([seed, 0] if index is None else [seed, 1, index])


def _chain_seed(rng) -> int:
    return int(rng.integers(2 ** 63))


def _signed(rng, n, low, high) -> np.ndarray:
    """n values of random sign with magnitude uniform in [low, high]."""
    return rng.choice([-1.0, 1.0], size=n) * rng.uniform(low, high, size=n)


def _check_pmf(name, values, failures, tol=1e-9) -> None:
    """Real, nonnegative rows that sum to one."""
    values = np.asarray(values)
    if np.abs(values.imag).max() > 1e-12:
        failures.append(f"{name}: complex entries")
    if values.real.min() < -1e-12:
        failures.append(f"{name}: negative entry {values.real.min():.3e}")
    if np.abs(values.real.sum(axis=1) - 1.0).max() > tol:
        failures.append(f"{name}: rows do not sum to one")


def _check_close(name, got, want, tol, failures) -> None:
    err = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    if not err <= tol:
        failures.append(f"{name}: error {err:.3e} over {tol:.1e}")


class Workload:
    """Inputs are built by `prepare(i)`; `run` is the timed operation; `check`
    returns a list of failure messages (empty when the outputs are right)."""

    name = ""
    round_size = 1  # a run stops only after a whole number of rounds

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = {}

    def prepare(self, index) -> None:
        if index not in self.inputs:
            self.inputs[index] = self.build(_rng(self.seed, index), index)

    def take(self, index):
        self.prepare(index)
        return self.inputs.pop(index)


class _TorusIsing(Workload):
    """6x6 periodic Ising model with per-edge ferromagnetic couplings and a positive field."""

    rows = cols = 6

    def __init__(self, seed):
        super().__init__(seed)
        self.graph = graphs.grid_graph(self.rows, self.cols, periodic=True)

    def build(self, rng, index):
        g = self.graph
        beta_j = rng.uniform(*BP_COUPLING, size=g.num_edges)
        beta_h = rng.uniform(*BP_FIELD, size=g.num_vertices)
        return {"model": nfg.ising_model(g, beta_j, beta_h), "beta_j": beta_j,
                "beta_h": beta_h, "chain_seeds": [_chain_seed(rng) for _ in range(3)]}

    def reference(self, inp):
        return reference.torus_ising_marginals(
            self.rows, self.cols, self.graph.edges, inp["beta_j"], inp["beta_h"])


class BpTorus(_TorusIsing):
    name = "bp_torus"

    def run(self, inp):
        p = inp["model"]
        return bp.run_bp(p), samplers.estimate_primal_via_dual(p, "bp_dual")

    def check(self, inp, out):
        primal, via_dual = out
        ref_edge, ref_vertex = self.reference(inp)
        failures = []
        if not primal.converged:
            failures.append(f"primal BP did not converge ({primal.iterations} iterations)")
        if not via_dual.converged:
            failures.append("dual BP did not converge")
        for tag, edge, vertex in (
            ("primal BP", primal.edge_values, primal.vertex_values),
            ("dual BP", via_dual.dual_estimates.edge_values,
             via_dual.dual_estimates.vertex_values),
            ("mapped dual BP", via_dual.edge_values, via_dual.vertex_values),
        ):
            _check_pmf(f"{tag} edge beliefs", edge, failures)
            _check_pmf(f"{tag} vertex beliefs", vertex, failures)
        for tag, est in (("primal BP", primal), ("mapped dual BP", via_dual)):
            _check_close(f"{tag} edges vs transfer matrix", est.edge_values.real,
                         ref_edge, BP_ERROR_BOUND, failures)
            _check_close(f"{tag} vertices vs transfer matrix", est.vertex_values.real,
                         ref_vertex, BP_ERROR_BOUND, failures)
        return failures


def _dual_probability_one(p_primal0, b):
    """pi_d(1) at a binary site with primal table [e^b, e^-b], from pi_p(0).

    Local magnetizations satisfy Delta_d = cosh 2b - Delta_p sinh 2b, with
    Delta = pi(0) - pi(1); derived from the site's 2-point DFT.
    """
    delta_d = np.cosh(2 * b) - (2 * p_primal0 - 1) * np.sinh(2 * b)
    return (1 - delta_d) / 2


def mcmc_tolerance(p_primal0, b, mapped: bool, samples=MCMC_SAMPLES):
    """Per-site bound on |estimate - exact| of pi_p(0) after `samples` retained sweeps.

    A frequency over N sweeps of an indicator with probability p has standard
    error sqrt(2 tau p (1 - p) / N). A dual estimate is sampled at pi_d(1)
    and reaches the primal domain through the local map, whose slope
    d pi_p(0) / d pi_d(1) is 1 / sinh 2b.
    """
    if mapped:
        p = _dual_probability_one(p_primal0, b)
        slope = 1.0 / np.abs(np.sinh(2 * b))
    else:
        p, slope = p_primal0, 1.0
    return MCMC_Z * slope * np.sqrt(2 * MCMC_TAU * p * (1 - p) / samples)


class McmcTorus(_TorusIsing):
    name = "mcmc_torus"

    def run(self, inp):
        p = inp["model"]
        cfgs = [samplers.SamplerConfig(seed=s, samples=MCMC_SAMPLES, burn_in=MCMC_BURN_IN)
                for s in inp["chain_seeds"]]
        return (samplers.gibbs_primal(p, cfgs[0]),
                samplers.estimate_primal_via_dual(p, "swp", cfgs[1]),
                samplers.estimate_primal_via_dual(p, "gibbs_dual", cfgs[2]))

    def check(self, inp, out):
        ref_edge, ref_vertex = self.reference(inp)
        failures = []
        for tag, est, mapped in zip(("gibbs_primal", "swp mapped", "gibbs_dual mapped"),
                                    out, (False, True, True)):
            for kind, values, ref, b in (
                ("edges", est.edge_values, ref_edge, inp["beta_j"]),
                ("vertices", est.vertex_values, ref_vertex, inp["beta_h"]),
            ):
                _check_pmf(f"{tag} {kind}", values, failures, tol=1e-12)
                tol = mcmc_tolerance(ref[:, 0], b, mapped)
                err = np.abs(values[:, 0].real - ref[:, 0])
                worst = int(np.argmax(err / tol))
                if err[worst] > tol[worst]:
                    failures.append(f"{tag} {kind} {worst}: error {err[worst]:.4f} "
                                    f"over tolerance {tol[worst]:.4f}")
        return failures


def _clock_in_field(g, q, beta_j, beta_h):
    """q-state clock model with vertex tables exp(bH cos(2 pi x / q)).

    `clock_model` takes no field, and without one every dual vertex table is
    q times a delta, so the vertex maps would be singular.
    """
    base = nfg.clock_model(g, q, beta_j)
    x = np.arange(q)
    tables = np.exp(np.outer(beta_h, np.cos(2 * np.pi * x / q)))
    return nfg.PrimalNFG(g, base.alphabet, base.edge_tables, tables)


class ExactSmall(Workload):
    """Three small signed models enumerated in both domains."""

    name = "exact_small"

    def __init__(self, seed):
        super().__init__(seed)
        self.ising_graph = graphs.grid_graph(3, 4)
        self.potts_graph = graphs.grid_graph(3, 3)
        self.clock_graph = graphs.grid_graph(2, 3)

    def build(self, rng, index):
        gi, gp, gc = self.ising_graph, self.potts_graph, self.clock_graph
        return [
            nfg.ising_model(gi, _signed(rng, gi.num_edges, 0.1, 0.5),
                            _signed(rng, gi.num_vertices, 0.1, 0.4)),
            nfg.potts_model(gp, 3, _signed(rng, gp.num_edges, 0.1, 0.5),
                            _signed(rng, gp.num_vertices, 0.1, 0.4)),
            _clock_in_field(gc, 4, _signed(rng, gc.num_edges, 0.1, 0.5),
                            _signed(rng, gc.num_vertices, 0.1, 0.4)),
        ]

    def run(self, models):
        out = []
        for p in models:
            g = p.graph
            d = nfg.dualize(p)
            exact_p = oracle.marginals_primal(p)
            exact_d = oracle.marginals_dual(d)
            alpha = graphs.scale_factor(g, p.alphabet)
            residual = abs(exact_d.partition - alpha * exact_p.partition) / abs(exact_p.partition)
            edge = np.array([
                mapping.map_dual_to_primal(exact_d.edge(e), p.edge_tables[e],
                                           d.edge_tables[e]).values
                for e in range(g.num_edges)])
            vertex = np.array([
                mapping.map_dual_to_primal(exact_d.vertex(v), p.vertex_tables[v],
                                           d.vertex_tables[v]).values
                for v in range(g.num_vertices)])
            out.append((d, exact_p, exact_d, residual, edge, vertex, bp.run_bp(d)))
        return out

    def check(self, models, out):
        failures = []
        for p, (d, exact_p, exact_d, residual, edge, vertex, dual_bp) in zip(models, out):
            tag = f"q={p.alphabet.q} {p.graph.num_vertices}-vertex"
            if not residual <= EXACT_TOL:
                failures.append(f"{tag}: duality residual {residual:.3e}")
            _check_close(f"{tag} mapped edges", edge, exact_p.edge_values, EXACT_TOL, failures)
            _check_close(f"{tag} mapped vertices", vertex, exact_p.vertex_values,
                         EXACT_TOL, failures)
            for name, values in (("primal edges", exact_p.edge_values),
                                 ("primal vertices", exact_p.vertex_values),
                                 ("dual edges", exact_d.edge_values),
                                 ("dual vertices", exact_d.vertex_values),
                                 ("mapped edges", edge), ("mapped vertices", vertex),
                                 ("dual BP edges", dual_bp.edge_values),
                                 ("dual BP vertices", dual_bp.vertex_values)):
                if np.abs(values.sum(axis=1) - 1.0).max() > EXACT_TOL:
                    failures.append(f"{tag} {name}: marginals do not sum to one")
            for kind, n, p_tables, d_tables, marginals in (
                ("edge", p.graph.num_edges, p.edge_tables, d.edge_tables, exact_p.edge_values),
                ("vertex", p.graph.num_vertices, p.vertex_tables, d.vertex_tables,
                 exact_p.vertex_values),
            ):
                back = np.array([
                    mapping.map_dual_to_primal(
                        mapping.map_primal_to_dual(marginals[i], p_tables[i], d_tables[i]),
                        p_tables[i], d_tables[i]).values
                    for i in range(n)])
                _check_close(f"{tag} {kind} round trip", back, marginals, EXACT_TOL, failures)
            if not dual_bp.converged:
                failures.append(f"{tag}: dual BP did not converge")
        return failures


def gmrf_spread(domain, s, sigma=GMRF_SIGMA, samples=GMRF_SAMPLES, size=GMRF_SIZE):
    """(mean, relative standard error, effective samples) of a chain's site-averaged variance.

    The statistic is a sum over the eigenmodes of the size x size torus
    Laplacian, mu = 4 - 2 cos(2 pi a / size) - 2 cos(2 pi b / size). Mode k
    has stationary variance w_k v_k, and its square has variance
    2 (w_k v_k)^2. Primal chain: w = 1 and v = 1 / lambda with
    lambda = mu / s^2 + 1 / sigma^2. Dual chain, through x~ = M^T y~: w = mu
    and v = 1 / lambda with lambda = s^2 + sigma^2 mu, for mu > 0. A heat-bath
    sweep relaxes mode k within tau_k = P_ii / lambda_k sweeps, the Jacobi
    rate, which a systematic sweep at least matches. N sweeps then give mode
    k a variance share c_k = 2 (w_k v_k)^2 2 tau_k / N with N / (2 tau_k)
    effective samples. The effective samples of the sum follow
    Welch-Satterthwaite.
    """
    a = 2 * np.pi * np.arange(size) / size
    mu = (4 - 2 * np.cos(a)[:, None] - 2 * np.cos(a)[None, :]).ravel()
    if domain == "primal":
        w = np.ones_like(mu)
        lam = mu / s ** 2 + 1 / sigma ** 2
        diag = 4 / s ** 2 + 1 / sigma ** 2
    else:
        mu = mu[mu > 1e-12]
        w = mu
        lam = s ** 2 + sigma ** 2 * mu
        diag = s ** 2 + 2 * sigma ** 2
    tau = diag / lam
    share = 2 * (w / lam) ** 2 * 2 * tau / samples
    rel = math.sqrt(share.sum()) / (w / lam).sum()
    effective = share.sum() ** 2 / (share ** 2 * 2 * tau / samples).sum()
    return (w / lam).sum() / size ** 2, rel, effective


class GmrfChains(Workload):
    """15x15 periodic thin-membrane GMRF, sigma = 5, s cycling through 1, 20 and 40."""

    name = "gmrf_chains"
    round_size = len(GMRF_S)

    def __init__(self, seed):
        super().__init__(seed)
        self.graph = graphs.grid_graph(GMRF_SIZE, GMRF_SIZE, periodic=True)

    def build(self, rng, index):
        base = GMRF_S[0 if index is None else index % len(GMRF_S)]
        # a fresh 1 % jitter keeps every operation's model distinct
        s = base * (1.0 + rng.uniform(-0.01, 0.01))
        return {"model": gaussian.GmrfModel(self.graph, s, GMRF_SIGMA),
                "chain_seeds": [_chain_seed(rng) for _ in range(2)]}

    def run(self, inp):
        m = inp["model"]
        cfg_p, cfg_d = (samplers.SamplerConfig(seed=s, samples=GMRF_SAMPLES,
                                               burn_in=GMRF_BURN_IN)
                        for s in inp["chain_seeds"])
        primal_chain = gaussian.gmrf_primal_gibbs(m, cfg_p)
        dual_chain = gaussian.gmrf_dual_gibbs(m, cfg_d)
        exact = gaussian.exact_variances(gaussian.primal_precision(m))
        exact_dual = gaussian.exact_dual_vertex_variances(m)
        mapped = gaussian.map_variance_dual_to_primal(m.sigma, exact_dual)
        return primal_chain, dual_chain, exact, exact_dual, mapped

    def check(self, inp, out):
        m = inp["model"]
        primal_chain, dual_chain, exact, exact_dual, mapped = out
        ref_primal, ref_dual = reference.gmrf_variances(
            m.graph.num_vertices, m.graph.edges, m.s, m.sigma)
        failures = []
        for name, got, want in (("exact primal variances", exact, ref_primal),
                                ("exact dual vertex variances", exact_dual, ref_dual),
                                ("Woodbury map of exact dual variances", mapped, exact)):
            _check_close(name, np.asarray(got) / want, 1.0, GMRF_EXACT_TOL, failures)
        for domain, estimate, want in (
            ("primal", primal_chain.variances.mean(), ref_primal.mean()),
            ("dual", dual_chain.derived_variances.mean(), ref_dual.mean()),
        ):
            if not (np.isfinite(estimate) and estimate > 0):
                failures.append(f"{domain} chain at s={m.s:.3f}: estimate {estimate}")
                continue
            _, rel_se, effective = gmrf_spread(domain, m.s, m.sigma)
            if effective < GMRF_MIN_SAMPLES:
                continue  # too few effective samples for a normal bound
            rel = abs(estimate / want - 1.0)
            if not rel <= GMRF_Z * rel_se:
                failures.append(f"{domain} chain at s={m.s:.3f}: relative error {rel:.4f} "
                                f"over tolerance {GMRF_Z * rel_se:.4f}")
        return failures


WORKLOADS = {w.name: w for w in (BpTorus, McmcTorus, ExactSmall, GmrfChains)}
