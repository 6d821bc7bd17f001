"""Deterministic validation checks behind the `validate` CLI command.

Each check returns (passed, detail).  The registry is ordered cheap-first so a
broken build fails fast; everything is seeded from one master seed and the
whole suite is sized for a couple of minutes on commodity hardware.
"""

from __future__ import annotations

import numpy as np

from .bp import BpConfig, run_bp
from .experiments import run_fig_fixed_points
from .gaussian import (
    GmrfModel,
    exact_dual_vertex_variances,
    exact_variances,
    gmrf_dual_gibbs,
    map_variance_dual_to_primal,
    primal_precision,
)
from .graphs import (
    Alphabet, Graph, betti, build_incidence, grid_graph, path_graph, ring_graph, scale_factor,
)
from .mapping import (
    CLOCK4_CRITICAL,
    ISING_CRITICAL,
    clock_fixed_point,
    ising_fixed_point,
    map_marginals,
    potts_critical,
    potts_fixed_point,
    potts_lower_bounds,
)
from .nfg import clock_model, dft_table, dualize, idft_table, ising_model, potts_model
from .oracle import (
    chain_ising_marginals,
    duality_check,
    marginals_dual,
    marginals_primal,
    ring_potts_marginals,
)
from .samplers import (
    SamplerConfig,
    estimate_primal_via_dual,
    gibbs_dual,
    gibbs_primal,
    swp,
    swp_state_histogram,
    swp_state_weights,
)


def random_connected_graph(rng, max_vertices=8, max_edges=12, q=2, max_states=None):
    """Random spanning tree plus extra edges, capped by count and state budget."""
    nv = int(rng.integers(2, max_vertices + 1))
    edges = set()
    perm = rng.permutation(nv)
    for i in range(1, nv):
        u, v = int(perm[i]), int(perm[int(rng.integers(0, i))])
        edges.add((min(u, v), max(u, v)))
    candidates = [
        (i, j) for i in range(nv) for j in range(i + 1, nv) if (i, j) not in edges
    ]
    rng.shuffle(candidates)
    for cand in candidates:
        if len(edges) >= max_edges:
            break
        if max_states is not None and q ** (len(edges) + 1) > max_states:
            break
        edges.add((int(cand[0]), int(cand[1])))
    edge_list = []
    for a, b in sorted(edges):
        edge_list.append((a, b) if rng.random() < 0.5 else (b, a))
    return Graph(nv, edge_list)


def _random_coupling(rng, low=-1.0, high=1.0, min_abs=0.02):
    """Uniform coupling with tiny-magnitude values rejected (they make maps singular)."""
    while True:
        c = float(rng.uniform(low, high))
        if abs(c) >= min_abs:
            return c


def random_model(rng, max_vertices=8, max_edges=12, max_states=2 ** 18,
                 ferromagnetic=False, families=("ising", "potts", "clock")):
    """One random model of the given families: couplings in [-1, 1], fields in (0, 1].

    Clock models take no field on purpose: their dual vertex tables then have
    zero entries, and acceptance criterion 2 and `tests/test_mapping.py` check
    that the vertex map refuses those tables as singular.  The validation
    checks and the test corpora draw from this one generator.
    """
    family = families[int(rng.integers(0, len(families)))]
    q = 2 if family == "ising" else int(rng.integers(2, 5))
    g = random_connected_graph(rng, max_vertices, max_edges, q=q, max_states=max_states)
    low = 0.02 if ferromagnetic else -1.0
    couplings = np.array([_random_coupling(rng, low=low) for _ in range(g.num_edges)])
    fields = rng.uniform(0.02, 1.0, size=g.num_vertices)
    if family == "ising":
        return ising_model(g, couplings, fields), family
    if family == "potts":
        return potts_model(g, q, couplings, fields), family
    return clock_model(g, q, couplings), family


def check_incidence_basics(seed):
    tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
    m = build_incidence(tri)
    ok = (
        np.array_equal(m, [[1, -1, 0], [0, 1, -1], [-1, 0, 1]])
        and betti(tri) == 1
        and betti(path_graph(5)) == 0
        and scale_factor(tri, ising_model(tri, 0.1).alphabet) == 2
    )
    return ok, "triangle incidence, Betti numbers, scale factor"


def check_dft_roundtrip(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for q in range(2, 9):
        a = Alphabet(q)
        table = rng.normal(size=q) + 1j * rng.normal(size=q)
        back = idft_table(dft_table(table, a), a)
        worst = max(worst, float(np.abs(back - table).max()))
    return worst < 1e-12, f"max round-trip error {worst:.2e}"


def check_duality_random(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(60):
        p, _ = random_model(rng, max_states=2 ** 16)
        worst = max(worst, duality_check(p))
    return worst < 1e-10, f"max residual {worst:.2e} over 60 models"


def check_duality_negative_control(seed):
    p = ising_model(ring_graph(4), 0.7, 0.2)
    zp = marginals_primal(p).partition
    zd = marginals_dual(dualize(p)).partition
    wrong_alpha = scale_factor(p.graph, p.alphabet) * p.alphabet.q  # deliberately wrong
    residual = abs(zd - wrong_alpha * zp) / abs(zp)
    return residual > 0.5, f"corrupted scale factor produces residual {residual:.2f}"


def check_mapping_random(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        p, family = random_model(rng, max_states=2 ** 16)
        om, mapped = marginals_primal(p), map_marginals(marginals_dual(dualize(p)), p)
        worst = max(worst, float(np.abs(mapped.edge_values - om.edge_values).max()))
        if family != "clock":  # clock vertex maps are singular (zero field)
            worst = max(worst, float(np.abs(mapped.vertex_values - om.vertex_values).max()))
    return worst < 1e-10, f"max entrywise map error {worst:.2e} over 40 models"


def check_fixed_point_constants(seed):
    errs = [
        np.abs(
            ising_fixed_point(ISING_CRITICAL)
            - [(2 + np.sqrt(2)) / 4, (2 - np.sqrt(2)) / 4]
        ).max()
    ]
    for q in (3, 4, 5, 10, 100):
        fp = potts_fixed_point(q, potts_critical(q))
        errs.append(abs(fp[0] - (1 + 1 / np.sqrt(q)) / 2))
    errs.append(
        np.abs(
            clock_fixed_point(4, CLOCK4_CRITICAL)
            - [(3 + 2 * np.sqrt(2)) / 8, 1 / 8, (3 - 2 * np.sqrt(2)) / 8, 1 / 8]
        ).max()
    )
    worst = max(errs)
    return worst < 1e-12, f"max constant error {worst:.2e}"


def check_fixed_point_grid(seed):
    """Each curve's extremum on the fig-fixed-points grid is the marked row."""
    report = run_fig_fixed_points()
    rows = [dict(zip((name for name, _ in report.columns), r)) for r in report.rows]
    failures = []
    curves = [("ising", 2, 0, np.argmin)]
    curves += [("potts", q, 0, np.argmin) for q in (3, 4, 5, 10, 100)]
    curves += [("clock", 4, 0, np.argmin), ("clock", 4, 1, np.argmax), ("clock", 4, 2, np.argmax)]
    for family, q, comp, extremum in curves:
        curve = [r for r in rows if r["family"] == family and r["q"] == q]
        if not curve[int(extremum([r[f"pi_star_{comp}"] for r in curve]))]["at_critical_gridpoint"]:
            failures.append(f"{family} q={q} component {comp}")
    return not failures, "grid extrema at criticality" + (
        f"; failed: {failures}" if failures else ""
    )


def check_bounds_random(seed):
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(60):
        p, _ = random_model(rng, max_states=2 ** 16, ferromagnetic=True,
                            families=("ising", "potts"))
        om = marginals_primal(p)
        dm = marginals_dual(dualize(p))
        for e, psi in enumerate(p.edge_tables.real):
            # an Ising edge [e^bJ, e^-bJ] is the q = 2 Potts edge at ln(psi(0) / psi(1)) = 2 bJ
            bp, bd = potts_lower_bounds(p.alphabet.q, float(np.log(psi[0] / psi[1])))
            if om.edge_values[e, 0].real < bp - 1e-10:
                violations += 1
            if dm.edge_values[e, 0].real < bd - 1e-10:
                violations += 1
    return violations == 0, f"{violations} bound violations over 60 ferromagnetic models"


def check_closed_forms(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n_edges in (3, 5, 8):
        bjs = rng.uniform(0.1, 2.0, n_edges)
        for boundary, g in (("free", path_graph(n_edges + 1)), ("periodic", ring_graph(n_edges))):
            p = ising_model(g, bjs)
            for closed, exact in zip(chain_ising_marginals(bjs, boundary),
                                     (marginals_primal(p), marginals_dual(dualize(p)))):
                worst = max(worst, float(np.abs(closed.edge_values - exact.edge_values).max()))
    for q, n, bj in ((3, 4, 0.7), (5, 5, 1.2)):
        p = potts_model(ring_graph(n), q, bj)
        for closed, exact in zip(ring_potts_marginals(q, bj, n),
                                 (marginals_primal(p), marginals_dual(dualize(p)))):
            worst = max(worst, float(np.abs(closed.edge_values[0] - exact.edge_values[0]).max()))
    return worst < 1e-12, f"max closed-form error {worst:.2e}"


def check_bp_tree_exact(seed):
    rng = np.random.default_rng(seed)
    p = ising_model(path_graph(6), rng.uniform(-1, 1, 5), rng.uniform(0, 0.5, 6))
    err, converged = 0.0, True
    for model, exact in ((p, marginals_primal), (dualize(p), marginals_dual)):
        res = run_bp(model, BpConfig(damping=0.0))
        err = max(err, float(np.abs(res.edge_values - exact(model).edge_values).max()))
        converged = converged and res.converged
    return err < 1e-10 and converged, f"tree BP error {err:.2e}"


def check_bp_damping_consistency(seed):
    p = ising_model(grid_graph(3, 3, periodic=True), 0.5, 0.1)
    r0 = run_bp(p, BpConfig(damping=0.0))
    r5 = run_bp(p, BpConfig(damping=0.5))
    gap = float(np.abs(r0.edge_values - r5.edge_values).max())
    return r0.converged and r5.converged and gap < 1e-6, f"fixed-point gap {gap:.2e}"


def check_bp_cross_domain(seed):
    p = ising_model(grid_graph(3, 3, periodic=True), 0.6, 0.15)
    cfg = BpConfig(tol=1e-12, max_iters=20000)
    rp = run_bp(p, cfg)
    est = estimate_primal_via_dual(p, "bp_dual", bp_config=cfg)
    gap = float(np.abs(rp.edge_values - est.edge_values).max())
    return gap < 1e-9, f"primal-BP vs mapped dual-BP gap {gap:.2e}"


def check_swp_balance(seed):
    tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
    p = ising_model(tri, [0.8, 0.6, 0.7], [0.7, 0.5, 0.6])
    weights = swp_state_weights(p)
    probs = weights / weights.sum()
    counts = swp_state_histogram(p, 200_000, seed=seed)
    emp = counts / counts.sum()
    z = float((np.abs(emp - probs) / np.sqrt(probs * (1 - probs) / counts.sum())).max())
    return z < 3.5, f"max z-score {z:.2f} over 8 subgraph states"


def check_swp_single_edge(seed):
    p = ising_model(path_graph(2), 0.5, 0.3)
    w1 = np.tanh(0.5) * np.tanh(0.3) ** 2
    exact = w1 / (1 + w1)
    est = swp(p, SamplerConfig(seed=seed, samples=100_000), audit_every=5_000)
    z = abs(est.edge_values[0, 1] - exact) / np.sqrt(exact * (1 - exact) / 100_000)
    return z < 3.5, f"z-score {z:.2f} against the exact two-state law"


def _gibbs_against_oracle(model, exact, sampler, seed):
    """Largest deviation of a 2e4-sweep heat bath's edge marginals from exact(model)'s."""
    est = sampler(model, SamplerConfig(seed=seed, samples=20_000))
    err = float(np.abs(est.edge_values - exact(model).edge_values.real).max())
    return err < 0.02, f"max deviation {err:.3f} at 2e4 sweeps"


def check_gibbs_primal_oracle(seed):
    p = ising_model(grid_graph(2, 2, periodic=True), 0.4, 0.15)
    return _gibbs_against_oracle(p, marginals_primal, gibbs_primal, seed)


def check_gibbs_dual_oracle(seed):
    d = dualize(ising_model(ring_graph(4), 0.6, 0.2))
    return _gibbs_against_oracle(d, marginals_dual, gibbs_dual, seed)


def check_gaussian_quoted_values(seed):
    g = grid_graph(15, 15, periodic=True)
    worst = 0.0
    for s, quoted in ((1.0, 0.5589), (20.0, 20.2046), (40.0, 23.5498)):
        m = GmrfModel(g, s, 5.0)
        var = float(exact_variances(primal_precision(m))[0])
        worst = max(worst, abs(var - quoted))
    return worst < 1e-4, f"max deviation from quoted variances {worst:.2e}"


def check_gaussian_woodbury(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=20, max_edges=40)
        m = GmrfModel(g, float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))
        mapped = map_variance_dual_to_primal(m.sigma, exact_dual_vertex_variances(m))
        exact = exact_variances(primal_precision(m))
        worst = max(worst, float(np.abs(mapped - exact).max()))
    return worst < 1e-10, f"max Woodbury deviation {worst:.2e}"


def check_gaussian_dual_gibbs(seed):
    g = grid_graph(15, 15, periodic=True)
    m = GmrfModel(g, 40.0, 5.0)
    exact = float(exact_variances(primal_precision(m))[0])
    res = gmrf_dual_gibbs(m, SamplerConfig(seed=seed, samples=100))
    mapped = float(map_variance_dual_to_primal(5.0, res.derived_variances.mean()))
    rel = abs(mapped - exact) / exact
    return rel < 5e-3, f"mapped relative error {rel:.2e} at 100 samples"


def check_estimator_consistency(seed):
    p = ising_model(grid_graph(2, 2, periodic=True), 0.5, 0.25)
    exact = marginals_dual(dualize(p)).edge_values.real
    lo, hi = [], []
    for k in range(9):
        for n, bucket in ((1_000, lo), (10_000, hi)):
            est = swp(p, SamplerConfig(seed=seed + k, samples=n))
            bucket.append(float(np.abs(est.edge_values - exact).max()))
    ok = float(np.median(hi)) < float(np.median(lo))
    return ok, f"median error {np.median(lo):.4f} -> {np.median(hi):.4f} with 10x samples"


CHECKS = [
    ("incidence-basics", check_incidence_basics),
    ("dft-roundtrip", check_dft_roundtrip),
    ("fixed-point-constants", check_fixed_point_constants),
    ("fixed-point-grid", check_fixed_point_grid),
    ("closed-forms", check_closed_forms),
    ("duality-random", check_duality_random),
    ("duality-negative-control", check_duality_negative_control),
    ("mapping-random", check_mapping_random),
    ("bounds-random", check_bounds_random),
    ("bp-tree-exact", check_bp_tree_exact),
    ("bp-damping-consistency", check_bp_damping_consistency),
    ("bp-cross-domain", check_bp_cross_domain),
    ("swp-balance", check_swp_balance),
    ("swp-single-edge", check_swp_single_edge),
    ("gibbs-primal-oracle", check_gibbs_primal_oracle),
    ("gibbs-dual-oracle", check_gibbs_dual_oracle),
    ("gaussian-quoted-values", check_gaussian_quoted_values),
    ("gaussian-woodbury", check_gaussian_woodbury),
    ("gaussian-dual-gibbs", check_gaussian_dual_gibbs),
    ("estimator-consistency", check_estimator_consistency),
]


def run_validation(seed: int = 1234, quick: bool = False):
    """Run every check; returns (all_passed, [(name, passed, detail)])."""
    results = []
    all_passed = True
    skip_in_quick = {"swp-balance", "estimator-consistency", "gaussian-dual-gibbs"}
    for name, fn in CHECKS:
        if quick and name in skip_in_quick:
            continue
        passed, detail = fn(seed)
        results.append((name, passed, detail))
        all_passed &= passed
    return all_passed, results
