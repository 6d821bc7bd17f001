"""Named experiment runners emitting CSV reports.

Every sampling and realization runner is deterministic given its master
seed: per-realization and per-chain generators are spawned as
default_rng([master_seed, index]).  The two curve runners draw nothing and
take neither a seed nor `quick`.  The exact-reference column always comes
from dense linear algebra or from `_oracle_pe0`, the one place a runner
enumerates, never from a sampler; when the model is over the enumeration
budget the exact and error cells are NaN and the estimates are still emitted
(quick mode shrinks the lattice so the oracle is available).  The two random-coupling runners share one row builder
and differ only in their parameter grid and coupling draw; the fixed-point
and bound curves share one 0.01-step coupling grid and its critical mark,
which `validate.check_fixed_point_grid` reads back.  Only the sampling
runners, fig-ising-hom and fig-gaussian, take `samples`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bp import run_bp
from .gaussian import (
    GmrfModel,
    exact_variances,
    gmrf_dual_gibbs,
    gmrf_primal_gibbs,
    map_variance_dual_to_primal,
    primal_precision,
)
from .graphs import complete_graph, grid_graph
from .mapping import (
    CLOCK4_CRITICAL,
    ISING_CRITICAL,
    clock_fixed_point,
    ising_fixed_point,
    ising_lower_bounds,
    potts_critical,
    potts_fixed_point,
    potts_lower_bounds,
)
from .nfg import ising_model, potts_model
from .oracle import EnumerationBudgetError, marginals_primal
from .samplers import SamplerConfig, estimate_primal_via_dual


@dataclass
class ExperimentReport:
    """Column-described rows plus the parameters that produced them."""

    name: str
    columns: list  # (name, description) pairs
    rows: list
    params: dict = field(default_factory=dict)

    def write(self, path: str) -> None:
        """RFC-4180 CSV ('.' decimal, UTF-8, LF) plus a .schema.json sidecar."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([name for name, _ in self.columns])
            for row in self.rows:
                writer.writerow([_render(v) for v in row])
        sidecar = {
            "experiment": self.name,
            "version": __version__,
            "params": self.params,
            "columns": [{"name": n, "description": d} for n, d in self.columns],
        }
        with open(sidecar_path(path), "w", encoding="utf-8") as handle:
            json.dump(sidecar, handle, indent=2, sort_keys=True)
            handle.write("\n")


def sidecar_path(path: str) -> str:
    """Where ExperimentReport.write puts the column schema of the CSV at path."""
    return (path[:-4] if path.endswith(".csv") else path) + ".schema.json"


def _render(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "nan" if np.isnan(value) else repr(float(value))
    return str(value)


def _chain_seed(master: int, index: int) -> np.random.Generator:
    return np.random.default_rng([master, index])


def _oracle_pe0(model) -> np.ndarray:
    """Per-edge exact pi_p,e(0); all NaN when the model is over the enumeration
    budget, so every error computed from it is NaN too."""
    try:
        return marginals_primal(model).edge_values[:, 0].real
    except EnumerationBudgetError:
        return np.full(model.graph.num_edges, np.nan)


def _count(name: str, value, default: int) -> int:
    """value, or default when value is None; a value below 1 is refused by name."""
    if value is not None and value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")
    return default if value is None else value


def _rel_err(estimate: np.ndarray, exact: np.ndarray, edge: int = 0) -> tuple:
    """(at-edge, max-over-edges) relative error on pi_p,e(0)."""
    err = np.abs(estimate.real - exact) / np.abs(exact)
    return float(err[edge]), float(err.max())


def run_fig_ising_hom(
    seed: int = 0,
    quick: bool = False,
    samples: int | None = None,
    rows: int | None = None,
    cols: int | None = None,
    beta_h: float = 0.15,
    betas=None,
) -> ExperimentReport:
    """Homogeneous periodic lattice in a constant field: BP in both domains
    plus the subgraphs-world process, reported as pi_p,e(0) estimates."""
    size = 4 if quick else 6
    rows, cols = _count("rows", rows, size), _count("cols", cols, size)
    samples = samples if samples is not None else (10_000 if quick else 100_000)
    betas = list(betas) if betas is not None else [round(0.05 + 0.1 * k, 2) for k in range(8)]
    g = grid_graph(rows, cols, periodic=True)
    out_rows = []
    for i, bj in enumerate(betas):
        p = ising_model(g, bj, beta_h)
        exact = _oracle_pe0(p)
        rp = run_bp(p)
        bp_primal = rp.edge_values[:, 0].real
        bd = estimate_primal_via_dual(p, "bp_dual")
        bp_dual = bd.edge_values[:, 0].real
        sw = estimate_primal_via_dual(
            p, "swp", SamplerConfig(seed=int(_chain_seed(seed, i).integers(2 ** 63)), samples=samples)
        )
        swp_est = sw.edge_values[:, 0].real
        bp_first, bp_max = _rel_err(bp_primal, exact)
        bd_first, bd_max = _rel_err(bp_dual, exact)
        sw_first, sw_max = _rel_err(swp_est, exact)
        out_rows.append([
            bj, float(exact[0]),
            float(bp_primal[0]), bp_first, bp_max, rp.converged,
            float(bp_dual[0]), bd_first, bd_max, bool(bd.converged),
            float(swp_est[0]), sw_first, sw_max,
            float(np.abs(bp_primal - bp_dual).max()),
        ])
    columns = [
        ("beta_j", "homogeneous coupling"),
        ("exact_pe0", "oracle pi_p,e(0) at the first edge (nan if over budget)"),
        ("bp_primal_pe0", "primal-BP estimate at the first edge"),
        ("bp_primal_rel_err", "primal-BP relative error at the first edge"),
        ("bp_primal_rel_err_max", "primal-BP relative error, max over edges"),
        ("bp_primal_converged", "primal-BP convergence flag"),
        ("bp_dual_pe0", "dual-BP estimate mapped to the primal domain, first edge"),
        ("bp_dual_rel_err", "mapped dual-BP relative error at the first edge"),
        ("bp_dual_rel_err_max", "mapped dual-BP relative error, max over edges"),
        ("bp_dual_converged", "dual-BP convergence flag"),
        ("swp_pe0", "subgraphs-world estimate mapped to the primal domain"),
        ("swp_rel_err", "mapped SWP relative error at the first edge"),
        ("swp_rel_err_max", "mapped SWP relative error, max over edges"),
        ("bp_cross_gap", "max |primal-BP - mapped dual-BP| over edges"),
    ]
    return ExperimentReport(
        "fig-ising-hom", columns, out_rows,
        {"rows": rows, "cols": cols, "beta_h": beta_h, "samples": samples,
         "seed": seed, "quick": quick},
    )


_REALIZATION_COLUMNS = [
    ("mean_rel_err_bp_primal", "mean over realizations, first-edge relative error"),
    ("mean_rel_err_bp_dual", "mean over realizations, mapped dual-BP error"),
    ("median_rel_err_bp_primal", "median over realizations"),
    ("median_rel_err_bp_dual", "median over realizations"),
    ("frac_converged_primal", "fraction of realizations where primal BP converged"),
    ("frac_converged_dual", "fraction where dual BP converged"),
]


def _realization_rows(g, values, realizations: int, seed: int, draw) -> list:
    """One row per parameter value: first-edge relative errors of primal BP and
    mapped dual BP over zero-field Ising realizations on g, then the converged
    fractions.  Realization r of value i has couplings draw(value, rng), with
    rng = _chain_seed(seed, i * realizations + r)."""
    out_rows = []
    for i, value in enumerate(values):
        prim, dual, conv_p, conv_d = [], [], 0, 0
        for r in range(realizations):
            model = ising_model(g, draw(value, _chain_seed(seed, i * realizations + r)), 0.0)
            exact = _oracle_pe0(model)
            rp = run_bp(model)
            bd = estimate_primal_via_dual(model, "bp_dual")
            conv_p += rp.converged
            conv_d += bool(bd.converged)
            prim.append(_rel_err(rp.edge_values[:, 0], exact)[0])
            dual.append(_rel_err(bd.edge_values[:, 0], exact)[0])
        stats = [float(f(errs)) for f in (np.mean, np.median) for errs in (prim, dual)]
        out_rows.append([value, *stats, conv_p / realizations, conv_d / realizations])
    return out_rows


def run_fig_ising_halfnormal(
    seed: int = 0,
    quick: bool = False,
    rows: int | None = None,
    cols: int | None = None,
    sigma2_values=None,
    realizations: int | None = None,
) -> ExperimentReport:
    """Zero-field lattice with half-normal random couplings: primal vs dual BP."""
    size = 4 if quick else 6
    rows, cols = _count("rows", rows, size), _count("cols", cols, size)
    realizations = _count("realizations", realizations, 20 if quick else 200)
    sigma2_values = (
        list(sigma2_values) if sigma2_values is not None
        else [round(0.05 + 0.2 * k, 2) for k in range(10)]
    )
    g = grid_graph(rows, cols, periodic=True)
    out_rows = _realization_rows(
        g, sigma2_values, realizations, seed,
        lambda sigma2, rng: np.abs(rng.normal(0.0, np.sqrt(sigma2), size=g.num_edges)),
    )
    return ExperimentReport(
        "fig-ising-halfnormal",
        [("sigma2", "half-normal coupling variance"), *_REALIZATION_COLUMNS], out_rows,
        {"rows": rows, "cols": cols, "realizations": realizations, "seed": seed,
         "quick": quick},
    )


def run_fig_ising_fully(
    seed: int = 0,
    quick: bool = False,
    n: int | None = None,
    beta_x_values=None,
    realizations: int | None = None,
) -> ExperimentReport:
    """Fully connected zero-field model, couplings uniform in [0.05, beta_x]."""
    n = _count("n", n, 8 if quick else 10)
    realizations = _count("realizations", realizations, 10 if quick else 50)
    beta_x_values = (
        list(beta_x_values) if beta_x_values is not None
        else [round(0.05 + 0.1 * k, 2) for k in range(7)]
    )
    g = complete_graph(n)
    out_rows = _realization_rows(
        g, beta_x_values, realizations, seed,
        lambda beta_x, rng: rng.uniform(0.05, beta_x, size=g.num_edges),
    )
    return ExperimentReport(
        "fig-ising-fully",
        [("beta_x", "upper end of the uniform coupling range"), *_REALIZATION_COLUMNS], out_rows,
        {"n": n, "realizations": realizations, "seed": seed, "quick": quick},
    )


def frustrated_grid_couplings(rows: int, cols: int, beta_ferr: float,
                              beta_antif: float = -0.25):
    """Free-boundary grid couplings with exactly one antiferromagnetic edge per
    plaquette: horizontal edges in odd vertex rows carry beta_antif.

    Returns (graph, couplings, reported_edge): the reported edge is the
    ferromagnetic top edge of the middle plaquette.
    """
    g = grid_graph(rows, cols, periodic=False)
    couplings = np.full(g.num_edges, beta_ferr)
    for e, (t, h) in enumerate(g.edges):
        rt, ct = divmod(t, cols)
        rh, ch = divmod(h, cols)
        if rt == rh and rt % 2 == 1:  # horizontal edge in an odd row
            couplings[e] = beta_antif
    mid_r, mid_c = (rows - 2) // 2 - ((rows - 2) // 2) % 2, (cols - 2) // 2
    target = None
    for e, (t, h) in enumerate(g.edges):
        if t == mid_r * cols + mid_c and h == mid_r * cols + mid_c + 1:
            target = e
    return g, couplings, target


def run_fig_potts_frustrated(
    seed: int = 0,
    quick: bool = False,
    rows: int | None = None,
    cols: int | None = None,
    beta_ferr_values=None,
) -> ExperimentReport:
    """Free-boundary 3-state model with every plaquette frustrated: BP in the
    signed dual vs primal BP on the middle-plaquette ferromagnetic edge."""
    rows = _count("rows", rows, 3 if quick else 6)
    cols = _count("cols", cols, 4 if quick else 6)
    beta_ferr_values = (
        list(beta_ferr_values) if beta_ferr_values is not None
        else [round(0.15 + 0.3 * k, 2) for k in range(10)]
    )
    out_rows = []
    for beta_ferr in beta_ferr_values:
        g, couplings, target = frustrated_grid_couplings(rows, cols, beta_ferr)
        p = potts_model(g, 3, couplings, 0.0)
        exact = _oracle_pe0(p)
        rp = run_bp(p)
        bd = estimate_primal_via_dual(p, "bp_dual")
        bp_pe0 = float(rp.edge_values[target, 0].real)
        bd_pe0 = float(bd.edge_values[target, 0].real)
        out_rows.append([
            beta_ferr, target, float(exact[target]),
            bp_pe0, _rel_err(rp.edge_values[:, 0], exact, target)[0], rp.converged,
            bd_pe0, _rel_err(bd.edge_values[:, 0], exact, target)[0], bool(bd.converged),
            abs(bp_pe0 - bd_pe0),
        ])
    columns = [
        ("beta_ferr", "ferromagnetic coupling on three of four plaquette edges"),
        ("edge", "reported edge index (middle-plaquette ferromagnetic edge)"),
        ("exact_pe0", "oracle pi_p,e(0) (nan if over budget)"),
        ("bp_primal_pe0", "primal-BP estimate"),
        ("bp_primal_rel_err", "primal-BP relative error"),
        ("bp_primal_converged", "primal-BP convergence flag"),
        ("bp_dual_pe0", "signed-dual-BP estimate mapped to the primal domain"),
        ("bp_dual_rel_err", "mapped dual-BP relative error"),
        ("bp_dual_converged", "dual-BP convergence flag"),
        ("bp_cross_gap", "|primal-BP - mapped dual-BP| at the reported edge"),
    ]
    return ExperimentReport(
        "fig-potts-frustrated", columns, out_rows,
        {"rows": rows, "cols": cols, "beta_antif": -0.25, "seed": seed, "quick": quick},
    )


def run_fig_gaussian(
    seed: int = 0,
    quick: bool = False,
    samples: int | None = None,
    n: int | None = None,
    s_values=(1.0, 20.0, 40.0),
    sigma: float = 5.0,
    chains: int | None = None,
) -> ExperimentReport:
    """Periodic-lattice thin-membrane field: primal Gibbs vs dual Gibbs mapped,
    running variance estimates per chain against the dense-algebra exact value."""
    n = _count("n", n, 15)
    chains = _count("chains", chains, 2 if quick else 7)
    samples = samples if samples is not None else (100 if quick else 1000)
    g = grid_graph(n, n, periodic=True)
    chain_defaults = SamplerConfig(seed=seed, samples=samples)  # burn-in as the chains resolve it
    out_rows = []
    for s in s_values:
        m = GmrfModel(g, float(s), sigma)
        exact = float(exact_variances(primal_precision(m))[0])
        for chain in range(chains):
            base = int(_chain_seed(seed, chain).integers(2 ** 63))
            cfg = SamplerConfig(seed=base, samples=samples)
            res_p = gmrf_primal_gibbs(m, cfg)
            res_d = gmrf_dual_gibbs(m, cfg)
            # early noisy dual estimates can imply no valid primal variance
            # (sigma^2 var_d >= 1); report those points as nan, not an error
            traj = res_d.derived_trajectory
            valid = sigma ** 2 * traj < 1.0
            mapped = np.full(samples, np.nan)
            mapped[valid] = map_variance_dual_to_primal(sigma, traj[valid])
            for k in range(samples):
                out_rows.append([
                    float(s), chain, k + 1,
                    float(res_p.trajectory[k]), float(mapped[k]), exact,
                    abs(res_p.trajectory[k] - exact) / exact,
                    abs(mapped[k] - exact) / exact,
                ])
    columns = [
        ("s", "intervariable standard deviation"),
        ("chain", "chain index"),
        ("num_samples", "retained sweeps so far"),
        ("primal_estimate", "site-averaged primal variance estimate"),
        ("dual_mapped_estimate", "dual-chain estimate mapped to the primal domain"),
        ("exact", "dense-inverse variance"),
        ("primal_rel_err", "relative error of the primal estimate"),
        ("dual_mapped_rel_err", "relative error of the mapped dual estimate"),
    ]
    return ExperimentReport(
        "fig-gaussian", columns, out_rows,
        {"n": n, "sigma": sigma, "s_values": list(map(float, s_values)),
         "chains": chains, "samples": samples, "seed": seed, "quick": quick,
         "burn_in_primal": chain_defaults.resolved_burn_in(g.num_vertices),
         "burn_in_dual": chain_defaults.resolved_burn_in(g.num_edges)},
    )


_GRID = np.round(np.arange(0.01, 3.0001, 0.01), 10)  # couplings of the curve runners


def _grid_rows(specs, values) -> list:
    """[family, q, beta_j, *values(family, q, beta_j), at_critical_gridpoint]
    for each (family, q, critical coupling) over the 0.01-step grid."""
    out_rows = []
    for family, q, crit in specs:
        nearest = float(_GRID[np.argmin(np.abs(_GRID - crit))])
        for bj in _GRID:
            out_rows.append([family, q, float(bj), *values(family, q, bj), bool(bj == nearest)])
    return out_rows


def run_fig_fixed_points() -> ExperimentReport:
    """Fixed-point curves over a 0.01-step coupling grid with criticality marks."""
    specs = [("ising", 2, ISING_CRITICAL)]
    specs += [("potts", q, potts_critical(q)) for q in (3, 4, 5, 10, 100)]
    specs += [("clock", 4, CLOCK4_CRITICAL)]

    def fixed_point(family, q, bj):
        if family == "ising":
            fp = ising_fixed_point(bj)
        elif family == "potts":
            fp = potts_fixed_point(q, bj)
        else:
            fp = clock_fixed_point(q, bj)
        return float(fp[0]), float(fp[1]), float(fp[2]) if q > 2 else float("nan")

    columns = [
        ("family", "ising | potts | clock"),
        ("q", "alphabet size"),
        ("beta_j", "grid coupling"),
        ("pi_star_0", "fixed point at 0"),
        ("pi_star_1", "fixed point at 1"),
        ("pi_star_2", "fixed point at 2 (nan for binary)"),
        ("at_critical_gridpoint", "grid point nearest the critical coupling"),
    ]
    return ExperimentReport("fig-fixed-points", columns, _grid_rows(specs, fixed_point),
                            {"step": 0.01})


def run_fig_bounds() -> ExperimentReport:
    """Ferromagnetic lower-bound curves; bounds intersect at criticality."""
    specs = [("ising", 2, ISING_CRITICAL)] + [
        ("potts", q, potts_critical(q)) for q in (3, 4, 5)
    ]

    def bounds(family, q, bj):
        bp, bd = ising_lower_bounds(bj) if family == "ising" else potts_lower_bounds(q, bj)
        return bp, bd, bp * bd

    columns = [
        ("family", "ising | potts"),
        ("q", "alphabet size"),
        ("beta_j", "grid coupling"),
        ("bound_p", "lower bound on pi_p,e(0)"),
        ("bound_d", "lower bound on pi_d,e(0)"),
        ("product", "bound product (exactly 1/q)"),
        ("at_critical_gridpoint", "grid point nearest the critical coupling"),
    ]
    return ExperimentReport("fig-bounds", columns, _grid_rows(specs, bounds), {"step": 0.01})


EXPERIMENTS = {
    "fig-ising-hom": run_fig_ising_hom,
    "fig-ising-halfnormal": run_fig_ising_halfnormal,
    "fig-ising-fully": run_fig_ising_fully,
    "fig-potts-frustrated": run_fig_potts_frustrated,
    "fig-gaussian": run_fig_gaussian,
    "fig-fixed-points": run_fig_fixed_points,
    "fig-bounds": run_fig_bounds,
}
