"""Command-line front end.

Subcommands: model | exact | bp | gibbs | swp | map | gaussian | experiment |
validate.  Exit codes: 0 success, 2 validation failure, 3 enumeration-budget
refusal, 4 bad input (a spec that cannot be read or is invalid, an unknown
or malformed argument, an --out path that cannot be written, NFG_DUAL_BUDGET,
model parameters or tables that are not finite, or weights that overflow in
an enumeration or a heat-bath conditional), 5 BP failure (a sum-product
message cancelled to zero or overflowed).  The environment
variable NFG_DUAL_BUDGET overrides the enumeration budget.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

import numpy as np

from . import __version__
from .bp import BpConfig, DegenerateMessageError, run_bp
from .gaussian import (
    GmrfModel,
    exact_dual_vertex_variances,
    exact_variances,
    gmrf_dual_gibbs,
    gmrf_primal_gibbs,
    map_variance_dual_to_primal,
    primal_precision,
)
from .graphs import betti, scale_factor
from .mapping import SingularMapError, map_dual_to_primal, map_primal_to_dual
from .modelspec import SpecError, model_from_file
from .nfg import DUAL, PRIMAL, MarginalVector, PrimalNFG, dualize, is_nonnegative
from .oracle import (
    EnumerationBudgetError,
    marginals_dual,
    marginals_primal,
)
from .samplers import (
    SamplerConfig,
    SamplerError,
    estimate_primal_via_dual,
    gibbs_dual,
    gibbs_primal,
    swp,
)
from .experiments import EXPERIMENTS, sidecar_path
from .validate import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_SPEC = 4
EXIT_BP = 5


def _fmt(value: complex) -> str:
    if abs(value.imag) < 1e-9 * max(1.0, abs(value)):
        return f"{value.real:.10g}"
    return f"{value.real:.10g}{value.imag:+.10g}j"


def _print_table(title: str, values: np.ndarray) -> None:
    print(title)
    for i, row in enumerate(values):
        print(f"  [{i:3d}] " + "  ".join(_fmt(v) for v in row))


def _print_marginals(res, what: str) -> None:
    """Edge and vertex blocks of a Marginals record; a None vertex block is skipped."""
    note = " (mapped from the dual)" if res.dual_estimates is not None else ""
    _print_table(f"{res.domain} edge {what}{note}:", res.edge_values)
    if res.vertex_values is not None:
        _print_table(f"{res.domain} vertex {what}{note}:", res.vertex_values)


def _load_primal(path: str) -> PrimalNFG:
    model = model_from_file(path)
    if not isinstance(model, PrimalNFG):
        raise SpecError("this command needs a discrete model spec (ising/potts/clock)")
    return model


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(seed=args.seed, samples=args.samples)


def cmd_model(args) -> int:
    model = model_from_file(args.spec)
    if isinstance(model, GmrfModel):
        g = model.graph
        print(f"gaussian model: |V|={g.num_vertices} |E|={g.num_edges} "
              f"s={model.s} sigma={model.sigma}")
        print(f"betti number: {betti(g)}")
        return EXIT_OK
    g, a = model.graph, model.alphabet
    print(f"model: q={a.q} |V|={g.num_vertices} |E|={g.num_edges}")
    print(f"betti number: {betti(g)}")
    print(f"duality scale factor alpha: {scale_factor(g, a)}")
    d = dualize(model)
    print(f"dual factors nonnegative: {is_nonnegative(d)}")
    if g.num_edges:
        _print_table("primal edge tables psi_e:", model.edge_tables)
    _print_table("primal vertex tables phi_v:", model.vertex_tables)
    if g.num_edges:
        _print_table("dual edge tables psi~_e:", d.edge_tables)
    _print_table("dual vertex tables phi~_v:", d.vertex_tables)
    return EXIT_OK


def cmd_exact(args) -> int:
    model = _load_primal(args.spec)
    om = marginals_primal(model)
    dm = marginals_dual(dualize(model))
    alpha = scale_factor(model.graph, model.alphabet)
    residual = abs(dm.partition - alpha * om.partition) / abs(om.partition)
    print(f"Z_p = {_fmt(om.partition)}")
    print(f"duality residual |Z_d - alpha Z_p| / |Z_p| = {residual:.3e}")
    _print_marginals(om, "marginals")
    _print_marginals(dm, "marginals")
    return EXIT_OK


def cmd_bp(args) -> int:
    model = _load_primal(args.spec)
    nfg = dualize(model) if args.domain == "dual" else model
    cfg = BpConfig(damping=args.damping, tol=args.tol, max_iters=args.max_iters)
    res = run_bp(nfg, cfg)
    print(f"converged: {res.converged} after {res.iterations} iterations "
          f"(residual {res.residual:.3e})")
    _print_marginals(res, "beliefs")
    return EXIT_OK


def cmd_gibbs(args) -> int:
    model = _load_primal(args.spec)
    if args.domain == "dual":
        est = gibbs_dual(dualize(model), _sampler_config(args))
    else:
        est = gibbs_primal(model, _sampler_config(args))
    _print_marginals(est, "marginal estimates")
    return EXIT_OK


def cmd_swp(args) -> int:
    model = _load_primal(args.spec)
    if args.map:
        est = estimate_primal_via_dual(model, "swp", _sampler_config(args))
    else:
        est = swp(model, _sampler_config(args))
    _print_marginals(est, "estimates")
    return EXIT_OK


def cmd_map(args) -> int:
    model = _load_primal(args.spec)
    d = dualize(model)
    kind, _, index = args.location.partition(":")
    idx = int(index)
    values = np.array([complex(v) for v in args.marginal.split(",")])
    if kind == "edge":
        primal, dual = model.edge_tables, d.edge_tables
    elif kind == "vertex":
        primal, dual = model.vertex_tables, d.vertex_tables
    else:
        raise SpecError("--location must look like edge:3 or vertex:0")
    if not 0 <= idx < len(primal):
        raise SpecError(f"--location {args.location}: the model has {len(primal)} "
                        f"{kind}s, numbered 0 to {len(primal) - 1}")
    tables = (primal[idx], dual[idx])
    if args.direction == "dual-to-primal":
        out = map_dual_to_primal(MarginalVector(values, (kind, idx), DUAL), *tables)
    else:
        out = map_primal_to_dual(MarginalVector(values, (kind, idx), PRIMAL), *tables)
    print("  ".join(_fmt(v) for v in out.values))
    return EXIT_OK


def cmd_gaussian(args) -> int:
    model = model_from_file(args.spec)
    if not isinstance(model, GmrfModel):
        raise SpecError("the gaussian command needs a gaussian-family spec")
    var_p = exact_variances(primal_precision(model))
    var_d = exact_dual_vertex_variances(model)
    mapped = map_variance_dual_to_primal(model.sigma, var_d)
    print(f"exact primal variances: min={var_p.min():.6g} max={var_p.max():.6g} "
          f"first={var_p[0]:.6g}")
    print(f"exact dual vertex variances mapped to primal: first={mapped[0]:.6g} "
          f"(max |gap| {np.abs(mapped - var_p).max():.3e})")
    if args.samples:
        cfg = SamplerConfig(seed=args.seed, samples=args.samples)
        res_p = gmrf_primal_gibbs(model, cfg)
        res_d = gmrf_dual_gibbs(model, cfg)
        var_d = res_d.derived_variances.mean()
        print(f"gibbs primal estimate (site-averaged): {res_p.variances.mean():.6g}")
        # a short dual chain can estimate sigma^2 var_d >= 1, which maps to no
        # primal variance; that is noise, not bad input, as in fig-gaussian
        ratio = model.sigma ** 2 * var_d
        if ratio < 1.0:
            est = f"{map_variance_dual_to_primal(model.sigma, var_d):.6g}"
        else:
            est = f"nan (sigma^2 * var_d = {ratio:.6g} >= 1 maps to no variance)"
        print(f"gibbs dual estimate mapped to primal:  {est}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    runner = EXPERIMENTS.get(args.name)
    if runner is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise SpecError(f"unknown experiment {args.name!r}; known: {known}")
    takes = inspect.signature(runner).parameters
    if args.samples is not None and "samples" not in takes:
        raise SpecError(f"experiment {args.name} takes no --samples")
    out = args.out or f"{args.name}.csv"
    for path in (out, sidecar_path(out)):  # refuse before the runner, not after it
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise SpecError(f"cannot write {path}: it is a directory, or its "
                            f"parent is not one")
    options = {"seed": args.seed, "quick": args.quick, "samples": args.samples}
    report = runner(**{name: value for name, value in options.items() if name in takes})
    try:
        report.write(out)
    except OSError as exc:
        raise SpecError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc
    print(f"wrote {len(report.rows)} rows to {out} (column schema in {sidecar_path(out)})")
    return EXIT_OK


def cmd_validate(args) -> int:
    ok, results = run_validation(seed=args.seed, quick=args.quick)
    width = max(len(name) for name, _, _ in results)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name.ljust(width)}  {detail}")
    print(f"{sum(p for _, p, _ in results)}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are bad input, exit code 4, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nfgdual",
        description="Pairwise graphical models, their Fourier duals, and "
                    "marginal mappings between the two domains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, spec=True, seed=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        if spec:
            p.add_argument("--spec", required=True, help="model spec JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=1234)
        return p

    add("model", cmd_model, "build a model, print factor tables and topology constants")
    add("exact", cmd_exact, "enumeration oracle: partition functions, duality, marginals")

    p_bp = add("bp", cmd_bp, "loopy sum-product in either domain")
    p_bp.add_argument("--domain", choices=["primal", "dual"], default="primal")
    p_bp.add_argument("--damping", type=float, default=BpConfig.damping)
    p_bp.add_argument("--tol", type=float, default=BpConfig.tol)
    p_bp.add_argument("--max-iters", type=int, default=BpConfig.max_iters)

    p_gibbs = add("gibbs", cmd_gibbs, "heat-bath Gibbs estimates in either domain", seed=True)
    p_gibbs.add_argument("--domain", choices=["primal", "dual"], default="primal")
    p_gibbs.add_argument("--samples", type=int, default=SamplerConfig.samples)

    p_swp = add("swp", cmd_swp, "subgraphs-world estimates (dual domain)", seed=True)
    p_swp.add_argument("--samples", type=int, default=SamplerConfig.samples)
    p_swp.add_argument("--map", action="store_true",
                       help="map the dual estimates to the primal domain")

    p_map = add("map", cmd_map, "transform one marginal vector between domains")
    p_map.add_argument("--location", required=True, help="edge:IDX or vertex:IDX")
    p_map.add_argument("--direction", choices=["dual-to-primal", "primal-to-dual"],
                       default="dual-to-primal")
    p_map.add_argument("--marginal", required=True,
                       help="comma-separated marginal values")

    p_gauss = add("gaussian", cmd_gaussian, "thin-membrane model variances", seed=True)
    p_gauss.add_argument("--samples", type=int, default=0,
                         help="also run Gibbs chains with this many retained sweeps")

    p_exp = add("experiment", cmd_experiment, "run a named experiment to CSV",
                spec=False, seed=True)
    p_exp.add_argument("name", help="experiment name, e.g. fig-ising-hom")
    p_exp.add_argument("--out", help="output CSV path (default <name>.csv)")
    p_exp.add_argument("--quick", action="store_true",
                       help="reduced sizes and realization counts")
    p_exp.add_argument("--samples", type=int, default=None,
                       help="retained samples per chain (fig-ising-hom and fig-gaussian only)")

    p_val = add("validate", cmd_validate, "run the validation matrix", spec=False, seed=True)
    p_val.add_argument("--quick", action="store_true", help="skip the slowest checks")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except EnumerationBudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DegenerateMessageError as exc:
        print(f"BP failure: {exc}", file=sys.stderr)
        return EXIT_BP
    except (SpecError, SamplerError, SingularMapError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
