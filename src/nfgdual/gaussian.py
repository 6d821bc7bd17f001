"""Thin-membrane Gaussian MRF: precision matrices in both domains, exact
variances by dense linear algebra, Gibbs chains, and the dual-to-primal
variance map.

The primal density penalizes squared differences across edges (intervariable
variance s^2) plus a per-vertex ridge (vertex variance sigma^2):

    f_p(x) proportional to exp(-|Mx|^2 / 2s^2) * exp(-|x|^2 / 2sigma^2)

so the primal precision is M^T M / s^2 + I / sigma^2 over vertices.  In the
dual domain the free variables are edge values y~ with precision
s^2 I + sigma^2 M M^T, and the vertex statistic is x~ = M^T y~.  The variance
map sigma^2 (1 - sigma^2 Var(x~_v)) returns exactly the primal marginal
variance (a Woodbury identity), so dual-chain estimates transport to the
primal domain with one multiply per vertex.

The Gibbs chains are systematic-scan heat baths.  Such a sweep over a
precision P = D + L + U (diagonal, strict lower and strict upper triangle) is
one stochastic Gauss-Seidel step, (D + L) x_new = sqrt(D) z - U x_old, with z
the sweep's standard normals (Goodman & Sokal, Phys. Rev. D 1989).  Each sweep
is therefore one sparse product with U and one product with the inverse of the
lower triangle, built once per chain: the same chain as the site-by-site
update, fed the same normals in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, build_incidence
from .samplers import SamplerConfig


@dataclass(frozen=True)
class GmrfModel:
    """Graph plus intervariable std s and vertex std sigma, both > 0."""

    graph: Graph
    s: float
    sigma: float

    def __post_init__(self):
        if self.s <= 0 or self.sigma <= 0:
            raise ValueError("s and sigma must be positive")


def primal_precision(m: GmrfModel) -> np.ndarray:
    """(1/s^2) M^T M + (1/sigma^2) I, SPD of dimension |V|."""
    inc = build_incidence(m.graph).astype(np.float64)
    nv = m.graph.num_vertices
    return inc.T @ inc / m.s ** 2 + np.eye(nv) / m.sigma ** 2


def dual_precision(m: GmrfModel) -> np.ndarray:
    """s^2 I + sigma^2 M M^T, SPD of dimension |E|."""
    inc = build_incidence(m.graph).astype(np.float64)
    ne = m.graph.num_edges
    return m.s ** 2 * np.eye(ne) + m.sigma ** 2 * (inc @ inc.T)


def _validate_spd(precision: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The precision as a float array and its Cholesky factor.

    Refuses a non-square, asymmetric or not positive definite matrix; the
    last raises LinAlgError, which is a ValueError.
    """
    precision = np.asarray(precision, dtype=np.float64)
    if precision.ndim != 2 or precision.shape[0] != precision.shape[1] or not precision.size:
        raise ValueError("precision must be a non-empty square matrix")
    if np.abs(precision - precision.T).max() > 1e-12 * max(1.0, np.abs(precision).max()):
        raise ValueError("precision must be symmetric")
    try:
        chol = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "precision must be positive definite (its Cholesky factorization failed)"
        ) from exc
    return precision, chol


def exact_variances(precision: np.ndarray) -> np.ndarray:
    """Diagonal of the precision inverse, via Cholesky (refuses non-SPD input)."""
    _, chol = _validate_spd(precision)
    inv_chol = np.linalg.inv(chol)
    return (inv_chol ** 2).sum(axis=0)


def exact_dual_vertex_variances(m: GmrfModel) -> np.ndarray:
    """Exact Var(x~_v) under the dual model: diag(M^T Q^{-1} M)."""
    inc = build_incidence(m.graph).astype(np.float64)
    q = dual_precision(m)
    solved = np.linalg.solve(q, inc)
    return np.einsum("ev,ev->v", inc, solved)


def map_variance_dual_to_primal(sigma: float, var_d) -> np.ndarray:
    """sigma^2 (1 - sigma^2 var_d): the primal marginal variance implied by Var(x~_v).

    Exact when var_d is exact (Woodbury); for estimates, values with
    sigma^2 * var_d >= 1 are inconsistent with any valid primal variance and
    are refused.
    """
    var_d = np.asarray(var_d, dtype=np.float64)
    if np.any(sigma ** 2 * var_d >= 1.0):
        raise ValueError(
            "sigma^2 * var_d >= 1: dual variance estimate admits no positive "
            "primal variance"
        )
    return sigma ** 2 * (1.0 - sigma ** 2 * var_d)


@dataclass
class GaussianGibbsResult:
    """Mean-of-squares variance estimates from one heat-bath chain.

    The model is zero-mean, so variances are estimated as plain second
    moments.  `trajectory` holds the site-averaged running estimate after
    each retained sweep; `derived_*` fields are present when a linear
    statistic T @ state was tracked alongside the chain.
    """

    variances: np.ndarray
    trajectory: np.ndarray
    derived_variances: np.ndarray | None = None
    derived_trajectory: np.ndarray | None = None


def _invert_lower(p: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the lower triangle of p (diagonal included) into out.

    Blocked recursion: with T = [[A, 0], [C, B]], T^-1 = [[A^-1, 0],
    [-B^-1 C A^-1, B^-1]].  Reads only the lower triangle of p; out must be
    zero above its diagonal.
    """
    n = p.shape[0]
    if n == 1:
        out[0, 0] = 1.0 / p[0, 0]
        return
    h = n // 2
    _invert_lower(p[:h, :h], out[:h, :h])
    _invert_lower(p[h:, h:], out[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ p[h:, :h]) @ out[:h, :h]


def gibbs_gaussian(
    precision: np.ndarray,
    cfg: SamplerConfig,
    derived_transform: np.ndarray | None = None,
) -> GaussianGibbsResult:
    """Systematic-sweep heat bath for a zero-mean Gaussian with the given precision.

    Each update draws coordinate i from its exact conditional
    N(-sum_j P_ij x_j / P_ii, 1 / P_ii), in the order 0, 1, ..., n-1.  A
    sweep is computed as one stochastic Gauss-Seidel step (see the module
    docstring).  With derived_transform T, the second moments of T @ x are
    tracked as well (the dual chains use T = M^T to estimate Var(x~_v)).
    Refuses a precision that is not symmetric positive definite.
    """
    precision = _validate_spd(precision)[0]
    n = precision.shape[0]
    if cfg.sweep != "systematic":
        raise ValueError("gaussian chains implement the systematic sweep only")
    lower_inv = np.zeros_like(precision)
    _invert_lower(precision, lower_inv)
    rows, cols = np.nonzero(precision)
    upper = cols > rows
    rows, cols = rows[upper], cols[upper]
    upper_values = precision[rows, cols]
    noise_scale = np.sqrt(np.diag(precision))
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(n)
    burn = cfg.resolved_burn_in(n)
    total = burn + cfg.samples * cfg.thinning
    sumsq = np.zeros(n)
    trajectory = np.empty(cfg.samples)
    track = derived_transform is not None
    if track:
        t_mat = np.asarray(derived_transform, dtype=np.float64)
        d_sumsq = np.zeros(t_mat.shape[1]) if t_mat.ndim == 2 else np.zeros(1)
        d_trajectory = np.empty(cfg.samples)
    retained = 0
    for sweep in range(total):
        rhs = noise_scale * rng.standard_normal(n)
        rhs -= np.bincount(rows, weights=upper_values * x[cols], minlength=n)
        x = lower_inv @ rhs
        if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
            sumsq += x ** 2
            retained += 1
            trajectory[retained - 1] = sumsq.mean() / retained
            if track:
                derived = x @ t_mat
                d_sumsq += derived ** 2
                d_trajectory[retained - 1] = d_sumsq.mean() / retained
    result = GaussianGibbsResult(sumsq / retained, trajectory)
    if track:
        result.derived_variances = d_sumsq / retained
        result.derived_trajectory = d_trajectory
    return result


def gmrf_primal_gibbs(m: GmrfModel, cfg: SamplerConfig) -> GaussianGibbsResult:
    return gibbs_gaussian(primal_precision(m), cfg)


def gmrf_dual_gibbs(m: GmrfModel, cfg: SamplerConfig) -> GaussianGibbsResult:
    """Dual chain over |E| edge variables, tracking the vertex statistic x~."""
    inc = build_incidence(m.graph).astype(np.float64)
    return gibbs_gaussian(dual_precision(m), cfg, derived_transform=inc)
