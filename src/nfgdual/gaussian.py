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

Both precisions are one Gram of the incidence entries (Rue & Held,
*Gaussian Markov Random Fields*, 2005, ch. 2): each ordered pair of entries
in a common group adds the product of their signs at (index, index).
Grouped by edge, the entries give the Laplacian M^T M over vertices; grouped
by vertex, the gram M M^T over edges.  Every entry is a small integer sum, so
the matrices equal the dense incidence products bit for bit.

The Gibbs chains are systematic-scan heat baths.  Such a sweep over a
precision P = D + L + U (diagonal, strict lower and strict upper triangle) is
one stochastic Gauss-Seidel step, (D + L) x_new = sqrt(D) z - U x_old, with z
the sweep's standard normals (Goodman & Sokal, Phys. Rev. D 1989).  Each
sweep is therefore one sparse product with U and one product with the inverse
of the lower triangle, built once per chain: the same chain as the
site-by-site update, fed the same normals in the same order.  The inverse
comes from a blocked recursion whose blocks of at most 32 rows LAPACK inverts
whole.  The chain runs on `samplers._run_chain`, the driver of burn-in,
thinning and retention that the discrete chains use too.  Its sweep draws the
normals of _BLOCK sweeps at once (the same stream as one draw per sweep); its
tally squares and sums a block of retained states and their tracked statistic,
and records each state's site average for the trajectory.  So the buffers stay
_BLOCK rows long whatever the number of retained sweeps.

The exact variances come from the Cholesky factor C of the precision,
inverted with the same recursion: diag(P^-1) is the column sums of (C^-1)^2,
and the dual vertex variances diag(M^T Q^-1 M) the column sums of
(C^-1 M)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _incidence_entries, build_incidence
from .samplers import _BLOCK, SamplerConfig, _run_chain


# Rows of the largest triangle that _invert_lower hands to LAPACK whole.
_LEAF = 32


@dataclass(frozen=True)
class GmrfModel:
    """Graph plus intervariable std s and vertex std sigma.

    Both must be positive with a finite square and a finite reciprocal square,
    the factors that the precisions and the variance map scale by.
    """

    graph: Graph
    s: float
    sigma: float

    def __post_init__(self):
        for name in ("s", "sigma"):
            _check_scale(name, getattr(self, name))


def _check_scale(name: str, value: float) -> None:
    """Refuse a std that is not positive with a finite square and reciprocal square."""
    square = float(value) * float(value)
    if not (value > 0 and 0 < square < math.inf and 1 / square < math.inf):
        raise ValueError(f"{name} must be positive and finite, with a finite square and "
                         f"reciprocal square, not {value!r}")


def _gram(group: np.ndarray, index: np.ndarray, sign: np.ndarray, n: int) -> np.ndarray:
    """The n x n float matrix whose entry (i, j) sums sign[a] * sign[b] over
    the ordered pairs of entries a, b in a common group with index i and j."""
    order = np.argsort(group, kind="stable")  # the entries, grouped
    group, index, sign = group[order], index[order], sign[order]
    size = np.bincount(group)[group]
    first = np.repeat(np.arange(len(group)), size)  # each entry, once per entry in its group
    # partner j of an entry is the j-th entry of its group
    rank = np.arange(len(first)) - np.repeat(np.cumsum(size) - size, size)
    second = np.searchsorted(group, group)[first] + rank
    # bincount returns integers when there are no entries
    return np.bincount(index[first] * n + index[second], weights=sign[first] * sign[second],
                       minlength=n * n).reshape(n, n).astype(np.float64, copy=False)


def primal_precision(m: GmrfModel) -> np.ndarray:
    """(1/s^2) M^T M + (1/sigma^2) I, SPD of dimension |V|.

    The Laplacian M^T M is the Gram of the incidence entries grouped by edge.
    """
    edge, vertex, sign = _incidence_entries(m.graph)
    precision = _gram(edge, vertex, sign, m.graph.num_vertices)
    precision /= m.s ** 2
    precision.flat[::len(precision) + 1] += 1 / m.sigma ** 2
    return precision


def dual_precision(m: GmrfModel) -> np.ndarray:
    """s^2 I + sigma^2 M M^T, SPD of dimension |E|.

    The gram M M^T is the Gram of the incidence entries grouped by vertex.
    """
    edge, vertex, sign = _incidence_entries(m.graph)
    precision = _gram(vertex, edge, sign, m.graph.num_edges)
    precision *= m.sigma ** 2
    precision.flat[::len(precision) + 1] += m.s ** 2
    return precision


def _validate_spd(precision: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The precision as a float array and its Cholesky factor.

    Refuses a non-square, non-finite, asymmetric or not positive definite
    matrix; the last raises LinAlgError, which is a ValueError.
    """
    precision = np.asarray(precision, dtype=np.float64)
    if precision.ndim != 2 or precision.shape[0] != precision.shape[1] or not precision.size:
        raise ValueError("precision must be a non-empty square matrix")
    top, bottom = precision.max(), precision.min()
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise ValueError("precision must be finite")
    # P - P^T is antisymmetric, so its largest entry is its largest magnitude
    if (precision - precision.T).max() > 1e-12 * max(1.0, top, -bottom):
        raise ValueError("precision must be symmetric")
    return precision, _cholesky(precision)


def _cholesky(precision: np.ndarray) -> np.ndarray:
    """The Cholesky factor of a symmetric precision; one that is not positive
    definite is refused with LinAlgError, which is a ValueError."""
    try:
        return np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "precision must be positive definite (its Cholesky factorization failed)"
        ) from exc


def _inverse_columns_sq(chol: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """Column sums of (C^-1 R)^2 for a Cholesky factor C (R = I when omitted).

    With P = C C^T these are the diagonal of R^T P^-1 R.  C is overwritten
    with its inverse.
    """
    _invert_lower(chol, chol)
    solved = chol if rhs is None else chol @ rhs
    return np.einsum("ev,ev->v", solved, solved)


def exact_variances(precision: np.ndarray) -> np.ndarray:
    """Diagonal of the precision inverse, via Cholesky (refuses non-SPD input)."""
    return _inverse_columns_sq(_validate_spd(precision)[1])


def exact_dual_vertex_variances(m: GmrfModel) -> np.ndarray:
    """Exact Var(x~_v) under the dual model: diag(M^T Q^{-1} M), via Cholesky."""
    inc = build_incidence(m.graph).astype(np.float64)
    return _inverse_columns_sq(_cholesky(dual_precision(m)), inc)


def map_variance_dual_to_primal(sigma: float, var_d) -> np.ndarray:
    """sigma^2 (1 - sigma^2 var_d): the primal marginal variance implied by Var(x~_v).

    Exact when var_d is exact (Woodbury).  A sigma that GmrfModel refuses
    (not positive, or with a square or reciprocal square that is not finite)
    is refused, and so are var_d values that are negative, not finite or have
    sigma^2 * var_d >= 1: no valid primal variance is consistent with them.
    """
    _check_scale("sigma", sigma)
    var_d = np.asarray(var_d, dtype=np.float64)
    if not ((0 <= var_d) & (sigma ** 2 * var_d < 1.0)).all():
        raise ValueError(
            "var_d must be finite and nonnegative with sigma^2 * var_d < 1: a dual "
            "variance estimate outside that range admits no positive primal variance"
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
    [-B^-1 C A^-1, B^-1]], down to blocks of at most _LEAF rows, which LAPACK
    inverts directly.  Reads only the lower triangle of p; out must be zero
    above its diagonal, and may be p itself.
    """
    n = p.shape[0]
    if n <= _LEAF:
        out[...] = np.tril(np.linalg.inv(np.tril(p)))
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
    # the Cholesky factor is zero above its diagonal, so its memory can hold (D + L)^-1
    precision, lower_inv = _validate_spd(precision)
    n = precision.shape[0]
    _invert_lower(precision, lower_inv)
    rows, cols = np.divmod(np.flatnonzero(precision != 0), n)
    upper = cols > rows
    rows, cols = rows[upper], cols[upper]
    upper_values = precision[rows, cols]
    noise_scale = np.sqrt(np.diag(precision))
    rng = np.random.default_rng(cfg.seed)
    track = derived_transform is not None
    if track:
        t_mat = np.asarray(derived_transform, dtype=np.float64)
        t_mat = t_mat[:, None] if t_mat.ndim == 1 else t_mat
    x, noise = np.zeros(n), None
    averages = []  # site-averaged squares of each block's states, then of their statistic

    def sweep(s: int) -> np.ndarray:
        nonlocal x, noise
        if s % _BLOCK == 0:
            noise = rng.standard_normal((_BLOCK, n)) * noise_scale
        x = lower_inv @ (noise[s % _BLOCK]
                         - np.bincount(rows, weights=upper_values * x[cols], minlength=n))
        return x

    def tally(states: list) -> np.ndarray:
        """Summed squares of the states and of their statistic T @ x."""
        block = np.array(states).reshape(len(states), n)
        squares = [block ** 2, (block @ t_mat) ** 2] if track else [block ** 2]
        averages.append([sq.mean(axis=1) for sq in squares])
        return np.concatenate([sq.sum(axis=0) for sq in squares])

    means = _run_chain(cfg, n, sweep, tally)
    retained = np.arange(1, cfg.samples + 1)
    trajectories = [np.cumsum(np.concatenate(blocks)) / retained for blocks in zip(*averages)]
    if track:
        return GaussianGibbsResult(means[:n], trajectories[0], means[n:], trajectories[1])
    return GaussianGibbsResult(means, trajectories[0])


def gmrf_primal_gibbs(m: GmrfModel, cfg: SamplerConfig) -> GaussianGibbsResult:
    return gibbs_gaussian(primal_precision(m), cfg)


def gmrf_dual_gibbs(m: GmrfModel, cfg: SamplerConfig) -> GaussianGibbsResult:
    """Dual chain over |E| edge variables, tracking the vertex statistic x~."""
    if not m.graph.num_edges:
        raise ValueError("the dual chain samples the edge variables, and the graph has no edges")
    inc = build_incidence(m.graph).astype(np.float64)
    return gibbs_gaussian(dual_precision(m), cfg, derived_transform=inc)
