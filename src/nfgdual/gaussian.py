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

Both precisions are scattered from the edge list (Rue & Held, *Gaussian
Markov Random Fields*, 2005, ch. 2): the Laplacian M^T M has the degrees on
its diagonal and -1 at each edge's two vertex pairs, and the gram M M^T adds,
for each ordered pair of edge ends at a common vertex, the product of their
signs.  Every entry is a small integer sum, so the matrices equal the dense
incidence products bit for bit.

The Gibbs chains are systematic-scan heat baths.  Such a sweep over a
precision P = D + L + U (diagonal, strict lower and strict upper triangle) is
one stochastic Gauss-Seidel step, (D + L) x_new = sqrt(D) z - U x_old, with z
the sweep's standard normals (Goodman & Sokal, Phys. Rev. D 1989).  Each sweep
is therefore one sparse product with U and one product with the inverse of the
lower triangle, built once per chain: the same chain as the site-by-site
update, fed the same normals in the same order.  The inverse comes from a
blocked recursion whose blocks of at most 32 rows LAPACK inverts whole.  The
normals are drawn _BLOCK sweeps at a time (the same stream as one draw per
sweep), and the retained states of a block are squared, summed into the
running totals and multiplied by a tracked statistic together, so the
buffers stay _BLOCK rows long whatever the number of retained sweeps.

The exact variances come from the Cholesky factor C of the precision,
inverted with the same recursion: diag(P^-1) is the column sums of (C^-1)^2,
and the dual vertex variances diag(M^T Q^-1 M) the column sums of
(C^-1 M)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, build_incidence
from .samplers import SamplerConfig


# Sweeps per block of normals and of retained states: bounds the chains' buffers.
_BLOCK = 64
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
            value = getattr(self, name)
            square = float(value) * float(value)
            if not (value > 0 and 0 < square < math.inf and 1 / square < math.inf):
                raise ValueError(f"{name} must be positive with a finite square and "
                                 f"reciprocal square, not {value!r}")


def primal_precision(m: GmrfModel) -> np.ndarray:
    """(1/s^2) M^T M + (1/sigma^2) I, SPD of dimension |V|.

    The Laplacian M^T M is scattered from the edge list: the degrees on the
    diagonal, -1 at (tail, head) and (head, tail).
    """
    nv = m.graph.num_vertices
    ends = np.array(m.graph.edges, dtype=np.intp).reshape(-1, 2)
    precision = np.zeros((nv, nv))
    precision[ends[:, 0], ends[:, 1]] = precision[ends[:, 1], ends[:, 0]] = -1.0
    diag = np.arange(nv)
    precision[diag, diag] = np.bincount(ends.ravel(), minlength=nv)
    precision /= m.s ** 2
    precision[diag, diag] += 1 / m.sigma ** 2
    return precision


def dual_precision(m: GmrfModel) -> np.ndarray:
    """s^2 I + sigma^2 M M^T, SPD of dimension |E|.

    The gram M M^T is scattered from the edge ends: each ordered pair of ends
    at a common vertex adds the product of their signs at (edge, edge).
    """
    g, ne = m.graph, m.graph.num_edges
    ends = np.array(g.edges, dtype=np.intp).reshape(ne, 2).T.ravel()  # tails, then heads
    order = np.argsort(ends, kind="stable")  # the ends grouped by vertex
    vertex, edge, sign = ends[order], order % ne, np.where(order < ne, 1.0, -1.0)
    degree = np.bincount(vertex, minlength=g.num_vertices)[vertex]
    first = np.repeat(np.arange(2 * ne), degree)  # each end, once per end at its vertex
    # partner j of an end is the j-th end at its vertex
    rank = np.arange(len(first)) - np.repeat(np.cumsum(degree) - degree, degree)
    second = np.searchsorted(vertex, vertex)[first] + rank
    # bincount returns integers when there are no edges
    precision = np.bincount(edge[first] * ne + edge[second], weights=sign[first] * sign[second],
                            minlength=ne * ne).reshape(ne, ne).astype(np.float64, copy=False)
    precision *= m.sigma ** 2
    diag = np.arange(ne)
    precision[diag, diag] += m.s ** 2
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
    try:
        chol = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "precision must be positive definite (its Cholesky factorization failed)"
        ) from exc
    return precision, chol


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
    return _inverse_columns_sq(np.linalg.cholesky(dual_precision(m)), inc)


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


def _accumulate(block: np.ndarray, sumsq: np.ndarray, trajectory: np.ndarray, done: int) -> None:
    """Add a block of retained rows to the running sums of squares, in place.

    Row j of the block is retained state done + j; its site-averaged running
    estimate goes to trajectory[done + j].  The sums run row by row from the
    carried sumsq, in the order of one update per retained sweep.
    """
    sq = block ** 2
    sq[0] += sumsq
    np.cumsum(sq, axis=0, out=sq)
    trajectory[done:done + len(sq)] = sq.mean(axis=1) / np.arange(done + 1, done + len(sq) + 1)
    sumsq[:] = sq[-1]


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
    if cfg.sweep != "systematic":
        raise ValueError("gaussian chains implement the systematic sweep only")
    _invert_lower(precision, lower_inv)
    rows, cols = np.divmod(np.flatnonzero(precision != 0), n)
    upper = cols > rows
    rows, cols = rows[upper], cols[upper]
    upper_values = precision[rows, cols]
    noise_scale = np.sqrt(np.diag(precision))
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(n)
    burn = cfg.resolved_burn_in(n)
    total = burn + cfg.samples * cfg.thinning
    kept = np.empty((min(_BLOCK, cfg.samples), n))
    sumsq = np.zeros(n)
    trajectory = np.empty(cfg.samples)
    track = derived_transform is not None
    if track:
        t_mat = np.asarray(derived_transform, dtype=np.float64)
        if t_mat.ndim == 1:
            t_mat = t_mat[:, None]
        d_sumsq = np.zeros(t_mat.shape[1])
        d_trajectory = np.empty(cfg.samples)
    retained = 0
    for start in range(0, total, _BLOCK):
        noise = rng.standard_normal((min(_BLOCK, total - start), n))
        noise *= noise_scale
        fill = 0
        for sweep, z in enumerate(noise, start):
            x = lower_inv @ (z - np.bincount(rows, weights=upper_values * x[cols], minlength=n))
            if sweep >= burn and (sweep - burn) % cfg.thinning == 0:
                kept[fill] = x
                fill += 1
        if fill:
            _accumulate(kept[:fill], sumsq, trajectory, retained)
            if track:
                _accumulate(kept[:fill] @ t_mat, d_sumsq, d_trajectory, retained)
            retained += fill
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
