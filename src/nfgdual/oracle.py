"""Exact desk-scale ground truth by exhaustive enumeration, plus 1D closed forms.

Everything here is deliberately brute force: partition functions and marginals
are computed by summing over the full configuration space in either domain,
with a hard state-count budget instead of any approximation.  The chain/ring
closed forms provide an enumeration-free cross-check for 1D models.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graphs import Alphabet, Graph, scale_factor
from .nfg import DualNFG, MarginalVector, PrimalNFG, _factor_view, dft_table, dualize

DEFAULT_BUDGET = 2 ** 26
BUDGET_ENV_VAR = "NFG_DUAL_BUDGET"
_CHUNK = 1 << 17


class EnumerationBudgetError(RuntimeError):
    """The configuration space exceeds the enumeration budget; refuse, never truncate."""


def enumeration_budget(budget: int | None = None) -> int:
    """Effective state budget: explicit argument, else NFG_DUAL_BUDGET, else 2**26."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_BUDGET


def _check_budget(num_states: int, budget: int | None, what: str) -> None:
    limit = enumeration_budget(budget)
    if num_states > limit:
        raise EnumerationBudgetError(
            f"{what} needs {num_states} states, over the budget of {limit}; "
            f"shrink the model or raise {BUDGET_ENV_VAR}"
        )


@dataclass
class OracleMarginals:
    """Partition function plus every edge and vertex marginal of one domain."""

    partition: complex
    edge_values: np.ndarray    # (|E|, q) complex
    vertex_values: np.ndarray  # (|V|, q) complex
    domain: str

    def edge(self, e: int) -> MarginalVector:
        return MarginalVector(self.edge_values[e], ("edge", e), self.domain)

    def vertex(self, v: int) -> MarginalVector:
        return MarginalVector(self.vertex_values[v], ("vertex", v), self.domain)


def _enumerate(model, budget=None, skip_factor: int | None = None):
    """One pass over every configuration of the model's free variables.

    Returns (Z, sums), where row i of sums accumulates the weight of each
    configuration at factor i's argument (factor numbering of _factor_view:
    edge rows first, then vertex rows).  With skip_factor set, that factor's
    table is struck from the product, so for an edge e its row is the
    extrinsic vector S_e.
    """
    scopes, num_vars, tables = _factor_view(model)
    q = model.alphabet.q
    total = q ** num_vars
    _check_budget(total, budget, f"{model.domain} enumeration")
    # A factor reading one variable with sign +1 takes that variable's digit
    # row as it is; the others get their signed sums from one matmul.
    direct = [vs[0] if ss == (1,) else None for vs, ss in scopes]
    summed = [i for i, var in enumerate(direct) if var is None]
    signs = np.zeros((len(summed), num_vars), dtype=np.int64)
    for row, i in enumerate(summed):
        for var, sign in zip(*scopes[i]):
            signs[row, var] += sign
    powers = q ** np.arange(num_vars, dtype=np.int64)
    sums = np.zeros((len(scopes), q), dtype=np.complex128)
    z = 0.0 + 0.0j
    for lo in range(0, total, _CHUNK):
        digits = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64) // powers[:, None]
        digits %= q
        rows = signs @ digits
        rows %= q
        args = [None if var is None else digits[var] for var in direct]
        for row, i in enumerate(summed):
            args[i] = rows[row]
        w = np.ones(digits.shape[1], dtype=np.complex128)
        for i, arg in enumerate(args):
            if i != skip_factor:
                w *= tables[i][arg]
        z += w.sum()
        for i, arg in enumerate(args):
            np.add.at(sums[i], arg, w)
    return z, sums


def _marginals(model, budget, norm: float = 1.0) -> OracleMarginals:
    z, sums = _enumerate(model, budget)
    e = model.graph.num_edges
    return OracleMarginals(z * norm, sums[:e] / z, sums[e:] / z, model.domain)


def _dual_indicator_norm(g: Graph, a: Alphabet) -> float:
    """Normalization q**(1-|V|) carried by the dualized equality indicators.

    The DFT of a degree-d equality indicator is q times a zero-sum indicator;
    folding the resulting per-vertex constants into the partition function is
    what makes Z_dual = q**betti * Z_primal hold exactly.  Marginals are
    ratios, so they never see this constant.
    """
    return float(a.q) ** (1 - g.num_vertices)


def partition_primal(p: PrimalNFG, budget: int | None = None) -> complex:
    """Exact primal partition function by enumeration over A^|V|."""
    return _enumerate(p, budget)[0]


def partition_dual(d: DualNFG, budget: int | None = None) -> complex:
    """Exact dual partition function by enumeration over A^|E|.

    Includes the dualized-indicator normalization q**(1-|V|) (see
    _dual_indicator_norm), so partition_dual(dualize(p)) equals
    scale_factor(g, a) * partition_primal(p) for symmetric factor tables.
    """
    return _enumerate(d, budget)[0] * _dual_indicator_norm(d.graph, d.alphabet)


def duality_check(p: PrimalNFG, budget: int | None = None) -> float:
    """Relative residual |Z_d - alpha * Z_p| / |Z_p| of the duality theorem."""
    zp = partition_primal(p, budget)
    zd = partition_dual(dualize(p), budget)
    alpha = scale_factor(p.graph, p.alphabet)
    return abs(zd - alpha * zp) / abs(zp)


def marginals_primal(p: PrimalNFG, budget: int | None = None) -> OracleMarginals:
    """All primal edge and vertex marginals in a single enumeration pass."""
    return _marginals(p, budget)


def marginals_dual(d: DualNFG, budget: int | None = None) -> OracleMarginals:
    """All dual edge and vertex marginals (marginal functions if d is signed)."""
    return _marginals(d, budget, _dual_indicator_norm(d.graph, d.alphabet))


def extrinsic_vector(p: PrimalNFG, e: int, budget: int | None = None) -> np.ndarray:
    """S_e(a): enumeration with psi_e struck out, summed over configs with y_e = a.

    The sum-product rule Z_p = sum_a S_e(a) psi_e(a) holds at every edge.
    """
    return _enumerate(p, budget, skip_factor=e)[1][e]


def intermediate_dual_partition(p: PrimalNFG, e: int, budget: int | None = None) -> np.ndarray:
    """Z_d^I(a): dual partition with psi~_e replaced by the DFT of delta(y - a).

    Satisfies Z_d^I(a) = alpha * S_e(a) for every a.
    """
    a = p.alphabet
    d = dualize(p)
    out = np.zeros(a.q, dtype=np.complex128)
    for val in range(a.q):
        delta = np.zeros(a.q, dtype=np.complex128)
        delta[val] = 1.0
        tables = d.edge_tables.copy()
        tables[e] = dft_table(delta, a)
        modified = DualNFG(d.graph, a, tables, d.vertex_tables)
        out[val] = partition_dual(modified, budget)
    return out


# -- Closed forms for 1D models --------------------------------------------------


def _tanh_product(values: np.ndarray) -> float:
    """prod tanh(bJ_e), in log space when every factor is positive."""
    t = np.tanh(np.asarray(values, dtype=np.float64))
    if np.all(t > 0):
        return float(np.exp(np.log(t).sum()))
    if len(t) > 64:
        raise ValueError("signed closed-form products are capped at 64 edges")
    return float(np.prod(t))


@dataclass
class ChainIsingMarginals:
    """Closed-form per-edge marginals of a zero-field 1D Ising chain or ring."""

    edge_primal: list    # MarginalVector per edge
    edge_dual: list
    vertex_primal: list  # uniform [1/2, 1/2] by symmetry
    vertex_dual: list    # delta at 0: the dual vertex statistic vanishes


def chain_ising_marginals(couplings, boundary: str = "free") -> ChainIsingMarginals:
    """Exact zero-field 1D Ising marginals, free or periodic boundary.

    Free boundary: the dual has a single valid configuration, so
    pi_d,e = [1, 0] and pi_p,e(0) = e^bJ / (2 cosh bJ).  Periodic boundary
    keeps two valid dual configurations, weighted by the tanh product.
    """
    bj = np.asarray(couplings, dtype=np.float64)
    n = len(bj)
    if boundary not in ("free", "periodic"):
        raise ValueError(f"boundary must be 'free' or 'periodic', got {boundary!r}")
    if boundary == "periodic" and n < 3:
        raise ValueError("a simple ring needs at least 3 edges")
    edge_primal, edge_dual = [], []
    if boundary == "free":
        for e, b in enumerate(bj):
            p0 = np.exp(b) / (2 * np.cosh(b))
            edge_primal.append(MarginalVector([p0, 1 - p0], ("edge", e), "primal"))
            edge_dual.append(MarginalVector([1.0, 0.0], ("edge", e), "dual"))
        num_vertices = n + 1
    else:
        full = _tanh_product(bj)
        for e, b in enumerate(bj):
            rest = _tanh_product(np.delete(bj, e))
            d0 = 1.0 / (1.0 + full)
            edge_dual.append(MarginalVector([d0, 1 - d0], ("edge", e), "dual"))
            p0 = np.exp(b) / (2 * np.cosh(b)) * (1 + rest) / (1 + full)
            p1 = np.exp(-b) / (2 * np.cosh(b)) * (1 - rest) / (1 + full)
            edge_primal.append(MarginalVector([p0, p1], ("edge", e), "primal"))
        num_vertices = n
    vertex_primal = [
        MarginalVector([0.5, 0.5], ("vertex", v), "primal") for v in range(num_vertices)
    ]
    vertex_dual = [
        MarginalVector([1.0, 0.0], ("vertex", v), "dual") for v in range(num_vertices)
    ]
    return ChainIsingMarginals(edge_primal, edge_dual, vertex_primal, vertex_dual)


def ring_potts_marginals(q: int, beta_j: float, num_edges: int):
    """Closed-form homogeneous q-state ring marginals: (primal, dual) pair.

    In the dual there are exactly q valid configurations; the all-zeros one
    contributes (e^bJ + q - 1)^n and each of the remaining q-1 contributes
    (e^bJ - 1)^n.
    """
    if num_edges < 3:
        raise ValueError("a simple ring needs at least 3 edges")
    n = num_edges
    a, b = np.exp(beta_j) + q - 1.0, np.exp(beta_j) - 1.0
    zd = a ** n + (q - 1) * b ** n
    dual = np.full(q, b ** n / zd, dtype=np.complex128)
    dual[0] = a ** n / zd
    primal = np.full(q, (a ** (n - 1) - b ** (n - 1)) / zd, dtype=np.complex128)
    primal[0] = np.exp(beta_j) * (a ** (n - 1) + (q - 1) * b ** (n - 1)) / zd
    return (
        MarginalVector(primal, ("edge", 0), "primal"),
        MarginalVector(dual, ("edge", 0), "dual"),
    )
