"""Local DFT mappings between primal and dual marginals, their fixed points and bounds.

The central identity: at every edge, (pi_p(a)/psi(a), a in A) is the forward
DFT of (pi_d(a)/psi~(a), a in A), and the same holds per vertex with the
phi tables.  The map is fully local -- it sees only the one marginal and the
two tables at its site -- and it preserves the unit sum of its input exactly,
so mapped sampler estimates stay normalized.  `map_marginals` maps a whole
`Marginals` record at once; `map_dual_to_primal`/`map_primal_to_dual` one site.
"""

from __future__ import annotations

import math
from contextlib import suppress

import numpy as np

from .graphs import Alphabet
from .nfg import (DUAL, PRIMAL, Marginals, MarginalVector, PrimalNFG, SingularMapError,
                  _SINGULAR_CAUSE, _coupling, _potts_edge, _potts_weights, _rounding,
                  _truncate_imag, dft_table, dualize)

ISING_CRITICAL = math.log(1.0 + math.sqrt(2.0)) / 2.0
CLOCK4_CRITICAL = math.log(1.0 + math.sqrt(2.0))


def potts_critical(q: int) -> float:
    """Phase-transition coupling ln(1 + sqrt(q)) of the 2D homogeneous q-state model."""
    return math.log(1.0 + math.sqrt(q))


def _table(obj) -> np.ndarray:
    return np.asarray(obj, dtype=np.complex128)


def _marginal_values(mv, domain: str) -> tuple:
    """(values, site, role) of a per-site marginal; a bare array is an edge's."""
    if isinstance(mv, MarginalVector):
        kind, index = mv.site
        role = f"{domain} {kind}" if index < 0 else f"{domain} {kind} {index}"
        return mv.values, mv.site, role
    return np.asarray(mv, dtype=np.complex128), ("edge", -1), f"{domain} edge"


def _map_rows(values, source, target, role: str, inverse: bool = False) -> np.ndarray:
    """Local map of every row at once: target * DFT(values / source).

    The forward DFT carries dual marginals to primal ones; inverse=True
    applies the inverse DFT, with its 1/q, for the way back.  All three
    arguments are (n, q) arrays; a row of `source` with a zero entry, up to
    rounding (see nfg._rounding), is refused in the name of role, "<domain> <kind>[ <index>]".
    """
    if not (values.shape[-1] == source.shape[-1] == target.shape[-1]):
        raise ValueError("marginal and factor tables must share one alphabet size")
    if values.shape != source.shape:
        raise ValueError(f"{role} marginals: the record has {len(values)} sites, "
                         f"the model {len(source)}")
    bad = (np.abs(source) < _rounding(source)).any(axis=1)
    if bad.any():
        where = "" if len(source) == 1 else f" {int(np.argmax(bad))}"
        raise SingularMapError(f"{role} table{where} has a zero entry; the local map is "
                               f"singular ({_SINGULAR_CAUSE[tuple(role.split()[:2])]})")
    q = values.shape[1]
    w = Alphabet(q).dft_matrix()
    if inverse:
        return _truncate_imag(target * ((values / source) @ np.conj(w).T) / q)
    return _truncate_imag(target * ((values / source) @ w.T))


def map_dual_to_primal(mv, primal_table, dual_table) -> MarginalVector:
    """Transform a dual marginal at one site into the primal marginal there.

    pi_p(a) = psi(a) * sum_a' (pi_d(a') / psi~(a')) * omega**(a a'), with
    omega = exp(-2 pi i / q).  Requires every psi~(a) != 0.
    """
    values, site, role = _marginal_values(mv, DUAL)
    psi, psit = _table(primal_table), _table(dual_table)
    out = _map_rows(values[None], psit[None], psi[None], role)
    return MarginalVector(out[0], site, PRIMAL)


def map_primal_to_dual(mv, primal_table, dual_table) -> MarginalVector:
    """Inverse transform: pi_d(a) = psi~(a) * (1/q) sum_a' (pi_p(a')/psi(a')) omega**(-a a').

    Exact inverse of map_dual_to_primal; requires every psi(a) != 0.
    """
    values, site, role = _marginal_values(mv, PRIMAL)
    psi, psit = _table(primal_table), _table(dual_table)
    out = _map_rows(values[None], psi[None], psit[None], role, inverse=True)
    return MarginalVector(out[0], site, DUAL)


def map_marginals(record: Marginals, p: PrimalNFG) -> Marginals:
    """Carry a record of p, or of p's dual, to the other domain, every site at once.

    A singular edge map raises SingularMapError; a singular vertex map, or no
    vertex values, gives vertex_values=None.  converged is kept, and a dual
    record becomes the result's dual_estimates."""
    inverse = record.domain == PRIMAL
    source, target = (p, dualize(p)) if inverse else (dualize(p), p)
    edge_values = _map_rows(record.edge_values, source.edge_tables, target.edge_tables,
                            f"{record.domain} edge", inverse)
    vertex_values = None
    if record.vertex_values is not None:
        with suppress(SingularMapError):
            vertex_values = _map_rows(record.vertex_values, source.vertex_tables,
                                      target.vertex_tables, f"{record.domain} vertex", inverse)
    return Marginals(edge_values, vertex_values, target.domain, converged=record.converged,
                     dual_estimates=None if inverse else record)


def _unit_scale(table: np.ndarray) -> np.ndarray:
    """table over its largest magnitude; an all-zero table as it is."""
    scale = np.abs(table).max(initial=0.0)
    return table / scale if scale > 0 else table


def fixed_point(primal_table, dual_table) -> np.ndarray:
    """The marginal vector invariant under the map: pi*(a) = psi(a) psi~(a) / S, S the
    sum of the products, each table scaled by its largest magnitude first, which leaves
    pi* as it is; an S that is zero or not finite is refused with a ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = _unit_scale(_table(primal_table)) * _unit_scale(_table(dual_table))
        total = prod.sum()
    if total == 0 or not np.isfinite(total):
        raise ValueError(f"the table products psi psi~ sum to {total}: "
                         "the fixed point has no normalization")
    return _truncate_imag(prod / total)


def _at_coupling(beta_j: float, primal_table, dual_table) -> np.ndarray:
    """The real fixed point of the edge tables at coupling bJ; a refusal names bJ."""
    try:
        return fixed_point(primal_table, dual_table).real
    except ValueError as err:
        raise ValueError(f"at coupling bJ = {beta_j}, {err}") from None


def _potts_tables(q: int, b: float) -> tuple:
    """A Potts edge's table and its DFT at coupling b, over max(1, e^b)
    (nfg._potts_weights), so they are finite at every b."""
    w0, w_other, m = _potts_weights(b)
    primal, dual = np.full(q, w_other), np.full(q, m)
    primal[0], dual[0] = w0, m + q * w_other
    return primal, dual


def ising_fixed_point(beta_j: float) -> np.ndarray:
    """Homogeneous binary fixed point [e^bJ cosh bJ, e^-bJ sinh bJ] / (1 + sinh 2bJ),
    the q = 2 Potts fixed point at 2 bJ, from t = e^-2|bJ|.

    For bJ < 0 the dual table 2 sinh bJ is signed, so the fixed point is a
    marginal function, with unit sum and a negative entry, not a PMF.
    """
    beta_j = _coupling(beta_j)
    return _at_coupling(beta_j, *_potts_tables(2, 2.0 * beta_j))


def potts_fixed_point(q: int, beta_j: float) -> np.ndarray:
    beta_j = _coupling(beta_j)
    return _at_coupling(beta_j, *_potts_tables(q, beta_j))


@np.errstate(over="ignore")
def clock_fixed_point(q: int, beta_j: float) -> np.ndarray:
    """The fixed point of the table exp(bJ cos(2 pi y / q)) over its largest entry,
    m + 1 with m = expm1(bJ (cos(2 pi y / q) - c)) and c the cosine that bJ cos weighs
    most.  The DFT of the constant 1 is q at 0 and vanishes elsewhere, so the table's
    DFT is that of m plus q at 0, and a weak coupling's small entries do not cancel."""
    beta_j = _coupling(beta_j)
    cos = np.cos(2 * np.pi * np.arange(q) / q)
    m = np.expm1(beta_j * (cos - (cos.max() if beta_j >= 0 else cos.min())))
    dual = dft_table(m, Alphabet(q))
    dual[0] += q
    return _at_coupling(beta_j, m + 1.0, dual)


def ising_lower_bounds(beta_j: float) -> tuple:
    """Ferromagnetic binary lower bounds (on pi_p,e(0), on pi_d,e(0)), the q = 2
    case of potts_lower_bounds at 2 bJ: (1 / (1 + e^-2bJ), (1 + e^-2bJ) / 2).

    Valid for any ferromagnetic model in a nonnegative field, independent of
    size and topology; their product is at least 1/2 and they intersect at
    the critical coupling ln(1 + sqrt(2)) / 2.
    """
    return _edge_bounds(2, 2.0 * _coupling(beta_j))


def potts_lower_bounds(q: int, beta_j: float) -> tuple:
    """q-state analogs (p0, 1 / (q p0)) of a lone edge's p0 = e^bJ / (e^bJ + q - 1)
    (nfg._potts_edge), defined at every finite bJ >= 0; product 1/q."""
    return _edge_bounds(q, _coupling(beta_j))


def _edge_bounds(q: int, b: float) -> tuple:
    if b < 0:
        raise ValueError("bounds hold for ferromagnetic couplings only")
    p0, _, _, z = _potts_edge(q, b)
    return p0, z / q  # z = 1 / p0 at b >= 0, and z / q rounds once


def magnetization_roundtrip(beta_j: float, delta_p=None, delta_d=None) -> tuple:
    """(Delta_p, Delta_d), the binary local magnetizations Delta = pi(0) - pi(1)
    in both domains, completed from either one.

    Delta_p = (cosh 2bJ - Delta_d) / sinh 2bJ, equivalently
    pi_p,e(0) = (e^{2bJ} - Delta_d) / (2 sinh 2bJ); consistent with mapping
    the vector [(1 + Delta_d)/2, (1 - Delta_d)/2] edge-locally.  Delta_p is taken
    as sign(bJ) (1 + t^2 - 2 Delta_d t) / (1 - t^2) with t = e^-2|bJ|, finite at
    every finite bJ != 0; Delta_d = cosh 2bJ - Delta_p sinh 2bJ is refused, naming
    bJ, where it is not finite.
    """
    if (delta_p is None) == (delta_d is None):
        raise ValueError("provide exactly one of delta_p, delta_d")
    beta_j = _coupling(beta_j)
    if beta_j == 0.0:
        raise SingularMapError("magnetization relation is singular at bJ = 0")
    if delta_p is None:
        t, one_minus_t = math.exp(-2.0 * abs(beta_j)), -math.expm1(-2.0 * abs(beta_j))
        # 1 + t^2 - 2 Delta_d t as (1 - t)^2 + 2 t (1 - Delta_d): no cancellation at |Delta_d| <= 1
        delta_p = (one_minus_t * one_minus_t + 2.0 * t * (1.0 - float(delta_d))) \
            / math.copysign(-math.expm1(-4.0 * abs(beta_j)), beta_j)
        return delta_p, float(delta_d)
    try:
        delta_d = math.cosh(2.0 * beta_j) - float(delta_p) * math.sinh(2.0 * beta_j)
    except OverflowError:
        delta_d = math.inf
    if not math.isfinite(delta_d):
        raise ValueError(f"at coupling bJ = {beta_j}, Delta_d = cosh 2bJ - Delta_p sinh 2bJ "
                         "is not finite")
    return float(delta_p), delta_d
