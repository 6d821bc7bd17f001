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
                  _SINGULAR_CAUSE, _rounding, _truncate_imag, clock_edge_table, dft_table, dualize,
                  ising_dual_edge_table, ising_edge_table, potts_dual_edge_table,
                  potts_edge_table)

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


def fixed_point(primal_table, dual_table) -> np.ndarray:
    """The marginal vector invariant under the map: pi*(a) = psi(a) psi~(a) / S."""
    prod = _table(primal_table) * _table(dual_table)
    return _truncate_imag(prod / prod.sum())


def ising_fixed_point(beta_j: float) -> np.ndarray:
    """Homogeneous binary fixed point [e^bJ cosh bJ, e^-bJ sinh bJ] / (1 + sinh 2bJ)."""
    return fixed_point(ising_edge_table(beta_j), ising_dual_edge_table(beta_j)).real


def potts_fixed_point(q: int, beta_j: float) -> np.ndarray:
    return fixed_point(potts_edge_table(q, beta_j), potts_dual_edge_table(q, beta_j)).real


def clock_fixed_point(q: int, beta_j: float) -> np.ndarray:
    t = clock_edge_table(q, beta_j)
    return fixed_point(t, dft_table(t, Alphabet(q))).real


def ising_lower_bounds(beta_j: float) -> tuple:
    """Ferromagnetic binary lower bounds (on pi_p,e(0), on pi_d,e(0)).

    Valid for any ferromagnetic model in a nonnegative field, independent of
    size and topology; their product is at least 1/2 and they intersect at
    the critical coupling ln(1 + sqrt(2)) / 2.
    """
    if beta_j < 0:
        raise ValueError("bounds hold for ferromagnetic couplings only")
    e2 = math.exp(-2.0 * beta_j)
    return 1.0 / (1.0 + e2), (1.0 + e2) / 2.0


def potts_lower_bounds(q: int, beta_j: float) -> tuple:
    """q-state analogs: (e^bJ/(e^bJ - 1 + q), (e^bJ - 1 + q)/(q e^bJ)); product >= 1/q."""
    if beta_j < 0:
        raise ValueError("bounds hold for ferromagnetic couplings only")
    ebj = math.exp(beta_j)
    return ebj / (ebj - 1.0 + q), (ebj - 1.0 + q) / (q * ebj)


def magnetization_roundtrip(beta_j: float, delta_p=None, delta_d=None) -> tuple:
    """(Delta_p, Delta_d), the binary local magnetizations Delta = pi(0) - pi(1)
    in both domains, completed from either one.

    Delta_p = (cosh 2bJ - Delta_d) / sinh 2bJ, equivalently
    pi_p,e(0) = (e^{2bJ} - Delta_d) / (2 sinh 2bJ); consistent with mapping
    the vector [(1 + Delta_d)/2, (1 - Delta_d)/2] edge-locally.
    """
    if (delta_p is None) == (delta_d is None):
        raise ValueError("provide exactly one of delta_p, delta_d")
    sh = math.sinh(2.0 * beta_j)
    if sh == 0.0:
        raise SingularMapError("magnetization relation is singular at bJ = 0")
    ch = math.cosh(2.0 * beta_j)
    if delta_d is None:
        delta_d = ch - float(delta_p) * sh
    else:
        delta_p = (ch - float(delta_d)) / sh
    return float(delta_p), float(delta_d)
