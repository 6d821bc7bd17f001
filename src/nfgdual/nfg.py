"""Factor tables, the length-q DFT, model builders, dualization, and the
one `Marginals` record that every engine returns.

A factor is a length-q table of complex values attached to one edge or one
vertex.  The primal model multiplies an edge table psi_e evaluated at
y_e = x_tail - x_head (mod q) for every edge with a vertex table phi_v
evaluated at x_v for every vertex.  Dualization replaces every table by its
unnormalized forward DFT and flips the role of vertex and edge configurations:
in the dual domain the free variables are the edge values y~ and the vertex
values are derived as x~ = M^T y~.  A model's members state both domains in
the one factor view that BP, the enumeration oracle and the samplers read; a
model is frozen and checks its tables once, when it is built, and a primal
model computes its dual once, when it is first asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Alphabet, Graph, _incidence_entries

IMAG_TRUNCATION = 1e-12  # rounding, relative to the scale of a table's row (see _rounding)

PRIMAL = "primal"
DUAL = "dual"


@dataclass(frozen=True)
class MarginalVector:
    """Length-q marginal over one edge or vertex, tagged with its domain.

    Entries of a valid PMF are real in [0, 1] and sum to one; for models whose
    dual factors are signed or complex the entries form a marginal *function*
    that still sums to one but may be negative or complex.
    """

    values: np.ndarray
    site: tuple
    domain: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.complex128))


class SingularMapError(ValueError):
    """A kernel table has a zero entry, so the local map is not invertible.

    At an edge the standard trigger is a zero coupling (bJ_e = 0 makes the
    dual edge table vanish at 1); perturb the coupling by at least 1e-9.  At
    a vertex it is a zero external field (bH_v = 0 makes the dual vertex
    table vanish at every nonzero value); give the vertex a field instead.
    A zero in a primal table is a hard constraint, and blocks the way back.
    """


# why a table of each domain and site kind has a zero entry, for the singular-map refusals
_SINGULAR_CAUSE = {
    (DUAL, "edge"): "zero-coupling edges must be perturbed by >= 1e-9",
    (DUAL, "vertex"): "a zero external field makes the dual vertex table vanish; "
                      "give the vertex a field of at least 1e-9",
    (PRIMAL, "edge"): "a zero in a primal edge table is a hard constraint, "
                      "which the map to the dual cannot carry",
    (PRIMAL, "vertex"): "a zero in a primal vertex table is a hard constraint, "
                        "which the map to the dual cannot carry",
}


@dataclass
class Marginals:
    """Every edge and vertex marginal of one domain, as any engine estimates them.

    edge_values is (|E|, q) and vertex_values (|V|, q), or None when the
    vertex map was singular.  The diagnostics are None unless the engine
    fills them: the enumeration oracle sets partition, run_bp sets
    converged, iterations and residual, and mapping.map_marginals passes on
    converged and, mapping from the dual, sets dual_estimates (the dual
    record it mapped).
    """

    edge_values: np.ndarray
    vertex_values: np.ndarray | None
    domain: str
    partition: complex | None = None
    converged: bool | None = None
    iterations: int | None = None
    residual: float | None = None
    dual_estimates: Marginals | None = None

    def edge(self, e: int) -> MarginalVector:
        return MarginalVector(self.edge_values[e], ("edge", e), self.domain)

    def vertex(self, v: int) -> MarginalVector:
        if self.vertex_values is None:  # mapped from the other domain's record
            source = DUAL if self.domain == PRIMAL else PRIMAL
            raise SingularMapError("vertex map was singular for this model "
                                   f"({_SINGULAR_CAUSE[source, 'vertex']})")
        return MarginalVector(self.vertex_values[v], ("vertex", v), self.domain)


def _rounding(tables: np.ndarray) -> np.ndarray:
    """The rounding bound of each row (last axis) of table entries, shaped to broadcast
    against them: IMAG_TRUNCATION * max(1, the row's largest magnitude).  An imaginary
    part, negative real part or magnitude below it is rounding, as a DFT's rounding
    grows with the table (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 2-3)."""
    scale = np.abs(tables).max(axis=-1, keepdims=True, initial=0.0)
    return IMAG_TRUNCATION * np.maximum(1.0, scale)


def _truncate_imag(values: np.ndarray) -> np.ndarray:
    """values as complex, each imaginary part that is rounding snapped to zero."""
    out = np.array(values, dtype=np.complex128)
    out.imag[np.abs(out.imag) < _rounding(out)] = 0.0
    return out


def dft_table(values: np.ndarray, a: Alphabet) -> np.ndarray:
    """Unnormalized forward DFT on Z/qZ: f~(y~) = sum_y f(y) omega**(y*y~)."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (a.q,):
        raise ValueError(f"table length {values.shape} != alphabet size {a.q}")
    return _truncate_imag(a.dft_matrix() @ values)


def idft_table(values: np.ndarray, a: Alphabet) -> np.ndarray:
    """Inverse DFT with 1/q prefactor and conjugate kernel; exact inverse of dft_table."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (a.q,):
        raise ValueError(f"table length {values.shape} != alphabet size {a.q}")
    return _truncate_imag(np.conj(a.dft_matrix()) @ values / a.q)


@dataclass(frozen=True, eq=False)
class _BaseNFG:
    """Graph plus one table per edge and per vertex, stored as stacked read-only copies,
    checked once when built: shape, finite entries, and real nonnegative primal ones.
    The factor view reads the scopes, built once: factor e is edge e, |E| + v vertex v."""

    graph: Graph
    alphabet: Alphabet
    edge_tables: np.ndarray
    vertex_tables: np.ndarray

    def __post_init__(self):
        for kind, count in (("edge", self.graph.num_edges), ("vertex", self.graph.num_vertices)):
            tables = np.array(getattr(self, f"{kind}_tables"), dtype=np.complex128)
            shape = (count, self.alphabet.q)
            if tables.shape != shape:
                raise ValueError(f"{kind} tables have shape {tables.shape}, expected {shape}")
            if not np.isfinite(tables).all():
                row = np.argmin(np.isfinite(tables).all(axis=1))
                raise ValueError(f"{kind} {row} table is not finite")
            if self.domain == PRIMAL:
                if (np.abs(tables.imag) >= _rounding(tables)).any():
                    raise ValueError(f"primal {kind} tables must be real")
                if tables.real.min(initial=0.0) < 0:
                    raise ValueError(f"primal {kind} tables must be nonnegative")
                tables.imag = 0.0  # each imaginary part left is rounding: snap it
            tables.setflags(write=False)
            object.__setattr__(self, f"{kind}_tables", tables)

    def __reduce__(self):
        """Copies and pickles rebuild the model through its constructor, so
        their tables are read-only and checked like the original's."""
        return type(self), (self.graph, self.alphabet, self.edge_tables, self.vertex_tables)

    @property
    def num_vars(self) -> int:
        """The free variables: |V| vertex values in the primal, |E| edge values in the dual."""
        return self.graph.num_vertices if self.domain == PRIMAL else self.graph.num_edges

    @property
    def tables(self) -> np.ndarray:
        """Every factor's table, one row each: the edge tables over the vertex tables."""
        return np.concatenate([self.edge_tables, self.vertex_tables])

    @cached_property
    def scopes(self) -> list:
        """Each factor's (variables, signs), tuples of ints: factor f reads tables[f] at
        s_1 z_1 + ... + s_d z_d mod q.  Primal edge e sees its incidence row, x_tail - x_head,
        dual vertex v its column, (M^T y~)_v, in edge order; every other factor one variable."""
        g = self.graph
        edge, vertex, sign = _incidence_entries(g)
        primal = self.domain == PRIMAL
        group, member = (edge, vertex) if primal else (vertex, edge)
        order = np.lexsort((edge, group))
        members, signs = member[order].tolist(), sign[order].astype(int).tolist()
        sizes = np.bincount(group, minlength=g.num_edges if primal else g.num_vertices)
        ends = np.cumsum(sizes).tolist()
        shared = [(tuple(members[a:b]), tuple(signs[a:b])) for a, b in zip([0] + ends, ends)]
        unary = [((i,), (1,)) for i in range(self.num_vars)]
        return shared + unary if primal else unary + shared

    def site(self, f: int) -> str:
        """Factor f's name: "edge e" or "vertex v"."""
        ne = self.graph.num_edges
        return f"edge {f}" if f < ne else f"vertex {f - ne}"

    def record(self, rows, **diagnostics) -> Marginals:
        """The Marginals of per-factor rows: the first |E| are the edge values."""
        return Marginals(*np.split(rows, [self.graph.num_edges]), self.domain, **diagnostics)

    def argument_map(self):
        """The map from rows of variable values, (n, num_vars), to every factor's arguments."""
        scopes, q = self.scopes, self.alphabet.q
        variables = np.zeros((len(scopes), max(len(v) for v, _ in scopes)), dtype=np.int64)
        signs = np.zeros_like(variables)  # padding reads variable 0 with sign 0
        for f, (scope, scope_signs) in enumerate(scopes):
            variables[f, :len(scope)] = scope
            signs[f, :len(scope_signs)] = scope_signs
        return lambda rows: (rows[:, variables] * signs).sum(axis=2) % q


class PrimalNFG(_BaseNFG):
    """Primal model: pi_p(x) proportional to prod_e psi_e(y_e(x)) * prod_v phi_v(x_v)."""

    domain = PRIMAL

    @cached_property
    def dual(self) -> DualNFG:
        """Every table replaced by its forward DFT, computed once: the model is frozen,
        and copies, pickles and dataclasses.replace rebuild it.  A DFT that overflows
        is refused by the dual model's check, without a warning, on every call."""
        w = self.alphabet.dft_matrix()
        with np.errstate(over="ignore", invalid="ignore"):
            edge, vertex = self.edge_tables @ w.T, self.vertex_tables @ w.T
        return DualNFG(self.graph, self.alphabet, _truncate_imag(edge), _truncate_imag(vertex))


class DualNFG(_BaseNFG):
    """Dual model over edge configurations y~; vertex values derive as x~ = M^T y~.

    Tables may be signed or complex; when they are, the dual global function is
    not a PMF and its marginals are marginal functions (see is_nonnegative).
    """

    domain = DUAL


def dualize(p: PrimalNFG) -> DualNFG:
    """p.dual: every factor table replaced by its forward DFT, computed once per model."""
    if not isinstance(p, PrimalNFG):
        raise TypeError(f"dualize takes a PrimalNFG, got {type(p).__name__}")
    return p.dual


def is_nonnegative(d: DualNFG) -> bool:
    """True iff every dual table entry is real with nonnegative real part.

    Imaginary and negative real parts below the row's _rounding bound are
    rounding.  This is the gate for interpreting the dual global function as
    a PMF and therefore for Gibbs sampling in the dual domain.
    """
    tables = d.tables
    tol = _rounding(tables)
    return not ((np.abs(tables.imag) >= tol) | (tables.real < -tol)).any()


# -- Builder tables ------------------------------------------------------------


def ising_edge_table(beta_j: float) -> np.ndarray:
    return np.array([np.exp(beta_j), np.exp(-beta_j)], dtype=np.complex128)


def potts_edge_table(q: int, beta_j: float) -> np.ndarray:
    t = np.ones(q, dtype=np.complex128)
    t[0] = np.exp(beta_j)
    return t


def _coupling(beta_j) -> float:
    """bJ as a float, refused by its own value if it is not finite."""
    beta_j = float(beta_j)
    if not math.isfinite(beta_j):
        raise ValueError(f"coupling bJ = {beta_j} is not finite")
    return beta_j


def _potts_weights(b: float) -> tuple:
    """(w0, w_other, m): a lone Potts edge's table [e^b, 1, ..., 1] and the entry
    e^b - 1 of its DFT away from 0, all over max(1, e^b), from u = e^-|b| (1 - u as
    -expm1(-|b|)), so nothing overflows.  The DFT at 0 is m + q w_other.  b may be
    infinite, the limit of a finite coupling doubled; callers refuse the coupling
    they were given with _coupling."""
    u = math.exp(-abs(b))
    w0, w_other = (1.0, u) if b >= 0 else (u, 1.0)
    return w0, w_other, math.copysign(-math.expm1(-abs(b)), b)


def _potts_edge(q: int, b: float) -> tuple:
    """(p0, p_other, r, z) of a lone q-state Potts edge at coupling b: its marginal
    e^b / (e^b + q - 1) at 0 and 1 / (e^b + q - 1) at each other value, its
    transmissivity r = p0 - p_other (tanh(b / 2) when q = 2) and its weight sum
    z = (e^b + q - 1) / max(1, e^b), all from _potts_weights, so |r| <= 1."""
    w0, w_other, m = _potts_weights(b)
    z = w0 + (q - 1) * w_other
    return w0 / z, w_other / z, m / z, z


def clock_edge_table(q: int, beta_j: float) -> np.ndarray:
    y = np.arange(q)
    return np.exp(beta_j * np.cos(2 * np.pi * y / q)).astype(np.complex128)


def ising_dual_edge_table(beta_j: float) -> np.ndarray:
    """Closed form of the binary edge-table DFT: [2 cosh bJ, 2 sinh bJ]."""
    return np.array([2 * np.cosh(beta_j), 2 * np.sinh(beta_j)], dtype=np.complex128)


def potts_dual_edge_table(q: int, beta_j: float) -> np.ndarray:
    """Closed form of the q-state edge-table DFT: e^bJ - 1 + q at 0, else e^bJ - 1."""
    t = np.full(q, np.exp(beta_j) - 1.0, dtype=np.complex128)
    t[0] += q
    return t


def _per_item(values, count: int, item: str) -> np.ndarray:
    """values broadcast to one float per edge or vertex (item names which)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise ValueError(f"expected {count} per-{item} values, got shape {arr.shape}")
    return arr


def _family_model(g: Graph, q: int, table, couplings, fields) -> PrimalNFG:
    """The q-state model with table(bJ) on each edge and table(bH) on each vertex."""
    a = Alphabet(q)  # refuses a q that is not an integer before a table is built
    bj = _per_item(couplings, g.num_edges, "edge")
    bh = _per_item(fields, g.num_vertices, "vertex")
    # reshape gives a graph with no edges its (0, q) edge tables; an exponential
    # that overflows is left for the model's finiteness check to refuse
    with np.errstate(over="ignore"):
        return PrimalNFG(g, a, np.reshape([table(b) for b in bj], (-1, q)),
                         [table(b) for b in bh])


def ising_model(g: Graph, couplings, fields=0.0) -> PrimalNFG:
    """Binary model with psi_e = [e^bJ, e^-bJ] and phi_v = [e^bH, e^-bH]."""
    return _family_model(g, 2, ising_edge_table, couplings, fields)


def potts_model(g: Graph, q: int, couplings, fields=0.0) -> PrimalNFG:
    """q-state model: psi_e(0) = e^bJ else 1; the field acts on state 0 only."""
    return _family_model(g, q, lambda b: potts_edge_table(q, b), couplings, fields)


def clock_model(g: Graph, q: int, couplings, fields=0.0) -> PrimalNFG:
    """Cosine-interaction model psi_e(y) = exp(bJ cos(2 pi y / q)) in the field
    phi_v(x) = exp(bH cos(2 pi x / q)), a table of the same form."""
    return _family_model(g, q, lambda b: clock_edge_table(q, b), couplings, fields)
