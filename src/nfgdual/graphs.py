"""Finite simple connected graphs and their signed incidence.

The graph is the shared backbone of the primal model (variables on vertices)
and its Fourier dual (variables on edges).  Edge orientation is fixed by the
(tail, head) order of the input edge list and stated once, by the nonzeros of
`_incidence_entries`; a model's `scopes` group them by edge or by vertex, and
its `argument_map()` is the map they induce from values to factor arguments.
Every quantity downstream meant to be orientation-invariant is tested as such.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Raised when a graph violates the simple/connected contract."""


def _check_count(name: str, value, least: int):
    """value if it is an integer (numpy's too), not a bool, of at least `least`; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return value


@dataclass(frozen=True)
class Alphabet:
    """The configuration alphabet Z/qZ; q is an integer (numpy integers too) of at least 2."""

    q: int

    def __post_init__(self):
        _check_count("alphabet size", self.q, 2)

    @property
    def omega(self) -> complex:
        """Forward transform kernel exp(-2*pi*i/q)."""
        return np.exp(-2j * np.pi / self.q)

    def dft_matrix(self) -> np.ndarray:
        """q x q Vandermonde matrix W[k, l] = omega**(k*l); built once per q, read-only."""
        return _dft_matrix(self.q)


@functools.lru_cache(maxsize=64)
def _dft_matrix(q: int) -> np.ndarray:
    k = np.arange(q)
    w = Alphabet(q).omega ** np.outer(k, k)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class Graph:
    """Finite, simple, connected, undirected graph with a fixed edge orientation.

    `edges[e] = (tail, head)` orients edge e; the orientation is bookkeeping
    for the incidence matrix, not a directed-graph semantic.
    """

    num_vertices: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _check_count("num_vertices", self.num_vertices, 1)
        seen = {}  # each edge's vertex pair: the edge
        for t, h in self.edges:
            if (type(t) is not int or type(h) is not int) and any(  # plain ints pass fast
                    isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (t, h)):
                raise GraphError(f"edge ({t!r}, {h!r}) has an endpoint that is not an integer")
            t, h = int(t), int(h)
            if t == h:
                raise GraphError(f"self-loop at vertex {t}")
            if not (0 <= t < self.num_vertices and 0 <= h < self.num_vertices):
                raise GraphError(f"edge ({t},{h}) out of range [0,{self.num_vertices})")
            key = (min(t, h), max(t, h))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen[key] = (t, h)
        object.__setattr__(self, "edges", tuple(seen.values()))
        if not self._connected():
            raise GraphError("graph must be connected")

    def _connected(self) -> bool:
        parent = list(range(self.num_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for t, h in self.edges:
            parent[find(t)] = find(h)
        return len({find(v) for v in range(self.num_vertices)}) == 1

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _incidence_entries(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge, vertex, sign) of the nonzeros of M: the tails (+1), then the heads (-1)."""
    ne = g.num_edges
    vertex = np.array(g.edges, dtype=np.intp).reshape(ne, 2).T.ravel()
    return np.tile(np.arange(ne), 2), vertex, np.repeat([1.0, -1.0], ne)


def build_incidence(g: Graph) -> np.ndarray:
    """Oriented incidence matrix, one row per edge: +1 at tail, -1 at head.

    Connectedness guarantees rank |V|-1 over the rationals.
    """
    m = np.zeros((g.num_edges, g.num_vertices), dtype=np.int8)
    edge, vertex, sign = _incidence_entries(g)
    m[edge, vertex] = sign
    return m


def betti(g: Graph) -> int:
    """First Betti (cyclomatic) number |E| - |V| + 1; zero exactly on trees."""
    return g.num_edges - g.num_vertices + 1


def scale_factor(g: Graph, a: Alphabet) -> int:
    """Partition-function ratio between dual and primal domains: q**betti."""
    return a.q ** betti(g)


# -- Topology builders --------------------------------------------------------


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    _check_count("n", n, 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def ring_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if _check_count("n", n, 1) < 3:
        raise GraphError("a simple ring needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    _check_count("n", n, 1)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int, periodic: bool = False) -> Graph:
    """rows x cols lattice; `periodic` wraps both dimensions.

    Wrap edges that would duplicate an existing pair (rows or cols equal to 2)
    or form self-loops (dimension 1) are dropped so the graph stays simple.
    """
    _check_count("rows", rows, 1)
    _check_count("cols", cols, 1)

    def vid(r, c):
        return r * cols + c

    edges = {}  # each vertex pair, once, with the orientation it was first added in

    def add(u, v):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), (u, v))

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                add(vid(r, c), vid(r, c + 1))
            elif periodic:
                add(vid(r, c), vid(r, 0))
            if r + 1 < rows:
                add(vid(r, c), vid(r + 1, c))
            elif periodic:
                add(vid(r, c), vid(0, c))
    return Graph(rows * cols, list(edges.values()))
