"""Finite simple connected graphs, oriented incidence matrices, and mod-q configurations.

The graph is the shared backbone of the primal model (variables on vertices)
and its Fourier dual (variables on edges).  Edge orientation is fixed by the
(tail, head) order of the input edge list; every quantity downstream that is
meant to be orientation-invariant is tested as such.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Raised when a graph violates the simple/connected contract."""


@dataclass(frozen=True)
class Alphabet:
    """The configuration alphabet Z/qZ; q is an integer (numpy integers too) of at least 2."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)) or self.q < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got {self.q!r}")

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
        object.__setattr__(self, "edges", tuple((int(t), int(h)) for t, h in self.edges))
        if self.num_vertices < 1:
            raise GraphError("graph needs at least one vertex")
        seen = set()
        for t, h in self.edges:
            if t == h:
                raise GraphError(f"self-loop at vertex {t}")
            if not (0 <= t < self.num_vertices and 0 <= h < self.num_vertices):
                raise GraphError(f"edge ({t},{h}) out of range [0,{self.num_vertices})")
            key = (min(t, h), max(t, h))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        if not self._connected():
            raise GraphError("graph must be connected")

    def _connected(self) -> bool:
        if self.num_vertices == 1:
            return True
        parent = list(range(self.num_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for t, h in self.edges:
            ra, rb = find(t), find(h)
            if ra != rb:
                parent[ra] = rb
        root = find(0)
        return all(find(v) == root for v in range(self.num_vertices))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incident_edges(self, v: int) -> list:
        """Edge indices incident to v, ascending."""
        return [e for e, (t, h) in enumerate(self.edges) if v in (t, h)]


def build_incidence(g: Graph) -> np.ndarray:
    """Oriented incidence matrix, one row per edge: +1 at tail, -1 at head.

    Connectedness guarantees rank |V|-1 over the rationals.
    """
    m = np.zeros((g.num_edges, g.num_vertices), dtype=np.int8)
    for e, (t, h) in enumerate(g.edges):
        m[e, t] = 1
        m[e, h] = -1
    return m


def edge_config(m: np.ndarray, x: np.ndarray, a: Alphabet) -> np.ndarray:
    """Edge configuration y = M x mod q; y_e = x_tail - x_head mod q."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (m.shape[1],):
        raise ValueError(f"vertex config has length {x.shape}, expected {m.shape[1]}")
    return (m.astype(np.int64) @ x) % a.q


def dual_vertex_config(m: np.ndarray, y_tilde: np.ndarray, a: Alphabet) -> np.ndarray:
    """Dual vertex configuration x~ = M^T y~ mod q (signed sum of incident edges)."""
    y_tilde = np.asarray(y_tilde, dtype=np.int64)
    if y_tilde.shape != (m.shape[0],):
        raise ValueError(f"edge config has length {y_tilde.shape}, expected {m.shape[0]}")
    return (m.astype(np.int64).T @ y_tilde) % a.q


def betti(g: Graph) -> int:
    """First Betti (cyclomatic) number |E| - |V| + 1; zero exactly on trees."""
    return g.num_edges - g.num_vertices + 1


def scale_factor(g: Graph, a: Alphabet) -> int:
    """Partition-function ratio between dual and primal domains: q**betti."""
    return a.q ** betti(g)


# -- Topology builders --------------------------------------------------------


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def ring_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise GraphError("a simple ring needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int, periodic: bool = False) -> Graph:
    """rows x cols lattice; `periodic` wraps both dimensions.

    Wrap edges that would duplicate an existing pair (rows or cols equal to 2)
    or form self-loops (dimension 1) are dropped so the graph stays simple.
    """
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")

    def vid(r, c):
        return r * cols + c

    edges = []
    seen = set()

    def add(u, v):
        if u == v:
            return
        key = (min(u, v), max(u, v))
        if key in seen:
            return
        seen.add(key)
        edges.append((u, v))

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
    return Graph(rows * cols, edges)
