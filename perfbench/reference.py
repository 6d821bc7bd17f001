"""Exact references computed apart from nfgdual.

The benchmark checks the program against these, so they share no code with
it: the transfer-matrix marginals use only the couplings, the fields and the
lattice geometry, and the GMRF variances use a dense inverse of a precision
matrix assembled here from the edge list.
"""

from __future__ import annotations

import numpy as np


def torus_ising_marginals(rows: int, cols: int, edges, beta_j, beta_h):
    """Exact edge and vertex marginals of a binary model on a rows x cols torus.

    Vertex (r, c) has index r * cols + c. Edge e joins edges[e] = (t, h),
    which must be nearest neighbours on the torus, and weighs exp(beta_j[e])
    when its endpoints agree and exp(-beta_j[e]) when they differ. Vertex v
    weighs exp(beta_h[v]) in state 0 and exp(-beta_h[v]) in state 1.

    The sum runs over rows of 2**cols states with one transfer matrix per
    row, A_r = diag(D_r) V_r: D_r holds the fields and in-row couplings of
    row r, V_r the couplings from row r to row r + 1. The joint law of rows
    r and r + 1 is A_r[s, s'] (A_{r+1} ... A_{r-1})[s', s] / Z.

    Returns (edge, vertex) arrays of shape (|E|, 2) and (|V|, 2): entry 0 is
    the probability that the edge's endpoints agree, or that the vertex is 0.
    """
    if rows < 3 or cols < 3:
        raise ValueError("the torus needs at least 3 rows and 3 columns")
    beta_j = np.asarray(beta_j, dtype=np.float64)
    beta_h = np.asarray(beta_h, dtype=np.float64)
    n_states = 1 << cols
    bits = (np.arange(n_states)[:, None] >> np.arange(cols)[None, :]) & 1  # (S, cols)
    spin = 1 - 2 * bits  # state 0 -> +1, state 1 -> -1

    horizontal = [dict() for _ in range(rows)]  # row -> {column c: edge joining c, c+1}
    vertical = [dict() for _ in range(rows)]    # row -> {column c: edge to row + 1}
    for e, (t, h) in enumerate(edges):
        (rt, ct), (rh, ch) = divmod(t, cols), divmod(h, cols)
        if rt == rh and (ch - ct) % cols in (1, cols - 1):
            left = ct if (ch - ct) % cols == 1 else ch
            horizontal[rt][left] = e
        elif ct == ch and (rh - rt) % rows in (1, rows - 1):
            top = rt if (rh - rt) % rows == 1 else rh
            vertical[top][ct] = e
        else:
            raise ValueError(f"edge {e} = ({t}, {h}) is not a torus bond")

    log_d = np.zeros((rows, n_states))
    log_v = np.zeros((rows, n_states, n_states))
    for r in range(rows):
        for c in range(cols):
            log_d[r] += beta_h[r * cols + c] * spin[:, c]
        for c, e in horizontal[r].items():
            log_d[r] += beta_j[e] * spin[:, c] * spin[:, (c + 1) % cols]
        for c, e in vertical[r].items():
            log_v[r] += beta_j[e] * np.outer(spin[:, c], spin[:, c])
    # scale each matrix by its largest entry; marginals are ratios
    mats = []
    for r in range(rows):
        a = log_d[r][:, None] + log_v[r]
        mats.append(np.exp(a - a.max()))

    edge_out = np.zeros((len(edges), 2))
    vertex_out = np.zeros((rows * cols, 2))
    for r in range(rows):
        rest = np.eye(n_states)
        for k in range(1, rows):
            rest = rest @ mats[(r + k) % rows]
        joint = mats[r] * rest.T  # joint[s, s'] for rows r and r + 1
        joint /= joint.sum()
        row_law = joint.sum(axis=1)
        for c in range(cols):
            p0 = row_law[bits[:, c] == 0].sum()
            vertex_out[r * cols + c] = (p0, 1.0 - p0)
        for c, e in horizontal[r].items():
            agree = bits[:, c] == bits[:, (c + 1) % cols]
            p0 = row_law[agree].sum()
            edge_out[e] = (p0, 1.0 - p0)
        for c, e in vertical[r].items():
            agree = bits[:, c][:, None] == bits[:, c][None, :]
            p0 = joint[agree].sum()
            edge_out[e] = (p0, 1.0 - p0)
    return edge_out, vertex_out


def incidence(num_vertices: int, edges) -> np.ndarray:
    """Oriented incidence matrix, one row per edge: +1 at the tail, -1 at the head."""
    m = np.zeros((len(edges), num_vertices))
    for e, (t, h) in enumerate(edges):
        m[e, t] = 1.0
        m[e, h] = -1.0
    return m


def gmrf_variances(num_vertices: int, edges, s: float, sigma: float):
    """Exact primal variances and dual vertex-statistic variances by dense inverses.

    Primal precision M^T M / s^2 + I / sigma^2; dual precision s^2 I +
    sigma^2 M M^T with vertex statistic x~ = M^T y~, so Var(x~) is the
    diagonal of M^T Q_d^{-1} M.
    """
    m = incidence(num_vertices, edges)
    primal = np.linalg.inv(m.T @ m / s ** 2 + np.eye(num_vertices) / sigma ** 2)
    dual = np.linalg.inv(s ** 2 * np.eye(len(edges)) + sigma ** 2 * (m @ m.T))
    return np.diag(primal).copy(), np.einsum("ev,ev->v", m, dual @ m)
