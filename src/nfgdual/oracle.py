"""Exact desk-scale ground truth by exhaustive enumeration, plus 1D closed forms.

Everything here is deliberately brute force: partition functions and marginals
are computed by summing over the full configuration space in either domain,
with a hard state-count budget instead of any approximation.  The sum walks
blocks of the low variables' digits, each factor reading its table rotated
by the high digits (see _enumerate), with the floats of a state-by-state
walk in index order.  Sums that overflow, and a partition function of 0 (an
unsatisfiable model, whose marginals are undefined), are refused by name.
The chain/ring closed forms, one formula over each lone edge
(nfg._potts_edge), cross-check 1D models at any finite coupling.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .graphs import Alphabet, Graph, _check_count, scale_factor
from .nfg import DUAL, PRIMAL, DualNFG, Marginals, PrimalNFG, _coupling, _potts_edge, dualize

DEFAULT_BUDGET = 2 ** 26
BUDGET_ENV_VAR = "NFG_DUAL_BUDGET"
_BLOCK = 4096  # most states in one low-digit block
_CHUNK = 1 << 17  # states per pairwise sum of Z


class EnumerationBudgetError(RuntimeError):
    """The configuration space exceeds the enumeration budget; refuse, never truncate."""


def enumeration_budget() -> int:
    """Effective state budget: NFG_DUAL_BUDGET, else 2**26.

    An NFG_DUAL_BUDGET that is not an integer of at least 1 raises ValueError.
    """
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_BUDGET
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{BUDGET_ENV_VAR}={env!r} is not an integer state count of at least 1")
    return limit


def _check_budget(num_states: int, what: str) -> None:
    limit = enumeration_budget()
    if num_states > limit:
        raise EnumerationBudgetError(
            f"{what} needs {num_states} states, over the budget of {limit}; "
            f"shrink the model or raise {BUDGET_ENV_VAR}"
        )


@np.errstate(over="ignore", invalid="ignore")
def _enumerate(model):
    """One pass over every configuration of the model's free variables.

    Returns (Z, sums), where row i of sums accumulates the weight of each
    configuration at factor i's argument (the model's factor numbering:
    edge rows first, then vertex rows).  Weights whose sums overflow raise
    ValueError naming the domain, without a numpy warning.

    The first k variables form a low block of q**k <= _BLOCK states, walked
    once per assignment of the others.  Each factor's argument is its low
    part, fixed for the whole walk, plus an offset c from the high digits,
    so a block reads each table rotated by c.  States keep the order of
    their index sum_j z_j q**j, and Z adds one pairwise sum per _CHUNK
    states of that order.
    """
    scopes, num_vars, tables = model.scopes, model.num_vars, model.tables
    q = model.alphabet.q
    total = q ** num_vars
    _check_budget(total, f"{model.domain} enumeration")
    k = min(num_vars, 1)
    while k < num_vars and q ** (k + 1) <= _BLOCK:
        k += 1
    size = q ** k
    values = np.arange(q)
    digits = [np.tile(np.repeat(values, q ** j), q ** (k - 1 - j)) for j in range(k)]
    no_low = np.zeros(size, dtype=np.intp)
    low_args, high_scopes = [], []
    for vs, ss in scopes:
        low = [(v, s) for v, s in zip(vs, ss) if v < k]
        # itertools.product varies its last entry fastest and variable k must
        # vary fastest, so the high variables are numbered from the end
        high_scopes.append([(num_vars - 1 - v, s) for v, s in zip(vs, ss) if v >= k])
        if not low:
            low_args.append(None)
        elif len(low) == 1 and low[0][1] == 1:
            low_args.append(digits[low[0][0]])
        else:
            low_args.append(sum(s * digits[v] for v, s in low) % q)
    doubled = np.concatenate([tables, tables], axis=1)  # doubled[i, c:][a] = table at a + c mod q
    # A leading run of factors with no high variable weighs every block alike.
    lead = 0
    while lead < len(scopes) and not high_scopes[lead]:
        lead += 1
    head = np.ones(size, dtype=np.complex128)
    for i in range(lead):
        head *= tables[i][0] if low_args[i] is None else tables[i][low_args[i]]
    sums = np.zeros((len(scopes), q), dtype=np.complex128)
    z = 0.0 + 0.0j
    buf = np.empty(min(total, _CHUNK), dtype=np.complex128)
    fill = 0
    for high in itertools.product(range(q), repeat=num_vars - k):
        offsets = [sum(s * high[v] for v, s in hs) % q for hs in high_scopes]
        w = head.copy()
        for i in range(lead, len(scopes)):
            arg = low_args[i]
            w *= tables[i][offsets[i]] if arg is None else doubled[i, offsets[i]:][arg]
        done = 0
        while done < size:
            n = min(size - done, len(buf) - fill)
            buf[fill:fill + n] = w[done:done + n]
            fill += n
            done += n
            if fill == len(buf):
                z += buf.sum()
                fill = 0
        for i, (arg, c) in enumerate(zip(low_args, offsets)):
            arg = no_low if arg is None else arg
            if c == 0:
                np.add.at(sums[i], arg, w)
            else:
                rotation = (values + c) % q
                row = sums[i][rotation]
                np.add.at(row, arg, w)
                sums[i][rotation] = row
    if fill:
        z += buf[:fill].sum()
    if not (np.isfinite(z) and np.isfinite(sums).all()):
        raise ValueError(f"{model.domain} enumeration overflows: a sum of "
                         "configuration weights is not finite")
    return z, sums


def _marginals(model, norm: float = 1.0) -> Marginals:
    z, sums = _enumerate(model)
    if z == 0:
        raise ValueError(f"{model.domain} partition function is Z = 0: the model is "
                         "unsatisfiable, so its marginals are undefined")
    return model.record(sums / z, partition=z * norm)


def _dual_indicator_norm(g: Graph, a: Alphabet) -> float:
    """Normalization q**(1-|V|) carried by the dualized equality indicators.

    The DFT of a degree-d equality indicator is q times a zero-sum indicator;
    folding the resulting per-vertex constants into the partition function is
    what makes Z_dual = q**betti * Z_primal hold exactly.  Marginals are
    ratios, so they never see this constant.
    """
    return float(a.q) ** (1 - g.num_vertices)


def duality_check(p: PrimalNFG) -> float:
    """Relative residual |Z_d - alpha * Z_p| / |Z_p| of the duality theorem."""
    zp = marginals_primal(p).partition
    zd = marginals_dual(dualize(p)).partition
    alpha = scale_factor(p.graph, p.alphabet)
    return abs(zd - alpha * zp) / abs(zp)


def marginals_primal(p: PrimalNFG) -> Marginals:
    """All primal edge and vertex marginals in a single enumeration pass."""
    if not isinstance(p, PrimalNFG):
        raise TypeError(f"marginals_primal takes a PrimalNFG, got {type(p).__name__}")
    return _marginals(p)


def marginals_dual(d: DualNFG) -> Marginals:
    """All dual edge and vertex marginals (marginal functions if d is signed); the partition
    carries _dual_indicator_norm's q**(1-|V|), so Z_d = q**betti Z_p for symmetric tables."""
    if not isinstance(d, DualNFG):
        raise TypeError(f"marginals_dual takes a DualNFG, got {type(d).__name__}")
    return _marginals(d, _dual_indicator_norm(d.graph, d.alphabet))


# -- Closed forms for 1D models --------------------------------------------------


def _ring_records(q: int, couplings, periodic: bool, num_vertices: int) -> tuple:
    """(primal, dual) records of a zero-field q-state Potts ring, or free chain, at
    couplings bJ_e, from each lone edge's p0_e, p_other_e and r_e (nfg._potts_edge).

    With R = prod_e r_e, R_-e its product over the other edges and D = 1 + (q - 1) R,
    a ring's dual edge rows are [1, R, ..., R] / D and primal edge e's row is
    p0_e (1 + (q - 1) R_-e) / D at 0 and p_other_e (1 - R_-e) / D elsewhere (a free
    chain has R = R_-e = 0).  Those factors are q times positive sums, the rows at 0
    and elsewhere of prefix and suffix convolutions of the lone edges' rows, so nothing
    cancels; a D that underflows, whose dual rows are not finite, is refused.  Vertex
    rows are uniform 1/q in the primal and a delta at 0 in the dual.
    """
    p0, other, r, _ = np.array([_potts_edge(q, b) for b in couplings]).reshape(-1, 4).T

    def convolve(x, y):  # of Potts-symmetric rows: (value at 0, value at each other value)
        return (x[0] * y[0] + (q - 1) * x[1] * y[1],
                x[0] * y[1] + x[1] * y[0] + (q - 2) * x[1] * y[1])

    rest, d = (1.0, 1.0), 1.0
    if periodic:
        prefix, suffix = (np.array(list(itertools.accumulate(rows, convolve, initial=(1.0, 0.0))))
                          for rows in (zip(p0, other), zip(p0[::-1], other[::-1])))
        rest, d = convolve(prefix[:-1].T, suffix[-2::-1].T), q * prefix[-1, 0]
        if d < np.finfo(np.float64).tiny:
            raise ValueError(f"the ring's dual rows [1, R, ..., R] / D are not finite: D = {d:.3g}")
    primal = np.stack([p0 * rest[0], other * rest[1]], axis=1)
    primal /= (primal @ [1.0, q - 1.0])[:, None]
    dual = np.tile([1.0, np.prod(r) * periodic], (len(p0), 1)) / d
    vertex = np.full((num_vertices, q), 1.0 / q), np.eye(1, q).repeat(num_vertices, axis=0)
    return tuple(Marginals(np.repeat(rows, [1, q - 1], axis=1).astype(np.complex128),
                           v.astype(np.complex128), domain)
                 for rows, v, domain in zip((primal, dual), vertex, (PRIMAL, DUAL)))


def chain_ising_marginals(couplings, boundary: str = "free") -> tuple:
    """Exact zero-field 1D Ising marginals, free or periodic: (primal, dual) pair, the
    q = 2 Potts chain or ring at couplings 2 bJ (see _ring_records).  A free chain's dual
    has one valid configuration, so pi_d,e = [1, 0] and pi_p,e(0) = e^bJ / (2 cosh bJ);
    a ring's has two, weighted by the tanh product.  Each bJ is checked to be finite
    before it is doubled."""
    bj = np.asarray(couplings, dtype=np.float64)
    if boundary not in ("free", "periodic"):
        raise ValueError(f"boundary must be 'free' or 'periodic', got {boundary!r}")
    periodic = boundary == "periodic"
    if periodic and len(bj) < 3:
        raise ValueError("a simple ring needs at least 3 edges")
    return _ring_records(2, [2.0 * _coupling(b) for b in bj.tolist()], periodic,
                         len(bj) + (not periodic))


def ring_potts_marginals(q: int, beta_j: float, num_edges: int) -> tuple:
    """Closed-form homogeneous q-state ring marginals: (primal, dual) pair, one row for
    every edge.  The q valid dual configurations weigh (e^bJ + q - 1)^n at all zeros and
    (e^bJ - 1)^n at each other (see _ring_records)."""
    _check_count("q", q, 2)
    n = _check_count("num_edges", num_edges, 3)
    return _ring_records(q, [_coupling(beta_j)] * n, True, n)
