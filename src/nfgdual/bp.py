"""Loopy sum-product message passing on primal and dual models.

Both domains reduce to one factor-graph shape: every factor is a length-q
kernel table evaluated at a signed sum of its neighboring variables,

    f(s_1 z_1 + s_2 z_2 + ... + s_d z_d  mod q),  s_i in {+1, -1}.

Primal: variables are vertex values, edge kernels see (x_tail - x_head) and
vertex kernels are unary.  Dual: variables are edge values, edge kernels are
unary and vertex kernels see the incidence-signed sum (M^T y~)_v.  Messages
through a kernel factor are cyclic convolutions, computed exactly with the
length-q DFT.  Signed and complex tables are allowed throughout; messages are
normalized by the sum of absolute values, the one norm that only vanishes on
an identically-zero message.

Every sweep floods: all factors update at once from the previous sweep's
messages.  The k factors of one degree d, in factor order, are one group, a
row range of the message store, the group's (d*k, q) rows position-major.
Real tables have real messages, stored as float64; only their Fourier-domain
products are complex.  Every DFT is one 2-D matmul in real arithmetic, on the
float64 view of the rows.  The gather of the variable-to-factor messages
applies each slot's sign permutation, and the exclusive products of the
transforms are slice multiplies in cumprod's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import _check_count
from .nfg import Marginals, _factor_view, _rounding


class DegenerateMessageError(RuntimeError):
    """A message cancelled to zero or overflowed; sum-product cannot continue."""


@dataclass(frozen=True)
class BpConfig:
    """Sum-product knobs.

    The source material for this solver does not fix a schedule, damping or
    stopping rule; the flooding sweep and these defaults (damping 0.5, tol
    1e-9) are this library's choices, sized for small lattices.
    """

    damping: float = 0.5
    tol: float = 1e-9
    max_iters: int = 10_000

    def __post_init__(self):
        for name, value in (("damping", self.damping), ("tol", self.tol)):
            if np.ndim(value) or np.asarray(value).dtype.kind not in "iuf":  # bools are kind "b"
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        _check_count("max_iters", self.max_iters, 1)


def _normalize(msgs: np.ndarray, name, real_mode: bool) -> np.ndarray:
    """Row-wise L1-of-abs normalization, plus gauge fixing; name(i) names row i.

    Messages carry a multiplicative gauge freedom (m and c*m are equivalent);
    left unfixed, perturbations along it grow even when the projective
    dynamics contract.  The magnitude is pinned by the norm; the phase is
    pinned by projecting real-table models onto the real axis (their exact
    messages are real) and by rotating the leading entry of genuinely complex
    messages onto the positive real axis.
    """
    norms = np.abs(msgs) @ np.ones(msgs.shape[1])
    if not (norms.min(initial=np.inf) > 0.0 and norms.max(initial=0.0) < np.inf):
        i = int(np.argmax(~(norms > 0.0) | ~np.isfinite(norms)))
        cause = "cancelled to zero" if norms[i] == 0.0 else "is not finite"
        raise DegenerateMessageError(f"message at {name(i)} {cause}")
    msgs = msgs / norms[:, None]
    if real_mode:
        return msgs.real
    lead = msgs[np.arange(len(msgs)), np.argmax(np.abs(msgs), axis=1)]
    return msgs * np.conj(lead / np.abs(lead))[:, None]


def _real_form(m: np.ndarray, real_in: bool, real_out: bool) -> np.ndarray:
    """Real R with x @ m == (x.view(float64) @ R).view(complex128), x complex.

    A float64 view of a complex row interleaves (re, im); real_in drops the
    rows that multiply imaginary parts (x real), real_out keeps only the
    columns of the real parts of the product.
    """
    r = np.empty((2 * m.shape[0], 2 * m.shape[1]))
    r[0::2, 0::2], r[1::2, 1::2] = m.real, m.real
    r[0::2, 1::2], r[1::2, 0::2] = m.imag, -m.imag
    real, full = slice(0, None, 2), slice(None)
    return np.ascontiguousarray(r[real if real_in else full, real if real_out else full])


class _Group:
    """Factors of one degree d, updated together; their slots are msgs[rows], position-major."""

    def __init__(self, engine, factors, d, lo):
        self.factors = np.asarray(factors, dtype=np.intp)
        k, q = len(factors), engine.q
        self.shape = (d, k, q)
        self.rows = slice(lo, lo + d * k)
        # flat msgs indices of the inputs: [c, j] is row others[j, c] at s*t mod q
        self.gather = engine.others[self.rows].T[:, :, None] * q + engine.slot_perm[self.rows]
        # flat index of s*t mod q in row j of a (d*k, q) array: the sign reindex
        self.sign_index = (np.arange(d * k)[:, None] * q + engine.slot_perm[self.rows]).ravel()
        table = engine.tables[self.factors]
        # the correlation's DFT is f^(k) C^(-k); summing over -k instead of k
        # puts the index on the table and the inverse DFT, both fixed
        self.table_hat_neg = (table @ engine.w.T)[:, engine.neg]
        self.const = None
        if d == 1:  # unary factors send their sign-reindexed table, whatever comes in
            self.const = _normalize(table.ravel()[self.sign_index].reshape(k, q),
                                    lambda i: engine.site(factors[i]), engine.real_mode)


class _Engine:
    """Message arrays and the flooding update rules; factor-to-variable messages are the state.

    Row s of `msgs`, (n_slots + 1, q), float64 for real tables and complex128
    otherwise, is the message out of slot s, a (factor, position) pair; slots
    are numbered degree group by degree group, position-major.
    The last row is all ones; it pads `others[s]`, the other slots of s's
    variable in factor order, to one less than the largest variable degree,
    and the product of their rows is the variable-to-factor message into s.
    """

    def __init__(self, nfg, cfg: BpConfig):
        self.cfg = cfg
        self.q = q = nfg.alphabet.q
        self.num_edges = nfg.graph.num_edges
        scopes, num_vars, self.tables = _factor_view(nfg)
        self.real_mode = bool((np.abs(self.tables.imag) < _rounding(self.tables)).all())
        self.w = nfg.alphabet.dft_matrix()
        self.winv = np.conj(self.w) / q
        self.neg = (-np.arange(q)) % q
        # DFT and inverse DFT of the -k-indexed correlation, as real matmuls
        self.dft_form = _real_form(self.w.T, self.real_mode, False)
        self.idft_form = _real_form(self.winv.T[self.neg], False, self.real_mode)
        by_degree = {}  # each degree's factors in factor order
        for fi, (vs, _) in enumerate(scopes):
            by_degree.setdefault(len(vs), []).append(fi)
        order = [(fi, j) for d, fis in by_degree.items() for j in range(d) for fi in fis]
        n_slots = len(order)
        self.slot_factor = np.array([fi for fi, _ in order], dtype=np.intp)
        self.slot_var = np.array([scopes[fi][0][j] for fi, j in order], dtype=np.intp)
        signs = np.array([scopes[fi][1][j] for fi, j in order], dtype=np.intp)
        self.slot_perm = (signs[:, None] * np.arange(q)) % q  # t -> s*t mod q
        # each variable's slots in factor order, the order its messages multiply in
        var_slots = [[] for _ in range(num_vars)]
        for (fi, j), slot in sorted(zip(order, range(n_slots))):
            var_slots[scopes[fi][0][j]].append(slot)
        # at least two columns, so others keeps one even if it only holds pads
        width = max(2, max(map(len, var_slots), default=0))
        padded = np.array([slots + [n_slots] * (width - len(slots)) for slots in var_slots],
                          dtype=np.intp).reshape(num_vars, width)
        mine = padded[self.slot_var]  # without the own slot, the pads stay last
        self.others = mine[mine != np.arange(n_slots)[:, None]].reshape(n_slots, width - 1)
        self.msgs = np.full((n_slots + 1, q), 1.0 / q,
                            dtype=np.float64 if self.real_mode else np.complex128)
        self.msgs[n_slots] = 1.0
        starts = iter(np.cumsum([0] + [d * len(fis) for d, fis in by_degree.items()]))
        self.groups = [_Group(self, fis, d, next(starts)) for d, fis in by_degree.items()]

    def site(self, fi) -> str:
        return f"edge {fi}" if fi < self.num_edges else f"vertex {fi - self.num_edges}"

    def _incoming(self, grp: _Group) -> np.ndarray:
        """Variable-to-factor messages into the group's slots, sign-reindexed: (d*k, q)."""
        gathered = self.msgs.reshape(-1)[grp.gather]
        inc = gathered[0]
        for column in gathered[1:]:
            inc *= column
        return _normalize(inc, lambda i: f"variable {self.slot_var[grp.rows][i]}", self.real_mode)

    def _dft(self, msgs: np.ndarray) -> np.ndarray:
        """Row-wise DFT of a (rows, q) real or complex message array, one real matmul."""
        return (msgs.view(np.float64) @ self.dft_form).view(np.complex128)

    def _outgoing(self, grp: _Group) -> np.ndarray:
        """New messages out of the group's slots, (d*k, q), via DFT convolution."""
        if grp.const is not None:
            return grp.const
        d, _, q = grp.shape
        hats = self._dft(self._incoming(grp)).reshape(grp.shape)
        # exclusive products in cumprod's order, prefix left to right times
        # suffix right to left, leaving out the exact products by one
        excl = np.empty_like(hats)
        if d > 1:
            excl[1] = hats[0]
            for j in range(2, d):
                np.multiply(excl[j - 1], hats[j - 1], out=excl[j])
            suffix = hats[d - 1]
            for j in range(d - 2, 0, -1):
                excl[j] *= suffix
                suffix = suffix * hats[j]
            excl[0] = suffix
        # g(u) = sum_w f(u + w) C(w) has DFT f^(k) * C^(-k)
        corr_hat = (grp.table_hat_neg * excl).reshape(-1, q)
        msgs = (corr_hat.view(np.float64) @ self.idft_form).view(self.msgs.dtype).reshape(-1)
        return _normalize(msgs[grp.sign_index].reshape(-1, q),
                          lambda i: self.site(self.slot_factor[grp.rows][i]), self.real_mode)

    def iterate(self) -> float:
        """One flooding sweep: every new message is computed from the previous sweep's."""
        keep = self.cfg.damping
        new = np.empty_like(self.msgs[:-1])
        for grp in self.groups:
            new[grp.rows] = self._outgoing(grp)
        old = self.msgs[:-1]  # a view: the residual is taken before the write-back
        blended = _normalize((1 - keep) * new + keep * old,
                             lambda i: self.site(self.slot_factor[i]), self.real_mode)
        residual = float(np.abs(blended - old).max(initial=0.0))
        self.msgs[:-1] = blended
        return residual

    def beliefs(self) -> np.ndarray:
        """Kernel-argument beliefs per factor: B(u) proportional to f(u) * conv of inputs at u."""
        out = np.empty_like(self.tables)
        for grp in self.groups:  # one position-major block per degree, in factor order
            inc = self._incoming(grp)
            conv = inc if grp.shape[0] == 1 else \
                np.prod(self._dft(inc).reshape(grp.shape), axis=0) @ self.winv.T
            b = self.tables[grp.factors] * conv
            total = b.sum(axis=1)
            bad = (np.abs(total) == 0.0) | ~np.isfinite(np.abs(total))
            if bad.any():
                raise DegenerateMessageError(
                    f"belief at {self.site(grp.factors[int(np.argmax(bad))])} cancelled to zero")
            b = b / total[:, None]
            out[grp.factors] = b.real + 0.0j if self.real_mode else b
        return out


@np.errstate(over="ignore", invalid="ignore")
def run_bp(nfg, cfg: BpConfig | None = None) -> Marginals:
    """Sum-product on a primal or dual model; non-convergence is reported, not raised.

    Beliefs are the kernel-argument marginals, which are exactly the edge and
    vertex marginal estimates of the model's domain: primal beliefs estimate
    pi_p,e and pi_p,v, dual beliefs estimate pi_d,e and pi_d,v (marginal
    functions when the dual is signed).  Exact on tree-structured models.
    The record carries converged, iterations and the last residual.  An
    overflowing message is refused by its non-finite norm, with no numpy warning.
    """
    cfg = cfg or BpConfig()
    engine = _Engine(nfg, cfg)
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        residual = engine.iterate()
        if residual < cfg.tol:
            converged = True
            break
    beliefs = engine.beliefs()
    edges = nfg.graph.num_edges
    return Marginals(beliefs[:edges], beliefs[edges:], nfg.domain, converged=converged,
                     iterations=iterations, residual=residual)

