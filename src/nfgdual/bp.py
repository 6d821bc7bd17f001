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

Factors of one degree d are updated together on (d*k, q) arrays, k factors
with their slots position-major.  Real tables have real messages, stored as
float64; only their Fourier-domain products are complex.  Every DFT is one
2-D matmul in real arithmetic, on the float64 view of the rows.  The gather
of the variable-to-factor messages applies each slot's sign permutation, and
the exclusive products of the transforms are slice multiplies in cumprod's
order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .nfg import MarginalVector, Marginals, _factor_view


class DegenerateMessageError(RuntimeError):
    """A message cancelled to zero or overflowed; sum-product cannot continue."""


@dataclass(frozen=True)
class BpConfig:
    """Sum-product knobs.

    The source material for this solver does not fix a schedule, damping or
    stopping rule; these defaults (flooding, damping 0.5, tol 1e-9) are this
    library's choices, sized for small lattices, and all overridable.
    """

    damping: float = 0.5
    tol: float = 1e-9
    max_iters: int = 10_000
    schedule: str = "flooding"  # or "sequential"

    def __post_init__(self):
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if not isinstance(self.max_iters, numbers.Integral) or isinstance(self.max_iters, bool) \
                or self.max_iters < 1:
            raise ValueError("max_iters must be an integer of at least 1")
        if self.schedule not in ("flooding", "sequential"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def _normalize(msgs: np.ndarray, name, real_mode: bool = False) -> np.ndarray:
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
    """Factors of one degree d, updated together; slot rows are position-major, (d, k)."""

    def __init__(self, engine, factors):
        self.factors = np.asarray(factors, dtype=np.intp)
        k, d, q = len(factors), int(engine.degrees[factors[0]]), engine.q
        self.shape = (d, k, q)
        self.flat = (engine.offsets[self.factors] + np.arange(d)[:, None]).ravel()
        perm = engine.slot_perm[self.flat]  # (d*k, q): t -> s*t mod q, s the slot's sign
        # gather[c] picks, for row j of the (d*k, q) incoming messages, row
        # others[j, c] of msgs at s*t mod q: their product is sign-reindexed
        self.gather = engine.others[self.flat].T[:, :, None] * q + perm
        # flat index of s*t mod q in row j of a (d*k, q) array: the sign reindex
        self.sign_index = (np.arange(d * k)[:, None] * q + perm).ravel()
        self.table = engine.tables[self.factors]
        # the correlation's DFT is f^(k) C^(-k); summing over -k instead of k
        # puts the index on the table and the inverse DFT, both fixed
        self.table_hat_neg = (self.table @ engine.w.T)[:, engine.neg]
        self.const = None
        if d == 1:  # unary factors send their sign-reindexed table, whatever comes in
            self.const = _normalize(self.table.ravel()[self.sign_index].reshape(k, q),
                                    lambda i: engine.site(factors[i]), engine.real_mode)

    def reindex(self, msgs: np.ndarray) -> np.ndarray:
        """Row j of the (d*k, q) result is msgs row j at s*t mod q, s the slot's sign."""
        return msgs.reshape(-1)[self.sign_index].reshape(msgs.shape)


class _Engine:
    """Message arrays and the batched update rules; factor-to-variable messages are the state.

    Slots are (factor, position) pairs, numbered factor by factor.  Row s of
    `msgs`, shape (n_slots + 1, q), float64 for real tables and complex128
    otherwise, is the message from slot s's factor to its variable.  The last
    row is all ones; it pads `others[s]`, the other slots of s's variable, to
    one less than the largest variable degree, and the product of the rows in
    `others[s]` is the variable-to-factor message into slot s.
    """

    def __init__(self, nfg, cfg: BpConfig):
        self.cfg = cfg
        self.q = q = nfg.alphabet.q
        self.num_edges = nfg.graph.num_edges
        scopes, num_vars, self.tables = _factor_view(nfg)
        self.real_mode = bool(np.abs(self.tables.imag).max(initial=0.0) < 1e-12)
        self.w = nfg.alphabet.dft_matrix()
        self.winv = np.conj(self.w) / q
        self.neg = (-np.arange(q)) % q
        # DFT and inverse DFT of the -k-indexed correlation, as real matmuls
        self.dft_form = _real_form(self.w.T, self.real_mode, False)
        self.idft_form = _real_form(self.winv.T[self.neg], False, self.real_mode)
        self.degrees = np.array([len(vs) for vs, _ in scopes], dtype=np.intp)
        self.offsets = np.concatenate([[0], np.cumsum(self.degrees)[:-1]]).astype(np.intp)
        n_slots = int(self.degrees.sum())
        self.slot_factor = np.repeat(np.arange(len(scopes)), self.degrees)
        self.slot_var = np.array([v for vs, _ in scopes for v in vs], dtype=np.intp)
        signs = np.array([s for _, ss in scopes for s in ss], dtype=np.intp)
        self.slot_perm = (signs[:, None] * np.arange(q)) % q  # t -> s*t mod q
        var_slots = [[] for _ in range(num_vars)]
        for slot, var in enumerate(self.slot_var):
            var_slots[var].append(slot)
        # at least two columns, so others keeps one even if it only holds pads
        width = max(2, max(map(len, var_slots), default=0))
        padded = np.full((num_vars, width), n_slots, dtype=np.intp)
        for var, slots in enumerate(var_slots):
            padded[var, : len(slots)] = slots
        mine = padded[self.slot_var]
        # rows are ascending, so sorting moves the own slot, now a pad, last
        others = np.sort(np.where(mine == np.arange(n_slots)[:, None], n_slots, mine), axis=1)
        self.others = others[:, :-1]
        self.msgs = np.full((n_slots + 1, q), 1.0 / q,
                            dtype=np.float64 if self.real_mode else np.complex128)
        self.msgs[n_slots] = 1.0
        self.groups = self._by_degree(range(len(scopes)))
        if cfg.schedule == "flooding":
            runs = [range(len(scopes))]
        else:
            # Sequential order, batched exactly: an update changes only the
            # slots of its own variables, so a run of consecutive factors with
            # disjoint scopes reads the same messages one by one or at once.
            runs, seen = [[]], set()
            for fi, (vs, _) in enumerate(scopes):
                if seen.intersection(vs):
                    runs.append([])
                    seen = set()
                runs[-1].append(fi)
                seen.update(vs)
        self.batches = []
        for run in runs:
            groups = self._by_degree(run)
            self.batches.append((groups, np.concatenate([grp.flat for grp in groups])))

    def _by_degree(self, factors) -> list:
        by_degree = {}
        for fi in factors:
            by_degree.setdefault(int(self.degrees[fi]), []).append(fi)
        return [_Group(self, fis) for fis in by_degree.values()]

    def site(self, fi) -> str:
        return f"edge {fi}" if fi < self.num_edges else f"vertex {fi - self.num_edges}"

    def _incoming(self, grp: _Group) -> np.ndarray:
        """Variable-to-factor messages into the group's slots, sign-reindexed: (d*k, q)."""
        gathered = self.msgs.reshape(-1)[grp.gather]
        inc = gathered[0]
        for column in gathered[1:]:
            inc *= column
        return _normalize(inc, lambda i: f"variable {self.slot_var[grp.flat[i]]}", self.real_mode)

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
        msgs = (corr_hat.view(np.float64) @ self.idft_form).view(self.msgs.dtype)
        return _normalize(grp.reindex(msgs),
                          lambda i: self.site(self.slot_factor[grp.flat[i]]), self.real_mode)

    def iterate(self) -> float:
        """One sweep; each batch's new messages are computed from those before it."""
        keep = self.cfg.damping
        residual = 0.0
        for groups, slots in self.batches:
            new = np.concatenate([self._outgoing(grp) for grp in groups])
            old = self.msgs[slots]
            blended = _normalize((1 - keep) * new + keep * old,
                                 lambda i: self.site(self.slot_factor[slots[i]]), self.real_mode)
            residual = max(residual, float(np.abs(blended - old).max(initial=0.0)))
            self.msgs[slots] = blended
        return residual

    def beliefs(self) -> np.ndarray:
        """Kernel-argument beliefs per factor: B(u) proportional to f(u) * conv of inputs at u."""
        out = np.empty_like(self.tables)
        for grp in self.groups:
            inc = self._incoming(grp)
            if grp.shape[0] == 1:
                conv = inc
            else:
                conv = np.prod(self._dft(inc).reshape(grp.shape), axis=0) @ self.winv.T
            b = grp.table * conv
            total = b.sum(axis=1)
            bad = (np.abs(total) == 0.0) | ~np.isfinite(np.abs(total))
            if bad.any():
                fi = grp.factors[int(np.argmax(bad))]
                raise DegenerateMessageError(f"belief at {self.site(fi)} cancelled to zero")
            b = b / total[:, None]
            out[grp.factors] = b.real + 0.0j if self.real_mode else b
        return out


def run_bp(nfg, cfg: BpConfig | None = None) -> Marginals:
    """Sum-product on a primal or dual model; non-convergence is reported, not raised.

    Beliefs are the kernel-argument marginals, which are exactly the edge and
    vertex marginal estimates of the model's domain: primal beliefs estimate
    pi_p,e and pi_p,v, dual beliefs estimate pi_d,e and pi_d,v (marginal
    functions when the dual is signed).  Exact on tree-structured models.
    The record carries converged, iterations and the last residual.
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


def relative_error(estimate, exact, mode: str = "first") -> float:
    """|est(0) - exact(0)| / |exact(0)|, or the L1 variant over the full vector."""
    est = estimate.values if isinstance(estimate, MarginalVector) else np.asarray(estimate)
    ref = exact.values if isinstance(exact, MarginalVector) else np.asarray(exact)
    if mode == "first":
        return float(abs(est[0] - ref[0]) / abs(ref[0]))
    if mode == "l1":
        return float(np.abs(est - ref).sum() / np.abs(ref).sum())
    raise ValueError(f"unknown mode {mode!r}")
