"""Belief propagation on the Tanner graph.

Flooding schedule with sum-product (exact, tanh/arctanh) or min-sum check
updates and syndrome-based early exit.  Edges are enumerated check-major,
variable ascending within each check; message arrays, and any weights tied
to them, are indexed by that canonical order.

The module exposes a batch decoder vectorized over codewords (a single
word ``x`` is decoded as the batch ``x[None]``) and the min-sum check
kernel ``check_minsum_terms``, which the neural block and its training
share with BP min-sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LLR_CLAMP, hard_decide
from .codebook import syndrome

# Product clamp inside arctanh; keeps check messages finite (|u| <= ~28.4).
ATANH_EPS = 1e-12

SUM_PRODUCT = "sum-product"
MIN_SUM = "min-sum"


@dataclass(frozen=True)
class BpConfig:
    """Decoder knobs: iteration cap, check-update rule, message clamp.

    ``early_exit`` stops a frame once its hard decision satisfies every
    parity check; disabling it runs all iterations (used when converged
    marginals themselves are of interest).
    """

    max_iters: int = 5
    variant: str = SUM_PRODUCT
    message_clamp: float = 30.0
    early_exit: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.variant not in (SUM_PRODUCT, MIN_SUM):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.message_clamp <= 0:
            raise ValueError("message_clamp must be positive")


class EdgeIndex:
    """Canonical edge enumeration of a Tanner graph plus gather/scatter maps.

    Edge e runs between check edge_chk[e] and variable edge_var[e]; edges
    are sorted by (check, variable).  Checks are grouped by degree so check
    updates vectorize as (batch, checks_of_degree_d, d) blocks.
    """

    def __init__(self, h):
        self.h = h
        chks, vars_ = [], []
        for c, vs in enumerate(h.chk_adjacency):
            chks.extend([c] * len(vs))
            vars_.extend(vs)
        self.edge_chk = np.asarray(chks, dtype=np.int64)
        self.edge_var = np.asarray(vars_, dtype=np.int64)
        self.num_edges = self.edge_var.size

        degrees = np.asarray([len(vs) for vs in h.chk_adjacency])
        row_splits = np.concatenate([[0], np.cumsum(degrees)])
        self.degree_groups = {}
        for d in sorted(set(degrees.tolist())):
            checks = np.flatnonzero(degrees == d)
            eidx = np.stack([np.arange(row_splits[c], row_splits[c] + d) for c in checks])
            self.degree_groups[int(d)] = eidx

        # var-major view for belief sums; variables of degree zero are legal
        # in principle, so reduceat output is scattered by nonempty index
        order = np.lexsort((self.edge_chk, self.edge_var))
        self.var_order = order
        var_ids = self.edge_var[order]
        self.nonempty_vars = np.unique(var_ids)
        self.var_starts = np.searchsorted(var_ids, self.nonempty_vars)

    def belief_sums(self, c2v):
        """Per-variable sums of check-to-variable messages, shape (B, n)."""
        out = np.zeros((c2v.shape[0], self.h.n), dtype=c2v.dtype)
        sums = np.add.reduceat(c2v[:, self.var_order], self.var_starts, axis=1)
        out[:, self.nonempty_vars] = sums
        return out


def _check_sweep_sumproduct(v2c, ei):
    t = np.tanh(v2c / 2.0)
    c2v = np.empty_like(v2c)
    for d, eidx in ei.degree_groups.items():
        tt = t[:, eidx]
        excl = np.empty_like(tt)
        if d == 2:
            excl[..., 0] = tt[..., 1]
            excl[..., 1] = tt[..., 0]
        else:
            fwd = np.cumprod(tt, axis=-1)
            bwd = np.cumprod(tt[..., ::-1], axis=-1)[..., ::-1]
            excl[..., 0] = bwd[..., 1]
            excl[..., -1] = fwd[..., -2]
            excl[..., 1:-1] = fwd[..., :-2] * bwd[..., 2:]
        np.clip(excl, -(1 - ATANH_EPS), 1 - ATANH_EPS, out=excl)
        c2v[:, eidx] = 2.0 * np.arctanh(excl)
    return c2v


def _two_least(mags):
    """The least and second least entries m1 <= m2 along axis 0 of ``mags``
    (length >= 2), ties counted: a tournament that keeps both."""
    m1 = np.minimum(mags[0], mags[1])
    m2 = np.maximum(mags[0], mags[1])
    for m in mags[2:]:
        np.minimum(m2, np.maximum(m1, m), out=m2)
        np.minimum(m1, m, out=m1)
    return m1, m2


def check_minsum_terms(xc):
    """Min-sum extrinsic messages of checks from their variables' beliefs.

    ``xc`` is a float64 array of shape (..., d), d >= 2, one check per row
    and no NaN entry.
    Returns the messages ``u`` of the same shape: u[..., j] is the product
    of the signs of the other entries (sign(0) = +1 for either zero) times
    their least magnitude.

    Only the two least magnitudes m1 <= m2 of a row are needed (the
    compressed check message of layered min-sum decoders, Mansour &
    Shanbhag 2003): position j gets m2 if |x_j| == m1, else m1.  This is
    exact, ties included: a position with |x_j| == m1 that is not the first
    minimizer sees m2 == m1 either way.  ``u`` is C-ordered whatever the
    order of ``xc``, since the order of an array fixes the order in which a
    sum over it rounds, and the training backward sums over ``u``.
    """
    # work on a contiguous (d, rows) copy, so every step is one long loop;
    # adding +0.0 turns -0.0 into +0.0, after which the sign bit is the
    # min-sum sign
    x = np.add(np.moveaxis(xc, -1, 0), 0.0, order="C")
    odd = np.logical_xor.reduce(x < 0, axis=0)
    mags = np.abs(x)
    m1, m2 = _two_least(mags)
    # clamping at m2 leaves m1 on a row's minimizers and m2 elsewhere;
    # xor with the bits of m1 ^ m2 swaps the two values exactly
    np.minimum(mags, m2, out=mags)
    bits = mags.view(np.uint64)
    bits ^= m1.view(np.uint64) ^ m2.view(np.uint64)
    # x_j times the row's sign product carries the sign of the other entries
    x *= np.where(odd, -1.0, 1.0)
    u = np.empty(xc.shape)
    np.copysign(mags, x, out=np.moveaxis(u, -1, 0))
    return u


def _check_sweep_minsum(v2c, ei):
    c2v = np.empty_like(v2c)
    for eidx in ei.degree_groups.values():
        c2v[:, eidx] = check_minsum_terms(v2c[:, eidx])
    return c2v


def check_llr_batch(h, llrs):
    """``llrs`` as a float64 (B, n) array; ValueError on any other shape or a
    non-finite entry.  A single word ``x`` is checked as the batch ``x[None]``."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != h.n:
        raise ValueError(f"expected (B, {h.n}) LLR array, got {llrs.shape}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    return llrs


def decode_bp_batch(h, llrs, cfg=BpConfig(), edge_index=None):
    """Flooding BP over a (B, n) batch of LLR vectors.

    Returns (bits, beliefs, iterations, syndrome_zero) arrays; each frame
    exits as soon as its hard decision satisfies every parity check.
    Channel LLRs are clamped to +-LLR_CLAMP; non-finite ones are rejected.
    """
    llrs = check_llr_batch(h, llrs)
    ei = edge_index if edge_index is not None else EdgeIndex(h)
    sweep = _check_sweep_sumproduct if cfg.variant == SUM_PRODUCT else _check_sweep_minsum

    # every frame is written at the first iteration
    nframes = llrs.shape[0]
    bits = np.empty(llrs.shape, dtype=np.uint8)
    beliefs = np.empty_like(llrs)
    iters = np.empty(nframes, dtype=np.int64)
    ok = np.empty(nframes, dtype=bool)

    idx = np.arange(nframes)
    l = np.clip(llrs, -LLR_CLAMP, LLR_CLAMP)
    v2c = np.clip(l[:, ei.edge_var], -cfg.message_clamp, cfg.message_clamp)
    for it in range(1, cfg.max_iters + 1):
        c2v = sweep(v2c, ei)
        s = l + ei.belief_sums(c2v)
        hard = hard_decide(s)
        done = syndrome(h, hard)[1] == 0
        bits[idx], beliefs[idx], iters[idx], ok[idx] = hard, s, it, done
        if cfg.early_exit:
            keep = ~done
            idx, l, s, c2v = idx[keep], l[keep], s[keep], c2v[keep]
        if idx.size == 0 or it == cfg.max_iters:
            break
        v2c = np.clip(s[:, ei.edge_var] - c2v, -cfg.message_clamp, cfg.message_clamp)
    return bits, beliefs, iters, ok
