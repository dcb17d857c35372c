"""Belief propagation on the Tanner graph.

Flooding schedule with sum-product (exact, tanh/arctanh) or min-sum check
updates and syndrome-based early exit.  Edges are enumerated check-major,
variable ascending within each check; message arrays, and any weights tied
to them, are indexed by that canonical order.

The module exposes the per-edge update rules as scalar functions and a
batch decoder vectorized over codewords; a single word ``x`` is decoded as
the batch ``x[None]``.
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


def check_update_sumproduct(incoming):
    """Exact extrinsic check update 2*arctanh(prod tanh(u/2)) for one edge."""
    incoming = np.asarray(incoming, dtype=np.float64)
    if incoming.size == 0:
        raise ValueError("check update needs at least one incoming message")
    prod = np.clip(np.prod(np.tanh(incoming / 2.0)), -(1 - ATANH_EPS), 1 - ATANH_EPS)
    return float(2.0 * np.arctanh(prod))


def check_update_minsum(incoming):
    """Min-sum approximation: sign product times minimum magnitude, sign(0)=+1."""
    incoming = np.asarray(incoming, dtype=np.float64)
    if incoming.size == 0:
        raise ValueError("check update needs at least one incoming message")
    signs = np.where(incoming < 0, -1.0, 1.0)
    return float(np.prod(signs) * np.min(np.abs(incoming)))


def variable_update(l_v, incoming, message_clamp=30.0):
    """Extrinsic variable-to-check message: channel LLR plus incoming sum."""
    total = float(l_v) + float(np.sum(incoming))
    return float(np.clip(total, -message_clamp, message_clamp))


def belief(l_v, incoming):
    """Posterior LLR: channel LLR plus all incoming check messages."""
    return float(l_v) + float(np.sum(incoming))


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


def check_minsum_terms(xc):
    """Min-sum extrinsic messages of checks from their variables' beliefs.

    ``xc`` has shape (..., d), one check per row.  Returns (u, signs,
    sign_excl, i1, i2) where u[..., j] excludes position j, i1 is the
    magnitude argmin (ties resolve to the lowest index), and i2 the argmin
    with i1 masked out; the index data drives the training backward pass.
    """
    signs = np.where(xc < 0, -1.0, 1.0)
    sign_excl = np.prod(signs, axis=-1, keepdims=True) * signs
    mags = np.abs(xc)
    i1 = np.argmin(mags, axis=-1, keepdims=True)
    m1 = np.take_along_axis(mags, i1, axis=-1)
    masked = mags.copy()
    np.put_along_axis(masked, i1, np.inf, axis=-1)
    i2 = np.argmin(masked, axis=-1, keepdims=True)
    m2 = np.take_along_axis(mags, i2, axis=-1)
    u = sign_excl * np.where(np.arange(xc.shape[-1]) == i1, m2, m1)
    return u, signs, sign_excl, i1, i2


def _check_sweep_minsum(v2c, ei):
    c2v = np.empty_like(v2c)
    for eidx in ei.degree_groups.values():
        c2v[:, eidx] = check_minsum_terms(v2c[:, eidx])[0]
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
