"""Row-major reference forms of the fast paths, checked against bit for bit.

The fast paths take their buffers from their caller.  The first section
calls them on new buffers, for the tests, the tape and the oracles here:
``kernel`` (``vcdc.bp.check_minsum_terms``), ``belief_sums``
(``vcdc.bp.EdgeIndex.belief_sums``), ``block`` (``vcdc.denoiser.neural_block``,
on frames as rows) and ``bp_decode`` (``vcdc.bp.decode_bp_batch``, with
a mode that runs every frame for all its iterations).

The one-check-at-a-time block walk: ``vcdc.denoiser.block_layers`` updates
each run of consecutive checks with disjoint variables
(``ParityCheckMatrix.layer_groups``) at once.  The walk here updates one
check per layer, as the model defines the block, so tests can require the
two to agree bit for bit.

The walk runs on its own min-sum kernel, ``check_minsum_terms``: the
argmin form that builds every index term the backward reads, against which
``vcdc.bp.check_minsum_terms`` (the two-minimum form) and
``vcdc.train.minsum_backward`` (on the index terms ``minsum_routing``
rebuilds from the beliefs and the messages) are checked bit for bit.
``two_least`` is the sequential scan for a row's two least magnitudes, the
reference for the halving tournament of ``vcdc.bp._two_least``.

``grouped_block_layers``, ``block_gradients`` and ``decode_vcdc_batch``
run the layer groups on frame-major rows: each group's beliefs are gathered
from a (B, n) array into C-ordered (B g, d) rows, and the backward
(``grouped_minsum_backward``) sums each row's adjoints along its contiguous
last axis.  They are the reference for the frames-as-columns walk, kernel
call and backward of ``vcdc.denoiser`` and ``vcdc.train``, which must keep
every bit, reduction orders included.  ``decode_vcdc_batch`` writes the
reverse update z + (alpha_{t-1} - alpha_t) x_hat itself, as the reference
for ``vcdc.diffusion.reverse_step``.

``SortedLayout`` builds ``vcdc.bp.EdgeIndex``'s message rows by sorting the
edges (``np.bincount`` for the variable degrees, a three-key ``np.lexsort``
for each variable's rows): the reference for the layout ``EdgeIndex`` reads
from H's degree tables.

``decode_bp_batch`` is flooding BP with frame-major (B, E) messages in
canonical edge order, the check products from two ``cumprod`` sweeps and the
belief sums from ``np.add.reduceat``: the reference for ``vcdc.bp``'s
edge-major decoder.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from vcdc import bp, denoiser
from vcdc.bp import ATANH_EPS, LLR_CLAMP, SUM_PRODUCT, BpConfig, check_llr_batch
from vcdc.channel import hard_decide
from vcdc.codebook import syndrome
from vcdc.train import loss_with_adjoint


# the fast paths on new buffers ----------------------------------------------

def kernel(xc):
    """``vcdc.bp.check_minsum_terms`` into a new array with the memory
    layout of ``xc``, on a new workspace."""
    return bp.check_minsum_terms(xc, np.empty_like(xc, dtype=np.float64),
                                 np.empty(bp.minsum_work_size(xc.size)))


def belief_sums(ei, c2v):
    """``vcdc.bp.EdgeIndex.belief_sums`` of the (E, B) messages ``c2v`` on
    the edge index ``ei``, into new arrays."""
    frames = c2v.shape[1]
    return ei.belief_sums(c2v, np.empty((ei.h.n, frames)), np.empty((ei.h.num_edges, frames)))


def block(h, weights, llrs):
    """``vcdc.denoiser.neural_block`` on a C-ordered copy of the transpose
    of a (B, n) batch of beliefs and a new workspace: (final beliefs, soft
    estimate tanh(beliefs * 0.5), formed as the decoder forms it), both
    (B, n)."""
    llrs = np.asarray(llrs, dtype=np.float64)
    zt = np.array(llrs.T, order="C")  # a copy: the block runs in place
    beliefs = denoiser.neural_block(h, weights, zt, np.empty(len(llrs) * denoiser.walk_size(h)))
    return beliefs.T, np.tanh(beliefs.T * 0.5)


def bp_decode(h, llrs, cfg=BpConfig(), early_exit=True):
    """``vcdc.bp.decode_bp_batch`` on a new ``EdgeIndex`` of ``h``.

    Without ``early_exit`` every ``RunningSet.settle`` call is a last one,
    so no frame stops and each runs all ``cfg.max_iters`` iterations: the
    mode for tests of the converged marginals themselves.
    """
    if early_exit:
        return bp.decode_bp_batch(h, llrs, cfg, edge_index=bp.EdgeIndex(h))
    settle = bp.RunningSet.settle
    with mock.patch.object(bp.RunningSet, "settle",
                           lambda rs, s, count, last=False: settle(rs, s, count, True)):
        return bp.decode_bp_batch(h, llrs, cfg, edge_index=bp.EdgeIndex(h))


# the reference forms --------------------------------------------------------

def check_minsum_terms(xc):
    """Min-sum extrinsic messages of checks from their variables' beliefs.

    ``xc`` has shape (..., d), d >= 2, one check per row and no NaN entry.
    Returns (u, signs, sign_excl, i1, i2) where u[..., j] excludes position
    j, i1 is the magnitude argmin (ties resolve to the lowest index), and i2
    the argmin over the other positions.
    """
    signs = np.where(xc < 0, -1.0, 1.0)
    sign_excl = np.prod(signs, axis=-1, keepdims=True) * signs
    mags = np.abs(xc)
    # the first two positions in stable magnitude order: masking i1 by a
    # value instead would tie an infinite magnitude
    order = np.argsort(mags, axis=-1, kind="stable")
    i1, i2 = order[..., :1], order[..., 1:2]
    m1 = np.take_along_axis(mags, i1, axis=-1)
    m2 = np.take_along_axis(mags, i2, axis=-1)
    u = sign_excl * np.where(np.arange(xc.shape[-1]) == i1, m2, m1)
    return u, signs, sign_excl, i1, i2


def two_least(mags):
    """The least and second least entries m1 <= m2 along axis 0 of ``mags``
    (length >= 2), ties counted: one entry at a time, the second least of
    m1 <= m2 and m being max(min(m2, m), m1)."""
    m1 = np.minimum(mags[0], mags[1])
    m2 = np.maximum(mags[0], mags[1])
    for m in mags[2:]:
        np.minimum(m2, m, out=m2)
        np.maximum(m2, m1, out=m2)
        np.minimum(m1, m, out=m1)
    return m1, m2


def minsum_backward(g, terms):
    """Adjoint of a check's beliefs (B, d) given the adjoint ``g`` of its
    min-sum messages and the ``check_minsum_terms`` output ``terms``.

    Each outgoing adjoint routes to the variable whose magnitude attained
    the (extrinsic) minimum, scaled by that variable's sign, with the sign
    product held constant.
    """
    _, signs, sign_excl, i1, i2 = terms
    gs = g * sign_excl
    grad = np.zeros_like(gs)
    # edges j != i1 select magnitude |x_{i1}|; edge j == i1 selects |x_{i2}|
    at_i1 = np.take_along_axis(gs, i1, axis=-1)
    np.put_along_axis(grad, i1,
                      (gs.sum(axis=-1, keepdims=True) - at_i1)
                      * np.take_along_axis(signs, i1, axis=-1), axis=-1)
    prev = np.take_along_axis(grad, i2, axis=-1)
    np.put_along_axis(grad, i2,
                      prev + at_i1 * np.take_along_axis(signs, i2, axis=-1), axis=-1)
    return grad


def check_columns(h):
    """Each check's variable indices, one int64 array per check."""
    return [np.flatnonzero(row) for row in h.rows]


def block_layers(h, w, x):
    """Run the layers over the (B, n) beliefs ``x`` in place, one check at
    a time; yields each layer's (columns, check_minsum_terms output)."""
    for wl, cols in zip(w, check_columns(h)):
        xc = x[:, cols]
        terms = check_minsum_terms(xc)
        x[:, cols] = xc + wl * terms[0]
        yield cols, terms


def neural_block(h, weights, llrs):
    """``vcdc.denoiser.neural_block`` on the serial walk: (beliefs, tanh(beliefs/2))."""
    x = np.array(llrs, dtype=np.float64)
    for _ in block_layers(h, weights.values, x):
        pass
    return x, np.tanh(x / 2.0)


def grouped_block_layers(h, w, x):
    """Run the layer groups over the (B, n) beliefs ``x`` in place; yields
    each group's (checks, columns, rows xc, messages u), xc and u C-ordered
    (B g, d) arrays, row b g + i holding check i of frame b."""
    for checks, table in h.layer_groups:
        cols = table.T  # (g, d): row i the variables of check i
        shape = (-1,) + cols.shape
        xc = np.take(x, cols, axis=1).reshape(-1, cols.shape[1])
        u = kernel(xc)
        x[:, cols] = xc.reshape(shape) + w[checks, None] * u.reshape(shape)
        yield checks, cols, xc, u


def grouped_minsum_backward(g, xc, u):
    """``vcdc.train.minsum_backward`` of ``minsum_routing`` on C-ordered
    (rows, d) arrays, each row's adjoints summed along the last axis."""
    rows = np.arange(xc.shape[0])
    mags = np.abs(xc)
    i1 = mags.argmin(axis=1)
    m2 = np.abs(u[rows, i1])
    mags[rows, i1] = np.nan
    i2 = (mags == m2[:, None]).argmax(axis=1)
    gs = g * np.copysign(1.0, u)
    at_i1 = gs[rows, i1]
    signs = np.where(xc < 0, -1.0, 1.0)
    grad = np.zeros_like(gs)
    grad[rows, i1] = (gs.sum(axis=1) - at_i1) * signs[rows, i1]
    grad[rows, i2] += at_i1 * signs[rows, i2]
    return grad


def block_gradients(h, weights, llrs, x_b):
    """``vcdc.train.block_gradients`` on the frame-major grouped walk."""
    weights = np.asarray(weights, dtype=np.float64)
    x = np.atleast_2d(np.asarray(llrs, dtype=np.float64)).copy()
    layers = list(grouped_block_layers(h, weights, x))
    value, g = loss_with_adjoint(x, x_b)
    grads = np.empty(h.num_checks)
    for checks, cols, xc, u in reversed(layers):
        shape = (-1,) + cols.shape
        # the gather comes out F-ordered; C-ordered copies of the adjoint and
        # of each check's (B, d) products fix the order its sum rounds in
        g_cols = np.ascontiguousarray(g[:, cols])
        p = np.ascontiguousarray((g_cols * u.reshape(shape)).transpose(1, 0, 2))
        grads[checks] = p.sum(axis=(1, 2))
        wg = (g_cols * weights[checks, None]).reshape(u.shape)
        g[:, cols] += grouped_minsum_backward(wg, xc, u).reshape(shape)
    return value, grads


def _grouped_neural_block(h, weights, llrs):
    x = np.array(llrs, dtype=np.float64)
    for _ in grouped_block_layers(h, weights.values, x):
        pass
    return x, np.tanh(x / 2.0)


def decode_vcdc_batch(h, weights, sched, llrs):
    """``vcdc.denoiser.decode_vcdc_batch`` on the frame-major grouped walk."""
    llrs = check_llr_batch(h, llrs)
    bits = hard_decide(llrs)
    beliefs = llrs.copy()
    steps = np.zeros(llrs.shape[0], dtype=np.int64)
    ok = syndrome(h, bits)[1] == 0
    idx, z = np.flatnonzero(~ok), llrs[~ok]
    used = 0
    for t_index in range(len(sched) - 1, -1, -1):
        if idx.size == 0:
            break
        block_beliefs, x_hat = _grouped_neural_block(h, weights, z)
        if t_index:
            z = z + (sched.alphas[t_index - 1] - sched.alphas[t_index]) * x_hat
            used += 1
        else:
            z = block_beliefs
        hard = hard_decide(z)
        done = syndrome(h, hard)[1] == 0
        bits[idx], beliefs[idx], steps[idx], ok[idx] = hard, z, used, done
        idx, z = idx[~done], z[~done]
    return bits, beliefs, steps, ok


class SortedLayout:
    """``vcdc.bp.EdgeIndex``'s ``row_var``, ``var_order``, ``var_groups`` and
    ``isolated``, the edges sorted into place: the checks grouped by degree,
    slot by slot, then the rows ordered by (variable degree, variable, check)."""

    def __init__(self, h):
        degrees = h.rows.sum(axis=1)
        groups = [np.flatnonzero(degrees == d) for d in sorted(set(degrees.tolist()))]
        tables = [np.nonzero(h.rows[checks])[1].reshape(checks.size, -1).T for checks in groups]
        self.row_var = np.concatenate([table.ravel() for table in tables])
        row_chk = np.concatenate([np.tile(checks, len(table))
                                  for checks, table in zip(groups, tables)])
        var_degrees = np.bincount(self.row_var, minlength=h.n)
        self.isolated = np.flatnonzero(var_degrees == 0)
        by_var = np.lexsort((row_chk, self.row_var, var_degrees[self.row_var]))
        self.var_groups, blocks, start = [], [], 0
        for d in sorted(set(var_degrees.tolist()) - {0}):
            variables = np.flatnonzero(var_degrees == d)
            stop = start + d * variables.size
            blocks.append(by_var[start:stop].reshape(variables.size, d).T.ravel())
            self.var_groups.append((d, variables))
            start = stop
        self.var_order = np.concatenate(blocks)


class RowMajorEdges:
    """Canonical (check-major) edges with each degree group's (g, d) edge
    indices and the variable-major order and segment starts for reduceat."""

    def __init__(self, h):
        edge_chk, self.edge_var = np.nonzero(h.rows)
        degrees = h.rows.sum(axis=1, dtype=np.int64)
        row_splits = np.concatenate([[0], np.cumsum(degrees)])
        self.degree_groups = {
            int(d): np.stack([np.arange(row_splits[c], row_splits[c] + d)
                              for c in np.flatnonzero(degrees == d)])
            for d in sorted(set(degrees.tolist()))}
        self.n = h.n
        self.var_order = np.lexsort((edge_chk, self.edge_var))
        var_ids = self.edge_var[self.var_order]
        self.nonempty_vars = np.unique(var_ids)
        self.var_starts = np.searchsorted(var_ids, self.nonempty_vars)

    def belief_sums(self, c2v):
        out = np.zeros((c2v.shape[0], self.n), dtype=c2v.dtype)
        out[:, self.nonempty_vars] = np.add.reduceat(c2v[:, self.var_order],
                                                     self.var_starts, axis=1)
        return out


def _sweep_sumproduct(v2c, ei):
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


def _sweep_minsum(v2c, ei):
    c2v = np.empty_like(v2c)
    for eidx in ei.degree_groups.values():
        c2v[:, eidx] = check_minsum_terms(v2c[:, eidx])[0]
    return c2v


def decode_bp_batch(h, llrs, cfg, early_exit=True):
    """``vcdc.bp.decode_bp_batch`` on frame-major (B, E) messages; without
    ``early_exit`` it is ``bp_decode``'s mode of that name."""
    llrs = check_llr_batch(h, llrs)
    ei = RowMajorEdges(h)
    sweep = _sweep_sumproduct if cfg.variant == SUM_PRODUCT else _sweep_minsum
    nframes = llrs.shape[0]
    bits = np.empty(llrs.shape, dtype=np.uint8)
    beliefs = np.empty_like(llrs)
    iters = np.empty(nframes, dtype=np.int64)
    ok = np.empty(nframes, dtype=bool)

    idx = np.arange(nframes)
    l = np.clip(llrs, -LLR_CLAMP, LLR_CLAMP)
    v2c = np.clip(l[:, ei.edge_var], -bp.MESSAGE_CLAMP, bp.MESSAGE_CLAMP)
    for it in range(1, cfg.max_iters + 1):
        c2v = sweep(v2c, ei)
        s = l + ei.belief_sums(c2v)
        hard = hard_decide(s)
        done = syndrome(h, hard)[1] == 0
        bits[idx], beliefs[idx], iters[idx], ok[idx] = hard, s, it, done
        if early_exit:
            keep = ~done
            idx, l, s, c2v = idx[keep], l[keep], s[keep], c2v[keep]
        if idx.size == 0 or it == cfg.max_iters:
            break
        v2c = np.clip(s[:, ei.edge_var] - c2v, -bp.MESSAGE_CLAMP, bp.MESSAGE_CLAMP)
    return bits, beliefs, iters, ok
