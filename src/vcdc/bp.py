"""Belief propagation on the Tanner graph.

Flooding schedule with sum-product (exact, tanh/arctanh) or min-sum check
updates and syndrome-based early exit, vectorized over a batch of frames.
The min-sum check kernel ``check_minsum_terms`` is shared with the neural
block and its training.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import LLR_CLAMP, hard_decide
from .codebook import check_parities

# Product clamp inside arctanh; keeps check messages finite (|u| <= ~28.4).
ATANH_EPS = 1e-12

SUM_PRODUCT = "sum-product"
MIN_SUM = "min-sum"


def check_count(name, value):
    """ValueError unless ``value`` is an integer >= 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


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
        check_count("max_iters", self.max_iters)
        if self.variant not in (SUM_PRODUCT, MIN_SUM):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not self.message_clamp > 0:
            raise ValueError(f"message_clamp must be positive, got {self.message_clamp!r}")


class EdgeIndex:
    """The row layout of BP messages on a Tanner graph.

    BP keeps its messages edge-major, as (E, B) arrays with one row per edge
    and one column per frame, so gathers by edge and by variable copy whole
    rows.  The rows are ordered for the check updates: checks are grouped by
    degree, and the rows ``degree_groups[d]`` hold, slot by slot, the edge
    of every degree-d check to its j-th variable, so that a reshape views
    them as a (d, checks, B) block of contiguous (checks, B) slabs.  Row r
    runs to variable ``row_var[r]``.  Belief sums take the rows by
    ``var_order`` in the same way: variables grouped by degree d, each
    ``var_groups`` entry a (d, variables, B) block.
    """

    def __init__(self, h):
        self.h = h
        self.degree_groups, start = {}, 0
        for _, table in h.check_tables:
            self.degree_groups[len(table)] = slice(start, start + table.size)
            start += table.size
        self.row_var = np.concatenate([table.ravel() for _, table in h.check_tables])
        row_chk = np.concatenate([np.tile(checks, len(table))
                                  for checks, table in h.check_tables])
        self.num_edges = self.row_var.size

        # each variable's rows in check order; variables of degree zero are
        # legal in principle and keep a zero sum
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

    def check_blocks(self, msgs):
        """(d, checks, B) views of the (E, B) messages ``msgs``, one per
        degree group."""
        return [msgs[rows].reshape(d, (rows.stop - rows.start) // d, msgs.shape[1])
                for d, rows in self.degree_groups.items()]

    def belief_sums(self, c2v, out=None, gather=None):
        """Per-variable sums of the (E, B) check-to-variable messages, shape
        (n, B), each added in check order as ``np.add.reduceat`` adds it.
        The sums go into ``out`` and the messages are gathered, by variable,
        into ``gather`` when these float64 (n, B) and (E, B) arrays are
        given, else into new arrays."""
        if out is None:
            out = np.empty((self.h.n, c2v.shape[1]))
        # mode="clip" keeps take from buffering its output; every index is valid
        msgs = np.take(c2v, self.var_order, axis=0, out=gather, mode="clip")
        out[self.isolated] = 0.0
        start = 0
        for d, variables in self.var_groups:
            stop = start + d * variables.size
            block = msgs[start:stop].reshape(d, variables.size, c2v.shape[1])
            out[variables] = block[0] if d == 1 else block[0] + _pairwise_sum(block[1:])
            start = stop
        return out


def _pairwise_sum(a):
    """Sum over axis 0 of ``a`` (length >= 1), term for term as numpy's
    pairwise summation adds the terms after the first of a reduction: in
    order below 8 terms, as 8 interleaved partial sums up to 128, and by
    halves above.  Beliefs so keep the bits they had when ``np.add.reduceat``
    summed them, at about a fifth of its cost, since reduceat makes one
    call per variable and frame."""
    m = a.shape[0]
    if m < 8:
        res = a[0].copy()
        for x in a[1:]:
            res += x
        return res
    if m <= 128:
        tail = m - m % 8
        r = a[:8] if tail == 8 else a[:8] + a[8:16]
        for i in range(16, tail, 8):
            r += a[i:i + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), a level a call
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        res = r[0] + r[1]
        for x in a[tail:]:
            res += x
        return res
    half = m // 2 - m // 2 % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _exclusive_products(t, out):
    """out[j] = the product of t[k] over k != j, for (d, checks, B) blocks.

    The same chain of multiplications as a forward and a backward
    ``cumprod`` along d: slot j first takes t[d-1] ... t[j+1] from the back,
    then one running (checks, B) product multiplies in t[0] ... t[j-1].
    """
    d = len(t)
    out[d - 2] = t[d - 1]
    for j in range(d - 3, -1, -1):
        np.multiply(out[j + 1], t[j + 1], out=out[j])
    fwd = t[0].copy()
    for j in range(1, d - 1):
        out[j] *= fwd
        fwd *= t[j]
    out[d - 1] = fwd


def _check_sweep_sumproduct(t, ei, c2v):
    """Sum-product check-to-variable messages into the (E, B) array ``c2v``
    from the (E, B) array ``t`` of tanh(v2c / 2), the variable-to-check
    messages as the check products take them."""
    for tb, excl in zip(ei.check_blocks(t), ei.check_blocks(c2v)):
        _exclusive_products(tb, excl)
    np.clip(c2v, -(1 - ATANH_EPS), 1 - ATANH_EPS, out=c2v)
    np.arctanh(c2v, out=c2v)
    c2v *= 2.0
    return c2v


def _merge_least(a1, a2, b1, b2):
    """Fold the two least values b1 <= b2 of one set into those a1 <= a2 of
    another, in place: a1, a2 become the two least of the union, and b2 is
    spent as scratch."""
    np.minimum(a2, b2, out=a2)
    np.maximum(a1, b1, out=b2)
    np.minimum(a2, b2, out=a2)
    np.minimum(a1, b1, out=a1)


def _two_least(mags, scratch):
    """The least and second least entries m1 <= m2 along axis 0 of ``mags``
    (length d >= 2), ties counted, as views of ``scratch``, an array of the
    shape of ``mags`` that it overwrites; ``mags`` is only read.

    An exact halving tournament: level one takes the min and max of the
    two halves of ``mags``, so slot i holds the two least of a pair, and
    each later level folds the back half of the slots into the front half.
    An odd entry or slot left over folds into slot 0.  min and max return
    one of their operands, so m1 and m2 do not depend on the order.
    """
    half = len(mags) // 2
    lo = np.minimum(mags[:half], mags[half:2 * half], out=scratch[:half])
    hi = np.maximum(mags[:half], mags[half:2 * half], out=scratch[half:2 * half])
    if len(mags) % 2:
        # the second least of lo <= hi and m is max(min(hi, m), lo)
        m = mags[-1]
        np.minimum(hi[0], m, out=hi[0])
        np.maximum(hi[0], lo[0], out=hi[0])
        np.minimum(lo[0], m, out=lo[0])
    while len(lo) > 1:
        slots, half = len(lo), len(lo) // 2
        if slots % 2:
            _merge_least(lo[:1], hi[:1], lo[-1:], hi[-1:])
        _merge_least(lo[:half], hi[:half], lo[half:2 * half], hi[half:2 * half])
        lo, hi = lo[:half], hi[:half]
    return lo[0], hi[0]


def _exclude_least(mags, scratch):
    """Replace each entry of the (d, ...) magnitudes ``mags`` by the least
    of the other entries along axis 0, in place, with ``scratch``, an array
    of the shape of ``mags`` that it overwrites.

    Only the two least magnitudes m1 <= m2 are needed: clamping at m2
    leaves m1 on the minimizers and m2 elsewhere, and xor with the bits of
    m1 ^ m2 swaps the two values exactly.  A position with |x_j| == m1 that
    is not the first minimizer sees m2 == m1 either way.  m2 and the swap
    bits are each spread over ``scratch`` before they apply: numpy buffers
    a ufunc that broadcasts a row over rows shorter than half its 8,192-entry
    buffer, and that buffer would be an allocation the size of ``mags``.
    """
    m1, m2 = _two_least(mags, scratch)
    m2 = m2.copy()
    swap = np.bitwise_xor(m1.view(np.uint64), m2.view(np.uint64))
    np.copyto(scratch, m2)
    np.minimum(mags, scratch, out=mags)
    bits = scratch.view(np.uint64)
    np.copyto(bits, swap)
    np.bitwise_xor(mags.view(np.uint64), bits, out=mags.view(np.uint64))


def minsum_work_size(size):
    """Float64 entries of the ``work`` buffer ``check_minsum_terms`` needs
    for ``size`` belief entries."""
    return size + -(-size // 8)


def check_minsum_terms(xc, out=None, work=None):
    """Min-sum extrinsic messages of checks from their variables' beliefs.

    ``xc`` is a float64 array of shape (..., d), d >= 2, one check per row
    and no NaN entry.
    Returns the messages ``u`` of the same shape: u[..., j] is the product
    of the signs of the other entries (sign(0) = +1 for either zero) times
    their least magnitude.  ``u`` is written into ``out`` when it is given,
    else into a new array with the memory layout of ``xc``.  ``work``, a
    flat float64 array of at least ``minsum_work_size(xc.size)`` entries,
    or a new one, holds the magnitudes, then the signs as one bool each;
    with ``out`` and ``work`` given the kernel allocates only a few vectors
    of one entry per check, and numpy at most one buffer of the signs.

    The messages come from each row's two least magnitudes (the compressed
    check message of layered min-sum decoders, Mansour & Shanbhag 2003),
    exactly, ties included.  The kernel works on ``xc.T``, d leading:
    callers that hold their checks as a (d, rows) block pass its transpose,
    and then every step, the reads of ``xc`` and the write-out included,
    runs over contiguous rows.  ``u``'s own memory is the scratch of the
    halving tournament and of ``_exclude_least`` before it takes the
    messages, whose bits are built by bit operations: the magnitude's bits
    or'ed with a sign bit, the entry's sign xor its row's sign product.
    """
    u = np.empty_like(xc, dtype=np.float64) if out is None else out
    x, ut = xc.T, u.T
    if work is None:
        work = np.empty(minsum_work_size(x.size))
    mags = np.abs(x, out=work[:x.size].reshape(x.shape))
    # -0.0 < 0 is false, so either zero counts as positive
    neg = np.less(x, 0.0, out=work[x.size:].view(bool)[:x.size].reshape(x.shape))
    odd = np.logical_xor.reduce(neg, axis=0)
    _exclude_least(mags, ut)
    # x_j's sign xor the row's sign product is the sign of the other entries;
    # copyto casts the bools without the buffer a casting ufunc would take
    bits = ut.view(np.uint64)
    np.copyto(bits, np.not_equal(neg, odd, out=neg))
    bits <<= 63
    bits |= mags.view(np.uint64)
    return u


def _check_sweep_minsum(v2c, ei, c2v, work):
    """Min-sum check-to-variable messages from the (E, B) messages ``v2c``
    into the (E, B) array ``c2v``: each (d, checks, B) block goes to the
    kernel as (checks B, d) rows, and the kernel writes straight into the
    matching block of ``c2v``, with ``work`` as its workspace."""
    for xb, ub in zip(ei.check_blocks(v2c), ei.check_blocks(c2v)):
        check_minsum_terms(xb.reshape(len(xb), -1).T, out=ub.reshape(len(ub), -1).T,
                           work=work)
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


def copy_clamped(out, llrs):
    """Copy the (B, n) LLRs ``llrs`` into the (n, B) array ``out``, clamped
    to +-LLR_CLAMP.  The clamp runs in place: a clip that read ``llrs.T``
    would take a 64 KiB ufunc buffer."""
    np.copyto(out, llrs.T)
    np.clip(out, -LLR_CLAMP, LLR_CLAMP, out=out)


def _head(flat, rows, cols):
    """The C-ordered (rows, cols) view of the head of the flat array ``flat``."""
    return flat[:rows * cols].reshape(rows, cols)


class RunningSet:
    """The frames of one decode call that have not stopped, and the outputs
    (bits, beliefs, counts, ok) of those that have: both decoders' exit
    test and compaction, and their one frame boundary.

    The set checks ``llrs`` as ``check_llr_batch`` does and makes one
    float64 work allocation, sized per frame: ``state``, a C-ordered
    (rows, B') array whose column j is the state of the running frame
    ``frames[j]`` and whose first n rows start as ``llrs.T`` clamped to
    +-LLR_CLAMP; ``spare``, flat memory at least the size of ``state``,
    free between two calls of ``settle``; and ``work``, ``extra`` entries
    for each of the B frames.  ``settle`` writes the outputs.
    """

    def __init__(self, h, llrs, rows, extra):
        llrs = check_llr_batch(h, llrs)
        self.h, self.frames = h, np.arange(len(llrs))
        self.outputs = (np.empty(llrs.shape, dtype=np.uint8), np.empty_like(llrs),
                        np.empty(len(llrs), dtype=np.int64), np.empty(len(llrs), dtype=bool))
        slab = rows * len(llrs)
        work = np.empty(2 * slab + extra * len(llrs))
        self.state = _head(work, rows, len(llrs))
        self.spare, self.work = work[slab:2 * slab], work[2 * slab:]
        copy_clamped(self.state[:h.n], llrs)

    def settle(self, s, count, last=False):
        """The exit test on the running frames, whose beliefs are the columns
        of the (n, B') array ``s``: a frame fails a check when the hard
        decisions of the check's variables xor to 1.  The frames that pass
        every check stop, and only they are written to the outputs: hard
        decisions, beliefs, ``count`` and True.  With ``last`` every running
        frame is written, ``ok`` taking whether it passed, and none stops
        running.  Otherwise, when frames stop, the state's columns of the
        others are taken into the spare, which becomes the state, and the
        old state's memory becomes the spare.  Returns the state.  The
        decoder made the bits, so their parity is taken with no bit check."""
        hard = hard_decide(s)
        fails = np.zeros(len(self.frames), dtype=bool)
        for _, parities in check_parities(self.h, hard):
            fails |= parities.any(axis=0)
        done = slice(None) if last else np.flatnonzero(~fails)
        at = self.frames[done]
        for out, value in zip(self.outputs, (hard.T[done], s.T[done], count, ~fails[done])):
            out[at] = value
        if not (last or fails.all()):
            running = np.flatnonzero(fails)
            self.frames = self.frames[running]
            # mode="clip" keeps take from buffering its output; every index is valid
            state = np.take(self.state, running, axis=1, mode="clip",
                            out=_head(self.spare, len(self.state), running.size))
            self.state, self.spare = state, self.state.reshape(-1)
        return self.state


def decode_bp_batch(h, llrs, cfg=BpConfig(), edge_index=None):
    """Flooding BP over a (B, n) batch of LLR vectors.

    Returns (bits, beliefs, iterations, syndrome_zero) arrays; each frame
    exits as soon as its hard decision satisfies every parity check.
    The ``RunningSet`` rejects non-finite LLRs and clamps the others as it
    copies them in.

    Frames are columns of the state of a ``RunningSet``: a running frame's
    state is one (2n + E)-row column holding its clamped LLRs, beliefs and
    c2v messages, and v2c lives in the set's spare slab.  Besides these
    two slabs the call's one work allocation holds, for min-sum, the
    kernel's workspace, sized per frame like the slabs.  The sweep reads
    v2c and writes c2v into the state; the belief sums gather into the
    spent v2c.  The first sweep's inputs are made in the belief rows, on
    the LLRs.
    """
    ei = edge_index if edge_index is not None else EdgeIndex(h)
    n, edges = h.n, ei.num_edges
    # min-sum's kernel workspace is sized for the widest degree group
    kernel = 0 if cfg.variant == SUM_PRODUCT else minsum_work_size(
        max(r.stop - r.start for r in ei.degree_groups.values()))
    rs = RunningSet(h, llrs, 2 * n + edges, kernel)
    sweep = (_check_sweep_sumproduct if cfg.variant == SUM_PRODUCT
             else functools.partial(_check_sweep_minsum, work=rs.work))

    def sweep_inputs(x, out):
        """The messages ``x`` as the sweep takes them, into ``out``: clipped,
        and for sum-product tanh(x / 2)."""
        np.clip(x, -cfg.message_clamp, cfg.message_clamp, out=out)
        if cfg.variant == SUM_PRODUCT:
            np.tanh(np.divide(out, 2.0, out=out), out=out)
        return out

    state = rs.state
    # every edge's first message is its variable's LLR, so the first sweep's
    # inputs are made on the n LLRs, in the belief rows, and then gathered;
    # mode="clip" keeps take from buffering its output; every index is valid
    v2c = np.take(sweep_inputs(state[:n], state[n:2 * n]), ei.row_var, axis=0,
                  out=_head(rs.spare, edges, state.shape[1]), mode="clip")
    for it in range(1, cfg.max_iters + 1):
        l, s, c2v = state[:n], state[n:2 * n], state[2 * n:]
        sweep(v2c, ei, c2v)
        ei.belief_sums(c2v, out=s, gather=v2c)
        s += l
        state = rs.settle(s, it, it == cfg.max_iters or not cfg.early_exit)
        if state.shape[1] == 0 or it == cfg.max_iters:
            break
        v2c = np.take(state[n:2 * n], ei.row_var, axis=0,
                      out=_head(rs.spare, edges, state.shape[1]), mode="clip")
        v2c -= state[2 * n:]
        sweep_inputs(v2c, v2c)
    return rs.outputs
