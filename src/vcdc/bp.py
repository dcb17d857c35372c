"""Belief propagation on the Tanner graph.

Flooding schedule with sum-product (exact, tanh/arctanh) or min-sum check
updates and syndrome-based early exit, vectorized over a batch of frames.
The min-sum check kernel ``check_minsum_terms`` is shared with the neural
block and its training.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import hard_decide, soft_decide
from .codebook import check_parities, degree_tables

# Product clamp inside arctanh; keeps check messages finite (|u| <= ~28.4).
ATANH_EPS = 1e-12

# Clamp on LLRs entering a RunningSet; keeps sums finite, no measurable BER effect.
LLR_CLAMP = 1e9

# Clamp on variable-to-check messages; no BER effect at the tested CSNRs.
MESSAGE_CLAMP = 30.0

# Relative headroom per factor of a check product, 8 units of 2**-52: numpy's
# tanh and math.tanh each lie within a few ulps of tanh (3 apart at most on a
# dense grid of [0, 20] with numpy 2.4.6), and each multiplication rounds by
# at most half of one.
_FACTOR_SLACK = 2.0 ** -49

SUM_PRODUCT = "sum-product"
MIN_SUM = "min-sum"

# The shortest row numpy broadcasts over rows without buffering: one entry
# more than half its ufunc buffer (4,097 of 8,192 entries by default), read
# once at import.  When numpy buffers a broadcast operand is not part of its
# API: this rule, and the traced-peak tests that rest on it, were measured
# on numpy 2.4.6 and are to be measured again on another version.
BROADCAST_ROW = np.getbufsize() // 2 + 1

# The kernel's scalar operands as 0-d arrays: a ufunc converts a Python
# number on every call, a third to a half of the time of a call on a few
# rows (numpy 2.4.6).
_ZERO, _SIGN_SHIFT = np.zeros(()), np.array(63, dtype=np.uint64)


def check_count(name, value):
    """ValueError unless ``value`` is an integer >= 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class BpConfig:
    """Decoder knobs: iteration cap and check-update rule."""

    max_iters: int = 5
    variant: str = SUM_PRODUCT

    def __post_init__(self):
        check_count("max_iters", self.max_iters)
        if self.variant not in (SUM_PRODUCT, MIN_SUM):
            raise ValueError(f"unknown variant {self.variant!r}")


class EdgeIndex:
    """The row layout of BP messages on a Tanner graph.

    BP keeps its messages edge-major, as (E, B) arrays with one row per edge
    and one column per frame, so gathers by edge and by variable copy whole
    rows.  The rows are ordered for the check updates: checks are grouped by
    degree, and the rows ``degree_groups[d]`` hold, slot by slot, the edge
    of every degree-d check to its j-th variable, so that a reshape views
    them as a (d, checks, B) block of contiguous (checks, B) slabs.  Row r
    runs to variable ``row_var[r]``.  Belief sums take the rows by
    ``var_order`` in the same way: variables grouped by degree d as
    ``degree_tables(h.rows.T)`` groups them, each ``var_groups`` entry a
    (d, variables, B) block.
    """

    def __init__(self, h):
        self.h = h
        # each degree group's rows, and the (m, n) map from (check, variable)
        # to row
        self.degree_groups, start = {}, 0
        row_of = np.empty(h.rows.shape, dtype=np.int64)
        for checks, table in h.check_tables:
            self.degree_groups[len(table)] = slice(start, start + table.size)
            row_of[checks, table] = np.arange(start, start + table.size).reshape(table.shape)
            start += table.size
        self.row_var = np.concatenate([table.ravel() for _, table in h.check_tables])

        # each variable's rows in check order; variables of degree zero are
        # legal in principle, form H's (0, variables) table and keep a zero sum
        var_tables = degree_tables(h.rows.T)
        self.var_order = np.concatenate([row_of[table, variables]
                                         for variables, table in var_tables], axis=None)
        self.var_groups = [(len(table), variables) for variables, table in var_tables
                           if table.size]
        lines, table = var_tables[0]
        self.isolated = lines[:0] if table.size else lines

    def check_blocks(self, msgs):
        """(d, checks, B) views of the (E, B) messages ``msgs``, one per
        degree group."""
        return [msgs[rows].reshape(d, (rows.stop - rows.start) // d, msgs.shape[1])
                for d, rows in self.degree_groups.items()]

    def belief_sums(self, c2v, out, gather):
        """Per-variable sums of the (E, B) check-to-variable messages, each
        added in check order as ``np.add.reduceat`` adds it, into ``out``, a
        float64 (n, B) array, which it returns.  The messages are gathered,
        by variable, into ``gather``, a float64 (E, B) array."""
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


def _products_reach_clamp(d):
    """Whether the products of a degree-d check can reach the arctanh clamp
    +-(1 - ATANH_EPS) at ``MESSAGE_CLAMP`` as it reads at the call.

    Each of the d - 1 factors of a product is tanh(x / 2) of a message
    clipped to +-MESSAGE_CLAMP, so it is at most T = tanh(MESSAGE_CLAMP / 2)
    in magnitude, up to tanh's error.  Rounding to nearest is monotone, so
    the computed product of factors no larger than T in magnitude stays
    under the same chain of multiplications on T, at most
    T ** (d - 1) (1 + 2**-53) ** (d - 2).  ``_FACTOR_SLACK`` pads each factor
    for both roundings; a NaN bound reaches the clamp.
    """
    bound = (math.tanh(MESSAGE_CLAMP / 2) * (1 + _FACTOR_SLACK)) ** (d - 1)
    return not bound < 1 - ATANH_EPS


def _check_sweep_sumproduct(t, ei, c2v):
    """Sum-product check-to-variable messages into the (E, B) array ``c2v``
    from the (E, B) array ``t`` of tanh(v2c / 2), the variable-to-check
    messages as the check products take them.  A degree group's products
    are clamped for arctanh only where they can reach the clamp; elsewhere
    the clip could not change a bit (at MESSAGE_CLAMP = 30, degree 7 up)."""
    for tb, excl in zip(ei.check_blocks(t), ei.check_blocks(c2v)):
        _exclusive_products(tb, excl)
        if _products_reach_clamp(len(excl)):
            np.clip(excl, -(1 - ATANH_EPS), 1 - ATANH_EPS, out=excl)
    np.arctanh(c2v, out=c2v)
    c2v *= 2.0
    return c2v


def _two_least(mags, scratch):
    """The least and second least entries m1 <= m2 along axis 0 of ``mags``
    (length d >= 2), ties counted, as views of ``scratch``, an array of the
    shape of ``mags`` that it overwrites; ``mags`` is only read.

    An exact halving tournament, in one flat loop: level one takes the min
    and max of the two halves of ``mags`` into the slots, the lows
    ``scratch[:top]`` and the highs ``scratch[top:2 top]``, so slot i holds
    the two least of a pair, and each later level folds the back half of
    the slots into the front half.  An odd entry or slot left over folds
    into slot 0.  A fold of the two least b1 <= b2 into a1 <= a2 is four
    calls on four views of ``scratch``: a2 = min(a2, b2), b2 = max(a1, b1),
    a2 = min(a2, b2), a1 = min(a1, b1).  min and max return one of their
    operands, so m1 and m2 do not depend on the order.
    """
    top = len(mags) // 2
    np.minimum(mags[:top], mags[top:2 * top], out=scratch[:top])
    np.maximum(mags[:top], mags[top:2 * top], out=scratch[top:2 * top])
    lo, hi = scratch[0], scratch[top]
    if len(mags) % 2:
        # the second least of lo <= hi and m is max(min(hi, m), lo)
        m = mags[-1]
        np.minimum(hi, m, out=hi)
        np.maximum(hi, lo, out=hi)
        np.minimum(lo, m, out=lo)
    slots = top
    while slots > 1:
        half = slots // 2
        if slots % 2:
            b1, b2 = scratch[slots - 1], scratch[top + slots - 1]
            np.minimum(hi, b2, out=hi)
            np.maximum(lo, b1, out=b2)
            np.minimum(hi, b2, out=hi)
            np.minimum(lo, b1, out=lo)
        a1, b1 = scratch[:half], scratch[half:2 * half]
        a2, b2 = scratch[top:top + half], scratch[top + half:top + 2 * half]
        np.minimum(a2, b2, out=a2)
        np.maximum(a1, b1, out=b2)
        np.minimum(a2, b2, out=a2)
        np.minimum(a1, b1, out=a1)
        slots = half
    return lo, hi


def _exclude_least(mags, scratch):
    """Replace each entry of the (d, ...) magnitudes ``mags`` by the least
    of the other entries along axis 0, in place, with ``scratch``, an array
    of the shape of ``mags`` that it overwrites.

    Only the two least magnitudes m1 <= m2 are needed: clamping at m2
    leaves m1 on the minimizers and m2 elsewhere, and xor with the bits of
    m1 ^ m2 swaps the two values exactly.  A position with |x_j| == m1 that
    is not the first minimizer sees m2 == m1 either way.

    m2 and the swap bits are rows broadcast over ``mags``, under the walk's
    one rule for broadcast operands: numpy buffers a broadcast operand
    unless it is a single value or a row of at least ``BROADCAST_ROW``
    entries.  So a row that long broadcasts directly, and a shorter one is
    first spread over ``scratch`` with ``np.copyto``, which never buffers;
    the buffer would be an allocation of up to 64 KB on every call.
    """
    m1, m2 = _two_least(mags, scratch)
    bits = mags.view(np.uint64)
    if m2.size >= BROADCAST_ROW:
        np.minimum(mags, m2, out=mags)
        # m1 is spent: its memory takes the swap bits
        swap = np.bitwise_xor(m1.view(np.uint64), m2.view(np.uint64), out=m1.view(np.uint64))
        np.bitwise_xor(bits, swap, out=bits)
        return
    m2 = m2.copy()
    swap = np.bitwise_xor(m1.view(np.uint64), m2.view(np.uint64))
    np.copyto(scratch, m2)
    np.minimum(mags, scratch, out=mags)
    np.copyto(scratch.view(np.uint64), swap)
    np.bitwise_xor(bits, scratch.view(np.uint64), out=bits)


def minsum_work_size(size):
    """Float64 entries of the ``work`` buffer ``check_minsum_terms`` needs
    for ``size`` belief entries."""
    return size + -(-size // 8)


def check_minsum_terms(xc, out, work):
    """Min-sum extrinsic messages of checks from their variables' beliefs.

    ``xc`` is a float64 array of shape (..., d), d >= 2, one check per row
    and no NaN entry.
    Writes the messages ``u`` into ``out``, a float64 array of the same
    shape, and returns it: u[..., j] is the product of the signs of the
    other entries (sign(0) = +1 for either zero) times their least
    magnitude.  ``work``, a flat float64 array of at least
    ``minsum_work_size(xc.size)`` entries, holds the magnitudes, then the
    signs as one bool each.  The kernel allocates only a few vectors of one
    entry per check, and numpy at most one buffer of the signs.

    The messages come from each row's two least magnitudes (the compressed
    check message of layered min-sum decoders, Mansour & Shanbhag 2003),
    exactly, ties included.  The kernel works on ``xc.T``, d leading:
    callers that hold their checks as a (d, rows) block pass its transpose,
    and then every step, the reads of ``xc`` and the write-out included,
    runs over contiguous rows.  ``out``'s memory is the scratch of the
    halving tournament and of ``_exclude_least`` before it takes the
    messages, whose bits are built by bit operations: the magnitude's bits
    or'ed with a sign bit, the entry's sign xor its row's sign product.
    """
    x, ut = xc.T, out.T
    size, shape = x.size, x.shape
    mags = np.abs(x, out=work[:size].reshape(shape))
    # -0.0 < 0 is false, so either zero counts as positive
    neg = np.less(x, _ZERO, out=work[size:].view(bool)[:size].reshape(shape))
    odd = np.logical_xor.reduce(neg, axis=0)
    _exclude_least(mags, ut)
    # x_j's sign xor the row's sign product is the sign of the other entries;
    # copyto casts the bools without the buffer a casting ufunc would take
    bits = ut.view(np.uint64)
    np.copyto(bits, np.not_equal(neg, odd, out=neg))
    bits <<= _SIGN_SHIFT
    bits |= mags.view(np.uint64)
    return out


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
    non-finite entry.  Pass a single word ``x`` as ``x[None]``."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != h.n:
        raise ValueError(f"expected (B, {h.n}) LLR array, got {llrs.shape}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    return llrs


def _head(flat, rows, cols):
    """The C-ordered (rows, cols) view of the head of the flat array ``flat``."""
    return flat[:rows * cols].reshape(rows, cols)


class RunningSet:
    """The frames of one decode call that have not stopped, and the outputs
    (bits, beliefs, counts, ok) of those that have: both decoders' exit
    test and compaction, and the one frame boundary of both and of training.

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
        # in place: a clip that read llrs.T would take a 64 KiB ufunc buffer
        l = self.state[:h.n]
        np.copyto(l, llrs.T)
        np.clip(l, -LLR_CLAMP, LLR_CLAMP, out=l)

    def settle(self, s, count, last=False):
        """The exit test on the running frames, whose beliefs are the columns
        of the (n, B') array ``s``: a frame fails a check when the hard
        decisions of the check's variables xor to 1.  The frames that pass
        every check stop, and only they are written to the outputs: hard
        decisions, beliefs, ``count`` and True; a round in which none stops
        writes nothing.  With ``last`` every running frame is written, ``ok``
        taking whether it passed, and none stops running.  Otherwise, when
        frames stop, the state's columns of the others are taken into the
        spare, which becomes the state, and the old state's memory becomes
        the spare.  Returns the state.  The decoder made the bits, so their
        parity is taken with no bit check."""
        hard = hard_decide(s)
        fails = np.zeros(len(self.frames), dtype=bool)
        for _, parities in check_parities(self.h, hard):
            fails |= parities.any(axis=0)
        if not last and fails.all():
            return self.state
        done = slice(None) if last else np.flatnonzero(~fails)
        at = self.frames[done]
        for out, value in zip(self.outputs, (hard.T[done], s.T[done], count, ~fails[done])):
            out[at] = value
        if not last:
            running = np.flatnonzero(fails)
            self.frames = self.frames[running]
            # mode="clip" keeps take from buffering its output; every index is valid
            state = np.take(self.state, running, axis=1, mode="clip",
                            out=_head(self.spare, len(self.state), running.size))
            self.state, self.spare = state, self.state.reshape(-1)
        return self.state


def decode_bp_batch(h, llrs, cfg, *, edge_index):
    """Flooding BP over a (B, n) batch of LLR vectors, on ``edge_index``,
    the ``EdgeIndex`` of ``h``; ValueError on an index of other checks.

    Returns (bits, beliefs, iterations, syndrome_zero) arrays; each frame
    exits as soon as its hard decision satisfies every parity check.  The
    ``RunningSet`` rejects non-finite LLRs and clamps the rest.

    Frames are columns of the state of a ``RunningSet``: a running frame's
    state is one (2n + E)-row column holding its clamped LLRs, beliefs and
    c2v messages, and v2c lives in the set's spare slab.  Besides these
    two slabs the call's one work allocation holds, for min-sum, the
    kernel's workspace, sized per frame like the slabs.  The sweep reads
    v2c and writes c2v into the state; the belief sums gather into the
    spent v2c.  The first sweep's inputs are made in the belief rows, on
    the LLRs.
    """
    ei = edge_index
    if ei.h is not h and not np.array_equal(ei.h.rows, h.rows):
        raise ValueError(f"edge index of a ({ei.h.n},{ei.h.k}) code with {ei.h.num_checks} "
                         f"checks cannot decode ({h.n},{h.k}) with {h.num_checks} checks")
    n, edges = h.n, h.num_edges
    # min-sum's kernel workspace is sized for the widest degree group
    kernel = 0 if cfg.variant == SUM_PRODUCT else minsum_work_size(
        max(r.stop - r.start for r in ei.degree_groups.values()))
    rs = RunningSet(h, llrs, 2 * n + edges, kernel)
    sweep = (_check_sweep_sumproduct if cfg.variant == SUM_PRODUCT
             else functools.partial(_check_sweep_minsum, work=rs.work))

    def sweep_inputs(x, out):
        """The messages ``x`` as the sweep takes them, into ``out``: clipped
        to +-MESSAGE_CLAMP, and for sum-product tanh(x / 2)."""
        np.clip(x, -MESSAGE_CLAMP, MESSAGE_CLAMP, out=out)
        return soft_decide(out, out) if cfg.variant == SUM_PRODUCT else out

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
        state = rs.settle(s, it, it == cfg.max_iters)
        if state.shape[1] == 0 or it == cfg.max_iters:
            break
        v2c = np.take(state[n:2 * n], ei.row_var, axis=0,
                      out=_head(rs.spare, edges, state.shape[1]), mode="clip")
        v2c -= state[2 * n:]
        sweep_inputs(v2c, v2c)
    return rs.outputs
