"""BP-structured neural denoiser and the full reverse-process decoder.

One block holds n-k scalar weights, one per layer.  Layer l updates the
single check node l: it forms min-sum extrinsic messages from the current
beliefs of that check's variables and adds them back, scaled by the layer
weight, as a residual correction.  Layer 1 starts from the channel LLRs
and the block's soft codeword estimate is tanh(beliefs / 2), the posterior
mean of a bipolar symbol under an LLR belief.

The layers run in check order, but a run of consecutive checks of one
degree with pairwise disjoint variables (``ParityCheckMatrix.layer_groups``)
runs as one vectorized update: no layer of the run reads a belief another
one writes, so every belief is bit-identical to the one-check-at-a-time
walk.  This is the order-preserving layered schedule of Hocevar (2004) and
Zhang & Fossorier (2005); checks are never reordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bp import check_llr_batch, check_minsum_terms, minsum_work_size, settle
from .diffusion import reverse_step


class CheckpointError(ValueError):
    """Malformed checkpoint stream."""


@dataclass(frozen=True)
class NeuralBlockWeights:
    """The n-k trainable layer scalars of one block, tied to a code (n, k)."""

    values: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size != self.n - self.k:
            raise ValueError(
                f"expected {self.n - self.k} layer weights for ({self.n},{self.k}), "
                f"got {values.size}")
        if not np.isfinite(values).all():
            raise ValueError("layer weights must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, h):
        return cls(values=np.zeros(h.num_checks), n=h.n, k=h.k)

    def check_code(self, h):
        if (self.n, self.k) != (h.n, h.k):
            raise ValueError(
                f"weights trained for ({self.n},{self.k}) cannot decode ({h.n},{h.k})")


def walk_size(h, frames, keep=False):
    """Float64 entries of the ``work`` buffer ``block_layers`` needs for
    ``frames`` frames, with or without ``keep``."""
    edges = [cols.size * frames for _, cols in h.layer_groups]
    return minsum_work_size(max(edges)) + 2 * (sum(edges) if keep else max(edges))


def block_layers(h, w, xt, work, keep=False):
    """Run the layers over the beliefs ``xt`` in place, with layer weights
    ``w``, one layer group of ``h.layer_groups`` at a time.  ``xt`` is a
    C-ordered (n, B) array, frames as columns.  Yields each group's (slice
    of checks, columns, gathered beliefs xc, min-sum messages u), as the
    training backward reads them: xc and u are (g B, d) rows, row i B + b
    holding check i of frame b, whose transposes are C-ordered (d, g B)
    arrays.

    A group of g checks of degree d takes whole belief rows into one
    (d, g, B) block, slab j holding the j-th variable of every check, hands
    the kernel that block as (g B, d) rows and writes its rows back plus
    the weights ``w[checks]`` times the messages.

    Every array the walk writes besides ``xt`` is a view of ``work``, a flat
    float64 array of at least ``walk_size(h, B, keep)`` entries: the
    kernel's workspace for the largest group, then slots of a gathered block
    and its messages.  Without ``keep`` every group reuses one slot, sized
    for the largest group, so a group's xc and u hold only until the walk
    resumes; with ``keep`` each group has its own slot at its edge offset,
    and all of them stay valid.
    """
    frames = xt.shape[1]
    at = minsum_work_size(max(cols.size for _, cols in h.layer_groups) * frames)
    kernel = work[:at]
    for checks, cols in h.layer_groups:
        d, size = cols.shape[1], cols.size * frames
        block = work[at:at + size].reshape(d, len(cols), frames)
        # mode="clip" keeps take from buffering its output; every index is valid
        xt.take(cols.T, axis=0, out=block, mode="clip")
        xc = block.reshape(d, -1).T
        u = check_minsum_terms(xc, out=work[at + size:at + 2 * size].reshape(d, -1).T,
                               work=kernel)
        # the kernel's magnitudes are spent: they take the step block + w u
        step = np.multiply(u.T.reshape(block.shape), w[checks, None],
                           out=kernel[:size].reshape(block.shape))
        step += block
        xt[cols.T] = step
        yield checks, cols, xc, u
        if keep:
            at += 2 * size


def neural_block(h, weights, llrs, work=None):
    """Run one block on a (B, n) batch of beliefs: (final beliefs, soft
    estimate tanh(beliefs/2)), both (B, n) views of frames-as-columns
    arrays.  With all weights zero the block is the identity on beliefs.

    Both arrays, and every one the walk writes, are views of ``work``, a
    flat float64 array of at least ``2 n B + walk_size(h, B)`` entries, or
    of one new array of that size.
    """
    weights.check_code(h)
    x = np.asarray(llrs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != h.n:
        raise ValueError(f"expected (B, {h.n}) beliefs, got {x.shape}")
    if work is None:
        work = np.empty(2 * x.size + walk_size(h, len(x)))
    xt = work[:x.size].reshape(h.n, -1)
    x_hat = work[x.size:2 * x.size].reshape(h.n, -1)
    np.copyto(xt, x.T)  # the layers run in place
    for _ in block_layers(h, weights.values, xt, work[2 * x.size:]):
        pass
    np.tanh(np.divide(xt, 2.0, out=x_hat), out=x_hat)
    return xt.T, x_hat.T


def decode_vcdc_batch(h, weights, sched, llrs):
    """Reverse-process decode of a (B, n) LLR batch: walk the schedule from
    its observed (noisiest) level up, feeding each block's estimate to the
    deterministic reverse update.

    Returns (bits, beliefs, reverse_steps, syndrome_zero) arrays.  Frames
    whose hard decision already satisfies the syndrome cost zero reverse
    steps; the rest stop at the first satisfied syndrome or after the
    final block at the cleanest level, which runs even when the schedule
    has a single level.  Non-finite LLRs are rejected.

    Between blocks the running frames are the columns of an (n, B) array
    zt, which the block and the reverse step see through its (B, n)
    transpose.  The call makes one work allocation: zt, then the block's
    beliefs, estimate and walk.  The reverse step writes into the
    estimate, and the frames still running are taken from the block's
    output back into zt.
    """
    weights.check_code(h)
    llrs = check_llr_batch(h, llrs)
    bits = np.empty(llrs.shape, dtype=np.uint8)
    beliefs = np.empty_like(llrs)
    steps = np.empty(llrs.shape[0], dtype=np.int64)
    ok = np.empty(llrs.shape[0], dtype=bool)
    # the entry test: frames that already satisfy every check take 0 steps
    idx = settle(h, llrs.T, np.arange(llrs.shape[0]), 0, bits, beliefs, steps, ok)
    work = np.empty(3 * h.n * idx.size + walk_size(h, idx.size))
    block_work = work[h.n * idx.size:]
    # mode="clip" keeps take from buffering its output; every index is valid
    zt = np.take(llrs.T, idx, axis=1, out=work[:h.n * idx.size].reshape(h.n, -1), mode="clip")

    used = 0
    for t_index in range(len(sched) - 1, -1, -1):
        if idx.size == 0:
            break
        block_beliefs, x_hat = neural_block(h, weights, zt.T, work=block_work)
        if t_index:
            z = reverse_step(sched, t_index, zt.T, x_hat, out=x_hat)
            used += 1
        else:  # the final block's beliefs are the decoder output
            z = block_beliefs
        running = settle(h, z.T, idx, used, bits, beliefs, steps, ok)
        idx = idx[running]
        zt = np.take(z.T, running, axis=1, out=work[:h.n * idx.size].reshape(h.n, -1),
                     mode="clip")
    return bits, beliefs, steps, ok


CHECKPOINT_MAGIC = "VCDC1"


def save_checkpoint(weights):
    """Serialize weights: header "VCDC1 <n> <k> <L>" then one weight per
    line with 17 significant digits (round-trips float64 exactly)."""
    header = f"{CHECKPOINT_MAGIC} {weights.n} {weights.k} {weights.values.size}\n"
    body = "".join(f"{w:.17g}\n" for w in weights.values)
    return (header + body).encode("ascii")


def load_checkpoint(data):
    """Parse a checkpoint byte stream back into NeuralBlockWeights."""
    text = data.decode("ascii") if isinstance(data, bytes) else data
    lines = text.splitlines()
    if not lines:
        raise CheckpointError("empty checkpoint")
    fields = lines[0].split()
    if len(fields) != 4 or fields[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"malformed header {lines[0]!r}")
    try:
        n, k, count = (int(f) for f in fields[1:])
    except ValueError:
        raise CheckpointError(f"malformed header {lines[0]!r}") from None
    if count != n - k:
        raise CheckpointError(f"header declares {count} weights for ({n},{k}); need {n - k}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != count:
        raise CheckpointError(f"expected {count} weight lines, found {len(body)}")
    try:
        values = np.array([float(ln) for ln in body], dtype=np.float64)
    except ValueError as exc:
        raise CheckpointError(f"bad weight value: {exc}") from None
    if not np.isfinite(values).all():
        raise CheckpointError("checkpoint contains non-finite weights")
    return NeuralBlockWeights(values=values, n=n, k=k)

