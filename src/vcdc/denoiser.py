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

from .bp import RunningSet, check_minsum_terms, minsum_work_size
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


def walk_size(h, keep=False):
    """Float64 entries per frame of the ``work`` buffer ``block_layers``
    needs, with or without ``keep``: a walk over B frames needs B times as
    many."""
    edges = [table.size for _, table in h.layer_groups]
    return minsum_work_size(max(edges)) + 2 * (sum(edges) if keep else max(edges))


def block_layers(h, w, xt, work, keep=False):
    """Run the layers over the beliefs ``xt`` in place, with layer weights
    ``w``, one layer group of ``h.layer_groups`` at a time.  ``xt`` is a
    C-ordered (n, B) array, frames as columns.  Yields each group's (slice
    of checks, (d, g) table, gathered beliefs xc, min-sum messages u), as the
    training backward reads them: xc and u are (g B, d) rows, row i B + b
    holding check i of frame b, whose transposes are C-ordered (d, g B)
    arrays.

    A group of g checks of degree d takes whole belief rows into one
    (d, g, B) block, slab j holding the j-th variable of every check, hands
    the kernel that block as (g B, d) rows and writes its rows back plus
    the weights ``w[checks]`` times the messages.

    Every array the walk writes besides ``xt`` is a view of ``work``, a flat
    float64 array of at least ``B * walk_size(h, keep)`` entries: the
    kernel's workspace for the largest group, then slots of a gathered block
    and its messages.  Without ``keep`` every group reuses one slot, sized
    for the largest group, so a group's xc and u hold only until the walk
    resumes; with ``keep`` each group has its own slot at its edge offset,
    and all of them stay valid.
    """
    frames = xt.shape[1]
    at = frames * minsum_work_size(max(table.size for _, table in h.layer_groups))
    kernel = work[:at]
    for checks, table in h.layer_groups:
        d, size = len(table), table.size * frames
        block = work[at:at + size].reshape(table.shape + (frames,))
        # mode="clip" keeps take from buffering its output; every index is valid
        xt.take(table, axis=0, out=block, mode="clip")
        xc = block.reshape(d, -1).T
        u = check_minsum_terms(xc, out=work[at + size:at + 2 * size].reshape(d, -1).T,
                               work=kernel)
        # the kernel's magnitudes are spent: they take the step block + w u
        step = np.multiply(u.T.reshape(block.shape), w[checks, None],
                           out=kernel[:size].reshape(block.shape))
        step += block
        xt[table] = step
        yield checks, table, xc, u
        if keep:
            at += 2 * size


def neural_block(h, weights, llrs, work=None):
    """Run one block on a (B, n) batch of beliefs: (final beliefs, soft
    estimate tanh(beliefs/2)), both (B, n) views of frames-as-columns
    arrays.  With all weights zero the block is the identity on beliefs.

    Both arrays, and every one the walk writes, are views of ``work``, a
    flat float64 array of at least ``B * (2 n + walk_size(h))`` entries, or
    of one new array of that size.
    """
    weights.check_code(h)
    x = np.asarray(llrs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != h.n:
        raise ValueError(f"expected (B, {h.n}) beliefs, got {x.shape}")
    if work is None:
        work = np.empty(len(x) * (2 * h.n + walk_size(h)))
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
    has a single level.  The ``RunningSet`` rejects non-finite LLRs and
    clamps the others as it copies them in, as BP's does.

    The running frames are the columns of the state of a ``RunningSet``,
    an (n, B') array zt that the block and the reverse step see through
    its (B', n) transpose; the set's caller work, 2 n + walk_size(h)
    entries a frame, holds the block's beliefs, estimate and walk.  The
    reverse step writes into the estimate, which is copied into zt for the
    exit test; the final block's beliefs are tested where the block left
    them.
    """
    weights.check_code(h)
    rs = RunningSet(h, llrs, h.n, 2 * h.n + walk_size(h))
    # the entry test: frames that already satisfy every check take 0 steps
    zt = rs.settle(rs.state, 0)
    for t_index in range(len(sched) - 1, -1, -1):
        if zt.shape[1] == 0:
            break
        block_beliefs, x_hat = neural_block(h, weights, zt.T, work=rs.work)
        if t_index:
            np.copyto(zt.T, reverse_step(sched, t_index, zt.T, x_hat, out=x_hat))
            zt = rs.settle(zt, len(sched) - t_index)
        else:  # the final block's beliefs are the decoder output
            rs.settle(block_beliefs.T, len(sched) - 1, last=True)
    return rs.outputs


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

