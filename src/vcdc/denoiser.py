"""BP-structured neural denoiser and the full reverse-process decoder.

One block holds one scalar weight per check of H, one per layer.  Layer l
updates the single check node l: it forms min-sum extrinsic messages from
the current beliefs of that check's variables and adds them back, scaled
by the layer weight, as a residual correction.  Layer 1 starts from the channel LLRs
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
from .channel import soft_decide
from .diffusion import reverse_step


class CheckpointError(ValueError):
    """Malformed checkpoint stream."""


@dataclass(frozen=True)
class NeuralBlockWeights:
    """The trainable layer scalars of one block, one per check of the code
    (n, k) they were trained on."""

    values: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"layer weights must be one-dimensional, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("layer weights must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def check_code(self, h):
        if (self.n, self.k, self.values.size) != (h.n, h.k, h.num_checks):
            raise ValueError(
                f"{self.values.size} weights trained for ({self.n},{self.k}) cannot "
                f"decode ({h.n},{h.k}) with {h.num_checks} checks")


def walk_size(h, keep=False):
    """Float64 entries per frame of the ``work`` ``block_layers`` needs:
    the kernel's workspace and a gathered block for the largest group, then
    the messages of the largest group, or with ``keep`` of every group, one
    entry per edge.  Without ``keep``, all the caller work of the block and
    its decoder.  A walk over B frames needs B times as many."""
    edges = [table.size for _, table in h.layer_groups]
    return minsum_work_size(max(edges)) + max(edges) + (sum(edges) if keep else max(edges))


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
    the weights ``w[checks]`` times the messages.  The weights follow the
    walk's one rule for broadcast operands (see ``bp._exclude_least``):
    numpy buffers any broadcast operand but a single value or a long row,
    so a group of g > 1 checks first spreads its (g, 1) weight column over
    the spent kernel slot with ``np.copyto``, which never buffers, and
    multiplies the messages into it; a single check's (1, 1) weight is a
    single value and multiplies directly.  Each entry gets the same IEEE
    product either way.

    Every array the walk writes besides ``xt`` is a view of ``work``, a flat
    float64 array of at least ``B * walk_size(h, keep)`` entries: the
    kernel's workspace for the largest group, then one slot for a gathered
    block, which every group reuses, so a group's xc holds only until the
    walk resumes, in both modes.  Then come the messages: without ``keep``
    one slot sized for the largest group, which every group reuses, so u too
    holds only until the walk resumes; with ``keep`` a slot for each group
    at its edge offset, so every group's u stays valid.
    """
    frames = xt.shape[1]
    most = max(table.size for _, table in h.layer_groups)
    at = frames * minsum_work_size(most)
    kernel = work[:at]
    msg_at = at + frames * most
    for checks, table in h.layer_groups:
        (d, g), size = table.shape, table.size * frames
        block = work[at:at + size].reshape(d, g, frames)
        # mode="clip" keeps take from buffering its output; every index is valid
        xt.take(table, axis=0, out=block, mode="clip")
        xc = block.reshape(d, -1).T
        # the C-ordered (d, g B) message slot, which the multiply reads as
        # (d, g, B)
        msgs = work[msg_at:msg_at + size].reshape(d, -1)
        u = check_minsum_terms(xc, out=msgs.T, work=kernel)
        # the kernel's magnitudes are spent: they take the step block + w u
        step, w_col = kernel[:size].reshape(block.shape), w[checks, None]
        if g > 1:  # a (g, 1) column would be buffered: spread it
            np.copyto(step, w_col)
            w_col = step
        np.multiply(msgs.reshape(block.shape), w_col, out=step)
        step += block
        xt[table] = step
        yield checks, table, xc, u
        if keep:
            msg_at += size


def neural_block(h, weights, zt, work):
    """Run one block on the beliefs ``zt``, a C-ordered (n, B) array, frames
    as columns, in place, and return ``zt``.  With all weights zero the
    block is the identity on beliefs.

    The beliefs must hold no NaN, which the min-sum kernel's contract
    excludes.  The block tests neither them nor its output, which weights
    large enough to overflow make infinite, or NaN (inf - inf), even from
    finite beliefs; ``decode_vcdc_batch`` tests every block's output.

    Every array the walk writes besides ``zt`` is a view of ``work``, a flat
    float64 array of at least ``B * walk_size(h)`` entries.
    """
    weights.check_code(h)
    if zt.ndim != 2 or zt.shape[0] != h.n:
        raise ValueError(f"expected ({h.n}, B) beliefs, got {zt.shape}")
    for _ in block_layers(h, weights.values, zt, work):
        pass
    return zt


def decode_vcdc_batch(h, weights, sched, llrs):
    """Reverse-process decode of a (B, n) LLR batch: walk the schedule from
    its observed (noisiest) level up, feeding each block's estimate to the
    deterministic reverse update.

    Returns (bits, beliefs, reverse_steps, syndrome_zero) arrays.  Frames
    whose hard decision already satisfies the syndrome cost zero reverse
    steps; the rest stop at the first satisfied syndrome or after the
    final block at the cleanest level, which runs even when the schedule
    has a single level.  Its ``RunningSet`` checks and clamps the LLRs; a
    schedule built for another code rate is a ValueError.

    The running frames are the columns of the state of a ``RunningSet``,
    an (n, B') array zt; the set's caller work, walk_size(h) entries a
    frame, is the block's walk.  Below the cleanest level zt waits in the
    spare while the block and then the estimate tanh(beliefs / 2) overwrite
    the state, and the reverse step writes z_s over the estimate for the
    exit test.  A NaN in an estimate, and a NaN or an infinity in the
    final block's beliefs, is a ValueError naming the weights' overflow;
    else the final beliefs are tested where the block left them.  An
    infinite belief below the cleanest level is no error: its estimate is
    +-1.
    """
    weights.check_code(h)
    if sched.rate != h.rate:
        raise ValueError(f"schedule of rate {sched.rate!r} cannot decode rate {h.rate!r}")
    rs = RunningSet(h, llrs, h.n, walk_size(h))
    # the entry test: frames that already satisfy every check take 0 steps
    zt = rs.settle(rs.state, 0)
    for t_index in range(len(sched) - 1, 0, -1):
        if zt.shape[1] == 0:
            return rs.outputs
        z_prev = rs.spare[:zt.size].reshape(zt.shape)
        np.copyto(z_prev, zt)
        x_hat = soft_decide(neural_block(h, weights, zt, work=rs.work), zt)
        try:  # the step rejects only a NaN estimate: its other inputs are the walk's own
            z_s = reverse_step(sched, t_index, z_prev, x_hat)
        except ValueError:
            raise ValueError("a block's beliefs hold NaN: its weights overflow") from None
        zt = rs.settle(z_s, len(sched) - t_index)
    if zt.shape[1]:  # the final block, at the cleanest level, gives the outputs
        beliefs = neural_block(h, weights, zt, work=rs.work)
        # max is NaN when any entry is, and +inf (min -inf) when one is
        if not (np.isfinite(beliefs.max()) and np.isfinite(beliefs.min())):
            raise ValueError("the final block's beliefs are not finite: its weights overflow")
        rs.settle(beliefs, len(sched) - 1, last=True)
    return rs.outputs


CHECKPOINT_MAGIC = "VCDC1"


def save_checkpoint(weights):
    """Serialize weights: header "VCDC1 <n> <k> <L>", L the number of
    weights (one per check), then one weight per line with 17 significant
    digits (round-trips float64 exactly)."""
    header = f"{CHECKPOINT_MAGIC} {weights.n} {weights.k} {weights.values.size}\n"
    body = "".join(f"{w:.17g}\n" for w in weights.values)
    return (header + body).encode("ascii")


def load_checkpoint(data):
    """Parse a checkpoint byte stream back into NeuralBlockWeights."""
    try:
        text = data.decode("ascii") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint is not ASCII: {exc}") from None
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

