"""Training for the neural block: loss, hand-written backward, Adam, the loop.

Each iteration draws a fresh batch - per-example CSNR uniform over the
configured range, then random messages (zero messages, so the all-zero
codeword, in the all-zero mode), made into frames by
``bench.channel_frames`` - runs the block once as a single-step
denoising prediction, and applies one Adam update to the layer
weights, one per check.  Everything is driven by one seeded generator,
so a fixed config reproduces the loss curve exactly.

Backward-pass conventions: the min inside the min-sum check update uses
the subgradient of the attained minimizer with ties broken toward the
lowest edge index, and sign factors are treated as constants, so gradient
flows only through the minimum-magnitude path and the residual sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bench import channel_frames
from .bp import RunningSet, _pairwise_sum, check_count
from .channel import noise_scale
from .codebook import bipolar
from .denoiser import NeuralBlockWeights, block_layers, walk_size


class TrainingDiverged(RuntimeError):
    """Loss became non-finite, or ended, smoothed, above ln 2: the loss of
    all-zero beliefs, which the channel LLRs beat in expectation."""


def loss_with_adjoint(beliefs, x_b):
    """Mean binary cross-entropy between sigmoid(beliefs) and 1 - x_b
    (positive belief is evidence for bit 0), the mean of softplus(-sym * b)
    with sym = bipolar(x_b), and its gradient -sym * sigmoid(-sym * b) /
    size; ValueError when x_b holds other values than 0 and 1."""
    neg_sym = bipolar(x_b)
    np.negative(neg_sym, out=neg_sym)
    z = neg_sym * beliefs
    # softplus(z) and sigmoid(z) via the non-overflowing branch of exp
    ez = np.abs(z)
    np.negative(ez, out=ez)
    np.exp(ez, out=ez)
    den = 1.0 + ez
    sig = np.where(z >= 0, 1.0, ez)
    sig /= den
    # z and den are spent: softplus(z) = max(z, 0) + log1p(ez) takes them
    np.maximum(z, 0.0, out=z)
    z += np.log1p(ez, out=den)
    sig *= neg_sym
    sig /= beliefs.size
    return float(np.mean(z)), sig


def minsum_routing(xc, u):
    """Where the min-sum backward sends each adjoint of checks' beliefs
    ``xc`` (rows, d) and their messages ``u`` from ``check_minsum_terms``:
    (idx, signs), two (2, rows) arrays.  idx holds i1 and i2 as flat indices
    into the (d, rows) transposes, and signs the factor of each, -1 where
    its belief is negative and +1 else, either zero included.

    i1 is the first magnitude argmin of a row.  Every edge but i1 carries
    m1 = |x_i1|, and edge i1 carries m2 = |u_i1|, so i2 is the first
    j != i1 with |x_j| == m2.  The routing reads xc, which the walk
    overwrites when it resumes, so the forward builds it.
    """
    xt, ut = xc.T, u.T
    rows = xt.shape[1]
    offsets = np.arange(rows)
    mags = np.abs(xt)
    idx = np.empty((2, rows), dtype=np.intp)
    i1, i2 = idx
    mags.argmin(axis=0, out=i1)
    i1 *= rows
    i1 += offsets
    m2 = np.abs(ut.take(i1))
    mags.put(i1, np.nan)  # equal to nothing, so i2 skips i1
    np.equal(mags, m2).argmax(axis=0, out=i2)
    i2 *= rows
    i2 += offsets
    return idx, np.where(xt.take(idx) < 0, -1.0, 1.0)


def minsum_backward(g, u, routing):
    """Adjoint of checks' beliefs (rows, d) given the adjoint ``g`` of their
    min-sum messages ``u`` from ``check_minsum_terms`` and the
    ``minsum_routing`` of the two, as an array whose transpose is a
    C-ordered (d, rows) array.

    Each outgoing adjoint routes to the variable whose magnitude attained
    the (extrinsic) minimum, scaled by that variable's sign, with the sign
    product held constant.  ``u`` is a nonnegative magnitude times the
    exclusive sign product (the forward builds its sign bit as the xor of
    the entry's sign and the row's), so g with u's sign bit xor-ed in has
    the bits of g times that product for every g but NaN, either zero
    included.

    The work runs on the (d, rows) transposes, which it indexes with flat
    indices through ``take`` and ``put``, and the sum of a row's d adjoints
    is ``_pairwise_sum`` over all d of them: term for term the sum numpy
    takes along the last axis of a C-ordered (rows, d) array.
    """
    idx, signs = routing
    gt, ut = g.T, u.T
    bits = np.bitwise_and(ut.view(np.uint64), np.uint64(1 << 63))
    gs = np.bitwise_xor(bits, gt.view(np.uint64), out=bits).view(np.float64)
    # edge i1 takes the adjoints of every other edge, which select
    # magnitude |x_i1|, and edge i2 the adjoint of edge i1, which selects
    # |x_i2|; each times the sign of its belief
    routed = np.empty(idx.shape)
    gs.take(idx[0], out=routed[1])
    np.subtract(_pairwise_sum(gs), routed[1], out=routed[0])
    routed *= signs
    # as in the argmin form, i2's adjoint adds to a zero: -0.0 becomes +0.0
    routed[1] += 0.0
    grad = np.zeros(gs.shape)
    grad.put(idx, routed)
    return grad.T


def block_gradients(h, weights, llrs, x_b):
    """Loss and d(loss)/d(layer weights) for one (B, n) batch of LLRs.

    The LLRs enter as the decoders' do: a ``RunningSet``, never settled,
    rejects non-finite ones and clamps the others into its (n, B) state.

    Runs the block forward once on frames-as-columns (n, B) beliefs,
    keeping each layer group's min-sum messages u_l and, but for the first
    group, whose input adjoint nothing reads, the ``minsum_routing`` of its
    gathered beliefs, built as the walk yields them.  It then walks the
    groups in reverse: layer l's weight gradient is the adjoint on its
    check's columns dotted with u_l, and the adjoint of the layer input
    (but the first group's) adds the min-sum backward of w_l times that
    adjoint.  The checks of a group share no variable, so neither step of
    one check reads what another check of its group writes, and a group
    steps back at once exactly as its checks would one by one.  The walk's
    work is the set's, walk_size(h, keep=True) entries a frame.

    Every reduction keeps one fixed order: the loss is the mean over a
    C-ordered (B, n) array, each check's gradient the sum over a C-ordered
    (B, d) array of its products, and each row of the min-sum backward sums
    its d adjoints as ``minsum_backward`` documents.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != h.num_checks:
        raise ValueError(f"expected {h.num_checks} layer weights, got {weights.size}")
    rs = RunningSet(h, llrs, h.n, walk_size(h, keep=True))
    layers = [(checks, table, u, minsum_routing(xc, u) if checks.start else None)
              for checks, table, xc, u in block_layers(h, weights, rs.state, rs.work, keep=True)]
    value, g = loss_with_adjoint(np.ascontiguousarray(rs.state.T), x_b)
    gt = np.array(g.T, order="C")
    grads = np.empty(h.num_checks)
    for checks, table, u, routing in reversed(layers):
        g_cols = gt.take(table, axis=0)  # (d, g, B)
        p = np.ascontiguousarray((g_cols * u.T.reshape(g_cols.shape)).transpose(1, 2, 0))
        grads[checks] = p.sum(axis=(1, 2))
        if routing is None:  # the first group
            break
        # p is spent: its memory takes the adjoint of the messages, w times g
        wg = np.multiply(g_cols, weights[checks, None], out=p.reshape(g_cols.shape))
        wg = wg.reshape(len(g_cols), -1).T
        g_cols += minsum_backward(wg, u, routing).T.reshape(g_cols.shape)
        gt[table] = g_cols
    return value, grads


# Adam's moment decay rates and denominator offset, at their standard values
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam update with bias correction, for ``size`` parameters."""

    def __init__(self, lr, size):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        self.m = BETA1 * self.m + (1 - BETA1) * grads
        self.v = BETA2 * self.v + (1 - BETA2) * grads**2
        m_hat = self.m / (1 - BETA1**self.t)
        v_hat = self.v / (1 - BETA2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + EPS)


@dataclass(frozen=True)
class TrainConfig:
    """One run's protocol; each example's CSNR is uniform over [csnr_low, csnr_high], in dB."""

    learning_rate: float = 0.001
    batch_size: int = 256
    iterations: int = 20000
    csnr_low: float = 4.0
    csnr_high: float = 6.0
    seed: int = 0
    all_zero: bool = False

    def __post_init__(self):
        check_count("batch_size", self.batch_size)
        check_count("iterations", self.iterations)
        for name in ("learning_rate", "csnr_low", "csnr_high"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.csnr_high < self.csnr_low:
            raise ValueError(f"csnr_high {self.csnr_high!r} is below csnr_low {self.csnr_low!r}")


@dataclass(frozen=True)
class TrainResult:
    weights: NeuralBlockWeights
    raw_loss: np.ndarray
    smoothed_loss: np.ndarray

    def final_smoothed(self):
        return float(self.smoothed_loss[-1])


# iterations in the trailing mean of the smoothed loss curve
SMOOTHING_WINDOW = 100


def _smooth(raw):
    csum = np.concatenate([[0.0], np.cumsum(raw)])
    idx = np.arange(1, raw.size + 1)
    start = np.maximum(idx - SMOOTHING_WINDOW, 0)
    return (csum[idx] - csum[start]) / (idx - start)


def train(h, cfg):
    """Train block weights from scratch on single-step denoising batches."""
    # the channel's range is one interval, so its bounds check every draw
    noise_scale(np.array([cfg.csnr_low, cfg.csnr_high]), h.k, h.n)
    rng = np.random.default_rng(cfg.seed)
    params = np.zeros(h.num_checks)
    adam = Adam(cfg.learning_rate, h.num_checks)
    raw = np.empty(cfg.iterations)
    for it in range(cfg.iterations):
        csnr = rng.uniform(cfg.csnr_low, cfg.csnr_high, size=cfg.batch_size)
        w = noise_scale(csnr, h.k, h.n)
        # the all-zero mode draws no messages: its noise follows the CSNRs.
        # The messages live only through the call, as in run_ber
        code, llrs = channel_frames(
            h, np.zeros((cfg.batch_size, h.k), dtype=np.uint8) if cfg.all_zero
            else rng.integers(0, 2, size=(cfg.batch_size, h.k)), w[:, None], rng)
        value, grads = block_gradients(h, params, llrs, code)
        if not np.isfinite(value):
            raise TrainingDiverged(f"loss became non-finite at iteration {it}")
        params = adam.step(params, grads)
        raw[it] = value
    smoothed = _smooth(raw)
    if smoothed[-1] > math.log(2):
        raise TrainingDiverged(f"final smoothed loss {smoothed[-1]:.6g} exceeds ln 2")
    return TrainResult(weights=NeuralBlockWeights(values=params, n=h.n, k=h.k), raw_loss=raw,
                       smoothed_loss=smoothed)


def write_loss_curve(path, result):
    """Emit the loss series as CSV: iteration, raw_loss, smoothed_loss."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,raw_loss,smoothed_loss\n")
        for i, (r, s) in enumerate(zip(result.raw_loss, result.smoothed_loss)):
            fh.write(f"{i},{r:.10g},{s:.10g}\n")
