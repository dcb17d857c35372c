"""Training for the neural block: loss, hand-written backward, Adam, the loop.

Each iteration draws a fresh batch - per-example CSNR uniform over the
configured range, random messages (or the all-zero codeword), AWGN
transmission, LLR conversion - runs the block once as a single-step
denoising prediction, and applies one Adam update to the n-k layer
weights.  Everything is driven by one seeded generator, so a fixed config
reproduces the loss curve exactly.

Backward-pass conventions: the min inside the min-sum check update uses
the subgradient of the attained minimizer with ties broken toward the
lowest edge index, and sign factors are treated as constants, so gradient
flows only through the minimum-magnitude path and the residual sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bp import _pairwise_sum, check_count, check_llr_batch, copy_clamped
from .channel import noise_scale, to_llr, transmit
from .codebook import bipolar, derive_generator, encode
from .denoiser import NeuralBlockWeights, block_layers, walk_size


class TrainingDiverged(RuntimeError):
    """Loss became non-finite, or ended, smoothed, above ln 2: the loss of
    all-zero beliefs, which the channel LLRs beat in expectation."""


def loss_with_adjoint(beliefs, x_b):
    """Mean binary cross-entropy between sigmoid(beliefs) and 1 - x_b
    (positive belief is evidence for bit 0), the mean of softplus(-sym * b)
    with sym = 1 - 2 x_b, and its gradient -sym * sigmoid(-sym * b) / size."""
    sym = 1.0 - 2.0 * np.asarray(x_b, dtype=np.float64)
    z = -sym * beliefs
    # softplus(z) and sigmoid(z) via the non-overflowing branch of exp
    ez = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return float(np.mean(np.maximum(z, 0.0) + np.log1p(ez))), -sym * sig / beliefs.size


def minsum_backward(g, xc, u):
    """Adjoint of checks' beliefs ``xc`` (rows, d) given the adjoint ``g`` of
    their min-sum messages ``u = check_minsum_terms(xc)``, as an array whose
    transpose is a C-ordered (d, rows) array.

    Each outgoing adjoint routes to the variable whose magnitude attained
    the (extrinsic) minimum, scaled by that variable's sign, with the sign
    product held constant.  The forward keeps only ``u``, so the routing is
    rebuilt from it here: i1 is the first magnitude argmin of a row, every
    edge but i1 carries m1 = |x_i1|, edge i1 carries m2 = |u_i1|, and i2 is
    the first j != i1 with |x_j| == m2.  ``u`` is a nonnegative magnitude
    times the exclusive sign product (the forward builds its sign bit as
    the xor of the entry's sign and the row's), so copysign(1, u) is that
    sign product, exact for either zero.

    The work runs on the (d, rows) transposes, which it indexes with flat
    indices through ``take`` and ``put``, and the sum of a row's d adjoints
    is ``_pairwise_sum`` over all d of them: term for term the sum numpy
    takes along the last axis of a C-ordered (rows, d) array.  The
    magnitudes' memory takes the sign products in turn.
    """
    gt, xt, ut = g.T, xc.T, u.T
    rows = xt.shape[1]
    offsets = np.arange(rows)
    mags = np.abs(xt)
    # i1 and i2 as flat indices into the (d, rows) arrays, one row each
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
    gs = np.copysign(1.0, ut, out=mags)
    gs *= gt
    # edge i1 takes the adjoints of every other edge, which select
    # magnitude |x_i1|, and edge i2 the adjoint of edge i1, which selects
    # |x_i2|; each times the sign of its belief
    routed = np.empty((2, rows))
    gs.take(i1, out=routed[1])
    np.subtract(_pairwise_sum(gs), routed[1], out=routed[0])
    routed *= np.where(xt.take(idx) < 0, -1.0, 1.0)
    # as in the argmin form, i2's adjoint adds to a zero: -0.0 becomes +0.0
    routed[1] += 0.0
    grad = np.zeros(gs.shape)
    grad.put(idx, routed)
    return grad.T


def block_gradients(h, weights, llrs, x_b):
    """Loss and d(loss)/d(layer weights) for one (B, n) batch of LLRs.

    Non-finite LLRs are rejected, and the others are clamped to
    +-LLR_CLAMP as they are copied in, as the decoders' ``RunningSet``
    clamps them.

    Runs the block forward once on frames-as-columns (n, B) beliefs,
    keeping each layer group's gathered beliefs and min-sum messages u_l,
    then walks the groups in reverse: layer l's weight gradient is the
    adjoint on its check's columns dotted with u_l, and the adjoint of the
    layer input adds the min-sum backward of w_l times that adjoint.  The
    checks of a group share no variable, so neither step of one check reads
    what another check of its group writes, and a group steps back at once
    exactly as its checks would one by one.  The work is one allocation of
    n + walk_size(h, keep=True) entries a frame.

    Every reduction keeps one fixed order: the loss is the mean over a
    C-ordered (B, n) array, each check's gradient the sum over a C-ordered
    (B, d) array of its products, and each row of the min-sum backward sums
    its d adjoints as ``minsum_backward`` documents.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != h.num_checks:
        raise ValueError(f"expected {h.num_checks} layer weights, got {weights.size}")
    x = check_llr_batch(h, llrs)
    # one allocation holds the beliefs and the walk, every group's blocks kept
    work = np.empty(len(x) * (h.n + walk_size(h, keep=True)))
    xt = work[:x.size].reshape(h.n, -1)
    copy_clamped(xt, x)
    layers = list(block_layers(h, weights, xt, work[x.size:], keep=True))
    value, g = loss_with_adjoint(np.ascontiguousarray(xt.T), x_b)
    gt = np.array(g.T, order="C")
    grads = np.empty(h.num_checks)
    for checks, table, xc, u in reversed(layers):
        g_cols = gt.take(table, axis=0)  # (d, g, B)
        p = np.ascontiguousarray((g_cols * u.T.reshape(g_cols.shape)).transpose(1, 2, 0))
        grads[checks] = p.sum(axis=(1, 2))
        # p is spent: its memory takes the adjoint of the messages, w times g
        wg = np.multiply(g_cols, weights[checks, None], out=p.reshape(g_cols.shape))
        wg = wg.reshape(len(g_cols), -1).T
        g_cols += minsum_backward(wg, xc, u).T.reshape(g_cols.shape)
        gt[table] = g_cols
    return value, grads


# Adam's moment decay rates and denominator offset, at their standard values
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class Adam:
    """Standard Adam update with bias correction."""

    lr: float = 0.001

    def __post_init__(self):
        self.m = None
        self.v = None
        self.t = 0

    def step(self, params, grads):
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m = BETA1 * self.m + (1 - BETA1) * grads
        self.v = BETA2 * self.v + (1 - BETA2) * grads**2
        m_hat = self.m / (1 - BETA1**self.t)
        v_hat = self.v / (1 - BETA2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + EPS)


@dataclass(frozen=True)
class TrainConfig:
    """Protocol defaults: lr 0.001, batch 256, 20000 iterations, CSNR 4-6 dB."""

    learning_rate: float = 0.001
    batch_size: int = 256
    iterations: int = 20000
    csnr_low_db: float = 4.0
    csnr_high_db: float = 6.0
    seed: int = 0
    all_zero_codewords: bool = False

    def __post_init__(self):
        check_count("batch_size", self.batch_size)
        check_count("iterations", self.iterations)
        for name in ("learning_rate", "csnr_low_db", "csnr_high_db"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.csnr_high_db < self.csnr_low_db:
            raise ValueError("empty CSNR range")


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


def train(h, cfg=TrainConfig()):
    """Train block weights from scratch on single-step denoising batches."""
    rng = np.random.default_rng(cfg.seed)
    gen = derive_generator(h)
    params = np.zeros(h.num_checks)
    adam = Adam(lr=cfg.learning_rate)
    raw = np.empty(cfg.iterations)
    for it in range(cfg.iterations):
        csnr = rng.uniform(cfg.csnr_low_db, cfg.csnr_high_db, size=cfg.batch_size)
        w = noise_scale(csnr, h.k, h.n)
        if cfg.all_zero_codewords:
            code = np.zeros((cfg.batch_size, h.n), dtype=np.uint8)
        else:
            code = encode(gen, rng.integers(0, 2, size=(cfg.batch_size, h.k)))
        llrs = to_llr(transmit(bipolar(code), w[:, None], rng), w[:, None])
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
