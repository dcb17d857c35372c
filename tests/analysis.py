"""Model math that the program does not run, kept for the tests that check it.

The forward diffusion over LLR states (its noise scales sigma, the diffusion
SNR and the forward transitions q(z_t | z_s)), the static FLOP counts and
model size behind the complexity criterion, and the BCE loss value, which is
the finite-difference oracle for ``vcdc.train.loss_with_adjoint``.

FLOPs are static worst-case counts (no early stopping) with the convention:
add = mul = compare = 1 and tanh/arctanh = a configurable constant
(default 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vcdc.bp import MIN_SUM, SUM_PRODUCT
from vcdc.denoiser import NeuralBlockWeights, save_checkpoint


def sigmas(sched):
    """Noise scale sigma = 2/w of each level of ``sched``; the LLR word at a
    level is distributed N(alpha x, sigma^2 I)."""
    w = 1.0 / np.sqrt(2.0 * sched.rate * 10.0 ** (sched.csnr_levels / 10.0))
    return 2.0 / w


def vsnr(sched):
    """Diffusion SNR alpha^2/sigma^2 per level; strictly decreasing."""
    return sched.alphas**2 / sigmas(sched)**2


@dataclass(frozen=True)
class TransitionParams:
    """Mean scale and variance of one forward transition."""

    alpha_ratio: float
    variance: float


def forward_transition(sched, from_index, to_index):
    """Parameters of q(z_t | z_s) for schedule indices s < t (lower CSNR).

    Mean scale is alpha_t/alpha_s = w_s^2/w_t^2 and the conditional
    variance sigma_t^2 - (alpha_t/alpha_s)^2 sigma_s^2 is strictly
    positive exactly because the destination level is noisier.
    """
    T = len(sched)
    if not 0 <= from_index < T or not 0 <= to_index < T:
        raise IndexError(f"indices ({from_index}, {to_index}) outside schedule of length {T}")
    if to_index <= from_index:
        raise ValueError(
            "forward transitions must move to a lower CSNR "
            f"(got from_index={from_index}, to_index={to_index})")
    sig = sigmas(sched)
    a_s, a_t = sched.alphas[from_index], sched.alphas[to_index]
    s_s, s_t = sig[from_index], sig[to_index]
    ratio = a_t / a_s
    variance = s_t**2 - ratio**2 * s_s**2
    return TransitionParams(alpha_ratio=float(ratio), variance=float(variance))


@dataclass(frozen=True)
class FlopsReport:
    """Per-decode operation counts by category plus model storage."""

    adds: int
    muls: int
    compares: int
    transcendentals: int
    transcendental_cost: float = 1.0
    model_bytes: int = 0

    @property
    def total(self):
        return self.adds + self.muls + self.compares \
            + self.transcendental_cost * self.transcendentals


def _degree_sums(h):
    degrees = h.rows.sum(axis=1).tolist()
    return sum(degrees), degrees


def count_flops_bp(h, iters, variant=SUM_PRODUCT, transcendental_cost=1.0):
    """Static worst-case FLOPs of flooding BP for ``iters`` iterations.

    Per iteration: one check sweep, belief/extrinsic variable stage
    (2E + n adds, E clamp compares), and one syndrome check.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    e, degrees = _degree_sums(h)
    chk_muls = chk_compares = chk_transc = 0
    for d in degrees:
        if variant == SUM_PRODUCT:
            # halve, prefix/suffix exclusive products, double; tanh + arctanh
            chk_muls += d + max(3 * d - 4, 0) + d
            chk_transc += 2 * d
            chk_compares += d  # product clamp
        elif variant == MIN_SUM:
            chk_muls += 3 * d - 1  # sign product, exclusion, apply sign
            chk_compares += 5 * d - 2  # signs, abs, min1, min2, select
        else:
            raise ValueError(f"unknown variant {variant!r}")
    adds = (2 * e + h.n) + e  # variable stage + syndrome xors
    compares = chk_compares + e + (h.n + h.num_checks)  # clamp + hard decision/zero test
    return FlopsReport(adds=adds * iters, muls=chk_muls * iters,
                       compares=compares * iters, transcendentals=chk_transc * iters,
                       transcendental_cost=transcendental_cost, model_bytes=0)


def count_flops_vcdc(h, timesteps, transcendental_cost=1.0):
    """Static worst-case FLOPs of the reverse-process decoder.

    Counts ``timesteps`` block applications, ``timesteps - 1`` reverse
    updates, and ``timesteps + 1`` syndrome checks (no early stopping).
    """
    if timesteps < 0:
        raise ValueError("timesteps must be >= 0")
    e, degrees = _degree_sums(h)
    block_adds = e  # residual additions
    block_muls = sum(4 * d - 1 for d in degrees) + h.n  # min-sum, weights, tanh(x/2)
    block_compares = sum(5 * d - 2 for d in degrees)
    block_transc = h.n

    t = timesteps
    n_reverse = max(t - 1, 0)
    n_syndrome = t + 1 if t else 0
    adds = block_adds * t + h.n * n_reverse + e * n_syndrome
    muls = block_muls * t + h.n * n_reverse
    compares = block_compares * t + (h.n + h.num_checks) * n_syndrome
    transc = block_transc * t
    dummy = NeuralBlockWeights(values=np.zeros(h.num_checks), n=h.n, k=h.k)
    return FlopsReport(adds=adds, muls=muls, compares=compares, transcendentals=transc,
                       transcendental_cost=transcendental_cost,
                       model_bytes=model_size_bytes(dummy) if t else 0)


def model_size_bytes(weights):
    """Deployed model size: 4 bytes per weight plus the checkpoint's ASCII
    header line."""
    data = save_checkpoint(weights)
    return 4 * weights.values.size + data.index(b"\n") + 1


def _softplus(z):
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def loss(beliefs, x_b):
    """Mean binary cross-entropy between sigmoid(beliefs) and 1 - x_b.

    Positive belief is evidence for bit 0; computed in stabilized softplus
    form, softplus(-(1 - 2 x_b) * belief), averaged over all entries.
    """
    sym = 1.0 - 2.0 * np.asarray(x_b, dtype=np.float64)
    return float(np.mean(_softplus(-sym * np.asarray(beliefs, dtype=np.float64))))
