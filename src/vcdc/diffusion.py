"""The AWGN channel as a Gaussian diffusion over LLR states.

A schedule is an ordered list of CSNR levels s_1 > ... > s_T (dB); the
LLR word observed at level s is distributed N((2/w_s^2) x, (4/w_s^2) I),
so alpha = 2/w^2 and sigma = 2/w.  Moving to a lower CSNR is a valid
Gaussian forward transition (positive conditional variance) and the
diffusion SNR alpha^2/sigma^2 = 1/w^2 strictly decreases along the
schedule.  The reverse update is deterministic: no noise is re-injected.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DiffusionSchedule:
    """CSNR levels in decreasing order with their (alpha, sigma) pairs.

    Index 0 is the cleanest level, index T-1 the observed (physical)
    channel.  ``rate`` is the code rate used to derive the noise scales.
    """

    csnr_levels: np.ndarray
    rate: float
    alphas: np.ndarray = field(init=False)
    sigmas: np.ndarray = field(init=False)

    def __post_init__(self):
        levels = np.array(self.csnr_levels, dtype=np.float64)  # a copy, frozen below
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("schedule needs at least one CSNR level")
        if not np.isfinite(levels).all():
            raise ValueError(f"CSNR levels must be finite, got {levels}")
        if levels.size > 1 and not (np.diff(levels) < 0).all():
            raise ValueError("CSNR levels must be strictly decreasing")
        if not 0 < self.rate < 1:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")
        # levels beyond about +-3,000 dB overflow or underflow float64; they
        # are rejected below, so numpy's warnings about them are not raised
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            w = 1.0 / np.sqrt(2.0 * self.rate * 10.0 ** (levels / 10.0))
            alphas = 2.0 / w**2
            sigmas = 2.0 / w
        bad = ~(np.isfinite(alphas) & (alphas > 0))  # sigma = sqrt(2 alpha) follows
        if bad.any():
            raise ValueError(f"CSNR levels {levels[bad]} dB give an alpha or sigma "
                             "that is not finite and positive")
        for a in (levels, alphas, sigmas):
            a.setflags(write=False)
        object.__setattr__(self, "csnr_levels", levels)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "sigmas", sigmas)

    def __len__(self):
        return self.csnr_levels.size

    def vsnr(self):
        """Diffusion SNR alpha^2/sigma^2 per level; strictly decreasing."""
        return self.alphas**2 / self.sigmas**2


@dataclass(frozen=True)
class TransitionParams:
    """Mean scale and variance of one forward transition."""

    alpha_ratio: float
    variance: float


def build_schedule(observed_csnr_db, steps, step_db=0.5, rate=0.5):
    """Uniformly spaced schedule ending at the observed channel CSNR.

    Levels are observed + (steps-1)*step_db, ..., observed + step_db,
    observed, so the noisiest end coincides with the physical channel.
    ``steps`` must be an integer: a fractional count would shift every
    level off the channel, and a bool is not a count.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if step_db <= 0:
        raise ValueError(f"step_db must be positive, got {step_db}")
    levels = observed_csnr_db + step_db * np.arange(steps - 1, -1, -1, dtype=np.float64)
    return DiffusionSchedule(csnr_levels=levels, rate=float(rate))


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
    a_s, a_t = sched.alphas[from_index], sched.alphas[to_index]
    s_s, s_t = sched.sigmas[from_index], sched.sigmas[to_index]
    ratio = a_t / a_s
    variance = s_t**2 - ratio**2 * s_s**2
    return TransitionParams(alpha_ratio=float(ratio), variance=float(variance))


def reverse_step(sched, t_index, z_t, x_hat, out=None):
    """Deterministic reverse update from level t_index to t_index - 1.

    z_s = z_t + (alpha_s - alpha_t) * x_hat, the mean of the reverse
    transition with the noise-injection step skipped; x_hat must be a
    bipolar-valued estimate with entries in [-1, 1].  z_s goes into
    ``out`` when it is given, which may be ``x_hat`` itself but must not
    overlap ``z_t``; nothing is written when x_hat is out of range.
    """
    if not 1 <= t_index < len(sched):
        raise ValueError(f"t_index {t_index} cannot step past the schedule start")
    z_t = np.asarray(z_t, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    # NaN fails both tests
    if not (x_hat.min(initial=0.0) >= -1.0 and x_hat.max(initial=0.0) <= 1.0):
        raise ValueError("x_hat entries must lie in [-1, 1]")
    gain = sched.alphas[t_index - 1] - sched.alphas[t_index]
    return np.add(z_t, np.multiply(gain, x_hat, out=out), out=out)
