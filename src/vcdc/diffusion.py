"""The AWGN channel as a Gaussian diffusion over LLR states.

A schedule is an ordered list of CSNR levels s_1 > ... > s_T (dB); the
LLR word observed at level s is distributed N((2/w_s^2) x, (4/w_s^2) I),
so alpha = 2/w^2 and sigma = 2/w, with w and its range rule from
``channel.noise_scale_at_rate``.  The reverse update is deterministic: no
noise is re-injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bp import check_count
from .channel import noise_scale_at_rate


@dataclass(frozen=True)
class DiffusionSchedule:
    """CSNR levels in decreasing order with their mean scales alpha.

    Index 0 is the cleanest level, index T-1 the observed (physical)
    channel.  ``rate`` is the code rate used to derive the noise scales.
    """

    csnr_levels: np.ndarray
    rate: float
    alphas: np.ndarray = field(init=False)

    def __post_init__(self):
        levels = np.array(self.csnr_levels, dtype=np.float64)  # a copy, frozen below
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("schedule needs at least one CSNR level")
        if not np.isfinite(levels).all():
            raise ValueError(f"CSNR levels must be finite, got {levels[~np.isfinite(levels)][0]}")
        if levels.size > 1 and not (np.diff(levels) < 0).all():
            raise ValueError("CSNR levels must be strictly decreasing")
        alphas = 2.0 / noise_scale_at_rate(levels, self.rate)**2
        for a in (levels, alphas):
            a.setflags(write=False)
        object.__setattr__(self, "csnr_levels", levels)
        object.__setattr__(self, "alphas", alphas)

    def __len__(self):
        return self.csnr_levels.size


def check_spacing(timesteps, step_db):
    """ValueError unless ``timesteps`` is a count of levels (a fraction would
    shift them off the channel) and ``step_db``, their spacing, finite and
    positive."""
    check_count("timesteps", timesteps)
    if not 0.0 < step_db < np.inf:  # NaN fails both tests
        raise ValueError(f"step_db must be finite and positive, got {step_db}")


def build_schedule(observed_csnr_db, timesteps, step_db, rate):
    """Uniformly spaced schedule of ``timesteps`` levels ending at the
    observed channel CSNR.

    Levels are observed + (timesteps-1)*step_db, ..., observed + step_db,
    observed, so the noisiest end coincides with the physical channel.
    """
    check_spacing(timesteps, step_db)
    levels = observed_csnr_db + step_db * np.arange(timesteps - 1, -1, -1, dtype=np.float64)
    return DiffusionSchedule(csnr_levels=levels, rate=float(rate))


def reverse_step(sched, t_index, z_t, x_hat):
    """Deterministic reverse update from level t_index to t_index - 1.

    z_s = z_t + (alpha_s - alpha_t) * x_hat, the mean of the reverse
    transition with the noise-injection step skipped, written over x_hat
    and returned.  x_hat, a bipolar-valued estimate, must be a float64
    ndarray with entries in [-1, 1] whose memory does not overlap z_t's; a
    t_index past the schedule start, or an x_hat that fails, raises
    ValueError before anything is written.
    """
    if not 1 <= t_index < len(sched):
        raise ValueError(f"t_index {t_index} cannot step past the schedule start")
    if not (isinstance(x_hat, np.ndarray) and x_hat.dtype == np.float64):
        raise ValueError("x_hat must be a float64 ndarray")
    if np.may_share_memory(x_hat, z_t):
        raise ValueError("x_hat must not overlap z_t")
    # NaN fails both tests
    if not (x_hat.min(initial=0.0) >= -1.0 and x_hat.max(initial=0.0) <= 1.0):
        raise ValueError("x_hat entries must lie in [-1, 1]")
    gain = sched.alphas[t_index - 1] - sched.alphas[t_index]
    return np.add(z_t, np.multiply(gain, x_hat, out=x_hat), out=x_hat)
