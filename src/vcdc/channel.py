"""AWGN channel in the bipolar domain and its LLR front end.

The noise scale at CSNR s dB for a rate-K/N code is
w = 1/sqrt(2 (K/N) 10^(s/10)); received samples are y = x + w*xi with xi
standard normal, and the channel LLR is 2y/w^2 (positive favours bit 0).
Gaussian draws come from numpy's Generator.standard_normal (PCG64 +
ziggurat), so a fixed seed reproduces y bit-for-bit on one platform.
"""

from __future__ import annotations

import numpy as np


def _law(csnr_db, rate):
    return 1.0 / np.sqrt(2.0 * rate * 10.0 ** (csnr_db / 10.0))


def noise_scale_at_rate(csnr_db, rate):
    """Noise standard deviation for CSNR in dB at code rate ``rate``.

    The first CSNR whose noise variance w^2 or LLR scale 2/w^2 is not
    finite is rejected by name: at rate 1/2, one beyond about +-3080 dB.
    """
    if not 0 < rate < 1:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    # the check takes numpy's power, which gives inf where Python's raises
    with np.errstate(over="ignore", divide="ignore"):
        w = _law(np.asarray(csnr_db), rate)
        ok = np.isfinite(w**2) & np.isfinite(2.0 / w**2)
    if not ok.all():
        raise ValueError(f"CSNR {np.ravel(csnr_db)[~np.ravel(ok)][0]:g} dB is out of range: "
                         f"its noise variance or LLR scale is not finite")
    # a float CSNR takes Python's float power, not numpy's: the two differ in
    # the last bit for some CSNRs, and run_ber's seeded LLRs follow this one
    return w if np.ndim(csnr_db) else _law(csnr_db, rate)


def noise_scale(csnr_db, k, n):
    """``noise_scale_at_rate(csnr_db, k / n)`` for a code of k bits in n."""
    return noise_scale_at_rate(csnr_db, k / n)


def _check_noise_scale(w):
    # NaN fails ``w > 0`` and inf fails ``isfinite``
    bad = np.ravel(w)[~np.ravel(np.isfinite(w) & (w > 0))]
    if bad.size:
        raise ValueError(f"noise scale must be finite and positive, got {bad[0]:g}")


def transmit(x, w, rng):
    """Send bipolar symbols through AWGN: y = x + w*xi, xi ~ N(0, I).

    ``w`` is a scalar or an array that broadcasts against ``x`` (one noise
    scale per frame as a (B, 1) column, say).
    """
    _check_noise_scale(w)
    x = np.asarray(x, dtype=np.float64)
    return x + w * rng.standard_normal(x.shape)


def to_llr(y, w):
    """Channel LLRs 2y/w^2, unclamped (``bp.RunningSet`` clamps); ``w`` as in transmit."""
    _check_noise_scale(w)
    # w**2 is pow() for a scalar and an exact square for an array; the
    # fixed-seed bench and training outputs depend on exactly these roundings
    return 2.0 * np.asarray(y, dtype=np.float64) / w**2


def hard_decide(llr):
    """Hard decisions from LLRs: bit 0 where the LLR is >= 0, else bit 1."""
    # the bool decisions read as uint8 in place: numpy stores True as 1
    return (np.asarray(llr) < 0).view(np.uint8)


def soft_decide(llr, out):
    """Soft decisions tanh(llr / 2), the posterior mean of a bipolar symbol
    under an LLR belief, written into ``out`` (which may be ``llr``) and
    returned."""
    # x * 0.5 is x / 2.0 exactly: both round the same real number
    return np.tanh(np.multiply(llr, 0.5, out=out), out=out)
