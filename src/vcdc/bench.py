"""Monte-Carlo BER evaluation, frame synthesis and result emission.

``channel_frames`` is the one frame law, for ``run_ber`` and ``train``:
encode, map to +-1, add AWGN, form the channel LLRs.

A run simulates random-message frames through the AWGN channel and a
decoder until the configured number of bit errors has been observed (the
stopping rule) or a frame budget censors the run.  Every frame is drawn
from one seeded stream, up to ``batch_frames`` frames a round, so results
depend only on (seed, batch_frames).  The stopping check runs between
rounds, so the error count may slightly overshoot the threshold.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import denoiser
from .bp import EdgeIndex, check_count, check_llr_batch, decode_bp_batch
from .channel import hard_decide, noise_scale, to_llr, transmit
from .codebook import bipolar, encode
from .diffusion import build_schedule, check_spacing

RESULT_COLUMNS = ("code", "n", "k", "decoder", "csnr_db", "bits", "bit_errors", "ber",
                  "neg_ln_ber", "frames", "frame_errors", "mean_steps", "censored", "seed")


@dataclass(frozen=True)
class BerRun:
    """Outcome of one (code, decoder, CSNR) Monte-Carlo campaign."""

    code_id: str
    n: int
    k: int
    decoder_id: str
    csnr_db: float
    bit_errors: int
    bits_simulated: int
    frames_simulated: int
    frame_errors: int
    mean_steps_used: float
    censored: bool
    seed: int

    @property
    def ber(self):
        return self.bit_errors / self.bits_simulated if self.bits_simulated else 0.0


def neg_ln_ber(run):
    """-ln(BER); for error-free runs, the censored lower bound ln(bits)."""
    if run.bits_simulated <= 0:
        raise ValueError("run simulated no bits")
    if run.bit_errors == 0:
        return math.log(run.bits_simulated)
    return -math.log(run.ber)


class BpDecoder:
    """Classical BP; ignores the channel level."""

    def __init__(self, h, cfg):
        self.h, self.cfg, self.name = h, cfg, "bp"
        self._ei = EdgeIndex(h)

    def decode_batch(self, llrs, csnr_db):
        bits, _, iters, _ = decode_bp_batch(self.h, llrs, self.cfg, edge_index=self._ei)
        return bits, iters


# The default spacing of the reverse-process CSNR levels, in dB; the CLI's too.
STEP_DB = 0.5


class VcdcDecoder:
    """Reverse-process decoder; the schedule's observed level tracks the
    channel CSNR of each run."""

    def __init__(self, h, weights, timesteps, step_db=STEP_DB):
        weights.check_code(h)
        # each run's schedule checks its own CSNR range, in decode_batch
        check_spacing(timesteps, step_db)
        self.h, self.weights, self.timesteps, self.step_db = h, weights, timesteps, step_db
        self.name = f"vcdc-t{timesteps}"

    def decode_batch(self, llrs, csnr_db):
        sched = build_schedule(csnr_db, self.timesteps, self.step_db, self.h.rate)
        bits, _, steps, _ = denoiser.decode_vcdc_batch(self.h, self.weights, sched, llrs)
        return bits, steps


class IdentityDecoder:
    """Hard decision on the raw channel LLRs; non-finite ones are rejected."""

    def __init__(self, h):
        self.h = h
        self.name = "identity"

    def decode_batch(self, llrs, csnr_db):
        return hard_decide(check_llr_batch(self.h, llrs)), np.zeros(len(llrs), dtype=np.int64)


def channel_frames(h, messages, w, rng):
    """(code, llrs) of the (B, k) ``messages``: ``code = encode(h.generator,
    messages)`` sent through AWGN of noise scale ``w``, a scalar or a (B, 1)
    column.  The caller draws the messages, so ``rng`` gives the noise after them.
    """
    code = encode(h.generator, messages)
    return code, to_llr(transmit(bipolar(code), w, rng), w)


def run_ber(h, decoder, csnr_db, stop_errors, max_frames, seed, code_id, batch_frames,
            workers=1):
    """Simulate frames until ``stop_errors`` bit errors or ``max_frames``.

    Runs stopped by the frame budget before reaching the error target are
    flagged censored.  The channel CSNR is checked before the first batch,
    but a decoder's own CSNR checks, such as ``VcdcDecoder``'s schedule
    range, fail inside the first ``decode_batch``, after that batch has been
    drawn; ``vcdc bench`` checks every channel CSNR, and has each decoder
    decode zero frames at each CSNR, before any work.  ``workers`` must be
    1: it stays only because ``perfbench/harness.py`` passes ``workers=1``,
    and goes with the benchmark's mending (ROADMAP item 1).
    """
    check_count("stop_errors", stop_errors)
    check_count("max_frames", max_frames)
    check_count("batch_frames", batch_frames)
    if workers != 1:
        raise ValueError(f"run_ber draws one stream; workers must be 1, got {workers!r}")
    w = float(noise_scale(csnr_db, h.k, h.n))
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    bit_errors = frames_done = frame_errors = steps_total = 0
    while bit_errors < stop_errors and frames_done < max_frames:
        frames = min(batch_frames, max_frames - frames_done)
        code, llrs = channel_frames(h, rng.integers(0, 2, size=(frames, h.k)), w, rng)
        bits, steps = decoder.decode_batch(llrs, csnr_db)
        wrong = bits != code
        bit_errors += int(wrong.sum())
        frame_errors += int(wrong.any(axis=1).sum())
        steps_total += int(steps.sum())
        frames_done += frames

    return BerRun(code_id=code_id, n=h.n, k=h.k, decoder_id=decoder.name,
                  csnr_db=float(csnr_db), bit_errors=bit_errors,
                  bits_simulated=frames_done * h.n, frames_simulated=frames_done,
                  frame_errors=frame_errors,
                  mean_steps_used=steps_total / frames_done,
                  censored=bit_errors < stop_errors, seed=seed)


def emit_results(runs, out_dir):
    """Write results.csv plus one SNR-vs-BER plot-data file per code."""
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    with open(results_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in runs:
            writer.writerow([r.code_id, r.n, r.k, r.decoder_id, f"{r.csnr_db:.17g}",
                             r.bits_simulated, r.bit_errors, f"{r.ber:.17g}",
                             f"{neg_ln_ber(r):.17g}", r.frames_simulated, r.frame_errors,
                             f"{r.mean_steps_used:.17g}", int(r.censored), r.seed])
    paths = [results_path]
    by_code = {}
    for r in runs:
        by_code.setdefault(r.code_id, []).append(r)
    for code_id, code_runs in by_code.items():
        plot_path = os.path.join(out_dir, f"plot_{code_id}.csv")
        with open(plot_path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["decoder", "csnr_db", "ber"])
            for r in sorted(code_runs, key=lambda r: (r.decoder_id, r.csnr_db)):
                writer.writerow([r.decoder_id, f"{r.csnr_db:.17g}", f"{r.ber:.17g}"])
        paths.append(plot_path)
    return paths
