#!/usr/bin/env python3
"""Time one neural block call against the number of frames it runs.

    python3 tools/block_cost.py [--code ldpc_121_60] [--checkpoint FILE]
        [--frames 1,16,64,256,512] [--repeats 7] [--calls 50] [--train]

Runs ``denoiser.neural_block`` on channel-LLR beliefs at 4 dB (seed 0) of
the code, a bundled name or an alist path, with the weights of
``--checkpoint`` or every weight 0.3, on one BLAS thread.  Each
repeat times ``--calls`` calls at every frame count in turn, each call on a
fresh copy of the same beliefs (the copy is not timed); a frame count's
time is the median over the repeats of its mean time per call.  Prints the
ms per call at each frame count and the least-squares fit of that time as
a fixed cost per call plus a cost per frame.

With ``--train`` it times ``train.block_gradients`` instead, one training
step's forward and backward, on the same LLRs and the codewords
``channel_frames`` made them from, with the same table and fit.
"""

import argparse
import os
import statistics
import sys
import time

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from vcdc import codes, denoiser  # noqa: E402
from vcdc import train as vtrain  # noqa: E402
from vcdc.bench import channel_frames  # noqa: E402
from vcdc.channel import noise_scale  # noqa: E402

CSNR_DB, SEED, WEIGHT = 4.0, 0, 0.3


def block_times(h, weights, frames, repeats, calls, train=False):
    """{frame count: median ms per ``neural_block`` call}, or with ``train``
    per ``train.block_gradients`` call."""
    rng = np.random.default_rng(SEED)
    most = max(frames)
    code, llrs = channel_frames(h, rng.integers(0, 2, (most, h.k), dtype=np.uint8),
                                noise_scale(CSNR_DB, h.k, h.n), rng)
    beliefs = {b: np.ascontiguousarray(llrs[:b].T) for b in frames}
    zts = {b: np.empty_like(z) for b, z in beliefs.items()}
    work = np.empty(most * denoiser.walk_size(h))

    def call(b):
        if train:  # its running set copies the LLRs, as every training step does
            vtrain.block_gradients(h, weights.values, llrs[:b], code[:b])
        else:
            denoiser.neural_block(h, weights, zts[b], work)

    times = {b: [] for b in frames}
    for _ in range(repeats):
        for b in frames:
            spent = 0
            for _ in range(calls):
                np.copyto(zts[b], beliefs[b])
                start = time.perf_counter_ns()
                call(b)
                spent += time.perf_counter_ns() - start
            times[b].append(spent / calls / 1e6)
    return {b: statistics.median(t) for b, t in times.items()}


def fit(times):
    """(fixed ms, ms per frame): the least-squares line through ``times``."""
    frames = np.array(list(times), dtype=np.float64)
    a = np.stack([np.ones_like(frames), frames], axis=1)
    (fixed, per_frame), *_ = np.linalg.lstsq(a, np.array(list(times.values())), rcond=None)
    return fixed, per_frame


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--code", default="ldpc_121_60", help="bundled code name or alist path")
    ap.add_argument("--checkpoint", help=f"weights file (default: every weight {WEIGHT})")
    ap.add_argument("--frames", default="1,16,64,256,512", help="comma-separated frame counts")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--calls", type=int, default=50, help="timed calls per repeat")
    ap.add_argument("--train", action="store_true",
                    help="time train.block_gradients, a training step, instead of the block")
    args = ap.parse_args(argv)
    try:
        frames = sorted({int(f) for f in args.frames.split(",")})
    except ValueError:
        ap.error(f"--frames must be comma-separated integers, got {args.frames!r}")
    if frames[0] < 1 or args.repeats < 1 or args.calls < 1:
        ap.error("--frames, --repeats and --calls must be >= 1")

    h = codes.load(args.code)
    if args.checkpoint:
        with open(args.checkpoint, "rb") as fh:
            weights = denoiser.load_checkpoint(fh.read())
        source = args.checkpoint
    else:
        weights = denoiser.NeuralBlockWeights(np.full(h.num_checks, WEIGHT), h.n, h.k)
        source = f"constant {WEIGHT:g}"
    times = block_times(h, weights, frames, args.repeats, args.calls, args.train)
    print(f"code {args.code} ({h.n},{h.k}), {len(h.layer_groups)} layer groups, "
          f"weights {source}, median of {args.repeats} repeats of {args.calls} calls"
          + (" of train.block_gradients" if args.train else ""))
    print("frames  ms/call")
    for b, ms in times.items():
        print(f"{b:6d}  {ms:.4f}")
    if len(times) > 1:
        fixed, per_frame = fit(times)
        print(f"fit: {fixed * 1e3:.1f} us fixed + {per_frame * 1e3:.3f} us/frame")
    return 0


if __name__ == "__main__":
    sys.exit(main())
