"""The benchmark's per-layer instrumentation still finds the program's layers.

``perfbench/harness.py`` wraps functions by their module attribute names.
A wrapped name that a refactor removes or renames is skipped, and every
metric timed through it then reads 0 without any error.
"""

import os

import numpy as np
import pytest

from vcdc import bench, codes, denoiser
from vcdc import train as vtrain
from vcdc.denoiser import NeuralBlockWeights
from vcdc.diffusion import build_schedule

# names the harness wraps that the program no longer has; they are mended
# with the benchmark itself, which must then empty this set: a name that
# comes back, or one more that goes, fails here.  run_ber and train read
# h.generator, so their module names for derive_generator are gone; the
# harness still times codebook.derive_generator, which it calls itself.
# train makes its frames through bench.channel_frames, so its encodes run
# through bench.encode, which the harness times as codebook.encode too
KNOWN_STALE = {"vcdc.train.neural_block_tape", "vcdc.train.check_minsum_terms",
               "vcdc.bench.derive_generator", "vcdc.train.derive_generator",
               "vcdc.train.encode"}

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_harness_wraps_only_existing_names(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import harness
    import spans

    with spans.Patches() as patches:
        harness.instrument(patches, spans.Tracer())
    assert set(patches.missing) == KNOWN_STALE


@pytest.mark.parametrize("name, per_block", [("ldpc_121_60", 6), ("polar_64_32", 32)])
def test_check_update_span_sees_every_group(monkeypatch, name, per_block):
    # one min-sum call per layer group (ldpc_121_60 merges its 61 checks
    # into 6 groups, polar_64_32's 32 checks stay single), and one kernel
    # row per frame and check, as when the checks ran one by one; a walk
    # that stopped calling through the module global would count 0 here
    monkeypatch.syspath_prepend(PERFBENCH)
    import harness
    import spans

    h = codes.load(name)
    frames, block = [], denoiser.neural_block
    monkeypatch.setattr(denoiser, "neural_block",
                        lambda h, w, zt, **kw: frames.append(zt.shape[1]) or block(h, w, zt, **kw))
    rng = np.random.default_rng(0)
    weights = NeuralBlockWeights(values=rng.normal(0.3, 0.1, h.num_checks), n=h.n, k=h.k)
    llrs = rng.normal(2.0, 2.0, (64, h.n))
    sched = build_schedule(2.0, 5, 0.5, h.rate)
    tracer = spans.Tracer()
    with spans.Patches() as patches:
        harness.instrument(patches, tracer)
        denoiser.decode_vcdc_batch(h, weights, sched, llrs)
    calls = tracer.summary()[0]
    assert calls["denoiser.decode"] == 1 and calls["denoiser.final_block"] == len(frames) > 1
    # each block feeds one reverse step, but the block at the cleanest level
    assert calls["diffusion.reverse_step"] == min(len(frames), len(sched) - 1)
    assert calls["denoiser.check_update"] == per_block * len(frames)
    assert tracer.counts["denoiser.check_update.rows"] == h.num_checks * sum(frames)

    # training runs the same kernel once per group and iteration: its
    # backward rebuilds what it needs from the forward's messages
    iters, batch = 2, 16
    tracer = spans.Tracer()
    with spans.Patches() as patches:
        harness.instrument(patches, tracer)
        vtrain.train(h, vtrain.TrainConfig(iterations=iters, batch_size=batch))
    calls = tracer.summary()[0]
    assert calls["train.adam"] == iters
    # one frame synthesis per iteration, in the encode span; the noise scale
    # once for the CSNR range and once per iteration
    assert calls["codebook.encode"] == iters
    assert calls["channel.noise_scale"] == iters + 1
    assert calls["denoiser.check_update"] == len(h.layer_groups) * iters == per_block * iters
    assert tracer.counts["denoiser.check_update.rows"] == h.num_checks * batch * iters


def test_encode_span_sees_every_run_ber_batch(monkeypatch):
    # run_ber makes one batch of frames per round, the short last one too,
    # and its encode shows in the span train's encodes count in
    monkeypatch.syspath_prepend(PERFBENCH)
    import harness
    import spans

    h = codes.load("hamming_7_4")
    tracer = spans.Tracer()
    with spans.Patches() as patches:
        harness.instrument(patches, tracer)
        run = bench.run_ber(h, bench.IdentityDecoder(h), 3.0, stop_errors=10**6,
                            max_frames=40, seed=0, code_id="hamming_7_4", batch_frames=16)
    calls = tracer.summary()[0]
    assert run.frames_simulated == 40
    assert calls["bench.run_ber"] == 1 and calls["codebook.encode"] == 3
    assert calls["channel.noise_scale"] == 1
