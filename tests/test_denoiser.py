import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdc.bp import MIN_SUM, SUM_PRODUCT, BpConfig, decode_bp_batch
from vcdc.channel import LLR_CLAMP, hard_decide, noise_scale, to_llr, transmit
from vcdc.codebook import ParityCheckMatrix, bipolar, derive_generator, encode, syndrome
from vcdc.denoiser import (CheckpointError, NeuralBlockWeights, decode_vcdc_batch,
                           load_checkpoint, neural_block, save_checkpoint, walk_size)
from vcdc.diffusion import build_schedule
from vcdc.train import block_gradients

import serial
import tape
from analysis import model_size_bytes
from conftest import assert_same_bits, make_tree_code, random_layered_code, traced_peak

SEEDS = st.integers(0, 2**32 - 1)


def rand_weights(h, rng, scale=0.4):
    return NeuralBlockWeights(values=rng.normal(0, scale, h.num_checks), n=h.n, k=h.k)


class TestNeuralBlock:
    def test_zero_weights_is_identity_on_beliefs(self, hamming):
        rng = np.random.default_rng(0)
        l = rng.normal(0, 3, (1, hamming.n))
        beliefs, x_hat = neural_block(hamming, NeuralBlockWeights.zeros(hamming), l)
        np.testing.assert_array_equal(beliefs, l)
        np.testing.assert_allclose(x_hat, np.tanh(l / 2.0))

    def test_soft_estimate_stays_in_open_interval(self, ldpc_49_24):
        rng = np.random.default_rng(1)
        w = rand_weights(ldpc_49_24, rng)
        l = rng.normal(0, 8, (1, ldpc_49_24.n))
        _, x_hat = neural_block(ldpc_49_24, w, l)
        assert (np.abs(x_hat) <= 1.0).all()
        assert (np.abs(x_hat) < 1.0).any()

    def test_unit_weights_on_tree_matches_one_bp_iteration_noiseless(self):
        h = make_tree_code(4)
        g = derive_generator(h)
        rng = np.random.default_rng(2)
        weights = NeuralBlockWeights(values=np.ones(h.num_checks), n=h.n, k=h.k)
        for _ in range(10):
            cw = encode(g, rng.integers(0, 2, h.k)[None])[0]
            l = 4.0 * bipolar(cw)[None]
            beliefs, _ = neural_block(h, weights, l)
            oracle_bits = decode_bp_batch(h, l, BpConfig(max_iters=1))[0]
            assert np.array_equal(hard_decide(beliefs), oracle_bits)

    def test_scale_equivariance(self, hamming):
        # min-sum layers are positively homogeneous, so scaling the input
        # scales the beliefs
        rng = np.random.default_rng(3)
        w = rand_weights(hamming, rng)
        l = rng.normal(0, 2, (1, hamming.n))
        b1, _ = neural_block(hamming, w, l)
        b2, _ = neural_block(hamming, w, 3.5 * l)
        np.testing.assert_allclose(b2, 3.5 * b1, rtol=1e-12)

    def test_batch_matches_single(self, ldpc_49_24):
        rng = np.random.default_rng(4)
        w = rand_weights(ldpc_49_24, rng)
        batch = rng.normal(0, 3, (6, ldpc_49_24.n))
        bel, xh = neural_block(ldpc_49_24, w, batch)
        for i in range(6):
            b1, x1 = neural_block(ldpc_49_24, w, batch[i:i + 1])
            np.testing.assert_array_equal(bel[i], b1[0])
            np.testing.assert_array_equal(xh[i], x1[0])

    def test_block_on_a_workspace_allocates_less_than_one_belief_array(self, ldpc_121_60):
        h = ldpc_121_60
        rng = np.random.default_rng(11)
        w = rand_weights(h, rng)
        llrs = rng.normal(2.0, 2.0, (512, h.n))
        work = np.full(len(llrs) * (2 * h.n + walk_size(h)), np.nan)
        assert traced_peak(lambda: neural_block(h, w, llrs, work=work)) < llrs.nbytes
        beliefs, x_hat = neural_block(h, w, llrs, work=work)
        assert np.shares_memory(beliefs, work) and np.shares_memory(x_hat, work)
        want = neural_block(h, w, llrs)
        assert_same_bits(beliefs, want[0])
        assert_same_bits(x_hat, want[1])

    def test_weight_count_mismatch_rejected(self, hamming, ldpc_49_24):
        w = NeuralBlockWeights.zeros(ldpc_49_24)
        with pytest.raises(ValueError, match="cannot decode"):
            neural_block(hamming, w, np.zeros((1, hamming.n)))
        with pytest.raises(ValueError):
            NeuralBlockWeights(values=np.zeros(5), n=7, k=4)

    def test_rejects_word_and_wrong_width(self, hamming):
        w = NeuralBlockWeights.zeros(hamming)
        n = hamming.n
        for bad in (np.zeros(n), np.zeros((2, n + 1)), np.zeros((1, 2, n))):
            with pytest.raises(ValueError, match="beliefs"):
                neural_block(hamming, w, bad)
            # the training backward takes the same (B, n) batches only
            with pytest.raises(ValueError, match="LLR"):
                block_gradients(hamming, w.values, bad, np.zeros(bad.shape, dtype=np.uint8))


def random_llrs(rng, shape, ties):
    llrs = rng.normal(1.0, 3.0, shape)
    # whole numbers give equal magnitudes and zeros, the min-sum ties
    return np.round(llrs) if ties else llrs


class TestGroupedWalk:
    """The grouped layer walk against the one-check-at-a-time walk in
    tests/serial.py, on codes mixing single checks with merged runs."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 40), data=st.data(), seed=SEEDS, ties=st.booleans())
    def test_matches_serial_walk_and_tape_bit_for_bit(self, n, data, seed, ties):
        h = random_layered_code(seed, n, data.draw(st.integers(1, n - 1)))
        batch = data.draw(st.integers(1, 9))
        rng = np.random.default_rng(seed)
        w = rand_weights(h, rng, scale=0.5)
        llrs = random_llrs(rng, (batch, n), ties)
        beliefs, x_hat = neural_block(h, w, llrs)
        ref_beliefs, ref_x_hat = serial.neural_block(h, w, llrs)
        assert_same_bits(beliefs, ref_beliefs)
        assert_same_bits(x_hat, ref_x_hat)
        bits = rng.integers(0, 2, (batch, n)).astype(np.uint8)
        value, grads = block_gradients(h, w.values, llrs, bits)
        ref_value, ref_grads = tape.block_gradients(h, w.values, llrs, bits)
        assert_same_bits(value, ref_value)
        assert_same_bits(grads, ref_grads)


# check degrees in each regime of numpy's pairwise summation, which the
# backward's per-row sum of d adjoints reproduces: in order below 8 terms,
# 8 interleaved partial sums up to 128, halved above
DEGREES = st.integers(2, 7) | st.integers(8, 128) | st.integers(129, 140)


@st.composite
def wide_degree_codes(draw):
    """Parity-check matrices whose runs of equal-degree checks interleave
    degrees from 2 to 140; within a run, checks are mostly disjoint, so
    layer groups of several checks alternate with single checks."""
    runs = draw(st.lists(st.tuples(DEGREES, st.integers(1, 3)), min_size=1, max_size=5))
    degrees = [d for d, count in runs for _ in range(count)]
    low = max(max(degrees), len(degrees)) + 1
    n = draw(st.integers(low, low + 40))
    rng = np.random.default_rng(draw(SEEDS))
    rows = np.zeros((len(degrees), n), dtype=np.uint8)
    taken = set()
    for c, d in enumerate(degrees):
        free = np.setdiff1d(np.arange(n), sorted(taken))
        if c and d == degrees[c - 1] and free.size >= d and rng.random() < 0.7:
            cols = rng.choice(free, d, replace=False)
        else:
            cols = rng.choice(n, d, replace=False)
            taken = set()
        taken.update(cols.tolist())
        rows[c, cols] = 1
    return ParityCheckMatrix.from_rows(rows)


def tied_llrs(rng, shape):
    """LLRs with tied magnitudes, +-0 and mixed signs in most rows."""
    llrs = rng.normal(0.5, 3.0, shape)
    pick = rng.random(shape)
    llrs[pick < 0.3] = np.round(llrs[pick < 0.3])
    llrs[pick < 0.1] = rng.choice([0.0, -0.0, 1.0, -1.0], int((pick < 0.1).sum()))
    return llrs


class TestFramesAsColumns:
    """The frames-as-columns walk, kernel call and backward against the
    frame-major grouped walk of tests/serial.py, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(h=wide_degree_codes(), data=st.data(), seed=SEEDS)
    def test_matches_frame_major_oracle_on_random_codes(self, h, data, seed):
        rng = np.random.default_rng(seed)
        batch = data.draw(st.integers(1, 6))
        w = rand_weights(h, rng, scale=0.5)
        llrs = tied_llrs(rng, (batch, h.n))
        sched = build_schedule(data.draw(st.floats(-2.0, 6.0)), data.draw(st.integers(1, 6)),
                               0.5, h.rate)
        bits, beliefs, steps, ok = decode_vcdc_batch(h, w, sched, llrs)
        want = serial.decode_vcdc_batch(h, w, sched, llrs)
        assert np.array_equal(bits, want[0])
        assert_same_bits(beliefs, want[1])
        assert np.array_equal(steps, want[2]) and np.array_equal(ok, want[3])

        x_b = rng.integers(0, 2, (batch, h.n)).astype(np.uint8)
        value, grads = block_gradients(h, w.values, llrs, x_b)
        ref_value, ref_grads = serial.block_gradients(h, w.values, llrs, x_b)
        assert_same_bits(value, ref_value)
        assert_same_bits(grads, ref_grads)


    def test_back_to_back_calls_match_the_oracle(self, ldpc_121_60):
        # calls of every batch size and schedule length in turn, and one
        # batch valid at entry: a buffer read after a swap, or left over
        # from an earlier call, would show here
        h = ldpc_121_60
        rng = np.random.default_rng(12)
        w = rand_weights(h, rng, scale=0.3)
        g = derive_generator(h)
        cases = [(frames, levels) for frames in (1, 7, 512) for levels in (1, 2, 20)]
        for frames, levels in cases + [(7, 0)]:
            x = bipolar(encode(g, rng.integers(0, 2, (frames, h.k))))
            if levels:
                llrs = 2.0 * x + tied_llrs(rng, x.shape)
            else:
                llrs, levels = 8.0 * x, 20
            sched = build_schedule(2.0, levels, 0.5, h.rate)
            got = decode_vcdc_batch(h, w, sched, llrs)
            want = serial.decode_vcdc_batch(h, w, sched, llrs)
            assert np.array_equal(got[0], want[0])
            assert_same_bits(got[1], want[1])
            assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
        assert not got[2].any() and got[3].all()


VCDC_EXIT_CASES = {
    # (schedule levels, LLR scale or None for pure noise, frames valid at entry)
    "one level": (1, 4.0, "some"),
    "valid at entry": (20, 8.0, "all"),
    "never valid": (20, None, "none"),
}


@pytest.mark.parametrize("case", VCDC_EXIT_CASES)
def test_exit_edge_cases_match_the_frame_major_oracle(ldpc_121_60, case):
    h, (levels, scale, valid) = ldpc_121_60, VCDC_EXIT_CASES[case]
    rng = np.random.default_rng(31)
    w = rand_weights(h, rng, scale=0.3)
    x = bipolar(encode(derive_generator(h), rng.integers(0, 2, (48, h.k))))
    llrs = rng.normal(0.0, 1.0, x.shape)
    if scale is not None:
        llrs = scale * x + (valid == "some") * 2.0 * llrs
    sched = build_schedule(2.0, levels, 0.5, h.rate)
    bits, beliefs, steps, ok = decode_vcdc_batch(h, w, sched, llrs)
    want = serial.decode_vcdc_batch(h, w, sched, llrs)
    assert np.array_equal(bits, want[0])
    assert_same_bits(beliefs, want[1])
    assert np.array_equal(steps, want[2]) and np.array_equal(ok, want[3])
    if valid == "all":
        assert ok.all() and not steps.any()
    elif valid == "none":
        assert not ok.any() and (steps == levels - 1).all()
    else:
        assert 0 < ok.sum() < len(ok) and (steps == 0).all()


def assert_same_outputs(got, want):
    """Two decoders' (bits, beliefs, counts, flags) are equal, bit for bit."""
    assert np.array_equal(got[0], want[0])
    assert_same_bits(got[1], want[1])
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


def every_decoder(h, weights, sched, iters=5):
    """Callables decoding an LLR batch with BP sum-product, BP min-sum and
    the reverse process."""
    return [lambda l, v=v: decode_bp_batch(h, l, BpConfig(max_iters=iters, variant=v))
            for v in (SUM_PRODUCT, MIN_SUM)] + [lambda l: decode_vcdc_batch(h, weights, sched, l)]


def test_llrs_are_clamped_at_the_frame_boundary(ldpc_49_24):
    # finite LLRs near the float64 limit decode and train exactly as their
    # clamped values do; unclamped, the block's sums overflow
    h = ldpc_49_24
    rng = np.random.default_rng(17)
    llrs = 1.7e308 * rng.uniform(-1.0, 1.0, (24, h.n))
    clamped = np.clip(llrs, -LLR_CLAMP, LLR_CLAMP)
    assert (clamped != llrs).all()
    weights = rand_weights(h, rng)
    for decode in every_decoder(h, weights, build_schedule(4.0, 8, 0.5, h.rate)):
        got = decode(llrs)
        assert_same_outputs(got, decode(clamped))
        assert np.isfinite(got[1]).all()
    x_b = encode(derive_generator(h), rng.integers(0, 2, (24, h.k)))
    value, grads = block_gradients(h, weights.values, llrs, x_b)
    want_value, want_grads = block_gradients(h, weights.values, clamped, x_b)
    assert_same_bits(value, want_value)
    assert_same_bits(grads, want_grads)
    assert np.isfinite(value) and np.isfinite(grads).all()


@settings(max_examples=50, deadline=None)
@given(h=wide_degree_codes(), data=st.data(), seed=SEEDS)
def test_frames_decode_alike_in_any_batch(h, data, seed):
    # a frame's outputs do not depend on which frames share its batch, or
    # on their order: early exit and compaction keep frames independent
    rng = np.random.default_rng(seed)
    frames = data.draw(st.integers(2, 30))
    llrs = tied_llrs(rng, (frames, h.n))
    # frames leaning to the all-zero codeword stop early, the others late
    llrs[rng.random(frames) < 0.4] += 4.0
    order = data.draw(st.permutations(range(frames)))
    subset = np.array(order[:data.draw(st.integers(1, frames))])
    sched = build_schedule(data.draw(st.floats(-2.0, 6.0)), data.draw(st.integers(1, 6)),
                           0.5, h.rate)
    for decode in every_decoder(h, rand_weights(h, rng, scale=0.5), sched,
                                iters=data.draw(st.integers(1, 6))):
        whole = decode(llrs)
        assert_same_outputs(decode(llrs[subset]), [out[subset] for out in whole])


class TestDecodeVcdc:
    def test_noiseless_input_costs_zero_steps(self, hamming):
        g = derive_generator(hamming)
        cw = encode(g, np.array([1, 1, 0, 0], dtype=np.uint8)[None])[0]
        sched = build_schedule(4.0, 20, 0.5, hamming.rate)
        bits, _, steps, ok = decode_vcdc_batch(hamming, NeuralBlockWeights.zeros(hamming),
                                               sched, 10.0 * bipolar(cw)[None])
        assert steps[0] == 0
        assert ok[0] and np.array_equal(bits[0], cw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_llrs_rejected(self, hamming, bad):
        sched = build_schedule(4.0, 5, 0.5, hamming.rate)
        llrs = np.ones((2, hamming.n))
        llrs[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            decode_vcdc_batch(hamming, NeuralBlockWeights.zeros(hamming), sched, llrs)

    def test_zero_weights_reduce_to_channel_hard_decision(self, ldpc_49_24):
        rng = np.random.default_rng(5)
        sched = build_schedule(4.0, 10, 0.5, ldpc_49_24.rate)
        weights = NeuralBlockWeights.zeros(ldpc_49_24)
        for _ in range(10):
            l = rng.normal(0, 3, (1, ldpc_49_24.n))
            bits = decode_vcdc_batch(ldpc_49_24, weights, sched, l)[0]
            assert np.array_equal(bits, hard_decide(l))

    def test_early_stopping_returns_valid_codewords(self, polar_64_32):
        rng = np.random.default_rng(6)
        h = polar_64_32
        g = derive_generator(h)
        weights = rand_weights(h, rng, scale=0.3)
        sched = build_schedule(5.0, 20, 0.5, h.rate)
        cw = encode(g, rng.integers(0, 2, (64, h.k)))
        llr = 4.0 * bipolar(cw) + rng.normal(0, 2.0, cw.shape)
        bits, _, steps, ok = decode_vcdc_batch(h, weights, sched, llr)
        assert ok.any()
        for i in np.flatnonzero(ok):
            _, nerr = syndrome(h, bits[i])
            assert nerr == 0
        assert (steps <= len(sched) - 1).all()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 40), data=st.data(), seed=SEEDS, ties=st.booleans(),
           steps=st.integers(1, 8), csnr=st.floats(-2.0, 8.0))
    def test_steps_in_range_beliefs_finite_flag_honest(self, n, data, seed, ties, steps, csnr):
        h = random_layered_code(seed, n, data.draw(st.integers(1, n - 1)))
        batch = data.draw(st.integers(1, 16))
        rng = np.random.default_rng(seed)
        sched = build_schedule(csnr, steps, 0.5, h.rate)
        bits, beliefs, used, ok = decode_vcdc_batch(
            h, rand_weights(h, rng, scale=0.5), sched, random_llrs(rng, (batch, n), ties))
        assert ((used >= 0) & (used <= steps - 1)).all()
        assert np.isfinite(beliefs).all()
        np.testing.assert_array_equal(bits, hard_decide(beliefs))
        # flagged exactly when the returned word satisfies every check
        np.testing.assert_array_equal(ok, syndrome(h, bits)[1] == 0)

    def test_syndrome_flag_matches_parity_errors(self, hamming):
        rng = np.random.default_rng(7)
        sched = build_schedule(4.0, 5, 0.5, hamming.rate)
        w = rand_weights(hamming, rng)
        for _ in range(20):
            l = rng.normal(0, 2, (1, hamming.n))
            bits, _, _, ok = decode_vcdc_batch(hamming, w, sched, l)
            assert ok[0] == (syndrome(hamming, bits[0])[1] == 0)

    def test_batch_matches_single(self, ldpc_49_24):
        rng = np.random.default_rng(8)
        h = ldpc_49_24
        w = rand_weights(h, rng)
        sched = build_schedule(4.0, 8, 0.5, h.rate)
        llrs = rng.normal(0.8, 2.5, (12, h.n))
        bits, beliefs, steps, ok = decode_vcdc_batch(h, w, sched, llrs)
        for i in range(12):
            # a batch of one: early-exit compaction must keep frames independent
            b1, bel1, steps1, ok1 = decode_vcdc_batch(h, w, sched, llrs[i:i + 1])
            assert np.array_equal(b1[0], bits[i])
            assert_same_bits(bel1[0], beliefs[i])
            assert steps1[0] == steps[i]
            assert ok1[0] == ok[i]

    def test_single_level_schedule_runs_one_block(self, hamming):
        rng = np.random.default_rng(9)
        w = rand_weights(hamming, rng)
        sched = build_schedule(4.0, 1, 0.5, hamming.rate)
        l = rng.normal(0, 2, (1, hamming.n))
        bits, beliefs, steps, _ = decode_vcdc_batch(hamming, w, sched, l)
        block_beliefs, _ = neural_block(hamming, w, l)
        if not np.array_equal(hard_decide(l), bits):
            np.testing.assert_allclose(beliefs, block_beliefs, atol=1e-12)
        assert steps[0] == 0


    def test_decode_allocates_one_workspace(self, ldpc_121_60):
        # the outputs, the running set's two (n, B) slabs, the block's beliefs,
        # estimate and walk, and the exit test's temporaries come to about
        # 9.2 LLR arrays; one more (n, B) float64 array breaks the bound
        h, frames = ldpc_121_60, 512
        rng = np.random.default_rng(12)
        w = noise_scale(4.0, h.k, h.n)
        cw = encode(derive_generator(h), rng.integers(0, 2, (frames, h.k)))
        llrs = to_llr(transmit(bipolar(cw), w, rng), w)
        weights = NeuralBlockWeights(values=rng.normal(0.3, 0.1, h.num_checks), n=h.n, k=h.k)
        sched = build_schedule(4.0, 20, 0.5, h.rate)
        peak = traced_peak(lambda: decode_vcdc_batch(h, weights, sched, llrs))
        assert peak < 9.5 * llrs.nbytes

class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, ldpc_121_60):
        rng = np.random.default_rng(10)
        w = rand_weights(ldpc_121_60, rng)
        restored = load_checkpoint(save_checkpoint(w))
        assert (restored.n, restored.k) == (w.n, w.k)
        assert np.array_equal(restored.values, w.values)

    def test_121_60_checkpoint_has_61_weights(self, ldpc_121_60):
        w = NeuralBlockWeights.zeros(ldpc_121_60)
        data = save_checkpoint(w)
        header = data.decode().splitlines()[0]
        assert header == "VCDC1 121 60 61"
        assert load_checkpoint(data).values.size == 61

    def test_tampered_count_rejected(self, hamming):
        data = save_checkpoint(NeuralBlockWeights.zeros(hamming)).decode()
        with pytest.raises(CheckpointError):
            load_checkpoint(data.replace("VCDC1 7 4 3", "VCDC1 7 4 2"))
        with pytest.raises(CheckpointError):
            load_checkpoint(data.replace("VCDC1", "VCDC9"))

    def test_missing_weight_lines_rejected(self, hamming):
        lines = save_checkpoint(NeuralBlockWeights.zeros(hamming)).decode().splitlines()
        with pytest.raises(CheckpointError, match="weight lines"):
            load_checkpoint("\n".join(lines[:-1]) + "\n")

    def test_non_finite_weights_rejected(self, hamming):
        data = save_checkpoint(NeuralBlockWeights.zeros(hamming)).decode()
        with pytest.raises(CheckpointError):
            load_checkpoint(data.replace("0\n", "nan\n", 1))

    def test_model_size_is_four_bytes_per_weight_plus_header(self, ldpc_121_60):
        w = NeuralBlockWeights.zeros(ldpc_121_60)
        assert model_size_bytes(w) == 4 * 61 + len("VCDC1 121 60 61\n")
