import numpy as np
import pytest

from vcdc import codes, denoiser
from vcdc.bench import channel_frames
from vcdc.channel import noise_scale
from vcdc import train as vtrain
from vcdc.denoiser import NeuralBlockWeights
from vcdc.bp import minsum_backward
from vcdc.train import (Adam, TrainConfig, TrainingDiverged, block_gradients, train,
                        write_loss_curve)

import serial
import tape
from analysis import loss
from conftest import (assert_same_bits, bundled_codes, numeric_grad, random_layered_code,
                      tied_rows, traced_peak)
from tape import Var, bce_with_logits, minsum_extrinsic


class TestLoss:
    def test_clamped_correct_signs_nearly_zero(self):
        bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        beliefs = 30.0 * (1.0 - 2.0 * bits)
        assert loss(beliefs, bits) < 1e-6

    def test_zero_beliefs_give_ln2_per_bit(self):
        assert loss(np.zeros(5), np.zeros(5, dtype=np.uint8)) == pytest.approx(np.log(2))

    def test_flipping_one_sign_costs_its_magnitude_over_n(self):
        # softplus(b) - softplus(-b) = b exactly, so the penalty is b/n
        n, b = 7, 12.0
        bits = np.zeros(n, dtype=np.uint8)
        good = np.full(n, b)
        bad = good.copy()
        bad[3] = -b
        assert loss(bad, bits) - loss(good, bits) == pytest.approx(b / n, rel=1e-9)

    def test_tape_loss_matches_plain_and_finite_differences(self):
        rng = np.random.default_rng(0)
        beliefs0 = rng.normal(0, 3, (2, 5))
        bits = rng.integers(0, 2, (2, 5)).astype(np.uint8)
        node = Var(beliefs0)
        out = bce_with_logits(node, bits)
        assert float(out.value) == pytest.approx(loss(beliefs0, bits), rel=1e-12)
        out.backward()
        fd = numeric_grad(lambda b: loss(b, bits), beliefs0)
        np.testing.assert_allclose(node.grad, fd, atol=1e-6)


class TestMinsumOp:
    def test_forward_matches_denoiser_terms(self):
        rng = np.random.default_rng(1)
        xc0 = rng.normal(0, 2, (4, 5))
        node = minsum_extrinsic(Var(xc0))
        np.testing.assert_array_equal(node.value, serial.check_minsum_terms(xc0)[0])

    def test_gradient_matches_finite_differences_away_from_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            xc0 = rng.normal(0, 2, (3, 4))
            g0 = rng.normal(size=(3, 4))
            u, routing = serial.kernel(xc0, route=True)
            grad = minsum_backward(g0, u, routing)
            # minsum_backward is the gradient of <g0, u(xc)>
            fd = numeric_grad(lambda xv: float((serial.kernel(xv) * g0).sum()), xc0)
            np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_tie_broken_toward_lowest_index(self):
        # both magnitudes equal; the subgradient must route to index 0
        xc0 = np.array([[2.0, 2.0, 5.0]])
        u, routing = serial.kernel(xc0, route=True)
        grad = minsum_backward(np.array([[0.0, 0.0, 1.0]]), u, routing)
        # outgoing edge 2 uses min over {|x0|, |x1|} = attained at index 0
        np.testing.assert_allclose(grad, [[1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_routing_outlives_the_beliefs_it_reads(self, d):
        # the walk's layout, (g B, d) rows of a (d, g, B) block, with ties
        # and zeros of either sign; the routed kernel builds the routing
        # before the walk overwrites the block, as in block_gradients
        rng = np.random.default_rng(10 + d)
        block = np.ascontiguousarray(tied_rows(rng, 3 * 40, d).T).reshape(d, 3, 40)
        xc = block.reshape(d, -1).T
        ref_xc = xc.copy()
        u, routing = serial.kernel(xc, route=True)
        block.fill(np.nan)
        g = rng.normal(size=u.shape)
        g.flat[::5], g.flat[2::5] = 0.0, -0.0
        assert_same_bits(minsum_backward(g, u, routing),
                         serial.minsum_backward(g, serial.check_minsum_terms(ref_xc)))


# (seed, n, m) of random codes whose layer groups mix single checks and runs,
# the last with more checks than variables
RANDOM_CODES = {"random_0": (0, 30, 20), "random_1": (1, 40, 30), "random_2": (2, 25, 12),
                "random_3": (3, 16, 30)}


class TestBlockGradients:
    @pytest.mark.parametrize("name", bundled_codes() + sorted(RANDOM_CODES))
    def test_matches_tape_bit_for_bit(self, name):
        h = random_layered_code(*RANDOM_CODES[name]) if name in RANDOM_CODES else codes.load(name)
        rng = np.random.default_rng(len(name))
        for batch in (1, 5, 32):
            wvals = rng.normal(0, 0.5, h.num_checks)
            llr = rng.normal(1.0, 3.0, (batch, h.n))
            # zeros of either sign, which only a comparison of bits tells apart
            wvals[1::5], wvals[3::5] = 0.0, -0.0
            llr.flat[1::7], llr.flat[4::7] = 0.0, -0.0
            bits = rng.integers(0, 2, (batch, h.n)).astype(np.uint8)
            value, grads = block_gradients(h, wvals, llr, bits)
            ref_value, ref_grads = tape.block_gradients(h, wvals, llr, bits)
            assert_same_bits(value, ref_value)
            assert_same_bits(grads, ref_grads)

    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_weight_count_rejected(self, hamming, count):
        llr = np.zeros((1, hamming.n))
        with pytest.raises(ValueError, match=f"expected 3 layer weights, got {count}"):
            block_gradients(hamming, np.zeros(count), llr, np.zeros(llr.shape, dtype=np.uint8))

    def test_codeword_that_is_not_bits_rejected(self, hamming):
        # the loss once read a 2 as the symbol -3 and returned a value
        llr = np.ones((1, hamming.n))
        x_b = np.zeros(llr.shape, dtype=np.uint8)
        x_b[0, 3] = 2
        with pytest.raises(ValueError, match="codeword entries must be 0 or 1"):
            block_gradients(hamming, np.zeros(hamming.num_checks), llr, x_b)

    def test_full_block_matches_finite_differences(self, hamming):
        rng = np.random.default_rng(3)
        for _ in range(20):
            wvals = rng.normal(0, 0.5, hamming.num_checks)
            llr = rng.normal(0, 3, (2, hamming.n))
            bits = rng.integers(0, 2, (2, hamming.n)).astype(np.uint8)

            def f(w):
                weights = NeuralBlockWeights(values=w, n=hamming.n, k=hamming.k)
                bel, _ = serial.block(hamming, weights, llr)
                return loss(bel, bits)

            value, grads = block_gradients(hamming, wvals, llr, bits)
            assert value == pytest.approx(f(wvals), rel=1e-12)
            fd = numeric_grad(f, wvals, eps=1e-5)
            np.testing.assert_allclose(grads, fd, rtol=1e-4, atol=1e-7)

    def test_allocates_less_than_25_belief_arrays(self, polar_64_32):
        # polar_64_32 at B = 256, in (n, B) float64 arrays: the running set's
        # two slabs and its outputs (3.1), the walk with every group's
        # messages (11.1: 712 entries a frame), the routing of 31 groups
        # (1.9) and the loss, its adjoint and their temporaries come to
        # 22.5; a walk that also kept every group's gathered beliefs (8
        # arrays more on polar's 576 edges) traced 30.4
        h = polar_64_32
        rng = np.random.default_rng(9)
        code, llrs = channel_frames(h, rng.integers(0, 2, (256, h.k)),
                                    noise_scale(rng.uniform(4.0, 6.0, 256), h.k, h.n)[:, None],
                                    rng)
        w = rng.normal(0.3, 0.1, h.num_checks)
        assert traced_peak(lambda: block_gradients(h, w, llrs, code)) < 25 * llrs.nbytes

    def test_symmetric_input_gives_equal_layer_gradients(self, hamming):
        # at zero weights every layer sees the same constant beliefs, so all
        # layer gradients coincide (checks have equal degree)
        llr = np.full((1, hamming.n), 2.0)
        bits = np.zeros((1, hamming.n), dtype=np.uint8)
        _, grads = block_gradients(hamming, np.zeros(hamming.num_checks), llr, bits)
        np.testing.assert_allclose(grads, grads[0], rtol=1e-12)
        fd = numeric_grad(
            lambda w: loss(serial.block(
                hamming, NeuralBlockWeights(values=w, n=hamming.n, k=hamming.k),
                llr)[0], bits),
            np.zeros(hamming.num_checks), eps=1e-6)
        np.testing.assert_allclose(grads, fd, atol=1e-6)


class TestAdam:
    def test_three_steps_match_hand_computed_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        adam = Adam(lr, 2)
        params = np.array([1.0, 2.0])
        grad_seq = [np.array([0.1, -0.2]), np.array([0.3, 0.1]), np.array([-0.1, 0.2])]
        m = np.zeros(2)
        v = np.zeros(2)
        expected = params.copy()
        for t, g in enumerate(grad_seq, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)
            params = adam.step(params, g)
            np.testing.assert_allclose(params, expected, rtol=1e-14)


class TestTrainLoop:
    def test_short_run_reduces_smoothed_loss(self, ldpc_49_24):
        cfg = TrainConfig(iterations=400, batch_size=64, seed=1)
        result = train(ldpc_49_24, cfg)
        assert result.smoothed_loss[-1] < result.smoothed_loss[100]
        assert result.weights.values.size == ldpc_49_24.num_checks

    def test_zero_noise_data_keeps_weights_near_zero(self, hamming):
        # at 60 dB the LLRs are about 2e6, so loss and gradients are exactly 0
        cfg = TrainConfig(iterations=50, batch_size=32, seed=2,
                          csnr_low=60.0, csnr_high=60.0)
        result = train(hamming, cfg)
        assert result.raw_loss[0] < 1e-6
        assert np.abs(result.weights.values).max() < 1e-2

    def test_seeded_determinism_bit_exact(self, hamming):
        cfg = TrainConfig(iterations=40, batch_size=16, seed=3)
        r1 = train(hamming, cfg)
        r2 = train(hamming, cfg)
        assert np.array_equal(r1.raw_loss, r2.raw_loss)
        assert np.array_equal(r1.weights.values, r2.weights.values)

    def test_all_zero_codeword_mode(self, hamming):
        cfg = TrainConfig(iterations=10, batch_size=8, seed=4, all_zero=True)
        result = train(hamming, cfg)
        assert np.isfinite(result.raw_loss).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError, match="^csnr_high 4.0 is below csnr_low 6.0$"):
            TrainConfig(csnr_low=6.0, csnr_high=4.0)
        # a non-finite value would reach the CSNR draw or the first Adam step
        for key in ("learning_rate", "csnr_low", "csnr_high"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=key):
                    TrainConfig(**{key: bad})
        for bad in (-1.0, 0.0):
            with pytest.raises(ValueError, match="learning_rate must be positive"):
                TrainConfig(learning_rate=bad)
        # a count that is not an integer would fail inside numpy
        for key in ("batch_size", "iterations"):
            for bad in (2.5, True, 256.0, "256"):
                with pytest.raises(ValueError, match=key):
                    TrainConfig(**{key: bad})

    def test_out_of_range_csnr_bound_rejected_before_any_iteration(self, hamming, monkeypatch):
        # the draws once reached past the channel's range only mid-run, after
        # the earlier iterations' work, and the error named the drawn CSNR
        steps = []
        step = Adam.step

        def counted_step(self, params, grads):
            steps.append(params)
            return step(self, params, grads)

        monkeypatch.setattr(Adam, "step", counted_step)
        cfg = TrainConfig(iterations=50, batch_size=4, csnr_low=0.0, csnr_high=4000.0)
        with pytest.raises(ValueError, match="^CSNR 4000 dB is out of range"):
            train(hamming, cfg)
        assert steps == []

    def test_divergence_guard_aborts_on_non_finite_loss(self, hamming):
        # an absurd learning rate overflows the beliefs within two steps
        cfg = TrainConfig(iterations=20, batch_size=16, seed=0, learning_rate=1e200)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train(hamming, cfg)

    def test_divergence_guard_aborts_above_ln_2(self, hamming, monkeypatch):
        # a finite loss that ends above ln 2 is a diverged run; exactly ln 2,
        # the loss of all-zero beliefs, is not
        cfg = TrainConfig(iterations=1, batch_size=8, seed=0)
        for value, diverged in ((np.nextafter(np.log(2), 1.0), True), (np.log(2), False)):
            monkeypatch.setattr(vtrain, "block_gradients",
                                lambda *args: (value, np.zeros(hamming.num_checks)))
            if diverged:
                with pytest.raises(TrainingDiverged, match="exceeds ln 2"):
                    train(hamming, cfg)
            else:
                assert train(hamming, cfg).final_smoothed() == np.log(2)

    @pytest.mark.parametrize("name", ["polar_64_32", "ldpc_121_60"])
    def test_backward_runs_through_train_s_names_for_it(self, name, monkeypatch):
        # train calls the min-sum backward through its own module's name and
        # the routed kernel through the walk's, where a caller's wrapper sees
        # every call: the kernel once per layer group and iteration, the
        # backward but for the first group, whose input adjoint nothing reads
        h = codes.load(name)
        calls = {"check_minsum_terms": 0, "minsum_backward": 0}

        def counting(f):
            def counted(*args, **kwargs):
                # a kernel call counts only in its routed form
                calls[f.__name__] += kwargs.get("route", True)
                return f(*args, **kwargs)
            return counted

        for module, attr in ((denoiser, "check_minsum_terms"), (vtrain, "minsum_backward")):
            monkeypatch.setattr(module, attr, counting(getattr(module, attr)))
        iterations = 2
        train(h, TrainConfig(iterations=iterations, batch_size=16, seed=0))
        groups = len(h.layer_groups)
        assert calls == {"check_minsum_terms": groups * iterations,
                         "minsum_backward": (groups - 1) * iterations}

    def test_loss_curve_csv_format(self, hamming, tmp_path):
        result = train(hamming, TrainConfig(iterations=5, batch_size=8, seed=5))
        path = tmp_path / "loss.csv"
        write_loss_curve(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,raw_loss,smoothed_loss"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(result.raw_loss[0], rel=1e-9)
