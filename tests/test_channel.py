import numpy as np
import pytest

from vcdc.bp import LLR_CLAMP
from vcdc.channel import hard_decide, noise_scale, soft_decide, to_llr, transmit

from conftest import assert_same_bits

# frozen with a 40-digit mpmath evaluation of 1/sqrt(2 (k/n) 10^(s/10))
W_4DB_121_60 = 0.633580879058
W_6DB_121_60 = 0.503271181217


class TestNoiseScale:
    def test_zero_db_rate_half(self):
        assert noise_scale(0.0, 1, 2) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_values_121_60(self):
        assert noise_scale(4.0, 60, 121) == pytest.approx(W_4DB_121_60, abs=1e-9)
        assert noise_scale(6.0, 60, 121) == pytest.approx(W_6DB_121_60, abs=1e-9)

    def test_monotone_decreasing_in_csnr(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 500))
            k = int(rng.integers(1, n))
            s1, s2 = sorted(rng.uniform(-5, 15, 2))
            if s1 == s2:
                continue
            assert noise_scale(s1, k, n) > noise_scale(s2, k, n)

    @pytest.mark.parametrize("csnr", [4000.0, -4000.0, 3085.0, -3085.0, np.nan,
                                      np.array([5.0, 4000.0]), np.array([[5.0], [-4000.0]])])
    def test_out_of_range_csnr_named_in_one_value_error(self, csnr):
        # 10 ** 400 overflows Python's float power, which raised OverflowError;
        # near +-3085 dB the scale is finite but w^2 or 2/w^2 is not
        first_bad = np.ravel(csnr)[-1]
        with pytest.raises(ValueError, match=f"^CSNR {first_bad:g} dB is out of range"):
            noise_scale(csnr, 4, 7)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            noise_scale(4.0, 0, 10)
        with pytest.raises(ValueError):
            noise_scale(4.0, 10, 10)
        with pytest.raises(ValueError):
            noise_scale(4.0, 12, 10)


class TestTransmit:
    def test_vanishing_noise_limit(self):
        x = np.array([1.0, -1.0, 1.0])
        y = transmit(x, 1e-12, np.random.default_rng(0))
        np.testing.assert_allclose(y, x, atol=1e-9)

    def test_noise_mean_and_variance(self):
        rng = np.random.default_rng(1)
        x = np.ones(10**6)
        w = 0.5
        noise = transmit(x, w, rng) - x
        assert abs(noise.mean() / w) < 5e-3  # 5 sigma / 1000
        assert noise.var() == pytest.approx(0.25, rel=0.01)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            transmit(np.ones(3), 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            transmit(np.ones((2, 3)), np.array([[0.5], [0.0]]), np.random.default_rng(0))
        with pytest.raises(ValueError):
            to_llr(np.ones((2, 3)), np.array([[0.5], [-1.0]]))
        # NaN passes a "w <= 0" test; NaN and inf scales are rejected too
        for bad in (np.nan, np.inf, np.array([[0.5], [np.nan]]), np.array([[np.inf], [0.5]])):
            with pytest.raises(ValueError, match="finite"):
                transmit(np.ones((2, 3)), bad, np.random.default_rng(0))
            with pytest.raises(ValueError, match="finite"):
                to_llr(np.ones((2, 3)), bad)

    def test_rejection_names_the_first_bad_scale(self):
        w = np.full((256, 1), 0.5)
        w[[7, 9], 0] = np.inf, 0.0
        with pytest.raises(ValueError, match=r"^noise scale must be finite and positive, got inf$"):
            transmit(np.ones((256, 3)), w, np.random.default_rng(0))

    def test_per_frame_scales_match_scalar_calls(self):
        # one scale per frame as a (B, 1) column: the same draws, frame by
        # frame, as scalar calls on a generator in the same state
        w = np.array([0.4, 0.9])
        x = np.ones((2, 5))
        y = transmit(x, w[:, None], np.random.default_rng(3))
        noise = np.random.default_rng(3).standard_normal((2, 5))
        for b in range(2):
            np.testing.assert_array_equal(y[b], x[b] + w[b] * noise[b])
            np.testing.assert_array_equal(to_llr(y, w[:, None])[b], to_llr(y[b], w[b]))

    def test_seeded_reproducibility(self):
        x = np.ones(1000)
        y1 = transmit(x, 0.7, np.random.default_rng(42))
        y2 = transmit(x, 0.7, np.random.default_rng(42))
        assert np.array_equal(y1, y2)


class TestToLlr:
    def test_zero_received_is_zero(self):
        assert to_llr(np.zeros(3), 0.8).tolist() == [0.0, 0.0, 0.0]

    def test_unit_cases(self):
        assert to_llr(np.array([1.0]), np.sqrt(2.0))[0] == pytest.approx(1.0)
        # scalar oracle: 2 * 0.5 / w4^2 with the exact (121,60) scale at 4 dB
        val = to_llr(np.array([0.5]), noise_scale(4.0, 60, 121))[0]
        assert val == pytest.approx(2.49112703951, abs=1e-9)

    def test_is_the_unclamped_law(self):
        # 2y/w^2 bit for bit, beyond +-LLR_CLAMP too: the LLRs are clamped
        # where they enter the decoders and training, at bp.RunningSet
        rng = np.random.default_rng(11)
        y = rng.normal(0.0, 1.0, (4, 6)) * 10.0 ** rng.uniform(-3.0, 12.0, (4, 6))
        for w in (1e-3, np.array([[1e-3], [0.5], [2e-5], [1.0]])):
            want = 2.0 * y / w**2
            assert (np.abs(want) > LLR_CLAMP).any()
            assert_same_bits(to_llr(y, w), want)


class TestHardDecide:
    def test_signs(self):
        assert hard_decide(np.array([3.2, -0.1])).tolist() == [0, 1]

    def test_zero_tie_resolves_to_bit_zero(self):
        assert hard_decide(np.array([0.0])).tolist() == [0]

    def test_signed_zeros_and_infinities(self):
        bits = hard_decide(np.array([0.0, -0.0, np.inf, -np.inf]))
        assert bits.dtype == np.uint8 and bits.tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("llr, bit", [(0.0, 0), (-0.0, 0), (np.inf, 0), (-np.inf, 1),
                                          (-2.5, 1), (np.float64(-0.0), 0)])
    def test_scalar_gives_a_uint8_scalar(self, llr, bit):
        out = hard_decide(llr)
        assert type(out) is np.uint8 and out == bit

    def test_keeps_the_layout_of_its_llrs(self):
        # frames as columns: an F-ordered (B, n) view of an (n, B) array
        llr = np.random.default_rng(5).normal(size=(7, 3)).T
        bits = hard_decide(llr)
        assert bits.dtype == np.uint8 and bits.flags.f_contiguous
        assert np.array_equal(bits, (llr < 0).astype(np.uint8))

    def test_recovers_scaled_bipolar(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        l = (1.0 - 2.0 * bits) * 1e6
        assert np.array_equal(hard_decide(l), bits)


class TestSoftDecide:
    # signed zeros and infinities, NaN, the subnormals at either end, the
    # least normal and the greatest finite value, and values where tanh
    # saturates, of both signs
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
               -2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 40.0, -40.0, 1e300, -1e300]

    def llrs(self):
        # the special values and normals spread over every binary exponent
        rng = np.random.default_rng(14)
        spread = np.ldexp(rng.uniform(-1.0, 1.0, 4096), rng.integers(-1074, 1024, 4096))
        return np.concatenate([self.SPECIAL, spread, rng.normal(0.0, 20.0, 4096)])

    def test_is_tanh_of_half_bit_for_bit_into_out(self):
        llr = self.llrs()
        out = np.full_like(llr, 7.0)
        assert soft_decide(llr, out) is out
        assert_same_bits(out, np.tanh(llr / 2.0))
        assert_same_bits(llr, self.llrs())

    def test_works_in_place(self):
        llr = self.llrs()
        assert soft_decide(llr, llr) is llr
        assert_same_bits(llr, np.tanh(self.llrs() / 2.0))


class TestLlrStatistics:
    @pytest.mark.parametrize("w", [0.5, 0.6336, 1.0])
    def test_mean_and_variance_match_channel_law(self, w):
        rng = np.random.default_rng(7)
        nsamples = 10**6
        x = 1.0  # fixed transmitted symbol
        y = transmit(np.full(nsamples, x), w, rng)
        l = to_llr(y, w)
        mean_target, var_target = 2.0 * x / w**2, 4.0 / w**2
        se_mean = np.sqrt(var_target / nsamples)
        assert abs(l.mean() - mean_target) < 3 * se_mean
        se_var = var_target * np.sqrt(2.0 / nsamples)
        assert abs(l.var() - var_target) < 3 * se_var
