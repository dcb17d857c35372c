import warnings

import numpy as np
import pytest

from vcdc.channel import noise_scale
from vcdc.diffusion import DiffusionSchedule, build_schedule, reverse_step

from analysis import TransitionParams, forward_transition, sigmas, vsnr
from conftest import assert_same_bits

RATE_121_60 = 60 / 121


class TestBuildSchedule:
    def test_single_level_equals_observed(self):
        sched = build_schedule(4.0, 1, 0.5, 0.5)
        assert sched.csnr_levels.tolist() == [4.0]

    def test_default_shape_t20(self):
        sched = build_schedule(4.0, 20, 0.5, RATE_121_60)
        assert len(sched) == 20
        assert sched.csnr_levels[0] == pytest.approx(13.5)
        assert sched.csnr_levels[-1] == pytest.approx(4.0)
        assert (np.diff(sched.csnr_levels) < 0).all()
        assert (np.diff(vsnr(sched)) < 0).all()

    def test_adjacent_transitions_have_positive_variance(self):
        sched = build_schedule(4.0, 20, 0.5, RATE_121_60)
        for t in range(1, len(sched)):
            assert forward_transition(sched, t - 1, t).variance > 0

    def test_caller_levels_stay_writable(self):
        levels = np.array([5.0, 4.5, 4.0])
        sched = DiffusionSchedule(csnr_levels=levels, rate=0.5)
        levels[0] = 7.0
        assert sched.csnr_levels[0] == 5.0
        assert not sched.csnr_levels.flags.writeable

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_schedule(4.0, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            build_schedule(4.0, 5, -0.1, 0.5)
        with pytest.raises(ValueError):
            DiffusionSchedule(csnr_levels=np.array([4.0, 5.0]), rate=0.5)

    def test_rejects_no_levels(self):
        with pytest.raises(ValueError, match="at least one CSNR level"):
            DiffusionSchedule(csnr_levels=np.array([]), rate=0.5)

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match=r"rate must be in \(0, 1\)"):
            DiffusionSchedule(csnr_levels=np.array([5.0, 4.0]), rate=rate)

    @pytest.mark.parametrize("bad", [2.5, True, "5", np.float64(3.0)])
    def test_rejects_steps_that_are_not_integers(self, bad):
        # 2.5 would give levels 4.75, 4.25, 3.75 at an observed 4 dB, so the
        # noisiest level would no longer be the channel; True, one level
        with pytest.raises(ValueError, match="timesteps must be an integer"):
            build_schedule(4.0, bad, 0.5, 0.5)

    def test_accepts_numpy_integer_steps(self):
        sched = build_schedule(4.0, np.int64(3), 0.5, 0.5)
        assert sched.csnr_levels.tolist() == [5.0, 4.5, 4.0]

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_levels(self, bad, steps):
        # checked before the order: one NaN level passes an order check, and
        # among several levels NaN and inf would be reported as out of order
        levels = [6.0, bad, 4.0] if steps == 3 else [bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                build_schedule(bad, steps, 0.5, 0.5)
            with pytest.raises(ValueError, match="finite"):
                DiffusionSchedule(csnr_levels=np.array(levels), rate=0.5)

    @pytest.mark.parametrize("levels", [[4000.0, 3999.0, 3998.0], [4000.0], [-4000.0],
                                        [-3100.0, -3100.5], [6.0, 5.0, -4000.0]])
    def test_rejects_levels_beyond_float_range(self, levels):
        # 10 ** (4000 / 10) overflows, so alpha is inf and a reverse step's
        # gain inf - inf is NaN; far below 0 dB alpha underflows to zero.
        # The error names the first such level; build_schedule's levels, 0.5
        # dB apart, all lie beyond the range, so its first level is named
        first_bad = next(s for s in levels if abs(s) > 3000)
        top = levels[-1] + 0.5 * (len(levels) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^CSNR {first_bad:g} dB is out of range"):
                DiffusionSchedule(csnr_levels=np.array(levels), rate=0.5)
            with pytest.raises(ValueError, match=f"^CSNR {top:g} dB is out of range"):
                build_schedule(levels[-1], len(levels), 0.5, 0.5)

    def test_alpha_sigma_match_channel_law(self):
        sched = build_schedule(4.0, 8, 0.75, RATE_121_60)
        # the level array, not each level: Python's scalar power, which a
        # float CSNR takes, can differ from numpy's in the last bit
        w = noise_scale(sched.csnr_levels, 60, 121)
        assert_same_bits(sched.alphas, 2.0 / w**2)
        for alpha, sigma, w_s in zip(sched.alphas, sigmas(sched), w):
            assert sigma == pytest.approx(2.0 / w_s, rel=1e-12)
            assert alpha**2 / sigma**2 == pytest.approx(1.0 / w_s**2, rel=1e-12)

    def test_takes_the_channels_range_rule_and_alphas(self):
        # random rates and level grids spanning +-3090 dB, two thirds of them
        # about the float range's edges (+3077 to +3083 dB, -3052 to -3086 dB
        # by the rate) with steps down to 1e-12 dB: the schedule accepts
        # exactly the levels the channel accepts, which are the levels whose
        # alpha, by the expression the schedule once evaluated itself, is
        # finite and positive; and its alphas keep that expression bit for bit
        rng = np.random.default_rng(24)
        mixed = 0
        for i in range(400):
            n = int(rng.integers(2, 2000))
            k = int(rng.integers(1, n))
            rate = k / n
            steps = int(rng.integers(1, 40))
            step_db = 10.0 ** rng.uniform(-12, 2)
            observed = rng.uniform(*[(-3090, 3090), (3070, 3090), (-3090, -3050)][i % 3])
            # build_schedule's levels
            levels = observed + step_db * np.arange(steps - 1, -1, -1, dtype=np.float64)
            with np.errstate(all="ignore"):
                oracle = 2.0 / (1.0 / np.sqrt(2.0 * rate * 10.0 ** (levels / 10.0)))**2
            ok = np.isfinite(oracle) & (oracle > 0)
            mixed += 0 < ok.sum() < ok.size
            assert _accepts(lambda: noise_scale(levels, k, n)) == ok.all()
            assert _accepts(lambda: build_schedule(observed, steps, step_db, rate)) == ok.all()
            assert _accepts(lambda: DiffusionSchedule(csnr_levels=levels, rate=rate)) == ok.all()
            if ok.all():
                sched = build_schedule(observed, steps, step_db, rate)
                assert_same_bits(sched.csnr_levels, levels)
                assert_same_bits(sched.alphas, oracle)
            # one level at a time, through noise_scale's scalar path too
            for j in (0, -1):
                assert _accepts(lambda: noise_scale(float(levels[j]), k, n)) == ok[j]
                assert _accepts(lambda: DiffusionSchedule(csnr_levels=levels[[j]],
                                                          rate=rate)) == ok[j]
        assert mixed > 10


def _accepts(make):
    """False if ``make()`` rejects a CSNR as out of range, True if it returns."""
    try:
        make()
    except ValueError as exc:
        assert "out of range" in str(exc)
        return False
    return True


class TestForwardTransition:
    def test_same_level_rejected(self):
        sched = build_schedule(4.0, 5, 0.5, 0.5)
        with pytest.raises(ValueError):
            forward_transition(sched, 2, 2)

    def test_toward_higher_csnr_rejected(self):
        sched = build_schedule(4.0, 5, 0.5, 0.5)
        with pytest.raises(ValueError):
            forward_transition(sched, 3, 1)

    def test_frozen_values_121_60_6db_to_4db(self):
        sched = DiffusionSchedule(csnr_levels=np.array([6.0, 4.0]), rate=RATE_121_60)
        params = forward_transition(sched, 0, 1)
        assert isinstance(params, TransitionParams)
        # 40-digit oracle: ratio = w6^2/w4^2 = 10^-0.2, variance from the
        # conditional-variance formula
        assert params.alpha_ratio == pytest.approx(0.63095734448, abs=1e-9)
        assert params.variance == pytest.approx(3.6773285516, abs=1e-8)
        assert params.variance > 0

    def test_validity_equivalent_to_decreasing_csnr(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s_db, t_db = rng.uniform(-2, 12, 2)
            if s_db == t_db:
                continue
            rate = rng.uniform(0.05, 0.95)
            hi, lo = max(s_db, t_db), min(s_db, t_db)
            sched = DiffusionSchedule(csnr_levels=np.array([hi, lo]), rate=rate)
            assert forward_transition(sched, 0, 1).variance > 0
            # reversing direction is exactly the invalid case
            with pytest.raises(ValueError):
                forward_transition(sched, 1, 0)

    def test_two_step_composition_matches_direct_marginal(self):
        sched = DiffusionSchedule(csnr_levels=np.array([8.0, 6.0, 4.0]), rate=0.5)
        rng = np.random.default_rng(9)
        nsamples = 10**6
        x = 1.0
        a, s = sched.alphas, sigmas(sched)
        z0 = a[0] * x + s[0] * rng.standard_normal(nsamples)
        p01 = forward_transition(sched, 0, 1)
        z1 = p01.alpha_ratio * z0 + np.sqrt(p01.variance) * rng.standard_normal(nsamples)
        p12 = forward_transition(sched, 1, 2)
        z2 = p12.alpha_ratio * z1 + np.sqrt(p12.variance) * rng.standard_normal(nsamples)
        mean_target, var_target = a[2] * x, s[2]**2
        se_mean = np.sqrt(var_target / nsamples)
        se_var = var_target * np.sqrt(2.0 / nsamples)
        assert abs(z2.mean() - mean_target) < 3 * se_mean
        assert abs(z2.var() - var_target) < 3 * se_var


class TestReverseStep:
    def test_zero_estimate_leaves_state_unchanged(self):
        sched = build_schedule(4.0, 6, 0.5, 0.5)
        z = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(reverse_step(sched, 3, z, np.zeros(3)), z)

    def test_scalar_example_w_half_to_one(self):
        # levels chosen so the scales are w=0.5 and w=1.0 at rate 1/2:
        # z_s = 1 + (2/0.25 - 2/1) * 1 = 7
        step = 10 * np.log10(4.0)
        sched = build_schedule(0.0, 2, step, 0.5)
        out = reverse_step(sched, 1, np.array([1.0]), np.array([1.0]))
        assert out[0] == pytest.approx(7.0, rel=1e-12)

    def test_telescoping_with_constant_estimate(self):
        sched = build_schedule(4.0, 20, 0.5, RATE_121_60)
        rng = np.random.default_rng(3)
        z = rng.normal(0, 3, 11)
        x_hat = rng.uniform(-1, 1, 11)
        cur = z.copy()
        for t in range(len(sched) - 1, 0, -1):
            cur = reverse_step(sched, t, cur, x_hat.copy())
        expected = z + (sched.alphas[0] - sched.alphas[-1]) * x_hat
        np.testing.assert_allclose(cur, expected, rtol=1e-10, atol=1e-10)

    def test_writes_the_update_law_over_the_estimate(self):
        # on the (n, B) columns the decoder passes, signed zeros and the
        # estimate's bounds included: -0.0 + gain * -0.0 stays -0.0
        sched = build_schedule(4.0, 6, 0.5, 0.5)
        rng = np.random.default_rng(5)
        z = rng.normal(0, 3, (5, 7)).T
        x_hat = np.ascontiguousarray(np.tanh(rng.normal(0, 2, (5, 7))).T)
        x_hat[:3, 0] = [1.0, -1.0, -0.0]
        z[2:5, 1], x_hat[2:5, 1] = [-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0]
        want = z + (sched.alphas[2] - sched.alphas[3]) * x_hat
        assert np.signbit(want[2:5, 1]).tolist() == [True, False, False]
        assert reverse_step(sched, 3, z, x_hat) is x_hat
        assert_same_bits(x_hat, want)

    def test_rejects_stepping_past_start(self):
        sched = build_schedule(4.0, 3, 0.5, 0.5)
        for t_index in (0, len(sched)):
            x_hat = np.full(2, 0.5)
            with pytest.raises(ValueError, match="past the schedule start"):
                reverse_step(sched, t_index, np.zeros(2), x_hat)
            assert_same_bits(x_hat, [0.5, 0.5])

    def test_rejects_out_of_range_estimate(self):
        sched = build_schedule(4.0, 3, 0.5, 0.5)
        with pytest.raises(ValueError):
            reverse_step(sched, 1, np.zeros(2), np.array([1.5, 0.0]))

    def test_rejects_nan_estimate(self):
        # a NaN fails no `> 1` test, and would come back as NaN beliefs
        sched = build_schedule(4.0, 6, 0.5, 0.5)
        with pytest.raises(ValueError, match="x_hat"):
            reverse_step(sched, 3, np.zeros(3), np.full(3, np.nan))

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -1.0 - 1e-12])
    def test_rejected_estimate_writes_nothing(self, bad):
        sched = build_schedule(4.0, 6, 0.5, 0.5)
        z, x_hat = np.full(3, 7.0), np.array([0.5, bad, -0.25])
        before = x_hat.copy()
        with pytest.raises(ValueError, match="x_hat entries"):
            reverse_step(sched, 3, z, x_hat)
        assert_same_bits(z, np.full(3, 7.0))
        assert_same_bits(x_hat, before)

    @pytest.mark.parametrize("x_hat", [np.full(3, 0.5, dtype=np.float32), [0.5, 0.5, 0.5]],
                             ids=["float32", "list"])
    def test_rejects_estimate_it_cannot_write_over(self, x_hat):
        # np.asarray would step a float64 copy, and the caller's estimate
        # would never hold z_s
        sched = build_schedule(4.0, 6, 0.5, 0.5)
        z = np.full(3, 7.0)
        with pytest.raises(ValueError, match="float64 ndarray"):
            reverse_step(sched, 3, z, x_hat)
        assert_same_bits(z, np.full(3, 7.0))
        np.testing.assert_array_equal(x_hat, [0.5, 0.5, 0.5])

    def test_estimate_overlapping_the_state_is_rejected(self):
        # written in place, z_s = z_t + gain x_hat would multiply into z_t
        # before the add reads it: z = 1, x_hat = 0.5 would step to 0.772
        # where the right value is 1.386
        sched = build_schedule(4.0, 6, 0.5, 0.5)
        want = reverse_step(sched, 3, np.ones(3), np.full(3, 0.5))
        assert want == pytest.approx(1.386, abs=1e-3)
        work = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
        for x_hat in (work[:3], work[2:5], work):
            with pytest.raises(ValueError, match="overlap"):
                reverse_step(sched, 3, work[:3], x_hat)
            assert_same_bits(work, [1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
        # disjoint parts of one buffer, as in the decoder, step as usual
        x_hat = work[3:]
        assert reverse_step(sched, 3, work[:3], x_hat) is x_hat
        assert_same_bits(work[3:], want)
