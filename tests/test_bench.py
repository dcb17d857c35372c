import math

import numpy as np
import pytest

from vcdc import codebook
from vcdc.bench import (BerRun, BpDecoder, IdentityDecoder, VcdcDecoder, channel_frames,
                        emit_results, neg_ln_ber, run_ber)
from vcdc.bp import BpConfig, MIN_SUM
from vcdc.channel import hard_decide, noise_scale
from vcdc.codebook import ParityCheckMatrix
from vcdc.denoiser import decode_vcdc_batch
from vcdc.diffusion import build_schedule

from analysis import count_flops_bp, count_flops_vcdc
from conftest import BER_SETTINGS, ber_run, read_results_csv, zero_weights

# Gaussian tail oracle Q(1/w) for the raw channel at 4 dB, rate 60/121
# (40-digit erfc evaluation)
RAW_BER_4DB_121_60 = 0.0572448559092


def make_run(bit_errors, bits, **over):
    base = dict(code_id="c", n=10, k=5, decoder_id="d", csnr_db=4.0,
                bit_errors=bit_errors, bits_simulated=bits,
                frames_simulated=bits // 10, frame_errors=min(bit_errors, bits // 10),
                mean_steps_used=1.0, censored=False, seed=0)
    base.update(over)
    return BerRun(**base)


class TestNegLnBer:
    def test_exact_exponent(self):
        run = make_run(bit_errors=1000, bits=int(round(1000 * math.e**5)))
        assert neg_ln_ber(run) == pytest.approx(5.0, abs=1e-5)

    def test_ber_one_gives_zero(self):
        assert neg_ln_ber(make_run(bit_errors=100, bits=100)) == pytest.approx(0.0)

    def test_reference_scale_polar_128_64(self):
        # the strongest tabulated operating point corresponds to 13.11
        bits = 10**9
        errors = int(round(bits * math.exp(-13.11)))
        run = make_run(bit_errors=errors, bits=bits)
        assert neg_ln_ber(run) == pytest.approx(13.11, abs=0.01)

    def test_zero_errors_reports_censored_lower_bound(self):
        run = make_run(bit_errors=0, bits=10**6, censored=True)
        assert neg_ln_ber(run) == pytest.approx(math.log(10**6))

    def test_no_bits_rejected(self):
        with pytest.raises(ValueError):
            neg_ln_ber(make_run(bit_errors=0, bits=0, frames_simulated=0))


class TestRunBer:
    def test_perfect_decoder_stub_censors_with_zero_ber(self, hamming):
        class PerfectStub:
            name = "perfect"

            def decode_batch(self, llrs, csnr_db):
                # at 60 dB the hard decision is error-free
                return hard_decide(llrs), np.zeros(llrs.shape[0], dtype=np.int64)

        run = ber_run(hamming, PerfectStub(), 60.0, stop_errors=10, max_frames=64,
                      seed=0, batch_frames=32)
        assert run.censored and run.bit_errors == 0 and run.ber == 0.0
        assert run.frames_simulated == 64

    def test_decoders_at_one_seed_see_the_same_frames(self, ldpc_49_24):
        # a run's frames depend only on (seed, batch_frames): every decoder
        # at one seed is handed the same batches, the short last one too,
        # each drawn as channel_frames of fresh messages from the run's stream
        class Recorder:
            def __init__(self, name):
                self.name, self.seen = name, []

            def decode_batch(self, llrs, csnr_db):
                self.seen.append(llrs.copy())
                return hard_decide(llrs), np.zeros(llrs.shape[0], dtype=np.int64)

        h, seed, csnr = ldpc_49_24, 11, 2.0
        recorders = [Recorder("first"), Recorder("second")]
        for rec in recorders:
            run = ber_run(h, rec, csnr, stop_errors=10**6, max_frames=40, seed=seed,
                          batch_frames=16)
            assert run.censored and run.frames_simulated == 40
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        w = float(noise_scale(csnr, h.k, h.n))
        want = [channel_frames(h, rng.integers(0, 2, (frames, h.k)), w, rng)[1]
                for frames in (16, 16, 8)]
        for rec in recorders:
            assert len(rec.seen) == len(want)
            for got, llrs in zip(rec.seen, want):
                assert got.tobytes() == llrs.tobytes()

    def test_identity_decoder_matches_gaussian_tail(self, ldpc_121_60):
        run = ber_run(ldpc_121_60, IdentityDecoder(ldpc_121_60), 4.0,
                      stop_errors=2500, seed=1, batch_frames=256)
        p = RAW_BER_4DB_121_60
        se = math.sqrt(p * (1 - p) / run.bits_simulated)
        assert abs(run.ber - p) < 3 * se

    def test_stopping_rule_reaches_error_target(self, hamming):
        run = ber_run(hamming, BpDecoder(hamming, BpConfig(max_iters=2)), 2.0,
                      stop_errors=50, seed=2, batch_frames=64)
        assert not run.censored
        assert run.bit_errors >= 50
        assert run.bits_simulated == run.frames_simulated * hamming.n

    def test_censoring_flagged_when_frame_budget_hit(self, hamming):
        run = ber_run(hamming, BpDecoder(hamming, BpConfig()), 20.0, stop_errors=1000,
                      max_frames=128, seed=3, batch_frames=64)
        assert run.censored
        assert run.frames_simulated == 128

    def test_seeded_runs_are_bit_reproducible(self, ldpc_49_24):
        dec = BpDecoder(ldpc_49_24, BpConfig())
        r1 = ber_run(ldpc_49_24, dec, 3.0, stop_errors=60, seed=9, batch_frames=128)
        r2 = ber_run(ldpc_49_24, dec, 3.0, stop_errors=60, seed=9, batch_frames=128)
        assert r1 == r2

    def test_generator_is_derived_once_per_code(self, ldpc_49_24, monkeypatch):
        # a fresh instance built under the patch: the constructor reads k,
        # so the one elimination is the construction's
        reduced, row_reduce = [], codebook._row_reduce
        monkeypatch.setattr(codebook, "_row_reduce",
                            lambda a: reduced.append(a.shape) or row_reduce(a))
        h = ParityCheckMatrix(ldpc_49_24.rows)
        runs = [ber_run(h, IdentityDecoder(h), 4.0, stop_errors=1, max_frames=8, seed=seed)
                for seed in (1, 2)]
        assert reduced == [h.rows.shape]
        assert runs[0].frames_simulated == runs[1].frames_simulated == 8

    def test_one_stream_only(self, ldpc_49_24):
        dec = BpDecoder(ldpc_49_24, BpConfig())
        with pytest.raises(ValueError, match="workers"):
            ber_run(ldpc_49_24, dec, 3.0, stop_errors=40, seed=4, batch_frames=64,
                    workers=2)
        r1 = ber_run(ldpc_49_24, dec, 3.0, stop_errors=40, seed=4, batch_frames=64,
                     workers=1)
        r2 = ber_run(ldpc_49_24, dec, 3.0, stop_errors=40, seed=4, batch_frames=64)
        assert r1 == r2

    # max_frames < 1 would measure nothing and report a censored BER of 0;
    # 2.5 frames would fail inside numpy, and True run as a count of 1; the
    # frame budget is a count, which the CLI works out (None is no budget)
    @pytest.mark.parametrize("key, value", [
        ("stop_errors", 0), ("max_frames", 0), ("max_frames", -1), ("max_frames", None),
        *((key, bad) for key in ("stop_errors", "batch_frames", "max_frames")
          for bad in (2.5, True))])
    def test_bad_stop_errors(self, hamming, key, value):
        with pytest.raises(ValueError, match=key):
            run_ber(hamming, BpDecoder(hamming, BpConfig()), 4.0,
                    **{**BER_SETTINGS, "max_frames": 64, key: value})

    def test_vcdc_decoder_records_steps(self, hamming):
        weights = zero_weights(hamming)
        dec = VcdcDecoder(hamming, weights, timesteps=6)
        run = ber_run(hamming, dec, 4.0, stop_errors=20, max_frames=256, seed=5,
                      batch_frames=64)
        assert dec.name == "vcdc-t6"
        assert 0.0 <= run.mean_steps_used <= 5.0

    def test_vcdc_decoder_checks_each_csnr_range_only_at_its_run(self, hamming):
        # 7000 levels 0.5 dB apart fit the channel range from -2500 dB, whose
        # top level is 999.5 dB, but not from 0 dB, whose top is 3499.5 dB:
        # the constructor builds no schedule, so it names no CSNR
        weights = zero_weights(hamming)
        dec = VcdcDecoder(hamming, weights, timesteps=7000)
        llrs = np.random.default_rng(6).normal(0.0, 1.0, (2, hamming.n))
        bits, steps = dec.decode_batch(llrs, -2500.0)
        sched = build_schedule(-2500.0, 7000, 0.5, hamming.rate)
        want = decode_vcdc_batch(hamming, weights, sched, llrs)
        assert np.array_equal(bits, want[0]) and np.array_equal(steps, want[2])
        with pytest.raises(ValueError, match="CSNR 3499.5 dB is out of range"):
            dec.decode_batch(llrs, 0.0)

    @pytest.mark.parametrize("make", [
        lambda h: BpDecoder(h, BpConfig()), lambda h: BpDecoder(h, BpConfig(variant=MIN_SUM)),
        lambda h: VcdcDecoder(h, zero_weights(h), timesteps=20), IdentityDecoder],
        ids=["bp-sum-product", "bp-min-sum", "vcdc", "identity"])
    def test_every_decoder_decodes_zero_frames(self, ldpc_49_24, make):
        # vcdc bench checks each decoder's own CSNR rule on zero frames
        h = ldpc_49_24
        bits, steps = make(h).decode_batch(np.empty((0, h.n)), 4.0)
        assert bits.shape == (0, h.n) and bits.dtype == np.uint8
        assert steps.shape == (0,) and steps.dtype == np.int64

    def test_vcdc_decoder_names_the_range_on_zero_frames_as_on_one(self, hamming):
        dec = VcdcDecoder(hamming, zero_weights(hamming), timesteps=7000)
        messages = []
        for frames in (0, 1):
            with pytest.raises(ValueError) as exc:
                dec.decode_batch(np.zeros((frames, hamming.n)), 0.0)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("CSNR 3499.5 dB is out of range")

    @pytest.mark.parametrize("timesteps, step_db, match", [
        *((t, 0.5, "steps") for t in (0, -1, 1.5, True)),
        *((20, s, "step_db") for s in (0.0, -0.5, math.nan, math.inf))])
    def test_vcdc_decoder_rejects_bad_spacing(self, hamming, timesteps, step_db, match):
        with pytest.raises(ValueError, match=match):
            VcdcDecoder(hamming, zero_weights(hamming), timesteps=timesteps, step_db=step_db)


class TestCountFlops:
    def test_zero_work_decoders(self, ldpc_121_60):
        assert count_flops_bp(ldpc_121_60, 0).total == 0
        assert count_flops_vcdc(ldpc_121_60, 0).total == 0

    def test_bp5_on_121_60_is_same_decade_as_reference(self, ldpc_121_60):
        total = count_flops_bp(ldpc_121_60, 5).total
        assert 316.4e3 / 10 <= total <= 316.4e3 * 10

    def test_vcdc20_within_ten_times_bp5(self, ldpc_121_60):
        bp = count_flops_bp(ldpc_121_60, 5).total
        vc = count_flops_vcdc(ldpc_121_60, 20).total
        assert vc < 10 * bp

    def test_minsum_avoids_transcendentals(self, ldpc_121_60):
        ms = count_flops_bp(ldpc_121_60, 5, variant=MIN_SUM)
        assert ms.transcendentals == 0
        # wins over sum-product once a transcendental costs more than a flop
        sp = count_flops_bp(ldpc_121_60, 5, transcendental_cost=5.0)
        assert ms.total < sp.total

    def test_transcendental_cost_scales_total(self, ldpc_121_60):
        cheap = count_flops_bp(ldpc_121_60, 5, transcendental_cost=1.0)
        costly = count_flops_bp(ldpc_121_60, 5, transcendental_cost=8.0)
        assert costly.total == cheap.total + 7.0 * cheap.transcendentals

    def test_model_bytes_match_checkpoint_budget(self, ldpc_121_60):
        report = count_flops_vcdc(ldpc_121_60, 20)
        assert report.model_bytes == 4 * 61 + len("VCDC1 121 60 61\n")
        assert count_flops_bp(ldpc_121_60, 5).model_bytes == 0


class TestEmitResults:
    def test_empty_run_set_gives_header_only(self, tmp_path):
        paths = emit_results([], tmp_path)
        lines = open(paths[0]).read().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("code,n,k,decoder,csnr_db,bits,bit_errors,ber")

    def test_reference_ber_series_round_trips_through_plot_data(self, tmp_path):
        # the (121,60) BP curve coordinates used as reference constants
        series = [(4.0, 8066, 10**6), (5.0, 739, 10**6), (6.0, 1902, 10**8)]
        runs = [make_run(bit_errors=e, bits=b, csnr_db=c, code_id="ldpc_121_60",
                         decoder_id="bp") for c, e, b in series]
        paths = emit_results(runs, tmp_path)
        plot = [p for p in paths if "plot_ldpc_121_60" in str(p)]
        assert plot
        rows = open(plot[0]).read().splitlines()[1:]
        bers = [float(r.split(",")[2]) for r in rows]
        assert bers == pytest.approx([0.008066, 0.000739, 1.902e-5])

    def test_results_csv_round_trip_identity(self, tmp_path):
        runs = [make_run(17, 12340, csnr_db=4.5, mean_steps_used=3.25, seed=7),
                make_run(0, 990, censored=True, decoder_id="vcdc-t20")]
        emit_results(runs, tmp_path)
        restored = read_results_csv(tmp_path / "results.csv")
        assert restored == runs
