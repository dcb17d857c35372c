import argparse
import dataclasses
import inspect
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vcdc
from vcdc import bench, cli, codes
from vcdc.bench import VcdcDecoder, run_ber
from vcdc.bp import BpConfig
from vcdc.cli import BENCH_DEFAULTS, DECODE_DEFAULTS, TRAIN_DEFAULTS, build_parser, main
from vcdc.codebook import ParityCheckMatrix, bipolar, encode
from vcdc.denoiser import load_checkpoint, save_checkpoint
from vcdc.train import TrainConfig

from conftest import (infinite_weights_and_llrs, load_tool, overflowing_weights_and_llrs,
                      read_results_csv, zero_weights)

make_codes = load_tool("make_codes")
serialize_alist = make_codes.serialize_alist


@pytest.fixture()
def hamming_file(tmp_path):
    path = tmp_path / "hamming_7_4.alist"
    path.write_text(serialize_alist(codes.load("hamming_7_4")), encoding="ascii")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_cli_process(*argv):
    """``vcdc`` in a child process with a timeout, on this checkout's
    package; its stderr holds every line the command prints, warnings too."""
    env = dict(os.environ)
    src = str(Path(vcdc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "vcdc.cli", *(str(a) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=120)


# values that train and bench reject, since their captured config would read
# them back otherwise: '#' starts a comment, a line break ends the entry,
# spaces at either end are stripped, and the file is ASCII
UNCAPTURABLE = [("--out", "run#1"), ("--out", "run\n1"), ("--out", "run\r1"),
                ("--out", " run"), ("--out", "run\t"), ("--out", "run\u00e9")]


def assert_rejected_as_uncapturable(capsys, flag, cwd):
    """One ``error:`` line naming the flag's config key, no stdout, and no
    file or directory left in ``cwd``."""
    captured = capsys.readouterr()
    key = flag[2:].replace("-", "_")
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith(f"error: config key {key!r}: ")
    assert captured.out == ""
    assert os.listdir(cwd) == []


class TestInspect:
    def test_prints_parameters(self, hamming_file, capsys):
        assert run_cli("inspect-code", "--code", hamming_file) == 0
        out = capsys.readouterr().out
        assert "n=7 k=4" in out
        assert "check degrees: [4]" in out

    def test_missing_file_errors(self, tmp_path, capsys):
        assert run_cli("inspect-code", "--code", tmp_path / "nope.alist") == 2
        assert "error:" in capsys.readouterr().err


class TestRedundantRows:
    """ldpc_49_24's array matrix before its 3 dependent rows are dropped:
    28 checks of rank 25, so k = 24 and one weight per check; and the same
    rows with the sum of each and the next appended: 56 checks on 49
    variables, more than n, at the same rank."""

    @pytest.fixture()
    def redundant_file(self, tmp_path):
        path = tmp_path / "ldpc_49_24_redundant.alist"
        h = ParityCheckMatrix(make_codes.array_rows(7, 4))
        path.write_text(serialize_alist(h), encoding="ascii")
        return path

    @pytest.fixture()
    def overcomplete_file(self, tmp_path):
        path = tmp_path / "ldpc_49_24_overcomplete.alist"
        rows = make_codes.array_rows(7, 4)
        h = ParityCheckMatrix(np.concatenate([rows, rows ^ np.roll(rows, -1, axis=0)]))
        path.write_text(serialize_alist(h), encoding="ascii")
        return path

    def test_inspect_takes_k_from_the_rank(self, redundant_file, capsys):
        assert run_cli("inspect-code", "--code", redundant_file) == 0
        out = capsys.readouterr().out
        assert out.startswith("n=49 k=24 rate=0.4898 checks=28 edges=196\n")

    def test_train_and_bench(self, redundant_file, tmp_path, capsys):
        self.train_and_bench(redundant_file, 28, tmp_path)

    def test_more_checks_than_variables(self, overcomplete_file, tmp_path, capsys):
        assert run_cli("inspect-code", "--code", overcomplete_file) == 0
        out = capsys.readouterr().out
        assert out.startswith("n=49 k=24 rate=0.4898 checks=56 edges=580\n")
        self.train_and_bench(overcomplete_file, 56, tmp_path)

    @staticmethod
    def train_and_bench(path, checks, tmp_path):
        """Train on the code at ``path``, which has k = 24 and ``checks``
        checks, and bench BP and VCDC on it with the trained weights."""
        out = tmp_path / "run"
        assert run_cli("train", "--code", path, "--out", out,
                       "--iterations", 20, "--batch-size", 8, "--seed", 0) == 0
        data = (out / "weights.vcdc").read_bytes()
        assert data.decode().splitlines()[0] == f"VCDC1 49 24 {checks}"
        assert load_checkpoint(data).values.shape == (checks,)
        assert save_checkpoint(load_checkpoint(data)) == data
        bench = tmp_path / "bench"
        assert run_cli("bench", "--code", path, "--out", bench,
                       "--decoders", "bp,vcdc", "--checkpoint", out / "weights.vcdc",
                       "--csnr", 3, "--timesteps", 4, "--max-frames", 64,
                       "--batch-frames", 32, "--seed", 1) == 0
        runs = read_results_csv(bench / "results.csv")
        assert [(r.decoder_id, r.n, r.k) for r in runs] == [("bp", 49, 24), ("vcdc-t4", 49, 24)]
        assert all(0 < r.frames_simulated <= 64 for r in runs)


class TestTrain:
    def test_writes_checkpoint_loss_and_config(self, hamming_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("train", "--code", hamming_file, "--out", out,
                       "--iterations", 5, "--batch-size", 8, "--seed", 1)
        assert code == 0
        ckpt = (out / "weights.vcdc").read_bytes()
        assert ckpt.decode().splitlines()[0] == "VCDC1 7 4 3"
        assert (out / "loss.csv").read_text().startswith("iteration,raw_loss")
        captured = (out / "train.config").read_text()
        assert "iterations=5" in captured and "seed=1" in captured

    def test_same_seed_gives_byte_identical_checkpoints(self, hamming_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("train", "--code", hamming_file, "--out", out,
                    "--iterations", 6, "--batch-size", 8, "--seed", 7)
            outs.append((out / "weights.vcdc").read_bytes())
        assert outs[0] == outs[1]

    def test_captured_config_reproduces_run(self, hamming_file, tmp_path):
        out = tmp_path / "first"
        run_cli("train", "--code", hamming_file, "--out", out,
                "--iterations", 6, "--batch-size", 8, "--seed", 7)
        replay_out = tmp_path / "replay"
        assert run_cli("train", "--config", out / "train.config",
                       "--out", replay_out) == 0
        assert (replay_out / "weights.vcdc").read_bytes() == \
            (out / "weights.vcdc").read_bytes()

    def test_missing_code_file_exits_nonzero(self, tmp_path, capsys):
        assert run_cli("train", "--code", tmp_path / "missing.alist",
                       "--out", tmp_path / "o") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--csnr-low", "nan"), ("--csnr-high", "inf"),
                                             ("--learning-rate", "nan")])
    def test_non_finite_hyperparameter_exits_two(self, tmp_path, capsys, flag, value):
        # these once wrote train.config and then died in the CSNR draw or
        # diverged at the first step
        out = tmp_path / "o"
        assert run_cli("train", "--code", "hamming_7_4", "--out", out,
                       "--iterations", 5, flag, value) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {key} must be finite, got {value}\n"
        assert not out.exists()

    def test_empty_csnr_range_exits_two_naming_its_keys(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("train", "--code", "hamming_7_4", "--out", out,
                       "--csnr-low", 6, "--csnr-high", 4, "--iterations", 2) == 2
        assert capsys.readouterr().err == "error: csnr_high 4.0 is below csnr_low 6.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("csnr", ["4000", "-4000"])
    def test_out_of_range_csnr_exits_two_with_one_line(self, tmp_path, capsys, csnr):
        # the error once listed the noise scale of every frame of the batch
        out = tmp_path / "o"
        assert run_cli("train", "--code", "hamming_7_4", "--out", out, "--csnr-low", csnr,
                       "--csnr-high", csnr, "--iterations", 2, "--batch-size", 4) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: CSNR {csnr} dB is out of range: its noise variance or "
                       f"LLR scale is not finite"]
        assert not out.exists()

    def test_out_of_range_csnr_bound_exits_two_before_training(self, tmp_path, capsys):
        # every draw of this run happened to stay below about 3080 dB, so it
        # once trained and exited 0; the bound is checked before any draw
        out = tmp_path / "o"
        assert run_cli("train", "--code", "hamming_7_4", "--out", out, "--csnr-low", 0,
                       "--csnr-high", 4000, "--iterations", 2, "--batch-size", 4) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: CSNR 4000 dB is out of range: its noise "
                                             "variance or LLR scale is not finite"]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", UNCAPTURABLE + [("--code", "hamming_7_4 ")])
    def test_value_the_config_cannot_carry_back_leaves_no_directory(
            self, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--code", "hamming_7_4", "--iterations", 2,
                       "--batch-size", 4, flag, value) == 2
        assert_rejected_as_uncapturable(capsys, flag, tmp_path)

    def test_divergence_exits_two_with_one_line(self, tmp_path, capsys):
        # a finite learning rate the config accepts, whose first update makes
        # the next loss overflow
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("train", "--code", "hamming_7_4", "--out", out,
                           "--iterations", 5, "--learning-rate", "1e200") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: loss became non-finite at iteration 1"]
        assert not out.exists()

    def test_finite_blow_up_exits_two_with_no_output(self, tmp_path, capsys):
        # the loss stays finite, but the weights grow to about 1e30 and the
        # run ends far above ln 2, the loss of all-zero beliefs
        out = tmp_path / "o"
        assert run_cli("train", "--code", "hamming_7_4", "--out", out, "--iterations", 200,
                       "--learning-rate", "1e30", "--seed", 2) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: final smoothed loss ") and "exceeds ln 2" in err
        assert not out.exists()

    def test_ldpc_49_24_checkpoint_carries_25_weights(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--code", "ldpc_49_24", "--out", out,
                       "--iterations", 3, "--batch-size", 8, "--seed", 0) == 0
        header = (out / "weights.vcdc").read_bytes().decode().splitlines()[0]
        assert header == "VCDC1 49 24 25"

    def test_config_file_with_flag_override(self, hamming_file, tmp_path):
        cfg = tmp_path / "run.config"
        cfg.write_text(f"code={hamming_file}\niterations=4\nbatch_size=8\nseed=3\n"
                       f"out={tmp_path/'from_file'}\n")
        assert run_cli("train", "--config", cfg, "--iterations", 2) == 0
        captured = (tmp_path / "from_file" / "train.config").read_text()
        assert "iterations=2" in captured  # flag wins over file

    def test_unknown_config_key_rejected(self, hamming_file, tmp_path, capsys):
        cfg = tmp_path / "bad.config"
        cfg.write_text("cleverness=11\n")
        assert run_cli("train", "--config", cfg, "--code", hamming_file,
                       "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("raw, parsed", [("1", True), ("TRUE", True), ("Yes", True),
                                             ("0", False), ("false", False), ("NO", False),
                                             ("ture", None), ("", None), ("2", None)])
    def test_config_booleans_validated(self, hamming_file, tmp_path, capsys, raw, parsed):
        cfg = tmp_path / "run.config"
        cfg.write_text(f"all_zero={raw}\niterations=2\nbatch_size=4\n")
        out = tmp_path / "o"
        code = run_cli("train", "--config", cfg, "--code", hamming_file, "--out", out)
        if parsed is None:
            assert code == 2
            assert "all_zero" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            assert f"all_zero={parsed}" in (out / "train.config").read_text()


class TestDecode:
    def test_noiseless_codeword_exits_zero(self, hamming_file, tmp_path, capsys):
        h = codes.load("hamming_7_4")
        cw = encode(h.generator, np.array([1, 0, 1, 1], dtype=np.uint8)[None])[0]
        llr_file = tmp_path / "word.llr"
        llr_file.write_text(" ".join(f"{v:.1f}" for v in 9.0 * bipolar(cw)))
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "".join(str(b) for b in cw)
        assert "syndrome: zero" in out[1]

    def test_takes_paths_a_config_could_not_carry(self, tmp_path, capsys):
        # decode captures no config, so it takes what train and bench reject
        llr_file = tmp_path / " word #1\u00e9.llr "
        llr_file.write_text("2 " * 7)
        assert run_cli("decode", "--code", "hamming_7_4", "--llr", llr_file) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0000000"

    def test_all_zero_llr_ties_resolve_to_zero_word(self, hamming_file, tmp_path, capsys):
        llr_file = tmp_path / "zeros.llr"
        llr_file.write_text("0 " * 7)
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0000000"

    def test_nan_llrs_exit_two(self, tmp_path, capsys):
        # an all-NaN word must be rejected, never reported as a zero syndrome
        llr_file = tmp_path / "nan.llr"
        llr_file.write_text("nan " * 121)
        assert run_cli("decode", "--code", "ldpc_121_60", "--llr", llr_file) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "syndrome" not in captured.out

    def test_identity_decoder(self, hamming_file, tmp_path, capsys):
        # one flipped bit: identity reports it, BP corrects it
        h = codes.load("hamming_7_4")
        cw = encode(h.generator, np.array([1, 1, 0, 1], dtype=np.uint8)[None])[0]
        llrs = 4.0 * bipolar(cw)
        llrs[2] = -llrs[2]
        llr_file = tmp_path / "word.llr"
        llr_file.write_text(" ".join(f"{v:.1f}" for v in llrs))
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file,
                       "--decoder", "identity") == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "".join(str(int(v < 0)) for v in llrs)
        assert out[1].startswith("syndrome: nonzero (") and out[1].endswith(" 0 steps)")
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file) == 0
        assert capsys.readouterr().out.splitlines()[0] == "".join(str(b) for b in cw)

    def test_identity_decoder_rejects_nan_llrs(self, hamming_file, tmp_path, capsys):
        llr_file = tmp_path / "nan.llr"
        llr_file.write_text("nan " * 7)
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file,
                       "--decoder", "identity") == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and "syndrome" not in captured.out

    def test_wrong_length_errors(self, hamming_file, tmp_path, capsys):
        llr_file = tmp_path / "short.llr"
        llr_file.write_text("1 2 3 4 5 6")
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file) == 2
        assert "error:" in capsys.readouterr().err

    def test_vcdc_decoder_with_checkpoint(self, hamming_file, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("train", "--code", hamming_file, "--out", out,
                "--iterations", 5, "--batch-size", 8, "--seed", 1)
        capsys.readouterr()  # drop the train subcommand's output
        h = codes.load("hamming_7_4")
        cw = encode(h.generator, np.array([0, 1, 1, 0], dtype=np.uint8)[None])[0]
        llr_file = tmp_path / "word.llr"
        llr_file.write_text(" ".join(f"{v:.1f}" for v in 8.0 * bipolar(cw)))
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file,
                       "--decoder", "vcdc", "--checkpoint", out / "weights.vcdc",
                       "--csnr", 4.0) == 0
        assert capsys.readouterr().out.splitlines()[0] == "".join(str(b) for b in cw)

    def test_schedule_below_zero_db_decodes(self, hamming_file, tmp_path, capsys):
        # 7000 levels from -2500 dB reach 999.5 dB, in range; from 0 dB they
        # would reach 3499.5 dB, which the decoder once checked and named;
        # the word's hard decision is the all-zero codeword
        ckpt = tmp_path / "zeros.vcdc"
        ckpt.write_bytes(save_checkpoint(zero_weights(codes.load("hamming_7_4"))))
        llr_file = tmp_path / "word.llr"
        llr_file.write_text("1.5 0.5 2 0.25 3 1 0.5")
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file,
                       "--decoder", "vcdc", "--checkpoint", ckpt, "--csnr", "-2500",
                       "--timesteps", 7000) == 0
        assert capsys.readouterr().err == ""

    def test_weights_that_overflow_exit_two(self, tmp_path, capsys):
        # one level: the final block's NaN beliefs were once decoded as bits
        self.assert_overflow_exits_two(tmp_path, capsys, overflowing_weights_and_llrs, 0)

    def test_weights_that_overflow_to_infinity_exit_two(self, tmp_path, capsys):
        # one level: frame 42's infinite final beliefs once exited 0 with
        # "syndrome: zero"
        self.assert_overflow_exits_two(tmp_path, capsys, infinite_weights_and_llrs, 42)

    @pytest.mark.parametrize("flags", [(), ("--timesteps", 2)])
    def test_weights_that_overflow_exit_two_with_one_line(self, tmp_path, flags):
        # in a child process, which shows every line printed: at T >= 2 the
        # NaN estimate once reached the reverse step, whose error named x_hat,
        # and at T = 20 two RuntimeWarnings came before it
        h = codes.load("ldpc_49_24")
        weights, llrs = overflowing_weights_and_llrs(h, frames=1)
        ckpt, llr_file = tmp_path / "over.vcdc", tmp_path / "word.llr"
        ckpt.write_bytes(save_checkpoint(weights))
        llr_file.write_text(" ".join(repr(float(v)) for v in llrs[0]), encoding="ascii")
        proc = run_cli_process("decode", "--code", "ldpc_49_24", "--llr", llr_file,
                               "--decoder", "vcdc", "--checkpoint", ckpt, *flags)
        assert proc.returncode == 2
        assert proc.stderr == "error: a block's beliefs hold NaN: its weights overflow\n"
        assert proc.stdout == ""

    @staticmethod
    def assert_overflow_exits_two(tmp_path, capsys, weights_and_llrs, frame):
        """``vcdc decode`` at T = 1 on frame ``frame`` of ``weights_and_llrs``
        on ldpc_49_24 exits 2 naming the final block's beliefs."""
        h = codes.load("ldpc_49_24")
        weights, llrs = weights_and_llrs(h, frames=frame + 1)
        ckpt, llr_file = tmp_path / "huge.vcdc", tmp_path / "word.llr"
        ckpt.write_bytes(save_checkpoint(weights))
        llr_file.write_text(" ".join(repr(float(v)) for v in llrs[frame]), encoding="ascii")
        assert run_cli("decode", "--code", "ldpc_49_24", "--llr", llr_file,
                       "--decoder", "vcdc", "--checkpoint", ckpt, "--timesteps", 1) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: the final block's beliefs are not finite: its weights "
                                "overflow\n")
        assert captured.out == ""

    @pytest.mark.parametrize("csnr, timesteps", [(c, t) for c in ("nan", "inf", "4000", "-4000")
                                                 for t in (1, 3)] + [("nan", 20), ("3075", 20)])
    def test_non_finite_csnr_exits_two(self, hamming_file, tmp_path, capsys, csnr, timesteps):
        # a non-finite CSNR is never decoded, whatever the number of levels;
        # nor is one whose alpha overflows to inf (4000 dB used to decode to
        # NaN beliefs reported as a zero syndrome) or underflows to zero, nor
        # a channel in range whose schedule reaches past it (3075 dB: 3084.5
        # at the top). Each error names one level, where it once listed 20
        # NaN levels or the 12 out of range, over two lines
        ckpt = tmp_path / "zeros.vcdc"
        ckpt.write_bytes(save_checkpoint(zero_weights(codes.load("hamming_7_4"))))
        llr_file = tmp_path / "word.llr"
        llr_file.write_text("1.5 -0.5 2 0.25 -3 1 0.5")
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file,
                       "--decoder", "vcdc", "--checkpoint", ckpt, "--csnr", csnr,
                       "--timesteps", timesteps) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


class TestBench:
    def test_row_cardinality_and_censoring(self, hamming_file, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run_cli("bench", "--code", hamming_file, "--out", out,
                       "--decoders", "bp,identity", "--csnr", "2,3",
                       "--stop-errors", 5, "--batch-frames", 32, "--seed", 1)
        assert code == 0
        runs = read_results_csv(out / "results.csv")
        assert len(runs) == 4
        assert {r.decoder_id for r in runs} == {"bp", "identity"}
        assert (out / "plot_hamming_7_4.csv").exists()
        assert "bench.config" in {p.name for p in out.iterdir()}

    def test_vcdc_timestep_sweep_produces_per_t_rows(self, hamming_file, tmp_path):
        train_out = tmp_path / "t"
        run_cli("train", "--code", hamming_file, "--out", train_out,
                "--iterations", 5, "--batch-size", 8, "--seed", 2)
        out = tmp_path / "bench"
        code = run_cli("bench", "--code", hamming_file, "--out", out,
                       "--decoders", "vcdc", "--csnr", "3", "--timesteps", "1,2,4",
                       "--checkpoint", train_out / "weights.vcdc",
                       "--stop-errors", 4, "--batch-frames", 32,
                       "--max-frames", 128, "--seed", 1)
        assert code == 0
        runs = read_results_csv(out / "results.csv")
        assert [r.decoder_id for r in runs] == ["vcdc-t1", "vcdc-t2", "vcdc-t4"]

    @pytest.mark.parametrize("decoders, reads", [("vcdc,bp", 1), ("bp,identity", 0)])
    def test_checkpoint_is_read_once_per_run(self, tmp_path, monkeypatch, decoders, reads):
        # each vcdc timestep count once opened and parsed the checkpoint again
        ckpt = tmp_path / "zeros.vcdc"
        ckpt.write_bytes(save_checkpoint(zero_weights(codes.load("hamming_7_4"))))
        calls = []
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda data: calls.append(data) or load_checkpoint(data))
        assert run_cli("bench", "--code", "hamming_7_4", "--out", tmp_path / "b",
                       "--decoders", decoders, "--timesteps", "1,2,4", "--checkpoint", ckpt,
                       "--csnr", "3", "--stop-errors", 2, "--batch-frames", 16,
                       "--max-frames", 32) == 0
        assert calls == [ckpt.read_bytes()] * reads

    def test_censored_flag_lands_in_csv(self, hamming_file, tmp_path):
        out = tmp_path / "bench"
        run_cli("bench", "--code", hamming_file, "--out", out, "--decoders", "bp",
                "--csnr", "30", "--stop-errors", 100, "--max-frames", 64,
                "--batch-frames", 32, "--seed", 1)
        runs = read_results_csv(out / "results.csv")
        assert runs[0].censored

    def test_vcdc_without_checkpoint_errors(self, hamming_file, tmp_path, capsys):
        assert run_cli("bench", "--code", hamming_file, "--out", tmp_path / "b",
                       "--decoders", "vcdc", "--csnr", "4") == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_nan_csnr_exits_two(self, tmp_path, capsys):
        # a NaN noise scale used to decode as a BER of about 0.5 and exit 0
        out = tmp_path / "bench"
        assert run_cli("bench", "--code", "hamming_7_4", "--out", out,
                       "--decoders", "identity", "--csnr", "nan", "--stop-errors", 3,
                       "--batch-frames", 16) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_zero_batch_frames_exits_two(self, tmp_path):
        # in a child process with a timeout: an empty batch once looped forever
        proc = run_cli_process("bench", "--code", "hamming_7_4", "--out", tmp_path / "bench",
                               "--decoders", "identity", "--csnr", "2", "--batch-frames", "0")
        assert proc.returncode == 2
        assert "batch_frames" in proc.stderr

    @pytest.mark.parametrize("flags", [
        ("--decoders", "vcdc"),
        ("--decoders", "vcdc", "--checkpoint", "MISSING"),
        ("--bp-variant", "foo"),
        ("--stop-errors", "0"),
        ("--decoders", "vcdc", "--checkpoint", "ZEROS", "--timesteps", "0"),
        ("--decoders", "vcdc", "--checkpoint", "ZEROS", "--step-db", "-1"),
        ("--batch-frames", "0"),
        ("--bp-iters", "0"),
        ("--max-frames", "-3"),
        # a bad vcdc schedule fails before the bp runs listed ahead of it
        ("--decoders", "bp,vcdc", "--checkpoint", "ZEROS", "--timesteps", "0"),
        ("--decoders", "bp,vcdc", "--checkpoint", "ZEROS", "--step-db", "-1"),
        # 10 ** 400 once raised OverflowError; -4000 dB leaked a RuntimeWarning
        ("--decoders", "identity", "--csnr", "4000"),
        ("--decoders", "identity", "--csnr", "-4000"),
        # an out-of-range CSNR fails before the runs listed ahead of it
        ("--decoders", "bp", "--csnr", "2,4000"),
        ("--decoders", "foo"),
        # an in-range CSNR whose vcdc schedule reaches past the range (3084.5
        # dB at the top) fails before the bp runs listed ahead of it
        ("--decoders", "bp,vcdc", "--checkpoint", "ZEROS", "--csnr", "3075"),
    ])
    def test_rejected_run_leaves_no_directory(self, tmp_path, capsys, flags):
        # the config is captured only once every run has measured, and a
        # rejected one prints no BER line
        ckpt = tmp_path / "zeros.vcdc"
        ckpt.write_bytes(save_checkpoint(zero_weights(codes.load("hamming_7_4"))))
        flags = [{"ZEROS": ckpt, "MISSING": tmp_path / "missing.vcdc"}.get(f, f) for f in flags]
        out = tmp_path / "bench"
        assert run_cli("bench", "--code", "hamming_7_4", "--out", out, "--csnr", "2",
                       "--stop-errors", 3, "--batch-frames", 16, *flags) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", UNCAPTURABLE + [("--decoders", "bp\nidentity"),
                                                            ("--checkpoint", "w#1.vcdc")])
    def test_value_the_config_cannot_carry_back_leaves_no_directory(
            self, tmp_path, monkeypatch, capsys, flag, value):
        # replayed from its bench.config, "--out run#1" once read out=run and
        # wrote into run/
        monkeypatch.chdir(tmp_path)
        assert run_cli("bench", "--code", "hamming_7_4", "--csnr", "2", "--stop-errors", 3,
                       "--batch-frames", 16, flag, value) == 2
        assert_rejected_as_uncapturable(capsys, flag, tmp_path)

    @pytest.mark.parametrize("flags", [("--decoders", "identity", "--csnr", ","),
                                       ("--decoders", "", "--csnr", "2"),
                                       ("--decoders", "vcdc", "--csnr", "2",
                                        "--timesteps", ",")])
    def test_empty_list_exits_two(self, tmp_path, capsys, flags):
        # a run that measured nothing must not read as a success
        out = tmp_path / "bench"
        assert run_cli("bench", "--code", "hamming_7_4", "--out", out, *flags,
                       "--stop-errors", 3, "--batch-frames", 16) == 2
        assert "at least one" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_captured_config_reproduces_run(self, hamming_file, tmp_path, monkeypatch):
        # a run depends on its captured config alone, not on the environment
        # (VCDC_THREADS once set the worker count)
        monkeypatch.setenv("VCDC_THREADS", "2")
        out = tmp_path / "first"
        assert run_cli("bench", "--code", hamming_file, "--out", out, "--decoders", "bp",
                       "--csnr", "2", "--stop-errors", 60, "--batch-frames", 16,
                       "--seed", 3) == 0
        monkeypatch.delenv("VCDC_THREADS")
        replay_out = tmp_path / "replay"
        assert run_cli("bench", "--config", out / "bench.config", "--out", replay_out) == 0
        assert (replay_out / "results.csv").read_bytes() == (out / "results.csv").read_bytes()

    def test_bundled_code_name_resolves(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("bench", "--code", "hamming_7_4", "--out", out,
                       "--decoders", "identity", "--csnr", "2", "--stop-errors", 3,
                       "--batch-frames", 16, "--seed", 0)
        assert code == 0


# every flag of train, bench and decode and the type its value parses to;
# bool marks a switch that takes no value and sets True
PINNED_FLAGS = {
    "train": {"--config": str, "--code": str, "--out": str, "--seed": int,
              "--iterations": int, "--batch-size": int, "--learning-rate": float,
              "--csnr-low": float, "--csnr-high": float, "--all-zero": bool},
    "bench": {"--config": str, "--code": str, "--out": str, "--seed": int,
              "--decoders": str, "--csnr": str, "--checkpoint": str, "--timesteps": str,
              "--step-db": float, "--bp-iters": int, "--bp-variant": str,
              "--stop-errors": int, "--max-frames": int, "--batch-frames": int},
    "decode": {"--config": str, "--code": str, "--llr": str, "--decoder": str,
               "--checkpoint": str, "--csnr": float, "--timesteps": int,
               "--step-db": float, "--bp-iters": int, "--bp-variant": str},
}


class TestRejections:
    """Inputs the CLI rejects with one ``error:`` line and exit status 2."""

    @pytest.mark.parametrize("command, flags, message", [
        ("train", (), "train requires --code"),
        ("bench", (), "bench requires --code"),
        ("decode", ("--llr", "word.llr"), "decode requires --code and --llr"),
        ("decode", ("--code", "hamming_7_4"), "decode requires --code and --llr"),
        ("decode", ("--code", "hamming_7_4", "--llr", "word.llr", "--decoder", "foo"),
         "unknown decoder 'foo'"),
        ("bench", ("--code", "no_such_code"), "No such file or directory: 'no_such_code'"),
        ("inspect-code", ("--code", "no_such_code"),
         "No such file or directory: 'no_such_code'"),
    ])
    def test_missing_or_unknown_input(self, tmp_path, monkeypatch, capsys, command, flags,
                                      message):
        monkeypatch.chdir(tmp_path)
        Path("word.llr").write_text(" ".join(["1.0"] * 7), encoding="ascii")
        assert run_cli(command, *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert sorted(os.listdir(tmp_path)) == ["word.llr"]

    # bench once printed its BER lines, and train ran every iteration,
    # before failing to write into or below a file
    @pytest.mark.parametrize("below", ["", "sub", "sub/dir"])
    @pytest.mark.parametrize("command, flags, work", [
        ("bench", ("--decoders", "bp", "--csnr", 3, "--stop-errors", 5), (bench, "run_ber")),
        ("train", ("--iterations", 50, "--batch-size", 8), (cli, "train")),
    ])
    def test_out_that_is_or_is_below_a_file(self, tmp_path, monkeypatch, capsys, command,
                                            flags, work, below):
        calls = []
        real = getattr(*work)
        monkeypatch.setattr(*work, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        afile = tmp_path / "afile"
        afile.write_bytes(b"not a directory\n")
        out = os.path.join(afile, below) if below else str(afile)
        assert run_cli(command, "--code", "hamming_7_4", *flags, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --out {out!r}: {str(afile)!r} exists and is not a "
                                f"directory\n")
        assert captured.out == "" and calls == []
        assert os.listdir(tmp_path) == ["afile"]
        assert afile.read_bytes() == b"not a directory\n"

    # an empty out once ran the whole job, every training iteration or BER
    # run, and then failed to write into ''
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, flags, work", [
        ("bench", ("--decoders", "bp", "--csnr", 3, "--stop-errors", 5), (bench, "run_ber")),
        ("train", ("--iterations", 50, "--batch-size", 8), (cli, "train")),
    ])
    def test_empty_out_is_rejected_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                   command, flags, work, source):
        monkeypatch.chdir(tmp_path)
        calls = []
        real = getattr(*work)
        monkeypatch.setattr(*work, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        out = ("--out", "")
        if source == "config":
            Path("run.config").write_text("out=\n", encoding="ascii")
            out = ("--config", "run.config")
        assert run_cli(command, "--code", "hamming_7_4", *flags, *out) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: out (--out or config key 'out') must name a directory, "
                                "got ''\n")
        assert captured.out == "" and calls == []
        assert os.listdir(tmp_path) == (["run.config"] if source == "config" else [])

    # a repeated key once kept its last value silently: bench ran and
    # captured csnr=4 alone
    @pytest.mark.parametrize("command, text, message", [
        ("bench", "code=hamming_7_4\ncsnr=3\ncsnr=4\n",
         "run.config:3: config key 'csnr' repeats line 2"),
        ("train", "iterations=30\n# a comment\n\n iterations = 30 \ncode=hamming_7_4\n",
         "run.config:4: config key 'iterations' repeats line 1"),
    ], ids=["bench", "train"])
    def test_repeated_config_key_names_both_lines(self, tmp_path, monkeypatch, capsys, command,
                                                  text, message):
        monkeypatch.chdir(tmp_path)
        calls = []
        for work in ((bench, "run_ber"), (cli, "train")):
            monkeypatch.setattr(*work, lambda *a, **kw: calls.append(a))
        Path("run.config").write_text(text, encoding="ascii")
        assert run_cli(command, "--config", "run.config") == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and calls == []
        assert os.listdir(tmp_path) == ["run.config"]

    # the schedule's length is the count --timesteps gives; its check once
    # named it "steps"
    @pytest.mark.parametrize("command, flags", [
        ("bench", ("--decoders", "vcdc", "--csnr", "2")),
        ("decode", ("--decoder", "vcdc", "--llr", "word.llr")),
    ])
    def test_zero_timesteps_names_timesteps(self, tmp_path, monkeypatch, capsys, command,
                                            flags):
        monkeypatch.chdir(tmp_path)
        Path("word.llr").write_text("1 " * 7, encoding="ascii")
        Path("zeros.vcdc").write_bytes(save_checkpoint(zero_weights(codes.load("hamming_7_4"))))
        assert run_cli(command, "--code", "hamming_7_4", *flags, "--checkpoint", "zeros.vcdc",
                       "--timesteps", 0) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: timesteps must be >= 1, got 0\n"
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == ["word.llr", "zeros.vcdc"]

    # a negative seed once reached numpy, whose error named neither the flag
    # nor the config key
    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("flags, files", [
        (("--seed", "-1"), {}),
        (("--config", "run.config"), {"run.config": "seed=-1\n"}),
    ])
    def test_negative_seed_names_seed(self, tmp_path, monkeypatch, capsys, command, flags,
                                      files):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text, encoding="ascii")
        assert run_cli(command, "--code", "hamming_7_4", *flags) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed (--seed or config key 'seed') must be >= 0, got -1\n"
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == sorted(files)

    # train and bench share one setup; when two of its checks fail at once,
    # the first in its order names the error: config file, a value the
    # captured config could not carry back, a negative seed, --code, --out,
    # the code
    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("flags, message", [
        (("--config", "bad.config", "--out", "run#1"), "unknown config key 'typo'"),
        (("--out", "run#1"), "config key 'out': 'run#1' would not read back"),
        (("--out", "afile/sub"), "{command} requires --code"),
        (("--code", "no_such_code", "--out", "afile/sub"),
         "--out 'afile/sub': 'afile' exists and is not a directory"),
        (("--out", "run#1", "--seed", "-1"), "config key 'out': 'run#1' would not read back"),
        (("--seed", "-1", "--out", "afile/sub"), "seed (--seed or config key 'seed') must be"),
    ])
    def test_setup_reports_the_first_of_two_failures(self, tmp_path, monkeypatch, capsys,
                                                     command, flags, message):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_bytes(b"not a directory\n")
        Path("bad.config").write_text("typo=1\n", encoding="ascii")
        assert run_cli(command, *flags) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message.format(command=command)}")
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == ["afile", "bad.config"]

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "run.config"
        cfg.write_text("code=hamming_7_4\niterations 2\n", encoding="ascii")
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}:2: expected key=value, got 'iterations 2'"]
        assert not (tmp_path / "o").exists()

    # a malformed number names its config key, its flag or its file and token
    @pytest.mark.parametrize("command, flags, files, message", [
        ("train", ("--config", "run.config"), {"run.config": "iterations=4.0\n"},
         "run.config: config key 'iterations': expected an integer, got '4.0'"),
        ("train", ("--config", "run.config"), {"run.config": "learning_rate=1e-3x\n"},
         "run.config: config key 'learning_rate': expected a number, got '1e-3x'"),
        ("bench", ("--config", "run.config"), {"run.config": "step_db=half\n"},
         "run.config: config key 'step_db': expected a number, got 'half'"),
        ("bench", ("--csnr", "4,x"), {},
         "csnr entry 2 (--csnr or config key 'csnr'): expected a number, got 'x'"),
        ("bench", ("--config", "run.config"), {"run.config": "csnr=4,,5 dB\n"},
         "csnr entry 3 (--csnr or config key 'csnr'): expected a number, got '5 dB'"),
        ("bench", ("--decoders", "vcdc", "--timesteps", "1,2.5"), {},
         "timesteps entry 2 (--timesteps or config key 'timesteps'): expected an integer, "
         "got '2.5'"),
        ("decode", ("--llr", "word.llr"), {"word.llr": "1 2 x 4 5 6 7"},
         "word.llr: token 3: expected a number, got 'x'"),
        ("decode", ("--llr", "word.llr", "--config", "run.config"),
         {"word.llr": "1 " * 7, "run.config": "timesteps=20.0\n"},
         "run.config: config key 'timesteps': expected an integer, got '20.0'"),
    ])
    def test_malformed_number_names_its_source(self, tmp_path, monkeypatch, capsys, command,
                                               flags, files, message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text, encoding="ascii")
        assert run_cli(command, "--code", "hamming_7_4", *flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and sorted(os.listdir(tmp_path)) == sorted(files)

    # a repeated decoder, CSNR or timestep count once ran the same work
    # again and wrote one more identical row to results.csv
    @pytest.mark.parametrize("key, values, other, message", [
        ("decoders", "bp,identity, bp", (), "decoders entry 3 (--decoders or config key "
         "'decoders') repeats 'bp'"),
        ("csnr", "3,4,3.0", (), "csnr entry 3 (--csnr or config key 'csnr') repeats 3"),
        ("timesteps", "4,,4", ("--decoders", "vcdc"),
         "timesteps entry 3 (--timesteps or config key 'timesteps') repeats 4"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_list_value_names_its_list(self, tmp_path, monkeypatch, capsys, key,
                                                values, other, message, source):
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(bench, "run_ber", lambda *a, **kw: calls.append(a))
        Path("zeros.vcdc").write_bytes(save_checkpoint(zero_weights(codes.load("hamming_7_4"))))
        flags = ("--" + key, values)
        if source == "config":
            Path("run.config").write_text(f"{key}={values}\n", encoding="ascii")
            flags = ("--config", "run.config")
        assert run_cli("bench", "--code", "hamming_7_4", "--checkpoint", "zeros.vcdc",
                       "--stop-errors", 5, "--batch-frames", 16, *other, *flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and calls == []
        left = ["run.config", "zeros.vcdc"] if source == "config" else ["zeros.vcdc"]
        assert sorted(os.listdir(tmp_path)) == left

    def test_config_comments_and_blank_lines_accepted(self, tmp_path):
        cfg = tmp_path / "run.config"
        cfg.write_text("# a short run\n\ncode=hamming_7_4\niterations=2  # two steps\n"
                       "batch_size=4\n", encoding="ascii")
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "o") == 0
        captured = (tmp_path / "o" / "train.config").read_text().splitlines()
        assert "iterations=2" in captured and "batch_size=4" in captured


class TestParser:
    @pytest.mark.parametrize("command", sorted(PINNED_FLAGS))
    def test_flags_and_parsed_types_are_pinned(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {opt for action in sub.choices[command]._actions
                 for opt in action.option_strings if opt not in ("-h", "--help")}
        assert flags == set(PINNED_FLAGS[command])
        for flag, kind in PINNED_FLAGS[command].items():
            dest = flag[2:].replace("-", "_")
            if kind is bool:
                assert getattr(parser.parse_args([command, flag]), dest) is True
            else:
                value = getattr(parser.parse_args([command, flag, "7"]), dest)
                assert type(value) is kind and value == kind("7")
            assert getattr(parser.parse_args([command]), dest) is None


class TestDefaults:
    """The CLI takes TrainConfig's and BpConfig's defaults from the objects
    and step_db's from bench.STEP_DB, VcdcDecoder's default, and owns the Monte-Carlo protocol and T,
    which the library takes from its callers; the keys, values and captured
    configs stay as they were."""

    def test_train_defaults_are_train_config_defaults(self):
        # each TrainConfig field is a key of train, under its own name
        assert TRAIN_DEFAULTS == {"code": "", "out": "train_out",
                                  **dataclasses.asdict(TrainConfig())}

    @pytest.mark.parametrize("command", ["bench", "decode"])
    def test_decoder_defaults_are_the_library_defaults(self, command):
        defaults = {"bench": BENCH_DEFAULTS, "decode": DECODE_DEFAULTS}[command]
        assert defaults["bp_iters"] == BpConfig().max_iters
        assert defaults["bp_variant"] == BpConfig().variant
        params = inspect.signature(VcdcDecoder).parameters
        assert defaults["step_db"] == bench.STEP_DB == params["step_db"].default == 0.5
        assert params["timesteps"].default is inspect.Parameter.empty
        assert int(defaults["timesteps"]) == 20

    def test_bench_owns_the_monte_carlo_protocol(self):
        params = inspect.signature(run_ber).parameters
        for key in ("stop_errors", "max_frames", "seed", "code_id", "batch_frames"):
            assert params[key].default is inspect.Parameter.empty, key
        assert (BENCH_DEFAULTS["stop_errors"], BENCH_DEFAULTS["max_frames"],
                BENCH_DEFAULTS["batch_frames"], BENCH_DEFAULTS["seed"]) == (100, 0, 512, 0)

    @pytest.mark.parametrize("code, n", [("hamming_7_4", 7), ("ldpc_121_60", 121)])
    def test_default_budget_is_1e8_bits_as_a_count(self, tmp_path, monkeypatch, code, n):
        # max_frames=0 is the CLI's spelling of the budget; run_ber takes a count
        budgets = []
        real = bench.run_ber
        monkeypatch.setattr(bench, "run_ber",
                            lambda *a, **kw: budgets.append(kw["max_frames"]) or real(*a, **kw))
        assert run_cli("bench", "--code", code, "--decoders", "identity", "--csnr", "3",
                       "--stop-errors", 5, "--out", tmp_path / "o") == 0
        assert budgets == [max(1, 10**8 // n)] == [{7: 14285714, 121: 826446}[n]]

    # the flags and captured config of two fixed commands, as the config
    # has always read: key for key and type for type (4.0, not 4)
    @pytest.mark.parametrize("command, flags, text", [
        ("train", ("--iterations", 2, "--batch-size", 4),
         "all_zero=False\nbatch_size=4\ncode=hamming_7_4\ncsnr_high=6.0\ncsnr_low=4.0\n"
         "iterations=2\nlearning_rate=0.001\nout=train_out\nseed=0\n"),
        ("bench", (),
         "batch_frames=512\nbp_iters=5\nbp_variant=sum-product\ncheckpoint=\n"
         "code=hamming_7_4\ncsnr=4,5,6\ndecoders=bp\nmax_frames=0\nout=bench_out\n"
         "seed=0\nstep_db=0.5\nstop_errors=100\ntimesteps=20\n"),
    ])
    def test_captured_config_of_a_default_run(self, tmp_path, monkeypatch, command, flags,
                                               text):
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, "--code", "hamming_7_4", *flags) == 0
        path = tmp_path / f"{command}_out" / f"{command}.config"
        assert path.read_text(encoding="ascii") == text
