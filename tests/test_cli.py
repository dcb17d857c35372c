import argparse
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vcdc
from vcdc import codes
from vcdc.cli import build_parser, main
from vcdc.codebook import bipolar, derive_generator, encode
from vcdc.denoiser import NeuralBlockWeights, save_checkpoint

from conftest import load_tool, read_results_csv

serialize_alist = load_tool("make_codes").serialize_alist


@pytest.fixture()
def hamming_file(tmp_path):
    path = tmp_path / "hamming_7_4.alist"
    path.write_text(serialize_alist(codes.load("hamming_7_4")), encoding="ascii")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestInspect:
    def test_prints_parameters(self, hamming_file, capsys):
        assert run_cli("inspect-code", "--code", hamming_file) == 0
        out = capsys.readouterr().out
        assert "n=7 k=4" in out
        assert "check degrees: [4]" in out

    def test_missing_file_errors(self, tmp_path, capsys):
        assert run_cli("inspect-code", "--code", tmp_path / "nope.alist") == 2
        assert "error:" in capsys.readouterr().err


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
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

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
        cw = encode(derive_generator(h), np.array([1, 0, 1, 1], dtype=np.uint8)[None])[0]
        llr_file = tmp_path / "word.llr"
        llr_file.write_text(" ".join(f"{v:.1f}" for v in 9.0 * bipolar(cw)))
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "".join(str(b) for b in cw)
        assert "syndrome: zero" in out[1]

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
        cw = encode(derive_generator(h), np.array([1, 1, 0, 1], dtype=np.uint8)[None])[0]
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
        cw = encode(derive_generator(h), np.array([0, 1, 1, 0], dtype=np.uint8)[None])[0]
        llr_file = tmp_path / "word.llr"
        llr_file.write_text(" ".join(f"{v:.1f}" for v in 8.0 * bipolar(cw)))
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file,
                       "--decoder", "vcdc", "--checkpoint", out / "weights.vcdc",
                       "--csnr", 4.0) == 0
        assert capsys.readouterr().out.splitlines()[0] == "".join(str(b) for b in cw)

    @pytest.mark.parametrize("timesteps", [1, 3])
    @pytest.mark.parametrize("csnr", ["nan", "inf", "4000", "-4000"])
    def test_non_finite_csnr_exits_two(self, hamming_file, tmp_path, capsys, csnr, timesteps):
        # a non-finite CSNR is never decoded, whatever the number of levels;
        # nor is one whose alpha overflows to inf (4000 dB used to decode to
        # NaN beliefs reported as a zero syndrome) or underflows to zero
        ckpt = tmp_path / "zeros.vcdc"
        ckpt.write_bytes(save_checkpoint(NeuralBlockWeights.zeros(codes.load("hamming_7_4"))))
        llr_file = tmp_path / "word.llr"
        llr_file.write_text("1.5 -0.5 2 0.25 -3 1 0.5")
        assert run_cli("decode", "--code", hamming_file, "--llr", llr_file,
                       "--decoder", "vcdc", "--checkpoint", ckpt, "--csnr", csnr,
                       "--timesteps", timesteps) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
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
        env = dict(os.environ)
        src = str(Path(vcdc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "vcdc.cli", "bench", "--code", "hamming_7_4",
             "--out", str(tmp_path / "bench"), "--decoders", "identity", "--csnr", "2",
             "--batch-frames", "0"],
            env=env, capture_output=True, text=True, timeout=120)
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
    ])
    def test_rejected_run_leaves_no_directory(self, tmp_path, capsys, flags):
        # the config is captured only once every run has measured
        ckpt = tmp_path / "zeros.vcdc"
        ckpt.write_bytes(save_checkpoint(NeuralBlockWeights.zeros(codes.load("hamming_7_4"))))
        flags = [{"ZEROS": ckpt, "MISSING": tmp_path / "missing.vcdc"}.get(f, f) for f in flags]
        out = tmp_path / "bench"
        assert run_cli("bench", "--code", "hamming_7_4", "--out", out, "--csnr", "2",
                       "--stop-errors", 3, "--batch-frames", 16, *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

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
