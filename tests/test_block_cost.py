"""tools/block_cost.py at toy sizes: a few block calls on hamming_7_4."""

import ast

import numpy as np
import pytest

from vcdc import codes
from vcdc import train as vtrain
from vcdc.denoiser import NeuralBlockWeights, save_checkpoint

from conftest import TOOLS, load_tool

block_cost = load_tool("block_cost")

TOY = ["--code", "hamming_7_4", "--frames", "4,1", "--repeats", "2", "--calls", "2"]


def test_prints_the_time_at_each_frame_count_and_the_fit(capsys):
    assert block_cost.main(TOY) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("code hamming_7_4 (7,4), ")
    assert "weights constant 0.3, median of 2 repeats of 2 calls" in lines[0]
    assert lines[1] == "frames  ms/call"
    rows = [line.split() for line in lines[2:4]]
    assert [int(b) for b, _ in rows] == [1, 4]
    assert all(float(ms) > 0 for _, ms in rows)
    assert lines[4].startswith("fit: ") and lines[4].endswith(" us/frame")
    assert len(lines) == 5


def test_train_times_a_training_step_on_the_same_frames(monkeypatch, capsys):
    # block_gradients at each frame count, on the LLRs the block would run
    # and the codewords they were made from, with the same table and fit
    h, seen, step = codes.load("hamming_7_4"), [], vtrain.block_gradients

    def recording(h_, weights, llrs, x_b):
        seen.append((llrs.copy(), x_b.copy()))
        return step(h_, weights, llrs, x_b)

    monkeypatch.setattr(vtrain, "block_gradients", recording)
    assert block_cost.main(TOY + ["--train"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("median of 2 repeats of 2 calls of train.block_gradients")
    assert lines[1] == "frames  ms/call" and lines[4].startswith("fit: ") and len(lines) == 5
    assert [len(llrs) for llrs, _ in seen] == [1, 1, 4, 4] * 2
    llrs, x_b = seen[2]
    assert not (h.rows.astype(np.int64) @ x_b.T.astype(np.int64) % 2).any()
    # at 4 dB the LLRs' hard decisions are mostly the codeword's bits
    assert ((llrs < 0) == x_b.astype(bool)).mean() > 0.9


def test_reads_the_weights_of_a_checkpoint(tmp_path, capsys):
    h = codes.load("hamming_7_4")
    path = tmp_path / "w.vcdc"
    path.write_bytes(save_checkpoint(NeuralBlockWeights(np.full(h.num_checks, 0.5), h.n, h.k)))
    assert block_cost.main(TOY + ["--checkpoint", str(path)]) == 0
    assert f"weights {path}, " in capsys.readouterr().out


def test_reads_the_code_of_an_alist_path(tmp_path, capsys):
    path = tmp_path / "mine.alist"
    path.write_text(load_tool("make_codes").serialize_alist(codes.load("hamming_7_4")),
                    encoding="ascii")
    assert block_cost.main(["--code", str(path)] + TOY[2:]) == 0
    assert capsys.readouterr().out.startswith(f"code {path} (7,4), ")


def test_one_frame_count_prints_no_fit(capsys):
    assert block_cost.main(TOY[:2] + ["--frames", "2", "--repeats", "1", "--calls", "1"]) == 0
    assert "fit:" not in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--frames", "--repeats", "--calls"])
def test_rejects_a_count_below_one(flag, capsys):
    with pytest.raises(SystemExit):
        block_cost.main(TOY + [flag, "0"])
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("frames", ["1,,16", "x"])
def test_rejects_frames_that_are_not_integers(frames, capsys):
    # an empty entry or a word once ended in int()'s ValueError traceback
    with pytest.raises(SystemExit) as exc:
        block_cost.main(TOY + ["--frames", frames])
    assert exc.value.code == 2
    assert f"--frames must be comma-separated integers, got {frames!r}" in capsys.readouterr().err


def test_fit_is_the_least_squares_line():
    fixed, per_frame = block_cost.fit({1: 0.3, 2: 0.5, 4: 0.9})
    assert fixed == pytest.approx(0.1) and per_frame == pytest.approx(0.2)


def imported_modules():
    """Each module the tool imports, and each ``module.name`` it imports from one."""
    tree = ast.parse((TOOLS / "block_cost.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_imports_nothing_of_the_benchmark():
    # the tool times the program's block on its own, not through perfbench/
    names = imported_modules()
    assert names and not any(name.split(".")[0] in {"perfbench", "harness", "spans"}
                             for name in names)


def test_imports_nothing_of_the_cli():
    # codes.load, not a private helper of the CLI, turns --code into H
    names = imported_modules()
    assert "vcdc.codes" in names and not any(name.startswith("vcdc.cli") for name in names)
