"""tools/bench_pairs.py on canned benchmark output from small git trees: no benchmark runs."""

import json
import os
import re
import subprocess
from types import SimpleNamespace

import pytest

from conftest import load_tool

bench_pairs = load_tool("bench_pairs")


def canned_stdout(frames_per_s, rss, digest="616e1bf682cf467a", neg_ln_err=4.41989):
    """The tail of a ``perfbench/run.py --trace 0`` run's standard output."""
    metrics = {"frames_per_s": {"value": frames_per_s, "unit": "1/s"},
               "neg_ln_err": {"value": neg_ln_err, "unit": "nat"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "workload vcdc-ldpc121 seed 1 seconds 5 trace 0",
        f"frames_per_s {frames_per_s:.6g} 1/s",
        "failed_frac 0 (0 of 148 operations)",
        f"bits_digest {digest}",
        json.dumps({"correct": True, "attempted": 148, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def fake_runner(tables):
    """A ``subprocess.run`` stand-in answering from {side: {seed: stdout}},
    the side read from ``side.txt`` in the run's working directory; it
    records (side, seed) per call and the files each run's directory holds."""
    calls, seen = [], []

    def run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        with open(os.path.join(cwd, "side.txt"), encoding="ascii") as fh:
            side = fh.read().strip()
        calls.append((side, seed))
        seen.append((cwd, sorted(os.path.relpath(os.path.join(d, f), cwd)
                                 for d, _, files in os.walk(cwd) for f in files)))
        return SimpleNamespace(stdout=tables[side][seed])
    return run, calls, seen


def git(tree, *args):
    subprocess.run(["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


def make_tree(tree, run_seconds=20):
    """A git repository holding a BENCHMARK.json and ``side.txt``, which
    names the side, both committed."""
    tree.mkdir()
    spec = {"run_seconds": run_seconds, "end_to_end": [{"name": "frames_per_s", "better": "higher", "bound": 0.15},
                           {"name": "neg_ln_err", "better": "higher", "bound": 0.03},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    (tree / "BENCHMARK.json").write_text(json.dumps(spec), encoding="ascii")
    (tree / "side.txt").write_text(tree.name, encoding="ascii")
    git(tree, "init", "-q")
    git(tree, "add", "-A")
    git(tree, "commit", "-q", "-m", "tree")
    return str(tree)


def test_parse_run_reads_the_summary_and_digests():
    correct, metrics, digests = bench_pairs.parse_run(canned_stdout(15489.0, 47.05))
    assert correct
    assert metrics == {"frames_per_s": 15489.0, "neg_ln_err": 4.41989, "peak_rss_mb": 47.05}
    assert digests == [("bits_digest", "616e1bf682cf467a")]


def test_pairs_alternate_with_own_seeds_and_count_moves(tmp_path, capsys):
    base, head = make_tree(tmp_path / "base"), make_tree(tmp_path / "head")
    fps = {"base": [100.0, 110.0, 90.0, 100.0], "head": [120.0, 110.0, 99.0, 130.0]}
    rss = {"base": [40.0, 40.0, 40.0, 40.0], "head": [40.5, 39.0, 40.0, 40.0]}
    tables = {side: {7 + i: canned_stdout(fps[side][i], rss[side][i]) for i in range(4)}
              for side in ("base", "head")}
    run, calls, _ = fake_runner(tables)
    assert bench_pairs.main([base, head, "--workload", "vcdc-ldpc121", "--pairs", "4",
                             "--seed", "7"], run=run) == 0
    assert calls == [("base", 7), ("head", 7), ("head", 8), ("base", 8),
                     ("base", 9), ("head", 9), ("head", 10), ("base", 10)]
    out = capsys.readouterr().out
    # ratios 1.2, 1.0, 1.1, 1.3: median 1.15, three better and one equal
    assert ("median head/base 1.1500; head better in 3, worse in 0, equal in 1 of 4 pairs"
            in out)
    assert "base median 100 [97.5-102.5]" in out
    # peak RSS is better lower: one pair worse, one better, two equal
    assert "head better in 1, worse in 1, equal in 2 of 4 pairs" in out
    assert "digests equal in 4 of 4 pairs" in out and "PROBLEM" not in out
    # 3 of 4 pairs is short of nine tenths, so no gain, and head's quartiles
    # 107.25-122.5 spread wider than the 15% bound on frames/s
    assert "gain: no (head won 3 of 4 pairs; median gap +15, base IQR 5)" in out
    assert ("bound: unresolved (head median 15.00% better than base; bound 15%, "
            "spread 15.25%)") in out
    assert "gain: no (head won 1 of 4 pairs" in out
    assert "bound: worse" not in out and out.count("bound: within") == 2


@pytest.mark.parametrize("flags, seconds", [((), 7), (("--seconds", "3.5"), 3.5)])
def test_runs_last_base_run_seconds_unless_given(tmp_path, capsys, flags, seconds):
    # the run length belongs to the benchmark: BASE's, whatever HEAD's says
    base = make_tree(tmp_path / "base", run_seconds=7)
    head = make_tree(tmp_path / "head", run_seconds=30)
    tables = {side: {1: canned_stdout(100.0, 40.0)} for side in ("base", "head")}
    run, _, _ = fake_runner(tables)
    asked = []

    def timed_run(cmd, cwd, **kwargs):
        asked.append(float(cmd[cmd.index("--seconds") + 1]))
        return run(cmd, cwd, **kwargs)

    assert bench_pairs.main([base, head, "--workload", "vcdc-ldpc121", "--pairs", "1",
                             "--seed", "1", *flags], run=timed_run) == 0
    assert asked == [seconds, seconds]
    assert f"seeds 1-1, {seconds:g} s a run" in capsys.readouterr().out


def test_a_digest_or_quality_that_differs_fails(tmp_path, capsys):
    base, head = make_tree(tmp_path / "base"), make_tree(tmp_path / "head")
    tables = {"base": {1: canned_stdout(100.0, 40.0), 2: canned_stdout(100.0, 40.0)},
              "head": {1: canned_stdout(120.0, 40.0, digest="0000000000000000"),
                       2: canned_stdout(120.0, 40.0, neg_ln_err=4.5)}}
    run, _, _ = fake_runner(tables)
    assert bench_pairs.main([base, head, "--workload", "vcdc-ldpc121", "--pairs", "2",
                             "--seed", "1"], run=run) == 1
    out = capsys.readouterr().out
    assert "PROBLEM pair 0: digests differ" in out
    assert "PROBLEM pair 1: neg_ln_err differs" in out
    assert "digests equal in 1 of 2 pairs" in out


def test_a_failed_run_is_reported_with_its_stderr_after_the_pairs_before_it(tmp_path,
                                                                           capsys):
    # head fails in pair 1, where it runs first: pair 0 is still reported,
    # base never runs seed 2, and the report ends with the failed run's
    # exit status and the tail of its standard error, not a traceback
    base, head = make_tree(tmp_path / "base"), make_tree(tmp_path / "head")
    tables = {side: {s: canned_stdout(100.0, 40.0) for s in (1, 2, 3)}
              for side in ("base", "head")}
    fake, calls, _ = fake_runner(tables)
    stderr = "".join(f"line {i}\n" for i in range(20)) + "ValueError: no such workload\n"

    def run(cmd, cwd, **kwargs):
        out = fake(cmd, cwd, **kwargs)
        if calls[-1] == ("head", 2):
            raise subprocess.CalledProcessError(3, cmd, output=out.stdout, stderr=stderr)
        return out

    assert bench_pairs.main([base, head, "--workload", "vcdc-ldpc121", "--pairs", "3",
                             "--seed", "1"], run=run) == 1
    assert calls == [("base", 1), ("head", 1), ("head", 2)]
    out = capsys.readouterr().out
    assert "1 of 3 pairs run, seeds 1-3" in out and "digests equal in 1 of 1 pairs" in out
    assert "  pair 0: base 100 head 100 ratio 1.0000 equal" in out
    tail = "".join(f"  line {i}\n" for i in range(11, 20))
    assert out.endswith(f"PROBLEM pair 1 seed 2: head run exited 3\n{tail}"
                        f"  ValueError: no such workload\n")
    assert "line 10\n" not in out


def test_a_run_that_fails_in_the_first_pair_reports_no_metrics(tmp_path, capsys):
    base, head = make_tree(tmp_path / "base"), make_tree(tmp_path / "head")

    def run(cmd, cwd, **kwargs):
        raise subprocess.CalledProcessError(1, cmd, output="", stderr="")

    assert bench_pairs.main([base, head, "--workload", "vcdc-ldpc121", "--pairs", "2",
                             "--seed", "5"], run=run) == 1
    out = capsys.readouterr().out
    assert "0 of 2 pairs run" in out and "median" not in out and "digests equal" not in out
    assert out.endswith("PROBLEM pair 0 seed 5: base run exited 1\n")


def test_each_side_runs_from_a_fresh_copy_of_its_visible_files(tmp_path, capsys):
    # the base tree is dirty the way a checkout gets after a test run: an
    # ignored bytecode file, and an untracked file git still sees; the head
    # tree has a tracked file deleted from its working tree
    base, head = make_tree(tmp_path / "base"), make_tree(tmp_path / "head")
    (tmp_path / "base" / ".gitignore").write_text("__pycache__/\n", encoding="ascii")
    git(base, "add", ".gitignore")
    git(base, "commit", "-q", "-m", "ignore bytecode")
    (tmp_path / "base" / "__pycache__").mkdir()
    (tmp_path / "base" / "__pycache__" / "stale.pyc").write_bytes(b"stale")
    (tmp_path / "base" / "notes.txt").write_text("untracked\n", encoding="ascii")
    (tmp_path / "head" / "gone.txt").write_text("tracked\n", encoding="ascii")
    git(head, "add", "gone.txt")
    git(head, "commit", "-q", "-m", "add gone.txt")
    os.remove(tmp_path / "head" / "gone.txt")
    tables = {side: {s: canned_stdout(100.0, 40.0) for s in (1, 2)} for side in ("base", "head")}
    run, calls, seen = fake_runner(tables)
    assert bench_pairs.main([base, head, "--workload", "vcdc-ldpc121", "--pairs", "2",
                             "--seed", "1"], run=run) == 0
    files = {"base": [".gitignore", "BENCHMARK.json", "notes.txt", "side.txt"],
             "head": ["BENCHMARK.json", "side.txt"]}
    dirs = {}
    for (side, _), (cwd, listing) in zip(calls, seen):
        assert listing == files[side]
        # one copy per side for the whole invocation, outside either tree
        assert dirs.setdefault(side, cwd) == cwd and not cwd.startswith(str(tmp_path))
    assert sorted(dirs) == ["base", "head"] and dirs["base"] != dirs["head"]
    # the copies are gone once the tool returns
    assert not any(os.path.exists(cwd) for cwd in dirs.values())
    out = capsys.readouterr().out
    for side, tree in (("base", base), ("head", head)):
        rev = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
        assert f"{side} {tree} at {rev}\n" in out


def test_a_tree_with_uncommitted_edits_prints_another_digest(tmp_path, capsys):
    # a tree and a clone of it at the same commit: one digest while the two
    # hold the same files, another once the tree has an uncommitted edit
    tree = make_tree(tmp_path / "base")
    (tmp_path / "base" / "code.py").write_text("x = 1\n", encoding="ascii")
    git(tree, "add", "code.py")
    git(tree, "commit", "-q", "-m", "add code.py")
    clone = str(tmp_path / "clone")
    git(tmp_path, "clone", "-q", tree, clone)
    tables = {"base": {1: canned_stdout(100.0, 40.0)}}

    def printed():
        run, _, _ = fake_runner(tables)
        assert bench_pairs.main([clone, tree, "--workload", "vcdc-ldpc121", "--pairs", "1",
                                 "--seed", "1"], run=run) == 0
        out = capsys.readouterr().out
        revs = re.findall(r"^(?:base|head) \S+ at (\w+)$", out, re.M)
        digests = re.findall(r"^(?:base|head) files sha256 ([0-9a-f]{64})$", out, re.M)
        assert len(revs) == len(digests) == 2 and revs[0] == revs[1]
        return digests

    same = printed()
    assert same[0] == same[1]
    (tmp_path / "base" / "code.py").write_text("x = 2\n", encoding="ascii")
    edited = printed()
    assert edited[0] == same[0] and edited[1] != same[1]


TEN = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 100.0, 101.5, 98.5, 100.0]


@pytest.mark.parametrize("head, gain", [
    # nine of ten pairs won and a median gap of 5 against a base IQR of 0.75
    ([105.0] * 9 + [99.0], "yes"),
    # eight of ten won: short of nine tenths however wide the gap
    ([105.0] * 8 + [90.0, 90.0], "no"),
    # ten of ten won, but by less than the base IQR
    ([b + 0.5 for b in TEN], "no"),
    # eight won and two tied: a tie wins for neither side
    ([105.0] * 8 + [98.5, 100.0], "no"),
])
def test_gain_needs_nine_tenths_and_a_gap_past_the_base_iqr(head, gain):
    lines = bench_pairs.verdicts("higher", 0.15, TEN, head)
    assert lines[0].startswith(f"  gain: {gain} ")


def test_gain_reads_lower_as_better():
    lines = bench_pairs.verdicts("lower", 0.15, TEN, [95.0] * 10)
    assert lines[0] == "  gain: yes (head won 10 of 10 pairs; median gap +5, base IQR 0.75)"
    assert lines[1] == ("  bound: within (head median 5.00% better than base; "
                        "bound 15%, spread 0.75%)")


@pytest.mark.parametrize("better, head, verdict", [
    # a median 20% worse is past a 15% bound, in either direction
    ("higher", [80.0] * 10, "worse"),
    ("lower", [120.0] * 10, "worse"),
    # 10% worse is inside it
    ("higher", [90.0] * 10, "within"),
    # a head spread of 40 against a 100 median is too wide to tell
    ("higher", [80.0, 120.0] * 5, "unresolved"),
    # unless every head run beats every base run
    ("higher", [102.0, 142.0] * 5, "within"),
])
def test_bound_verdict(better, head, verdict):
    lines = bench_pairs.verdicts(better, 0.15, TEN, head)
    assert lines[1].startswith(f"  bound: {verdict} ")
    if verdict == "worse":
        assert "(head median 20.00% worse than base; bound 15%" in lines[1]
