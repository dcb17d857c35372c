"""tools/bench_pairs.py on canned benchmark output: no benchmark runs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


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
    """A ``subprocess.run`` stand-in answering from {tree: {seed: stdout}}
    and recording (tree, seed) per call."""
    calls = []

    def run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        calls.append((cwd, seed))
        return SimpleNamespace(stdout=tables[cwd][seed])
    return run, calls


def write_spec(tree):
    tree.mkdir()
    spec = {"end_to_end": [{"name": "frames_per_s", "better": "higher"},
                           {"name": "neg_ln_err", "better": "higher"},
                           {"name": "peak_rss_mb", "better": "lower"}]}
    (tree / "BENCHMARK.json").write_text(json.dumps(spec), encoding="ascii")
    return str(tree)


def test_parse_run_reads_the_summary_and_digests():
    correct, metrics, digests = bench_pairs.parse_run(canned_stdout(15489.0, 47.05))
    assert correct
    assert metrics == {"frames_per_s": 15489.0, "neg_ln_err": 4.41989, "peak_rss_mb": 47.05}
    assert digests == [("bits_digest", "616e1bf682cf467a")]


def test_pairs_alternate_with_own_seeds_and_count_moves(tmp_path, capsys):
    base, head = write_spec(tmp_path / "base"), str(tmp_path / "head")
    fps = {"base": [100.0, 110.0, 90.0, 100.0], "head": [120.0, 110.0, 99.0, 130.0]}
    rss = {"base": [40.0, 40.0, 40.0, 40.0], "head": [40.5, 39.0, 40.0, 40.0]}
    tables = {tree: {7 + i: canned_stdout(fps[side][i], rss[side][i]) for i in range(4)}
              for side, tree in (("base", base), ("head", head))}
    run, calls = fake_runner(tables)
    assert bench_pairs.main([base, head, "--workload", "vcdc-ldpc121", "--pairs", "4",
                             "--seed", "7"], run=run) == 0
    assert calls == [(base, 7), (head, 7), (head, 8), (base, 8),
                     (base, 9), (head, 9), (head, 10), (base, 10)]
    out = capsys.readouterr().out
    # ratios 1.2, 1.0, 1.1, 1.3: median 1.15, three better and one equal
    assert ("median head/base 1.1500; head better in 3, worse in 0, equal in 1 of 4 pairs"
            in out)
    assert "base median 100 [97.5-102.5]" in out
    # peak RSS is better lower: one pair worse, one better, two equal
    assert "head better in 1, worse in 1, equal in 2 of 4 pairs" in out
    assert "digests equal in 4 of 4 pairs" in out and "PROBLEM" not in out


def test_a_digest_or_quality_that_differs_fails(tmp_path, capsys):
    base, head = write_spec(tmp_path / "base"), str(tmp_path / "head")
    tables = {base: {1: canned_stdout(100.0, 40.0), 2: canned_stdout(100.0, 40.0)},
              head: {1: canned_stdout(120.0, 40.0, digest="0000000000000000"),
                     2: canned_stdout(120.0, 40.0, neg_ln_err=4.5)}}
    run, _ = fake_runner(tables)
    assert bench_pairs.main([base, head, "--workload", "vcdc-ldpc121", "--pairs", "2",
                             "--seed", "1"], run=run) == 1
    out = capsys.readouterr().out
    assert "PROBLEM pair 0: digests differ" in out
    assert "PROBLEM pair 1: neg_ln_err differs" in out
    assert "digests equal in 1 of 2 pairs" in out
