"""Run the benchmark alternately from two source trees and compare them pair by pair.

    python3 tools/bench_pairs.py BASE HEAD --workload vcdc-ldpc121 --pairs 10 \
        --seed 9101

BASE and HEAD are git checkouts, for example a ``git worktree`` or a
clone of the parent commit and the working tree.  Each side runs from a
fresh copy of its tree's git-visible files (tracked, and untracked but not
ignored), made once in a temporary directory and removed at exit, so
ignored leftovers (``__pycache__/``, ``.pytest_cache/``, ``perfbench/out/``)
cannot differ between the sides.  The tool prints each tree's ``git
rev-parse HEAD``, which the copies do not carry, and a sha256 of its copied
files taken over their sorted paths and contents, which tells a tree with
uncommitted edits from a checkout of its HEAD.  Pair i runs
``perfbench/run.py --trace 0`` once from each copy, both with seed ``seed + i``; BASE runs
first in even pairs and HEAD in odd ones.  A run lasts ``--seconds``, by default
the ``run_seconds`` of BASE's ``BENCHMARK.json``.  For every end-to-end metric the
tool prints each pair's values, the median and quartiles of each side, the
median head/base ratio, and in how many pairs HEAD was better, worse or
equal, by the direction BASE's ``BENCHMARK.json`` gives the metric.  Two
verdict lines follow.  ``gain`` is yes when HEAD won at least nine tenths
of the pairs (ties win for neither side) and its median is better than
BASE's by more than the distance between BASE's quartiles.  ``bound`` is
worse when HEAD's median is worse than BASE's by more than the metric's
relative bound; else unresolved when either side's quartile distance,
relative to BASE's median, exceeds the bound and not every HEAD run beats
every BASE run; else within.  The output digests a run prints
(``bits_digest``, ``loss_digest``) and ``neg_ln_err`` must be equal in
every pair.  A run that exits non-zero ends the pairs: the tool reports
the pairs run before it, then the failed run's exit status and the last
lines of its standard error.  Exits 1 when a digest or ``neg_ln_err``
differs, a run reports itself incorrect or a run fails, else 0; the
verdicts do not set the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

DIGESTS = ("bits_digest", "loss_digest")
# the lines of a failed run's standard error that its report repeats
STDERR_LINES = 10


def parse_run(stdout):
    """(correct, {metric: value}, [(digest name, value), ...]) of one run's
    standard output, whose last line is the run's JSON summary."""
    lines = stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    digests = []
    for line in lines:
        key, _, value = line.partition(" ")
        if key in DIGESTS:
            digests.append((key, value))
    return summary["correct"], metrics, digests


def git(tree, *args):
    """Standard output of ``git -C tree ARGS``."""
    return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True,
                          check=True).stdout


def copy_tree(tree, into):
    """Copy the git-visible files of the checkout ``tree`` (tracked, and
    untracked but not ignored) into the new directory ``into``; a tracked
    file deleted from the working tree is left out, as it is from ``tree``.
    Returns the sha256 hex digest of the copied files: each one's path, a
    NUL and the sha256 of its contents, in sorted path order."""
    listed = git(tree, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    digest = hashlib.sha256()
    for name in sorted(filter(None, listed.split("\0"))):
        source = os.path.join(tree, name)
        if os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(into, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(into, name))
            with open(source, "rb") as fh:
                digest.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def run_tree(tree, workload, seed, seconds, run=subprocess.run):
    """One untraced benchmark run from the source tree ``tree``, parsed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def read_benchmark(tree):
    """``tree``'s BENCHMARK.json, parsed."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdicts(better, bound, base, head):
    """The gain and bound verdict lines of one metric over paired ``base``
    and ``head`` values, as the module docstring defines them."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    (b1, b2, b3), (h1, h2, h3) = quartiles(base), quartiles(head)
    gap = sign * (h2 - b2)  # positive when HEAD's median is better
    won = 10 * wins >= 9 * len(base) and gap > b3 - b1
    gain = (f"  gain: {'yes' if won else 'no'} (head won {wins} of {len(base)} pairs; "
            f"median gap {gap:+.6g}, base IQR {b3 - b1:.6g})")
    change = gap / abs(b2) if b2 else 0.0
    spread = max(b3 - b1, h3 - h1) / abs(b2) if b2 else 0.0
    if -change > bound:
        verdict = "worse"
    elif spread > bound and min(sign * h for h in head) <= max(sign * b for b in base):
        verdict = "unresolved"
    else:
        verdict = "within"
    way = "better" if change >= 0 else "worse"
    return [gain, f"  bound: {verdict} (head median {abs(change):.2%} {way} than base; "
                  f"bound {bound:.0%}, spread {spread:.2%})"]


def compare(name, better, bound, base, head):
    """Report lines for one metric over paired ``base`` and ``head`` values."""
    lines = [f"{name} ({better} is better)"]
    moved = {"better": 0, "worse": 0, "equal": 0}
    ratios = []
    for i, (b, h) in enumerate(zip(base, head)):
        ratio = h / b if b else float("nan")
        ratios.append(ratio)
        way = "equal" if h == b else "better" if (h > b) == (better == "higher") else "worse"
        moved[way] += 1
        lines.append(f"  pair {i}: base {b:.6g} head {h:.6g} ratio {ratio:.4f} {way}")
    for side, values in (("base", base), ("head", head)):
        q1, q2, q3 = quartiles(values)
        lines.append(f"  {side} median {q2:.6g} [{q1:.6g}-{q3:.6g}]")
    lines.append(f"  median head/base {statistics.median(ratios):.4f}; head better in "
                 f"{moved['better']}, worse in {moved['worse']}, equal in {moved['equal']} "
                 f"of {len(ratios)} pairs")
    return lines + verdicts(better, bound, base, head)


def main(argv=None, run=subprocess.run):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="source checkout of the base commit")
    ap.add_argument("head", help="source checkout of the change")
    ap.add_argument("--workload", required=True, help="a workload of perfbench/run.py, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="length of a run (default: BASE's BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        copies = {}
        for side in ("base", "head"):
            tree = getattr(args, side)
            print(f"{side} {tree} at {git(tree, 'rev-parse', 'HEAD').strip()}")
            copies[side] = os.path.join(scratch, side)
            print(f"{side} files sha256 {copy_tree(tree, copies[side])}")
        return run_pairs(args, copies, run)


def run_pairs(args, copies, run):
    """Run the pairs from the tree ``copies`` {side: directory} and report them."""
    spec = read_benchmark(copies["base"])
    # {end-to-end metric: ("higher" or "lower", relative bound)}
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = {"base": [], "head": []}
    problems = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        try:
            for side in order:
                runs[side].append(run_tree(copies[side], args.workload, seed, seconds, run))
                print(f"pair {i} seed {seed}: ran {side}", file=sys.stderr)
        except subprocess.CalledProcessError as exc:
            # report the pairs run so far, and why this one stopped
            tail = (exc.stderr or "").strip().splitlines()[-STDERR_LINES:]
            problems.append("\n".join([f"pair {i} seed {seed}: {side} run exited "
                                       f"{exc.returncode}", *("  " + line for line in tail)]))
            runs[order[0]] = runs[order[0]][:i]
            break
        (base_ok, base_m, base_d), (head_ok, head_m, head_d) = runs["base"][-1], runs["head"][-1]
        if not (base_ok and head_ok):
            problems.append(f"pair {i}: a run reports itself incorrect")
        if base_d != head_d:
            problems.append(f"pair {i}: digests differ: base {base_d}, head {head_d}")
        for name in base_m:
            if name.rsplit(".", 1)[-1] == "neg_ln_err" and base_m[name] != head_m[name]:
                problems.append(f"pair {i}: {name} differs: base {base_m[name]!r}, "
                                f"head {head_m[name]!r}")

    pairs = len(runs["base"])
    print(f"workload {args.workload}, {pairs} of {args.pairs} pairs run, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, {seconds:g} s a run")
    if pairs:
        for name in runs["base"][0][1]:
            direction, bound = better[name.rsplit(".", 1)[-1]]
            base = [m[name] for _, m, _ in runs["base"]]
            head = [m[name] for _, m, _ in runs["head"]]
            print("\n".join(compare(name, direction, bound, base, head)))
        digests = [d for _, _, d in runs["base"]]
        print(f"digests equal in {sum(b == h for b, (_, _, h) in zip(digests, runs['head']))} "
              f"of {pairs} pairs; pair 0: {' '.join('='.join(d) for d in digests[0])}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
