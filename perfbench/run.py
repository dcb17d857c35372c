"""Run the vcdc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload bp-ldpc121 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace 1``
every per-layer metric; either way the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout.  A run record goes
to ``perfbench/out/`` and, for traced runs, the spans as JSON lines.
"""

import os
import sys

# one BLAS thread and one run_ber worker, fixed before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VCDC_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import vcdc  # noqa: E402

if not os.path.abspath(vcdc.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise ImportError(f"vcdc was imported from {vcdc.__file__}, not from {ROOT}/src")

import harness  # noqa: E402


def git_sha(root=ROOT):
    """HEAD commit read from .git without running git; 'none' outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name(), "blas_threads": 1,
            "run_ber_workers": 1, "git_sha": git_sha()}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args):
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = declared_metrics(args.trace)
    missing = [name for name, _ in declared if name not in result.metrics]
    if missing:
        raise RuntimeError(f"harness does not produce {', '.join(missing)}")
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in declared}
    facts = machine()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("note: one thread; the run_ber thread pool (workers > 1) is not exercised")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    frac = result.failed / result.attempted if result.attempted else 0.0
    print(f"failed_frac {frac:.6g} ({result.failed} of {result.attempted} operations)")
    for key, value in result.info.items():
        print(f"{key} {value}")
    for problem in result.problems:
        print(f"PROBLEM {problem}")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if result.tracer is not None:
        for prefix, text in harness.MOVERS.items():
            print(f"predicted mover of {prefix}*: {text}")
        calls, total, self_s = result.tracer.summary()
        print(f"{'span':32} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for name in sorted(total, key=total.get, reverse=True):
            print(f"{name:32} {calls[name]:9d} {total[name]:10.4f} {self_s[name]:10.4f}")
        result.tracer.write_jsonl(stem + "-spans.jsonl")
    summary = {"correct": result.correct, "attempted": result.attempted,
               "failed": result.failed, "metrics": metrics}
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": facts, "info": result.info,
                   "problems": result.problems, **summary}, fh, indent=1)
    print(json.dumps(summary))


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in harness.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} exited with code {proc.returncode}")
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, m in summary["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
        print()
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(harness.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
