"""Smoke tests of the benchmark harness: every workload at toy size.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import os

import numpy as np
import pytest

import harness

with open(os.path.join(os.path.dirname(harness.HERE), "BENCHMARK.json"), encoding="ascii") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = harness.run(workload, 3, 0, False, harness.TOY)
    assert result.correct, result.problems
    assert result.attempted > 0
    for m in SPEC["end_to_end"]:
        value = result.metrics[m["name"]]
        assert np.isfinite(value) and value > 0, m["name"]


@pytest.fixture(scope="module")
def traced():
    """One traced toy run per workload, shared by the tests below."""
    from vcdc import bench, denoiser

    before = (bench.run_ber, denoiser.check_minsum_terms)
    runs = {w: harness.run(w, 3, 0, True, harness.TOY) for w in harness.WORKLOADS}
    # the wrappers are gone again after the traced runs
    assert (bench.run_ber, denoiser.check_minsum_terms) == before
    return runs


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(traced, workload):
    # correct also means: counts repeat between the two traced passes, and
    # span self times add up to the traced pass's wall time
    result = traced[workload]
    assert result.correct, result.problems
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in result.metrics]
    assert not missing
    assert result.metrics["overhead.neg_ln_err"] == 0.0


def test_counts_repeat_across_runs_at_one_seed(traced):
    again = harness.run("vcdc-ldpc121", 3, 0, True, harness.TOY)
    counts = [{k: v for k, v in r.metrics.items()
               if k.endswith((".calls", ".rows", "_per_iter", "_per_frame", "mean_steps"))
               or ".steps_hist." in k} for r in (traced["vcdc-ldpc121"], again)]
    assert counts[0] == counts[1]
    assert counts[0]["denoiser.check_update.calls"] > 0


def _hard_decision_claiming_success(llrs):
    nframes = llrs.shape[0]
    return ((llrs < 0).astype(np.uint8), llrs, np.zeros(nframes, dtype=np.int64),
            np.ones(nframes, dtype=bool))


def test_decoder_that_lies_about_syndrome_zero_is_counted_as_failed():
    result = harness.run("bp-ldpc121", 3, 0, False, harness.TOY,
                         decode=_hard_decision_claiming_success)
    assert not result.correct
    assert 0 < result.failed <= result.attempted
    assert any("non-zero syndrome" in p for p in result.problems)


def test_decoder_that_raises_is_counted_as_failed():
    def broken(llrs):
        raise FloatingPointError("boom")

    result = harness.run("vcdc-ldpc121", 3, 0, False, harness.TOY, decode=broken)
    assert result.failed == result.attempted > 0


def test_checkpoint_hash_mismatch_fails_loudly(tmp_path):
    with open(harness.CHECKPOINT, "rb") as fh:
        data = fh.read()
    tampered = tmp_path / "weights.vcdc"
    tampered.write_bytes(data.replace(b"\n0.", b"\n1.", 1))
    harness.load_verified_checkpoint()
    with pytest.raises(RuntimeError, match="sha256"):
        harness.load_verified_checkpoint(str(tampered))
