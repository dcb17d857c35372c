"""Workloads, per-operation checks and metrics of the vcdc benchmark.

Three workloads drive the program through its public entry points,
``vcdc.bench.run_ber`` and ``vcdc.train.train``, in one thread:

- ``bp-ldpc121``: sum-product BP (5 iterations) on ldpc_121_60 at 4 dB;
- ``vcdc-ldpc121``: the reverse-process decoder (T=20) with the committed
  checkpoint on the same code, CSNR, batch size and frames;
- ``train-polar64``: ``train()`` on polar_64_32 with batch 256.

A pass is set-up (repeated, median reported) followed by measurement.  An
untraced run measures for ``seconds``; a traced run makes one untraced and
two traced passes over a fixed amount of work, so that counts can be
compared exactly and tracing overhead is traced minus untraced.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from vcdc import bench, bp, channel, codebook, codes, denoiser, diffusion
from vcdc import train as vtrain
from vcdc.bp import BpConfig
from vcdc.train import TrainConfig

from spans import NullTracer, Patches, Tracer

try:  # the tape is planned to be replaced; its counters then read 0
    from vcdc import autodiff
except ImportError:
    autodiff = None

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "ldpc_121_60.vcdc")
# made by: vcdc train --code ldpc_121_60 --out <dir> --seed 0 --iterations 4000
#          --batch-size 256   (the settings of the VCDC_RUN_SLOW acceptance test)
CHECKPOINT_SHA256 = "28b3f2a5249ef5f775dc4ad75e1d7299ba9fb9d343961024b4474cc61bb7ecf8"

WORKLOADS = ("bp-ldpc121", "vcdc-ldpc121", "train-polar64")
LDPC = "ldpc_121_60"
POLAR = "polar_64_32"
CSNR_DB = 4.0
# time of SpeedGauge's kernel at a quiet moment (about its 5th percentile) of
# the machine the benchmark was defined on: a shared 2-core x86-64 VM with
# Python 3.11 and numpy 2.4 on one OpenBLAS thread
CAL_REF_S = 0.007
BP_ITERS = 5
TIMESTEPS = 20

# per-layer metric prefix -> the end-to-end metric it is predicted to move
MOVERS = {
    "bench.": "frames_per_s on both BER workloads",
    "codebook.encode": "frames_per_s on both BER workloads and train_ms_per_iter",
    "codebook.derive_generator": "setup_s",
    "channel.": "frames_per_s (AWGN and LLR are inline, so their time is in bench.self.s "
                "and train.self.s)",
    "bp.": "frames_per_s and batch_ms_* on bp-ldpc121 only",
    "denoiser.": "frames_per_s and batch_ms_p90 on vcdc-ldpc121; check_update also "
                 "train_ms_per_iter",
    "diffusion.reverse_step": "frames_per_s on vcdc-ldpc121 (about 1% of it)",
    "diffusion.build_schedule": "setup_s",
    "autodiff.": "train_ms_per_iter only",
    "train.": "train_ms_per_iter only",
    "overhead.": "nothing: traced minus untraced value of the end-to-end metric",
    "trace.": "nothing: wall time of the traced pass and the part no span covers",
}


@dataclass(frozen=True)
class Sizes:
    """Work per pass; FULL is the benchmark, TOY the smoke tests."""

    batch: int = 512  # frames per decode_batch call
    call_frames: int = 1024  # frames per run_ber call
    quality_frames: int = 32768  # frames scored for neg_ln_ber, every run
    setups: int = 5
    train_batch: int = 256
    train_iters: int = 200  # iterations per train() call
    quality_calls: int = 2  # train() calls scored for train_loss, every run


FULL = Sizes()
TOY = Sizes(batch=64, call_frames=128, quality_frames=256, setups=2,
            train_batch=64, train_iters=40, quality_calls=1)


@dataclass
class Pass:
    """What one set-up-plus-measurement pass observed.

    Timings are kept by the wall clock, each tagged with the speed-gauge
    interval it fell in, and scaled to the reference speed when reported.
    """

    gauge: "SpeedGauge"
    setups: list = field(default_factory=list)  # (interval, seconds) per set-up
    # (frames, [(interval, seconds), ...]) per run_ber or train() call
    calls: list = field(default_factory=list)
    batches: list = field(default_factory=list)  # (interval, seconds) per batch or iteration
    quality: float = math.nan  # neg_ln_err
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)  # per-layer figures read from outputs
    peak_rss_mb: float = 0.0

    def frames_per_s(self, scale=None):
        scale = scale or self.gauge.scale
        return statistics.median(frames / sum(s / scale(i) for i, s in segments)
                                 for frames, segments in self.calls)

    def end_to_end(self):
        scale = self.gauge.scale
        batch_ms = [1e3 * s / scale(i) for i, s in self.batches]
        return {
            "frames_per_s": self.frames_per_s(),
            "batch_ms_p50": float(np.percentile(batch_ms, 50)),
            "batch_ms_p90": float(np.percentile(batch_ms, 90)),
            "neg_ln_err": self.quality,
            "setup_s": statistics.median(s / scale(i) for i, s in self.setups),
            "peak_rss_mb": self.peak_rss_mb,
        }


@dataclass
class RunResult:
    workload: str
    metrics: dict
    attempted: int
    failed: int
    problems: list
    info: dict
    tracer: Tracer | None = None

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def derive_seed(seed, *path):
    """Independent 32-bit seed for one use of the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_verified_checkpoint(path=CHECKPOINT, sha256=CHECKPOINT_SHA256):
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        raise RuntimeError(f"checkpoint {path} has sha256 {digest}, expected {sha256}")
    return denoiser.load_checkpoint(data)


def load_code(name):
    """Parse a bundled code and check its generator against H."""
    h = codes.load(name)
    gen = codebook.derive_generator(h)
    unit = codebook.encode(gen, np.eye(h.k, dtype=np.uint8))
    if (unit.astype(np.int64) @ h.rows.T.astype(np.int64) % 2).any():
        raise RuntimeError(f"{name}: derived generator violates H G^T = 0")
    return h


class SpeedGauge:
    """Speed of a shared machine over time, from a fixed numpy kernel.

    The kernel (min-sum-like column updates on a fixed random array; it
    belongs to the benchmark, not to vcdc) takes a reading after every
    decode batch and every fifth training iteration, and the time it takes
    is left out of every timing.  On a shared machine identical work can
    take 1.5 times as long a few seconds later, and CPU time drifts with
    wall time.  Readings correlate over about a second, and one reading is
    noisy by about 6%.  So each timing is scaled by the median of the six
    readings around it, relative to CAL_REF_S.  A scale above 1 means the
    machine ran slower than the reference: timings are divided by it and
    rates multiplied by it.
    """

    def __init__(self, tracer):
        self._tracer = tracer
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((512, 121))
        self._cols = [np.sort(rng.choice(121, 12, replace=False)) for _ in range(61)]
        self.readings = []
        self._kernel()  # the first call pays for allocation
        self.read()

    def _kernel(self):
        with self._tracer.span("perfbench.calibrate"):
            t0 = perf_counter()
            x = self._x.copy()
            for c in self._cols:
                xc = x[:, c]
                a = np.abs(xc)
                i = np.argmin(a, axis=-1, keepdims=True)
                x[:, c] = xc + 0.01 * np.where(xc < 0, -1.0, 1.0) \
                    * np.take_along_axis(a, i, axis=-1)
            return perf_counter() - t0

    def read(self):
        """Take a reading; returns the interval it closes (interval i lies
        between readings i and i + 1)."""
        self.readings.append(self._kernel())
        return len(self.readings) - 2

    def scale(self, interval):
        if interval < 0:  # timed before the gauge was attached
            return 1.0
        return float(np.median(self.readings[max(0, interval - 2):interval + 4])) / CAL_REF_S

    def summary(self):
        scales = np.asarray(self.readings) / CAL_REF_S
        return (f"median {np.median(scales):.4f}, range {scales.min():.4f}-"
                f"{scales.max():.4f} over {scales.size} readings (above 1: slower "
                f"than the reference)")


class CheckedDecoder:
    """A ``run_ber`` decoder that times, checks and digests every batch.

    ``decode(llrs)`` returns (bits, beliefs, steps, syndrome_zero) like
    ``vcdc.bp.decode_bp_batch`` and ``vcdc.denoiser.decode_vcdc_batch``.
    The public BpDecoder and VcdcDecoder call those same functions but drop
    the syndrome flag, which the checks need.  A batch fails if the call
    raises, beliefs are non-finite, bits leave {0,1}, steps leave [0, cap],
    or a frame flagged syndrome_zero has a non-zero syndrome.
    """

    def __init__(self, h, name, cap, decode, tracer):
        self.h = h
        self.name = name
        self.cap = cap
        self._decode = decode
        self._tracer = tracer
        self._ht = h.rows.T.astype(np.float64)
        self.reset()

    def reset(self):
        self.gauge = None  # set once set-up is over
        self.decode_s = []  # (gauge interval, seconds) per decode call
        self.segments = []  # (gauge interval, seconds) per batch: synthesis and decode
        self._resume = perf_counter()
        self.attempted = self.failed = 0
        self.problems = []
        self.frames = self.exits = 0
        self.steps_hist = np.zeros(self.cap + 1, dtype=np.int64)
        self.digest = hashlib.sha256()

    def start(self):
        self._resume = perf_counter()

    def finish(self):
        """Add the time since the last batch (run_ber's tally) to it."""
        interval, seconds = self.segments[-1]
        self.segments[-1] = (interval, seconds + perf_counter() - self._resume)

    def decode_batch(self, llrs, csnr_db):
        t0 = perf_counter()
        try:
            out = self._decode(llrs)
        except Exception as exc:  # a failed operation, counted below
            out = exc
        t1 = perf_counter()
        with self._tracer.span("perfbench.check"):
            bits, steps = self._check(llrs, out)
        # the check and the gauge reading are left out of every timing
        interval = self.gauge.read() if self.gauge else -1
        self.decode_s.append((interval, t1 - t0))
        self.segments.append((interval, t1 - self._resume))
        self._tracer.next_op()
        self._resume = perf_counter()
        return bits, steps

    def _problem(self, llrs, out):
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        bits, beliefs, steps, ok = (np.asarray(a) for a in out)
        nframes = llrs.shape[0]
        if (bits.shape != llrs.shape or beliefs.shape != llrs.shape
                or steps.shape != (nframes,) or ok.shape != (nframes,) or ok.dtype != bool):
            return "output shapes or syndrome flag dtype"
        if not np.isfinite(beliefs).all():
            return "non-finite beliefs"
        if not ((bits == 0) | (bits == 1)).all():
            return "bits outside {0,1}"
        if steps.min() < 0 or steps.max() > self.cap:
            return f"steps outside [0, {self.cap}]"
        if (bits[ok].astype(np.float64) @ self._ht % 2).any():
            return "frame flagged syndrome_zero has a non-zero syndrome"
        return None

    def _check(self, llrs, out):
        self.attempted += 1
        problem = self._problem(llrs, out)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{self.name} batch: {problem}")
            if problem.startswith(("raised", "output shapes")):
                return (llrs < 0).astype(np.uint8), np.zeros(llrs.shape[0], dtype=np.int64)
        bits, _, steps, ok = out
        self.frames += bits.shape[0]
        self.exits += int(np.count_nonzero(ok))
        if problem is None:
            self.steps_hist += np.bincount(steps, minlength=self.cap + 1)
        self.digest.update(np.ascontiguousarray(bits, dtype=np.uint8).tobytes())
        return bits, steps


def _ber_decoder(kind, h, tracer, decode=None):
    """(CheckedDecoder, public decoder) for ``kind`` 'bp' or 'vcdc'."""
    if kind == "bp":
        cfg = BpConfig(max_iters=BP_ITERS)
        ei = bp.EdgeIndex(h)

        def run(llrs):
            return bp.decode_bp_batch(h, llrs, cfg, edge_index=ei)

        return CheckedDecoder(h, "bp", BP_ITERS, decode or run, tracer), \
            lambda: bench.BpDecoder(h, cfg)
    weights = load_verified_checkpoint()
    weights.check_code(h)
    sched = diffusion.build_schedule(CSNR_DB, TIMESTEPS, 0.5, h.rate)

    def run(llrs):
        return denoiser.decode_vcdc_batch(h, weights, sched, llrs)

    return CheckedDecoder(h, f"vcdc-t{TIMESTEPS}", TIMESTEPS - 1, decode or run, tracer), \
        lambda: bench.VcdcDecoder(h, weights, timesteps=TIMESTEPS)


def _frames(h, nframes, seed):
    rng = np.random.default_rng(seed)
    code = codebook.encode(codebook.derive_generator(h), rng.integers(0, 2, size=(nframes, h.k)))
    w = float(channel.noise_scale(CSNR_DB, h.k, h.n))
    return channel.to_llr(channel.transmit(codebook.bipolar(code), w, rng), w)


def _matches_public(dec, public, h, seed):
    """The checked decoder returns what the public decoder returns."""
    llrs = _frames(h, 64, derive_seed(seed, 2))
    bits, _, steps, _ = dec._decode(llrs)
    pbits, psteps = public().decode_batch(llrs, CSNR_DB)
    return np.array_equal(bits, pbits) and np.array_equal(steps, psteps)


def _run_ber(h, dec, frames, seed, sizes):
    # an unreachable error target: every call decodes exactly ``frames``
    return bench.run_ber(h, dec, CSNR_DB, stop_errors=frames * h.n + 1, max_frames=frames,
                         seed=seed, code_id=LDPC, batch_frames=sizes.batch, workers=1)


def ber_pass(kind, seed, seconds, sizes, tracer, decode=None):
    """Set up ``sizes.setups`` times, then call run_ber until the quality
    frames are done and ``seconds`` have passed."""
    p = Pass(SpeedGauge(tracer))
    for _ in range(sizes.setups):
        t0 = perf_counter()
        with tracer.span("perfbench.setup"):
            h = load_code(LDPC)
            dec, public = _ber_decoder(kind, h, tracer, decode)
            _run_ber(h, dec, sizes.batch, derive_seed(seed, 1), sizes)
        elapsed = perf_counter() - t0
        p.setups.append((p.gauge.read(), elapsed))
    dec.reset()
    dec.gauge = p.gauge

    rep_frames = sizes.call_frames
    quality_reps = max(1, sizes.quality_frames // rep_frames)
    bit_errors = bits = frame_errors = 0
    start = perf_counter()
    rep = 0
    while rep < quality_reps or perf_counter() - start < seconds:
        first = len(dec.segments)
        dec.start()
        run = _run_ber(h, dec, rep_frames, derive_seed(seed, 0, rep), sizes)
        dec.finish()
        p.calls.append((rep_frames, dec.segments[first:]))
        if run.frames_simulated != rep_frames:
            p.problems.append(f"run_ber decoded {run.frames_simulated} of {rep_frames} frames")
        if rep < quality_reps:
            bit_errors += run.bit_errors
            bits += run.bits_simulated
            frame_errors += run.frame_errors
            if rep == quality_reps - 1:
                p.info["bits_digest"] = dec.digest.hexdigest()[:16]
        rep += 1

    p.batches = dec.decode_s
    p.attempted, p.failed = dec.attempted, dec.failed
    p.problems.extend(dec.problems)
    p.quality = -math.log(bit_errors / bits) if bit_errors else math.log(bits)
    w = float(channel.noise_scale(CSNR_DB, h.k, h.n))
    floor = -math.log(0.5 * math.erfc(1.0 / (w * math.sqrt(2.0))))
    if p.quality <= floor:
        p.problems.append(f"-ln(BER) {p.quality:.3f} is no better than hard decision "
                          f"({floor:.3f})")
    if not tracer.enabled and not dec.failed and not _matches_public(dec, public, h, seed):
        p.problems.append(f"{dec.name}: checked decoder disagrees with the public decoder")
    p.info.update({
        "calls": f"{rep} run_ber calls of {rep_frames} frames, {len(p.batches)} "
                 f"decode_batch calls of {sizes.batch}",
        "neg_ln_ber": f"{p.quality:.6f} nat over {quality_reps * rep_frames} frames, "
                      f"{frame_errors} frame errors",
    })
    key = "bp" if kind == "bp" else "denoiser"
    p.stats = {f"{key}.steps": dec.steps_hist, f"{key}.frames": dec.frames,
               f"{key}.exits": dec.exits}
    p.peak_rss_mb = peak_rss_mb()
    return p


class IterationClock:
    """Training iteration times, read at each Adam step.

    Once ``gauge`` is set, it takes a reading every ``every`` iterations;
    the reading's own time is left out of the next iteration.
    """

    def __init__(self, tracer, every=2):
        self.gauge = None  # set once set-up is over
        self._tracer = tracer
        self._every = every
        self.times = []  # (gauge interval, seconds) per iteration
        self._pending = []
        self._last = perf_counter()

    def read(self):
        if self._pending:
            interval = self.gauge.read() if self.gauge else -1
            self.times.extend((interval, t) for t in self._pending)
            self._pending = []
        self._last = perf_counter()

    def wrap(self, step):
        def shim(*args, **kwargs):
            out = step(*args, **kwargs)
            now = perf_counter()
            self._pending.append(now - self._last)
            self._last = now
            self._tracer.next_op()
            if len(self._pending) == self._every:
                self.read()
            return out
        return shim


def train_pass(seed, seconds, sizes, tracer):
    """Set up ``sizes.setups`` times, then call train() until the quality
    calls are done and ``seconds`` have passed."""
    p = Pass(SpeedGauge(tracer))
    clock = IterationClock(tracer)
    with Patches() as patches:
        patches.replace(vtrain.Adam, "step", clock.wrap)
        for _ in range(sizes.setups):
            t0 = perf_counter()
            with tracer.span("perfbench.setup"):
                h = load_code(POLAR)
                vtrain.train(h, TrainConfig(iterations=2, batch_size=sizes.train_batch,
                                            seed=derive_seed(seed, 1)))
            elapsed = perf_counter() - t0
            p.setups.append((p.gauge.read(), elapsed))

        clock.read()
        clock.gauge = p.gauge

        k = sizes.train_iters
        losses, digest = [], hashlib.sha256()
        start = perf_counter()
        call = 0
        while call < sizes.quality_calls or perf_counter() - start < seconds:
            cfg = TrainConfig(iterations=k, batch_size=sizes.train_batch,
                              seed=derive_seed(seed, 0, call))
            p.attempted += k
            clock.read()
            first = len(clock.times)
            try:
                result = vtrain.train(h, cfg)
            except Exception as exc:  # a failed operation, counted below
                result = exc
            clock.read()
            call += 1
            if isinstance(result, Exception):
                p.failed += k
                p.problems.append(f"train() raised {type(result).__name__}: {result}")
                continue
            iterations = clock.times[first:]
            raw = np.asarray(result.raw_loss)
            if len(iterations) != k or raw.shape != (k,):
                p.problems.append(f"train() made {len(iterations)} Adam steps and "
                                  f"{raw.size} losses for {k} iterations")
            p.calls.append((k * sizes.train_batch, iterations))
            p.batches.extend(iterations)
            p.failed += int(np.count_nonzero(~np.isfinite(raw)))
            if not raw[k // 2:].mean() < raw[:k // 2].mean():
                p.problems.append("training did not reduce the loss")
            if call <= sizes.quality_calls:
                losses.append(result.final_smoothed())
                digest.update(raw.tobytes())
    if not losses:
        raise RuntimeError("no training call succeeded")
    train_loss = float(np.mean(losses))
    p.quality = -math.log(train_loss)
    p.info.update({
        "calls": f"{call} train() calls of {k} iterations, batch {sizes.train_batch}, "
                 f"{len(p.batches)} iteration times",
        "train_loss": f"{train_loss:.8f} (final smoothed loss, mean of the first "
                      f"{sizes.quality_calls} calls)",
        "loss_digest": digest.hexdigest()[:16],
    })
    p.peak_rss_mb = peak_rss_mb()
    return p


def run_pass(workload, seed, seconds, sizes, tracer, decode=None):
    if workload == "train-polar64":
        p = train_pass(seed, seconds, sizes, tracer)
        p.info["train_ms_per_iter"] = f"{p.end_to_end()['batch_ms_p50']:.6f} ms (batch_ms_p50)"
    else:
        p = ber_pass(workload.split("-")[0], seed, seconds, sizes, tracer, decode)
    p.info["wall_clock_frames_per_s"] = f"{p.frames_per_s(lambda i: 1.0):.6g} 1/s (unscaled)"
    p.info["speed_scale"] = p.gauge.summary()
    return p


def instrument(patches, tracer):
    """Wrap every layer boundary the benchmark reports on.

    Functions are wrapped where their callers look them up: run_ber and
    train() call encode through their own module's name for it.
    """
    t, c = tracer.timed, tracer.counted
    targets = [
        (bench, "run_ber", t("bench.run_ber")),
        (bench, "derive_generator", t("codebook.derive_generator")),
        (bench, "encode", t("codebook.encode")),
        (bench, "noise_scale", t("channel.noise_scale")),
        (codebook, "derive_generator", t("codebook.derive_generator")),
        (codes, "load", t("codes.load")),
        (bp, "decode_bp_batch", t("bp.decode")),
        (bp, "_check_sweep_sumproduct", t("bp.check_sweep")),
        (bp, "_check_sweep_minsum", t("bp.check_sweep")),
        (bp.EdgeIndex, "belief_sums", t("bp.belief_sums")),
        (bp.EdgeIndex, "__init__", t("bp.edge_index")),
        (denoiser, "decode_vcdc_batch", t("denoiser.decode")),
        (denoiser, "check_minsum_terms", t("denoiser.check_update", rows=True)),
        (denoiser, "neural_block", t("denoiser.final_block")),
        (denoiser, "load_checkpoint", t("denoiser.load_checkpoint")),
        (denoiser, "reverse_step", t("diffusion.reverse_step")),
        (diffusion, "build_schedule", t("diffusion.build_schedule")),
        (vtrain, "train", t("train.train")),
        (vtrain, "derive_generator", t("codebook.derive_generator")),
        (vtrain, "encode", t("codebook.encode")),
        (vtrain, "noise_scale", t("channel.noise_scale")),
        (vtrain, "check_minsum_terms", t("denoiser.check_update", rows=True)),
        (vtrain, "neural_block_tape", t("train.forward")),
        (vtrain.Adam, "step", t("train.adam")),
    ]
    if autodiff is not None:
        targets += [(autodiff.Var, "backward", t("autodiff.backward")),
                    (autodiff.Var, "__init__", c("autodiff.nodes"))]
    for owner, attr, make in targets:
        patches.replace(owner, attr, make)


def per_layer(tracer, stats):
    """Per-layer metrics of one traced pass."""
    calls, total, self_s = tracer.summary()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    bp_steps = stats.get("bp.steps", np.zeros(1, dtype=np.int64))
    dn_steps = stats.get("denoiser.steps", np.zeros(TIMESTEPS, dtype=np.int64))
    bp_frames = stats.get("bp.frames", 0)
    dn_frames = stats.get("denoiser.frames", 0)
    m = {
        "bench.run_ber.s": total["bench.run_ber"] - total["perfbench.check"],
        "bench.self.s": self_s["bench.run_ber"],
        "codebook.encode.calls": calls["codebook.encode"],
        "codebook.encode.s": total["codebook.encode"],
        "codebook.derive_generator.s": total["codebook.derive_generator"],
        "channel.noise_scale.calls": calls["channel.noise_scale"],
        "bp.decode.s": total["bp.decode"],
        "bp.check_sweep.calls": calls["bp.check_sweep"],
        "bp.check_sweep.s": total["bp.check_sweep"],
        "bp.belief_sums.s": total["bp.belief_sums"],
        "bp.decode.self_s": self_s["bp.decode"],
        "bp.iters_per_frame": ratio(float(bp_steps @ np.arange(bp_steps.size)), bp_frames),
        "bp.early_exit_frac": ratio(stats.get("bp.exits", 0), bp_frames),
        "denoiser.decode.s": total["denoiser.decode"],
        "denoiser.check_update.calls": calls["denoiser.check_update"],
        "denoiser.check_update.rows": counts["denoiser.check_update.rows"],
        "denoiser.check_update.s": total["denoiser.check_update"],
        "denoiser.final_block.s": total["denoiser.final_block"],
        "denoiser.decode.self_s": self_s["denoiser.decode"],
        "denoiser.mean_steps": ratio(float(dn_steps @ np.arange(dn_steps.size)), dn_frames),
        "denoiser.exit_frac": ratio(stats.get("denoiser.exits", 0), dn_frames),
        "diffusion.reverse_step.calls": calls["diffusion.reverse_step"],
        "diffusion.reverse_step.s": total["diffusion.reverse_step"],
        "diffusion.build_schedule.s": total["diffusion.build_schedule"],
        "autodiff.nodes_per_iter": ratio(counts["autodiff.nodes"], calls["train.adam"]),
        "autodiff.backward.s": total["autodiff.backward"],
        "train.forward.s": total["train.forward"],
        "train.adam.s": total["train.adam"],
        "train.self.s": self_s["train.train"],
    }
    for step, frames in enumerate(dn_steps):
        m[f"denoiser.steps_hist.{step}"] = int(frames)
    return m


def _counts(tracer, p):
    """Everything a traced pass counts: span calls, counters, step histograms."""
    return (dict(tracer.summary()[0]), dict(tracer.counts),
            {k: np.asarray(v).tolist() for k, v in p.stats.items()})


def run(workload, seed, seconds, trace, sizes=FULL, decode=None):
    """One benchmark run; ``decode`` replaces the BER decoder (tests)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not trace:
        p = run_pass(workload, seed, seconds, sizes, NullTracer(), decode)
        return RunResult(workload, p.end_to_end(), p.attempted, p.failed, p.problems, p.info)

    # fixed work (seconds=0): the quality frames or calls, untraced then twice traced
    plain = run_pass(workload, seed, 0, sizes, NullTracer(), decode)
    traced = []
    for _ in range(2):
        tracer = Tracer()
        with Patches() as patches:
            instrument(patches, tracer)
            t0 = perf_counter()
            with tracer.span("perfbench.pass"):
                p = run_pass(workload, seed, 0, sizes, tracer, decode)
            wall = perf_counter() - t0
        traced.append((tracer, p, wall, per_layer(tracer, p.stats)))
    tracer, p, wall, metrics = traced[0]
    problems = plain.problems + p.problems + traced[1][1].problems
    first, second = (_counts(t, q) for t, q, _, _ in traced)
    if first != second:
        problems.append("span calls, counters or step histograms differ between two "
                        "traced passes at one seed")
    digests = ("bits_digest", "loss_digest")
    if [plain.info.get(d) for d in digests] != [p.info.get(d) for d in digests]:
        problems.append("tracing changed the decoded bits or the loss curve")
    _, _, self_s = tracer.summary()
    unattributed = wall - sum(self_s.values())
    if abs(unattributed) > 1e-3 + 1e-3 * wall:
        problems.append(f"span self times miss {unattributed:.6f} s of {wall:.6f} s wall")
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = unattributed
    base, with_trace = plain.end_to_end(), p.end_to_end()
    for name, value in base.items():
        metrics[f"overhead.{name}"] = with_trace[name] - value
    info = dict(p.info)
    if patches.missing:
        info["not_instrumented"] = ", ".join(patches.missing)
    attempted = plain.attempted + sum(q.attempted for _, q, _, _ in traced)
    failed = plain.failed + sum(q.failed for _, q, _, _ in traced)
    return RunResult(workload, metrics, attempted, failed, problems, info, tracer)
