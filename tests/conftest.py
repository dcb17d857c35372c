import csv
import importlib.util
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from vcdc import codes
from vcdc.bench import BerRun, run_ber
from vcdc.codebook import ParityCheckMatrix, _row_reduce, encode
from vcdc.denoiser import NeuralBlockWeights


def numeric_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (fn(xp) - fn(xm)) / (2 * eps)
        it.iternext()
    return grad


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    """The script tools/<name>.py as a module, loaded by path; ``sys.path``,
    which a tool may extend as it loads, is left as it was."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def assert_same_bits(a, b):
    """``a`` and ``b`` are float64 arrays of one shape with equal bit patterns
    (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


def traced_peak(fn):
    """Bytes by which a second call of ``fn()`` raises the traced memory peak
    above what was allocated before it; numpy reports its data buffers to
    ``tracemalloc``."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# the run_ber settings tests share unless they give their own: the CLI's
# error target, seed and batch, and one code id; a max_frames of None is
# the CLI's 1e8-bit frame budget
BER_SETTINGS = {"stop_errors": 100, "max_frames": None, "seed": 0, "code_id": "code",
                "batch_frames": 512}


def ber_run(h, decoder, csnr_db, **settings):
    """``vcdc.bench.run_ber`` with ``BER_SETTINGS`` for each setting not given."""
    settings = {**BER_SETTINGS, **settings}
    if settings["max_frames"] is None:
        settings["max_frames"] = max(1, 10**8 // h.n)
    return run_ber(h, decoder, csnr_db, **settings)


def read_results_csv(path):
    """Parse a results.csv back into BerRun records."""
    runs = []
    with open(path, newline="", encoding="ascii") as fh:
        for row in csv.DictReader(fh):
            runs.append(BerRun(
                code_id=row["code"], n=int(row["n"]), k=int(row["k"]),
                decoder_id=row["decoder"], csnr_db=float(row["csnr_db"]),
                bit_errors=int(row["bit_errors"]), bits_simulated=int(row["bits"]),
                frames_simulated=int(row["frames"]), frame_errors=int(row["frame_errors"]),
                mean_steps_used=float(row["mean_steps"]),
                censored=bool(int(row["censored"])), seed=int(row["seed"])))
    return runs


def bundled_codes():
    """Names of the codes bundled in ``vcdc.codes``."""
    return sorted(p.name.removesuffix(".alist") for p in resources.files(codes).iterdir()
                  if p.name.endswith(".alist"))


def zero_weights(h):
    """All-zero layer weights for ``h``, with which the block is the
    identity on beliefs."""
    return NeuralBlockWeights(values=np.zeros(h.num_checks), n=h.n, k=h.k)


def tied_rows(rng, rows, d):
    """``rows`` check rows of degree ``d`` drawn from both zeros and four
    other values of two magnitudes: most rows tie their least magnitudes,
    and many hold a zero of either sign."""
    return rng.choice([0.0, -0.0, 1.5, -1.5, 2.0, -2.0], (rows, d))


def overflowing_weights_and_llrs(h, frames):
    """Weights drawn from +-1e300 and +-1e200 and ``frames`` rows of N(2, 2)
    LLRs: one block on these overflows to NaN beliefs in every frame that
    does not exit at the entry test."""
    rng = np.random.default_rng(1)
    values = rng.choice([1e300, -1e300, 1e200, -1e200], h.num_checks)
    return NeuralBlockWeights(values, h.n, h.k), rng.normal(2.0, np.sqrt(2.0), (frames, h.n))


def infinite_weights_and_llrs(h, frames):
    """Weights 0.3 but check 0's 1e308, which a checkpoint accepts, and
    ``frames`` rows of N(2, 2) LLRs: a block on these overflows the beliefs
    of some frames to +-inf with no inf - inf, so with no NaN."""
    values = np.full(h.num_checks, 0.3)
    values[0] = 1e308
    llrs = np.random.default_rng(0).normal(2.0, np.sqrt(2.0), (frames, h.n))
    return NeuralBlockWeights(values, h.n, h.k), llrs


@pytest.fixture(scope="session")
def hamming():
    return codes.load("hamming_7_4")


@pytest.fixture(scope="session")
def ldpc_121_60():
    return codes.load("ldpc_121_60")


@pytest.fixture(scope="session")
def ldpc_49_24():
    return codes.load("ldpc_49_24")


@pytest.fixture(scope="session")
def polar_64_32():
    return codes.load("polar_64_32")


def adjacency(mat):
    """The column indices of the nonzero entries of each row of the 0/1
    matrix ``mat``, a tuple of ascending int tuples: ``adjacency(h.rows)``
    gives each check's variables, ``adjacency(h.rows.T)`` each variable's
    checks."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in mat)


def gf2_rank(mat):
    """Rank of a binary matrix over GF(2)."""
    return len(_row_reduce(np.array(mat, dtype=np.uint8)))


def make_tree_code(num_checks):
    """Cycle-free code: each check joins one frontier variable to two fresh
    ones, so the Tanner graph is a connected tree with n = 2m + 1."""
    rows = []
    frontier = [0]
    next_var = 1
    for _ in range(num_checks):
        parent = frontier.pop(0)
        a, b = next_var, next_var + 1
        next_var += 2
        rows.append((parent, a, b))
        frontier.extend([a, b])
    n = next_var
    h = np.zeros((num_checks, n), dtype=np.uint8)
    for c, (p, a, b) in enumerate(rows):
        h[c, [p, a, b]] = 1
    # tree: edges == nodes - 1 in the bipartite graph
    assert h.sum() == n + num_checks - 1
    return ParityCheckMatrix(h)


def random_layered_code(seed, n, m):
    """A random m x n parity-check matrix whose consecutive checks mix
    degrees (2 to 5) and mix disjoint with overlapping variable sets, so its
    layer groups mix single checks with runs of several.  Neither full rank
    nor cycle free; from m = n on, the last variable is in no check, so the
    rank stays below n however many checks there are."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((m, n), dtype=np.uint8)
    width = n - 1 if m >= n else n
    degree, run = 2, set()
    for c in range(m):
        if rng.random() < 0.3:
            degree = int(rng.integers(2, min(5, width) + 1))
        free = np.setdiff1d(np.arange(width), sorted(run))
        if rng.random() < 0.7 and free.size >= degree:
            cols = rng.choice(free, degree, replace=False)
        else:
            cols = rng.choice(width, degree, replace=False)
            run = set()
        run.update(cols.tolist())
        rows[c, cols] = 1
    return ParityCheckMatrix(rows)


def enumerate_codewords(h):
    """All 2^k codewords by exhaustive message enumeration."""
    g = h.generator
    msgs = np.array(np.meshgrid(*[[0, 1]] * h.k, indexing="ij"),
                    dtype=np.uint8).reshape(h.k, -1).T
    return encode(g, msgs)


def map_marginals(h, llr):
    """Exact bitwise posterior LLRs by summing over all codewords.

    Codeword log-likelihood up to a constant is sum((1 - 2b) * l / 2).
    """
    cws = enumerate_codewords(h)
    scores = (1.0 - 2.0 * cws.astype(np.float64)) @ (np.asarray(llr) / 2.0)
    out = np.empty(h.n)
    for v in range(h.n):
        zero = scores[cws[:, v] == 0]
        one = scores[cws[:, v] == 1]
        out[v] = np.logaddexp.reduce(zero) - np.logaddexp.reduce(one)
    return out
