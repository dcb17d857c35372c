import csv
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vcdc import codes
from vcdc.bench import BerRun
from vcdc.codebook import ParityCheckMatrix, derive_generator, encode


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
    return ParityCheckMatrix.from_rows(h)


def random_layered_code(seed, n, m):
    """A random m x n parity-check matrix whose consecutive checks mix
    degrees (2 to 5) and mix disjoint with overlapping variable sets, so its
    layer groups mix single checks with runs of several.  Neither full rank
    nor cycle free."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((m, n), dtype=np.uint8)
    degree, run = 2, set()
    for c in range(m):
        if rng.random() < 0.3:
            degree = int(rng.integers(2, min(5, n) + 1))
        free = np.setdiff1d(np.arange(n), sorted(run))
        if rng.random() < 0.7 and free.size >= degree:
            cols = rng.choice(free, degree, replace=False)
        else:
            cols = rng.choice(n, degree, replace=False)
            run = set()
        run.update(cols.tolist())
        rows[c, cols] = 1
    return ParityCheckMatrix.from_rows(rows)


def enumerate_codewords(h):
    """All 2^k codewords by exhaustive message enumeration."""
    g = derive_generator(h)
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
