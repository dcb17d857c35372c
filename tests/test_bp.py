import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcdc import bp, codes
from vcdc.bench import channel_frames
from vcdc.bp import (ATANH_EPS, BROADCAST_ROW, LLR_CLAMP, BpConfig, EdgeIndex, MIN_SUM,
                     SUM_PRODUCT, RunningSet, _two_least, check_minsum_terms, decode_bp_batch,
                     minsum_work_size)
from vcdc.codebook import ParityCheckMatrix, _row_reduce, bipolar, encode, syndrome
from vcdc.channel import hard_decide, noise_scale
from vcdc.train import minsum_backward, minsum_routing

import serial
from conftest import (adjacency, assert_same_bits, bundled_codes, make_tree_code, map_marginals,
                      tied_rows, traced_peak)


# Per-edge BP update rules as scalar functions: the semantics the batch
# decoder vectorizes, spelled out one message at a time.

def check_update_sumproduct(incoming):
    """Exact extrinsic check update 2*arctanh(prod tanh(u/2)) for one edge."""
    incoming = np.asarray(incoming, dtype=np.float64)
    if incoming.size == 0:
        raise ValueError("check update needs at least one incoming message")
    prod = np.clip(np.prod(np.tanh(incoming / 2.0)), -(1 - ATANH_EPS), 1 - ATANH_EPS)
    return float(2.0 * np.arctanh(prod))


def check_update_minsum(incoming):
    """Min-sum approximation: sign product times minimum magnitude, sign(0)=+1."""
    incoming = np.asarray(incoming, dtype=np.float64)
    if incoming.size == 0:
        raise ValueError("check update needs at least one incoming message")
    signs = np.where(incoming < 0, -1.0, 1.0)
    return float(np.prod(signs) * np.min(np.abs(incoming)))


def variable_update(l_v, incoming, message_clamp=30.0):
    """Extrinsic variable-to-check message: channel LLR plus incoming sum."""
    total = float(l_v) + float(np.sum(incoming))
    return float(np.clip(total, -message_clamp, message_clamp))


def belief(l_v, incoming):
    """Posterior LLR: channel LLR plus all incoming check messages."""
    return float(l_v) + float(np.sum(incoming))


def reference_decode(h, llr, cfg):
    """Straightforward per-edge flooding BP mirroring the documented
    semantics; the vectorized decoder must agree with it.

    Returns (bits, beliefs, iterations, ok, decided): ``decided`` is whether
    every belief its exit tests read, those of the variables in a check, lay
    beyond 1e-9 of zero.  Within that tolerance a belief's sign is not
    determined, so neither is the exit test's outcome nor the run after it.
    """
    l = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLAMP, LLR_CLAMP)
    chk_adj, var_adj = adjacency(h.rows), adjacency(h.rows.T)
    read, decided = h.rows.any(axis=0), True
    v2c = {}
    for c, vs in enumerate(chk_adj):
        for v in vs:
            v2c[(c, v)] = float(np.clip(l[v], -bp.MESSAGE_CLAMP, bp.MESSAGE_CLAMP))
    update = (check_update_sumproduct if cfg.variant == "sum-product"
              else check_update_minsum)
    for it in range(1, cfg.max_iters + 1):
        c2v = {}
        for c, vs in enumerate(chk_adj):
            for v in vs:
                incoming = [v2c[(c, vp)] for vp in vs if vp != v]
                c2v[(c, v)] = update(incoming)
        beliefs = np.array([belief(l[v], [c2v[(c, v)] for c in var_adj[v]])
                            for v in range(h.n)])
        bits = hard_decide(beliefs)
        _, nerr = syndrome(h, bits)
        decided &= bool((np.abs(beliefs[read]) > 1e-9).all())
        if nerr == 0 or it == cfg.max_iters:
            return bits, beliefs, it, nerr == 0, decided
        for c, vs in enumerate(chk_adj):
            for v in vs:
                extrinsic = beliefs[v] - c2v[(c, v)]
                v2c[(c, v)] = float(np.clip(extrinsic, -bp.MESSAGE_CLAMP, bp.MESSAGE_CLAMP))
    raise AssertionError("unreachable")


class TestCheckUpdates:
    def test_sumproduct_zero_annihilates(self):
        assert check_update_sumproduct([0.0, 3.0, -2.0]) == 0.0

    def test_sumproduct_frozen_value(self):
        # 2*atanh(tanh(1)*tanh(-1/2)), 40-digit oracle
        assert check_update_sumproduct([2.0, -1.0]) == pytest.approx(
            -0.735325664056, abs=1e-9)

    def test_sumproduct_single_input_passthrough(self):
        for a in (-4.0, 0.5, 12.0):
            assert check_update_sumproduct([a]) == pytest.approx(a, rel=1e-12)

    def test_sumproduct_clamp_keeps_result_finite(self):
        out = check_update_sumproduct([1e9, 1e9])
        assert np.isfinite(out)
        assert out <= 2 * np.arctanh(1 - ATANH_EPS)

    def test_minsum_examples(self):
        assert check_update_minsum([2.0, -1.0]) == -1.0
        assert check_update_minsum([0.0, 5.0]) == 0.0
        assert check_update_minsum([3.0]) == 3.0

    def test_minsum_sign_of_zero_is_positive(self):
        assert check_update_minsum([0.0, -2.0]) == 0.0
        assert check_update_minsum([-3.0, -4.0]) == 3.0


def test_numpy_buffers_exactly_the_broadcast_rows_below_broadcast_row():
    # the rule bp.BROADCAST_ROW encodes, and every traced-peak bound of the
    # layer walk rests on: numpy copies a broadcast row shorter than
    # BROADCAST_ROW into its ufunc buffer (66,640 B traced at 4,096 rows on
    # numpy 2.4.6) and reads a row that long directly (1,104 B at 4,097)
    peaks = {}
    for rows in (BROADCAST_ROW - 1, BROADCAST_ROW):
        a, row = np.ones((3, rows)), np.ones(rows)
        peaks[rows] = traced_peak(lambda: np.minimum(a, row, out=a))
    assert peaks[BROADCAST_ROW - 1] > 32 * 1024 and peaks[BROADCAST_ROW] < 8 * 1024, (
        f"numpy {np.__version__} no longer buffers exactly the broadcast rows shorter than "
        f"bp.BROADCAST_ROW = {BROADCAST_ROW} (traced bytes by row length: {peaks}); "
        f"re-measure the rule, as README's note on numpy upgrades says, before reading a "
        f"failed traced-peak bound as a regression")


# whole numbers, both zeros and both infinities force tied magnitudes, zero
# and infinite magnitudes and every sign pattern; other floats fill the rest
MINSUM_ENTRIES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf])
                  | st.floats(-8.0, 8.0, allow_nan=False, width=64))


class TestMinsumKernel:
    """The two-minimum kernel and the backward that rebuilds its index
    terms against the argmin kernel and backward of tests/serial.py."""

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(2, 12), rows=st.integers(1, 6), data=st.data(),
           fortran=st.booleans())
    def test_matches_argmin_reference_bit_for_bit(self, d, rows, data, fortran):
        values = data.draw(st.lists(MINSUM_ENTRIES, min_size=rows * d, max_size=rows * d))
        xc = np.array(values, dtype=np.float64).reshape(rows, d)
        if fortran:
            xc = np.asfortranarray(xc)
        g = np.array(data.draw(st.lists(st.floats(-4.0, 4.0, width=64), min_size=rows * d,
                                        max_size=rows * d))).reshape(rows, d)
        terms = serial.check_minsum_terms(xc)
        u = serial.kernel(xc)
        assert_same_bits(u, terms[0])
        assert_same_bits(serial.kernel(xc[None]), u[None])
        assert_same_bits(minsum_backward(g, u, minsum_routing(xc, u)),
                         serial.minsum_backward(g, terms))
        for r in range(rows):
            for j in range(d):
                assert_same_bits(check_update_minsum(np.delete(xc[r], j)), u[r, j])

    @pytest.mark.parametrize("d", [2, 3, 11])
    @pytest.mark.parametrize("fortran", [False, True])
    def test_backward_matches_argmin_reference_on_tied_rows(self, d, fortran):
        # hundreds of rows, most with tied least magnitudes and zeros of
        # either sign, and adjoints with signed zeros of their own
        rng = np.random.default_rng(d)
        xc = tied_rows(rng, 300, d)
        if fortran:
            xc = np.asfortranarray(xc)
        g = rng.normal(size=xc.shape)
        g.flat[::7], g.flat[3::7] = 0.0, -0.0
        u = serial.kernel(xc)
        assert_same_bits(minsum_backward(g, u, minsum_routing(xc, u)),
                         serial.minsum_backward(g, serial.check_minsum_terms(xc)))

    @pytest.mark.parametrize("d, checks, frames", [(2, 1, 1), (3, 4, 5), (11, 10, 64)])
    def test_output_keeps_the_layout_of_the_input(self, d, checks, frames):
        # C- and F-ordered rows and the (checks B, d) view of a (d, checks,
        # B) block, as the block walk and BP min-sum pass it, each into an
        # ``out`` of its own layout, the block's straight into a block
        rng = np.random.default_rng(d)
        block = np.round(rng.normal(0.0, 2.0, (d, checks, frames)))
        block[rng.random(block.shape) < 0.1] = -0.0
        rows = block.reshape(d, -1).T
        assert rows.base is not None and rows.T.flags.c_contiguous
        want = serial.check_minsum_terms(rows)[0]
        work = np.empty(minsum_work_size(rows.size))
        for xc, out in ((np.ascontiguousarray(rows), np.full(rows.shape, np.nan)),
                        (np.asfortranarray(rows), np.full(rows.shape, np.nan, order="F")),
                        (rows, np.full(block.shape, np.nan).reshape(d, -1).T)):
            u = check_minsum_terms(xc, out, work)
            assert u is out
            assert_same_bits(u, want)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 12), checks=st.integers(1, 4), frames=st.integers(1, 5),
           data=st.data(), layout=st.sampled_from(["C", "F", "block"]))
    def test_out_and_work_give_the_allocating_result(self, d, checks, frames, data, layout):
        # buffers longer than needed and full of NaN, as a reused workspace
        # holds whatever the previous call left
        size = d * checks * frames
        values = data.draw(st.lists(MINSUM_ENTRIES, min_size=size, max_size=size))
        rows = np.array(values).reshape(d, checks, frames).reshape(d, -1).T
        spare = np.full(size + 5, np.nan)[:size]
        xc, out = {"C": (np.ascontiguousarray(rows), spare.reshape(rows.shape)),
                   "F": (np.asfortranarray(rows), spare.reshape(rows.shape[::-1]).T),
                   "block": (rows, spare.reshape(d, -1).T)}[layout]
        work = np.full(minsum_work_size(size) + 3, np.nan)
        u = check_minsum_terms(xc, out=out, work=work)
        assert u is out
        assert_same_bits(u, serial.check_minsum_terms(xc)[0])

    def test_out_and_work_leave_only_per_check_vectors(self):
        # one ldpc_121_60 layer group at B=512: 11 checks of degree 11
        d, rows = 11, 11 * 512
        xc = np.random.default_rng(1).normal(size=(d, rows)).T
        out, work = np.empty((d, rows)).T, np.empty(minsum_work_size(xc.size))
        assert traced_peak(lambda: check_minsum_terms(xc, out=out, work=work)) < xc.nbytes // 4

    def test_polar_check_leaves_only_per_check_vectors(self):
        # the degree-64 check of polar_64_32 at B=256, a single-check group
        d, rows = 64, 256
        xc = np.random.default_rng(2).normal(size=(d, rows)).T
        out, work = np.empty((d, rows)).T, np.empty(minsum_work_size(xc.size))
        assert traced_peak(lambda: check_minsum_terms(xc, out=out, work=work)) < xc.nbytes // 4

    @pytest.mark.parametrize("d", [2, 3, 11])
    @pytest.mark.parametrize("offset", [-2, -1, 0])
    def test_rows_either_side_of_the_broadcast_threshold(self, d, offset):
        # 4,095, 4,096 and 4,097 rows at numpy's default buffer: the last
        # broadcasts the kernel's m2 and swap rows directly, the others
        # spread them over scratch; ties, +-0.0 and infinities throughout
        rows = BROADCAST_ROW + offset
        rng = np.random.default_rng(rows * d)
        block = tied_magnitudes(rng, d, rows, [0.0, 1.0, 2.0, np.inf])
        block *= np.where(rng.random(block.shape) < 0.5, -1.0, 1.0)
        xc = block.T  # the (rows, d) view of a (d, rows) block, as the walk passes it
        out = np.full((d, rows), np.nan).T
        work = np.full(minsum_work_size(xc.size) + 3, np.nan)
        u = check_minsum_terms(xc, out=out, work=work)
        assert u is out
        assert_same_bits(u, serial.check_minsum_terms(xc)[0])
        if offset == 0:
            # numpy broadcasts a row this long unbuffered, and the direct
            # form copies no row: less than one row of memory is traced
            peak = traced_peak(lambda: check_minsum_terms(xc, out=out, work=work))
            assert peak < rows * 8

    @pytest.mark.parametrize("layout", ["C", "F", "block"])
    def test_one_row_at_every_degree(self, layout):
        # one check of one frame, as ``vcdc decode`` on one word and the last
        # frame of a decode pass it: ties, +-0.0 and +-inf, into a workspace
        # full of NaN
        rng = np.random.default_rng(36)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf])
        for d in range(2, 141):
            for values in (rng.choice(pool, d), rng.choice(pool[:2], d),
                           np.where(rng.random(d) < 0.5, rng.choice(pool, d), rng.normal(size=d))):
                block = values.reshape(d, 1, 1)
                xc, out = {"C": (values[None], np.full((1, d), np.nan)),
                           "F": (np.asfortranarray(values[None]),
                                 np.full((1, d), np.nan, order="F")),
                           "block": (block.reshape(d, -1).T,
                                     np.full((d, 1), np.nan).T)}[layout]
                work = np.full(minsum_work_size(d) + 3, np.nan)
                u = check_minsum_terms(xc, out=out, work=work)
                assert u is out
                assert_same_bits(u, serial.check_minsum_terms(xc)[0])

    def test_infinite_magnitude_is_an_extrinsic_minimum(self):
        # the other entry's magnitude, even when it is infinite
        xc = np.array([[-0.4, -np.inf]])
        assert_same_bits(serial.kernel(xc), [[-np.inf, -0.4]])
        assert_same_bits(serial.check_minsum_terms(xc)[0], [[-np.inf, -0.4]])


def tied_magnitudes(rng, d, rows, pool):
    """(d, rows) magnitudes, about half drawn from ``pool`` (ties, +0.0 and
    inf among them) and the rest from a continuous distribution."""
    mags = rng.exponential(size=(d, rows))
    pick = rng.random((d, rows)) < 0.5
    mags[pick] = rng.choice(np.asarray(pool, dtype=np.float64), size=int(pick.sum()))
    return mags


class TestTwoLeastTournament:
    """The halving tournament of ``vcdc.bp._two_least`` against the
    sequential scan of tests/serial.py, bit for bit."""

    POOL = st.sampled_from([0.0, 1.0, 2.0, 0.5, np.inf])

    def check(self, mags):
        before = mags.copy()
        scratch = np.full(mags.shape, np.nan)
        m1, m2 = _two_least(mags, scratch)
        want1, want2 = serial.two_least(mags)
        assert_same_bits(m1, want1)
        assert_same_bits(m2, want2)
        assert_same_bits(mags, before)  # the tournament only reads the magnitudes
        assert np.shares_memory(m1, scratch) and np.shares_memory(m2, scratch)

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 140), rows=st.integers(1, 300),
           pool=st.lists(POOL, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_sequential_scan(self, d, rows, pool, seed):
        self.check(tied_magnitudes(np.random.default_rng(seed), d, rows, pool))

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 15, 16, 31, 63, 64, 127, 128, 140])
    def test_odd_carries_at_every_level(self, d):
        # 2**k - 1 entries leave an odd entry or slot at every level
        rng = np.random.default_rng(d)
        self.check(tied_magnitudes(rng, d, 37, [0.0, 1.0, np.inf]))
        self.check(np.full((d, 5), np.inf))
        self.check(np.zeros((d, 5)))

    def test_one_row_at_every_degree(self):
        # the shape of one frame of a single-check group, which the draws
        # above reach only by chance: every level's slots are single entries
        rng = np.random.default_rng(35)
        for d in range(2, 141):
            self.check(tied_magnitudes(rng, d, 1, [0.0, 1.0, np.inf]))
            self.check(tied_magnitudes(rng, d, 1, [2.0]))
            self.check(np.full((d, 1), np.inf))
            self.check(np.zeros((d, 1)))

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 70), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           odd=st.booleans())
    def test_kernel_signs_on_signed_zeros(self, d, rows, seed, odd):
        # rows of +-0.0, either zero counting as positive, among an odd or
        # an even count of negative entries, so zero messages take both signs
        rng = np.random.default_rng(seed)
        xc = np.where(rng.random((rows, d)) < 0.5, -0.0, 0.0)
        for r, count in enumerate(rng.integers(0, d // 2, size=rows) * 2 + odd):
            picked = rng.choice(d, size=count, replace=False)
            xc[r, picked] = -rng.choice([1.0, np.inf], size=count)
        assert_same_bits(serial.kernel(xc), serial.check_minsum_terms(xc)[0])


class TestVariableUpdate:
    def test_no_incoming_passes_channel_llr(self):
        assert variable_update(1.5, []) == 1.5

    def test_extrinsic_sum(self):
        assert variable_update(1.0, [-3.0]) == -2.0

    def test_clamping(self):
        assert variable_update(100.0, [0.0], message_clamp=30.0) == 30.0

    def test_belief_decomposition_identity(self):
        rng = np.random.default_rng(0)
        l_v = 0.7
        incoming = rng.normal(size=5).tolist()
        s = belief(l_v, incoming)
        for i in range(5):
            extrinsic = variable_update(l_v, incoming[:i] + incoming[i + 1:],
                                        message_clamp=1e9)
            assert s - extrinsic == pytest.approx(incoming[i], rel=1e-12)


class TestDecodeBp:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_llrs_rejected(self, hamming, bad):
        llrs = np.ones((2, hamming.n))
        llrs[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            serial.bp_decode(hamming, llrs)

    def test_noiseless_exits_first_iteration(self, hamming):
        g = hamming.generator
        cw = encode(g, np.array([1, 0, 1, 1], dtype=np.uint8)[None])[0]
        bits, _, iters, ok = serial.bp_decode(hamming, 20.0 * bipolar(cw)[None],
                                              BpConfig(max_iters=5))
        assert iters[0] == 1
        assert ok[0] and syndrome(hamming, bits[0])[1] == 0
        assert np.array_equal(bits[0], cw)

    def test_repetition_toy_conflicting_llrs(self):
        # single degree-2 check; hand simulation: after one exchange both
        # beliefs equal -2, so the stronger (negative) evidence wins
        h = ParityCheckMatrix(np.array([[1, 1]], dtype=np.uint8))
        bits, beliefs, iters, ok = serial.bp_decode(h, np.array([[1.0, -3.0]]),
                                                    BpConfig(max_iters=5))
        assert bits[0].tolist() == [1, 1]
        np.testing.assert_allclose(beliefs[0], [-2.0, -2.0], atol=1e-12)
        assert iters[0] == 1 and ok[0]

    @pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
    def test_matches_reference_implementation(self, hamming, variant):
        rng = np.random.default_rng(11)
        cfg = BpConfig(max_iters=4, variant=variant)
        for _ in range(40):
            llr = rng.normal(0, 2.5, hamming.n)
            bits, beliefs, iters, ok = serial.bp_decode(hamming, llr[None], cfg)
            ref_bits, ref_beliefs, ref_iters, ref_ok, _ = reference_decode(hamming, llr, cfg)
            assert np.array_equal(bits[0], ref_bits)
            np.testing.assert_allclose(beliefs[0], ref_beliefs, atol=1e-9)
            assert iters[0] == ref_iters and ok[0] == ref_ok

    def test_matches_reference_on_tree_code(self):
        h = make_tree_code(5)
        rng = np.random.default_rng(12)
        cfg = BpConfig(max_iters=6)
        for _ in range(20):
            llr = rng.normal(0, 2, h.n)
            bits, beliefs, _, _ = serial.bp_decode(h, llr[None], cfg)
            ref_bits, ref_beliefs, _, _, _ = reference_decode(h, llr, cfg)
            assert np.array_equal(bits[0], ref_bits)
            np.testing.assert_allclose(beliefs[0], ref_beliefs, atol=1e-9)

    def test_batch_equals_sequential(self, ldpc_49_24):
        rng = np.random.default_rng(13)
        llrs = rng.normal(0.5, 2.0, (32, ldpc_49_24.n))
        cfg = BpConfig(max_iters=5)
        bits, beliefs, iters, ok = serial.bp_decode(ldpc_49_24, llrs, cfg)
        for i in range(32):
            # a batch of one: early-exit compaction must keep frames independent
            b1, bel1, it1, ok1 = serial.bp_decode(ldpc_49_24, llrs[i:i + 1], cfg)
            assert np.array_equal(b1[0], bits[i])
            assert_same_bits(bel1[0], beliefs[i])
            assert it1[0] == iters[i] and ok1[0] == ok[i]

    @pytest.mark.parametrize("variant", [SUM_PRODUCT, MIN_SUM])
    def test_polar_frames_decode_alike_alone_and_in_a_batch(self, polar_64_32, variant):
        # polar_64_32's variable degrees reach 32, so its belief sums run
        # _pairwise_sum's branch of 8 to 128 terms, which ldpc_49_24's (at
        # most 4) never reach; numpy's sum over axis 0 adds pairwise only
        # when every other axis has length 1, so a frame alone would round
        # its beliefs otherwise than in a batch
        h, frames = polar_64_32, 64
        rng = np.random.default_rng(14)
        _, llrs = channel_frames(h, rng.integers(0, 2, (frames, h.k)),
                                 noise_scale(2.0, h.k, h.n), rng)
        cfg = BpConfig(max_iters=10, variant=variant)
        bits, beliefs, iters, ok = serial.bp_decode(h, llrs, cfg)
        assert iters.max() > 1
        for i in range(frames):
            b1, bel1, it1, ok1 = serial.bp_decode(h, llrs[i:i + 1], cfg)
            assert np.array_equal(b1[0], bits[i])
            assert_same_bits(bel1[0], beliefs[i])
            assert it1[0] == iters[i] and ok1[0] == ok[i]

    def test_dimension_mismatch(self, hamming):
        with pytest.raises(ValueError):
            serial.bp_decode(hamming, np.zeros((1, 6)))
        with pytest.raises(ValueError):
            serial.bp_decode(hamming, np.zeros(hamming.n))  # a word, not a batch

    # an index of the same n once passed messages on its own graph and ran
    # the exit test on h's; one of another n raised IndexError
    @pytest.mark.parametrize("code, other", [("ldpc_121_60", "ldpc_121_80"),
                                             ("hamming_7_4", "ldpc_121_60")])
    def test_edge_index_of_another_code_rejected(self, code, other):
        h, g = codes.load(code), codes.load(other)
        message = (rf"edge index of a \({g.n},{g.k}\) code with {g.num_checks} checks cannot "
                   rf"decode \({h.n},{h.k}\) with {h.num_checks} checks")
        with pytest.raises(ValueError, match=message):
            decode_bp_batch(h, np.zeros((2, h.n)), BpConfig(), edge_index=EdgeIndex(g))

    def test_edge_index_of_equal_checks_accepted(self, hamming):
        copy = ParityCheckMatrix(hamming.rows.copy())
        llrs = np.random.default_rng(3).normal(1.0, 2.0, (8, hamming.n))
        got = decode_bp_batch(hamming, llrs, BpConfig(), edge_index=EdgeIndex(copy))
        for a, b in zip(got, serial.bp_decode(hamming, llrs)):
            assert_same_bits(a, b)

    def test_early_exit_returns_valid_codewords(self, ldpc_49_24):
        rng = np.random.default_rng(14)
        g = ldpc_49_24.generator
        cw = encode(g, rng.integers(0, 2, ldpc_49_24.k)[None])[0]
        llr = 2.2 * bipolar(cw) + rng.normal(0, 1.4, ldpc_49_24.n)
        bits, _, _, ok = serial.bp_decode(ldpc_49_24, llr[None, :] + np.zeros((64, 1)),
                                          BpConfig(max_iters=10))
        for i in range(64):
            if ok[i]:
                _, nerr = syndrome(ldpc_49_24, bits[i])
                assert nerr == 0


class TestTreeExactness:
    def test_sum_product_matches_brute_force_map(self):
        h = make_tree_code(5)  # n=11, k=6
        rng = np.random.default_rng(21)
        cfg = BpConfig(max_iters=2 * (h.n + h.num_checks))
        for _ in range(10):
            llr = rng.uniform(-3, 3, h.n)
            bits, beliefs, _, _ = serial.bp_decode(h, llr[None], cfg, early_exit=False)
            exact = map_marginals(h, llr)
            np.testing.assert_allclose(beliefs[0], exact, atol=1e-6)
            assert np.array_equal(bits[0], hard_decide(exact))


class TestExtrinsicIdentity:
    def test_belief_splits_into_message_pairs(self, hamming):
        # with clamping disabled the decomposition s = v2c + c2v is exact
        rng = np.random.default_rng(5)
        llr = rng.normal(0, 2, hamming.n)
        l = llr.copy()
        chk_adj, var_adj = adjacency(hamming.rows), adjacency(hamming.rows.T)
        v2c = {(c, v): l[v] for c, vs in enumerate(chk_adj) for v in vs}
        c2v = {}
        for c, vs in enumerate(chk_adj):
            for v in vs:
                c2v[(c, v)] = check_update_sumproduct([v2c[(c, vp)] for vp in vs if vp != v])
        for v in range(hamming.n):
            s = belief(l[v], [c2v[(c, v)] for c in var_adj[v]])
            for c in var_adj[v]:
                outgoing = variable_update(
                    l[v], [c2v[(cp, v)] for cp in var_adj[v] if cp != c],
                    message_clamp=1e9)
                assert s == pytest.approx(outgoing + c2v[(c, v)], rel=1e-12)


class TestVariantAgreement:
    def test_minsum_matches_sumproduct_at_high_snr(self, ldpc_49_24):
        rng = np.random.default_rng(31)
        g = ldpc_49_24.generator
        agree = 0
        trials = 300
        for _ in range(trials):
            cw = encode(g, rng.integers(0, 2, ldpc_49_24.k)[None])[0]
            llr = bipolar(cw) * rng.uniform(10, 20, ldpc_49_24.n)
            b1 = serial.bp_decode(ldpc_49_24, llr[None], BpConfig(max_iters=5))[0]
            b2 = serial.bp_decode(ldpc_49_24, llr[None],
                                  BpConfig(max_iters=5, variant=MIN_SUM))[0]
            agree += np.array_equal(b1, b2)
        assert agree / trials >= 0.99


class TestClampInsensitivity:
    def test_message_clamp_leaves_decisions_unchanged_at_tested_snr(self, ldpc_121_60):
        rng = np.random.default_rng(41)
        _, llr = channel_frames(ldpc_121_60, rng.integers(0, 2, (2000, 60)),
                                noise_scale(4.0, 60, 121), rng)
        bits_30 = serial.bp_decode(ldpc_121_60, llr, BpConfig(max_iters=5))[0]
        with mock.patch.object(bp, "MESSAGE_CLAMP", 3000.0):
            bits_big = serial.bp_decode(ldpc_121_60, llr, BpConfig(max_iters=5))[0]
        differing = (bits_30 != bits_big).any(axis=1).mean()
        assert differing < 0.005


def test_config_validation():
    with pytest.raises(ValueError):
        BpConfig(max_iters=0)
    with pytest.raises(ValueError):
        BpConfig(variant="layered")


@pytest.mark.parametrize("bad", [2.5, True, "5"])
def test_config_rejects_non_integer_max_iters(bad):
    # 2.5 would raise TypeError inside the decode, and True run one iteration
    with pytest.raises(ValueError, match="max_iters"):
        BpConfig(max_iters=bad)
    assert BpConfig(max_iters=np.int64(3)).max_iters == 3


def test_isolated_variable_keeps_channel_belief():
    h = ParityCheckMatrix(np.array([[1, 1, 0]], dtype=np.uint8))
    bits, beliefs, _, _ = serial.bp_decode(h, np.array([[2.0, 1.0, -0.7]]),
                                           BpConfig(max_iters=3))
    assert beliefs[0, 2] == pytest.approx(-0.7)
    assert bits[0, 2] == 1


def degree_checks(h, d):
    """The checks of degree ``d``, ascending."""
    return np.flatnonzero(h.rows.sum(axis=1) == d).tolist()


def row_checks(h, ei):
    """The check of each message row: slot after slot, every check of the
    row's degree group, in order."""
    return np.concatenate([np.tile(degree_checks(h, d), d) for d in ei.degree_groups])


def canonical_rows(h, ei):
    """For each message row, its index among the check-major edges of
    ``serial.RowMajorEdges``, found by the row's (check, variable) pair."""
    canonical = {(c, v): e for e, (c, v) in
                 enumerate(map(tuple, np.argwhere(h.rows).tolist()))}
    return np.array([canonical[c, v] for c, v in zip(row_checks(h, ei), ei.row_var.tolist())])


def assert_check_blocks(h, ei):
    """Each degree group's (d, checks, B) block is a view of the messages
    whose rows are, slot j by slot j, the j-th variables of its checks:
    the (d, checks) table of the degree-d checks of H, in order."""
    msgs = np.zeros((h.num_edges, 3))
    start = 0
    for (d, rows), block in zip(ei.degree_groups.items(), ei.check_blocks(msgs)):
        assert rows.start == start
        assert np.shares_memory(block, msgs)
        table = np.array(adjacency(h.rows[degree_checks(h, d)]))
        assert np.array_equal(ei.row_var[rows].reshape(d, -1), table.T)
        start = rows.stop
    assert list(ei.degree_groups) == sorted(set(h.rows.sum(axis=1).tolist()))
    assert start == h.num_edges == ei.row_var.size


def assert_sorted_layout(h, ei):
    """``ei`` lays the rows out as ``serial.SortedLayout`` sorts them."""
    want = serial.SortedLayout(h)
    for name in ("row_var", "var_order", "isolated"):
        got, ref = getattr(ei, name), getattr(want, name)
        assert got.dtype == ref.dtype == np.int64 and np.array_equal(got, ref), name
    assert [(d, v.tolist()) for d, v in ei.var_groups] == [
        (d, v.tolist()) for d, v in want.var_groups]


@pytest.mark.parametrize("name", bundled_codes())
def test_every_degree_group_is_a_view(name):
    h = codes.load(name)
    assert_check_blocks(h, EdgeIndex(h))


@pytest.mark.parametrize("name", bundled_codes())
def test_layout_matches_the_sorting_oracle(name):
    h = codes.load(name)
    assert_sorted_layout(h, EdgeIndex(h))


@st.composite
def sparse_codes(draw):
    """Parity-check matrices of 2 to n + 6 checks whose degrees (2 to 12)
    interleave, with a repeated row (so rank < rows), the last variable in
    no check (so rank < n), and at times a variable in every check."""
    n = draw(st.integers(6, 20))
    m = draw(st.integers(2, n + 6))
    rows = np.zeros((m, n), dtype=np.uint8)
    for r in range(m):
        d = draw(st.integers(2, min(12, n - 1)))
        rows[r, draw(st.lists(st.integers(0, n - 2), min_size=d, max_size=d, unique=True))] = 1
    if draw(st.booleans()):
        rows[:, draw(st.integers(0, n - 2))] = 1
    rows[draw(st.integers(1, m - 1))] = rows[0]
    return ParityCheckMatrix(rows)


def rows_code(n, rows):
    """The parity-check matrix with ``n`` columns and the given check rows."""
    matrix = np.zeros((len(rows), n), dtype=np.uint8)
    for r, cols in enumerate(rows):
        matrix[r, list(cols)] = 1
    return ParityCheckMatrix(matrix)


NEAR_ZERO_H = rows_code(6, [(0, 2), (0, 1, 2, 3, 4), (1, 2, 3), (0, 2), (1, 2),
                           (0, 1, 2, 3, 4)])


@settings(max_examples=80, deadline=None)
@given(h=sparse_codes(), variant=st.sampled_from([SUM_PRODUCT, MIN_SUM]),
       early_exit=st.booleans(), frames=st.integers(1, 40), iters=st.integers(1, 8),
       clamp=st.sampled_from([30.0, 3.0, 3000.0]), seed=st.integers(0, 2 ** 32 - 1))
# a belief of -1.1e-16 where the scalar rules sum to 0.0 flips a bit
@example(h=rows_code(19, [(0, 1), (0, 1, 2, 3, 4, 6, 8, 9, 10), (3, 6), (0, 1, 6, 7, 8),
                          (0, 1), (0, 1)]),
         variant=MIN_SUM, early_exit=True, frames=4, iters=2, clamp=30.0, seed=1587)
# frame 0's belief of variable 2 is -2^-51 in the decoder, whose exit test
# then passes, and 0.0 in the scalar rules, whose test fails: the last exit
# test at iters 2, an earlier one at iters 3
@example(h=NEAR_ZERO_H, variant=MIN_SUM, early_exit=False, frames=28, iters=3, clamp=30.0,
         seed=1062)
@example(h=NEAR_ZERO_H, variant=MIN_SUM, early_exit=False, frames=28, iters=2, clamp=30.0,
         seed=1062)
def test_matches_row_major_oracle_on_random_codes(h, variant, early_exit, frames, iters,
                                                  clamp, seed):
    ei = EdgeIndex(h)
    assert_check_blocks(h, ei)
    rng = np.random.default_rng(seed)
    llrs = rng.normal(1.0, 2.5, (frames, h.n))
    llrs[rng.random(llrs.shape) < 0.05] = 0.0
    llrs[rng.random(llrs.shape) < 0.05] = -0.0
    cfg = BpConfig(max_iters=iters, variant=variant)
    with mock.patch.object(bp, "MESSAGE_CLAMP", clamp):
        bits, beliefs, its, ok = serial.bp_decode(h, llrs, cfg, early_exit=early_exit)
        want = serial.decode_bp_batch(h, llrs, cfg, early_exit=early_exit)
    assert np.array_equal(bits, want[0])
    assert_same_bits(beliefs, want[1])
    assert np.array_equal(its, want[2]) and np.array_equal(ok, want[3])

    # the scalar rules, at a clamp that keeps check products clear of the
    # arctanh clip, where rounding differences would outgrow the tolerance
    with mock.patch.object(bp, "MESSAGE_CLAMP", 3.0):
        bits, beliefs, its, ok = decode_bp_batch(h, llrs[:3], cfg, edge_index=ei)
        refs = [reference_decode(h, llr, cfg) for llr in llrs[:3]]
    for i, (ref_bits, ref_beliefs, ref_iters, ref_ok, decided) in enumerate(refs):
        # within the tolerance of the beliefs their sign is not determined,
        # nor, where an exit test read such a belief, the run after that test
        if not decided:
            continue
        signed = np.abs(ref_beliefs) > 1e-9
        assert np.array_equal(bits[i][signed], ref_bits[signed])
        np.testing.assert_allclose(beliefs[i], ref_beliefs, atol=1e-9)
        assert its[i] == ref_iters and ok[i] == ref_ok


def clamped_sweep(t, ei, c2v):
    """The sum-product sweep with every check product clamped for arctanh."""
    for tb, excl in zip(ei.check_blocks(t), ei.check_blocks(c2v)):
        bp._exclusive_products(tb, excl)
    np.clip(c2v, -(1 - ATANH_EPS), 1 - ATANH_EPS, out=c2v)
    np.arctanh(c2v, out=c2v)
    c2v *= 2.0
    return c2v


class TestProductClamp:
    """The sweep clamps a degree group's products only where their bound,
    tanh(MESSAGE_CLAMP / 2) ** (d - 1), can reach the clamp; at 3.0 no group
    reaches it, at 30 degrees 2 to 6 do, and at 3000 tanh rounds to 1 and
    every group does."""

    # one check of each degree 2 to 12; the last variable is in none
    H = rows_code(13, [range(d) for d in range(2, 13)])

    def test_a_clipped_message_is_below_one_as_tanh_takes_it(self):
        # the skip rests on it, and so do finite messages wherever the clamp
        # is skipped
        assert math.tanh(bp.MESSAGE_CLAMP / 2) < 1

    @pytest.mark.parametrize("clamp, degrees", [(30.0, range(2, 7)), (3.0, ()),
                                                (3000.0, range(2, 13))])
    def test_the_groups_that_clamp(self, clamp, degrees):
        with mock.patch.object(bp, "MESSAGE_CLAMP", clamp):
            assert [d for d in range(2, 13) if bp._products_reach_clamp(d)] == list(degrees)

    @pytest.mark.parametrize("clamp", [30.0, 3.0, 3000.0])
    def test_messages_at_the_clamp_match_the_clamped_sweep(self, clamp):
        ei = EdgeIndex(self.H)
        assert sorted(ei.degree_groups) == list(range(2, 13))
        # every message at +-clamp, mixed signs, frame 0 all positive
        rng = np.random.default_rng(11)
        v2c = clamp * rng.choice([-1.0, 1.0], (self.H.num_edges, 64))
        v2c[:, 0] = clamp
        t = np.tanh(v2c * 0.5)
        with mock.patch.object(bp, "MESSAGE_CLAMP", clamp):
            got = bp._check_sweep_sumproduct(t, ei, np.empty_like(t))
        assert_same_bits(got, clamped_sweep(t, ei, np.empty_like(t)))
        assert np.isfinite(got).all()
        if clamp == 30.0:
            # the products of degrees 2 to 6 pass the clamp, so they were
            # clipped to it, and degree 7's stay below it
            top = 2 * np.arctanh(1 - ATANH_EPS)
            for d, rows in ei.degree_groups.items():
                assert (got[rows, 0] == top).all() == (d <= 6)
                assert (got[rows, 0] <= top).all()

    def test_ldpc_121_60_skips_the_clamp(self, ldpc_121_60):
        # its 61 checks all have degree 11
        assert list(EdgeIndex(ldpc_121_60).degree_groups) == [11]
        assert not bp._products_reach_clamp(11)


@settings(max_examples=80, deadline=None)
@given(h=sparse_codes(), seed=st.integers(0, 2 ** 32 - 1))
def test_layout_of_random_codes(h, seed):
    ei = EdgeIndex(h)
    # the rows cover each (check, variable) pair of H once
    pairs = sorted(zip(row_checks(h, ei).tolist(), ei.row_var.tolist()))
    assert pairs == [tuple(p) for p in np.argwhere(h.rows).tolist()]
    # each var_groups block holds, slot j by slot j, each variable's j-th
    # check; variables in no check are the isolated ones
    checks, start = row_checks(h, ei), 0
    for d, variables in ei.var_groups:
        block = ei.var_order[start:start + d * variables.size].reshape(d, -1)
        assert np.array_equal(ei.row_var[block], np.broadcast_to(variables, block.shape))
        assert np.array_equal(checks[block].T, adjacency(h.rows.T[variables]))
        start += block.size
    assert start == h.num_edges
    grouped = np.concatenate([ei.isolated] + [v for _, v in ei.var_groups])
    assert sorted(grouped.tolist()) == list(range(h.n))
    assert ei.isolated.tolist() == np.flatnonzero(h.rows.sum(axis=0) == 0).tolist()
    assert_sorted_layout(h, ei)
    # the belief sums of the oracle's canonical edges, bit for bit
    rng = np.random.default_rng(seed)
    c2v = rng.normal(size=(h.num_edges, 5)) * 10.0 ** rng.integers(-8, 9, (h.num_edges, 5))
    canonical = np.empty_like(c2v.T)
    canonical[:, canonical_rows(h, ei)] = c2v.T
    assert_same_bits(serial.belief_sums(ei, c2v),
                     serial.RowMajorEdges(h).belief_sums(canonical).T)


def test_belief_sums_round_as_reduceat():
    # degrees from 1 to 300 take numpy's pairwise summation through all
    # three of its regimes (under 8 terms, up to 128, halved above)
    rng = np.random.default_rng(3)
    m, n = 300, 320
    rows = np.zeros((m, n), dtype=np.uint8)
    rows[:, :2] = 1
    for v in range(2, n - 1):
        rows[rng.choice(m, size=rng.integers(1, 140), replace=False), v] = 1
    h = ParityCheckMatrix(rows)
    ei = EdgeIndex(h)
    c2v = rng.normal(size=(h.num_edges, 4)) * 10.0 ** rng.integers(-8, 17, (h.num_edges, 4))
    c2v[rng.random(c2v.shape) < 0.05] = -0.0
    canonical = np.empty_like(c2v.T)
    canonical[:, canonical_rows(h, ei)] = c2v.T
    assert_same_bits(serial.belief_sums(ei, c2v),
                     serial.RowMajorEdges(h).belief_sums(canonical).T)


def test_belief_sums_into_out_match_the_allocating_form():
    # variable 0 is in no check, 1 in one, 2 in five and 3 and 4 in all
    # twelve: the NaN in ``out`` must not survive on the one of degree zero,
    # where the oracle's sum is 0.0
    rng = np.random.default_rng(8)
    m, n = 12, 20
    rows = np.zeros((m, n), dtype=np.uint8)
    rows[0, 1] = rows[:5, 2] = rows[:, 3] = rows[:, 4] = 1
    for v in range(5, n):
        rows[rng.choice(m, size=rng.integers(1, m), replace=False), v] = 1
    h = ParityCheckMatrix(rows)
    assert h.rows[:, :4].sum(axis=0).tolist() == [0, 1, 5, 12]
    ei = EdgeIndex(h)
    c2v = rng.normal(size=(h.num_edges, 6))
    canonical = np.empty_like(c2v.T)
    canonical[:, canonical_rows(h, ei)] = c2v.T
    out, gather = np.full((n, 6), np.nan), np.full_like(c2v, np.nan)
    assert ei.belief_sums(c2v, out=out, gather=gather) is out
    assert_same_bits(out, serial.RowMajorEdges(h).belief_sums(canonical).T)


@pytest.mark.parametrize("variant, bound", [(SUM_PRODUCT, 3.5), (MIN_SUM, 4.5)])
def test_decode_allocates_one_workspace(ldpc_121_60, variant, bound):
    # two (E, B) message slabs, small (n, B) ones and, for min-sum, the
    # kernel's workspace; message arrays made per iteration exceed the bound
    h, frames = ldpc_121_60, 512
    rng = np.random.default_rng(12)
    _, llrs = channel_frames(h, rng.integers(0, 2, (frames, h.k)),
                             noise_scale(4.0, h.k, h.n), rng)
    ei = EdgeIndex(h)
    cfg = BpConfig(variant=variant)
    peak = traced_peak(lambda: decode_bp_batch(h, llrs, cfg, edge_index=ei))
    assert peak < bound * h.num_edges * frames * 8


def null_space(h):
    """A basis of the words H maps to zero over GF(2), one word a row."""
    a = h.rows.copy()
    pivots = _row_reduce(a)
    free = [v for v in range(h.n) if v not in pivots]
    basis = np.zeros((len(free), h.n), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = a[:len(pivots), free].T
    return basis


@settings(max_examples=80, deadline=None)
@given(h=sparse_codes(), frames=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_exit_test_and_syndrome_match_int64_parity(h, frames, seed):
    # codewords, codewords with one bit flipped and random words, as the
    # signs of beliefs whose zeros, +0.0 and -0.0, decide bit 0
    rng = np.random.default_rng(seed)
    basis = null_space(h)
    hard = (rng.integers(0, 2, (frames, len(basis))) @ basis % 2).astype(np.uint8)
    kind = rng.integers(0, 3, frames)
    hard[kind == 1, rng.integers(0, h.n, frames)[kind == 1]] ^= 1
    hard[kind == 2] = rng.integers(0, 2, (int((kind == 2).sum()), h.n))
    s = np.where(hard.T == 1, -1.0, 1.0) * (rng.exponential(size=hard.T.shape) + 1e-300)
    zeros = (hard.T == 0) & (rng.random(s.shape) < 0.2)
    s[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    parity = h.rows.astype(np.int64) @ hard.T.astype(np.int64) % 2
    fails = parity.any(axis=0)
    assert (h.rows @ basis.T.astype(np.int64) % 2 == 0).all()

    rs = RunningSet(h, s.T, h.n, 0)
    assert rs.settle(rs.state, 3, last=True) is rs.state
    bits, beliefs, counts, ok = rs.outputs
    assert np.array_equal(ok, ~fails) and (counts == 3).all()
    assert np.array_equal(bits, hard)
    assert_same_bits(beliefs, s.T)
    rs = RunningSet(h, s.T, h.n, 0)
    state = rs.settle(rs.state, 3)
    assert np.array_equal(rs.frames, np.flatnonzero(fails))
    assert_same_bits(state, s[:, fails])

    syn, errors = syndrome(h, hard)
    assert syn.dtype == np.uint8 and np.array_equal(syn, parity.T)
    assert np.array_equal(errors, parity.sum(axis=0))
    syn_one, errors_one = syndrome(h, hard[0])
    assert np.array_equal(syn_one, parity[:, 0]) and errors_one == parity[:, 0].sum()


def test_settle_writes_only_the_frames_that_stop(hamming):
    # ten frames whose state has two more rows than the beliefs; frames 0,
    # 2, 5 and 7 are codewords, the others have one bit flipped
    rng = np.random.default_rng(4)
    h, n = hamming, hamming.n
    hard = encode(h.generator, rng.integers(0, 2, (10, h.k)))
    hard[[1, 3, 4, 6, 8, 9], [0, 6, 2, 5, 1, 3]] ^= 1
    llrs = bipolar(hard) * rng.uniform(0.5, 4.0, hard.shape)
    rs = RunningSet(h, llrs, n + 2, 5)
    assert rs.state.shape == (n + 2, 10) and rs.state.flags.c_contiguous
    assert_same_bits(rs.state[:n], llrs.T)
    assert rs.work.size == 5 * 10 and rs.spare.size == rs.state.size
    rs.state[n:] = np.arange(20).reshape(2, 10)
    bits, beliefs, counts, ok = outputs = rs.outputs
    bits[:], beliefs[:], counts[:], ok[:] = 2, np.nan, -1, np.arange(10) % 2 == 0
    before = [out.copy() for out in outputs]

    def assert_rows(rows, count, flags):
        """The call wrote the outputs of the frames ``rows`` and no others."""
        others = np.setdiff1d(np.arange(10), rows)
        for out, old in zip(outputs, before):
            assert_same_bits(out[others], old[others])
        assert np.array_equal(bits[rows], hard[rows])
        assert_same_bits(beliefs[rows], llrs[rows])
        assert (counts[rows] == count).all() and (ok[rows] == flags).all()
        before[:] = [out.copy() for out in outputs]

    # the running columns, every row of them, move into the spare slab
    old = rs.state
    state = rs.settle(old[:n], 4)
    assert state is rs.state and not np.shares_memory(state, old)
    assert np.shares_memory(rs.spare, old) and not np.shares_memory(rs.spare, state)
    assert rs.frames.tolist() == [1, 3, 4, 6, 8, 9]
    assert_same_bits(state[:n], llrs.T[:, rs.frames])
    assert state[n:].tolist() == [[1, 3, 4, 6, 8, 9], [11, 13, 14, 16, 18, 19]]
    assert_rows([0, 2, 5, 7], 4, True)
    # frame 4 is now a codeword, column 2 of the running set
    llrs[4] = bipolar(hard[4] ^ np.eye(n, dtype=np.uint8)[2])
    state[:n, 2] = llrs[4]
    hard[4, 2] ^= 1
    state = rs.settle(state[:n], 5)
    assert rs.frames.tolist() == [1, 3, 6, 8, 9]
    assert state[n:].tolist() == [[1, 3, 6, 8, 9], [11, 13, 16, 18, 19]]
    assert_rows([4], 5, True)
    # a round in which no frame stops writes nothing and keeps the state
    assert rs.settle(state[:n], 6) is state
    assert_rows([], 6, True)
    # the last call writes every running frame, failed ones flagged False,
    # and keeps them running
    assert rs.settle(state[:n], 7, last=True) is state
    assert rs.frames.tolist() == [1, 3, 6, 8, 9]
    assert_rows([1, 3, 6, 8, 9], 7, False)


EXIT_CASES = {
    # (max_iters, early_exit, CSNR in dB or None for noiseless codewords)
    "one iteration": (1, True, 5.0),
    "no early exit": (5, False, 3.0),
    "valid at entry": (5, True, None),
    "never valid": (3, True, -20.0),
}


@pytest.mark.parametrize("variant", [SUM_PRODUCT, MIN_SUM])
@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_edge_cases_match_the_row_major_oracle(ldpc_121_60, variant, case):
    h, (iters, early_exit, csnr) = ldpc_121_60, EXIT_CASES[case]
    rng = np.random.default_rng(21)
    messages = rng.integers(0, 2, (64, h.k))
    if csnr is None:
        llrs = 8.0 * bipolar(encode(h.generator, messages))
    else:
        _, llrs = channel_frames(h, messages, noise_scale(csnr, h.k, h.n), rng)
    cfg = BpConfig(max_iters=iters, variant=variant)
    bits, beliefs, its, ok = serial.bp_decode(h, llrs, cfg, early_exit=early_exit)
    want = serial.decode_bp_batch(h, llrs, cfg, early_exit=early_exit)
    assert np.array_equal(bits, want[0])
    assert_same_bits(beliefs, want[1])
    assert np.array_equal(its, want[2]) and np.array_equal(ok, want[3])
    if case == "valid at entry":
        assert ok.all() and (its == 1).all()
    elif case == "never valid":
        assert not ok.any() and (its == iters).all()
    else:
        assert 0 < ok.sum() < len(ok) and (early_exit or (its == iters).all())
