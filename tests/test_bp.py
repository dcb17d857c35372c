import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcdc import codes
from vcdc.bp import (ATANH_EPS, BpConfig, EdgeIndex, MIN_SUM, SUM_PRODUCT, RunningSet,
                     _two_least, check_minsum_terms, decode_bp_batch, minsum_work_size)
from vcdc.codebook import (ParityCheckMatrix, _row_reduce, bipolar, derive_generator, encode,
                           syndrome)
from vcdc.channel import LLR_CLAMP, hard_decide, noise_scale, to_llr, transmit
from vcdc.train import minsum_backward

import serial
from conftest import assert_same_bits, make_tree_code, map_marginals, traced_peak


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
    semantics; the vectorized decoder must agree with it."""
    l = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLAMP, LLR_CLAMP)
    v2c = {}
    for c, vs in enumerate(h.chk_adjacency):
        for v in vs:
            v2c[(c, v)] = float(np.clip(l[v], -cfg.message_clamp, cfg.message_clamp))
    update = (check_update_sumproduct if cfg.variant == "sum-product"
              else check_update_minsum)
    for it in range(1, cfg.max_iters + 1):
        c2v = {}
        for c, vs in enumerate(h.chk_adjacency):
            for v in vs:
                incoming = [v2c[(c, vp)] for vp in vs if vp != v]
                c2v[(c, v)] = update(incoming)
        beliefs = np.array([belief(l[v], [c2v[(c, v)] for c in h.var_adjacency[v]])
                            for v in range(h.n)])
        bits = hard_decide(beliefs)
        _, nerr = syndrome(h, bits)
        if nerr == 0 or it == cfg.max_iters:
            return bits, beliefs, it, nerr == 0
        for c, vs in enumerate(h.chk_adjacency):
            for v in vs:
                extrinsic = beliefs[v] - c2v[(c, v)]
                v2c[(c, v)] = float(np.clip(extrinsic, -cfg.message_clamp,
                                            cfg.message_clamp))
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


# whole numbers, both zeros and both infinities force tied magnitudes, zero
# and infinite magnitudes and every sign pattern; other floats fill the rest
MINSUM_ENTRIES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf])
                  | st.floats(-8.0, 8.0, allow_nan=False, width=64))


def same_layout(a, b):
    """``a`` and ``b`` are C-ordered alike and F-ordered alike."""
    return ((a.flags.c_contiguous, a.flags.f_contiguous)
            == (b.flags.c_contiguous, b.flags.f_contiguous))


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
        u = check_minsum_terms(xc)
        assert_same_bits(u, terms[0])
        assert same_layout(u, xc)
        assert_same_bits(check_minsum_terms(xc[None]), u[None])
        assert_same_bits(minsum_backward(g, xc, u), serial.minsum_backward(g, terms))
        for r in range(rows):
            for j in range(d):
                assert_same_bits(check_update_minsum(np.delete(xc[r], j)), u[r, j])

    @pytest.mark.parametrize("d, checks, frames", [(2, 1, 1), (3, 4, 5), (11, 10, 64)])
    def test_output_keeps_the_layout_of_the_input(self, d, checks, frames):
        # C- and F-ordered rows and the (checks B, d) view of a (d, checks,
        # B) block, as the block walk and BP min-sum pass it, give one u in
        # the input's layout; with ``out`` u goes straight into that block
        rng = np.random.default_rng(d)
        block = np.round(rng.normal(0.0, 2.0, (d, checks, frames)))
        block[rng.random(block.shape) < 0.1] = -0.0
        rows = block.reshape(d, -1).T
        assert rows.base is not None and rows.T.flags.c_contiguous
        want = check_minsum_terms(np.ascontiguousarray(rows))
        for xc in (np.ascontiguousarray(rows), np.asfortranarray(rows), rows):
            u = check_minsum_terms(xc)
            assert_same_bits(u, want)
            assert same_layout(u, xc)
        out = np.full(block.shape, np.nan)
        u = check_minsum_terms(rows, out=out.reshape(d, -1).T)
        assert np.shares_memory(u, out)
        assert_same_bits(out.reshape(d, -1).T, want)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 12), checks=st.integers(1, 4), frames=st.integers(1, 5),
           data=st.data(), layout=st.sampled_from(["C", "F", "block"]),
           give_out=st.booleans(), give_work=st.booleans())
    def test_out_and_work_give_the_allocating_result(self, d, checks, frames, data, layout,
                                                      give_out, give_work):
        # buffers longer than needed and full of NaN, as a reused workspace
        # holds whatever the previous call left
        size = d * checks * frames
        values = data.draw(st.lists(MINSUM_ENTRIES, min_size=size, max_size=size))
        rows = np.array(values).reshape(d, checks, frames).reshape(d, -1).T
        spare = np.full(size + 5, np.nan)[:size]
        xc, out = {"C": (np.ascontiguousarray(rows), spare.reshape(rows.shape)),
                   "F": (np.asfortranarray(rows), spare.reshape(rows.shape[::-1]).T),
                   "block": (rows, spare.reshape(d, -1).T)}[layout]
        want = check_minsum_terms(xc)
        work = np.full(minsum_work_size(size) + 3, np.nan) if give_work else None
        u = check_minsum_terms(xc, out=out if give_out else None, work=work)
        assert u is out if give_out else same_layout(u, xc)
        assert_same_bits(u, want)

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

    def test_infinite_magnitude_is_an_extrinsic_minimum(self):
        # the other entry's magnitude, even when it is infinite
        xc = np.array([[-0.4, -np.inf]])
        assert_same_bits(check_minsum_terms(xc), [[-np.inf, -0.4]])
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
        assert_same_bits(check_minsum_terms(xc), serial.check_minsum_terms(xc)[0])


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
            decode_bp_batch(hamming, llrs)

    def test_noiseless_exits_first_iteration(self, hamming):
        g = derive_generator(hamming)
        cw = encode(g, np.array([1, 0, 1, 1], dtype=np.uint8)[None])[0]
        bits, _, iters, ok = decode_bp_batch(hamming, 20.0 * bipolar(cw)[None],
                                             BpConfig(max_iters=5))
        assert iters[0] == 1
        assert ok[0] and syndrome(hamming, bits[0])[1] == 0
        assert np.array_equal(bits[0], cw)

    def test_repetition_toy_conflicting_llrs(self):
        # single degree-2 check; hand simulation: after one exchange both
        # beliefs equal -2, so the stronger (negative) evidence wins
        h = ParityCheckMatrix.from_rows(np.array([[1, 1]], dtype=np.uint8))
        bits, beliefs, iters, ok = decode_bp_batch(h, np.array([[1.0, -3.0]]),
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
            bits, beliefs, iters, ok = decode_bp_batch(hamming, llr[None], cfg)
            ref_bits, ref_beliefs, ref_iters, ref_ok = reference_decode(hamming, llr, cfg)
            assert np.array_equal(bits[0], ref_bits)
            np.testing.assert_allclose(beliefs[0], ref_beliefs, atol=1e-9)
            assert iters[0] == ref_iters and ok[0] == ref_ok

    def test_matches_reference_on_tree_code(self):
        h = make_tree_code(5)
        rng = np.random.default_rng(12)
        cfg = BpConfig(max_iters=6)
        for _ in range(20):
            llr = rng.normal(0, 2, h.n)
            bits, beliefs, _, _ = decode_bp_batch(h, llr[None], cfg)
            ref_bits, ref_beliefs, _, _ = reference_decode(h, llr, cfg)
            assert np.array_equal(bits[0], ref_bits)
            np.testing.assert_allclose(beliefs[0], ref_beliefs, atol=1e-9)

    def test_batch_equals_sequential(self, ldpc_49_24):
        rng = np.random.default_rng(13)
        llrs = rng.normal(0.5, 2.0, (32, ldpc_49_24.n))
        cfg = BpConfig(max_iters=5)
        bits, beliefs, iters, ok = decode_bp_batch(ldpc_49_24, llrs, cfg)
        for i in range(32):
            # a batch of one: early-exit compaction must keep frames independent
            b1, bel1, it1, ok1 = decode_bp_batch(ldpc_49_24, llrs[i:i + 1], cfg)
            assert np.array_equal(b1[0], bits[i])
            assert_same_bits(bel1[0], beliefs[i])
            assert it1[0] == iters[i] and ok1[0] == ok[i]

    def test_dimension_mismatch(self, hamming):
        with pytest.raises(ValueError):
            decode_bp_batch(hamming, np.zeros((1, 6)))
        with pytest.raises(ValueError):
            decode_bp_batch(hamming, np.zeros(hamming.n))  # a word, not a batch

    def test_early_exit_returns_valid_codewords(self, ldpc_49_24):
        rng = np.random.default_rng(14)
        g = derive_generator(ldpc_49_24)
        cw = encode(g, rng.integers(0, 2, ldpc_49_24.k)[None])[0]
        llr = 2.2 * bipolar(cw) + rng.normal(0, 1.4, ldpc_49_24.n)
        bits, _, _, ok = decode_bp_batch(ldpc_49_24, llr[None, :] + np.zeros((64, 1)),
                                         BpConfig(max_iters=10))
        for i in range(64):
            if ok[i]:
                _, nerr = syndrome(ldpc_49_24, bits[i])
                assert nerr == 0


class TestTreeExactness:
    def test_sum_product_matches_brute_force_map(self):
        h = make_tree_code(5)  # n=11, k=6
        rng = np.random.default_rng(21)
        cfg = BpConfig(max_iters=2 * (h.n + h.num_checks), message_clamp=1e9,
                       early_exit=False)
        for _ in range(10):
            llr = rng.uniform(-3, 3, h.n)
            bits, beliefs, _, _ = decode_bp_batch(h, llr[None], cfg)
            exact = map_marginals(h, llr)
            np.testing.assert_allclose(beliefs[0], exact, atol=1e-6)
            assert np.array_equal(bits[0], hard_decide(exact))


class TestExtrinsicIdentity:
    def test_belief_splits_into_message_pairs(self, hamming):
        # with clamping disabled the decomposition s = v2c + c2v is exact
        cfg = BpConfig(max_iters=1, message_clamp=1e9)
        rng = np.random.default_rng(5)
        llr = rng.normal(0, 2, hamming.n)
        l = llr.copy()
        v2c = {(c, v): l[v] for c, vs in enumerate(hamming.chk_adjacency) for v in vs}
        c2v = {}
        for c, vs in enumerate(hamming.chk_adjacency):
            for v in vs:
                c2v[(c, v)] = check_update_sumproduct([v2c[(c, vp)] for vp in vs if vp != v])
        for v in range(hamming.n):
            s = belief(l[v], [c2v[(c, v)] for c in hamming.var_adjacency[v]])
            for c in hamming.var_adjacency[v]:
                outgoing = variable_update(
                    l[v], [c2v[(cp, v)] for cp in hamming.var_adjacency[v] if cp != c],
                    message_clamp=1e9)
                assert s == pytest.approx(outgoing + c2v[(c, v)], rel=1e-12)


class TestVariantAgreement:
    def test_minsum_matches_sumproduct_at_high_snr(self, ldpc_49_24):
        rng = np.random.default_rng(31)
        g = derive_generator(ldpc_49_24)
        agree = 0
        trials = 300
        for _ in range(trials):
            cw = encode(g, rng.integers(0, 2, ldpc_49_24.k)[None])[0]
            llr = bipolar(cw) * rng.uniform(10, 20, ldpc_49_24.n)
            b1 = decode_bp_batch(ldpc_49_24, llr[None], BpConfig(max_iters=5))[0]
            b2 = decode_bp_batch(ldpc_49_24, llr[None],
                                 BpConfig(max_iters=5, variant=MIN_SUM))[0]
            agree += np.array_equal(b1, b2)
        assert agree / trials >= 0.99


class TestClampInsensitivity:
    def test_message_clamp_leaves_decisions_unchanged_at_tested_snr(self, ldpc_121_60):
        rng = np.random.default_rng(41)
        g = derive_generator(ldpc_121_60)
        from vcdc.channel import noise_scale, to_llr, transmit
        w = noise_scale(4.0, 60, 121)
        cw = encode(g, rng.integers(0, 2, (2000, 60)))
        y = transmit(bipolar(cw), w, rng)
        llr = to_llr(y, w)
        bits_30 = decode_bp_batch(ldpc_121_60, llr, BpConfig(max_iters=5))[0]
        bits_big = decode_bp_batch(ldpc_121_60, llr,
                                   BpConfig(max_iters=5, message_clamp=3000.0))[0]
        differing = (bits_30 != bits_big).any(axis=1).mean()
        assert differing < 0.005


def test_config_validation():
    with pytest.raises(ValueError):
        BpConfig(max_iters=0)
    with pytest.raises(ValueError):
        BpConfig(variant="layered")
    with pytest.raises(ValueError):
        BpConfig(message_clamp=-1.0)


def test_config_rejects_nan_message_clamp():
    # a NaN clamp would decode to NaN beliefs and all-zero bits flagged
    # syndrome_zero
    with pytest.raises(ValueError, match="message_clamp"):
        BpConfig(message_clamp=np.nan)
    assert BpConfig(message_clamp=np.inf).message_clamp == np.inf


@pytest.mark.parametrize("bad", [2.5, True, "5"])
def test_config_rejects_non_integer_max_iters(bad):
    # 2.5 would raise TypeError inside the decode, and True run one iteration
    with pytest.raises(ValueError, match="max_iters"):
        BpConfig(max_iters=bad)
    assert BpConfig(max_iters=np.int64(3)).max_iters == 3


def test_isolated_variable_keeps_channel_belief():
    h = ParityCheckMatrix.from_rows(np.array([[1, 1, 0]], dtype=np.uint8))
    bits, beliefs, _, _ = decode_bp_batch(h, np.array([[2.0, 1.0, -0.7]]), BpConfig(max_iters=3))
    assert beliefs[0, 2] == pytest.approx(-0.7)
    assert bits[0, 2] == 1


def degree_checks(h, d):
    """The checks of degree ``d``, ascending."""
    return [c for c, vs in enumerate(h.chk_adjacency) if len(vs) == d]


def row_checks(h, ei):
    """The check of each message row: slot after slot, every check of the
    row's degree group, in order."""
    return np.concatenate([np.tile(degree_checks(h, d), d) for d in ei.degree_groups])


def canonical_rows(h, ei):
    """For each message row, its index among the check-major edges of
    ``serial.RowMajorEdges``, found by the row's (check, variable) pair."""
    canonical = {(c, v): e for e, (c, v) in
                 enumerate((c, v) for c, vs in enumerate(h.chk_adjacency) for v in vs)}
    return np.array([canonical[c, v] for c, v in zip(row_checks(h, ei), ei.row_var.tolist())])


def assert_check_blocks(h, ei):
    """Each degree group's (d, checks, B) block is a view of the messages
    whose rows are, slot j by slot j, the j-th variables of its checks:
    the (d, checks) table of the degree-d checks of H, in order."""
    msgs = np.zeros((ei.num_edges, 3))
    start = 0
    for (d, rows), block in zip(ei.degree_groups.items(), ei.check_blocks(msgs)):
        assert rows.start == start
        assert np.shares_memory(block, msgs)
        table = np.array([h.chk_adjacency[c] for c in degree_checks(h, d)])
        assert np.array_equal(ei.row_var[rows].reshape(d, -1), table.T)
        start = rows.stop
    assert list(ei.degree_groups) == sorted({len(vs) for vs in h.chk_adjacency})
    assert start == ei.num_edges == ei.row_var.size


@pytest.mark.parametrize("name", codes.available())
def test_every_degree_group_is_a_view(name):
    h = codes.load(name)
    assert_check_blocks(h, EdgeIndex(h))


@st.composite
def sparse_codes(draw):
    """Parity-check matrices whose check degrees (2 to 12) interleave, with
    a repeated row (so rank < rows), a variable in no check, and at times a
    variable in every check."""
    n = draw(st.integers(6, 20))
    m = draw(st.integers(2, min(n - 2, 14)))
    rows = np.zeros((m, n), dtype=np.uint8)
    for r in range(m):
        d = draw(st.integers(2, min(12, n - 1)))
        rows[r, draw(st.lists(st.integers(0, n - 2), min_size=d, max_size=d, unique=True))] = 1
    if draw(st.booleans()):
        rows[:, draw(st.integers(0, n - 2))] = 1
    rows[draw(st.integers(1, m - 1))] = rows[0]
    return ParityCheckMatrix.from_rows(rows)


def rows_code(n, rows):
    """The parity-check matrix with ``n`` columns and the given check rows."""
    matrix = np.zeros((len(rows), n), dtype=np.uint8)
    for r, cols in enumerate(rows):
        matrix[r, list(cols)] = 1
    return ParityCheckMatrix.from_rows(matrix)


@settings(max_examples=80, deadline=None)
@given(h=sparse_codes(), variant=st.sampled_from([SUM_PRODUCT, MIN_SUM]),
       early_exit=st.booleans(), frames=st.integers(1, 40), iters=st.integers(1, 8),
       clamp=st.sampled_from([30.0, 3.0]), seed=st.integers(0, 2 ** 32 - 1))
# a belief of -1.1e-16 where the scalar rules sum to 0.0 flips a bit
@example(h=rows_code(19, [(0, 1), (0, 1, 2, 3, 4, 6, 8, 9, 10), (3, 6), (0, 1, 6, 7, 8),
                          (0, 1), (0, 1)]),
         variant=MIN_SUM, early_exit=True, frames=4, iters=2, clamp=30.0, seed=1587)
def test_matches_row_major_oracle_on_random_codes(h, variant, early_exit, frames, iters,
                                                  clamp, seed):
    ei = EdgeIndex(h)
    assert_check_blocks(h, ei)
    rng = np.random.default_rng(seed)
    llrs = rng.normal(1.0, 2.5, (frames, h.n))
    llrs[rng.random(llrs.shape) < 0.05] = 0.0
    llrs[rng.random(llrs.shape) < 0.05] = -0.0
    cfg = BpConfig(max_iters=iters, variant=variant, message_clamp=clamp,
                   early_exit=early_exit)
    bits, beliefs, its, ok = decode_bp_batch(h, llrs, cfg, edge_index=ei)
    want = serial.decode_bp_batch(h, llrs, cfg)
    assert np.array_equal(bits, want[0])
    assert_same_bits(beliefs, want[1])
    assert np.array_equal(its, want[2]) and np.array_equal(ok, want[3])

    # the scalar rules, at a clamp that keeps check products clear of the
    # arctanh clip, where rounding differences would outgrow the tolerance
    cfg = dataclasses.replace(cfg, message_clamp=3.0, early_exit=True)
    bits, beliefs, its, ok = decode_bp_batch(h, llrs[:3], cfg, edge_index=ei)
    for i, llr in enumerate(llrs[:3]):
        ref_bits, ref_beliefs, ref_iters, ref_ok = reference_decode(h, llr, cfg)
        # within the tolerance of the beliefs their sign is not determined
        signed = np.abs(ref_beliefs) > 1e-9
        assert np.array_equal(bits[i][signed], ref_bits[signed])
        np.testing.assert_allclose(beliefs[i], ref_beliefs, atol=1e-9)
        assert its[i] == ref_iters and ok[i] == ref_ok


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
        assert np.array_equal(checks[block].T, [h.var_adjacency[v] for v in variables])
        start += block.size
    assert start == ei.num_edges
    grouped = np.concatenate([ei.isolated] + [v for _, v in ei.var_groups])
    assert sorted(grouped.tolist()) == list(range(h.n))
    assert ei.isolated.tolist() == [v for v in range(h.n) if not h.var_adjacency[v]]
    # the belief sums of the oracle's canonical edges, bit for bit
    rng = np.random.default_rng(seed)
    c2v = rng.normal(size=(ei.num_edges, 5)) * 10.0 ** rng.integers(-8, 9, (ei.num_edges, 5))
    canonical = np.empty_like(c2v.T)
    canonical[:, canonical_rows(h, ei)] = c2v.T
    assert_same_bits(ei.belief_sums(c2v), serial.RowMajorEdges(h).belief_sums(canonical).T)


def test_belief_sums_round_as_reduceat():
    # degrees from 1 to 300 take numpy's pairwise summation through all
    # three of its regimes (under 8 terms, up to 128, halved above)
    rng = np.random.default_rng(3)
    m, n = 300, 320
    rows = np.zeros((m, n), dtype=np.uint8)
    rows[:, :2] = 1
    for v in range(2, n - 1):
        rows[rng.choice(m, size=rng.integers(1, 140), replace=False), v] = 1
    h = ParityCheckMatrix.from_rows(rows)
    ei = EdgeIndex(h)
    c2v = rng.normal(size=(ei.num_edges, 4)) * 10.0 ** rng.integers(-8, 17, (ei.num_edges, 4))
    c2v[rng.random(c2v.shape) < 0.05] = -0.0
    canonical = np.empty_like(c2v.T)
    canonical[:, canonical_rows(h, ei)] = c2v.T
    assert_same_bits(ei.belief_sums(c2v), serial.RowMajorEdges(h).belief_sums(canonical).T)


def test_belief_sums_into_out_match_the_allocating_form():
    # variable 0 is in no check, 1 in one, 2 in five and 3 and 4 in all
    # twelve: the NaN in ``out`` must not survive on the one of degree zero
    rng = np.random.default_rng(8)
    m, n = 12, 20
    rows = np.zeros((m, n), dtype=np.uint8)
    rows[0, 1] = rows[:5, 2] = rows[:, 3] = rows[:, 4] = 1
    for v in range(5, n):
        rows[rng.choice(m, size=rng.integers(1, m), replace=False), v] = 1
    h = ParityCheckMatrix.from_rows(rows)
    assert [len(h.var_adjacency[v]) for v in range(4)] == [0, 1, 5, 12]
    ei = EdgeIndex(h)
    c2v = rng.normal(size=(ei.num_edges, 6))
    out, gather = np.full((n, 6), np.nan), np.full_like(c2v, np.nan)
    assert ei.belief_sums(c2v, out=out, gather=gather) is out
    assert_same_bits(out, ei.belief_sums(c2v))


@pytest.mark.parametrize("variant, bound", [(SUM_PRODUCT, 3.5), (MIN_SUM, 4.5)])
def test_decode_allocates_one_workspace(ldpc_121_60, variant, bound):
    # two (E, B) message slabs, small (n, B) ones and, for min-sum, the
    # kernel's workspace; message arrays made per iteration exceed the bound
    h, frames = ldpc_121_60, 512
    rng = np.random.default_rng(12)
    w = noise_scale(4.0, h.k, h.n)
    cw = encode(derive_generator(h), rng.integers(0, 2, (frames, h.k)))
    llrs = to_llr(transmit(bipolar(cw), w, rng), w)
    ei = EdgeIndex(h)
    cfg = BpConfig(variant=variant)
    peak = traced_peak(lambda: decode_bp_batch(h, llrs, cfg, edge_index=ei))
    assert peak < bound * ei.num_edges * frames * 8


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
    hard = encode(derive_generator(h), rng.integers(0, 2, (10, h.k)))
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
    x = bipolar(encode(derive_generator(h), rng.integers(0, 2, (64, h.k))))
    if csnr is None:
        llrs = 8.0 * x
    else:
        w = noise_scale(csnr, h.k, h.n)
        llrs = to_llr(transmit(x, w, rng), w)
    cfg = BpConfig(max_iters=iters, variant=variant, early_exit=early_exit)
    bits, beliefs, its, ok = decode_bp_batch(h, llrs, cfg)
    want = serial.decode_bp_batch(h, llrs, cfg)
    assert np.array_equal(bits, want[0])
    assert_same_bits(beliefs, want[1])
    assert np.array_equal(its, want[2]) and np.array_equal(ok, want[3])
    if case == "valid at entry":
        assert ok.all() and (its == 1).all()
    elif case == "never valid":
        assert not ok.any() and (its == iters).all()
    else:
        assert 0 < ok.sum() < len(ok) and (early_exit or (its == iters).all())
