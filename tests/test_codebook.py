from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdc import codes
from vcdc.codebook import (AlistError, ParityCheckMatrix, bipolar, derive_generator, encode,
                           gf2_rank, parse_alist, syndrome)

from conftest import enumerate_codewords, load_tool, random_layered_code

make_codes = load_tool("make_codes")

# canonical (7,4) Hamming: columns are the binary digits of 1..7
HAMMING_ALIST = """\
7 3
3 4
1 1 2 1 2 2 3
4 4 4
1 0 0
2 0 0
1 2 0
3 0 0
1 3 0
2 3 0
1 2 3
1 3 5 7
2 3 6 7
4 5 6 7
"""


class TestParseAlist:
    def test_hamming_hand_written(self):
        h = parse_alist(HAMMING_ALIST)
        assert (h.n, h.k) == (7, 4)
        assert [len(a) for a in h.chk_adjacency] == [4, 4, 4]
        # row weights match the hand-written H by inspection
        assert h.rows.sum(axis=1).tolist() == [4, 4, 4]
        assert h.chk_adjacency[0] == (0, 2, 4, 6)

    def test_bundled_ldpc_121_60_dimensions(self):
        h = codes.load("ldpc_121_60")
        assert (h.n, h.k) == (121, 60)
        assert h.num_checks == 61

    def test_chain_code_degrees_all_two(self):
        n = 5
        text = f"{n} {n-1}\n2 2\n" + "1 " + "2 " * (n - 2) + "1\n" + "2 " * (n - 1) + "\n"
        rows = ["1 0", "1 2", "2 3", "3 4", "4 0"]
        chks = [f"{i+1} {i+2}" for i in range(n - 1)]
        text += "\n".join(rows + chks) + "\n"
        h = parse_alist(text)
        assert all(len(a) == 2 for a in h.chk_adjacency)

    def test_malformed_header(self):
        with pytest.raises(AlistError):
            parse_alist("7\n")
        with pytest.raises(AlistError):
            parse_alist("3 7\n2 2\n")  # M >= N
        with pytest.raises(AlistError):
            parse_alist("a b\n")

    def test_truncated_stream(self):
        with pytest.raises(AlistError, match="truncated"):
            parse_alist("7 3\n3 4\n1 2 1 1 2 2 3\n4 4 4\n1 0 0\n")

    def test_out_of_range_index(self):
        bad = HAMMING_ALIST.replace("1 3 5 7", "1 3 5 9", 1)
        with pytest.raises(AlistError, match="out of range"):
            parse_alist(bad)

    def test_degree_mismatch(self):
        bad = HAMMING_ALIST.replace("1 2 0\n", "1 0 0\n", 1)
        with pytest.raises(AlistError):
            parse_alist(bad)

    def test_check_degree_below_two_rejected(self):
        text = "3 1\n1 2\n0 1 0\n1\n0\n1\n0\n2 0\n"
        with pytest.raises(AlistError):
            parse_alist(text)

    def test_inconsistent_var_and_check_lists(self):
        bad = HAMMING_ALIST.replace("1 0 0\n2 0 0\n", "2 0 0\n1 0 0\n", 1)
        with pytest.raises(AlistError, match="disagrees"):
            parse_alist(bad)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(AlistError, match="trailing"):
            parse_alist(HAMMING_ALIST + "9\n")

    def test_serialize_round_trip_all_bundled(self):
        for name in codes.available():
            h = codes.load(name)
            h2 = parse_alist(make_codes.serialize_alist(h))
            assert h2.var_adjacency == h.var_adjacency
            assert h2.chk_adjacency == h.chk_adjacency
            assert np.array_equal(h2.rows, h.rows)


def identity_columns(g):
    """For each row i of the generator ``g``, a column equal to the unit
    vector e_i, where codewords carry message bit i verbatim."""
    return np.array([np.flatnonzero((g.T == row).all(axis=1))[0]
                     for row in np.eye(g.shape[0], dtype=g.dtype)])


@pytest.mark.parametrize("name", codes.available())
def test_check_tables_list_every_check_once_by_degree(name):
    h = codes.load(name)
    seen, degrees = [], []
    for checks, table in h.check_tables:
        assert table.flags.c_contiguous and not table.flags.writeable
        assert not checks.flags.writeable
        assert table.T.tolist() == [list(h.chk_adjacency[c]) for c in checks]
        seen += checks.tolist()
        degrees.append(len(table))
    assert seen == sorted(seen, key=lambda c: len(h.chk_adjacency[c]))
    assert sorted(seen) == list(range(h.num_checks)) and degrees == sorted(set(degrees))


def test_make_codes_reproduces_the_bundled_codes(tmp_path, monkeypatch, capsys):
    # the tool builds every bundled code from its construction and writes
    # it with serialize_alist
    monkeypatch.setattr(make_codes, "OUT_DIR", str(tmp_path))
    make_codes.main()
    bundled = Path(codes.__file__).parent
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in bundled.glob("*.alist"))
    for path in tmp_path.iterdir():
        assert path.read_bytes() == (bundled / path.name).read_bytes(), path.name


class TestDeriveGenerator:
    def test_hamming_generator_by_exhaustive_gf2(self, hamming):
        g = derive_generator(hamming)
        assert g.shape == (4, 7) and g.dtype == np.uint8 and not g.flags.writeable
        prod = (g.astype(int) @ hamming.rows.T.astype(int)) % 2
        assert not prod.any()
        assert gf2_rank(g) == 4

    def test_generator_orthogonal_for_every_bundled_code(self):
        for name in codes.available():
            h = codes.load(name)
            g = derive_generator(h)
            assert g.shape == (h.k, h.n), name
            assert not ((g.astype(int) @ h.rows.T.astype(int)) % 2).any(), name
            assert gf2_rank(g) == h.k, name
            assert len(identity_columns(g)) == h.k, name

    def test_systematic_h_gives_identity_permutation(self):
        # H = [I | P] pivots on its first columns, so G = [P^T | I] as it stands
        p = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        h = ParityCheckMatrix.from_rows(np.concatenate([np.eye(2, dtype=np.uint8), p], axis=1))
        g = derive_generator(h)
        assert np.array_equal(g, np.concatenate([p.T, np.eye(3, dtype=np.uint8)], axis=1))

    def test_duplicate_row_reports_rank(self):
        rows = np.array([[1, 1, 0, 0], [1, 1, 0, 0]], dtype=np.uint8)
        h = ParityCheckMatrix.from_rows(rows)
        with pytest.raises(ValueError, match="rank 1"):
            derive_generator(h)


class TestEncode:
    def test_all_zero_message(self, hamming):
        g = derive_generator(hamming)
        assert not encode(g, np.zeros((1, 4), dtype=np.uint8)).any()

    def test_systematic_extension_unique_in_codebook(self, hamming):
        # oracle: the full codeword set from exhaustive enumeration
        g = derive_generator(hamming)
        cws = enumerate_codewords(hamming)
        info_positions = identity_columns(g)
        m = np.array([1, 0, 0, 0], dtype=np.uint8)
        cw = encode(g, m[None])[0]
        assert any(np.array_equal(cw, c) for c in cws)
        assert np.array_equal(cw[info_positions], m)
        matches = [c for c in cws if np.array_equal(c[info_positions], m)]
        assert len(matches) == 1

    def test_gf2_linearity(self, ldpc_49_24):
        g = derive_generator(ldpc_49_24)
        rng = np.random.default_rng(0)
        for _ in range(20):
            m1 = rng.integers(0, 2, (1, ldpc_49_24.k)).astype(np.uint8)
            m2 = rng.integers(0, 2, (1, ldpc_49_24.k)).astype(np.uint8)
            assert np.array_equal(encode(g, m1 ^ m2), encode(g, m1) ^ encode(g, m2))

    def test_length_mismatch(self, hamming):
        g = derive_generator(hamming)
        with pytest.raises(ValueError, match="length"):
            encode(g, np.zeros((1, 5), dtype=np.uint8))

    def test_batch_matches_single(self, hamming):
        g = derive_generator(hamming)
        rng = np.random.default_rng(1)
        batch = rng.integers(0, 2, (8, 4)).astype(np.uint8)
        enc = encode(g, batch)
        for row, m in zip(enc, batch):
            assert np.array_equal(row, encode(g, m[None])[0])


class TestSyndrome:
    def test_valid_codewords_have_zero_syndrome(self, hamming):
        for cw in enumerate_codewords(hamming):
            s, count = syndrome(hamming, cw)
            assert count == 0 and not s.any()

    def test_single_flip_count_equals_column_degree(self, hamming):
        g = derive_generator(hamming)
        cw = encode(g, np.array([1, 0, 1, 1], dtype=np.uint8)[None])[0]
        for v in range(hamming.n):
            flipped = cw.copy()
            flipped[v] ^= 1
            _, count = syndrome(hamming, flipped)
            assert count == len(hamming.var_adjacency[v])

    def test_zero_word(self, hamming):
        _, count = syndrome(hamming, np.zeros(7, dtype=np.uint8))
        assert count == 0

    def test_length_mismatch(self, hamming):
        with pytest.raises(ValueError):
            syndrome(hamming, np.zeros(6, dtype=np.uint8))
        with pytest.raises(ValueError):
            syndrome(hamming, np.zeros((3, 6), dtype=np.uint8))

    def test_batch_counts_one_per_word(self, hamming):
        words = np.zeros((3, 7), dtype=np.uint8)
        words[1, 0] = 1
        words[2, :2] = 1
        s, counts = syndrome(hamming, words)
        assert s.shape == (3, 3) and s.dtype == np.uint8
        assert counts.tolist() == [0, len(hamming.var_adjacency[0]),
                                   int(((hamming.rows[:, 0] + hamming.rows[:, 1]) % 2).sum())]


def _bits(rng, shape, density):
    return (rng.random(shape) < density).astype(np.uint8)


def _gf2_reference(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64)) % 2


class TestGf2ProductDifferential:
    """encode's float32 GF(2) product and the syndrome against int64 arithmetic."""

    seeds = st.integers(0, 2**32 - 1)
    densities = st.sampled_from([0.02, 0.5, 0.98])
    sizes = st.integers(1, 256)

    @settings(max_examples=40, deadline=None)
    @given(rows=sizes, inner=sizes, cols=sizes, seed=seeds, density=densities)
    def test_product_matches_int64(self, rows, inner, cols, seed, density):
        # encode(b, a) is the product a @ b for any shapes, inner >= cols included
        rng = np.random.default_rng(seed)
        a, b = _bits(rng, (rows, inner), density), _bits(rng, (inner, cols), density)
        out = encode(b, a)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, _gf2_reference(a, b))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 256), data=st.data(), seed=seeds, density=densities)
    def test_encode_matches_int64(self, n, data, seed, density):
        # the float32 product's inner size k runs up to 255
        k = data.draw(st.integers(1, n - 1))
        batch = data.draw(st.integers(1, 256))
        rng = np.random.default_rng(seed)
        g = _bits(rng, (k, n), density)
        msgs = _bits(rng, (batch, k), density)
        out = encode(g, msgs)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, _gf2_reference(msgs, g))
        # one message is the batch msgs[:1]; a 1-D message is rejected
        with pytest.raises(ValueError, match="batch"):
            encode(g, msgs[0])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 256), data=st.data(), seed=seeds, density=densities)
    def test_batch_syndrome_matches_int64_and_single_words(self, n, data, seed, density):
        m = data.draw(st.integers(1, n - 1))
        batch = data.draw(st.integers(1, 64))
        rng = np.random.default_rng(seed)
        rows = _bits(rng, (m, n), density)
        rows[np.arange(m), np.arange(m) % n] = 1  # every check needs degree >= 2
        rows[np.arange(m), (np.arange(m) + 1) % n] = 1
        h = ParityCheckMatrix.from_rows(rows)
        words = _bits(rng, (batch, n), density)
        s, counts = syndrome(h, words)
        expected = _gf2_reference(words, rows.T)
        np.testing.assert_array_equal(s, expected)
        np.testing.assert_array_equal(counts, expected.sum(axis=1))
        for word, s_row, count in zip(words, s, counts):
            s_one, count_one = syndrome(h, word)
            np.testing.assert_array_equal(s_one, s_row)
            assert count_one == count and isinstance(count_one, int)


# every entry point that takes bits checks them: (uint8 bits, call) per code
BIT_CONSUMERS = {
    "syndrome": lambda h: (h.rows[:2].copy(), lambda x: syndrome(h, x)),
    "encode": lambda h: (np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8),
                         lambda m: encode(derive_generator(h), m)),
    "bipolar": lambda h: (h.rows[:2].copy(), bipolar),
    "from_rows": lambda h: (h.rows.copy(),
                            lambda r: ParityCheckMatrix.from_rows(r).chk_adjacency),
}
NON_BITS = [(2, np.int64), (-1, np.int64), (255, np.uint8), (0.5, np.float64),
            (np.nan, np.float64)]


class TestBipolar:
    def test_mapping(self):
        assert bipolar(np.array([0])) == [1.0]
        assert bipolar(np.array([1])) == [-1.0]
        assert bipolar(np.array([0, 1, 0])).tolist() == [1.0, -1.0, 1.0]

    def test_sign_round_trip(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        recovered = (bipolar(bits) < 0).astype(np.uint8)
        assert np.array_equal(recovered, bits)

    @pytest.mark.parametrize("value, dtype", NON_BITS)
    @pytest.mark.parametrize("consumer", sorted(BIT_CONSUMERS))
    def test_rejects_non_bits(self, hamming, consumer, value, dtype):
        template, call = BIT_CONSUMERS[consumer](hamming)
        bad = template.astype(dtype)
        bad.flat[1] = value
        with pytest.raises(ValueError, match="must be 0 or 1"):
            call(bad)

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64, np.float64])
    @pytest.mark.parametrize("consumer", sorted(BIT_CONSUMERS))
    def test_accepts_bits_of_any_dtype(self, hamming, consumer, dtype):
        template, call = BIT_CONSUMERS[consumer](hamming)
        np.testing.assert_equal(call(template.astype(dtype)), call(template))


def assert_layer_partition(h):
    """``h.layer_groups`` splits the checks, in order, into maximal runs of
    consecutive checks of one degree with pairwise disjoint variables."""
    adj = h.chk_adjacency
    groups = h.layer_groups
    assert [checks.start for checks, _ in groups] == [0] + [c.stop for c, _ in groups[:-1]]
    assert groups[-1][0].stop == h.num_checks
    for checks, table in groups:
        assert checks.step is None and checks.stop > checks.start
        members = [list(adj[c]) for c in range(checks.start, checks.stop)]
        # a C-ordered (d, g) table, a single check included, as in check_tables:
        # one degree, column i is check start + i
        assert table.shape == (len(members[0]), len(members))
        assert table.T.tolist() == members
        assert table.flags.c_contiguous
        assert table.dtype == np.int64 and not table.flags.writeable
        flat = [v for m in members for v in m]
        assert len(set(flat)) == len(flat)
        if checks.stop < h.num_checks:  # the next check cannot join the run
            nxt = adj[checks.stop]
            assert len(nxt) != len(members[0]) or not set(nxt).isdisjoint(flat)


class TestLayerGroups:
    @pytest.mark.parametrize("name, count", [
        ("ldpc_121_60", 6), ("ldpc_121_70", 5), ("ldpc_121_80", 4), ("ldpc_49_24", 4),
        ("hamming_7_4", 3), ("polar_64_32", 32), ("polar_128_64", 64)])
    def test_bundled_codes(self, name, count):
        # the LDPC array codes merge; Hamming and polar checks overlap their
        # neighbours, one group per check
        h = codes.load(name)
        assert len(h.layer_groups) == count
        assert_layer_partition(h)

    def test_built_once_per_code(self, hamming):
        assert hamming.layer_groups is hamming.layer_groups

    def test_overlap_and_degree_split_runs(self):
        rows = np.zeros((5, 10), dtype=np.uint8)
        for c, cols in enumerate([(0, 1), (2, 3), (4, 5, 6), (7, 8, 9), (6, 9)]):
            rows[c, list(cols)] = 1
        groups = ParityCheckMatrix.from_rows(rows).layer_groups
        assert [(c.start, c.stop) for c, _ in groups] == [(0, 2), (2, 4), (4, 5)]
        assert groups[0][1].tolist() == [[0, 2], [1, 3]]
        assert groups[2][1].tolist() == [[6], [9]]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 48), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_random_codes(self, n, data, seed):
        assert_layer_partition(random_layered_code(seed, n, data.draw(st.integers(1, n - 1))))
