import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdc import codes
from vcdc.codebook import (AlistError, ParityCheckMatrix, bipolar, degree_tables,
                           derive_generator, encode, parse_alist, syndrome)

from conftest import (adjacency, bundled_codes, enumerate_codewords, gf2_rank, load_tool,
                      random_layered_code)

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
        # row weights match the hand-written H by inspection
        assert h.rows.sum(axis=1).tolist() == [4, 4, 4]
        assert adjacency(h.rows)[0] == (0, 2, 4, 6)

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
        assert (h.rows.sum(axis=1) == 2).all()

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
        for name in bundled_codes():
            h = codes.load(name)
            h2 = parse_alist(make_codes.serialize_alist(h))
            assert np.array_equal(h2.rows, h.rows)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 40), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_serialize_round_trip_random(self, n, data, seed):
        # random degrees per check, and variables in no check at all
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(1, n - 1))
        rows = np.zeros((m, n), dtype=np.uint8)
        for r in range(m):
            rows[r, rng.choice(n, rng.integers(2, n + 1), replace=False)] = 1
        rows[:, rng.random(n) < data.draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0
        rows[:, :2] = 1
        h = ParityCheckMatrix(rows)
        assert np.array_equal(parse_alist(make_codes.serialize_alist(h)).rows, rows)

    # (edits of HAMMING_ALIST by line, the error message): one case per kind
    # of error, each naming the first offending list where a list is at fault
    MALFORMED = [
        ({0: "7 x"}, r"non-integer token in alist: .*'x'"),
        ({0: "0 3"}, r"bad header: N=0, M=3 \(need N > 0, M > 0\)"),
        ({0: "7 0"}, r"bad header: N=7, M=0 \(need N > 0, M > 0\)"),
        ({1: "0 4"}, r"bad max degrees 0/4"),
        ({1: "3 1"}, r"bad max degrees 3/1"),
        ({2: "1 1 2 1 2 2 4"}, r"declared degree exceeds declared maximum"),
        ({3: "4 5 4"}, r"declared degree exceeds declared maximum"),
        ({6: "1 4 0"}, r"variable list 2: index 4 out of range 1..3"),
        ({6: "1 -1 0", 7: "0 0 9"}, r"variable list 2: index -1 out of range 1..3"),
        ({12: "2 3 -7 -6"}, r"check list 1: index -7 out of range 1..7"),
        ({6: "1 0 0"}, r"variable list 2: 1 entries but declared degree 2"),
        ({6: "1 1 0"}, r"variable list 2: 1 entries but declared degree 2"),
        ({5: "1 2 0", 7: "9 0 0"}, r"variable list 1: 2 entries but declared degree 1"),
        ({7: "9 0 0", 8: "1 0 0"}, r"variable list 3: index 9 out of range 1..3"),
        ({12: "2 3 6 0", 13: "4 5 6 8"}, r"check list 1: 3 entries but declared degree 4"),
        ({4: "2 0 0", 5: "1 0 0"}, r"variable list 0 disagrees with check lists"),
        ({9: "1 3 0"}, r"variable list 5 disagrees with check lists"),
        ({13: "4 5 6 7 9"}, r"1 unexpected trailing tokens"),
        ({0: "-1 3"}, r"bad header: N=-1, M=3 \(need N > 0, M > 0\)"),
        # more checks than variables passes the header; H's shape is the
        # constructor's to judge, and here the lists run out first
        ({0: "3 7"}, r"alist truncated while reading check lists"),
    ]
    TRUNCATED = [(1, "header"), (3, "max degrees"), (6, "variable degrees"),
                 (12, "check degrees"), (20, "variable list"), (40, "check list")]

    @pytest.mark.parametrize("edits, message", MALFORMED)
    def test_malformed_input_names_the_error_and_first_list(self, edits, message):
        lines = HAMMING_ALIST.splitlines()
        for i, line in edits.items():
            lines[i] = line
        with pytest.raises(AlistError, match=f"^{message}$"):
            parse_alist("\n".join(lines) + "\n")

    @pytest.mark.parametrize("count, section", TRUNCATED)
    def test_truncated_stream_names_the_section(self, count, section):
        tokens = HAMMING_ALIST.split()
        assert len(tokens) == 47
        with pytest.raises(AlistError, match=f"^alist truncated while reading {section}"):
            parse_alist(" ".join(tokens[:count]))

    BIG = str(10**20)

    @pytest.mark.parametrize("edits, message", [
        ({0: f"{BIG} 3"}, r"alist truncated while reading variable degrees"),
        ({0: f"7 {BIG}"}, r"alist truncated while reading check degrees"),
        ({1: f"{BIG} 4"}, r"alist truncated while reading variable list.*"),
        ({2: f"1 1 2 1 2 2 {BIG}"}, r"declared degree exceeds declared maximum"),
        ({2: f"1 1 2 1 2 2 -{BIG}"}, rf"variable list 6: 3 entries but declared degree -{BIG}"),
        ({11: f"1 3 5 {BIG}"}, rf"check list 0: index {BIG} out of range 1..7"),
        ({8: f"3 -{BIG} 0"}, rf"variable list 4: index -{BIG} out of range 1..3"),
        ({11: f"1 3 {2**63} 7"}, rf"check list 0: index {2**63} out of range 1..7"),
    ])
    def test_tokens_beyond_int64(self, edits, message):
        # parsed as Python ints, never cast: the messages keep them exact
        lines = HAMMING_ALIST.splitlines()
        for i, line in edits.items():
            lines[i] = line
        with pytest.raises(AlistError, match=f"^{message}$"):
            parse_alist("\n".join(lines) + "\n")


class TestCodesLoad:
    """``codes.load``: the alist file at the path when one exists, else the
    bundled code of a name with no path separator, else the error of
    opening the path."""

    BUNDLED = Path(codes.__file__).parent

    @pytest.fixture(autouse=True)
    def empty_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("name", ["hamming_7_4", "hamming_7_4.alist"])
    def test_bundled_name_with_or_without_suffix(self, name):
        h = codes.load(name)
        bundled = parse_alist((self.BUNDLED / "hamming_7_4.alist").read_text("ascii"))
        assert (h.n, h.k) == (7, 4) and np.array_equal(h.rows, bundled.rows)

    @pytest.mark.parametrize("as_path", [str, Path])
    def test_alist_path_as_str_or_path(self, tmp_path, as_path):
        path = tmp_path / "sub" / "mine.alist"
        path.parent.mkdir()
        path.write_text(HAMMING_ALIST, encoding="ascii")
        for name in (path, Path("sub") / "mine.alist"):
            h = codes.load(as_path(name))
            assert np.array_equal(h.rows, parse_alist(HAMMING_ALIST).rows)

    @pytest.mark.parametrize("name", ["hamming_7_4", "hamming_7_4.alist"])
    def test_a_file_in_the_working_directory_shadows_a_bundled_name(self, tmp_path, name):
        other = codes.load("ldpc_49_24")
        (tmp_path / name).write_text(make_codes.serialize_alist(other), encoding="ascii")
        assert np.array_equal(codes.load(name).rows, other.rows)

    @pytest.mark.parametrize("name", ["no_such_code", "no_such_code.alist",
                                      os.path.join("sub", "no_such_code"),
                                      os.path.join(".", "hamming_7_4")])
    def test_missing_name_raises_the_error_of_opening_it(self, name):
        # a name with a path separator is a path, even when its base is bundled
        with pytest.raises(FileNotFoundError,
                           match=re.escape(f"No such file or directory: '{name}'")):
            codes.load(name)


def identity_columns(g):
    """For each row i of the generator ``g``, a column equal to the unit
    vector e_i, where codewords carry message bit i verbatim."""
    return np.array([np.flatnonzero((g.T == row).all(axis=1))[0]
                     for row in np.eye(g.shape[0], dtype=g.dtype)])


def assert_degree_tables(mat, tables):
    """``tables`` lists every line of the 0/1 matrix ``mat`` once, grouped
    by degree, degrees ascending, each table the lines' columns in order."""
    seen, degrees, adj = [], [], adjacency(mat)
    for lines, table in tables:
        assert table.flags.c_contiguous and not table.flags.writeable
        assert not lines.flags.writeable and lines.dtype == table.dtype == np.int64
        assert table.shape == (len(adj[lines[0]]), lines.size)
        assert table.T.tolist() == [list(adj[c]) for c in lines]
        seen += lines.tolist()
        degrees.append(len(table))
    assert seen == sorted(seen, key=lambda c: len(adj[c]))
    assert sorted(seen) == list(range(len(mat))) and degrees == sorted(set(degrees))


@pytest.mark.parametrize("name", bundled_codes())
def test_check_tables_list_every_check_once_by_degree(name):
    h = codes.load(name)
    assert_degree_tables(h.rows, h.check_tables)
    assert_degree_tables(h.rows.T, degree_tables(h.rows.T))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.1, 0.5, 0.9]))
def test_degree_tables_of_random_matrices(m, n, seed, density):
    # lines of degree 0, a (0, lines) table first, included
    mat = _bits(np.random.default_rng(seed), (m, n), density)
    for side in (mat, mat.T):
        assert_degree_tables(side, degree_tables(side))


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
    def test_alias_is_the_generator_built_with_h(self, hamming):
        # the library reads h.generator; the alias stays for the benchmark
        # harness, which calls and times it by this name
        assert derive_generator(hamming) is hamming.generator

    def test_hamming_generator_by_exhaustive_gf2(self, hamming):
        g = hamming.generator
        assert g.shape == (4, 7) and g.dtype == np.uint8 and not g.flags.writeable
        prod = (g.astype(int) @ hamming.rows.T.astype(int)) % 2
        assert not prod.any()
        assert gf2_rank(g) == 4

    def test_generator_orthogonal_for_every_bundled_code(self):
        for name in bundled_codes():
            h = codes.load(name)
            g = h.generator
            assert g.shape == (h.k, h.n), name
            assert not ((g.astype(int) @ h.rows.T.astype(int)) % 2).any(), name
            assert gf2_rank(g) == h.k, name
            assert len(identity_columns(g)) == h.k, name

    def test_systematic_h_gives_identity_permutation(self):
        # H = [I | P] pivots on its first columns, so G = [P^T | I] as it stands
        p = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        h = ParityCheckMatrix(np.concatenate([np.eye(2, dtype=np.uint8), p], axis=1))
        g = h.generator
        assert np.array_equal(g, np.concatenate([p.T, np.eye(3, dtype=np.uint8)], axis=1))

    def test_duplicate_row_reports_rank(self):
        # two checks of rank 1: k is n - rank, not n - rows
        rows = np.array([[1, 1, 0, 0], [1, 1, 0, 0]], dtype=np.uint8)
        h = ParityCheckMatrix(rows)
        assert (h.n, h.k, h.num_checks, h.rate) == (4, 3, 2, 0.75)
        g = h.generator
        assert g.shape == (3, 4) and gf2_rank(g) == 3
        assert not ((g.astype(int) @ rows.T.astype(int)) % 2).any()

    @pytest.mark.parametrize("q, j, name", [(7, 4, "ldpc_49_24"), (11, 6, "ldpc_121_60")])
    def test_redundant_array_rows_give_the_bundled_code(self, q, j, name):
        # the j - 1 dependent rows the bundled code drops add checks, not
        # constraints: the same k and the same codewords
        h, bundled = ParityCheckMatrix(make_codes.array_rows(q, j)), codes.load(name)
        assert (h.n, h.k, h.num_checks) == (bundled.n, bundled.k, q * j)
        g = h.generator
        assert g.shape == (h.k, h.n) and gf2_rank(g) == h.k
        for rows in (h.rows, bundled.rows):
            assert not ((g.astype(int) @ rows.T.astype(int)) % 2).any()

    def test_hamming_dual_words_give_the_bundled_code(self, hamming):
        # the seven nonzero words of the row space, one check each: 7 rows
        # of rank 3, so k = 4 and the same 16 codewords
        msgs = (np.arange(1, 8)[:, None] >> np.arange(3)) & 1
        h = ParityCheckMatrix((msgs @ hamming.rows.astype(int)) % 2)
        assert (h.n, h.k, h.num_checks) == (7, 4, 7)
        assert (h.rows.sum(axis=1) == 4).all()
        assert np.array_equal(parse_alist(make_codes.serialize_alist(h)).rows, h.rows)
        words = {tuple(w) for w in enumerate_codewords(h).tolist()}
        assert len(words) == 16
        assert words == {tuple(w) for w in enumerate_codewords(hamming).tolist()}

    def test_bundled_redundant_code_keeps_every_array_row(self):
        h = codes.load("ldpc_121_60_redundant")
        assert np.array_equal(h.rows, make_codes.array_rows(11, 6))
        assert (h.n, h.k, h.num_checks) == (121, 60, 66)
        # one degree-11 check table in 6 layer groups, one degree-6 variable table
        assert [table.shape for _, table in h.check_tables] == [(11, 66)]
        assert [table.shape for _, table in h.layer_groups] == [(11, 11)] * 6
        assert [table.shape for _, table in degree_tables(h.rows.T)] == [(6, 121)]


class TestEncode:
    def test_all_zero_message(self, hamming):
        g = hamming.generator
        assert not encode(g, np.zeros((1, 4), dtype=np.uint8)).any()

    def test_systematic_extension_unique_in_codebook(self, hamming):
        # oracle: the full codeword set from exhaustive enumeration
        g = hamming.generator
        cws = enumerate_codewords(hamming)
        info_positions = identity_columns(g)
        m = np.array([1, 0, 0, 0], dtype=np.uint8)
        cw = encode(g, m[None])[0]
        assert any(np.array_equal(cw, c) for c in cws)
        assert np.array_equal(cw[info_positions], m)
        matches = [c for c in cws if np.array_equal(c[info_positions], m)]
        assert len(matches) == 1

    def test_gf2_linearity(self, ldpc_49_24):
        g = ldpc_49_24.generator
        rng = np.random.default_rng(0)
        for _ in range(20):
            m1 = rng.integers(0, 2, (1, ldpc_49_24.k)).astype(np.uint8)
            m2 = rng.integers(0, 2, (1, ldpc_49_24.k)).astype(np.uint8)
            assert np.array_equal(encode(g, m1 ^ m2), encode(g, m1) ^ encode(g, m2))

    def test_length_mismatch(self, hamming):
        g = hamming.generator
        with pytest.raises(ValueError, match="length"):
            encode(g, np.zeros((1, 5), dtype=np.uint8))

    def test_batch_matches_single(self, hamming):
        g = hamming.generator
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
        g = hamming.generator
        cw = encode(g, np.array([1, 0, 1, 1], dtype=np.uint8)[None])[0]
        for v in range(hamming.n):
            flipped = cw.copy()
            flipped[v] ^= 1
            _, count = syndrome(hamming, flipped)
            assert count == hamming.rows[:, v].sum()

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
        assert counts.tolist() == [0, hamming.rows[:, 0].sum(),
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
        h = ParityCheckMatrix(rows)
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
                         lambda m: encode(h.generator, m)),
    "bipolar": lambda h: (h.rows[:2].copy(), bipolar),
    "from_rows": lambda h: (h.rows.copy(),
                            lambda r: ParityCheckMatrix(r).rows),
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
    adj = adjacency(h.rows)
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
        ("ldpc_121_60", 6), ("ldpc_121_60_redundant", 6), ("ldpc_121_70", 5),
        ("ldpc_121_80", 4), ("ldpc_49_24", 4),
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
        groups = ParityCheckMatrix(rows).layer_groups
        assert [(c.start, c.stop) for c, _ in groups] == [(0, 2), (2, 4), (4, 5)]
        assert groups[0][1].tolist() == [[0, 2], [1, 3]]
        assert groups[2][1].tolist() == [[6], [9]]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 48), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_random_codes(self, n, data, seed):
        assert_layer_partition(random_layered_code(seed, n, data.draw(st.integers(1, 2 * n))))


class TestFromRowsRejects:
    def test_one_dimensional_input(self):
        with pytest.raises(ValueError, match="must be two-dimensional"):
            ParityCheckMatrix(np.array([1, 1, 0], dtype=np.uint8))

    def test_rank_n(self):
        # three independent checks on three variables leave only the zero word
        rows = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match=r"^parity-check matrix has rank n=3, so k = 0 "
                                             r"\(need rank < n\)$"):
            ParityCheckMatrix(rows)

    def test_no_rows(self):
        with pytest.raises(ValueError, match="^parity-check matrix has no rows$"):
            ParityCheckMatrix(np.zeros((0, 3), dtype=np.uint8))

    @pytest.mark.parametrize("m", [3, 4])
    def test_accepts_rows_not_below_n_at_rank_below_n(self, m):
        # all-ones rows have rank 1 however many there are
        h = ParityCheckMatrix(np.ones((m, 3), dtype=np.uint8))
        assert (h.num_checks, h.n, h.k) == (m, 3, 2)

    def test_bare_constructor_checks_rows(self):
        # an entry of 2 and a degree-1 check: both once passed the bare
        # constructor, which then derived k and the check tables from them
        rows = np.array([[2, 1, 0, 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError, match="^parity-check matrix entries must be 0 or 1$"):
            ParityCheckMatrix(rows=rows)
        with pytest.raises(AlistError, match="^check 1 has degree 1 < 2$"):
            ParityCheckMatrix(rows=np.minimum(rows, 1))

    def test_keeps_a_frozen_copy(self):
        rows = np.array([[1, 1, 0], [0, 1, 1]])
        h = ParityCheckMatrix(rows)
        rows[0, 2] = 1
        assert h.rows.tolist() == [[1, 1, 0], [0, 1, 1]] and h.rows.dtype == np.uint8
        assert not h.rows.flags.writeable
