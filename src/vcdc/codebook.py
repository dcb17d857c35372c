"""GF(2) linear block-code algebra.

Parses MacKay-style alist text into parity-check matrices, derives
generator matrices by Gaussian elimination over GF(2), encodes messages,
and computes syndromes as parities on H's degree-grouped check tables.
Bit vectors are numpy uint8 arrays with entries in {0, 1}, and every
entry point that takes bits rejects any other value; the bipolar map
sends bit b to the symbol 1 - 2b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class AlistError(ValueError):
    """Malformed alist stream or an alist describing an unusable Tanner graph."""


def _frozen(a):
    a.setflags(write=False)
    return a


def _as_bits(x, name):
    x = np.asarray(x)
    if not ((x == 0) | (x == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return x.astype(np.uint8)


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Binary parity-check matrix H, stored as its rows, one per check.

    n and ``num_checks`` are the shape of ``rows`` and k is n minus the
    GF(2) rank of H, so a redundant row adds a check but no constraint and
    H may have more rows than n.  Instances are immutable; ``num_edges``,
    ``check_tables`` and ``layer_groups`` are built from ``rows`` on first
    use, and the ``generator``, which also gives k, by the constructor.  The
    constructor keeps a copy of ``rows``; it rejects entries but 0 and 1, no
    rows, (an ``AlistError``) a check of degree < 2, and rank n, which leaves
    k = 0.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = _as_bits(self.rows, "parity-check matrix")  # a copy, frozen below
        if rows.ndim != 2:
            raise ValueError("parity-check matrix must be two-dimensional")
        if not rows.shape[0]:
            raise ValueError("parity-check matrix has no rows")
        chk_deg = rows.sum(axis=1)
        if (chk_deg < 2).any():
            bad = int(np.argmax(chk_deg < 2))
            raise AlistError(f"check {bad} has degree {int(chk_deg[bad])} < 2")
        object.__setattr__(self, "rows", _frozen(rows))
        if not self.k:
            raise ValueError(f"parity-check matrix has rank n={self.n}, so k = 0 (need rank < n)")

    @property
    def n(self):
        return self.rows.shape[1]

    @property
    def num_checks(self):
        return self.rows.shape[0]

    @property
    def k(self):
        return self.generator.shape[0]

    @property
    def rate(self):
        return self.k / self.n

    @cached_property
    def num_edges(self):
        """The number of ones in H: edges of the Tanner graph."""
        return int(self.rows.sum())

    @cached_property
    def check_tables(self):
        """The checks grouped by degree: ``degree_tables(rows)``."""
        return degree_tables(self.rows)

    @cached_property
    def layer_groups(self):
        """The checks split, in order, into maximal runs of consecutive checks
        of one degree whose variable sets are pairwise disjoint: a tuple of
        (slice of checks, table) pairs, tables as in ``check_tables``: a run
        of g checks of degree d, a single check included, has a (d, g)
        table, column i the variables of check start + i.
        """
        degrees = self.rows.sum(axis=1)
        starts, seen = [0], np.zeros(self.n, dtype=np.uint8)
        for c, row in enumerate(self.rows):
            if degrees[c] != degrees[starts[-1]] or (seen & row).any():
                starts.append(c)
                seen[:] = 0
            seen |= row
        return tuple((slice(start, stop), _line_table(self.rows[start:stop]))
                     for start, stop in zip(starts, starts[1:] + [self.num_checks]))

    @cached_property
    def generator(self):
        """Generator matrix via GF(2) Gaussian elimination, in H's column
        order.

        Row reduction brings H to the identity on its rank pivot columns and
        P on the rest in its first rank rows, the others ending zero (pivot
        chosen as the first nonzero entry scanning left-to-right then
        top-to-bottom); G is the read-only (k, n) matrix, k = n - rank, with
        the identity on the free columns and P^T on the pivot columns.
        """
        a = self.rows.copy()
        pivot_cols = _row_reduce(a)
        free = np.ones(self.n, dtype=bool)
        free[pivot_cols] = False
        k = self.n - len(pivot_cols)
        gen = np.zeros((k, self.n), dtype=np.uint8)
        gen[:, pivot_cols] = a[:len(pivot_cols), free].T
        gen[:, free] = np.eye(k, dtype=np.uint8)
        return _frozen(gen)


def degree_tables(mat):
    """The lines (rows) of the 0/1 matrix ``mat`` grouped by degree, degrees
    ascending: a tuple of (lines, table) pairs of read-only int64 arrays,
    ``lines`` the degree-d lines in order and ``table`` their nonzero
    columns as a C-ordered (d, lines) array, row j the j-th column of every
    line.  Degree-0 lines, if any, come first with a (0, lines) table.
    """
    degrees = mat.sum(axis=1)
    groups = (np.flatnonzero(degrees == d) for d in sorted(set(degrees.tolist())))
    return tuple((_frozen(lines), _line_table(mat[lines])) for lines in groups)


def _line_table(rows):
    """The nonzero columns of the 0/1 rows ``rows``, all of one degree d, as
    a read-only C-ordered (d, rows) int64 table, column i those of row i."""
    return _frozen(np.nonzero(rows)[1].reshape(len(rows), -1).T.copy())


def _row_reduce(a):
    """Reduce the 0/1 uint8 matrix ``a`` in place over GF(2); return the pivot
    columns, on which ``a`` ends as an identity block.  Each pivot is the
    first nonzero entry at or below the current row, columns left to right."""
    m, n = a.shape
    pivot_cols = []
    for j in range(n):
        r = len(pivot_cols)
        if r == m:
            break
        hits = np.flatnonzero(a[r:, j])
        if hits.size == 0:
            continue
        i = r + hits[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        elim = np.flatnonzero(a[:, j])
        elim = elim[elim != r]
        a[elim] ^= a[r]
        pivot_cols.append(j)
    return pivot_cols


def parse_alist(text):
    """Parse an alist character stream into a ParityCheckMatrix.

    Layout: "N M", "max_var_degree max_chk_degree", N variable degrees,
    M check degrees, then N zero-padded rows of 1-based check indices and
    M zero-padded rows of 1-based variable indices.  Zero entries are
    padding; duplicated indices are deduplicated.  The variable and check
    lists must describe the same matrix.
    """
    try:
        tokens = [int(t) for t in text.split()]
    except ValueError as exc:
        raise AlistError(f"non-integer token in alist: {exc}") from None
    pos = 0

    def take(count, what):
        # an object array keeps tokens beyond int64 exact for the checks
        nonlocal pos
        if len(tokens) - pos < count:
            raise AlistError(f"alist truncated while reading {what}")
        pos += count
        return np.array(tokens[pos - count:pos], dtype=object)

    n, m = take(2, "header")
    if n < 1 or m < 1:
        raise AlistError(f"bad header: N={n}, M={m} (need N > 0, M > 0)")
    max_var_deg, max_chk_deg = take(2, "max degrees")
    if max_var_deg < 1 or max_chk_deg < 2:
        raise AlistError(f"bad max degrees {max_var_deg}/{max_chk_deg}")
    var_deg = take(n, "variable degrees")
    chk_deg = take(m, "check degrees")
    if var_deg.max() > max_var_deg or chk_deg.max() > max_chk_deg:
        raise AlistError("declared degree exceeds declared maximum")

    def entry_matrix(count, width, limit, degrees, what):
        """The lists as a 0/1 (count, limit) matrix, row i list i, by one
        scatter; column 0 of the scatter takes padding and bad indices."""
        lists = take(count * width, f"{what} lists").reshape(count, width)
        outside = (lists < 0) | (lists > limit)
        mat = np.zeros((count, limit + 1), dtype=np.uint8)
        mat[np.arange(count)[:, None], np.where(outside, 0, lists).astype(np.int64)] = 1
        mat = mat[:, 1:]
        found = mat.sum(axis=1)
        # the first list with an index out of range, or with a count of
        # distinct entries other than its declared degree
        bad = outside.any(axis=1) | (found != degrees)
        if bad.any():
            i = int(bad.argmax())
            if outside[i].any():
                raise AlistError(f"{what} list {i}: index {lists[i][outside[i]].min()} "
                                 f"out of range 1..{limit}")
            raise AlistError(
                f"{what} list {i}: {found[i]} entries but declared degree {degrees[i]}")
        return mat

    var_mat = entry_matrix(n, max_var_deg, m, var_deg, "variable")
    rows = entry_matrix(m, max_chk_deg, n, chk_deg, "check")
    if len(tokens) > pos:
        raise AlistError(f"{len(tokens) - pos} unexpected trailing tokens")
    disagree = (var_mat != rows.T).any(axis=1)
    if disagree.any():
        raise AlistError(f"variable list {int(disagree.argmax())} disagrees with check lists")
    return ParityCheckMatrix(rows)


def derive_generator(h):
    """``h.generator``, under the name ``perfbench/harness.py`` (``load_code``,
    ``_frames``) calls and wraps; the library reads ``h.generator``."""
    return h.generator


def encode(g, m):
    """Encode a (B, k) batch of message bits into (B, n) codewords with the
    (k, n) generator ``g``; pass a single message as ``m[None]``.

    The product over GF(2) is a float32 BLAS product whose parity is the
    low bit of its int32 cast: every partial sum is an integer below k, so
    both the product and the cast are exact while k is below 2**24.
    """
    m = _as_bits(m, "message")
    k = g.shape[0]
    if m.ndim != 2:
        raise ValueError(f"expected a (B, {k}) message batch, got shape {m.shape}")
    if m.shape[1] != k:
        raise ValueError(f"message length {m.shape[1]} != k={k}")
    prod = m.astype(np.float32) @ np.asarray(g, dtype=np.float32)
    return (prod.astype(np.int32) & 1).astype(np.uint8)


def check_parities(h, bits):
    """The parity of every check of ``h`` over the 0/1 uint8 array ``bits``,
    which holds one bit per variable down axis 0: a word (n,) or frames as
    columns (n, B).  Returns one (checks, parities) pair per entry of
    ``h.check_tables``, parities of shape (len(checks),) + bits.shape[1:]:
    each group's bits are gathered into a (d, checks, ...) block and
    xor-reduced over d.  The bits are not checked.
    """
    return [(checks, np.bitwise_xor.reduce(bits.take(table, axis=0), axis=0))
            for checks, table in h.check_tables]


def syndrome(h, x):
    """H x^T mod 2 and its number of nonzero entries (parity-check errors).

    For a (B, n) batch of words the syndromes have shape (B, checks), in
    check order, and the counts are an int64 array with one entry per word.
    """
    x = _as_bits(x, "word")
    if x.shape[-1] != h.n:
        raise ValueError(f"word length {x.shape[-1]} != n={h.n}")
    s = np.empty(x.shape[:-1] + (h.num_checks,), dtype=np.uint8)
    for checks, parities in check_parities(h, x.T):
        s.T[checks] = parities
    counts = s.sum(axis=-1, dtype=np.int64)
    return s, (int(counts) if x.ndim == 1 else counts)


def bipolar(x_b):
    """Map bits {0,1} to symbols {+1,-1} via 1 - 2b."""
    return 1.0 - 2.0 * _as_bits(x_b, "codeword").astype(np.float64)
