"""GF(2) linear block-code algebra.

Parses MacKay-style alist files into parity-check matrices with their
Tanner-graph adjacency, derives generator matrices by Gaussian elimination
over GF(2), encodes messages, and computes syndromes as parities on H's
degree-grouped check tables.  Bit vectors are numpy uint8 arrays with
entries in {0, 1}, and every entry point that takes bits rejects any other
value; the bipolar map sends bit b to the symbol 1 - 2b.
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


def _as_bits(x, name="bits"):
    x = np.asarray(x)
    if not ((x == 0) | (x == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return x.astype(np.uint8)


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Binary (n-k) x n parity-check matrix plus Tanner-graph adjacency.

    ``var_adjacency[v]`` holds the check indices incident to variable v and
    ``chk_adjacency[c]`` the variable indices incident to check c, both
    sorted ascending and exactly matching the nonzero pattern of ``rows``.
    Instances are immutable; ``check_tables`` and ``layer_groups`` are built
    on first use.
    """

    n: int
    k: int
    rows: np.ndarray
    var_adjacency: tuple
    chk_adjacency: tuple

    @classmethod
    def from_rows(cls, rows):
        rows = _as_bits(rows, "parity-check matrix")
        if rows.ndim != 2:
            raise ValueError("parity-check matrix must be two-dimensional")
        m, n = rows.shape
        if not 0 < m < n:
            raise ValueError(f"need 0 < n-k < n, got {m} rows of length {n}")
        chk_deg = rows.sum(axis=1)
        if (chk_deg < 2).any():
            bad = int(np.argmax(chk_deg < 2))
            raise AlistError(f"check {bad} has degree {int(chk_deg[bad])} < 2")
        var_adj = tuple(tuple(np.flatnonzero(rows[:, v]).tolist()) for v in range(n))
        chk_adj = tuple(tuple(np.flatnonzero(rows[c]).tolist()) for c in range(m))
        return cls(n=n, k=n - m, rows=_frozen(rows), var_adjacency=var_adj,
                   chk_adjacency=chk_adj)

    @property
    def num_checks(self):
        return self.n - self.k

    @property
    def num_edges(self):
        return sum(len(a) for a in self.chk_adjacency)

    @property
    def rate(self):
        return self.k / self.n

    @cached_property
    def check_tables(self):
        """The checks grouped by degree, degrees ascending: a tuple of
        (checks, table) pairs of read-only int64 arrays, ``checks`` the
        degree-d checks in order and ``table`` their variables as a
        C-ordered (d, checks) array, row j the j-th variable of every check.
        """
        adj = self.chk_adjacency
        degrees = np.array([len(cols) for cols in adj])
        tables = []
        for d in sorted(set(degrees.tolist())):
            checks = np.flatnonzero(degrees == d)
            table = np.array([adj[c] for c in checks], dtype=np.int64).T.copy()
            tables.append((_frozen(checks), _frozen(table)))
        return tuple(tables)

    @cached_property
    def layer_groups(self):
        """The checks split, in order, into maximal runs of consecutive checks
        of one degree whose variable sets are pairwise disjoint: a tuple of
        (slice of checks, table) pairs, tables as in ``check_tables``: a run
        of g checks of degree d, a single check included, has a (d, g)
        table, column i the variables of check start + i.
        """
        adj = self.chk_adjacency
        starts, seen = [0], set()
        for c, cols in enumerate(adj):
            if len(cols) != len(adj[starts[-1]]) or not seen.isdisjoint(cols):
                starts.append(c)
                seen = set()
            seen.update(cols)
        groups = []
        for start, stop in zip(starts, starts[1:] + [len(adj)]):
            table = np.array(adj[start:stop], dtype=np.int64).T.copy()
            groups.append((slice(start, stop), _frozen(table)))
        return tuple(groups)


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


def gf2_rank(mat):
    """Rank of a binary matrix over GF(2)."""
    return len(_row_reduce(_as_bits(mat)))


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
    it = iter(tokens)

    def take(count, what):
        out = []
        for _ in range(count):
            try:
                out.append(next(it))
            except StopIteration:
                raise AlistError(f"alist truncated while reading {what}") from None
        return out

    n, m = take(2, "header")
    if not 0 < m < n:
        raise AlistError(f"bad header: N={n}, M={m} (need 0 < M < N)")
    max_var_deg, max_chk_deg = take(2, "max degrees")
    if max_var_deg < 1 or max_chk_deg < 2:
        raise AlistError(f"bad max degrees {max_var_deg}/{max_chk_deg}")
    var_deg = take(n, "variable degrees")
    chk_deg = take(m, "check degrees")
    if max(var_deg) > max_var_deg or max(chk_deg) > max_chk_deg:
        raise AlistError("declared degree exceeds declared maximum")

    def entry_lists(count, width, limit, degrees, what):
        lists = []
        for i in range(count):
            raw = take(width, f"{what} list {i}")
            entries = sorted(set(e for e in raw if e != 0))
            for e in entries:
                if not 1 <= e <= limit:
                    raise AlistError(f"{what} list {i}: index {e} out of range 1..{limit}")
            if len(entries) != degrees[i]:
                raise AlistError(
                    f"{what} list {i}: {len(entries)} entries but declared degree {degrees[i]}")
            lists.append(entries)
        return lists

    var_lists = entry_lists(n, max_var_deg, m, var_deg, "variable")
    chk_lists = entry_lists(m, max_chk_deg, n, chk_deg, "check")
    leftover = sum(1 for _ in it)
    if leftover:
        raise AlistError(f"{leftover} unexpected trailing tokens")

    rows = np.zeros((m, n), dtype=np.uint8)
    for c, vs in enumerate(chk_lists):
        rows[c, [v - 1 for v in vs]] = 1
    for v, cs in enumerate(var_lists):
        if np.flatnonzero(rows[:, v]).tolist() != [c - 1 for c in cs]:
            raise AlistError(f"variable list {v} disagrees with check lists")
    return ParityCheckMatrix.from_rows(rows)


def load_alist(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_alist(fh.read())


def derive_generator(h):
    """Generator matrix via GF(2) Gaussian elimination, in H's column order.

    Row reduction brings H to the identity on its pivot columns and P on
    the rest (pivot chosen as the first nonzero entry scanning left-to-right
    then top-to-bottom); G is the read-only (k, n) matrix with the identity
    on the free columns and P^T on the pivot columns.  Raises if H is rank
    deficient.
    """
    a = h.rows.copy()
    pivot_cols = _row_reduce(a)
    if len(pivot_cols) < h.num_checks:
        raise ValueError(
            f"parity-check matrix is rank deficient: rank {len(pivot_cols)} < {h.num_checks}")
    free = np.ones(h.n, dtype=bool)
    free[pivot_cols] = False
    gen = np.zeros((h.k, h.n), dtype=np.uint8)
    gen[:, pivot_cols] = a[:, free].T
    gen[:, free] = np.eye(h.k, dtype=np.uint8)
    return _frozen(gen)


def encode(g, m):
    """Encode a (B, k) batch of message bits into (B, n) codewords with the
    (k, n) generator ``g``; a single message ``m`` is the batch ``m[None]``.

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

    For a (B, n) batch of words the syndromes have shape (B, n-k), in check
    order, and the counts are an int64 array with one entry per word.
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
