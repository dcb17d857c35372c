#!/usr/bin/env python3
"""Generate the alist files committed under src/vcdc/codes/.

LDPC codes are array codes: j x q blocks of q x q circulant-permutation
powers sigma^(i*l) with q prime, reduced to full row rank by keeping the
first linearly independent rows (each block-row stripe sums to all-ones,
so j-1 rows are dependent).  With q=11, j=6/5/4 this yields (121,60),
(121,70), (121,80); q=7, j=4 yields (49,24).  ldpc_121_60_redundant keeps
all 66 rows of q=11, j=6: rank 61, so k=60 as for ldpc_121_60.

Polar parity checks come from the polar transform F^(x m) (F[i,j]=1 iff
j's bits are a subset of i's): freeze the N-K indices with the largest
Bhattacharyya parameter under the BEC(0.5) recursion and take the frozen
columns, transposed.

Run from the repository root:  python tools/make_codes.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vcdc.codebook import ParityCheckMatrix, _row_reduce  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "vcdc", "codes")


def serialize_alist(h):
    """Emit the canonical alist text for a ParityCheckMatrix."""
    var_deg, chk_deg = h.rows.sum(axis=0).tolist(), h.rows.sum(axis=1).tolist()
    lines = [f"{h.n} {h.num_checks}", f"{max(var_deg)} {max(chk_deg)}",
             " ".join(map(str, var_deg)), " ".join(map(str, chk_deg))]
    for mat, width in ((h.rows.T, max(var_deg)), (h.rows, max(chk_deg))):
        for row in mat:
            entries = (np.flatnonzero(row) + 1).tolist()
            lines.append(" ".join(map(str, entries + [0] * (width - len(entries)))))
    return "\n".join(lines) + "\n"


def full_rank_rows(rows):
    """Keep the first rows that increase GF(2) rank, in order: the pivot
    columns of one elimination of the transpose."""
    return rows[_row_reduce(rows.T.copy())]


def array_rows(q, j):
    """The j q x q^2 array-code rows, j - 1 of them linearly dependent."""
    powers = [np.roll(np.eye(q, dtype=np.uint8), p, axis=1) for p in range(q)]
    blocks = [[powers[(i * l) % q] for l in range(q)] for i in range(j)]
    return np.block(blocks)


def array_code(q, j):
    h = full_rank_rows(array_rows(q, j))
    assert h.shape == (j * q - (j - 1), q * q), h.shape
    return ParityCheckMatrix(h)


def hamming_7_4():
    cols = np.array([[(v >> b) & 1 for v in range(1, 8)] for b in range(3)],
                    dtype=np.uint8)
    return ParityCheckMatrix(cols)


def polar_code(m, k):
    n = 2**m
    z = np.full(1, 0.5)
    for _ in range(m):
        z = np.concatenate([2 * z - z**2, z**2])
    frozen = np.sort(np.argsort(-z, kind="stable")[: n - k])
    idx = np.arange(n)
    f = ((idx[None, :] & ~idx[:, None]) == 0).astype(np.uint8)
    h = f[:, frozen].T
    # rows sorted by weight: low-degree checks carry the most reliable
    # extrinsics, so serial per-check sweeps profit from meeting them first
    h = ParityCheckMatrix(h[np.argsort(h.sum(axis=1), kind="stable")])
    assert h.k == k, h.k
    return h


def main():
    codes = {
        "hamming_7_4": hamming_7_4(),
        "ldpc_49_24": array_code(7, 4),
        "ldpc_121_60": array_code(11, 6),
        "ldpc_121_60_redundant": ParityCheckMatrix(array_rows(11, 6)),
        "ldpc_121_70": array_code(11, 5),
        "ldpc_121_80": array_code(11, 4),
        "polar_64_32": polar_code(6, 32),
        "polar_128_64": polar_code(7, 64),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, h in codes.items():
        path = os.path.join(OUT_DIR, f"{name}.alist")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(serialize_alist(h))
        print(f"{name}: n={h.n} k={h.k} checks={h.num_checks} edges={h.num_edges}")


if __name__ == "__main__":
    main()
