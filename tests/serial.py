"""The one-check-at-a-time block walk: the reference for the grouped walk.

``vcdc.denoiser.block_layers`` updates each run of consecutive checks with
disjoint variables (``ParityCheckMatrix.layer_groups``) at once.  The walk
here updates one check per layer, as the model defines the block, so tests
can require the two to agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from vcdc.bp import check_minsum_terms


def check_columns(h):
    """Each check's variable indices, one int64 array per check."""
    return [np.asarray(cols, dtype=np.int64) for cols in h.chk_adjacency]


def block_layers(h, w, x):
    """Run the layers over the (B, n) beliefs ``x`` in place, one check at
    a time; yields each layer's (columns, check_minsum_terms output)."""
    for wl, cols in zip(w, check_columns(h)):
        xc = x[:, cols]
        terms = check_minsum_terms(xc)
        x[:, cols] = xc + wl * terms[0]
        yield cols, terms


def neural_block(h, weights, llrs):
    """``vcdc.denoiser.neural_block`` on the serial walk: (beliefs, tanh(beliefs/2))."""
    x = np.array(llrs, dtype=np.float64)
    for _ in block_layers(h, weights.values, x):
        pass
    return x, np.tanh(x / 2.0)
