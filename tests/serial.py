"""The one-check-at-a-time block walk: the reference for the grouped walk.

``vcdc.denoiser.block_layers`` updates each run of consecutive checks with
disjoint variables (``ParityCheckMatrix.layer_groups``) at once.  The walk
here updates one check per layer, as the model defines the block, so tests
can require the two to agree bit for bit.

The walk runs on its own min-sum kernel, ``check_minsum_terms``: the
argmin form that builds every index term the backward reads, against which
``vcdc.bp.check_minsum_terms`` (the two-minimum form) and
``vcdc.train.minsum_backward`` (which rebuilds the index terms from the
messages) are checked bit for bit.
"""

from __future__ import annotations

import numpy as np


def check_minsum_terms(xc):
    """Min-sum extrinsic messages of checks from their variables' beliefs.

    ``xc`` has shape (..., d), one check per row.  Returns (u, signs,
    sign_excl, i1, i2) where u[..., j] excludes position j, i1 is the
    magnitude argmin (ties resolve to the lowest index), and i2 the argmin
    with i1 masked out.
    """
    signs = np.where(xc < 0, -1.0, 1.0)
    sign_excl = np.prod(signs, axis=-1, keepdims=True) * signs
    mags = np.abs(xc)
    i1 = np.argmin(mags, axis=-1, keepdims=True)
    m1 = np.take_along_axis(mags, i1, axis=-1)
    masked = mags.copy()
    np.put_along_axis(masked, i1, np.inf, axis=-1)
    i2 = np.argmin(masked, axis=-1, keepdims=True)
    m2 = np.take_along_axis(mags, i2, axis=-1)
    u = sign_excl * np.where(np.arange(xc.shape[-1]) == i1, m2, m1)
    return u, signs, sign_excl, i1, i2


def minsum_backward(g, terms):
    """Adjoint of a check's beliefs (B, d) given the adjoint ``g`` of its
    min-sum messages and the ``check_minsum_terms`` output ``terms``.

    Each outgoing adjoint routes to the variable whose magnitude attained
    the (extrinsic) minimum, scaled by that variable's sign, with the sign
    product held constant.
    """
    _, signs, sign_excl, i1, i2 = terms
    gs = g * sign_excl
    grad = np.zeros_like(gs)
    # edges j != i1 select magnitude |x_{i1}|; edge j == i1 selects |x_{i2}|
    at_i1 = np.take_along_axis(gs, i1, axis=-1)
    np.put_along_axis(grad, i1,
                      (gs.sum(axis=-1, keepdims=True) - at_i1)
                      * np.take_along_axis(signs, i1, axis=-1), axis=-1)
    prev = np.take_along_axis(grad, i2, axis=-1)
    np.put_along_axis(grad, i2,
                      prev + at_i1 * np.take_along_axis(signs, i2, axis=-1), axis=-1)
    return grad


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
