"""Reverse-mode gradient tape: the reference for the block backward.

``vcdc.train.block_gradients`` differentiates the neural block by hand;
``block_gradients`` here records the same forward pass on a general tape
and lets the chain rule run, so tests can require the two to agree bit
for bit.  The local rules of the two custom nodes (the loss adjoint and the
min-sum backward) are the library's own, checked against finite
differences in test_train.py.

Nodes wrap numpy arrays (scalars included), record their parents and a
local backward closure, and ``backward()`` walks the tape once in reverse
topological order, accumulating adjoints; after it runs, ``grad`` of every
input equals the derivative of the seeded output with respect to it.
Broadcasting in arithmetic ops is handled by summing adjoints over the
broadcast axes.
"""

from __future__ import annotations

import numpy as np

from serial import check_columns as _check_columns, kernel
from vcdc.train import loss_with_adjoint, minsum_backward, minsum_routing


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Var:
    """One tape node: a value, its adjoint accumulator, and the op record."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @classmethod
    def from_op(cls, value, parents, backward):
        """Create a node for a custom op; ``backward(out_grad)`` must add
        into each parent's ``grad``."""
        return cls(value, parents=parents, backward=backward)

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += _unbroadcast(np.asarray(grad, dtype=np.float64), self.value.shape)

    # arithmetic -----------------------------------------------------------

    @staticmethod
    def _lift(other):
        return other if isinstance(other, Var) else Var(other)

    def __add__(self, other):
        other = self._lift(other)
        out = Var(self.value + other.value, (self, other))

        def backward(g):
            self._accumulate(g)
            other._accumulate(g)

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Var(-self.value, (self,))
        out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        out = Var(self.value * other.value, (self, other))

        def backward(g):
            self._accumulate(g * other.value)
            other._accumulate(g * self.value)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        out = Var(self.value ** exponent, (self,))
        out._backward = lambda g: self._accumulate(
            g * exponent * self.value ** (exponent - 1))
        return out

    def tanh(self):
        t = np.tanh(self.value)
        out = Var(t, (self,))
        out._backward = lambda g: self._accumulate(g * (1.0 - t * t))
        return out

    def sum(self):
        out = Var(self.value.sum(), (self,))
        out._backward = lambda g: self._accumulate(np.broadcast_to(g, self.value.shape))
        return out

    def mean(self):
        size = self.value.size
        out = Var(self.value.mean(), (self,))
        out._backward = lambda g: self._accumulate(
            np.broadcast_to(g / size, self.value.shape))
        return out

    # tape traversal -------------------------------------------------------

    def backward(self):
        """Seed this (scalar) node with adjoint 1 and propagate to inputs."""
        if self.value.size != 1:
            raise ValueError("backward() must start from a scalar node")
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def gather_cols(x, cols):
    """Select columns of a (B, n) node; adjoints scatter back into place."""
    out = Var(x.value[:, cols], (x,))

    def backward(g):
        full = np.zeros_like(x.value)
        full[:, cols] = g
        x._accumulate(full)

    out._backward = backward
    return out


def add_at_cols(x, cols, delta):
    """Return a copy of ``x`` with ``delta`` added into the given columns."""
    value = x.value.copy()
    value[:, cols] += delta.value
    out = Var(value, (x, delta))

    def backward(g):
        x._accumulate(g)
        delta._accumulate(g[:, cols])

    out._backward = backward
    return out


def bce_with_logits(beliefs, x_b):
    """Tape node for the BCE loss of the beliefs (``analysis.loss``)."""
    value, adjoint = loss_with_adjoint(beliefs.value, x_b)
    out = Var(value, (beliefs,))
    out._backward = lambda g: beliefs._accumulate(g * adjoint)
    return out


def minsum_extrinsic(xc):
    """Tape node for the min-sum check update on beliefs ``xc`` (B, d), whose
    routing the forward records, as ``vcdc.train.block_gradients`` does.

    ``serial.kernel`` gives ``u`` the layout of its input, and the weight
    adjoint sums over ``u`` in memory order, so the input is C-ordered: the
    order in which ``vcdc.train.block_gradients`` sums a check's products."""
    x = np.ascontiguousarray(xc.value)
    u = kernel(x)
    routing = minsum_routing(x, u)
    out = Var(u, (xc,))
    out._backward = lambda g: xc._accumulate(minsum_backward(g, u, routing))
    return out


def neural_block_tape(h, weight_vars, llrs):
    """Forward pass of the block recorded on the tape; returns beliefs."""
    x = Var(np.atleast_2d(np.asarray(llrs, dtype=np.float64)))
    for w, cols in zip(weight_vars, _check_columns(h)):
        xc = gather_cols(x, cols)
        x = add_at_cols(x, cols, w * minsum_extrinsic(xc))
    return x


def block_gradients(h, weights, llrs, x_b):
    """Loss and d(loss)/d(layer weights) for one batch via the tape."""
    weight_vars = [Var(w) for w in np.asarray(weights, dtype=np.float64)]
    out = bce_with_logits(neural_block_tape(h, weight_vars, llrs), x_b)
    out.backward()
    return float(out.value), np.array([float(w.grad) for w in weight_vars])
