"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Just the operations the encoder and its losses need: matmul, broadcast
add/mul, softmax, GELU, layer norm, gathers, sigmoid/softplus/log, means.
Gradient correctness is enforced by finite-difference checks in the test
suite; this module is the single differentiation path for training.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # copy: the incoming array may be shared with another node
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this (scalar) node through the graph."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Convenience arithmetic; heavy ops live as module functions.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, scale(as_tensor(other), -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g * c)

    return _node(a.data * c, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes (leading axes must match)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        a.accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        b.accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), backward)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    inverse = np.argsort(axes)

    def backward(g):
        a.accumulate(np.transpose(g, inverse))

    return _node(np.transpose(a.data, axes), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    original = a.data.shape

    def backward(g):
        a.accumulate(g.reshape(original))

    return _node(a.data.reshape(shape), (a,), backward)


def take(a, indices) -> Tensor:
    """Select rows along axis 0 (embedding lookup / position gather)."""
    a = as_tensor(a)
    idx = np.asarray(indices)

    def backward(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, idx, g)
        a.accumulate(grad)

    return _node(a.data[idx], (a,), backward)


def take_items(a, rows, cols) -> Tensor:
    """Pick individual entries a[rows[i], cols[i]] from a 2-D tensor."""
    a = as_tensor(a)
    rows = np.asarray(rows)
    cols = np.asarray(cols)

    def backward(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, (rows, cols), g)
        a.accumulate(grad)

    return _node(a.data[rows, cols], (a,), backward)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(np.full_like(a.data, g))

    return _node(a.data.sum(), (a,), backward)


def mean_axis(a, axis: int = 0) -> Tensor:
    a = as_tensor(a)
    n = a.data.shape[axis]

    def backward(g):
        a.accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return _node(a.data.mean(axis=axis), (a,), backward)


def sum_axis(a, axis: int) -> Tensor:
    a = as_tensor(a)
    n = a.data.shape[axis]

    def backward(g):
        a.accumulate(np.repeat(np.expand_dims(g, axis), n, axis=axis))

    return _node(a.data.sum(axis=axis), (a,), backward)


def ordered_sum_rows(a) -> Tensor:
    """Sum over axis 0 with addends sorted per column, so any row
    permutation of the input produces a bit-identical result. The gradient
    of a plain sum is order-free, so backward needs no unsorting."""
    a = as_tensor(a)
    n = a.data.shape[0]

    def backward(g):
        a.accumulate(np.repeat(np.expand_dims(g, 0), n, axis=0))

    return _node(np.sort(a.data, axis=0).sum(axis=0), (a,), backward)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g * exponent * np.power(a.data, exponent - 1.0))

    return _node(np.power(a.data, exponent), (a,), backward)


def divide(a, b) -> Tensor:
    return mul(a, power(b, -1.0))


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g / a.data)

    return _node(np.log(a.data), (a,), backward)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient flows only where a exceeded the floor."""
    a = as_tensor(a)
    mask = a.data > floor

    def backward(g):
        a.accumulate(g * mask)

    return _node(np.maximum(a.data, floor), (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a.accumulate(g * s * (1.0 - s))

    return _node(s, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + e^x), computed without overflow; derivative is sigmoid."""
    a = as_tensor(a)
    x = a.data
    out_data = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        a.accumulate(g / (1.0 + np.exp(-x)))

    return _node(out_data, (a,), backward)


def gelu(a) -> Tensor:
    """GELU with the tanh approximation."""
    a = as_tensor(a)
    x = a.data
    x2 = x * x
    inner = _GELU_C * (x + _GELU_A * x2 * x)
    t = np.tanh(inner)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        a.accumulate(g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner))

    return _node(0.5 * x * (1.0 + t), (a,), backward)


def softmax(a) -> Tensor:
    """Softmax over the last axis, shift-stabilized."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.accumulate(y * (g - dot))

    return _node(y, (a,), backward)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gain.data * xhat + bias.data

    def backward(g):
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        a.accumulate(inv * term)
        axes = tuple(range(g.ndim - 1))
        gain.accumulate((g * xhat).sum(axis=axes))
        bias.accumulate(g.sum(axis=axes))

    return _node(out_data, (a, gain, bias), backward)


def dropout(a, rate: float, rng: np.random.Generator, keep=None) -> Tensor:
    """Inverted dropout; the mask is a constant w.r.t. differentiation.

    ``keep`` (boolean, shaped like ``a``) replaces the draw from ``rng``,
    for callers that draw a larger mask and use part of it.
    """
    if rate <= 0.0:
        return as_tensor(a)
    a = as_tensor(a)
    if keep is None:
        keep = rng.random(a.data.shape) >= rate
    mask = keep / (1.0 - rate)

    def backward(g):
        a.accumulate(g * mask)

    return _node(a.data * mask, (a,), backward)


def l2_normalize(a) -> Tensor:
    """Divide a vector by its L2 norm (norm must be positive)."""
    norm = power(sum_all(power(a, 2.0)), 0.5)
    return mul(a, power(norm, -1.0))


def dot(a, b) -> Tensor:
    return sum_all(mul(a, b))
