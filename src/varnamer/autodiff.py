"""Minimal reverse-mode automatic differentiation over dense float arrays.

Just the operations the encoder and its losses need: matmul, the fused
``linear`` projection (matmul plus bias), broadcast add/mul, softmax, GELU,
layer norm, dropout, gathers, sigmoid/softplus/log, means, and
``packed_attention``: multi-head attention over a pack of sequences stored
back to back as one row block, one node per encoder layer, whose forward
and backward loop over the sequences so that no softmax crosses a sequence
boundary. Gradient correctness is enforced by finite-difference checks in
the test suite; this module is the single differentiation path for
training.

An op may overwrite only arrays it allocated itself: never an input's
``.data``, nor the gradient array handed to its backward closure. The
rewritten kernels keep the same floating-point operations in the same
association order as the plain expressions, so results are bit-identical.

What an op keeps for its backward: its parents' data (alive anyway as
the parents), boolean patterns, per-row statistics, and only those other
arrays it cannot rebuild cheaply. Dropout keeps its keep pattern, not the
float mask; ``gelu`` recomputes tanh in row blocks; ``layer_norm`` keeps
the per-row mean and 1/std and rebuilds the normalized rows;
``packed_attention`` keeps the probabilities (rebuilding them would cost a
matrix product) but rebuilds their dropout mask and masked copy. A rebuilt
array repeats the forward's operations, so it is bit-identical.

Tape lifetime: ``backward`` runs the nodes in reverse topological order
and releases each non-leaf node as soon as its backward closure has run:
the node drops its ``.grad``, its closure (and with it the arrays the
closure saved) and its parents, so an activation is freed once nothing
upstream still needs it. Leaves (parameters and constants) keep their
``.grad``. A later ``backward`` that reaches a released node raises
``GraphReleased``: a graph takes one backward.
A gradient array an op allocated for one parent alone (``linear``,
``gelu``, ``layer_norm``, ``take``, ``softmax``, ``dropout``,
``packed_attention``, the elementwise ops, ...) is handed over with
``accumulate(..., owned=True)``, and the parent adopts it as its first
gradient without a copy. ``add``, ``transpose`` and ``reshape`` hand their
incoming gradient (or a view of it) to one parent the same way. That is
safe because only ``backward`` calls ``_backward``, and it releases the
node's ``.grad`` right after, so the parent is the array's one holder.
An array handed to a second parent is copied, also in ``add(x, x)``,
where one tensor is both parents. Inside ``with no_grad():`` ops record no
tape: their results have no parents and no backward, so nothing is kept
for a backward pass. The flag is a context variable, so it holds only in
the thread (and context) that entered the block.

Dtype rule: a ``Tensor`` keeps float32 data as float32 and turns anything
else into float64, every op computes in its inputs' dtype, and a node's
gradient is stored in the node's own dtype. Training computes in float32
(on float32 copies of float64 master weights, see ``training``); a loaded
checkpoint serves in its stored float32; fresh parameters and gradient
checks are float64. So no op of a float32 graph may widen it: mixing in
a float64 array or non-scalar ``Tensor`` (a constant, a mask) would
silently turn the rest of the graph float64, and with it the backward.
Python scalars do not widen, nor do the 0-d float64 loss accumulators
that only sum float32 terms.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np

from .errors import GraphReleased

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_A3 = 3.0 * _GELU_A
# Rows of GELU's input per block of its backward: the block's three
# temporaries stay small beside the one full-size gradient.
_GELU_BLOCK_ROWS = 64

# False inside ``no_grad``; a context variable, so per thread.
_recording = contextvars.ContextVar("autodiff_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no tape in this thread until the block exits."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _released(grad):
    """The backward of a node whose backward has already run."""
    raise GraphReleased("backward reached a node that an earlier backward released")


class Tensor:
    """A node in the computation graph wrapping a float32 or float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``.grad``. ``owned`` says the caller allocated
        ``grad`` for this node alone, so a first gradient of the node's
        dtype is adopted rather than copied."""
        if self.grad is None:
            dtype = self.data.dtype
            self.grad = np.asarray(grad, dtype) if owned else np.array(grad, dtype)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this (scalar) node through the graph,
        releasing each non-leaf node once its backward has run."""
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
            if node._backward is _released:
                _released(None)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue            # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _released, ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
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
        # a adopts g uncopied, except in add(x, x); b gets a copy of g
        a.accumulate(_unbroadcast(g, a.data.shape), owned=b is not a)
        gb = _unbroadcast(g, b.data.shape)
        b.accumulate(gb, owned=gb is not g)

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        a.accumulate(_unbroadcast(g * b.data, a.data.shape), owned=True)
        b.accumulate(_unbroadcast(g * a.data, b.data.shape), owned=True)

    return _node(out_data, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g * c, owned=True)

    return _node(a.data * c, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes (leading axes must match)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        a.accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape), owned=True)
        b.accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape), owned=True)

    return _node(out_data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for a 2-D ``x``, as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out_data = x.data @ w.data
    out_data += b.data

    def backward(g):
        x.accumulate(g @ w.data.T, owned=True)
        w.accumulate(x.data.T @ g, owned=True)
        b.accumulate(g.sum(axis=0), owned=True)

    return _node(out_data, (x, w, b), backward)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    inverse = np.argsort(axes)

    def backward(g):
        a.accumulate(np.transpose(g, inverse), owned=True)

    return _node(np.transpose(a.data, axes), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    original = a.data.shape

    def backward(g):
        a.accumulate(g.reshape(original), owned=True)

    return _node(a.data.reshape(shape), (a,), backward)


def take(a, indices) -> Tensor:
    """Select rows along axis 0 (embedding lookup / position gather)."""
    a = as_tensor(a)
    idx = np.asarray(indices)

    def backward(g):
        # np.add.at over flat element indices takes numpy's fast path (row
        # indices do not) and adds in the same order, so the sums are equal.
        # A negative row index maps to the same negative flat offset.
        grad = np.zeros(a.data.shape, dtype=a.data.dtype)
        row = math.prod(grad.shape[1:])
        flat = idx.reshape(-1, 1) * row + np.arange(row)
        np.add.at(grad.reshape(-1), flat.reshape(-1), g.reshape(-1))
        a.accumulate(grad, owned=True)

    return _node(a.data[idx], (a,), backward)


def take_items(a, rows, cols) -> Tensor:
    """Pick individual entries a[rows[i], cols[i]] from a 2-D tensor."""
    a = as_tensor(a)
    rows = np.asarray(rows)
    cols = np.asarray(cols)

    def backward(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, (rows, cols), g)
        a.accumulate(grad, owned=True)

    return _node(a.data[rows, cols], (a,), backward)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(np.full_like(a.data, g), owned=True)

    return _node(a.data.sum(), (a,), backward)


def mean_axis(a, axis: int = 0) -> Tensor:
    a = as_tensor(a)
    n = a.data.shape[axis]

    def backward(g):
        a.accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis), owned=True)

    return _node(a.data.mean(axis=axis), (a,), backward)


def sum_axis(a, axis: int) -> Tensor:
    a = as_tensor(a)
    n = a.data.shape[axis]

    def backward(g):
        a.accumulate(np.repeat(np.expand_dims(g, axis), n, axis=axis), owned=True)

    return _node(a.data.sum(axis=axis), (a,), backward)


def ordered_sum_rows(a) -> Tensor:
    """Sum over axis 0 with addends sorted per column, so any row
    permutation of the input produces a bit-identical result. The gradient
    of a plain sum is order-free, so backward needs no unsorting."""
    a = as_tensor(a)
    n = a.data.shape[0]

    def backward(g):
        a.accumulate(np.repeat(np.expand_dims(g, 0), n, axis=0), owned=True)

    return _node(np.sort(a.data, axis=0).sum(axis=0), (a,), backward)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g * exponent * np.power(a.data, exponent - 1.0), owned=True)

    return _node(np.power(a.data, exponent), (a,), backward)


def divide(a, b) -> Tensor:
    return mul(a, power(b, -1.0))


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a.accumulate(g / a.data, owned=True)

    return _node(np.log(a.data), (a,), backward)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient flows only where a exceeded the floor."""
    a = as_tensor(a)
    mask = a.data > floor

    def backward(g):
        a.accumulate(g * mask, owned=True)

    return _node(np.maximum(a.data, floor), (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a.accumulate(g * s * (1.0 - s), owned=True)

    return _node(s, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + e^x), computed without overflow; derivative is sigmoid."""
    a = as_tensor(a)
    x = a.data
    out_data = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        a.accumulate(g / (1.0 + np.exp(-x)), owned=True)

    return _node(out_data, (a,), backward)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c * (x + a*x^3)), in a new array."""
    t = x * x
    t *= _GELU_A
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(a) -> Tensor:
    """GELU with the tanh approximation, on an input with at least one
    axis. Keeps nothing but its input: the backward recomputes tanh
    ``_GELU_BLOCK_ROWS`` rows (along axis 0) at a time, so the gradient is
    its only full-size array."""
    a = as_tensor(a)
    x = a.data
    t = _gelu_tanh(x)
    t += 1.0
    out_data = 0.5 * x
    out_data *= t

    def backward(g):
        grad = np.empty_like(x)
        for start in range(0, len(x), _GELU_BLOCK_ROWS):
            rows = slice(start, start + _GELU_BLOCK_ROWS)
            xb, out = x[rows], grad[rows]
            t = _gelu_tanh(xb)
            d_inner = xb * xb
            d_inner *= _GELU_A3
            d_inner += 1.0
            d_inner *= _GELU_C
            np.multiply(t, t, out=out)
            np.subtract(1.0, out, out=out)
            out *= 0.5 * xb
            out *= d_inner
            np.add(t, 1.0, out=d_inner)
            d_inner *= 0.5
            out += d_inner
            out *= g[rows]
        a.accumulate(grad, owned=True)

    return _node(out_data, (a,), backward)


def softmax(a) -> Tensor:
    """Softmax over the last axis, shift-stabilized."""
    a = as_tensor(a)
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        grad = g * y
        dot = grad.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=grad)
        grad *= y
        a.accumulate(grad, owned=True)

    return _node(y, (a,), backward)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.
    Keeps the per-row mean and 1/std; the backward rebuilds the
    normalized rows from them."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    x = a.data
    mean = x.mean(axis=-1, keepdims=True)
    xhat = x - mean
    out_data = xhat * xhat
    inv = out_data.mean(axis=-1, keepdims=True)     # the variance, then 1/std
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def backward(g):
        xhat = x - mean
        xhat *= inv
        dxhat = g * gain.data
        tmp = dxhat * xhat
        mean_dx_xhat = tmp.mean(axis=-1, keepdims=True)
        mean_dx = dxhat.mean(axis=-1, keepdims=True)
        np.multiply(xhat, mean_dx_xhat, out=tmp)
        dxhat -= mean_dx
        dxhat -= tmp
        dxhat *= inv
        a.accumulate(dxhat, owned=True)
        axes = tuple(range(g.ndim - 1))
        np.multiply(g, xhat, out=tmp)
        gain.accumulate(tmp.sum(axis=axes), owned=True)
        bias.accumulate(g.sum(axis=axes), owned=True)

    return _node(out_data, (a, gain, bias), backward)


def dropout(a, rate: float, rng: np.random.Generator, keep=None, scale=None) -> Tensor:
    """Inverted dropout: ``a * (keep * scale)``, the mask a constant w.r.t.
    differentiation.

    ``keep`` (a boolean pattern shaped like ``a``) replaces the draw
    ``rng.random(a.shape) >= rate``, for callers that draw their patterns
    piecewise. ``scale`` is a scalar or an ``(N, 1)`` column in ``a``'s
    dtype, by default ``1 / (1 - rate)``; a column gives rows that skip
    dropout (all kept) a scale of 1. Only the booleans are kept; both
    passes rebuild the mask from them.
    """
    if rate <= 0.0:
        return as_tensor(a)
    a = as_tensor(a)
    dtype = a.data.dtype
    if keep is None:
        keep = rng.random(a.data.shape) >= rate
    if scale is None:
        scale = np.divide(1.0, 1.0 - rate, dtype=dtype)
    out_data = np.multiply(keep, scale, dtype=dtype)
    out_data *= a.data

    def backward(g):
        grad = np.multiply(keep, scale, dtype=dtype)
        grad *= g
        a.accumulate(grad, owned=True)

    return _node(out_data, (a,), backward)


def packed_attention(q, k, v, offsets, heads: int, queries=None, keeps=None,
                     scale=None) -> Tensor:
    """Multi-head scaled dot-product attention within each sequence of a pack.

    ``k`` and ``v`` are ``(N, d)`` row blocks holding the pack's sequences
    back to back: sequence ``i`` owns rows ``offsets[i]:offsets[i + 1]``.
    Queries attend only to the keys of their own sequence, so no softmax
    crosses a sequence boundary. ``q`` has k's row layout when ``queries``
    is None; otherwise it is ``(M, d)`` and ``queries[i]`` lists the rows
    of ``q`` that belong to sequence ``i`` (each row of ``q`` to exactly
    one sequence). ``keeps[i]``, a boolean ``(heads, m_i, n_i)`` pattern or
    None, drops sequence ``i``'s attention probabilities (inverted
    dropout): they are multiplied by the mask ``keeps[i] * scale``, with
    ``scale`` a scalar in q's dtype. Only the pattern is kept; the backward
    rebuilds the mask and the masked probabilities.
    Returns the ``(M, d)`` context rows, heads concatenated.

    Per sequence this runs the same array operations, in the same order,
    as the unfused graph of matmul, scale, softmax, dropout, matmul and
    the head transposes, so a one-sequence pack is bit-identical to it.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    dtype = q.data.dtype
    width = q.data.shape[1]
    head_dim = width // heads
    inv_sqrt = 1.0 / math.sqrt(head_dim)
    out_data = np.zeros_like(q.data)
    saved = []          # what each sequence's backward reads
    for i in range(len(offsets) - 1):
        keys = slice(int(offsets[i]), int(offsets[i + 1]))
        mine = keys if queries is None else queries[i]
        qs = q.data[mine]
        m, n = qs.shape[0], keys.stop - keys.start
        if m == 0:
            continue
        qh = np.transpose(qs.reshape(m, heads, head_dim), (1, 0, 2))
        kh = np.transpose(k.data[keys].reshape(n, heads, head_dim), (1, 0, 2))
        vh = np.transpose(v.data[keys].reshape(n, heads, head_dim), (1, 0, 2))
        y = qh @ np.transpose(kh, (0, 2, 1))
        y *= inv_sqrt
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        keep = None if keeps is None else keeps[i]
        dropped = y
        if keep is not None:
            dropped = np.multiply(keep, scale, dtype=dtype)
            dropped *= y
        context = dropped @ vh                           # (heads, m, head_dim)
        out_data[mine] = np.transpose(context, (1, 0, 2)).reshape(m, width)
        saved.append((mine, keys, qh, kh, vh, y, keep))

    def backward(g):
        gq = np.zeros_like(q.data, dtype=g.dtype)
        gk = np.zeros_like(k.data, dtype=g.dtype)
        gv = np.zeros_like(v.data, dtype=g.dtype)
        for mine, keys, qh, kh, vh, y, keep in saved:
            m, n = qh.shape[1], kh.shape[1]
            g_context = np.transpose(g[mine].reshape(m, heads, head_dim), (1, 0, 2))
            g_probs = g_context @ np.swapaxes(vh, -1, -2)
            dropped = y
            if keep is not None:
                dropped = np.multiply(keep, scale, dtype=dtype)     # the mask
                g_probs *= dropped
                dropped *= y
            g_vh = np.swapaxes(dropped, -1, -2) @ g_context
            g_scores = g_probs * y                       # softmax backward
            dot = g_scores.sum(axis=-1, keepdims=True)
            np.subtract(g_probs, dot, out=g_scores)
            g_scores *= y
            g_scores *= inv_sqrt
            g_qh = g_scores @ kh
            g_kh = np.transpose(np.swapaxes(qh, -1, -2) @ g_scores, (0, 2, 1))
            gq[mine] = np.transpose(g_qh, (1, 0, 2)).reshape(m, width)
            gk[keys] = np.transpose(g_kh, (1, 0, 2)).reshape(n, width)
            gv[keys] = np.transpose(g_vh, (1, 0, 2)).reshape(n, width)
        q.accumulate(gq, owned=True)
        k.accumulate(gk, owned=True)
        v.accumulate(gv, owned=True)

    return _node(out_data, (q, k, v), backward)


def l2_normalize(a) -> Tensor:
    """Divide a vector by its L2 norm (norm must be positive)."""
    norm = power(sum_all(power(a, 2.0)), 0.5)
    return mul(a, power(norm, -1.0))


def dot(a, b) -> Tensor:
    return sum_all(mul(a, b))
