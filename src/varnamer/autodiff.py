"""Minimal reverse-mode automatic differentiation over dense float arrays.

Just the operations the encoder and its losses need: matmul, the fused
``linear`` projection (matmul plus bias), the fused feed-forward block
``ffn``, broadcast add/mul, softmax, GELU, layer norm, dropout, gathers,
sigmoid/softplus/log, means, and ``self_attention``: multi-head attention,
its Q/K/V projections included, over a pack of sequences stored back to
back as one row block, run one sequence at a time so that no softmax
crosses a sequence boundary. Gradient correctness is enforced by
finite-difference checks in the test suite; this module is the single
differentiation path for training.

An op may overwrite only arrays it allocated itself: never an input's
``.data``, nor the gradient array handed to its backward closure. The
rewritten kernels keep the same floating-point operations in the same
association order as the plain expressions, so results are bit-identical.

The tape is made of edges, not tensors. A leaf (a parameter, a constant,
any result not recorded) is its own tape node and keeps its ``.grad``.
An op's recorded result is a ``Tensor`` whose ``_edge`` holds what
backward needs: the gradient slot, the parents' nodes (an edge or a leaf
each) and the backward closure. An op hands each parent's gradient to
the node ``_split`` gives it, so only a leaf's ``.grad`` is ever set or
read; a recorded result's own ``.grad`` stays None. ``Tensor._parents``
and ``_backward`` read through to the edge, and ``_backward`` may be
replaced there.

What an op keeps for its backward: its parents' nodes, and in its
closure only the arrays its backward reads, never a parent ``Tensor``.
So an output that no backward reads (a gather, a dropout's input or
output, the sum before a layer norm) lives only as long as the caller's
variable. Of the arrays read, an op keeps boolean patterns, per-row
statistics and its inputs (``linear`` keeps ``x`` and ``w``), and
rebuilds the rest, also where that takes a matrix product. Dropout keeps
its keep pattern, not the float mask; ``gelu`` recomputes tanh in row
blocks; ``layer_norm`` keeps its input and the per-row mean and 1/std and
rebuilds the normalized rows; ``ffn`` keeps its input and weights, and
rebuilds GELU's input and output from them; ``self_attention`` keeps its
input and each softmax row's max and sum, not the probabilities, and
rebuilds the queries, keys and values, then the probabilities with one
more matrix product, their dropout mask and masked copy. A rebuilt
array repeats the forward's operations, so it is bit-identical. So are, at the
encoder's default width, the rows of a matrix product rebuilt from those rows of
its input (see ``_affine``), which lets a backward rebuild block by block.

No reference cycles: an edge never refers to its own ``Tensor`` or to
itself, and a closure captures only parent nodes and arrays, so the tape
is a DAG from the result down to the leaves. Reference counting alone
then frees a graph, and a model, as soon as the last name for it goes,
without waiting for the cyclic collector.

Tape lifetime: ``backward`` runs the edges in reverse topological order
and releases each one as soon as its backward closure has run: the edge
drops its gradient, its closure (and with it the arrays the closure
saved) and its parents, so an activation is freed once nothing upstream
still needs it. Leaves keep their ``.grad``. A later ``backward`` that
reaches a released edge raises ``GraphReleased``: a graph takes one
backward.
A gradient array an op allocated for one parent alone (``linear``,
``gelu``, ``layer_norm``, ``take``, ``softmax``, ``dropout``,
``self_attention``, the elementwise ops, ...) is handed over with
``accumulate(..., owned=True)``, and the parent adopts it as its first
gradient without a copy. ``add``, ``transpose`` and ``reshape`` hand their
incoming gradient (or a view of it) to one parent the same way. That is
safe because only ``backward`` calls ``_backward``, and it releases the
edge's gradient right after, so the parent is the array's one holder.
An array handed to a second parent is copied, also in ``add(x, x)``,
where one tensor is both parents. Inside ``with no_grad():`` ops record no
tape: their results have no edge, so nothing is kept for a backward pass.
The flag is a context variable, so it holds only in the thread (and
context) that entered the block.

Dtype rule: a ``Tensor`` keeps float32 data as float32 and turns
anything else into float64, every op computes in its inputs' dtype, and
a node's gradient is stored in the node's own dtype: an edge's in its
result's, a leaf's in that of its ``.data`` when the gradient arrives.
Training computes in float32 (on float32 copies of float64 master
weights, see ``training``); a loaded checkpoint serves in its stored
float32; fresh parameters and gradient checks are float64. So no op of a
float32 graph may widen it: mixing in a float64 array or non-scalar
``Tensor`` (a constant, a mask) would silently turn the rest of the
graph float64, and with it the backward. Python scalars do not widen,
nor do the 0-d float64 loss accumulators that only sum float32 terms.
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
# Rows of GELU's input per block of a rebuild: the block's temporaries,
# and in ``ffn`` the block of ``x @ w_in + b_in`` rebuilt for GELU's slope,
# stay small beside the one full-size array being filled.
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
    """The backward of an edge whose backward has already run."""
    raise GraphReleased("backward reached a node that an earlier backward released")


class _Edge:
    """The tape node of an op's recorded result: its gradient slot, its
    parents' nodes and its backward closure. It refers to no ``Tensor``
    but leaf parents, so it keeps alive no array its closure does not."""

    __slots__ = ("grad", "dtype", "_parents", "_backward")
    requires_grad = True

    def __init__(self, dtype: np.dtype, parents: tuple, backward):
        self.grad: np.ndarray | None = None
        self.dtype = dtype
        self._parents = parents
        self._backward = backward

    def accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        self.grad = _accumulated(self.grad, grad, self.dtype, owned)


def _accumulated(total: np.ndarray | None, grad: np.ndarray, dtype: np.dtype,
                 owned: bool) -> np.ndarray:
    """``total + grad``, added in place; a first gradient becomes ``total``
    in ``dtype``, adopted uncopied when ``owned``."""
    if total is None:
        return np.asarray(grad, dtype) if owned else np.array(grad, dtype)
    total += grad
    return total


class Tensor:
    """A float32 or float64 ndarray; an op's recorded result also has the
    edge its gradient flows through (see the module docstring)."""

    __slots__ = ("data", "requires_grad", "grad", "_edge", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._edge: _Edge | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def _parents(self) -> tuple:
        return () if self._edge is None else self._edge._parents

    @property
    def _backward(self):
        return None if self._edge is None else self._edge._backward

    @_backward.setter
    def _backward(self, backward) -> None:
        self._edge._backward = backward

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into a leaf's ``.grad``. ``owned`` says the caller
        allocated ``grad`` for this node alone, so a first gradient of the
        node's dtype is adopted rather than copied."""
        self.grad = _accumulated(self.grad, grad, self.dtype, owned)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the graph,
        releasing each edge once its backward has run."""
        root = self if self._edge is None else self._edge
        topo: list = []
        visited: set[int] = set()
        stack: list[tuple[object, bool]] = [(root, False)]
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
        root.grad = np.ones_like(self.data)
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


def _split(x) -> tuple:
    """``x``'s array and the node that collects its gradient: the tensor
    itself for a leaf, otherwise its edge."""
    t = x if isinstance(x, Tensor) else Tensor(x)
    return t.data, (t if t._edge is None else t._edge)


def _node(data, parents: tuple, backward) -> Tensor:
    """The result of an op; recorded (given an edge) when taping and some
    parent node requires a gradient."""
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._edge = _Edge(out.data.dtype, parents, backward)
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
    (x, an), (y, bn) = _split(a), _split(b)
    a_shape, b_shape = x.shape, y.shape

    def backward(g):
        # a adopts g uncopied, except in add(x, x); b gets a copy of g
        an.accumulate(_unbroadcast(g, a_shape), owned=bn is not an)
        gb = _unbroadcast(g, b_shape)
        bn.accumulate(gb, owned=gb is not g)

    return _node(x + y, (an, bn), backward)


def mul(a, b) -> Tensor:
    (x, an), (y, bn) = _split(a), _split(b)

    def backward(g):
        an.accumulate(_unbroadcast(g * y, x.shape), owned=True)
        bn.accumulate(_unbroadcast(g * x, y.shape), owned=True)

    return _node(x * y, (an, bn), backward)


def scale(a, c: float) -> Tensor:
    x, an = _split(a)

    def backward(g):
        an.accumulate(g * c, owned=True)

    return _node(x * c, (an,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes (leading axes must match)."""
    (x, an), (y, bn) = _split(a), _split(b)

    def backward(g):
        an.accumulate(_unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape), owned=True)
        bn.accumulate(_unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape), owned=True)

    return _node(x @ y, (an, bn), backward)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, rows: slice | None = None) -> np.ndarray:
    """``x @ w + b`` in a new array, or only its ``rows``, computed from
    those rows of ``x``.

    At inner size 128, that of both row-block callers at the default
    ``hidden_dim`` (``ffn``'s backward rebuilding GELU's input,
    ``self_attention`` rebuilding Q, K and V per sequence), the BLAS sums
    each entry over the inner axis in one order whatever the number of
    rows, so a block of rows equals those rows of the full product bit for
    bit, except a one-row block: numpy runs that as a matrix-vector
    product, which sums in another order, so a lone row is computed beside
    a neighbour and taken out of the two-row product. At inner size 512
    OpenBLAS breaks this even so (blocks of 1-15 rows at output width 128,
    of 1-3 rows at 512): at ``hidden_dim`` 512 those rebuilds may differ
    from the forward pass in the last bits.
    """
    if rows is not None:
        start, stop, _ = rows.indices(len(x))
        if stop - start == 1 and len(x) > 1:
            first = start - (stop == len(x))
            return _affine(x, w, b, slice(first, first + 2))[start - first:][:1]
        x = x[rows]
    out = x @ w
    out += b
    return out


def _linear_backward(g: np.ndarray, xd: np.ndarray, xn, wd: np.ndarray, wn, bn,
                     rows: np.ndarray | None = None) -> None:
    """Hand ``x @ w + b``'s gradients to the nodes of ``x``, ``w`` and ``b``;
    given ``rows``, those of ``x[rows] @ w + b``, with ``x``'s gradient
    scattered back to its rows."""
    if rows is None:
        xn.accumulate(g @ wd.T, owned=True)
        wn.accumulate(xd.T @ g, owned=True)
    else:
        xn.accumulate(_scattered(g @ wd.T, rows, xd.shape, xd.dtype), owned=True)
        wn.accumulate(xd[rows].T @ g, owned=True)
    bn.accumulate(g.sum(axis=0), owned=True)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for a 2-D ``x``, as one node."""
    (xd, xn), (wd, wn), (bd, bn) = _split(x), _split(w), _split(b)

    def backward(g):
        _linear_backward(g, xd, xn, wd, wn, bn)

    return _node(_affine(xd, wd, bd), (xn, wn, bn), backward)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    x, an = _split(a)
    inverse = np.argsort(axes)

    def backward(g):
        an.accumulate(np.transpose(g, inverse), owned=True)

    return _node(np.transpose(x, axes), (an,), backward)


def reshape(a, shape) -> Tensor:
    x, an = _split(a)
    original = x.shape

    def backward(g):
        an.accumulate(g.reshape(original), owned=True)

    return _node(x.reshape(shape), (an,), backward)


def _scattered(g: np.ndarray, idx: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """Zeros of ``shape`` with the rows of ``g`` added at rows ``idx``
    along axis 0, a repeated row getting the sum of its pieces.

    np.add.at over flat element indices takes numpy's fast path (row
    indices do not) and adds in the same order, so the sums are equal. A
    negative row index maps to the same negative flat offset.
    """
    grad = np.zeros(shape, dtype=dtype)
    row = math.prod(shape[1:])
    flat = idx.reshape(-1, 1) * row + np.arange(row)
    np.add.at(grad.reshape(-1), flat.reshape(-1), g.reshape(-1))
    return grad


def take(a, indices) -> Tensor:
    """Select rows along axis 0 (embedding lookup / position gather)."""
    x, an = _split(a)
    idx = np.asarray(indices)
    shape, dtype = x.shape, x.dtype

    def backward(g):
        an.accumulate(_scattered(g, idx, shape, dtype), owned=True)

    return _node(x[idx], (an,), backward)


def take_items(a, rows, cols) -> Tensor:
    """Pick individual entries a[rows[i], cols[i]] from a 2-D tensor."""
    x, an = _split(a)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    shape, dtype = x.shape, x.dtype

    def backward(g):
        grad = np.zeros(shape, dtype)
        np.add.at(grad, (rows, cols), g)
        an.accumulate(grad, owned=True)

    return _node(x[rows, cols], (an,), backward)


def sum_all(a) -> Tensor:
    x, an = _split(a)
    shape, dtype = x.shape, x.dtype

    def backward(g):
        an.accumulate(np.full(shape, g, dtype), owned=True)

    return _node(x.sum(), (an,), backward)


def mean_axis(a, axis: int = 0) -> Tensor:
    x, an = _split(a)
    n = x.shape[axis]

    def backward(g):
        an.accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis), owned=True)

    return _node(x.mean(axis=axis), (an,), backward)


def sum_axis(a, axis: int) -> Tensor:
    x, an = _split(a)
    n = x.shape[axis]

    def backward(g):
        an.accumulate(np.repeat(np.expand_dims(g, axis), n, axis=axis), owned=True)

    return _node(x.sum(axis=axis), (an,), backward)


def ordered_sum_rows(a) -> Tensor:
    """Sum over axis 0 with addends sorted per column, so any row
    permutation of the input produces a bit-identical result. The gradient
    of a plain sum is order-free, so backward needs no unsorting."""
    x, an = _split(a)
    n = x.shape[0]

    def backward(g):
        an.accumulate(np.repeat(np.expand_dims(g, 0), n, axis=0), owned=True)

    return _node(np.sort(x, axis=0).sum(axis=0), (an,), backward)


def power(a, exponent: float) -> Tensor:
    x, an = _split(a)

    def backward(g):
        an.accumulate(g * exponent * np.power(x, exponent - 1.0), owned=True)

    return _node(np.power(x, exponent), (an,), backward)


def divide(a, b) -> Tensor:
    return mul(a, power(b, -1.0))


def log(a) -> Tensor:
    x, an = _split(a)

    def backward(g):
        an.accumulate(g / x, owned=True)

    return _node(np.log(x), (an,), backward)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient flows only where a exceeded the floor."""
    x, an = _split(a)
    mask = x > floor

    def backward(g):
        an.accumulate(g * mask, owned=True)

    return _node(np.maximum(x, floor), (an,), backward)


def sigmoid(a) -> Tensor:
    x, an = _split(a)
    s = 1.0 / (1.0 + np.exp(-x))

    def backward(g):
        an.accumulate(g * s * (1.0 - s), owned=True)

    return _node(s, (an,), backward)


def softplus(a) -> Tensor:
    """log(1 + e^x), computed without overflow; derivative is sigmoid."""
    x, an = _split(a)
    out_data = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        an.accumulate(g / (1.0 + np.exp(-x)), owned=True)

    return _node(out_data, (an,), backward)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c * (x + a*x^3)), in a new array."""
    t = x * x
    t *= _GELU_A
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _row_blocks(n: int):
    """Slices of ``_GELU_BLOCK_ROWS`` rows covering ``n`` rows."""
    return (slice(start, start + _GELU_BLOCK_ROWS) for start in range(0, n, _GELU_BLOCK_ROWS))


def _gelu_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """GELU of ``x`` (tanh approximation), into ``out`` or a new array."""
    t = _gelu_tanh(x)
    t += 1.0
    out = np.multiply(0.5, x, out=out)
    out *= t
    return out


def _gelu_slope(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """GELU's derivative at ``x``, into ``out`` or a new array."""
    t = _gelu_tanh(x)
    d_inner = x * x
    d_inner *= _GELU_A3
    d_inner += 1.0
    d_inner *= _GELU_C
    out = np.multiply(t, t, out=out)
    np.subtract(1.0, out, out=out)
    out *= 0.5 * x
    out *= d_inner
    np.add(t, 1.0, out=d_inner)
    d_inner *= 0.5
    out += d_inner
    return out


def gelu(a) -> Tensor:
    """GELU with the tanh approximation, on an input with at least one
    axis. Keeps nothing but its input: the backward recomputes tanh
    ``_GELU_BLOCK_ROWS`` rows (along axis 0) at a time, so the gradient is
    its only full-size array."""
    x, an = _split(a)

    def backward(g):
        grad = np.empty_like(x)
        for rows in _row_blocks(len(x)):
            block = grad[rows]
            _gelu_slope(x[rows], block)
            block *= g[rows]
        an.accumulate(grad, owned=True)

    return _node(_gelu_values(x), (an,), backward)


def _gelu_affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``gelu(x @ w + b)``, built in the product's own array
    ``_GELU_BLOCK_ROWS`` rows at a time, so that GELU's temporaries stay
    block-sized."""
    act = _affine(x, w, b)
    for rows in _row_blocks(len(act)):
        block = act[rows]
        _gelu_values(block, block)
    return act


def ffn(x, w_in, b_in, w_out, b_out) -> Tensor:
    """``linear(gelu(linear(x, w_in, b_in)), w_out, b_out)`` for a 2-D
    ``x``, as one node that keeps ``x`` and the weights: no ``(N, ffn)``
    array outlives a pass.

    Both passes build GELU's output from the product ``x @ w_in + b_in``,
    in place and in row blocks. The backward frees that output right after
    ``w_out``'s gradient, forms ``g @ w_outᵀ`` and multiplies GELU's slope
    into it block by block, each block's input rebuilt from its rows of
    ``x``, so no pass holds two ``(N, ffn)`` arrays. The operations are
    those of the three-node graph (``g * d`` for its ``d * g``, an equal
    product), so results are bit-identical to it.
    """
    (xd, xn), (wi, win), (bi, bin_), (wo, won), (bo, bon) = (
        _split(x), _split(w_in), _split(b_in), _split(w_out), _split(b_out))

    def backward(g):
        act = _gelu_affine(xd, wi, bi)
        won.accumulate(act.T @ g, owned=True)
        del act
        bon.accumulate(g.sum(axis=0), owned=True)
        grad = g @ wo.T
        for rows in _row_blocks(len(xd)):
            block = grad[rows]
            block *= _gelu_slope(_affine(xd, wi, bi, rows))
        _linear_backward(grad, xd, xn, wi, win, bin_)

    return _node(_affine(_gelu_affine(xd, wi, bi), wo, bo), (xn, win, bin_, won, bon), backward)


def softmax(a) -> Tensor:
    """Softmax over the last axis, shift-stabilized."""
    x, an = _split(a)
    y = x - x.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        grad = g * y
        dot = grad.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=grad)
        grad *= y
        an.accumulate(grad, owned=True)

    return _node(y, (an,), backward)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` bit for bit, without ``np.mean``'s
    overhead: the same pairwise sum, then a division by the count in
    ``x``'s dtype. ``np.mean`` divides in float64 and rounds, which for
    float32 gives the same correctly rounded quotient."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    total /= x.shape[-1]
    return total


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.
    Keeps the per-row mean and 1/std; the backward rebuilds the
    normalized rows from them."""
    (x, an), (gd, gn), (bd, bn) = _split(a), _split(gain), _split(bias)
    mean = _row_mean(x)
    xhat = x - mean
    out_data = xhat * xhat
    inv = _row_mean(out_data)     # the variance, then 1/std
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gd, out=out_data)
    out_data += bd

    def backward(g):
        xhat = x - mean
        xhat *= inv
        dxhat = g * gd
        tmp = dxhat * xhat
        mean_dx_xhat = _row_mean(tmp)
        mean_dx = _row_mean(dxhat)
        np.multiply(xhat, mean_dx_xhat, out=tmp)
        dxhat -= mean_dx
        dxhat -= tmp
        dxhat *= inv
        an.accumulate(dxhat, owned=True)
        axes = tuple(range(g.ndim - 1))
        np.multiply(g, xhat, out=tmp)
        gn.accumulate(tmp.sum(axis=axes), owned=True)
        bn.accumulate(g.sum(axis=axes), owned=True)

    return _node(out_data, (an, gn, bn), backward)


def dropout(a, keep: np.ndarray, scale) -> Tensor:
    """Inverted dropout: ``a * (keep * scale)``, the mask a constant w.r.t.
    differentiation. The caller decides whether anything drops.

    ``keep`` is a boolean pattern shaped like ``a``, and ``scale`` a scalar
    or an ``(N, 1)`` column in ``a``'s dtype; a column gives rows that skip
    dropout (all kept) a scale of 1. Only the booleans are kept; both
    passes rebuild the mask from them.
    """
    x, an = _split(a)
    dtype = x.dtype
    out_data = np.multiply(keep, scale, dtype=dtype)
    out_data *= x

    def backward(g):
        grad = np.multiply(keep, scale, dtype=dtype)
        grad *= g
        an.accumulate(grad, owned=True)

    return _node(out_data, (an,), backward)


def _heads(rows: np.ndarray, heads: int) -> np.ndarray:
    """``(m, d)`` rows as ``(heads, m, d / heads)``, a view for a view."""
    m, width = rows.shape
    return np.transpose(rows.reshape(m, heads, width // heads), (1, 0, 2))


def _merged(h: np.ndarray) -> np.ndarray:
    """``(heads, m, head_dim)`` as ``(m, heads * head_dim)`` rows."""
    heads, m, head_dim = h.shape
    return np.transpose(h, (1, 0, 2)).reshape(m, heads * head_dim)


def _attention_probs(qh, kh, inv_sqrt: float, top=None, total=None) -> tuple:
    """``softmax(qh @ khᵀ * inv_sqrt)`` over the last axis, with the row max
    ``top`` it subtracted and the row sum ``total`` it divided by. Given
    those two, it rebuilds the same probabilities bit for bit: the same
    product, then the same scale, subtract, exp and divide."""
    y = qh @ np.transpose(kh, (0, 2, 1))
    y *= inv_sqrt
    if top is None:
        top = y.max(axis=-1, keepdims=True)
    y -= top
    np.exp(y, out=y)
    if total is None:
        total = y.sum(axis=-1, keepdims=True)
    y /= total
    return y, top, total


def _attend(qh, kh, vh, keep, scale) -> tuple:
    """One sequence's attention: the context ``(heads, m, head_dim)``, and
    the row max and row sum of its scaled scores, ``(heads, m, 1)`` each.
    ``keep``, a boolean ``(heads, m, n)`` pattern or None, drops
    probabilities with the mask ``keep * scale``."""
    y, top, total = _attention_probs(qh, kh, 1.0 / math.sqrt(qh.shape[-1]))
    if keep is not None:
        dropped = np.multiply(keep, scale, dtype=qh.dtype)
        dropped *= y
        y = dropped
    return y @ vh, top, total


def _attend_backward(g_context, qh, kh, vh, top, total, keep, scale) -> tuple:
    """The gradients of ``_attend``'s context with respect to ``qh``, ``kh``
    and ``vh``. Rebuilds the probabilities from ``top`` and ``total`` (one
    more ``qh @ khᵀ``, as FlashAttention does), then the mask and the
    masked probabilities."""
    inv_sqrt = 1.0 / math.sqrt(qh.shape[-1])
    g_probs = g_context @ np.swapaxes(vh, -1, -2)
    y = _attention_probs(qh, kh, inv_sqrt, top, total)[0]
    if keep is None:
        g_vh = np.swapaxes(y, -1, -2) @ g_context
    else:
        dropped = np.multiply(keep, scale, dtype=qh.dtype)     # the mask
        g_probs *= dropped
        dropped *= y
        g_vh = np.swapaxes(dropped, -1, -2) @ g_context
        del dropped
    # softmax backward, in place in g_probs: y * (g_probs - dot)
    dot = (g_probs * y).sum(axis=-1, keepdims=True)
    g_scores = g_probs
    g_scores -= dot
    g_scores *= y
    del y
    g_scores *= inv_sqrt
    g_qh = g_scores @ kh
    g_kh = np.transpose(np.swapaxes(qh, -1, -2) @ g_scores, (0, 2, 1))
    return g_qh, g_kh, g_vh


def _sequences(offsets, rows):
    """Each sequence of a pack that has queries: its index, its row slice
    and its query slice, the row slice itself when ``rows`` is None, else
    the slice of the strictly increasing ``rows`` that lies in it."""
    bounds = offsets if rows is None else np.searchsorted(rows, offsets)
    for i in range(len(offsets) - 1):
        mine = slice(int(bounds[i]), int(bounds[i + 1]))
        if mine.stop > mine.start:
            yield i, slice(int(offsets[i]), int(offsets[i + 1])), mine


def self_attention(x, wq, bq, wk, bk, wv, bv, offsets, heads: int, rows=None,
                   keeps=None, scale=None) -> Tensor:
    """Multi-head scaled dot-product attention within each sequence of a
    pack, from the projections ``x @ wq + bq``, ``x @ wk + bk`` and
    ``x @ wv + bv``, as one node that keeps ``x`` but not the projections.

    ``x`` is an ``(N, d)`` row block holding the pack's sequences back to
    back: sequence ``i`` owns rows ``offsets[i]:offsets[i + 1]``, and its
    queries attend only to its own keys, so no softmax crosses a sequence
    boundary. ``rows`` (strictly increasing pack positions, None for every
    row) are the query rows; the result has one context row per query row,
    heads concatenated. ``keeps[i]``, a boolean ``(heads, m_i, n_i)``
    pattern or None, drops sequence ``i``'s attention probabilities
    (inverted dropout), its ``m_i`` rows being that sequence's query rows:
    they are multiplied by the mask ``keeps[i] * scale``, with ``scale`` a
    scalar in x's dtype.

    Per sequence the node keeps the dropout pattern and the row max and
    row sum of the scaled scores, each ``(heads, m_i, 1)``. Its backward
    rebuilds the queries (one sequence at a time, or given ``rows`` all at
    once, as the forward made them), each sequence's keys and values, and
    from those the probabilities (see ``_attend_backward``). It hands ``x``
    its three gradient pieces separately, in Q, K, V order, the queries'
    scattered back to ``rows``: the order in which the backwards of three
    ``linear`` nodes add them. The array operations are those of that
    graph and of each head's matmul, scale, softmax, dropout and matmul,
    in the same order, so results are bit-identical to it.
    """
    xd, xn = _split(x)
    (wqd, wqn), (bqd, bqn) = _split(wq), _split(bq)
    kv_weights = [(_split(w), _split(b)) for w, b in ((wk, bk), (wv, bv))]
    if rows is not None:
        rows = np.asarray(rows)
    q = _affine(xd if rows is None else xd[rows], wqd, bqd)
    k, v = (_affine(xd, wd, bd) for (wd, _), (bd, _) in kv_weights)
    q_shape, kv_shape = q.shape, k.shape
    out_data = np.zeros_like(q)
    saved = []          # what each sequence's backward reads
    for i, keys, mine in _sequences(offsets, rows):
        keep = None if keeps is None else keeps[i]
        context, top, total = _attend(_heads(q[mine], heads), _heads(k[keys], heads),
                                      _heads(v[keys], heads), keep, scale)
        out_data[mine] = _merged(context)
        saved.append((keys, mine, top, total, keep))

    def backward(g):
        q_rows = None if rows is None else _affine(xd[rows], wqd, bqd)
        grads = [np.zeros(shape, dtype=g.dtype) for shape in (q_shape, kv_shape, kv_shape)]
        for keys, mine, top, total, keep in saved:
            qh = _heads(_affine(xd, wqd, bqd, keys) if rows is None else q_rows[mine], heads)
            kh, vh = (_heads(_affine(xd, wd, bd, keys), heads) for (wd, _), (bd, _) in kv_weights)
            pieces = _attend_backward(_heads(g[mine], heads), qh, kh, vh,
                                      top, total, keep, scale)
            for grad, own, piece in zip(grads, (mine, keys, keys), pieces):
                grad[own] = _merged(piece)
        del q_rows
        # popped: each gradient is freed once handed on
        _linear_backward(grads.pop(0), xd, xn, wqd, wqn, bqn, rows)
        for (wd, wn), (_, bn) in kv_weights:
            _linear_backward(grads.pop(0), xd, xn, wd, wn, bn)

    return _node(out_data, (xn, wqn, bqn) + tuple(node for pair in kv_weights for _, node in pair),
                 backward)


def l2_normalize(a) -> Tensor:
    """Divide a vector by its L2 norm (norm must be positive)."""
    norm = power(sum_all(power(a, 2.0)), 0.5)
    return mul(a, power(norm, -1.0))


def dot(a, b) -> Tensor:
    return sum_all(mul(a, b))
