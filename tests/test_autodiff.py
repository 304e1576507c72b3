"""Per-operation finite-difference checks for the differentiation core.

Graphs here are tiny, so central differences resolve gradients to ~1e-8
and any disagreement beyond 1e-6 is a genuine bug, not noise.
"""

import inspect
import math
import threading
import tracemalloc

import numpy as np
import pytest

from varnamer import autodiff as ad
from varnamer.errors import GraphReleased

from attention_reference import attention_block, packed_attention


def fd_check(build, *shapes, seed=0, eps=1e-6, tol=1e-6, positive=False):
    """Compare analytic and numeric gradients of build(*tensors) -> Tensor."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.0, 1.0, size=shape) for shape in shapes]
    if positive:
        arrays = [np.abs(a) + 0.5 for a in arrays]
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = ad.sum_all(build(*tensors))
    out.backward()
    for t, base in zip(tensors, arrays):
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = float(ad.sum_all(build(*tensors)).data)
            flat[idx] = orig - eps
            f_minus = float(ad.sum_all(build(*tensors)).data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            assert abs(grad[idx] - numeric) <= tol * max(1.0, abs(numeric)), (
                f"coord {idx}: analytic {grad[idx]}, numeric {numeric}")


class TestElementwiseOps:
    def test_add_broadcast(self):
        fd_check(lambda a, b: ad.add(a, b), (3, 4), (4,))

    def test_mul_broadcast(self):
        fd_check(lambda a, b: ad.mul(a, b), (3, 4), (3, 1))

    def test_scale_and_neg(self):
        fd_check(lambda a: ad.scale(a, -2.5), (5,))

    def test_power(self):
        fd_check(lambda a: ad.power(a, 3.0), (4,))
        fd_check(lambda a: ad.power(a, -0.5), (4,), positive=True)

    def test_log(self):
        fd_check(lambda a: ad.log(a), (6,), positive=True)

    def test_sigmoid(self):
        fd_check(lambda a: ad.sigmoid(a), (3, 3))

    def test_softplus(self):
        fd_check(lambda a: ad.softplus(ad.scale(a, 6.0)), (8,))

    def test_gelu(self):
        fd_check(lambda a: ad.gelu(a), (3, 4))

    def test_clamp_min_away_from_boundary(self):
        fd_check(lambda a: ad.clamp_min(a, -10.0), (5,))


class TestStructuralOps:
    def test_matmul_2d(self):
        fd_check(lambda a, b: ad.matmul(a, b), (3, 4), (4, 2))

    def test_linear(self):
        fd_check(lambda x, w, b: ad.linear(x, w, b), (3, 4), (4, 2), (2,))

    def test_ffn(self):
        fd_check(lambda x, wi, bi, wo, bo: ad.ffn(x, wi, bi, wo, bo),
                 (3, 4), (4, 5), (5,), (5, 2), (2,))

    def test_matmul_batched(self):
        fd_check(lambda a, b: ad.matmul(a, b), (2, 3, 4), (2, 4, 3))

    def test_transpose_reshape(self):
        fd_check(lambda a: ad.reshape(ad.transpose(a, (1, 0, 2)), (6, 2)), (2, 3, 2))

    def test_take_with_duplicates(self):
        fd_check(lambda a: ad.take(a, [0, 2, 2, 1]), (4, 3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("table_shape, index_shape", [
        ((7,), (40,)), ((7, 5), (40,)), ((7, 5), (8, 6)), ((7,), (8, 6)), ((7, 3, 2), (40,)),
    ])
    def test_take_gradient_equals_row_indexed_add_at(self, dtype, table_shape, index_shape):
        rng = np.random.default_rng(0)
        table = ad.Tensor(rng.normal(size=table_shape).astype(dtype), requires_grad=True)
        # many repeats of few rows, half of them as negative indices
        idx = rng.integers(-table_shape[0], table_shape[0], size=index_shape)
        out = ad.take(table, idx)
        g = rng.normal(0.0, 1.0, size=out.shape).astype(dtype)
        ad.sum_all(ad.mul(out, ad.Tensor(g))).backward()
        expected = np.zeros(table_shape, dtype=dtype)
        np.add.at(expected, idx, g)
        assert table.grad.dtype == dtype
        assert np.array_equal(table.grad, expected)

    def test_take_items(self):
        fd_check(lambda a: ad.take_items(a, [0, 1, 1], [2, 0, 0]), (3, 4))

    def test_mean_and_sum_axis(self):
        fd_check(lambda a: ad.mean_axis(a, axis=0), (5, 3))
        fd_check(lambda a: ad.sum_axis(a, axis=1), (3, 4))

    def test_ordered_sum_rows(self):
        fd_check(lambda a: ad.mul(ad.ordered_sum_rows(a), ad.ordered_sum_rows(a)), (4, 3))


class TestCompositeOps:
    def test_softmax(self):
        fd_check(lambda a: ad.mul(ad.softmax(a), a), (4, 5))

    def test_layer_norm(self):
        fd_check(lambda a, g, b: ad.mul(ad.layer_norm(a, g, b), a), (4, 6), (6,), (6,))

    def test_l2_normalize(self):
        fd_check(lambda a: ad.mul(a, ad.l2_normalize(a)), (5,), positive=True)

    def test_dot(self):
        fd_check(lambda a, b: ad.dot(a, b), (7,), (7,))


class TestPackedAttention:
    """Sequences of 3 and 5 rows in one pack, two heads of width 2."""

    OFFSETS = [0, 3, 8]
    SHAPES = [(8, 4), (4, 4), (4,), (4, 4), (4,), (4, 4), (4,)]

    def test_self_attention(self):
        # query rows 1, 3 and 6: one in the 3-row sequence, two in the other
        weight = np.random.default_rng(7).normal(size=(3, 4))
        fd_check(lambda *t: ad.mul(ad.self_attention(*t, self.OFFSETS, 2, [1, 3, 6]), weight),
                 *self.SHAPES)

    def test_query_rows_with_dropout(self):
        # Query rows 0, 1, 4 and 6 of the pack: rows 0 and 1 lie in the
        # 3-row sequence, rows 4 and 6 in the 5-row one.
        rows = [0, 1, 4, 6]
        rng = np.random.default_rng(8)
        keeps = [None, rng.random((2, 2, 5)) >= 0.3]
        weight = rng.normal(size=(4, 4))

        def build(x, wq, bq, wk, bk, wv, bv):
            out = ad.self_attention(x, wq, bq, wk, bk, wv, bv, self.OFFSETS, 2, rows, keeps,
                                    1 / 0.7)
            return ad.mul(ad.add(ad.take(x, rows), out), weight)

        fd_check(build, *self.SHAPES)

    @pytest.mark.parametrize("dropout", [False, True])
    def test_self_attention_projects_its_input(self, dropout):
        rng = np.random.default_rng(9)
        keeps = [rng.random((2, 3, 3)) >= 0.3, None] if dropout else None
        weight = rng.normal(size=(8, 4))

        def build(x, wq, bq, wk, bk, wv, bv):
            out = ad.self_attention(x, wq, bq, wk, bk, wv, bv, self.OFFSETS, 2, None, keeps,
                                    1 / 0.7)
            return ad.mul(out, weight)

        fd_check(build, *self.SHAPES)

    def test_sequence_without_queries_gets_no_gradient(self):
        rng = np.random.default_rng(10)
        x, *params = (ad.Tensor(rng.normal(size=shape), requires_grad=True)
                      for shape in self.SHAPES)
        out = ad.self_attention(x, *params, self.OFFSETS, 2, [5, 3])
        ad.sum_all(out).backward()
        assert not np.any(x.grad[:3]) and np.all(np.any(x.grad[3:], axis=1))


class TestGraphMechanics:
    def test_reused_node_accumulates(self):
        x = ad.Tensor([2.0], requires_grad=True)
        y = ad.add(ad.mul(x, x), ad.mul(x, x))  # 2x^2, dy/dx = 4x
        ad.sum_all(y).backward()
        assert np.allclose(x.grad, [8.0])

    def test_constants_do_not_track(self):
        x = ad.Tensor([1.0, 2.0])
        y = ad.mul(x, 3.0)
        assert y._backward is None and not y.requires_grad

    def test_dropout_seeded_mask(self):
        x = ad.Tensor(np.ones((20, 20)), requires_grad=True)
        keep = np.random.default_rng(42).random((20, 20)) >= 0.5
        out = ad.dropout(x, keep, 2.0).data
        assert np.array_equal(out != 0, keep)
        assert np.allclose(out[keep], 2.0)  # inverted scaling 1/(1-rate)

    def test_backward_deep_chain(self):
        x = ad.Tensor([1.5], requires_grad=True)
        y = x
        for _ in range(200):
            y = ad.add(y, ad.scale(x, 0.01))
        ad.sum_all(y).backward()
        assert np.allclose(x.grad, [1.0 + 200 * 0.01])

    def test_zero_vector_guard(self):
        from varnamer.errors import ZeroVector
        from varnamer.model import pool_name_representation

        with pytest.raises(ZeroVector):
            pool_name_representation(np.zeros((2, 4)), [0, 1])


# --- in-place safety ---------------------------------------------------------

# Every public op, as (build from input tensors, input shapes, positive inputs).
OP_CASES = {
    "add": (lambda a, b: ad.add(a, b), [(3, 4), (4,)], False),
    "mul": (lambda a, b: ad.mul(a, b), [(3, 4), (3, 1)], False),
    "scale": (lambda a: ad.scale(a, -2.5), [(3, 4)], False),
    "matmul": (lambda a, b: ad.matmul(a, b), [(2, 3, 4), (2, 4, 3)], False),
    "linear": (lambda x, w, b: ad.linear(x, w, b), [(5, 4), (4, 3), (3,)], False),
    "transpose": (lambda a: ad.transpose(a, (1, 0, 2)), [(2, 3, 4)], False),
    "reshape": (lambda a: ad.reshape(a, (6, 2)), [(2, 3, 2)], False),
    "take": (lambda a: ad.take(a, [0, 2, 2, 1]), [(4, 3)], False),
    "take_items": (lambda a: ad.take_items(a, [0, 1, 1], [2, 0, 0]), [(3, 4)], False),
    "sum_all": (lambda a: ad.sum_all(a), [(3, 4)], False),
    "mean_axis": (lambda a: ad.mean_axis(a, axis=1), [(3, 4)], False),
    "sum_axis": (lambda a: ad.sum_axis(a, axis=0), [(3, 4)], False),
    "ordered_sum_rows": (lambda a: ad.ordered_sum_rows(a), [(4, 3)], False),
    "power": (lambda a: ad.power(a, -0.5), [(4,)], True),
    "divide": (lambda a, b: ad.divide(a, b), [(3,), (3,)], True),
    "log": (lambda a: ad.log(a), [(6,)], True),
    "clamp_min": (lambda a: ad.clamp_min(a, 0.0), [(5,)], False),
    "sigmoid": (lambda a: ad.sigmoid(a), [(3, 3)], False),
    "softplus": (lambda a: ad.softplus(a), [(8,)], False),
    "gelu": (lambda a: ad.gelu(a), [(3, 4)], False),
    "ffn": (lambda x, wi, bi, wo, bo: ad.ffn(x, wi, bi, wo, bo),
            [(5, 4), (4, 6), (6,), (6, 3), (3,)], False),
    "softmax": (lambda a: ad.softmax(a), [(2, 3, 5)], False),
    "layer_norm": (lambda a, g, b: ad.layer_norm(a, g, b), [(4, 6), (6,), (6,)], False),
    "dropout": (lambda a: ad.dropout(a, np.arange(25).reshape(5, 5) % 3 != 0, 2.0),
                [(5, 5)], False),
    "self_attention": (
        lambda x, wq, bq, wk, bk, wv, bv: ad.self_attention(
            x, wq, bq, wk, bk, wv, bv, [0, 3, 7], 2, None,
            [None, np.arange(32).reshape(2, 4, 4) % 3 != 0], 2.0),
        [(7, 4), (4, 4), (4,), (4, 4), (4,), (4, 4), (4,)], False),
    # query rows 0 and 2 in the first sequence, 4, 5 and 6 in the second
    "self_attention-rows": (
        lambda x, wq, bq, wk, bk, wv, bv: ad.self_attention(
            x, wq, bq, wk, bk, wv, bv, [0, 3, 7], 2, [0, 2, 4, 5, 6],
            [None, np.arange(24).reshape(2, 3, 4) % 3 != 0], 2.0),
        [(7, 4), (4, 4), (4,), (4, 4), (4,), (4, 4), (4,)], False),
    "l2_normalize": (lambda a: ad.l2_normalize(a), [(5,)], True),
    "dot": (lambda a, b: ad.dot(a, b), [(7,), (7,)], False),
}


def test_every_public_op_has_an_in_place_case():
    public = {name for name, fn in vars(ad).items()
              if inspect.isfunction(fn) and fn.__module__ == ad.__name__
              and not name.startswith("_") and name not in ("as_tensor", "no_grad")}
    # a case named "op-variant" is another call of op
    assert public == {name.split("-")[0] for name in OP_CASES}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_leaves_inputs_and_incoming_gradient_unmodified(name):
    build, shapes, positive = OP_CASES[name]
    rng = np.random.default_rng(5)
    arrays = [rng.normal(0.0, 1.0, size=shape) for shape in shapes]
    if positive:
        arrays = [np.abs(a) + 0.5 for a in arrays]
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out_data = out.data.copy()
    for t, a in zip(tensors, arrays):
        assert np.array_equal(t.data, a), "forward overwrote an input"
    weight = rng.normal(0.0, 1.0, size=out.shape)
    # backward releases out.grad, so out's closure is watched as it runs
    incoming = []
    closure = out._backward

    def watched(g):
        before = g.copy()
        closure(g)
        incoming.append((before, g))

    out._backward = watched
    # mul hands out.grad = 1.0 * weight, exactly weight, to out's backward
    ad.sum_all(ad.mul(out, weight)).backward()
    [(before, g)] = incoming
    assert np.array_equal(before, weight)
    assert np.array_equal(g, before), "backward overwrote its incoming gradient"
    assert np.array_equal(out.data, out_data), "backward overwrote the op's output"
    for t, a in zip(tensors, arrays):
        assert np.array_equal(t.data, a), "backward overwrote an input"
        assert t.grad is not None


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_keeps_float32_in_value_and_gradients(name):
    build, shapes, positive = OP_CASES[name]
    rng = np.random.default_rng(6)
    arrays = [rng.normal(0.0, 1.0, size=shape).astype(np.float32) for shape in shapes]
    if positive:
        arrays = [np.abs(a) + np.float32(0.5) for a in arrays]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    ad.sum_all(ad.mul(out, rng.normal(0.0, 1.0, size=out.shape).astype(np.float32))).backward()
    assert out.data.dtype == np.float32
    assert [t.grad.dtype for t in tensors] == [np.dtype(np.float32)] * len(tensors)


class TestAccumulate:
    def test_first_gradient_takes_the_node_dtype(self):
        t = ad.Tensor(np.zeros(3, np.float32), requires_grad=True)
        t.accumulate(np.ones(3))
        t.accumulate(np.ones(3))
        assert t.grad.dtype == np.float32 and np.array_equal(t.grad, [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_array_reaching_two_parents_is_not_shared(self, dtype):
        # add hands its incoming gradient to both parents unchanged
        a = ad.Tensor(np.zeros((2, 3), dtype), requires_grad=True)
        b = ad.Tensor(np.zeros((2, 3), dtype), requires_grad=True)
        ad.sum_all(ad.add(a, b)).backward()
        a.accumulate(np.full((2, 3), 5.0, dtype))
        assert np.array_equal(b.grad, np.ones((2, 3)))
        assert np.array_equal(a.grad, np.full((2, 3), 6.0))


    def test_leaf_gradient_takes_the_dtype_of_its_current_data(self):
        # training rounds each parameter's .data to float32 after building it
        w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        w.data = w.data.astype(np.float32)
        x = ad.Tensor(np.ones((4, 3), np.float32))
        ad.sum_all(ad.linear(x, w, np.zeros(2, np.float32))).backward()
        assert w.grad.dtype == np.float32 and np.array_equal(w.grad, np.full((3, 2), 4.0))

    def test_owned_first_gradient_is_adopted_and_others_copied(self):
        t = ad.Tensor(np.zeros(3), requires_grad=True)
        owned = np.ones(3)
        t.accumulate(owned, owned=True)
        assert t.grad is owned
        u = ad.Tensor(np.zeros(3, np.float32), requires_grad=True)
        u.accumulate(owned, owned=True)          # another dtype: converted
        shared = np.ones(3)
        v = ad.Tensor(np.zeros(3), requires_grad=True)
        v.accumulate(shared)
        v.accumulate(shared)
        assert u.grad.dtype == np.float32 and v.grad is not shared
        assert np.array_equal(shared, np.ones(3)) and np.array_equal(v.grad, [2.0, 2.0, 2.0])


class TestTapeLifetime:
    def test_backward_releases_inner_nodes_and_keeps_leaf_gradients(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = ad.mul(x, x)
        total = ad.sum_all(hidden)
        total.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        for node in (hidden, total):
            assert node.grad is None and node._parents == ()
        assert np.array_equal(hidden.data, [1.0, 4.0]) and total.item() == 5.0

    def test_backward_through_a_released_node_raises(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = ad.scale(x, 3.0)
        ad.sum_all(hidden).backward()
        with pytest.raises(GraphReleased):
            ad.dot(hidden, x).backward()
        assert np.array_equal(x.grad, [3.0, 3.0])   # untouched by the failed pass

    def test_no_grad_records_nothing_and_restores(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                inner = ad.mul(x, x)
            outer = ad.gelu(x)
        after = ad.mul(x, x)
        for node in (inner, outer):
            assert node._parents == () and node._backward is None and not node.requires_grad
        assert np.array_equal(inner.data, after.data)
        assert after._parents == (x, x) and after.requires_grad

    def test_no_grad_holds_only_in_its_own_thread(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        entered, recorded = threading.Event(), threading.Event()
        serving = []

        def serve():
            with ad.no_grad():
                entered.set()
                recorded.wait(10)
                serving.append(ad.mul(x, x))

        thread = threading.Thread(target=serve)
        thread.start()
        assert entered.wait(10)
        training = ad.sum_all(ad.mul(x, x))     # while the other thread is in no_grad
        recorded.set()
        thread.join(10)
        training.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert serving[0]._parents == () and np.array_equal(serving[0].data, [1.0, 4.0])


# --- bit-identity with the plain formulas ------------------------------------

_C = math.sqrt(2.0 / math.pi)
_A = 0.044715


def ref_softmax(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y, [y * (g - dot)]


def ref_gelu(x, g):
    x2 = x * x
    inner = _C * (x + _A * x2 * x)
    t = np.tanh(inner)
    d_inner = _C * (1.0 + 3.0 * _A * x2)
    grad = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)
    return 0.5 * x * (1.0 + t), [grad]


def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = g * gain
    term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    axes = tuple(range(g.ndim - 1))
    return gain * xhat + bias, [inv * term, (g * xhat).sum(axis=axes), g.sum(axis=axes)]


def ref_linear(x, w, b, g):
    """The unfused graph: a matmul node feeding a broadcast add node."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    out = ad.add(ad.matmul(tensors[0], tensors[1]), tensors[2])
    ad.sum_all(ad.mul(out, g)).backward()
    return out.data, [t.grad for t in tensors]


def ref_ffn(x, w_in, b_in, w_out, b_out, g):
    """The unfused graph: a linear node, a gelu node and a linear node."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in (x, w_in, b_in, w_out, b_out)]
    hidden = ad.gelu(ad.linear(*tensors[:3]))
    out = ad.linear(hidden, tensors[3], tensors[4])
    ad.sum_all(ad.mul(out, g)).backward()
    return out.data, [t.grad for t in tensors]


def ref_self_attention(x, wq, bq, wk, bk, wv, bv, g, offsets, heads, rows=None, keeps=None,
                       scale=None):
    """The unfused graph of an encoder layer's attention: three linear
    nodes (the queries' on a ``take`` of ``rows``) feeding
    ``packed_attention``, and the residual add, whose gradient reaches
    ``x`` first."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in (x, wq, bq, wk, bk, wv, bv)]
    out = ad.add(*attention_block(*tensors, offsets, heads, rows, keeps, scale))
    ad.sum_all(ad.mul(out, g)).backward()
    return out.data, [t.grad for t in tensors]


def ref_attention(q, k, v, g, heads=2, mask=None):
    """The unfused graph of one sequence's attention, as the encoder built
    it from matmul, scale, softmax, a float dropout mask and the head
    transposes."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
    (m, width), n = q.shape, k.shape[0]
    hq, hk, hv = (ad.transpose(ad.reshape(t, (rows, heads, width // heads)), (1, 0, 2))
                  for t, rows in zip(tensors, (m, n, n)))
    scores = ad.scale(ad.matmul(hq, ad.transpose(hk, (0, 2, 1))), 1.0 / math.sqrt(width // heads))
    probs = ad.softmax(scores)
    if mask is not None:
        probs = ad.mul(probs, mask)
    context = ad.matmul(probs, hv)
    out = ad.reshape(ad.transpose(context, (1, 0, 2)), (m, width))
    ad.sum_all(ad.mul(out, g)).backward()
    return out.data, [t.grad for t in tensors]


# Dropout at rate 0.3 on 9 rows, as the encoder applies it to a pack: rows
# of sequences with dropout (row % 3 != 1) keep a random pattern at scale
# 1 / 0.7; the others keep everything at scale 1.
_DROP_ROWS = np.arange(9) % 3 != 1
_DROP_KEEP = (np.random.default_rng(11).random((9, 16)) >= 0.3) | ~_DROP_ROWS[:, None]
_DROP_SCALE = np.where(_DROP_ROWS, np.divide(1.0, 0.7), 1.0)[:, None]
_ATTENTION_KEEP = np.random.default_rng(12).random((2, 9, 9)) >= 0.3


def ref_dropout(x, g):
    """The float mask the encoder used to build: ``keep / (1 - rate)`` in
    rows with dropout, ones elsewhere."""
    mask = np.where(_DROP_ROWS[:, None], np.divide(_DROP_KEEP, 0.7), 1.0)
    return x * mask, [g * mask]


BIT_CASES = {
    "softmax-2d": (ad.softmax, ref_softmax, [(9, 40)]),
    "softmax-3d": (ad.softmax, ref_softmax, [(4, 7, 33)]),
    "gelu": (ad.gelu, ref_gelu, [(7, 64)]),
    # taller than one block of the backward's tanh recomputation
    "gelu-blocks": (ad.gelu, ref_gelu, [(2 * ad._GELU_BLOCK_ROWS + 5, 16)]),
    "layer_norm": (ad.layer_norm, ref_layer_norm, [(7, 48), (48,), (48,)]),
    # np.mean divides a float32 sum in float64 and rounds; the kernel
    # divides in float32, which rounds to the same quotient
    "layer_norm-float32": (ad.layer_norm, ref_layer_norm, [(7, 48), (48,), (48,)]),
    "layer_norm-rows-float32": (ad.layer_norm, ref_layer_norm, [(243, 128), (128,), (128,)]),
    "linear": (ad.linear, ref_linear, [(7, 32), (32, 24), (24,)]),
    # more than two blocks of the backward's GELU rebuild, the last one short
    "ffn": (ad.ffn, ref_ffn,
            [(2 * ad._GELU_BLOCK_ROWS + 5, 16), (16, 24), (24,), (24, 16), (16,)]),
    "dropout": (lambda a: ad.dropout(a, _DROP_KEEP, _DROP_SCALE),
                ref_dropout, [(9, 16)]),
    # the reference that self_attention is held to, against the plain graph
    "packed_attention": (lambda q, k, v: packed_attention(q, k, v, [0, 9], 2),
                         ref_attention, [(9, 8), (9, 8), (9, 8)]),
    "packed_attention-dropout": (
        lambda q, k, v: packed_attention(q, k, v, [0, 9], 2, None, [_ATTENTION_KEEP],
                                         np.divide(1.0, 0.7)),
        lambda q, k, v, g: ref_attention(q, k, v, g, mask=np.divide(_ATTENTION_KEEP, 0.7)),
        [(9, 8), (9, 8), (9, 8)]),
}


@pytest.mark.parametrize("name", sorted(BIT_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_bit_identical_to_plain_formula(name, seed):
    op, reference, shapes = BIT_CASES[name]
    dtype = np.float32 if name.endswith("-float32") else np.float64
    rng = np.random.default_rng(seed)
    # a wide spread reaches tanh saturation and large softmax shifts
    arrays = [rng.normal(0.0, 3.0, size=shape).astype(dtype) for shape in shapes]
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors)
    g = rng.normal(0.0, 1.0, size=out.shape).astype(dtype)
    ad.sum_all(ad.mul(out, g)).backward()
    expected_out, expected_grads = reference(*arrays, g)
    assert out.data.dtype == expected_out.dtype == dtype
    assert np.array_equal(out.data, expected_out)
    assert len(expected_grads) == len(tensors)
    for t, expected in zip(tensors, expected_grads):
        assert t.grad.dtype == dtype and np.array_equal(t.grad, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows, inner, outer", [
    (2 * ad._GELU_BLOCK_ROWS + 1, 48, 40),
    # the benchmark encoder's FFN input and Q/K/V projections
    (12 * ad._GELU_BLOCK_ROWS + 1, 128, 512), (12 * ad._GELU_BLOCK_ROWS + 1, 128, 128)])
def test_affine_rows_are_the_full_product_rows(dtype, rows, inner, outer):
    # the last block of rows is a lone row
    rng = np.random.default_rng(7)
    x, w, b = (rng.normal(size=shape).astype(dtype)
               for shape in [(rows, inner), (inner, outer), (outer,)])
    full = ad._affine(x, w, b)
    assert np.array_equal(full, x @ w + b)
    # GELU's row blocks, sequences of several lengths, and every lone row
    cuts = np.cumsum([0, 2, 57, 93, 228, 256, 3])
    blocks = (list(ad._row_blocks(rows)) + [slice(a, b) for a, b in zip(cuts, cuts[1:])]
              + [slice(i, i + 1) for i in range(rows)])
    for block in blocks:
        assert np.array_equal(ad._affine(x, w, b, block), full[block]), block


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [2 * ad._GELU_BLOCK_ROWS + 7, 2 * ad._GELU_BLOCK_ROWS + 1])
def test_ffn_is_the_three_node_graph_bit_for_bit(dtype, rows):
    assert rows % ad._GELU_BLOCK_ROWS != 0
    rng = np.random.default_rng(8)
    # weights scaled to their fan-in, so GELU's input spreads like x: into
    # tanh saturation and across its curve
    arrays = [rng.normal(0.0, 3.0, size=(rows, 48)).astype(dtype)] + [
        rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape).astype(dtype)
        for shape in [(48, 64), (64,), (64, 16), (16,)]]
    g = rng.normal(0.0, 1.0, size=(rows, 16)).astype(dtype)
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = ad.ffn(*tensors)
    ad.sum_all(ad.mul(out, g)).backward()
    expected_out, expected_grads = ref_ffn(*arrays, g)
    assert out.data.dtype == dtype and np.array_equal(out.data, expected_out)
    for t, expected in zip(tensors, expected_grads):
        assert t.grad.dtype == dtype and np.array_equal(t.grad, expected)


# Sequences of several lengths, one of them a lone row; 183 rows in all.
ATTENTION_LENGTHS = [2, 57, 93, 1, 30]
# Query rows, increasing: every row; the [CLS] rows; rows in every
# sequence; none in the third and the lone-row sequence; one row.
ATTENTION_ROWS = [None, [0, 2, 59, 152, 153], [0, 2, 3, 58, 100, 152, 160, 170],
                  [0, 2, 3, 58, 160, 170], [100]]


def attention_case(dtype, dropout, rows, seed=10):
    """x, the six projection parameters, the dropout patterns and scale,
    and a gradient for the output, for self_attention over
    ``ATTENTION_LENGTHS`` with query ``rows``."""
    width, heads = 32, 4
    offsets = np.concatenate(([0], np.cumsum(ATTENTION_LENGTHS)))
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, size=(offsets[-1], width)).astype(dtype)
    params = [rng.normal(0.0, 0.3, size=shape).astype(dtype)
              for _ in range(3) for shape in [(width, width), (width,)]]
    keeps, scale = None, None
    if dropout:
        counts = (ATTENTION_LENGTHS if rows is None
                  else np.bincount(np.searchsorted(offsets, rows, side="right") - 1,
                                   minlength=len(ATTENTION_LENGTHS)))
        keeps = [None if i == 2 else rng.random((heads, m, n)) >= 0.3
                 for i, (m, n) in enumerate(zip(counts, ATTENTION_LENGTHS))]
        scale = np.divide(1.0, 0.7, dtype=dtype)
    g = rng.normal(0.0, 1.0, size=(offsets[-1] if rows is None else len(rows), width))
    return x, params, offsets, heads, keeps, scale, g.astype(dtype)


def attention_node_graph(x, params, offsets, heads, rows, keeps, scale, g):
    """The node plus the residual add (its rows through a ``take``): the
    output and the gradients of x and the parameters."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in [x] + params]
    # x's gradient sums the residual's piece and then Q's, K's and V's
    residual = tensors[0] if rows is None else ad.take(tensors[0], rows)
    out = ad.add(residual, ad.self_attention(*tensors, offsets, heads, rows, keeps, scale))
    ad.sum_all(ad.mul(out, g)).backward()
    return out.data, [t.grad for t in tensors]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [False, True])
def test_self_attention_is_the_four_node_graph_bit_for_bit(dtype, dropout):
    assert sum(ATTENTION_LENGTHS) % ad._GELU_BLOCK_ROWS != 0
    for rows in ATTENTION_ROWS:
        x, params, offsets, heads, keeps, scale, g = attention_case(dtype, dropout, rows)
        out, grads = attention_node_graph(x, params, offsets, heads, rows, keeps, scale, g)
        expected_out, expected_grads = ref_self_attention(x, *params, g, offsets, heads, rows,
                                                          keeps, scale)
        assert out.dtype == dtype and np.array_equal(out, expected_out), rows
        for grad, expected in zip(grads, expected_grads):
            assert grad.dtype == dtype and np.array_equal(grad, expected), rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.15, 0.5])
def test_dropout_scale_rounds_like_the_float_mask(dtype, rate):
    # 1 / (1 - rate) rounded from float64 can differ from the division in
    # dtype (it does for float32 at rate 0.15); the mask is the latter.
    x = np.random.default_rng(3).normal(size=(6, 7)).astype(dtype)
    keep = np.random.default_rng(4).random(x.shape) >= rate
    out = ad.dropout(ad.Tensor(x), keep, np.divide(1.0, 1.0 - rate, dtype=dtype))
    mask = np.divide(keep, 1.0 - rate, dtype=dtype)
    assert out.data.dtype == dtype and np.array_equal(out.data, x * mask)


# --- what a node keeps for its backward ---------------------------------------

def closure_arrays(node):
    """Every array a node's backward closure holds, through lists and tuples."""
    found, stack = [], [cell.cell_contents for cell in node._backward.__closure__]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return found


def rebuildable(node):
    """The float arrays a node keeps that are neither a view of a parent's
    data nor a per-row statistic (last axis 1), nor a boolean pattern."""
    return [arr for arr in closure_arrays(node)
            if arr.dtype.kind == "f" and arr.shape[-1:] != (1,)
            and not any(np.shares_memory(arr, p.data) for p in node._parents)]


class TestSavedForBackward:
    """Train-mode nodes on float32 inputs keep only what their backward
    cannot rebuild cheaply."""

    @staticmethod
    def tensor(*shape, seed=0):
        data = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
        return ad.Tensor(data, requires_grad=True)

    def test_gelu_keeps_only_its_input(self):
        assert rebuildable(ad.gelu(self.tensor(10, 8))) == []

    def test_layer_norm_keeps_row_statistics(self):
        x = self.tensor(10, 8)
        node = ad.layer_norm(x, self.tensor(8, seed=1), self.tensor(8, seed=2))
        assert rebuildable(node) == []
        assert sorted(arr.shape for arr in closure_arrays(node)
                      if not any(arr is p.data for p in node._parents)) == [(10, 1), (10, 1)]

    def test_ffn_keeps_its_input_and_weights(self):
        x, w_in, b_in = self.tensor(10, 8), self.tensor(8, 32, seed=1), self.tensor(32, seed=2)
        w_out, b_out = self.tensor(32, 3, seed=3), self.tensor(3, seed=4)
        node = ad.ffn(x, w_in, b_in, w_out, b_out)
        assert rebuildable(node) == []
        # nothing with the ffn width but the parameters: no GELU input or output
        assert {id(arr) for arr in closure_arrays(node)} == {
            id(x.data), id(w_in.data), id(b_in.data), id(w_out.data)}

    def test_self_attention_keeps_its_input_row_statistics_and_patterns(self):
        x, *params = (self.tensor(*shape, seed=s) for s, shape in
                      enumerate([(8, 4)] + [(4, 4), (4,)] * 3))
        keeps = [None, np.random.default_rng(3).random((2, 5, 5)) >= 0.5]
        node = ad.self_attention(x, *params, [0, 3, 8], 2, None, keeps, np.float32(2.0))
        assert rebuildable(node) == []
        # no q, k or v projection: of the (8, 4) arrays only x itself
        assert [id(arr) for arr in closure_arrays(node) if arr.shape == (8, 4)] == [id(x.data)]
        own = [arr for arr in closure_arrays(node)
               if not any(np.shares_memory(arr, p.data) for p in node._parents)]
        assert sorted((arr.shape, arr.dtype.kind) for arr in own) == [
            ((2, 3, 1), "f"), ((2, 3, 1), "f"), ((2, 5, 1), "f"), ((2, 5, 1), "f"),
            ((2, 5, 5), "b")]

    def test_dropout_keeps_a_boolean_pattern(self):
        keep = np.arange(80).reshape(10, 8) % 3 != 0
        scale = np.where(np.arange(10) < 6, np.float32(2.0), np.float32(1.0))[:, None]
        node = ad.dropout(self.tensor(10, 8), keep, scale)
        assert rebuildable(node) == []
        assert [arr.dtype for arr in closure_arrays(node) if arr.shape == (10, 8)] == [bool]

    def test_row_restricted_self_attention_keeps_no_projections(self):
        x, *params = (self.tensor(*shape, seed=s) for s, shape in
                      enumerate([(8, 4)] + [(4, 4), (4,)] * 3))
        # query rows 0, 2 and 4: two in the 3-row sequence, one in the other
        keeps = [np.random.default_rng(3).random((2, 2, 3)) >= 0.5, None]
        node = ad.self_attention(x, *params, [0, 3, 8], 2, [0, 2, 4], keeps, np.float32(2.0))
        assert rebuildable(node) == []
        # no q (3, 4), and no k or v (8, 4): of those shapes only x itself
        assert [id(arr) for arr in closure_arrays(node) if arr.shape in ((3, 4), (8, 4))] == [
            id(x.data)]
        # per sequence the softmax's row max and row sum, (heads, m, 1)
        # each, and the boolean pattern; no (heads, m, n) probabilities
        own = [arr for arr in closure_arrays(node) if arr.dtype.kind != "i"
               and not any(np.shares_memory(arr, p.data) for p in node._parents)]
        assert sorted((arr.shape, arr.dtype.kind) for arr in own) == [
            ((2, 1, 1), "f"), ((2, 1, 1), "f"), ((2, 2, 1), "f"), ((2, 2, 1), "f"),
            ((2, 2, 3), "b")]


def test_gelu_backward_peak_is_its_gradient_plus_blocks():
    rows, width = 8 * ad._GELU_BLOCK_ROWS + 3, 256
    x = TestSavedForBackward.tensor(rows, width)
    out = ad.gelu(x)
    g = np.ones((rows, width), np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    full = rows * width * 4
    block = ad._GELU_BLOCK_ROWS * width * 4
    # the gradient, three block-sized temporaries and some slack
    assert x.grad.nbytes == full and peak <= full + 3 * block + 64 * 1024


def backward_peak(out, g):
    """The traced peak, in bytes, of ``out``'s backward closure run on ``g``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_ffn_backward_peak_is_one_full_size_array_plus_blocks():
    rows, width, ffn_width = 8 * ad._GELU_BLOCK_ROWS + 3, 16, 256
    tensor = TestSavedForBackward.tensor
    params = [tensor(width, ffn_width, seed=1), tensor(ffn_width, seed=2),
              tensor(ffn_width, width, seed=3), tensor(width, seed=4)]
    x = tensor(rows, width)
    peak = backward_peak(ad.ffn(x, *params), np.ones((rows, width), np.float32))
    full = rows * ffn_width * 4
    block = ad._GELU_BLOCK_ROWS * ffn_width * 4
    # the rebuilt GELU output is freed before the gradient of GELU's input
    # is formed: one (rows, ffn) array at a time, x's gradient, the
    # parameter gradients, a rebuilt block of GELU's input and its slope
    # with three temporaries, and some slack
    small = x.grad.nbytes + sum(p.grad.nbytes for p in params)
    assert peak <= full + small + 5 * block + 64 * 1024


def test_self_attention_backward_peak_rebuilds_one_sequence_at_a_time():
    lengths, width, heads = [40] * 25 + [7], 64, 2
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    tensor = TestSavedForBackward.tensor
    params = [tensor(*shape, seed=i + 1) for i, shape in enumerate([(width, width), (width,)] * 3)]
    x = tensor(offsets[-1], width)
    out = ad.self_attention(x, *params, offsets, heads)
    peak = backward_peak(out, np.ones(out.shape, np.float32))
    full = x.data.nbytes
    rows = max(lengths) * width * 4
    scores = heads * max(lengths) ** 2 * 4
    # q, k and v's gradients and x's gradient with one more piece of it:
    # five (rows, d) arrays; the parameter gradients; one sequence's
    # rebuilt q, k and v, its gradient rows and its score-sized arrays
    small = sum(p.grad.nbytes for p in params)
    assert peak <= 5 * full + small + 6 * rows + 4 * scores + 64 * 1024


# --- gradients handed over uncopied --------------------------------------------

def two_consumers(x):
    """h feeds a transpose and a reshape; add copies for its second parent."""
    h = ad.reshape(x, (4, 3))
    return ad.add(ad.transpose(h, (1, 0)), ad.reshape(h, (3, 4)))


HAND_OFF_CASES = {
    # (build from a (3, 4) input, first gradients copied rather than adopted)
    "add(x, x)": (lambda x: ad.add(x, x), 1),
    "two consumers": (two_consumers, 1),
    "transpose-reshape": (
        lambda x: ad.reshape(ad.transpose(ad.reshape(x, (3, 2, 2)), (1, 0, 2)), (2, 6)), 0),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(HAND_OFF_CASES))
def test_hand_off_matches_copying_code(name, dtype, monkeypatch):
    build, expected_copies = HAND_OFF_CASES[name]
    rng = np.random.default_rng(9)
    data = rng.normal(size=(3, 4)).astype(dtype)
    weight = rng.normal(size=12).astype(dtype)
    accumulated = ad._accumulated

    def run(copy_all):
        copies = []

        def counting(total, grad, dtype, owned):
            owned = owned and not copy_all
            if total is None and np.ndim(grad) > 0 and not owned:
                copies.append(grad.shape)
            return accumulated(total, grad, dtype, owned)

        monkeypatch.setattr(ad, "_accumulated", counting)
        x = ad.Tensor(data.copy(), requires_grad=True)
        out = build(x)
        # every closure must leave the gradient it is handed as it was
        nodes, stack = [], [out]
        while stack:
            node = stack.pop()
            if node._backward is not None and node not in nodes:
                nodes.append(node)
                stack.extend(node._parents)
        for node in nodes:
            def watched(g, closure=node._backward):
                before = g.copy()
                closure(g)
                assert np.array_equal(g, before)
            node._backward = watched
        ad.sum_all(ad.mul(out, weight.reshape(out.shape))).backward()
        monkeypatch.setattr(ad, "_accumulated", accumulated)
        return x.grad, copies

    grad, copies = run(copy_all=False)
    reference, _ = run(copy_all=True)
    assert grad.dtype == dtype and np.array_equal(grad, reference)
    # sum_all and mul allocate theirs; add, transpose and reshape pass theirs on
    assert len(copies) == expected_copies


# --- what the benchmark's tracer relies on -------------------------------------

def test_tracer_ops_resolve_in_autodiff():
    from bench_trace import COMPOSITE_OPS, LEAF_OPS

    for name in LEAF_OPS + COMPOSITE_OPS:
        assert inspect.isfunction(getattr(ad, name, None)), name


def test_backward_calls_a_replaced_closure():
    from bench_trace import Tracer

    x = ad.Tensor(np.linspace(-2.0, 2.0, 12).reshape(3, 4), requires_grad=True)
    ad.sum_all(ad.gelu(x)).backward()
    expected = x.grad
    x.zero_grad()
    out = ad.gelu(x)
    calls = []
    closure = out._backward

    def replacement(g):
        calls.append(g.shape)
        closure(g)

    out._backward = replacement
    ad.sum_all(out).backward()
    assert calls == [(3, 4)] and np.array_equal(x.grad, expected)
    # the tracer times each op's backward through the same replacement
    x.zero_grad()
    tracer = Tracer()
    with tracer.active("root"):
        ad.sum_all(ad.gelu(x)).backward()
    assert tracer.calls["autodiff.bwd.gelu"] == 1 and tracer.calls["autodiff.bwd.sum_all"] == 1
    assert np.array_equal(x.grad, expected)
