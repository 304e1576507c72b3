import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varnamer import autodiff as ad
from varnamer import gradcheck, inference, model
from varnamer.bpe import CLS, SEP
from varnamer.errors import (
    CorruptCheckpoint,
    EmptyPositions,
    InvalidConfig,
    InvalidRows,
    SequenceTooLong,
    ShapeMismatch,
    UnframedSequence,
    UnknownTokenId,
    VarnamerError,
)

from attention_reference import attention_block


def small_config(**overrides):
    defaults = dict(vocab_size=64, num_layers=2, hidden_dim=32, num_heads=4,
                    ffn_dim=64, max_seq_len=24, max_name_tokens=5, dropout=0.1)
    defaults.update(overrides)
    return model.ModelConfig(**defaults)


def wrap(ids):
    return [CLS] + list(ids) + [SEP]


def with_config_line(blob: bytes, line: str) -> bytes:
    """A checkpoint's bytes with ``line`` appended to its config text. With
    ``tie_token_head = False`` these are the bytes a writer whose
    ``ModelConfig`` still had that last field wrote for the same model."""
    (size,) = struct.unpack("<I", blob[8:12])
    text = blob[12:12 + size] + line.encode("utf-8") + b"\n"
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + size:]


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(InvalidConfig):
            small_config(hidden_dim=30).validate()

    def test_text_roundtrip(self):
        config = small_config(dropout=0.25)
        parsed = model.ModelConfig.from_text(config.to_text())
        assert parsed == config

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            model.ModelConfig.from_text("vocab_size = 64\nwidth = 2\n")

    def test_missing_required_key_is_invalid_config(self):
        # ModelConfig(**values) raised TypeError
        with pytest.raises(InvalidConfig, match="^missing key 'vocab_size'$"):
            model.ModelConfig.from_text("num_layers = 2\n")

    def test_bad_number_is_invalid_config(self):
        with pytest.raises(InvalidConfig, match="line 1: vocab_size"):
            model.ModelConfig.from_text("vocab_size = 6.4\n")


class TestInit:
    def test_deterministic(self):
        a = model.init_params(small_config(), seed=5)
        b = model.init_params(small_config(), seed=5)
        for name in a.tensors:
            assert np.array_equal(a[name].data, b[name].data)

    def test_weight_statistics(self):
        config = model.ModelConfig(vocab_size=1000, num_layers=2,
                                   hidden_dim=128, num_heads=4, ffn_dim=256,
                                   max_seq_len=64)
        params = model.init_params(config, seed=0)
        entries = params["token_embedding"].data.reshape(-1)
        assert entries.size >= 100_000
        assert -0.002 < entries.mean() < 0.002
        assert 0.018 < entries.std() < 0.022

    def test_biases_zero_scales_one(self):
        params = model.init_params(small_config(), seed=1)
        for name, tensor in params.tensors.items():
            if name.endswith(".bias"):
                assert np.all(tensor.data == 0.0)
            if name.endswith(".scale"):
                assert np.all(tensor.data == 1.0)


class TestForward:
    def test_eval_deterministic(self):
        params = model.init_params(small_config(), seed=2)
        ids = wrap(range(10, 18))
        a = model.forward(params, ids).data
        b = model.forward(params, ids).data
        assert np.array_equal(a, b)

    def test_train_mode_dropout_changes_output(self):
        params = model.init_params(small_config(), seed=2)
        ids = wrap(range(10, 18))
        eval_out = model.forward(params, ids).data
        train_out = model.forward(params, ids, dropout_seed=1).data
        assert not np.allclose(eval_out, train_out)

    def test_swap_symmetry_with_zero_positions(self):
        # with position embeddings zeroed, swapping two tokens swaps rows
        params = model.init_params(small_config(dropout=0.0), seed=3)
        params["position_embedding"].data[:] = 0.0
        ids = wrap([10, 11, 12, 13])
        swapped = wrap([10, 13, 12, 11])
        a = model.forward(params, ids).data
        b = model.forward(params, swapped).data
        np.testing.assert_allclose(a[2], b[4], atol=1e-12)
        np.testing.assert_allclose(a[4], b[2], atol=1e-12)
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)

    def test_finite_at_max_len(self):
        config = small_config(max_seq_len=48)
        params = model.init_params(config, seed=4)
        rng = np.random.default_rng(0)
        ids = wrap(rng.integers(6, config.vocab_size, size=46).tolist())
        out = model.forward(params, ids).data
        assert np.all(np.isfinite(out))

    def test_too_long_rejected(self):
        config = small_config(max_seq_len=8)
        params = model.init_params(config, seed=0)
        with pytest.raises(SequenceTooLong):
            model.forward(params, wrap(range(10, 20)))

    def test_unknown_id_rejected(self):
        params = model.init_params(small_config(), seed=0)
        with pytest.raises(UnknownTokenId):
            model.forward(params, wrap([999]))

    @pytest.mark.parametrize("lengths,seed,match", [
        ([4, 4], 0, "sum to the 9 ids"),
        ([5, 0, 4], 0, "positive"),
        ([4, 5], 0, r"start with \[CLS\]"),
        ([5, 4], [1, 2, 3], "3 dropout seeds for 2 sequences"),
    ])
    def test_bad_pack_layout_rejected(self, lengths, seed, match):
        params = model.init_params(small_config(), seed=0)
        # the one layout fault that is not a count disagreeing with the ids
        error = UnframedSequence if "CLS" in match else ShapeMismatch
        with pytest.raises(error, match=match):
            model.forward(params, wrap([10, 11, 12]) + wrap([13, 14]), seed,
                          lengths=lengths)


ROW_SETS = [[0], [1, 3, 7], [0, 4, 9], list(range(10))]


class TestForwardRows:
    """``forward(..., rows=R)`` against the full output's rows R."""

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("rows", ROW_SETS)
    @pytest.mark.parametrize("dropping", [False, True])
    def test_rows_equal_full_output_rows(self, num_layers, rows, dropping):
        params = model.init_params(small_config(num_layers=num_layers), seed=6)
        ids = wrap(range(10, 18))
        seed = 3 if dropping else None
        full = model.forward(params, ids, seed).data
        part = model.forward(params, ids, seed, rows=rows)
        assert part.data.shape == (len(rows), 32)
        np.testing.assert_allclose(part.data, full[rows], rtol=0, atol=1e-12)

    def test_train_mode_rows_see_dropout(self):
        params = model.init_params(small_config(), seed=6)
        ids = wrap(range(10, 18))
        eval_rows = model.forward(params, ids, rows=[2, 5]).data
        train_rows = model.forward(params, ids, 3, rows=[2, 5]).data
        assert not np.allclose(eval_rows, train_rows)

    def test_cls_vector_of_row_zero(self):
        params = model.init_params(small_config(), seed=2)
        ids = wrap([10, 11])
        full = model.forward(params, ids)
        np.testing.assert_allclose(model.forward(params, ids, rows=[0]).data[0],
                                   full.data[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [[], [10], [-1], [0, 12], [[0, 1]]])
    def test_empty_or_out_of_range_rows_rejected(self, rows):
        params = model.init_params(small_config(), seed=0)
        with pytest.raises(InvalidRows):
            model.forward(params, wrap(range(10, 18)), rows=rows)

    @pytest.mark.parametrize("rows", [[3, 1], [0, 5, 2], [4, 4], [0, 2, 2, 7]])
    def test_unsorted_or_repeated_rows_rejected(self, rows):
        params = model.init_params(small_config(), seed=0)
        with pytest.raises(InvalidRows, match="strictly increasing"):
            model.forward(params, wrap(range(10, 18)), 3, rows=rows)


@st.composite
def packs(draw):
    """1-6 sequences of 3-40 tokens, each with 1-5 distinct output rows
    and a dropout seed or None, half the packs with no seed at all; the
    pack's rows in increasing order, or None for all rows."""
    count = draw(st.integers(1, 6))
    seqs, local_rows, seeds = [], [], []
    for _ in range(count):
        n = draw(st.integers(3, 40))
        body = draw(st.lists(st.integers(6, 63), min_size=n - 2, max_size=n - 2))
        seqs.append(wrap(body))
        local_rows.append(sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5,
                                               unique=True))))
        seeds.append(draw(st.none() | st.integers(0, 2**31 - 1)))
    num_layers = draw(st.sampled_from([1, 2]))
    if not draw(st.booleans()):
        seeds = [None] * count
    return dict(seqs=seqs, local_rows=local_rows, seeds=seeds,
                num_layers=num_layers, all_rows=draw(st.booleans()))


def recording_masks(fn):
    """Call ``fn`` and return its result with the dropout masks the encoder
    handed to ``dropout`` and to ``self_attention``, in call order, each
    rebuilt in float from its boolean keep pattern and scale."""
    seen = {"dropout": [], "attention": []}
    dropout, self_attention = ad.dropout, ad.self_attention

    def record_dropout(a, keep, scale):
        assert keep.dtype == bool
        seen["dropout"].append(keep * scale)
        return dropout(a, keep, scale)

    def record_self_attention(x, wq, bq, wk, bk, wv, bv, offsets, heads, rows=None, keeps=None,
                              scale=None):
        assert all(keep is None or keep.dtype == bool for keep in keeps or ())
        seen["attention"].append(
            None if keeps is None else [None if keep is None else keep * scale for keep in keeps])
        return self_attention(x, wq, bq, wk, bk, wv, bv, offsets, heads, rows, keeps, scale)

    ad.dropout, ad.self_attention = record_dropout, record_self_attention
    try:
        return fn(), seen
    finally:
        ad.dropout, ad.self_attention = dropout, self_attention


_PACK_PARAMS = {layers: model.init_params(small_config(num_layers=layers, max_seq_len=40), 9)
                for layers in (1, 2)}


class TestPackedForward:
    """A pack against one pass per sequence: the same rows, the same
    dropout masks, and parameter gradients that sum the per-sequence ones."""

    @staticmethod
    def _run(params, ids, seed, rows, lengths, weight):
        params.zero_grads()
        hidden, masks = recording_masks(lambda: model.forward(
            params, ids, seed, rows=rows, lengths=lengths))
        ad.sum_all(ad.mul(hidden, weight)).backward()
        grads = {name: t.grad.copy() for name, t in params.tensors.items() if t.grad is not None}
        return hidden.data, masks, grads

    @settings(max_examples=60, deadline=None)
    @given(packs())
    def test_pack_equals_one_pass_per_sequence(self, case):
        params = _PACK_PARAMS[case["num_layers"]]
        seqs, local_rows = case["seqs"], case["local_rows"]
        if case["all_rows"]:
            local_rows = [list(range(len(ids))) for ids in seqs]
            rows = None
        else:
            starts = np.cumsum([0] + [len(ids) for ids in seqs])
            rows = [start + r for start, rs in zip(starts, local_rows) for r in rs]
        blocks = np.cumsum([0] + [len(rs) for rs in local_rows])
        weight = np.random.default_rng(blocks[-1]).normal(size=(blocks[-1], 32))

        pack, pack_masks, pack_grads = self._run(
            params, [t for ids in seqs for t in ids], case["seeds"], rows,
            [len(ids) for ids in seqs], weight)
        singles = [self._run(params, ids, seed, None if rows is None else rs,
                             None, weight[blocks[i]:blocks[i + 1]])
                   for i, (ids, rs, seed) in enumerate(zip(seqs, local_rows, case["seeds"]))]

        expected = np.concatenate([out for out, _, _ in singles])
        np.testing.assert_allclose(pack, expected, rtol=1e-12, atol=0)

        # Dropout masks: every sequence's rows masked exactly as in its own pass.
        layers = case["num_layers"]
        dropping = [seed is not None for seed in case["seeds"]]
        if not any(dropping):
            assert pack_masks == {"dropout": [], "attention": [None] * layers}
        else:
            # Calls: embeddings, then each layer's attention output and FFN;
            # the last layer's two are at the output rows when rows are given.
            assert len(pack_masks["dropout"]) == 2 * layers + 1
            for point, mask in enumerate(pack_masks["dropout"]):
                restricted = rows is not None and point >= 2 * layers - 1
                expected = np.concatenate([
                    single[1]["dropout"][point] if drops
                    else np.ones((len(rs) if restricted else len(ids), 32))
                    for single, drops, ids, rs in zip(singles, dropping, seqs, local_rows)])
                assert np.array_equal(mask, expected)
            for layer, masks in enumerate(pack_masks["attention"]):
                for i, (single, drops) in enumerate(zip(singles, dropping)):
                    if not drops:
                        assert masks[i] is None
                        continue
                    (expected,) = single[1]["attention"][layer]
                    assert np.array_equal(masks[i], expected)

        # Gradients: the pack's equal the sum of the single passes'. The key
        # bias has an exactly zero gradient, so its entries are rounding
        # noise; the absolute floor is set from the largest gradient.
        summed: dict = {}
        for _, _, grads in singles:
            for name, grad in grads.items():
                summed[name] = summed.get(name, 0.0) + grad
        assert pack_grads.keys() == summed.keys()
        floor = 1e-13 * max(np.abs(g).max() for g in summed.values())
        for name, grad in summed.items():
            np.testing.assert_allclose(pack_grads[name], grad, rtol=1e-10, atol=floor,
                                       err_msg=name)


class TestRowRestrictedLastLayer:
    """The last layer's one attention node against the graph it replaces:
    a ``take`` of the query rows feeding the residual and the query
    projection, ``linear`` key and value projections and
    ``packed_attention``. Outputs and parameter gradients must match bit
    for bit, which holds only while the residual's gradient reaches the
    layer input first, then the queries', keys' and values' pieces."""

    @staticmethod
    def reference_forward(params, ids, rows, lengths):
        config = params.config
        before = model.ModelParams(
            dataclasses.replace(config, num_layers=config.num_layers - 1), params.tensors)
        x = model.forward(before, ids, lengths=lengths)
        p = f"layer{config.num_layers - 1}"
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        projections = [params[f"{p}.attention.{proj}.{part}"]
                       for proj in ("query", "key", "value") for part in ("weight", "bias")]
        xq, context = attention_block(x, *projections, offsets, config.num_heads, rows)
        attn_out = ad.linear(context, params[f"{p}.attention.output.weight"],
                             params[f"{p}.attention.output.bias"])
        x = ad.layer_norm(ad.add(xq, attn_out), params[f"{p}.attention_norm.scale"],
                          params[f"{p}.attention_norm.bias"])
        ffn = ad.ffn(x, params[f"{p}.ffn.in.weight"], params[f"{p}.ffn.in.bias"],
                     params[f"{p}.ffn.out.weight"], params[f"{p}.ffn.out.bias"])
        return ad.layer_norm(ad.add(x, ffn), params[f"{p}.ffn_norm.scale"],
                             params[f"{p}.ffn_norm.bias"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_layers", [2, 3])
    def test_equals_the_take_linear_packed_attention_graph(self, dtype, num_layers):
        fresh = model.init_params(small_config(num_layers=num_layers, max_seq_len=40), seed=5)
        # weights 15 times their initial spread, so that the query, key and
        # value pieces of the layer input's gradient are as large as the
        # residual's, and summing them in another order shows
        params = model.ModelParams(fresh.config, {
            name: ad.Tensor((15 * t.data if t.data.ndim == 2 else t.data).astype(dtype),
                            requires_grad=True)
            for name, t in fresh.tensors.items()})
        lengths = [9, 30, 14, 6]
        ids = [t for n in lengths for t in wrap((7 * np.arange(n - 2) + n) % 50 + 10)]
        # increasing, in every sequence but the last
        rows = [0, 3, 9, 10, 25, 40, 52]
        weight = np.random.default_rng(6).normal(size=(len(rows), 32)).astype(dtype)

        def run(forward):
            params.zero_grads()
            out = forward()
            ad.sum_all(ad.mul(out, weight)).backward()
            return out.data, {name: t.grad for name, t in params.tensors.items()
                              if t.grad is not None}

        out, grads = run(lambda: model.forward(params, ids, rows=rows, lengths=lengths))
        expected_out, expected_grads = run(
            lambda: self.reference_forward(params, ids, rows, lengths))
        assert out.dtype == dtype and np.array_equal(out, expected_out)
        assert grads.keys() == expected_grads.keys()
        for name, grad in expected_grads.items():
            assert grads[name].dtype == dtype and np.array_equal(grads[name], grad), name


class TestSpanDrawnDropout:
    """Every layer draws its dropout patterns through ``_drawn_rows``, the
    last layer only over the rows it reads; they must equal those rows of
    the full draws, bit for bit."""

    # With 1024 doubles as the skip threshold:
    @pytest.mark.parametrize("count,width,rows", [
        (300, 4, []),                          # nothing read: one skip
        (300, 4, [0, 299]),                    # first and last, a skipped gap
        (300, 8, [0, 1, 2, 250, 251]),         # two runs
        (300, 4, [5, 7, 9]),                   # gaps drawn, not skipped
        (10, 128, [3]),
        (40, 600, [0, 3, 39]),                 # every gap skipped
    ])
    def test_drawn_rows_equal_the_full_draw(self, count, width, rows):
        assert model._SKIP_MIN_DRAWS == 1024
        rows = np.asarray(rows, dtype=np.int64)
        full_rng, span_rng = np.random.default_rng(17), np.random.default_rng(17)
        full = full_rng.random((count, width)) >= 0.1
        span = model._drawn_rows(span_rng, rows, count, width, 0.1)
        assert span.dtype == bool and np.array_equal(span, full[rows])
        assert span_rng.bit_generator.state == full_rng.bit_generator.state

    @pytest.mark.parametrize("count,width", [(1, 4), (300, 4), (10, 128), (40, 600)])
    def test_every_row_is_the_full_draw(self, count, width):
        # a full layer's pattern: one run over all rows
        full_rng, span_rng = np.random.default_rng(23), np.random.default_rng(23)
        full = full_rng.random((count, width)) >= 0.1
        every = model._drawn_rows(span_rng, np.arange(count), count, width, 0.1)
        assert every.dtype == bool and np.array_equal(every, full)
        assert span_rng.bit_generator.state == full_rng.bit_generator.state

    @staticmethod
    def _full_draws(seed, n, config):
        """Every pattern one sequence's pass draws, in its order."""
        rng = np.random.default_rng(seed)
        rate, d, heads = config.dropout, config.hidden_dim, config.num_heads
        draws = {"dropout": [rng.random((n, d)) >= rate], "attention": []}
        for _ in range(config.num_layers):
            draws["attention"].append(rng.random((heads, n, n)) >= rate)
            draws["dropout"] += [rng.random((n, d)) >= rate, rng.random((n, d)) >= rate]
        return draws, rng

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_last_layer_patterns_are_rows_of_the_full_draws(self, num_layers, monkeypatch):
        config = small_config(num_layers=num_layers, max_seq_len=40, hidden_dim=8,
                              num_heads=2, ffn_dim=16)
        params = model.init_params(config, seed=4)
        lengths = [40, 12, 7, 20]
        seeds = [5, None, 6, 7]                 # the last sequence has no output row
        starts = np.cumsum([0] + lengths)
        # In several sequences, the first and last positions; rows 2 and 39
        # of the first sequence are far enough apart in its attention
        # pattern (36 * 40 doubles) to be skipped.
        local = {0: [0, 1, 2, 39], 1: [4], 2: [0, 3, 6]}
        assert 36 * 40 >= model._SKIP_MIN_DRAWS
        rows = [starts[i] + r for i, rs in local.items() for r in rs]
        ids = [t for n in lengths for t in wrap(range(10, 8 + n))]

        generators = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        keeps = {"dropout": [], "attention": []}
        dropout, attention = ad.dropout, ad.self_attention

        def record_dropout(a, keep, scale):
            keeps["dropout"].append(keep)
            return dropout(a, keep, scale)

        def record_attention(x, wq, bq, wk, bk, wv, bv, offsets, heads, rows=None,
                             patterns=None, scale=None):
            keeps["attention"].append(patterns)
            return attention(x, wq, bq, wk, bk, wv, bv, offsets, heads, rows, patterns, scale)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        monkeypatch.setattr(ad, "dropout", record_dropout)
        monkeypatch.setattr(ad, "self_attention", record_attention)
        model.forward(params, ids, seeds, rows=rows, lengths=lengths)
        monkeypatch.undo()

        rows = np.asarray(rows)
        owner = np.searchsorted(starts, rows, side="right") - 1
        drawn = iter(generators)            # one per sequence with a seed
        last_drop = keeps["dropout"][-2:]
        for i, (seed, n) in enumerate(zip(seeds, lengths)):
            mine = rows[owner == i] - starts[i]
            if seed is None:
                assert keeps["attention"][-1][i] is None
                assert all(keep[owner == i].all() for keep in last_drop)
                continue
            full, rng = self._full_draws(seed, n, config)
            assert np.array_equal(keeps["attention"][-1][i], full["attention"][-1][:, mine])
            for keep, expected in zip(last_drop, full["dropout"][-2:]):
                assert np.array_equal(keep[owner == i], expected[mine])
            # the generator ends where the full draws leave it
            assert next(drawn).bit_generator.state == rng.bit_generator.state


class TestHeads:
    def test_token_probs_normalized(self):
        params = model.init_params(small_config(), seed=5)
        h = np.random.default_rng(1).normal(size=(3, 32))
        probs = model.token_probs(params, h).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_token_logits_shift_invariance(self):
        params = model.init_params(small_config(), seed=5)
        h = np.random.default_rng(1).normal(size=32)
        base = model.token_probs(params, h).data
        params["token_head.bias"].data += 3.7
        shifted = model.token_probs(params, h).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_zero_head_uniform(self):
        params = model.init_params(small_config(), seed=5)
        params["token_head.weight"].data[:] = 0.0
        params["token_head.bias"].data[:] = 0.0
        probs = model.token_probs(params, np.zeros(32)).data
        np.testing.assert_allclose(probs, 1.0 / 64, atol=1e-12)

    def test_length_head_size_and_uniform(self):
        params = model.init_params(small_config(), seed=5)
        params["length_head.weight"].data[:] = 0.0
        probs = model.length_probs(params, np.zeros(32)).data
        assert probs.shape == (5,)
        np.testing.assert_allclose(probs, 0.2, atol=1e-12)

    @pytest.mark.parametrize("size", [2, 5, 7])
    def test_resize_length_head_keeps_the_old_rows(self, size):
        params = model.init_params(small_config(), seed=5)
        params["length_head.bias"].data[:] = [0.1, 0.2, 0.3, 0.4, 0.5]
        old_w = params["length_head.weight"].data.copy()
        old_b = params["length_head.bias"].data.copy()
        model.resize_length_head(params, size, seed=1)
        keep = min(size, 5)
        weight, bias = params["length_head.weight"].data, params["length_head.bias"].data
        assert params.config.max_name_tokens == size
        assert weight.shape == (size, 32) and bias.shape == (size,)
        assert np.array_equal(weight[:keep], old_w[:keep])
        assert np.array_equal(bias[:keep], old_b[:keep])
        assert np.all(bias[keep:] == 0.0) and np.all(weight[keep:] != 0.0)
        assert model.length_probs(params, np.zeros(32)).data.shape == (size,)


    @pytest.mark.parametrize("size", [0, -1])
    def test_resize_length_head_rejects_no_rows(self, size):
        params = model.init_params(small_config(), seed=5)
        with pytest.raises(InvalidConfig, match="max_name_tokens must be >= 1"):
            model.resize_length_head(params, size)
        assert params["length_head.weight"].data.shape == (5, 32)


class TestPooling:
    def test_single_position(self):
        h = np.random.default_rng(3).normal(size=(6, 8))
        pooled = model.pool_name_representation(h, [2]).data
        np.testing.assert_allclose(pooled, h[2] / np.linalg.norm(h[2]), atol=1e-12)

    def test_duplicate_rows_mean_idempotent(self):
        h = np.vstack([np.ones(4), np.ones(4)])
        one = model.pool_name_representation(h, [0]).data
        both = model.pool_name_representation(h, [0, 1]).data
        np.testing.assert_allclose(one, both, atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = rng.normal(size=(5, 16))
            positions = rng.choice(5, size=rng.integers(1, 5), replace=False)
            pooled = model.pool_name_representation(h, positions.tolist()).data
            assert abs(np.linalg.norm(pooled) - 1.0) < 1e-6

    def test_empty_positions(self):
        with pytest.raises(EmptyPositions):
            model.pool_name_representation(np.ones((3, 3)), [])

    @pytest.mark.parametrize("positions", [[0, 3], [-1]])
    def test_position_out_of_range(self, positions):
        with pytest.raises(InvalidRows, match="out of range"):
            model.pool_name_representation(np.ones((3, 3)), positions)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = model.init_params(small_config(), seed=7)
        path = str(tmp_path / "model.rfbt")
        model.save_checkpoint(params, path)
        loaded = model.load_checkpoint(path)
        assert loaded.config == params.config
        for name in params.tensors:
            np.testing.assert_allclose(
                loaded[name].data, params[name].data, atol=1e-7)

    def test_float32_precision_is_stored(self, tmp_path):
        params = model.init_params(small_config(), seed=7)
        path = str(tmp_path / "model.rfbt")
        model.save_checkpoint(params, path)
        loaded = model.load_checkpoint(path)
        expected = params["token_embedding"].data.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(loaded["token_embedding"].data, expected)
        assert loaded["token_embedding"].data.dtype == np.float32

    def test_magic_bytes(self, tmp_path):
        params = model.init_params(small_config(), seed=7)
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(params, str(path))
        assert path.read_bytes()[:4] == b"RFBT"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rfbt"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(CorruptCheckpoint,
                           match=r"bad\.rfbt: bad magic at offset 0, not a checkpoint$"):
            model.load_checkpoint(str(path))

    @pytest.mark.parametrize("version", [0, 2])
    def test_unsupported_version_is_corrupt(self, tmp_path, version):
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(model.init_params(small_config(), seed=7), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(CorruptCheckpoint,
                           match=rf"model\.rfbt: unsupported version {version} at offset 4$"):
            model.load_checkpoint(str(path))

    def test_truncated_checkpoint_raises_typed_error(self, tmp_path):
        params = model.init_params(small_config(vocab_size=16, hidden_dim=8,
                                                ffn_dim=8, max_seq_len=8), seed=7)
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(params, str(path))
        blob = path.read_bytes()
        cut = tmp_path / "cut.rfbt"
        for end in range(0, len(blob), 5):
            cut.write_bytes(blob[:end])
            with pytest.raises(VarnamerError, match="cut.rfbt.*offset"):
                model.load_checkpoint(str(cut))

    def test_undecodable_config_is_corrupt(self, tmp_path):
        params = model.init_params(small_config(), seed=7)
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(params, str(path))
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF                      # first byte of the config text
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint, match="offset 12"):
            model.load_checkpoint(str(path))

    def test_tensor_stored_twice_is_corrupt(self, tmp_path):
        params = model.init_params(small_config(), seed=7)
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(params, str(path))
        blob = path.read_bytes()
        name = b"token_head.bias"
        bias = np.full(params.config.vocab_size, 7.0, "<f4")
        second = (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, bias.size)
                  + bias.tobytes())
        path.write_bytes(blob + second)
        with pytest.raises(CorruptCheckpoint,
                           match=rf"model\.rfbt: tensor 'token_head\.bias' stored a second "
                                 rf"time at offset {len(blob)}$"):
            model.load_checkpoint(str(path))

    def test_untied_head_line_loads_and_serves_the_same(self, tmp_path, desk_vocab,
                                                        toy_records):
        params = model.init_params(small_config(vocab_size=desk_vocab.size, max_seq_len=128),
                                   seed=7)
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(params, str(path))
        older = tmp_path / "older.rfbt"
        older.write_bytes(with_config_line(path.read_bytes(), "tie_token_head = False"))
        new, old = model.load_checkpoint(str(path)), model.load_checkpoint(str(older))
        assert old.config == new.config
        assert list(old.tensors) == list(new.tensors)
        for name, tensor in new.tensors.items():
            assert np.array_equal(old[name].data, tensor.data), name
        record = toy_records[0]
        suggested = [inference.suggest(p, desk_vocab, record.code_before, record.variable_before)
                     for p in (new, old)]
        assert suggested[0] == suggested[1]

    @pytest.mark.parametrize("value", ["True", "no", "false"])
    def test_other_tie_token_head_values_are_corrupt(self, tmp_path, value):
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(model.init_params(small_config(), seed=7), str(path))
        path.write_bytes(with_config_line(path.read_bytes(), f"tie_token_head = {value}"))
        with pytest.raises(CorruptCheckpoint, match="unknown key 'tie_token_head'"):
            model.load_checkpoint(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        params = model.init_params(small_config(), seed=7)
        params.tensors["length_head.bias"] = model.Tensor(
            np.zeros(9), requires_grad=True)
        path = str(tmp_path / "model.rfbt")
        model.save_checkpoint(params, path)
        with pytest.raises(ShapeMismatch):
            model.load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        import os

        params = model.init_params(small_config(), seed=7)
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(params, str(path))
        before = path.read_bytes()

        class Unwritable:
            @property
            def data(self):
                raise OSError("disk full")

        params["token_embedding"].data += 1.0
        last = list(params.tensors)[-1]
        monkeypatch.setitem(params.tensors, last, Unwritable())
        with pytest.raises(OSError, match="disk full"):
            model.save_checkpoint(params, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.rfbt"]


class TestServingPrecision:
    """A loaded checkpoint computes in float32; nothing in an eval-mode
    forward may widen it (see the dtype rule in ``autodiff``)."""

    @staticmethod
    def graph_nodes(*outputs):
        seen, stack, nodes = set(), list(outputs), []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        return nodes

    @pytest.mark.parametrize("rows", [None, [0], [1, 3]])
    def test_eval_forward_stays_float32(self, tmp_path, rows):
        self.check_float32(tmp_path, [CLS, 9, 10, 11, 12, SEP], rows)

    def test_eval_pack_stays_float32(self, tmp_path):
        self.check_float32(tmp_path, [CLS, 9, 10, 11, 12, SEP, CLS, 13, 14, SEP],
                           [0, 3, 6, 9], lengths=[6, 4])

    def check_float32(self, tmp_path, ids, rows, lengths=None):
        path = str(tmp_path / "model.rfbt")
        model.save_checkpoint(model.init_params(small_config(num_layers=2), seed=7), path)
        params = model.load_checkpoint(path)
        assert params.dtype == np.float32
        assert all(t.data.dtype == np.float32 and t.data.flags.writeable
                   for t in params.tensors.values())
        hidden = model.forward(params, ids, rows=rows, lengths=lengths)
        token = model.token_probs(params, hidden)
        length = model.length_probs(params, ad.take(hidden, [0]))
        nodes = self.graph_nodes(token, length)
        assert len(nodes) > 40                  # the walk reached the parameters
        assert {node.dtype for node in nodes} == {np.dtype(np.float32)}
        attention = [node for node in nodes if node._backward is not None
                     and node._backward.__qualname__.startswith("self_attention")]
        assert len(attention) == 2              # one per layer

    def test_fresh_parameters_are_float64(self):
        assert model.init_params(small_config(), seed=7).dtype == np.float64


def quadratic_probe(params):
    """0.5 * sum of squares over all parameters; gradient is the parameters."""
    total = None
    for tensor in params.tensors.values():
        term = ad.scale(ad.sum_all(ad.power(tensor, 2.0)), 0.5)
        total = term if total is None else ad.add(total, term)
    return total


class TestGradientCheckContract:
    def test_toy_model_is_float64(self):
        params, _ = gradcheck.toy_model()
        assert {t.data.dtype for t in params.tensors.values()} == {np.dtype(np.float64)}

    def test_quadratic_probe_exact(self):
        # central differences are exact for quadratics; the tensor set must
        # be small enough that float cancellation stays under 1e-7 of the
        # smallest sampled weight
        config = model.ModelConfig(vocab_size=16, num_layers=1, hidden_dim=8,
                                   num_heads=2, ffn_dim=8, max_seq_len=8)
        params = model.init_params(config, seed=8)
        err = gradcheck.gradient_check(
            quadratic_probe, params, epsilon=1e-3,
            coords_per_tensor=200, seed=0)
        assert err < 1e-7

    def test_default_step_resolves_a_gradient_near_the_floor(self):
        # The sampled coordinate of the cmlm check (toy seed 0, default
        # sampling) with the smallest analytic gradient: central differences
        # at a 3e-4 step were off by 3.6e-4 relative there, from rounding.
        params, example = gradcheck.toy_model(seed=0)
        cmlm = gradcheck.loss_suite(example)["cmlm"]
        cmlm(params).backward()
        name, index = "layer1.attention.query.weight", 834
        analytic = params[name].grad.reshape(-1)[index]
        params.zero_grads()
        assert 1e-8 < analytic < 1.01e-8
        numeric = gradcheck.numeric_derivative(cmlm, params, name, index)
        assert abs(analytic - numeric) / analytic < 1e-4

    def test_a_gradient_off_by_a_tenth_of_a_percent_fails(self, monkeypatch, caplog):
        from varnamer import autodiff as ad

        params, example = gradcheck.toy_model(seed=0)
        cmlm = gradcheck.loss_suite(example)["cmlm"]
        linear = ad.linear

        def corrupted_linear(x, w, b):
            out = linear(x, w, b)
            backward = out._backward
            out._backward = lambda g: backward(g * 1.001)
            return out

        monkeypatch.setattr(ad, "linear", corrupted_linear)
        with caplog.at_level("INFO", logger="varnamer.gradcheck"):
            worst = gradcheck.gradient_check(cmlm, params, coords_per_tensor=2)
        assert worst > 1e-4
        assert "worst coordinate" in caplog.text and "analytic" in caplog.text

    def test_epsilon_range_enforced(self):
        params = model.init_params(small_config(num_layers=1), seed=8)
        with pytest.raises(InvalidConfig, match="epsilon 0.5"):
            gradcheck.gradient_check(quadratic_probe, params, epsilon=0.5)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_gradient_detected(self):
        from varnamer import autodiff as ad
        from varnamer.errors import NonFiniteGradient

        params = model.init_params(small_config(num_layers=1), seed=8)

        def bad_loss(p):
            return ad.log(ad.sum_all(ad.mul(p["token_head.bias"], 0.0)))

        with pytest.raises(NonFiniteGradient):
            gradcheck.gradient_check(bad_loss, params)
