import numpy as np
import pytest

from varnamer import gradcheck, model
from varnamer.bpe import CLS, SEP
from varnamer.errors import (
    CorruptCheckpoint,
    EmptyPositions,
    InvalidConfig,
    InvalidRows,
    SequenceTooLong,
    ShapeMismatch,
    UnknownTokenId,
    VarnamerError,
)


def small_config(**overrides):
    defaults = dict(vocab_size=64, num_layers=2, hidden_dim=32, num_heads=4,
                    ffn_dim=64, max_seq_len=24, max_name_tokens=5, dropout=0.1)
    defaults.update(overrides)
    return model.ModelConfig(**defaults)


def wrap(ids):
    return [CLS] + list(ids) + [SEP]


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(InvalidConfig):
            small_config(hidden_dim=30).validate()

    def test_text_roundtrip(self):
        config = small_config(tie_token_head=True)
        parsed = model.ModelConfig.from_text(config.to_text())
        assert parsed == config

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            model.ModelConfig.from_text("vocab_size = 64\nwidth = 2\n")

    @pytest.mark.parametrize("raw,value", [
        ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("False", False), ("NO", False), ("0", False),
    ])
    def test_boolean_words(self, raw, value):
        config = model.ModelConfig.from_text(f"vocab_size = 64\ntie_token_head = {raw}\n")
        assert config.tie_token_head is value

    @pytest.mark.parametrize("raw", ["Ture", "", "2", "on", "tru e"])
    def test_bad_boolean_names_line_and_key(self, raw):
        with pytest.raises(InvalidConfig, match="line 2: tie_token_head"):
            model.ModelConfig.from_text(f"vocab_size = 64\ntie_token_head = {raw}\n")

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
        a = model.forward(params, ids).hidden_states
        b = model.forward(params, ids).hidden_states
        assert np.array_equal(a, b)

    def test_train_mode_dropout_changes_output(self):
        params = model.init_params(small_config(), seed=2)
        ids = wrap(range(10, 18))
        eval_out = model.forward(params, ids).hidden_states
        train_out = model.forward(params, ids, train_mode=True, dropout_seed=1).hidden_states
        assert not np.allclose(eval_out, train_out)

    def test_swap_symmetry_with_zero_positions(self):
        # with position embeddings zeroed, swapping two tokens swaps rows
        params = model.init_params(small_config(dropout=0.0), seed=3)
        params["position_embedding"].data[:] = 0.0
        ids = wrap([10, 11, 12, 13])
        swapped = wrap([10, 13, 12, 11])
        a = model.forward(params, ids).hidden_states
        b = model.forward(params, swapped).hidden_states
        np.testing.assert_allclose(a[2], b[4], atol=1e-12)
        np.testing.assert_allclose(a[4], b[2], atol=1e-12)
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)

    def test_finite_at_max_len(self):
        config = small_config(max_seq_len=48)
        params = model.init_params(config, seed=4)
        rng = np.random.default_rng(0)
        ids = wrap(rng.integers(6, config.vocab_size, size=46).tolist())
        out = model.forward(params, ids).hidden_states
        assert np.all(np.isfinite(out))

    def test_cls_vector_is_row_zero(self):
        params = model.init_params(small_config(), seed=2)
        encoded = model.forward(params, wrap([10, 11]))
        assert np.array_equal(encoded.cls_vector, encoded.hidden_states[0])

    def test_too_long_rejected(self):
        config = small_config(max_seq_len=8)
        params = model.init_params(config, seed=0)
        with pytest.raises(SequenceTooLong):
            model.forward(params, wrap(range(10, 20)))

    def test_unknown_id_rejected(self):
        params = model.init_params(small_config(), seed=0)
        with pytest.raises(UnknownTokenId):
            model.forward(params, wrap([999]))


ROW_SETS = [[0], [3, 1, 7], [9, 0, 4, 4], list(range(10))]


class TestForwardRows:
    """``forward(..., rows=R)`` against the full output's rows R."""

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("rows", ROW_SETS)
    @pytest.mark.parametrize("train_mode", [False, True])
    def test_rows_equal_full_output_rows(self, num_layers, rows, train_mode):
        params = model.init_params(small_config(num_layers=num_layers), seed=6)
        ids = wrap(range(10, 18))
        full = model.forward(params, ids, train_mode, dropout_seed=3).hidden_states
        part = model.forward(params, ids, train_mode, dropout_seed=3, rows=rows)
        assert part.hidden_states.shape == (len(rows), 32)
        np.testing.assert_allclose(part.hidden_states, full[rows], rtol=0, atol=1e-12)

    def test_train_mode_rows_see_dropout(self):
        params = model.init_params(small_config(), seed=6)
        ids = wrap(range(10, 18))
        eval_rows = model.forward(params, ids, rows=[2, 5]).hidden_states
        train_rows = model.forward(params, ids, True, 3, rows=[2, 5]).hidden_states
        assert not np.allclose(eval_rows, train_rows)

    def test_cls_vector_of_row_zero(self):
        params = model.init_params(small_config(), seed=2)
        ids = wrap([10, 11])
        full = model.forward(params, ids)
        np.testing.assert_allclose(model.forward(params, ids, rows=[0]).cls_vector,
                                   full.cls_vector, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [[], [10], [-1], [0, 12], [[0, 1]]])
    def test_empty_or_out_of_range_rows_rejected(self, rows):
        params = model.init_params(small_config(), seed=0)
        with pytest.raises(InvalidRows):
            model.forward(params, wrap(range(10, 18)), rows=rows)


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

    def test_tied_head_uses_embeddings(self):
        config = small_config(tie_token_head=True)
        params = model.init_params(config, seed=6)
        assert "token_head.weight" not in params.tensors
        h = np.random.default_rng(2).normal(size=32)
        logits = model.token_logits(params, h).data
        expected = h @ params["token_embedding"].data.T + params["token_head.bias"].data
        np.testing.assert_allclose(logits, expected, atol=1e-12)


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

    def test_magic_bytes(self, tmp_path):
        params = model.init_params(small_config(), seed=7)
        path = tmp_path / "model.rfbt"
        model.save_checkpoint(params, str(path))
        assert path.read_bytes()[:4] == b"RFBT"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rfbt"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(InvalidConfig):
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

    def test_shape_mismatch_rejected(self, tmp_path):
        params = model.init_params(small_config(), seed=7)
        params.tensors["length_head.bias"] = model.Tensor(
            np.zeros(9), requires_grad=True)
        path = str(tmp_path / "model.rfbt")
        model.save_checkpoint(params, path)
        with pytest.raises(ShapeMismatch):
            model.load_checkpoint(path)


class TestGradientCheckContract:
    def test_quadratic_probe_exact(self):
        # central differences are exact for quadratics; the tensor set must
        # be small enough that float cancellation stays under 1e-7 of the
        # smallest sampled weight
        config = model.ModelConfig(vocab_size=16, num_layers=1, hidden_dim=8,
                                   num_heads=2, ffn_dim=8, max_seq_len=8)
        params = model.init_params(config, seed=8)
        err = gradcheck.gradient_check(
            gradcheck.quadratic_probe, params, epsilon=1e-3,
            coords_per_tensor=200, seed=0)
        assert err < 1e-7

    def test_epsilon_range_enforced(self):
        params = model.init_params(small_config(num_layers=1), seed=8)
        with pytest.raises(ValueError):
            gradcheck.gradient_check(gradcheck.quadratic_probe, params, epsilon=0.5)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_gradient_detected(self):
        from varnamer import autodiff as ad
        from varnamer.errors import NonFiniteGradient

        params = model.init_params(small_config(num_layers=1), seed=8)

        def bad_loss(p):
            return ad.log(ad.sum_all(ad.mul(p["token_head.bias"], 0.0)))

        with pytest.raises(NonFiniteGradient):
            gradcheck.gradient_check(bad_loss, params)
