import math

import numpy as np
import pytest

from varnamer import autodiff as ad
from varnamer import bpe, corpus, masking, model, training
from varnamer.errors import InvalidConfig, ShapeMismatch

import toycorpus


def tiny_model(vocab, seed=0, **overrides):
    defaults = dict(vocab_size=vocab.size, num_layers=1, hidden_dim=32,
                    num_heads=4, ffn_dim=64, max_seq_len=128, dropout=0.0)
    defaults.update(overrides)
    return model.init_params(model.ModelConfig(**defaults), seed)


def tiny_train_config(**overrides):
    defaults = dict(max_epochs=3, batch_size=8, seed=0, max_seq_len=128,
                    dropout=0.0, learning_rate=1e-3)
    defaults.update(overrides)
    return training.TrainConfig(**defaults)


class TestTrainConfig:
    def test_text_roundtrip(self):
        config = training.TrainConfig(learning_rate=0.01, lambda_bot=0.0,
                                      freeze_token_head_in_lp=False)
        parsed = training.TrainConfig.from_text(config.to_text())
        assert parsed == config

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            training.TrainConfig.from_text("momentum = 0.9\n")

    @pytest.mark.parametrize("raw,value", [
        ("True", True), ("yes", True), ("1", True),
        ("false", False), ("No", False), ("0", False),
    ])
    def test_boolean_words(self, raw, value):
        config = training.TrainConfig.from_text(f"dedupe_bot = {raw}\n")
        assert config.dedupe_bot is value

    @pytest.mark.parametrize("raw", ["Ture", "", "off", "-1"])
    def test_bad_boolean_names_line_and_key(self, raw):
        with pytest.raises(InvalidConfig, match="line 3: dedupe_bot"):
            training.TrainConfig.from_text(f"# comment\nseed = 2\ndedupe_bot = {raw}\n")

    def test_bad_number_is_invalid_config(self):
        with pytest.raises(InvalidConfig, match="line 1: batch_size"):
            training.TrainConfig.from_text("batch_size = many\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidConfig):
            training.TrainConfig(tau=0.0).validate()
        with pytest.raises(InvalidConfig):
            training.TrainConfig(lambda_bot=-0.1).validate()


class TestAdam:
    def test_zero_gradient_no_change(self):
        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        before = {n: t.data.copy() for n, t in params.tensors.items()}
        grads = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        training.adam_update(params, grads, training.AdamState(), tiny_train_config())
        for name, t in params.tensors.items():
            np.testing.assert_array_equal(t.data, before[name])

    def test_first_step_magnitude(self):
        # with bias correction, a constant gradient moves the parameter by
        # almost exactly -lr on the first step (epsilon-slack aside)
        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        before = params["token_head.bias"].data.copy()
        grads = {"token_head.bias": np.full_like(before, 0.37)}
        config = tiny_train_config(learning_rate=1e-3)
        training.adam_update(params, grads, training.AdamState(), config)
        delta = params["token_head.bias"].data - before
        np.testing.assert_allclose(delta, -1e-3, rtol=1e-4)

    def test_two_steps_match_hand_rolled_oracle(self):
        # independent scalar Adam, computed step by step
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta, m, v = 0.5, 0.0, 0.0
        grads_seq = [0.3, -0.2]
        for t, g in enumerate(grads_seq, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)

        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        params.tensors["probe"] = model.Tensor(np.array([0.5]), requires_grad=True)
        config = tiny_train_config(learning_rate=lr)
        state = training.AdamState()
        for g in grads_seq:
            training.adam_update(params, {"probe": np.array([g])}, state, config)
        assert abs(params.tensors["probe"].data[0] - theta) < 1e-12

    def test_shape_mismatch(self):
        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        with pytest.raises(ShapeMismatch):
            training.adam_update(
                params, {"token_head.bias": np.zeros(3)},
                training.AdamState(), tiny_train_config())

    def test_skip_set_freezes(self):
        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        before = params["token_head.bias"].data.copy()
        grads = {"token_head.bias": np.ones_like(before)}
        training.adam_update(params, grads, training.AdamState(),
                             tiny_train_config(), skip=frozenset(["token_head.bias"]))
        np.testing.assert_array_equal(params["token_head.bias"].data, before)


class TestDatasets:
    def test_exclusions_counted(self, desk_vocab, toy_records):
        config = tiny_train_config(max_name_tokens=1)
        examples, stats = training.build_cmlm_dataset(desk_vocab, toy_records, config)
        multi = sum(
            1 for r in toy_records
            if len(bpe.encode(desk_vocab, r.variable_after)) > 1)
        assert stats["too_long"] == multi
        assert len(examples) == len(toy_records) - multi

    def test_tg_examples_have_positions(self, desk_vocab, toy_records):
        config = tiny_train_config()
        examples, _ = training.build_tg_dataset(desk_vocab, toy_records[:10], config)
        for ex in examples:
            assert ex.after_positions and ex.before_positions
            assert ex.masked.flat_positions


_FULL_FORWARD = model.forward


def _full_forward_then_take(params, ids, train_mode=False, dropout_seed=0, rows=None):
    """Reference for ``forward(..., rows=R)``: the full output's rows R."""
    encoded = _FULL_FORWARD(params, ids, train_mode, dropout_seed)
    return encoded if rows is None else model.EncodedSequence(ad.take(encoded.hidden, rows))


class TestRowRestrictedLosses:
    """Every example loss and gradient through ``forward(..., rows=)``
    matches the same loss through a full forward followed by a gather."""

    @staticmethod
    def _losses(vocab, records):
        """(loss function, example, train_mode, dropout seed) tuples."""
        tc = tiny_train_config(dropout=0.1)
        tg_examples, _ = training.build_tg_dataset(vocab, records, tc)
        num_examples, _ = training.build_num_dataset(vocab, records, tc)
        cases = []
        for train_mode in (False, True):
            for seed, ex in enumerate(tg_examples):
                cases.append((training.cmlm_example_loss, ex.masked, train_mode, seed))
                cases.append((lambda p, e, t, s: training.tg_example_loss(p, e, tc, t, s)[0],
                              ex, train_mode, seed))
            for seed, ex in enumerate(num_examples):
                cases.append((training.lp_example_loss, ex, train_mode, seed))
        return cases

    @staticmethod
    def _value_and_grads(params, case):
        loss_fn, example, train_mode, seed = case
        params.zero_grads()
        loss = loss_fn(params, example, train_mode, seed)
        loss.backward()
        return loss.item(), {name: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                             for name, t in params.tensors.items()}

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_losses_and_gradients_match_full_forward(self, desk_vocab, toy_records,
                                                     num_layers, monkeypatch):
        params = tiny_model(desk_vocab, seed=4, num_layers=num_layers, dropout=0.1)
        cases = self._losses(desk_vocab, toy_records[:3])
        rows_results = [self._value_and_grads(params, case) for case in cases]
        monkeypatch.setattr(model, "forward", _full_forward_then_take)
        full_results = [self._value_and_grads(params, case) for case in cases]
        assert len(rows_results) == len(full_results) >= 9
        for (value, grads), (ref_value, ref_grads) in zip(rows_results, full_results):
            assert value == pytest.approx(ref_value, rel=1e-9, abs=1e-12)
            for name in ref_grads:
                np.testing.assert_allclose(grads[name], ref_grads[name],
                                           rtol=1e-9, atol=1e-12, err_msg=name)


class TestLoops:
    def test_pretrain_loss_decreases(self, desk_vocab, toy_records):
        params = tiny_model(desk_vocab)
        config = tiny_train_config(max_epochs=5, learning_rate=3e-3)
        result = training.pretrain(config, params, toy_records[:16], desk_vocab)
        losses = [row["loss"] for row in result.history]
        assert losses[-1] < losses[0]

    def test_pretrain_deterministic(self, desk_vocab, toy_records):
        def run():
            params = tiny_model(desk_vocab)
            config = tiny_train_config(max_epochs=2, dropout=0.1)
            result = training.pretrain(config, params, toy_records[:12], desk_vocab)
            return result

        a, b = run(), run()
        assert [r["loss"] for r in a.history] == [r["loss"] for r in b.history]
        for name in a.params.tensors:
            np.testing.assert_array_equal(
                a.params[name].data, b.params[name].data)

    def test_lp_freezes_token_head(self, desk_vocab, toy_records):
        params = tiny_model(desk_vocab)
        head_before = params["token_head.weight"].data.copy()
        length_before = params["length_head.weight"].data.copy()
        config = tiny_train_config(max_epochs=2)
        training.finetune_lp(config, params, toy_records[:12], desk_vocab)
        np.testing.assert_array_equal(params["token_head.weight"].data, head_before)
        assert not np.array_equal(params["length_head.weight"].data, length_before)

    def test_tg_freezes_length_head(self, desk_vocab, toy_records):
        params = tiny_model(desk_vocab)
        length_before = params["length_head.weight"].data.copy()
        config = tiny_train_config(max_epochs=1, batch_size=4)
        training.finetune_tg(config, params, toy_records[:8], desk_vocab)
        np.testing.assert_array_equal(params["length_head.weight"].data, length_before)

    def test_tg_component_losses_logged(self, desk_vocab, toy_records):
        params = tiny_model(desk_vocab)
        config = tiny_train_config(max_epochs=1, batch_size=4)
        result = training.finetune_tg(config, params, toy_records[:8], desk_vocab)
        row = result.history[0]
        assert {"cmlm", "bot", "cl"} <= set(row)

    def test_lambda_zero_drops_component(self, desk_vocab, toy_records):
        params = tiny_model(desk_vocab)
        config = tiny_train_config(max_epochs=1, batch_size=4,
                                   lambda_bot=0.0, lambda_cl=0.0)
        result = training.finetune_tg(config, params, toy_records[:8], desk_vocab)
        row = result.history[0]
        assert "bot" not in row and "cl" not in row
        assert row["loss"] == pytest.approx(row["cmlm"], rel=1e-9)

    def test_validation_split_and_early_stop_logging(self, desk_vocab, toy_functions):
        from varnamer import corpus

        records, _ = corpus.adapt_corpus(
            toy_functions[:30], seed=3, validation_fraction=0.3, test_fraction=0.0)
        params = tiny_model(desk_vocab)
        config = tiny_train_config(max_epochs=3)
        result = training.pretrain(config, params, records, desk_vocab)
        assert all("val_loss" in row for row in result.history)

    def test_early_stop_returns_best_epoch_parameters(self, desk_vocab, toy_functions):
        records, _ = corpus.adapt_corpus(
            toy_functions[:30], seed=3, validation_fraction=0.3, test_fraction=0.0)
        config = tiny_train_config(max_epochs=15, learning_rate=1e-2, patience=2)
        stopped = training.pretrain(config, tiny_model(desk_vocab), records, desk_vocab)
        val = [row["val_loss"] for row in stopped.history]
        best_epoch = int(np.argmin(val))
        assert best_epoch < len(val) - 1 < config.max_epochs - 1   # stopped early, past the best
        config.max_epochs = best_epoch + 1
        rerun = training.pretrain(config, tiny_model(desk_vocab), records, desk_vocab)
        for name in rerun.params.tensors:
            np.testing.assert_array_equal(stopped.params[name].data, rerun.params[name].data)

    def test_checkpoints_and_log_written(self, desk_vocab, toy_records, tmp_path):
        params = tiny_model(desk_vocab)
        config = tiny_train_config(max_epochs=2)
        training.pretrain(config, params, toy_records[:8], desk_vocab,
                          out_dir=str(tmp_path))
        assert (tmp_path / "pretrain-epoch0.rfbt").exists()
        assert (tmp_path / "pretrain-epoch1.rfbt").exists()
        log = (tmp_path / "pretrain-log.csv").read_text().splitlines()
        assert log[0].startswith("epoch,step,loss")
        assert len(log) == 3
