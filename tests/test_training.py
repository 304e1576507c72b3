import dataclasses
import functools
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from varnamer import autodiff as ad
from varnamer import bpe, corpus, masking, model, training
from varnamer.errors import (
    GraphReleased,
    InvalidConfig,
    NonFiniteLoss,
    NoTrainingExamples,
    ShapeMismatch,
)

import toycorpus


def tiny_model(vocab, seed=0, **overrides):
    defaults = dict(vocab_size=vocab.size, num_layers=1, hidden_dim=32,
                    num_heads=4, ffn_dim=64, max_seq_len=128, dropout=0.0)
    defaults.update(overrides)
    return model.init_params(model.ModelConfig(**defaults), seed)


def tiny_train_config(**overrides):
    defaults = dict(max_epochs=3, batch_size=8, seed=0, max_seq_len=128,
                    learning_rate=1e-3)
    defaults.update(overrides)
    return training.TrainConfig(**defaults)


class TestTrainConfig:
    def test_text_roundtrip(self):
        config = training.TrainConfig(learning_rate=0.01, lambda_bot=0.0, patience=3)
        parsed = training.TrainConfig.from_text(config.to_text())
        assert parsed == config

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            training.TrainConfig.from_text("momentum = 0.9\n")

    def test_removed_dedupe_bot_key_names_line_and_key(self):
        with pytest.raises(InvalidConfig, match="line 2: unknown key 'dedupe_bot'"):
            training.TrainConfig.from_text("seed = 2\ndedupe_bot = False\n")

    def test_removed_freeze_key_names_line_and_key(self):
        with pytest.raises(InvalidConfig,
                           match="line 2: unknown key 'freeze_token_head_in_lp'"):
            training.TrainConfig.from_text("seed = 2\nfreeze_token_head_in_lp = True\n")

    @pytest.mark.parametrize("line", ["adam_beta1 = 0.9", "adam_beta2 = 0.999",
                                      "adam_epsilon = 1e-06"])
    def test_removed_adam_keys_name_line_and_key(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(InvalidConfig, match=f"^config line 2: unknown key '{key}'$"):
            training.TrainConfig.from_text(f"seed = 2\n{line}\n")

    def test_repeated_key_names_both_lines(self):
        # the last value won silently
        with pytest.raises(InvalidConfig,
                           match="^config line 2: key 'lambda_bot' repeats line 1$"):
            training.TrainConfig.from_text("lambda_bot = 0.1\nlambda_bot = 0.5\n")

    def test_bad_number_is_invalid_config(self):
        with pytest.raises(InvalidConfig, match="line 1: batch_size"):
            training.TrainConfig.from_text("batch_size = many\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidConfig):
            training.TrainConfig(tau=0.0).validate()
        with pytest.raises(InvalidConfig):
            training.TrainConfig(lambda_bot=-0.1).validate()
        for patience in (0, -3):
            with pytest.raises(InvalidConfig, match="patience must be >= 1"):
                training.TrainConfig(patience=patience).validate()
        with pytest.raises(InvalidConfig, match="patience must be >= 1"):
            training.TrainConfig.from_text("patience = -3\n")

    @pytest.mark.parametrize("overrides", [dict(max_name_tokens=0), dict(max_name_tokens=-2),
                                           dict(max_seq_len=2), dict(max_seq_len=0)])
    def test_limits_without_room_for_a_name_rejected(self, overrides):
        with pytest.raises(InvalidConfig):
            training.TrainConfig(**overrides).validate()


class TestAdam:
    def test_zero_gradient_no_change(self):
        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        before = {n: t.data.copy() for n, t in params.tensors.items()}
        grads = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        training.adam_update(params, grads, training.AdamState(), 1e-3)
        for name, t in params.tensors.items():
            np.testing.assert_array_equal(t.data, before[name])

    def test_first_step_magnitude(self):
        # with bias correction, a constant gradient moves the parameter by
        # almost exactly -lr on the first step (epsilon-slack aside)
        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        before = params["token_head.bias"].data.copy()
        grads = {"token_head.bias": np.full_like(before, 0.37)}
        training.adam_update(params, grads, training.AdamState(), 1e-3)
        delta = params["token_head.bias"].data - before
        np.testing.assert_allclose(delta, -1e-3, rtol=1e-4)

    def test_two_steps_match_hand_rolled_oracle(self):
        # independent scalar Adam, computed step by step: the moments in
        # float32, the parameter step in float64
        lr = 0.01
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPSILON
        f32 = np.float32
        theta, m, v = 0.5, f32(0.0), f32(0.0)
        grads_seq = [0.3, -0.2]
        for t, g in enumerate(grads_seq, start=1):
            g = f32(g)
            m = f32(b1) * m + f32(1 - b1) * g
            v = f32(b2) * v + f32(1 - b2) * g * g
            m_hat = float(m) / (1 - b1 ** t)
            v_hat = float(v) / (1 - b2 ** t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)

        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        params.tensors["probe"] = model.Tensor(np.array([0.5]), requires_grad=True)
        state = training.AdamState()
        for g in grads_seq:
            training.adam_update(params, {"probe": np.array([g])}, state, lr)
        assert abs(params.tensors["probe"].data[0] - theta) < 1e-12

    @staticmethod
    def plain_adam(data, grads, learning_rate):
        """The update step by step from zero moments, on a copy of
        ``data``: the moments in float32, the parameter step in float64."""
        data = data.copy()
        m = np.zeros(data.shape, np.float32)
        v = np.zeros(data.shape, np.float32)
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPSILON
        for step, grad in enumerate(grads, start=1):
            grad = grad.astype(np.float32)
            m = np.float32(b1) * m + np.float32(1.0 - b1) * grad
            v = np.float32(b2) * v + np.float32(1.0 - b2) * grad * grad
            m_hat = m.astype(np.float64) / (1.0 - b1 ** step)
            v_hat = v.astype(np.float64) / (1.0 - b2 ** step)
            data -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        return data, m, v

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_update_over_masters_equals_the_plain_expression(self, dtype):
        rng = np.random.default_rng(3)
        shapes = {"w": (6, 5), "b": (5,), "s": (40,)}
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = model.ModelParams(config=None, tensors={
            name: ad.Tensor(data.astype(dtype), requires_grad=True)
            for name, data in start.items()})
        state = training.AdamState()
        if dtype == np.float32:   # as a stage sets it up: the masters are the float64 values
            state.master = {name: data.copy() for name, data in start.items()}
        lr = 3e-3
        steps = [{name: rng.normal(size=shape).astype(dtype) * 10.0 ** -k
                  for name, shape in shapes.items()} for k in range(3)]
        for grads in steps:
            training.adam_update(params, grads, state, lr)
        for name in shapes:
            data, m, v = self.plain_adam(start[name], [grads[name] for grads in steps], lr)
            assert np.array_equal(state.master[name], data)
            assert state.m[name].dtype == state.v[name].dtype == np.float32
            assert np.array_equal(state.m[name], m) and np.array_equal(state.v[name], v)
            assert params[name].data.dtype == dtype
            assert np.array_equal(params[name].data, data.astype(dtype))

    def test_in_place_update_keeps_its_arrays_and_the_plain_values(self):
        rng = np.random.default_rng(11)
        start = rng.normal(size=(7, 9))
        params = model.ModelParams(config=None, tensors={
            "w": ad.Tensor(start.astype(np.float32), requires_grad=True)})
        state = training.AdamState(master={"w": start.copy()})
        lr = 2e-3
        # float32 gradients over many magnitudes, zeros included
        steps = [(rng.normal(size=start.shape) * 10.0 ** rng.integers(-8, 4, size=start.shape)
                  * (rng.random(start.shape) > 0.1)).astype(np.float32) for _ in range(6)]
        training.adam_update(params, {"w": steps[0]}, state, lr)
        arrays = (state.master["w"], state.m["w"], state.v["w"], params["w"].data)
        for grad in steps[1:]:
            training.adam_update(params, {"w": grad}, state, lr)
        assert all(a is b for a, b in zip(arrays, (state.master["w"], state.m["w"],
                                                   state.v["w"], params["w"].data)))
        data, m, v = self.plain_adam(start, steps, lr)
        assert np.array_equal(state.master["w"], data)
        assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)

    def test_state_holds_float32_moments_beside_float64_masters(self):
        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        rng = np.random.default_rng(5)
        # every tensor but the length head's gets a gradient
        grads = {name: rng.normal(size=t.data.shape).astype(np.float32)
                 for name, t in params.tensors.items() if not name.startswith("length_head")}
        state = training.AdamState()
        training.adam_update(params, grads, state, 1e-3)
        assert set(state.m) == set(state.v) == set(state.master) == set(grads)
        for name in grads:
            assert state.m[name].dtype == state.v[name].dtype == np.float32
            assert state.master[name].dtype == np.float64
            assert state.m[name].shape == state.v[name].shape == state.master[name].shape
        state_bytes = sum(state.m[name].nbytes + state.v[name].nbytes + state.master[name].nbytes
                          for name in grads)
        assert state_bytes == 16 * sum(grad.size for grad in grads.values())

    def test_shape_mismatch(self):
        vocab = toycorpus.handmade_vocab(["int"])
        params = tiny_model(vocab)
        with pytest.raises(ShapeMismatch):
            training.adam_update(
                params, {"token_head.bias": np.zeros(3)},
                training.AdamState(), 1e-3)


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
            assert ex.before_positions
            assert ex.masked.flat_positions

    def test_before_input_is_built_only_for_the_contrastive_term(self, monkeypatch):
        # merge-free: the before name takes 8 tokens and overflows the window
        vocab = bpe.SubwordVocab([])
        record = toycorpus.make_record("r", "void f() { int x = 1; }", "x", "abcdefgh")
        kept, stats = training.build_cmlm_dataset(
            vocab, [record], training.TrainConfig(lambda_cl=0.0, max_seq_len=18))
        assert len(kept) == 1 and stats["truncated"] == 0
        encode = masking.encode_with_positions
        calls = []
        monkeypatch.setattr(masking, "encode_with_positions",
                            lambda *a: calls.append(a) or encode(*a))
        examples, stats = training.build_tg_dataset(
            vocab, [record], training.TrainConfig(lambda_cl=0.0, max_seq_len=18))
        assert stats == {"too_long": 0, "truncated": 0}
        assert examples[0].before_ids is None and examples[0].before_positions is None
        assert calls == []
        examples, stats = training.build_tg_dataset(
            vocab, [record], training.TrainConfig(lambda_cl=1.0, max_seq_len=18))
        assert examples == [] and stats["truncated"] == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("stage", ["pretrain", "finetune_lp", "finetune_tg"])
    @pytest.mark.parametrize("max_seq_len,max_name_tokens", [(40, 5), (128, 2)])
    def test_config_cannot_widen_the_model(self, desk_vocab, toy_records, stage,
                                           max_seq_len, max_name_tokens):
        # The toy methods run to ~60 tokens and names to 3 sub-tokens, past
        # one of the model's limits; the config's own limits are wider.
        params = tiny_model(desk_vocab, max_seq_len=max_seq_len,
                            max_name_tokens=max_name_tokens)
        config = tiny_train_config(max_epochs=1, max_seq_len=512, max_name_tokens=5)
        result = getattr(training, stage)(config, params, toy_records[:16], desk_vocab)
        assert len(result.history) == 1 and math.isfinite(result.history[0]["loss"])


_FULL_FORWARD = model.forward


def _full_forward_then_take(params, ids, dropout_seed=None, rows=None, lengths=None):
    """Reference for ``forward(..., rows=R)``: the full output's rows R."""
    hidden = _FULL_FORWARD(params, ids, dropout_seed, lengths=lengths)
    return hidden if rows is None else ad.take(hidden, rows)


class TestRowRestrictedLosses:
    """Every example loss and gradient through ``forward(..., rows=)``
    matches the same loss through a full forward followed by a gather."""

    @staticmethod
    def _losses(vocab, records):
        """(batch loss, example, dropout seed or None) tuples."""
        tc = tiny_train_config()
        tg_examples, _ = training.build_tg_dataset(vocab, records, tc)
        num_examples, _ = training.build_num_dataset(vocab, records, tc)
        cases = []
        for dropping in (False, True):
            for seed, ex in enumerate(tg_examples):
                seed = seed if dropping else None
                cases.append((training.cmlm_batch_loss, ex.masked, seed))
                cases.append((functools.partial(training.tg_batch_loss, config=tc), ex, seed))
            for seed, ex in enumerate(num_examples):
                cases.append((training.lp_batch_loss, ex, seed if dropping else None))
        return cases

    @staticmethod
    def _value_and_grads(params, case):
        batch_loss, example, seed = case
        params.zero_grads()
        loss, _ = batch_loss(params, [example], [seed])
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
        def run(dropout=0.1):
            params = tiny_model(desk_vocab, dropout=dropout)
            config = tiny_train_config(max_epochs=2)
            result = training.pretrain(config, params, toy_records[:12], desk_vocab)
            return result

        a, b = run(), run()
        assert [r["loss"] for r in a.history] == [r["loss"] for r in b.history]
        assert [r["loss"] for r in a.history] != [r["loss"] for r in run(0.0).history]
        for name in a.params.tensors:
            np.testing.assert_array_equal(
                a.params[name].data, b.params[name].data)

    def test_tg_deterministic(self, desk_vocab, toy_records):
        def run(dropout=0.1):
            params = tiny_model(desk_vocab, dropout=dropout)
            config = tiny_train_config(max_epochs=2, batch_size=4)
            return training.finetune_tg(config, params, toy_records[:12], desk_vocab)

        a, b = run(), run()
        assert a.history == b.history
        assert [r["loss"] for r in a.history] != [r["loss"] for r in run(0.0).history]
        for name in a.params.tensors:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_epoch_order_comes_from_one_generator_per_stage(self, desk_vocab, toy_records,
                                                            monkeypatch):
        examples, _ = training.build_cmlm_dataset(desk_vocab, toy_records[:12],
                                                  tiny_train_config())
        seen = []
        batch_loss = training.cmlm_batch_loss

        def recording(params, batch, dropout_seeds):
            if None not in dropout_seeds:       # a training batch, not validation
                seen.extend(examples.index(ex) for ex in batch)
            return batch_loss(params, batch, dropout_seeds)

        monkeypatch.setattr(training, "cmlm_batch_loss", recording)
        config = tiny_train_config(max_epochs=3, batch_size=5, seed=4)
        training.pretrain(config, tiny_model(desk_vocab), toy_records[:12], desk_vocab)
        rng = np.random.default_rng(4)
        assert seen == [int(i) for _ in range(3) for i in rng.permutation(len(examples))]

    @pytest.mark.parametrize("stage", ["pretrain", "finetune_lp", "finetune_tg"])
    def test_stage_without_examples_raises_before_writing(self, desk_vocab, toy_records,
                                                          tmp_path, stage):
        # Every name has at least one sub-token past a 3-token window.
        params = tiny_model(desk_vocab, max_seq_len=3)
        with pytest.raises(NoTrainingExamples,
                           match=rf"{stage.replace('_', '-')}: no training examples from 8 .*excluded: "
                                 r"\d+ with names longer .* \d+ with every occurrence"):
            getattr(training, stage)(tiny_train_config(), params, toy_records[:8], desk_vocab,
                                     out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

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

    def test_stage_leaves_the_unreached_head_unchanged(self, desk_vocab, toy_records):
        params = tiny_model(desk_vocab)
        config = tiny_train_config(max_epochs=1, batch_size=4)
        stages = [(training.pretrain, "length_head"), (training.finetune_lp, "token_head"),
                  (training.finetune_tg, "length_head")]
        for stage, unreached in stages:
            before = {name: t.data.copy() for name, t in params.tensors.items()}
            stage(config, params, toy_records[:8], desk_vocab)
            for name, t in params.tensors.items():
                unchanged = np.array_equal(t.data, before[name])
                assert unchanged == name.startswith(unreached), (stage.__name__, name)

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

    def test_terms_add_up_to_the_loss_over_uneven_batches(self, desk_vocab, toy_records):
        params = tiny_model(desk_vocab)
        config = tiny_train_config(max_epochs=2, batch_size=3)
        result = training.finetune_tg(config, params, toy_records[:5], desk_vocab)
        assert [row["step"] for row in result.history] == [2.0, 4.0]    # batches of 3 and 2
        for row in result.history:
            weighted = (config.lambda_cmlm * row["cmlm"] + config.lambda_bot * row["bot"]
                        + config.lambda_cl * row["cl"])
            assert row["loss"] == pytest.approx(weighted, rel=1e-9)

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

    def test_training_from_a_checkpoint_widens_to_float64(self, desk_vocab, toy_records,
                                                          tmp_path):
        path = str(tmp_path / "model.rfbt")
        model.save_checkpoint(tiny_model(desk_vocab), path)
        loaded = model.load_checkpoint(path)
        wide = model.load_checkpoint(path)
        for tensor in wide.tensors.values():
            tensor.data = tensor.data.astype(np.float64)
        config = tiny_train_config(max_epochs=1)
        a = training.finetune_lp(config, loaded, toy_records[:12], desk_vocab)
        b = training.finetune_lp(config, wide, toy_records[:12], desk_vocab)
        assert [r["loss"] for r in a.history] == [r["loss"] for r in b.history]
        for name in a.params.tensors:
            assert a.params[name].data.dtype == np.float64
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_checkpoints_and_log_written(self, desk_vocab, toy_records, tmp_path):
        params = tiny_model(desk_vocab)
        config = tiny_train_config(max_epochs=2)
        result = training.pretrain(config, params, toy_records[:8], desk_vocab,
                                   out_dir=str(tmp_path))
        assert (tmp_path / "pretrain-epoch0.rfbt").exists()
        assert (tmp_path / "pretrain-epoch1.rfbt").exists()
        log = (tmp_path / "pretrain-log.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in log] == result.history
        assert len(log) == 2

    def test_a_stage_that_stops_keeps_the_log_of_its_finished_epochs(
            self, desk_vocab, toy_records, tmp_path, monkeypatch):
        cmlm_batch_loss = training.cmlm_batch_loss

        def nan_from_epoch_1(params, examples, seeds):
            total, parts = cmlm_batch_loss(params, examples, seeds)
            if (tmp_path / "pretrain-epoch0.rfbt").exists():
                total = ad.scale(total, float("nan"))
            return total, parts

        monkeypatch.setattr(training, "cmlm_batch_loss", nan_from_epoch_1)
        with pytest.raises(NonFiniteLoss, match="at epoch 1"):
            training.pretrain(tiny_train_config(max_epochs=3), tiny_model(desk_vocab),
                              toy_records[:8], desk_vocab, out_dir=str(tmp_path))
        log = (tmp_path / "pretrain-log.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["epoch"] for line in log] == [0.0]


def graph_nodes(*outputs):
    seen, stack, nodes = set(), list(outputs), []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def float32_copy(params):
    return model.ModelParams(config=params.config, tensors={
        name: ad.Tensor(t.data.astype(np.float32), requires_grad=True)
        for name, t in params.tensors.items()})


class TestFloat32Training:
    def test_train_mode_tg_batch_stays_float32(self, desk_vocab, toy_records, monkeypatch):
        params = float32_copy(tiny_model(desk_vocab, num_layers=2, dropout=0.1))
        # each op rebuilds its float masks as keep * scale
        keep_dtypes, mask_dtypes = [], []
        self_attention, dropout = ad.self_attention, ad.dropout

        def recording_self_attention(x, wq, bq, wk, bk, wv, bv, offsets, heads, rows=None,
                                     keeps=None, scale=None):
            for keep in keeps or ():
                if keep is not None:
                    keep_dtypes.append(keep.dtype)
                    mask_dtypes.append((keep * scale).dtype)
            return self_attention(x, wq, bq, wk, bk, wv, bv, offsets, heads, rows, keeps, scale)

        def recording_dropout(a, keep, scale):
            keep_dtypes.append(keep.dtype)
            mask_dtypes.append((keep * scale).dtype)
            return dropout(a, keep, scale)

        # backward releases the intermediate gradients, so each one is
        # recorded as it reaches its node, with the node's own dtype
        grad_dtypes = []
        accumulated = ad._accumulated

        def recording_accumulated(total, grad, dtype, owned):
            if np.ndim(grad) > 0:
                grad_dtypes.extend((grad.dtype, np.dtype(dtype)))
            return accumulated(total, grad, dtype, owned)

        monkeypatch.setattr(ad, "self_attention", recording_self_attention)
        monkeypatch.setattr(ad, "dropout", recording_dropout)
        monkeypatch.setattr(ad, "_accumulated", recording_accumulated)
        config = tiny_train_config()
        examples, _ = training.build_tg_dataset(desk_vocab, toy_records[:12], config)
        first = examples[0]
        second = next(ex for ex in examples
                      if len(ex.masked.input_ids) != len(first.masked.input_ids))
        assert config.lambda_bot > 0 and config.lambda_cl > 0
        total, _ = training.tg_batch_loss(params, [first, second], [3, 4], config)
        nodes = graph_nodes(total)
        total.backward()
        # an edge's array is gone with its Tensor; its dtype is checked as
        # its gradient arrives, a leaf's here
        wide = [node.dtype for node in nodes if isinstance(node, ad.Tensor)
                and node.data.ndim > 0 and node.dtype != np.float32]
        wide += [dtype for dtype in grad_dtypes if dtype != np.float32]
        assert len(nodes) > 100 and len(grad_dtypes) > 100 and wide == []
        assert set(keep_dtypes) == {np.dtype(bool)}
        assert mask_dtypes and set(mask_dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("batch_loss", ["cmlm", "lp", "tg"])
    def test_float32_batch_loss_matches_float64(self, desk_vocab, toy_records, batch_loss):
        wide = tiny_model(desk_vocab, num_layers=2)
        config = tiny_train_config()
        build, loss = {
            "cmlm": (training.build_cmlm_dataset, training.cmlm_batch_loss),
            "lp": (training.build_num_dataset, training.lp_batch_loss),
            "tg": (training.build_tg_dataset,
                   functools.partial(training.tg_batch_loss, config=config)),
        }[batch_loss]
        examples, _ = build(desk_vocab, toy_records[:8], config)
        narrow = float32_copy(wide)
        for tensor in wide.tensors.values():   # the same weights in both precisions
            tensor.data = tensor.data.astype(np.float32).astype(np.float64)
        expected, _ = loss(wide, examples, [None] * len(examples))
        got, _ = loss(narrow, examples, [None] * len(examples))
        assert narrow.dtype == np.float32 and wide.dtype == np.float64
        assert got.item() == pytest.approx(expected.item(), rel=1e-5)

    @pytest.mark.parametrize("stage", ["pretrain", "finetune_lp", "finetune_tg"])
    def test_stage_hands_back_masters_of_its_checkpoints(self, desk_vocab, toy_records,
                                                         tmp_path, stage):
        params = tiny_model(desk_vocab, dropout=0.1)
        config = tiny_train_config(max_epochs=2, batch_size=4)
        result = getattr(training, stage)(config, params, toy_records[:8], desk_vocab,
                                          out_dir=str(tmp_path))
        assert result.params is params
        saved = model.load_checkpoint(
            str(tmp_path / f"{stage.replace('_', '-')}-epoch1.rfbt"))
        for name, tensor in params.tensors.items():
            assert tensor.data.dtype == np.float64
            assert np.array_equal(tensor.data.astype(np.float32), saved[name].data), name
        # the masters themselves, not their rounding, so the next stage starts from them
        assert any(not np.array_equal(t.data, t.data.astype(np.float32))
                   for t in params.tensors.values())

    def test_nonfinite_loss_leaves_float64_parameters(self, desk_vocab, toy_records,
                                                      monkeypatch):
        params = tiny_model(desk_vocab)
        before = {name: t.data.copy() for name, t in params.tensors.items()}
        batch_loss = training.cmlm_batch_loss
        calls = []

        def failing(params, batch, dropout_seeds):
            calls.append(1)
            loss, parts = batch_loss(params, batch, dropout_seeds)
            return (ad.scale(loss, float("nan")) if len(calls) == 2 else loss), parts

        monkeypatch.setattr(training, "cmlm_batch_loss", failing)
        with pytest.raises(NonFiniteLoss, match="pretrain: loss nan at epoch 0 step 1"):
            training.pretrain(tiny_train_config(batch_size=4), params, toy_records[:12],
                              desk_vocab)
        assert {t.data.dtype for t in params.tensors.values()} == {np.dtype(np.float64)}
        # the one completed step moved the masters
        assert not np.array_equal(params["token_head.bias"].data, before["token_head.bias"])


class TestTapeLifetime:
    @staticmethod
    def tg_setup(desk_vocab, toy_records):
        params = float32_copy(tiny_model(desk_vocab, num_layers=2, dropout=0.1))
        config = tiny_train_config()
        examples, _ = training.build_tg_dataset(desk_vocab, toy_records[:4], config)
        return params, config, examples[:2]

    def test_backward_frees_saved_activations_and_keeps_parameter_gradients(
            self, desk_vocab, toy_records, monkeypatch):
        params, config, batch = self.tg_setup(desk_vocab, toy_records)
        ffn_inputs = []
        ffn = ad.ffn

        def recording_ffn(x, w_in, b_in, w_out, b_out):
            ffn_inputs.append(weakref.ref(x.data))
            return ffn(x, w_in, b_in, w_out, b_out)

        monkeypatch.setattr(ad, "ffn", recording_ffn)
        total, _ = training.tg_batch_loss(params, batch, [1, 2], config)
        assert len(ffn_inputs) == 2 and all(ref() is not None for ref in ffn_inputs)
        total.backward()
        assert all(ref() is None for ref in ffn_inputs)
        assert total._parents == () and total.grad is None
        # stage 2 reaches every parameter but the length head
        untouched = {name for name, t in params.tensors.items() if t.grad is None}
        assert untouched == {"length_head.weight", "length_head.bias"}

    def test_forward_frees_what_no_backward_reads(self, desk_vocab, toy_records, monkeypatch):
        params, config, batch = self.tg_setup(desk_vocab, toy_records)
        refs = {"take output": [], "dropout input": [], "dropout output": [],
                "gelu output": []}
        take, dropout, gelu_affine = ad.take, ad.dropout, ad._gelu_affine

        def recording_take(a, indices):
            out = take(a, indices)
            refs["take output"].append(weakref.ref(out))
            return out

        def recording_dropout(a, keep, scale):
            out = dropout(a, keep, scale)
            # the embedding layer norm's output, the projections before dropout
            refs["dropout input"].append(weakref.ref(a))
            refs["dropout output"].append(weakref.ref(out))
            return out

        def recording_gelu_affine(x, w, b):
            out = gelu_affine(x, w, b)
            refs["gelu output"].append(weakref.ref(out))
            return out

        monkeypatch.setattr(ad, "take", recording_take)
        monkeypatch.setattr(ad, "dropout", recording_dropout)
        monkeypatch.setattr(ad, "_gelu_affine", recording_gelu_affine)
        gc.disable()
        try:
            total, _ = training.tg_batch_loss(params, batch, [1, 2], config)
            alive = {kind: [ref() is not None for ref in kind_refs]
                     for kind, kind_refs in refs.items()}
            total.backward()
        finally:
            gc.enable()
        # two layers: the embedding's dropout and two per layer, a GELU per layer
        counts = {kind: len(flags) for kind, flags in alive.items()}
        assert counts["take output"] > 0 and counts["gelu output"] == 2
        assert counts["dropout input"] == counts["dropout output"] == 5
        assert not any(any(flags) for flags in alive.values()), alive

    def test_dropped_model_is_freed_without_the_cycle_collector(self, desk_vocab,
                                                                toy_records):
        gc.disable()
        try:
            params, config, batch = self.tg_setup(desk_vocab, toy_records)
            refs = [weakref.ref(params)] + [weakref.ref(t) for t in params.tensors.values()]
            done, _ = training.tg_batch_loss(params, batch, [1, 2], config)
            done.backward()
            pending, _ = training.tg_batch_loss(params, batch, [3, 4], config)
            result = training.finetune_tg(tiny_train_config(max_epochs=1, batch_size=2),
                                          params, toy_records[:4], desk_vocab)
            del params, done, pending, result
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_adopted_gradients_equal_copied_ones(self, desk_vocab, toy_records, monkeypatch):
        params, config, batch = self.tg_setup(desk_vocab, toy_records)

        def gradients():
            params.zero_grads()
            total, _ = training.tg_batch_loss(params, batch, [1, 2], config)
            total.backward()
            return {name: t.grad for name, t in params.tensors.items() if t.grad is not None}

        adopted = gradients()
        accumulated = ad._accumulated
        monkeypatch.setattr(ad, "_accumulated",
                            lambda total, grad, dtype, owned: accumulated(total, grad, dtype,
                                                                          False))
        copied = gradients()
        assert len(adopted) > 10 and adopted.keys() == copied.keys()
        assert all(np.array_equal(adopted[name], copied[name]) for name in adopted)

    def test_second_backward_through_a_released_graph_raises(self, desk_vocab, toy_records):
        params, config, batch = self.tg_setup(desk_vocab, toy_records)
        hidden = model.forward(params, batch[0].masked.input_ids, 5)
        first = ad.sum_all(hidden)
        second = ad.sum_all(ad.mul(hidden, hidden))
        first.backward()
        with pytest.raises(GraphReleased):
            second.backward()
        with pytest.raises(GraphReleased):
            first.backward()

    def test_validation_records_no_tape(self, desk_vocab, toy_records, monkeypatch):
        taped = []
        forward = model.forward

        def recording_forward(params, ids, dropout_seed=None, **kwargs):
            out = forward(params, ids, dropout_seed, **kwargs)
            taped.append((out._backward is not None, set(dropout_seed) == {None}))
            return out

        monkeypatch.setattr(model, "forward", recording_forward)
        records = [dataclasses.replace(r, split="validation") if i % 4 == 0 else r
                   for i, r in enumerate(toy_records[:12])]
        config = tiny_train_config(max_epochs=1, batch_size=4)
        training.pretrain(config, tiny_model(desk_vocab), records, desk_vocab)
        # three training batches record a tape and carry seeds; the
        # validation batch records none and runs without dropout
        assert taped == [(True, False)] * 3 + [(False, True)]


@functools.lru_cache(maxsize=1)
def long_stage2_step_peak() -> int:
    """The traced peak, in bytes, of one float32 train-mode stage-2 step of
    the benchmark's train-long model (seed 4, 2 layers) over its three
    longest examples, 256 tokens each."""
    import bench_workloads as bw

    sizes = bw.SIZES["train-long"]["full"]
    data = bw.make_corpus(4, sizes)
    vocab = bpe.train_bpe([r.code_after for r in data.train + data.held_out],
                          sizes.vocab_size, camel_split=True)
    params = float32_copy(model.init_params(model.ModelConfig(
        vocab_size=vocab.size, num_layers=sizes.num_layers, hidden_dim=sizes.hidden_dim,
        num_heads=4, ffn_dim=4 * sizes.hidden_dim, max_seq_len=sizes.max_seq_len,
        max_name_tokens=bw.MAX_NAME_TOKENS), 4))
    config = training.TrainConfig(batch_size=3, seed=4, max_seq_len=sizes.max_seq_len,
                                  max_name_tokens=bw.MAX_NAME_TOKENS)
    examples, _ = training.build_tg_dataset(vocab, data.train, config)
    longest = sorted(examples, key=lambda ex: -len(ex.masked.input_ids))[:3]
    assert [len(ex.masked.input_ids) for ex in longest] == [256] * 3
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total, _ = training.tg_batch_loss(params, longest, [1, 2, 3], config)
        ad.scale(total, 1.0 / 3).backward()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStepMemory:
    def test_long_stage2_step_stays_under_its_bound(self):
        """35.7 MB when the bound was set (48.8 MB with a tensor per tape
        node and a separate GELU node)."""
        peak = long_stage2_step_peak()
        # the measured peak plus a 12% margin
        assert peak <= 40e6, f"{peak / 1e6:.1f} MB"

    def test_long_stage2_step_keeps_no_attention_probabilities(self):
        """24.7 MB once attention keeps each softmax row's max and sum in
        place of its probabilities and the FFN builds GELU's output in row
        blocks (35.7 MB before)."""
        peak = long_stage2_step_peak()
        # the measured peak plus an 11% margin
        assert peak <= 27.5e6, f"{peak / 1e6:.1f} MB"

    def test_long_stage2_step_keeps_only_the_inputs_of_full_width_layers(self):
        """17.0 MB once the FFN and the Q/K/V projections of every full-width
        layer are rebuilt in the backward from the layer's inputs (24.7 MB
        before)."""
        peak = long_stage2_step_peak()
        # the measured peak plus a 12% margin
        assert peak <= 19e6, f"{peak / 1e6:.1f} MB"
