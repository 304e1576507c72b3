import contextlib
import copy
import itertools

import numpy as np
import pytest

from varnamer import autodiff as ad
from varnamer import baseline, bpe, inference, model
from varnamer.errors import LengthOutOfRange, VariableNotFound, VocabExhausted

import toycorpus


def brute_force_greedy(slot_probs, allowed):
    """Exhaustive restatement of the greedy unique-decode rule."""
    chosen = []
    used = set()
    for slot in range(slot_probs.shape[0]):
        best, best_p = None, -1.0
        for token in range(slot_probs.shape[1]):
            if token in used or not allowed[token]:
                continue
            if slot_probs[slot, token] > best_p:
                best, best_p = token, slot_probs[slot, token]
        chosen.append(best)
        used.add(best)
    return chosen


class TestDecodeUnique:
    def test_matches_brute_force_on_tiny_tables(self, desk_vocab):
        # every probability table over 3 effective tokens, 2 slots
        rng = np.random.default_rng(0)
        specials = len(bpe.SPECIAL_TOKENS)
        vocab_size = specials + 3
        allowed = np.array([False] * specials + [True] * 3)
        for _ in range(300):
            table = rng.dirichlet(np.ones(vocab_size), size=2)
            got = inference.decode_unique(table)
            assert got == brute_force_greedy(table, allowed)

    def test_never_repeats(self, desk_vocab):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = int(rng.integers(1, 6))
            table = rng.dirichlet(np.ones(40), size=g)
            ids = inference.decode_unique(table)
            assert len(set(ids)) == g

    def test_shared_argmax_takes_second_best(self, desk_vocab):
        # both slots favor the same token: slot 2 must take its runner-up,
        # never emitting the duplicated leader twice
        specials = len(bpe.SPECIAL_TOKENS)
        field, pattern, value = specials, specials + 1, specials + 2
        table = np.full((2, specials + 3), 1e-9)
        table[0, field] = 0.9
        table[0, pattern] = 0.05
        table[1, field] = 0.6
        table[1, value] = 0.4
        ids = inference.decode_unique(table)
        assert ids == [field, value]

    def test_specials_never_emitted(self, desk_vocab):
        table = np.zeros((2, 10))
        table[:, :6] = 0.9  # heavy mass on specials
        table[0, 7] = 0.1
        table[1, 8] = 0.1
        ids = inference.decode_unique(table)
        assert all(i >= 6 for i in ids)

    def test_vocab_exhausted(self, desk_vocab):
        table = np.full((5, 9), 1.0 / 9)  # only 3 non-special candidates
        with pytest.raises(VocabExhausted):
            inference.decode_unique(table)


@pytest.fixture(scope="module")
def overfit_setup(desk_vocab, toy_records):
    """A model memorizing three records; enough for pipeline contracts."""
    from varnamer import training

    records = toy_records[:3]
    config = model.ModelConfig(vocab_size=desk_vocab.size, num_layers=1,
                               hidden_dim=64, num_heads=4, ffn_dim=128,
                               max_seq_len=128, dropout=0.0)
    params = model.init_params(config, 1)
    tc = training.TrainConfig(max_epochs=60, batch_size=3, seed=0,
                              max_seq_len=128, learning_rate=3e-3)
    training.pretrain(tc, params, records, desk_vocab)
    lp = training.TrainConfig(max_epochs=60, batch_size=3, seed=0,
                              max_seq_len=128, learning_rate=5e-4)
    training.finetune_lp(lp, params, records, desk_vocab)
    return params, records


class TestPredictLength:
    def test_ranked_shape_and_order(self, desk_vocab, overfit_setup):
        params, records = overfit_setup
        ranked = inference.predict_length(params, desk_vocab, records[0].code_before,
                                          records[0].variable_before)
        lengths = [g for g, _ in ranked]
        probs = [p for _, p in ranked]
        assert sorted(lengths) == [1, 2, 3, 4, 5]
        assert probs == sorted(probs, reverse=True)
        assert abs(sum(probs) - 1.0) < 1e-6

    def test_hit_at_3_at_least_hit_at_1(self, desk_vocab, overfit_setup):
        from varnamer.metrics import hit_at_k

        params, records = overfit_setup
        for record in records:
            truth = len(bpe.encode(desk_vocab, record.variable_after))
            ranked = [g for g, _ in inference.predict_length(
                params, desk_vocab, record.code_before, record.variable_before)]
            assert hit_at_k(ranked, truth, 3) >= hit_at_k(ranked, truth, 1)


class TestSuggest:
    def test_overfit_model_reproduces_target(self, desk_vocab, overfit_setup):
        params, records = overfit_setup
        hits = 0
        for record in records:
            suggestion = inference.suggest(
                params, desk_vocab, record.code_before, record.variable_before)
            hits += suggestion.name == record.variable_after
        assert hits >= 2  # overfit three-record model recalls nearly all

    def test_pipeline_contracts(self, desk_vocab, overfit_setup):
        params, records = overfit_setup
        record = records[0]
        ranked = inference.predict_length(params, desk_vocab, record.code_before,
                                          record.variable_before)
        suggestion = inference.suggest(
            params, desk_vocab, record.code_before, record.variable_before)
        assert suggestion.length_used == ranked[0][0]
        assert len(suggestion.sub_tokens) == suggestion.length_used
        assert len(set(suggestion.sub_tokens)) == len(suggestion.sub_tokens)
        assert "".join(suggestion.sub_tokens) == suggestion.name
        for literal in bpe.SPECIAL_TOKENS:
            assert literal not in suggestion.name
        assert len(suggestion.slot_candidates) == suggestion.length_used
        assert all(len(slot) == 5 for slot in suggestion.slot_candidates)

    def test_deterministic(self, desk_vocab, overfit_setup):
        params, records = overfit_setup
        record = records[0]
        a = inference.suggest(params, desk_vocab, record.code_before,
                              record.variable_before)
        b = inference.suggest(params, desk_vocab, record.code_before,
                              record.variable_before)
        assert a == b

    def test_generate_equals_suggest(self, desk_vocab, overfit_setup):
        params, records = overfit_setup
        for record in records:
            suggestion = inference.suggest(params, desk_vocab, record.code_before,
                                           record.variable_before)
            tokens = inference.generate(params, desk_vocab, record.code_before,
                                        record.variable_before,
                                        suggestion.length_used).sub_tokens
            assert tokens == suggestion.sub_tokens

    def test_generate_rejects_a_length_outside_the_head(self, desk_vocab, overfit_setup):
        params, records = overfit_setup
        for g in (0, params.config.max_name_tokens + 1):
            with pytest.raises(LengthOutOfRange, match=r"g must lie in 1\.\."):
                inference.generate(params, desk_vocab, records[0].code_before,
                                   records[0].variable_before, g)

    def test_variable_not_found(self, desk_vocab, overfit_setup):
        params, _ = overfit_setup
        with pytest.raises(VariableNotFound):
            inference.suggest(params, desk_vocab, "int a = 1;", "missing")

    def test_non_ascii_variable_is_found(self, desk_vocab, overfit_setup):
        params, _ = overfit_setup
        code = "int f(int a) {\n  int größe = a + 1;\n  return größe;\n}"
        suggestion = inference.suggest(params, desk_vocab, code, "größe")
        assert suggestion.length_used >= 1

    def test_json_serialization(self, desk_vocab, overfit_setup):
        import json

        params, records = overfit_setup
        suggestion = inference.suggest(
            params, desk_vocab, records[0].code_before, records[0].variable_before)
        blob = json.dumps(suggestion.to_json_dict("r0"))
        parsed = json.loads(blob)
        assert parsed["id"] == "r0"
        assert parsed["suggested_name"] == suggestion.name
        assert parsed["length_used"] == suggestion.length_used
        assert len(parsed["slot_probs"]) == suggestion.length_used


class TestModelPredictor:
    def test_evaluation_runs_two_encoder_passes_per_record(self, desk_vocab, overfit_setup,
                                                           monkeypatch):
        from varnamer import metrics

        params, records = overfit_setup
        direct = [inference.suggest(params, desk_vocab, r.code_before, r.variable_before).name
                  for r in records]
        calls = []
        encoder = model.forward

        def counting_forward(*args, **kwargs):
            calls.append(args[1])
            return encoder(*args, **kwargs)

        monkeypatch.setattr(model, "forward", counting_forward)
        report = metrics.evaluate_corpus(
            inference.ModelPredictor(params, desk_vocab), records, desk_vocab)
        assert report.evaluated == len(records)
        assert len(calls) == 2 * len(records)
        assert [row.prediction for row in report.rows] == direct

    def test_answer_does_not_depend_on_earlier_records(self, desk_vocab, overfit_setup):
        params, records = overfit_setup
        predictor = inference.ModelPredictor(params, desk_vocab)
        for record in (records[1], records[0], records[0], records[2], records[1]):
            expected = (inference.predict_length(params, desk_vocab, record.code_before,
                                                 record.variable_before),
                        inference.suggest(params, desk_vocab, record.code_before,
                                          record.variable_before).name)
            assert predictor(record) == expected


class TestServingRecordsNoTape:
    def test_encoder_outputs_have_no_parents(self, desk_vocab, overfit_setup, monkeypatch):
        params, records = overfit_setup
        outputs = []
        encoder = model.forward

        def recording_forward(*args, **kwargs):
            outputs.append(encoder(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(model, "forward", recording_forward)
        inference.suggest(params, desk_vocab, records[0].code_before,
                          records[0].variable_before)
        baseline.heuristic_lp(params, desk_vocab, records[0])
        assert len(outputs) == 2 + params.config.max_name_tokens
        assert all(out._parents == () and out._backward is None for out in outputs)

    def test_outputs_equal_those_of_a_recorded_tape(self, desk_vocab, overfit_setup,
                                                    monkeypatch):
        params, records = overfit_setup

        def serve():
            predictor = inference.ModelPredictor(params, desk_vocab)
            return [(inference.suggest(params, desk_vocab, r.code_before, r.variable_before),
                     predictor(r),
                     baseline.heuristic_lp(params, desk_vocab, r))
                    for r in records]

        untaped = serve()
        monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
        assert serve() == untaped


def as_float64(params):
    """The same weights as an in-memory float64 model."""
    wide = copy.deepcopy(params)
    for tensor in wide.tensors.values():
        tensor.data = tensor.data.astype(np.float64)
    return wide


class TestServingPrecision:
    def test_reloaded_checkpoint_suggests_as_float64(self, desk_vocab, overfit_setup,
                                                     tmp_path):
        params, records = overfit_setup
        path = str(tmp_path / "model.rfbt")
        model.save_checkpoint(params, path)
        served = model.load_checkpoint(path)
        wide = as_float64(served)
        assert (served.dtype, wide.dtype) == (np.float32, np.float64)
        for record in records:
            ranked32 = inference.predict_length(served, desk_vocab, record.code_before,
                                                record.variable_before)
            ranked64 = inference.predict_length(wide, desk_vocab, record.code_before,
                                                record.variable_before)
            assert [g for g, _ in ranked32] == [g for g, _ in ranked64]
            a = inference.suggest(served, desk_vocab, record.code_before,
                                  record.variable_before)
            b = inference.suggest(wide, desk_vocab, record.code_before,
                                  record.variable_before)
            assert (a.name, a.length_used) == (b.name, b.length_used)
            slots32 = inference.slot_distributions(
                served, desk_vocab, record.code_before, record.variable_before, a.length_used)
            slots64 = inference.slot_distributions(
                wide, desk_vocab, record.code_before, record.variable_before, a.length_used)
            assert slots32.dtype == np.float32
            np.testing.assert_allclose(slots32, slots64, rtol=1e-5)


class TestLexOnce:
    @pytest.fixture
    def lex_calls(self, monkeypatch):
        from varnamer import javalex, masking

        masking.segments.cache_clear()
        calls = []
        lex = javalex.find_identifier_occurrences

        def counting_lex(code, name):
            calls.append(name)
            return lex(code, name)

        monkeypatch.setattr(javalex, "find_identifier_occurrences", counting_lex)
        return calls

    def test_one_suggest_lexes_once(self, desk_vocab, overfit_setup, lex_calls):
        params, records = overfit_setup
        for record in records:
            inference.suggest(params, desk_vocab, record.code_before, record.variable_before)
        assert lex_calls == [r.variable_before for r in records]

    def test_length_heuristic_lexes_once_per_record(self, desk_vocab, overfit_setup,
                                                    lex_calls):
        from varnamer import baseline

        params, records = overfit_setup
        for record in records:
            baseline.heuristic_lp(params, desk_vocab, record)
        assert lex_calls == [r.variable_before for r in records]

    def test_ngram_suggest_lexes_once(self, desk_vocab, overfit_setup, lex_calls):
        from varnamer import baseline

        _, records = overfit_setup
        ngram = baseline.train_ngram(records, desk_vocab)
        lex_calls.clear()
        for record in records:
            baseline.ngram_suggest(ngram, desk_vocab, record.code_before,
                                   record.variable_before)
        assert lex_calls == [r.variable_before for r in records]
