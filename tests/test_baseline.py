import math

import numpy as np
import pytest

from varnamer import baseline, bpe, metrics, model
from varnamer.errors import EmptyCorpus, NoCandidates

import toycorpus


@pytest.fixture(scope="module")
def ngram(desk_vocab, toy_records):
    return baseline.train_ngram(toy_records, desk_vocab, n=3, smoothing_k=0.01)


class TestNgramTraining:
    def test_counts_match_independent_recount(self, desk_vocab):
        # independent oracle: recount bigrams directly over the encoded
        # stream (PAD-padded), then compare the full count table
        from collections import Counter, defaultdict

        code = "int f() {\n  use(a, b);\n  use(a, b);\n  int q = 1;\n}"
        record = toycorpus.make_record("r", code, "q", "tmp")
        ng = baseline.train_ngram([record], desk_vocab, n=2)
        stream = [bpe.PAD] + bpe.encode(desk_vocab, code)
        expected: dict = defaultdict(Counter)
        for prev, nxt in zip(stream, stream[1:]):
            expected[(prev,)][nxt] += 1
        assert {k: dict(v) for k, v in ng.counts.items()} == \
            {k: dict(v) for k, v in expected.items()}
        # repeated "use(a, b);" makes every repeated context deterministic:
        # its MLE continuation probability is 1 before smoothing
        a = bpe.encode(desk_vocab, "a")[0]
        ctx = (a,)
        mle = max(ng.counts[ctx].values()) / ng.context_totals[ctx]
        assert mle == 1.0

    def test_smoothed_unseen_probability(self, ngram):
        # add-k: unseen continuation in a seen context
        context = next(iter(ngram.counts))
        unseen = 5  # [UNK] never occurs in encoded code
        total = ngram.context_totals[context]
        expected = ngram.smoothing_k / (total + ngram.smoothing_k * ngram.vocab_size)
        assert ngram.conditional(context, unseen) == pytest.approx(expected)

    def test_conditionals_sum_to_one(self, ngram):
        rng = np.random.default_rng(0)
        contexts = list(ngram.counts)
        for idx in rng.choice(len(contexts), size=min(30, len(contexts)), replace=False):
            context = contexts[idx]
            total = sum(ngram.conditional(context, t)
                        for t in range(ngram.vocab_size))
            assert total == pytest.approx(1.0, abs=1e-9)
        # and for a context never seen in training
        fresh = (ngram.vocab_size - 1, ngram.vocab_size - 2)
        total = sum(ngram.conditional(fresh, t) for t in range(ngram.vocab_size))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, desk_vocab, toy_records):
        a = baseline.train_ngram(toy_records, desk_vocab, n=3)
        b = baseline.train_ngram(toy_records, desk_vocab, n=3)
        assert a.counts == b.counts
        assert a.candidate_names == b.candidate_names

    def test_empty_corpus(self, desk_vocab):
        with pytest.raises(EmptyCorpus):
            baseline.train_ngram([], desk_vocab)


class TestNgramSuggest:
    def test_memorization_ranks_truth_first(self, desk_vocab):
        # the exact evaluation function is in the training data; the decoy
        # name never appears inside a call's parentheses there, so its
        # substituted bigrams are unseen and lose to the memorized ones
        eval_code = "int f() {\n  int key = 7;\n  use(key);\n  return key;\n}"
        other_code = "int g() {\n  int sum = 9;\n  sum += 3;\n  return sum;\n}"
        records = [
            toycorpus.make_record("a", eval_code, "key", "tmp1"),
            toycorpus.make_record("b", other_code, "sum", "tmp2"),
        ]
        ng = baseline.train_ngram(records, desk_vocab, n=2)
        ranked = baseline.ngram_suggest(
            ng, desk_vocab, records[0].code_before, "tmp1", top_k=5)
        assert ranked[0][0] == "key"
        assert {name for name, _ in ranked} <= {"key", "sum"}

    def test_only_training_names_emitted(self, desk_vocab, toy_records, ngram):
        known = set(ngram.all_names())
        for record in toy_records[:15]:
            ranked = baseline.ngram_suggest(
                ngram, desk_vocab, record.code_before, record.variable_before,
                top_k=3)
            assert all(name in known for name, _ in ranked)

    def test_scores_finite_and_sorted(self, desk_vocab, toy_records, ngram):
        record = toy_records[1]
        ranked = baseline.ngram_suggest(
            ngram, desk_vocab, record.code_before, record.variable_before, top_k=10)
        scores = [s for _, s in ranked]
        assert all(math.isfinite(s) for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_unseen_truth_gives_zero_em(self, desk_vocab, toy_records, ngram):
        code = "int f() {\n  int zzUnseen = 1;\n  return zzUnseen;\n}"
        record = toycorpus.make_record("r", code, "zzUnseen", "tmp")
        predictor = baseline.NgramPredictor(ngram, desk_vocab)
        assert predictor(record)[1] != "zzUnseen"

    def test_no_candidates_on_missing_variable(self, desk_vocab, ngram):
        with pytest.raises(NoCandidates):
            baseline.ngram_suggest(ngram, desk_vocab, "int a = 1;", "ghost")


class TestNgramPersistence:
    def test_file_holds_every_count_and_candidate(self, ngram, tmp_path):
        path = tmp_path / "ngram.txt"
        baseline.save_ngram(ngram, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"NGRAM v1 {ngram.n} {ngram.vocab_size} {ngram.smoothing_k}"
        split = lines.index("#CANDIDATES")
        counts = {}
        for line in lines[1:split]:
            context, token, count = line.split("\t")
            key = tuple(int(i) for i in context.split())
            counts.setdefault(key, {})[int(token)] = int(count)
        candidates = {}
        for line in lines[split + 1:]:
            signature, name = line.split("\t")
            candidates.setdefault(tuple(int(i) for i in signature.split()), set()).add(name)
        assert counts == {k: dict(v) for k, v in ngram.counts.items()}
        assert candidates == ngram.candidate_names

    def test_file_is_sorted_text(self, ngram, tmp_path):
        path = tmp_path / "ngram.txt"
        baseline.save_ngram(ngram, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("NGRAM v1 3")
        body = lines[1:lines.index("#CANDIDATES")]
        assert body == sorted(body)


class TestHeuristicLength:
    @pytest.fixture(scope="class")
    def tiny_params(self, desk_vocab):
        config = model.ModelConfig(vocab_size=desk_vocab.size, num_layers=1,
                                   hidden_dim=32, num_heads=4, ffn_dim=64,
                                   max_seq_len=128, dropout=0.0)
        return model.init_params(config, 3)

    def test_uniform_head_ties_break_small(self, desk_vocab, toy_records, tiny_params):
        tiny_params["token_head.weight"].data[:] = 0.0
        tiny_params["token_head.bias"].data[:] = 0.0
        ranked = baseline.heuristic_lp(tiny_params, desk_vocab, toy_records[0])
        assert [g for g, _ in ranked] == [1, 2, 3, 4, 5]
        scores = [s for _, s in ranked]
        assert max(scores) - min(scores) < 1e-9

    def test_ranking_is_permutation(self, desk_vocab, toy_records, tiny_params):
        ranked = baseline.heuristic_lp(tiny_params, desk_vocab, toy_records[1])
        assert sorted(g for g, _ in ranked) == [1, 2, 3, 4, 5]

    def test_matches_hand_computed_average(self, desk_vocab, toy_records, tiny_params):
        from varnamer import masking

        record = toy_records[2]
        ranked = dict(baseline.heuristic_lp(tiny_params, desk_vocab, record))
        for g in (1, 3):
            ids, groups = masking.masked_sequence(
                desk_vocab, record.code_before, record.variable_before,
                masking.SCHEME_CMLM, g, 128)
            hidden = model.forward(tiny_params, ids).data
            flat = [p for group in groups for p in group]
            probs = model.token_probs(tiny_params, hidden[flat]).data
            per_slot = probs.reshape(len(groups), g, -1).mean(axis=0)
            expected = float(np.mean(np.log(per_slot.max(axis=1))))
            assert ranked[g] == pytest.approx(expected, abs=1e-12)


class TestCompositePredictor:
    def test_capabilities_forwarded(self, desk_vocab, toy_records, ngram):
        config = model.ModelConfig(vocab_size=desk_vocab.size, num_layers=1,
                                   hidden_dim=32, num_heads=4, ffn_dim=64,
                                   max_seq_len=128, dropout=0.0)
        lengths = baseline.HeuristicLengthPredictor(model.init_params(config, 3), desk_vocab)
        names = baseline.NgramPredictor(ngram, desk_vocab)
        composite = baseline.CompositePredictor(lengths, names)
        for record in toy_records[:3]:
            assert composite(record) == (lengths(record)[0], names(record)[1])

    def test_ngram_predictor_alone_predicts_no_length(self, desk_vocab, toy_records, ngram):
        report = metrics.evaluate_corpus(
            baseline.NgramPredictor(ngram, desk_vocab), toy_records[:5], desk_vocab)
        assert report.hit_at_1 is None
        assert report.exact_match is not None
