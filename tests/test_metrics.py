import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varnamer import bpe, fileio, inference, metrics, model
from varnamer.errors import EmptyTruth, InvalidConfig

import toycorpus

TOKENS = st.lists(st.sampled_from(["a", "b", "c"]), max_size=6)


def brute_force_edit_distance(a, b):
    """Independent recursive minimum-edit-script search (no DP table)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    options = [1 + brute_force_edit_distance(a[1:], b),      # delete
               1 + brute_force_edit_distance(a, b[1:])]      # insert
    if a[0] == b[0]:
        options.append(brute_force_edit_distance(a[1:], b[1:]))
    else:
        options.append(1 + brute_force_edit_distance(a[1:], b[1:]))
    return min(options)


class TestHitAtK:
    def test_rank_positions(self):
        assert metrics.hit_at_k([2, 1, 3], 1, 1) == 0
        assert metrics.hit_at_k([2, 1, 3], 1, 3) == 1

    def test_rank_one_hits_all_k(self):
        for k in range(1, 6):
            assert metrics.hit_at_k([4, 2, 1], 4, k) == 1

    def test_k_beyond_length(self):
        assert metrics.hit_at_k([2, 1], 1, 10) == 1
        assert metrics.hit_at_k([2, 1], 9, 10) == 0

    def test_monotone_in_k(self):
        ranked = [3, 1, 4, 2, 5]
        for truth in range(1, 6):
            values = [metrics.hit_at_k(ranked, truth, k) for k in range(1, 6)]
            assert values == sorted(values)

    def test_empty_ranking_misses(self):
        assert metrics.hit_at_k([], 1, 1) == 0
        assert metrics.hit_at_k([], 1, 3) == 0

    def test_k_below_one_rejected(self):
        with pytest.raises(InvalidConfig, match="k must be >= 1, got 0"):
            metrics.hit_at_k([1, 2], 1, 0)


class TestAccuracy:
    def test_identity(self):
        assert metrics.accuracy(["default", "version"], ["default", "version"]) == 1.0

    def test_half_recall(self):
        truth = ["Commit", "Log", "Lower", "Bound"]
        assert metrics.accuracy(["Commit", "Log"], truth) == 0.5

    def test_disjoint(self):
        assert metrics.accuracy(["x"], ["y", "z"]) == 0.0

    def test_duplicates_in_truth_count_once(self):
        assert metrics.accuracy(["a"], ["a", "a", "b"]) == 0.5

    def test_empty_truth(self):
        with pytest.raises(EmptyTruth):
            metrics.accuracy(["a"], [])


class TestExactMatch:
    def test_stated_pair(self):
        assert metrics.exact_match("ImageFolder", "ImgFolder") == 0

    def test_identical(self):
        assert metrics.exact_match("a", "a") == 1

    def test_case_sensitive(self):
        assert metrics.exact_match("Value", "value") == 0


class TestTokenEditDistance:
    def test_stated_pair(self):
        assert metrics.token_edit_distance(["Image", "Folder"], ["Img", "Folder"]) == 1

    def test_identical(self):
        assert metrics.token_edit_distance(["a", "b"], ["a", "b"]) == 0

    def test_prefix_deletion(self):
        assert metrics.token_edit_distance(["a", "b", "c"], ["b", "c"]) == 1

    def test_exhaustive_against_brute_force(self):
        # all pairs of sequences with lengths <= 4 over a 3-token alphabet
        alphabet = ["a", "b", "c"]
        sequences = [list(s) for n in range(5)
                     for s in itertools.product(alphabet, repeat=n)]
        for a in sequences:
            for b in sequences:
                assert metrics.token_edit_distance(a, b) == \
                    brute_force_edit_distance(a, b)

    @settings(max_examples=200, deadline=None)
    @given(TOKENS, TOKENS, TOKENS)
    def test_metric_axioms(self, a, b, c):
        d = metrics.token_edit_distance
        assert d(a, b) >= 0
        assert (d(a, b) == 0) == (a == b)
        assert d(a, b) == d(b, a)
        assert d(a, c) <= d(a, b) + d(b, c)


class TestCer:
    def test_identical(self):
        assert metrics.cer("same", "same") == 0.0

    def test_stated_pair(self):
        # char distance Image->Img is 2; truth ImageFolder has 11 chars
        assert metrics.cer("ImgFolder", "ImageFolder") == pytest.approx(
            2 / 11 * 100, abs=0.01)

    def test_empty_prediction(self):
        assert metrics.cer("", "abcde") == 100.0

    def test_can_exceed_100(self):
        assert metrics.cer("x" * 50, "ab") > 100.0

    def test_empty_truth(self):
        with pytest.raises(EmptyTruth):
            metrics.cer("x", "")


class EchoPredictor:
    """Returns the ground truth; the identity oracle for aggregation."""

    def __init__(self, vocab):
        self.vocab = vocab

    def __call__(self, record):
        truth = len(bpe.encode(self.vocab, record.variable_after))
        ranking = [(g, 1.0 if g == truth else 0.0) for g in
                   sorted(range(1, 6), key=lambda g: g != truth)]
        return ranking, record.variable_after


def constant_predictor(record):
    return None, "zzz"


class TestEvaluateCorpus:
    def test_perfect_predictor(self, desk_vocab, toy_records):
        report = metrics.evaluate_corpus(
            EchoPredictor(desk_vocab), toy_records, desk_vocab)
        assert report.hit_at_1 == 1.0
        assert report.accuracy == 1.0
        assert report.exact_match == 1.0
        assert report.mean_token_ed == 0.0
        assert report.mean_cer == 0.0

    def test_constant_wrong_predictor(self, desk_vocab, toy_records):
        report = metrics.evaluate_corpus(
            constant_predictor, toy_records, desk_vocab)
        assert report.exact_match == 0.0
        assert report.hit_at_1 is None  # no length capability

    def test_predictor_answering_nothing_leaves_every_family_none(self, desk_vocab,
                                                                   toy_records):
        report = metrics.evaluate_corpus(
            lambda record: (None, None), toy_records, desk_vocab)
        assert report.evaluated > 0
        assert (report.hit_at_1, report.hit_at_3, report.accuracy, report.exact_match,
                report.mean_token_ed, report.mean_cer) == (None,) * 6
        assert all(row.prediction is None for row in report.rows)

    def test_empty_ranking_scores_a_length_miss(self, desk_vocab, toy_records):
        # it used to raise ValueError, which aborted the whole corpus run
        report = metrics.evaluate_corpus(
            lambda record: ([], record.variable_after), toy_records, desk_vocab)
        assert report.evaluated == len(toy_records)
        assert report.excluded == 0
        assert (report.hit_at_1, report.hit_at_3) == (0.0, 0.0)
        assert report.exact_match == 1.0

    def test_aggregates_equal_row_means(self, desk_vocab, toy_records):
        report = metrics.evaluate_corpus(
            EchoPredictor(desk_vocab), toy_records, desk_vocab)
        rows = report.rows
        assert report.accuracy == pytest.approx(
            sum(r.accuracy for r in rows) / len(rows), abs=1e-9)
        assert report.mean_cer == pytest.approx(
            sum(r.cer for r in rows) / len(rows), abs=1e-9)
        assert report.evaluated == len(rows)

    def test_exclusions_counted(self, desk_vocab, toy_records):
        report = metrics.evaluate_corpus(
            EchoPredictor(desk_vocab), toy_records, desk_vocab,
            max_name_tokens=1)
        assert report.excluded > 0
        assert report.evaluated + report.excluded == len(toy_records)

    def test_exclusion_reasons_sum_to_excluded(self, desk_vocab, toy_records):
        report = metrics.evaluate_corpus(
            EchoPredictor(desk_vocab), toy_records, desk_vocab,
            max_name_tokens=1)
        assert report.excluded_reasons == {"too_long": report.excluded}
        assert report.to_json_dict()["excluded_reasons"] == {"too_long": report.excluded}

    def test_record_the_model_cannot_read_is_excluded(self, desk_vocab, toy_records):
        # ``late`` names its variable only past max_seq_len: suggest raises
        # NameTruncated on it, which excludes that record, not the run.
        config = model.ModelConfig(vocab_size=desk_vocab.size, num_layers=1,
                                   hidden_dim=32, num_heads=4, ffn_dim=64,
                                   max_seq_len=64, dropout=0.0)
        predictor = inference.ModelPredictor(model.init_params(config, 0), desk_vocab)
        filler = "other = other + 1;\n" * 40
        late = toycorpus.make_record(
            "late", f"int f() {{\n  {filler}  int pick = 1;\n  return pick;\n}}",
            "pick", "tmp")
        good = [r for r in toy_records
                if len(bpe.encode(desk_vocab, r.variable_after)) <= 5][:2]
        report = metrics.evaluate_corpus(predictor, [good[0], late, good[1]], desk_vocab)
        assert [row.record_id for row in report.rows] == [good[0].id, good[1].id]
        assert report.evaluated == 2 and report.excluded == 1
        assert report.excluded_reasons == {"NameTruncated": 1}

    def test_record_with_an_empty_true_name_is_excluded(self, desk_vocab, toy_records):
        # tokenizing its true name raised EmptyName outside the per-record
        # guard, which aborted the run and lost both good rows
        good = [r for r in toy_records
                if len(bpe.encode(desk_vocab, r.variable_after)) <= 5][:2]
        empty = dataclasses.replace(good[0], id="empty", variable_after="")
        report = metrics.evaluate_corpus(
            EchoPredictor(desk_vocab), [good[0], empty, good[1]], desk_vocab)
        assert [row.record_id for row in report.rows] == [good[0].id, good[1].id]
        assert report.evaluated == 2 and report.excluded == 1
        assert report.excluded_reasons == {"EmptyName": 1}

    def test_em_implies_zero_distances(self, desk_vocab, toy_records):
        report = metrics.evaluate_corpus(
            EchoPredictor(desk_vocab), toy_records, desk_vocab)
        for row in report.rows:
            if row.exact_match == 1:
                assert row.token_ed == 0
                assert row.cer == 0.0

    def test_jsonl_and_json_outputs(self, desk_vocab, toy_records, tmp_path):
        report = metrics.evaluate_corpus(
            EchoPredictor(desk_vocab), toy_records[:5], desk_vocab)
        parsed = json.loads(report.to_json())
        assert parsed["evaluated"] == 5
        rows = [dataclasses.asdict(row) for row in report.rows]
        path = tmp_path / "rows.jsonl"
        fileio.write_jsonl(str(path), rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == rows
        assert len(lines) == 5 and set(rows[0]) >= {"record_id", "prediction", "truth"}
        assert "Hit@1" in report.summary_table()
