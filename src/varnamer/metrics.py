"""Evaluation measures: length Hit@K, token-set accuracy, exact match,
token-level edit distance, character error rate, and corpus aggregation."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from . import bpe
from .bpe import SubwordVocab
from .corpus import RefactoringRecord
from .errors import EmptyTruth, InvalidConfig, VarnamerError


def hit_at_k(ranked: list[int], truth: int, k: int) -> int:
    """1 if the true value appears among the first k ranked entries; an
    empty ranking names no candidate, so it misses."""
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    return 1 if truth in ranked[:k] else 0


def accuracy(pred_tokens: list[str], truth_tokens: list[str]) -> float:
    """Recall of distinct ground-truth tokens among the predicted tokens."""
    if not truth_tokens:
        raise EmptyTruth("ground-truth token list is empty")
    truth_set = set(truth_tokens)
    return len(truth_set & set(pred_tokens)) / len(truth_set)


def exact_match(pred_name: str, truth_name: str) -> int:
    return 1 if pred_name == truth_name else 0


def token_edit_distance(pred_tokens: list[str], truth_tokens: list[str]) -> int:
    """Levenshtein distance over token sequences (unit-cost operations)."""
    return _levenshtein(pred_tokens, truth_tokens)


def _levenshtein(a, b) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i]
        for j, item_b in enumerate(b, start=1):
            cost = 0 if item_a == item_b else 1
            current.append(min(previous[j] + 1,        # delete
                               current[j - 1] + 1,     # insert
                               previous[j - 1] + cost))  # substitute
        previous = current
    return previous[-1]


def cer(pred_name: str, truth_name: str) -> float:
    """Character-level edit distance normalized by the truth length, x100.

    Values may exceed 100 when the prediction is much longer than the truth.
    """
    if not truth_name:
        raise EmptyTruth("ground-truth name is empty")
    return _levenshtein(pred_name, truth_name) / len(truth_name) * 100.0


@dataclass
class ExampleResult:
    record_id: str
    prediction: str | None
    truth: str
    hit1: int | None
    hit3: int | None
    accuracy: float | None
    exact_match: int | None
    token_ed: int | None
    cer: float | None


@dataclass
class EvalReport:
    """Aggregated metrics over one dataset plus the per-example rows.

    ``excluded_reasons`` counts the excluded records by reason and sums to
    ``excluded``: ``too_long`` for a true name over the sub-token limit,
    otherwise the class name of the error the record raised.
    """

    dataset: str
    evaluated: int
    excluded: int
    hit_at_1: float | None
    hit_at_3: float | None
    accuracy: float | None
    exact_match: float | None
    mean_token_ed: float | None
    mean_cer: float | None
    rows: list[ExampleResult] = field(default_factory=list, repr=False)
    excluded_reasons: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "evaluated": self.evaluated,
            "excluded": self.excluded,
            "excluded_reasons": dict(sorted(self.excluded_reasons.items())),
            "hit_at_1": self.hit_at_1,
            "hit_at_3": self.hit_at_3,
            "accuracy": self.accuracy,
            "exact_match": self.exact_match,
            "mean_token_ed": self.mean_token_ed,
            "mean_cer": self.mean_cer,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def summary_table(self) -> str:
        def fmt(value, digits=3):
            return "-" if value is None else f"{value:.{digits}f}"

        lines = [
            f"dataset: {self.dataset}  (evaluated {self.evaluated}, excluded {self.excluded})",
            "Hit@1   Hit@3   Accuracy  EM      CER       ED",
            f"{fmt(self.hit_at_1)}   {fmt(self.hit_at_3)}   "
            f"{fmt(self.accuracy)}     {fmt(self.exact_match)}   "
            f"{fmt(self.mean_cer)}   {fmt(self.mean_token_ed)}",
        ]
        return "\n".join(lines)


def _mean(values: list) -> float | None:
    cleaned = [v for v in values if v is not None]
    if not cleaned:
        return None
    return sum(cleaned) / len(cleaned)


def evaluate_corpus(
    predictor,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    max_name_tokens: int = 5,
    dataset: str = "dataset",
) -> EvalReport:
    """Run length and generation metrics over a corpus.

    ``predictor(record)`` returns a pair: the ranked (length, score) pairs
    and the predicted name. Either half may be None, which leaves that
    metric family None for the record. A record is excluded, and counted
    by reason, when its true name exceeds ``max_name_tokens`` sub-tokens
    (``too_long``) or when scoring it raises a ``VarnamerError`` (the
    error's class name), such as an empty true name or a predictor error.
    Predicted and true names are tokenized with the same vocabulary so
    comparisons are like for like.
    """
    if max_name_tokens < 1:
        raise InvalidConfig(f"max_name_tokens must be >= 1, got {max_name_tokens}")
    rows: list[ExampleResult] = []
    reasons: Counter[str] = Counter()
    for record in records:
        try:
            truth_tokens = bpe.tokenize_variable(vocab, record.variable_after)
            if len(truth_tokens) > max_name_tokens:
                reasons["too_long"] += 1
                continue
            ranking, pred_name = predictor(record)
            hit1 = hit3 = None
            if ranking is not None:
                ranked = [length for length, _ in ranking]
                hit1 = hit_at_k(ranked, len(truth_tokens), 1)
                hit3 = hit_at_k(ranked, len(truth_tokens), 3)
            acc = em = ed = cer_value = None
            if pred_name is not None:
                pred_tokens = bpe.tokenize_variable(vocab, pred_name) if pred_name else []
                acc = accuracy(pred_tokens, truth_tokens)
                em = exact_match(pred_name, record.variable_after)
                ed = token_edit_distance(pred_tokens, truth_tokens)
                cer_value = cer(pred_name, record.variable_after)
            rows.append(ExampleResult(
                record_id=record.id,
                prediction=pred_name,
                truth=record.variable_after,
                hit1=hit1,
                hit3=hit3,
                accuracy=acc,
                exact_match=em,
                token_ed=ed,
                cer=cer_value,
            ))
        except VarnamerError as exc:
            reasons[type(exc).__name__] += 1
    return EvalReport(
        dataset=dataset,
        evaluated=len(rows),
        excluded=sum(reasons.values()),
        hit_at_1=_mean([r.hit1 for r in rows]),
        hit_at_3=_mean([r.hit3 for r in rows]),
        accuracy=_mean([r.accuracy for r in rows]),
        exact_match=_mean([r.exact_match for r in rows]),
        mean_token_ed=_mean([r.token_ed for r in rows]),
        mean_cer=_mean([r.cer for r in rows]),
        rows=rows,
        excluded_reasons=dict(reasons),
    )
