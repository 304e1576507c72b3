"""Reference baselines: an average-probability length heuristic and a
closed-vocabulary n-gram rename suggester.

The n-gram suggester retrieves candidate names seen in similar contexts
during training and ranks them by the smoothed log-probability of the code
with the candidate substituted in. It can only ever emit names observed in
training, which is its documented weakness.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import bpe, inference, masking
from .bpe import PAD, SubwordVocab
from .corpus import RefactoringRecord
from .errors import EmptyCorpus, NoCandidates, VariableNotFound
from .fileio import atomic_write
from .model import ModelParams


def heuristic_lp(params: ModelParams, vocab: SubwordVocab,
                 record: RefactoringRecord) -> list[tuple[int, float]]:
    """Rank candidate lengths by the mean log of the per-slot max probability.

    For each candidate count g the record is masked with g slots and scored
    with the model's own token distributions; ties break toward smaller g.
    """
    scores: list[tuple[int, float]] = []
    for g in range(1, params.config.max_name_tokens + 1):
        slot_probs = inference._slot_distributions(
            params, vocab, record.code_before, record.variable_before, g)
        scores.append((g, float(np.mean(np.log(slot_probs.max(axis=1))))))
    return sorted(scores, key=lambda gs: (-gs[1], gs[0]))


@dataclass
class NgramModel:
    """Add-k smoothed n-gram counts plus a context-keyed candidate index."""

    n: int
    vocab_size: int
    smoothing_k: float = 0.01
    counts: dict[tuple[int, ...], Counter] = field(default_factory=dict, repr=False)
    context_totals: dict[tuple[int, ...], int] = field(default_factory=dict, repr=False)
    candidate_names: dict[tuple[int, ...], set[str]] = field(default_factory=dict, repr=False)

    def all_names(self) -> list[str]:
        names: set[str] = set()
        for group in self.candidate_names.values():
            names |= group
        return sorted(names)

    def conditional(self, context: tuple[int, ...], token: int) -> float:
        counter = self.counts.get(context)
        count = counter[token] if counter is not None else 0
        total = self.context_totals.get(context, 0)
        return (count + self.smoothing_k) / (total + self.smoothing_k * self.vocab_size)


def _padded(ids: list[int], n: int) -> list[int]:
    return [PAD] * (n - 1) + ids


def train_ngram(records: list[RefactoringRecord], vocab: SubwordVocab,
                n: int = 3, smoothing_k: float = 0.01) -> NgramModel:
    """Count sliding windows over the post-refactoring token streams and
    index each ground-truth name under its occurrence contexts."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not records:
        raise EmptyCorpus("no records to train on")
    ngram = NgramModel(n=n, vocab_size=len(vocab.token_to_id), smoothing_k=smoothing_k)
    counts: dict[tuple[int, ...], Counter] = defaultdict(Counter)
    candidates: dict[tuple[int, ...], set[str]] = defaultdict(set)
    for record in records:
        ids, groups = masking.encode_with_positions(
            vocab, record.code_after, record.variable_after, max_seq_len=1 << 30)
        stream = ids[1:-1]  # drop the CLS/SEP wrapping
        padded = _padded(stream, n)
        for i in range(n - 1, len(padded)):
            counts[tuple(padded[i - n + 1:i])][padded[i]] += 1
        first = groups[0][0] - 1  # group positions include the CLS offset
        signature = tuple(_padded(stream[:first], n)[first:first + n - 1])
        candidates[signature].add(record.variable_after)
    ngram.counts = dict(counts)
    ngram.context_totals = {ctx: sum(c.values()) for ctx, c in counts.items()}
    ngram.candidate_names = dict(candidates)
    return ngram


def sequence_logprob(ngram: NgramModel, ids: list[int]) -> float:
    padded = _padded(ids, ngram.n)
    total = 0.0
    for i in range(ngram.n - 1, len(padded)):
        total += math.log(ngram.conditional(tuple(padded[i - ngram.n + 1:i]), padded[i]))
    return total


def ngram_suggest(ngram: NgramModel, vocab: SubwordVocab, code: str,
                  variable_before: str, top_k: int = 5) -> list[tuple[str, float]]:
    """Rank training-set names by the code's log-probability with each name
    substituted in. Falls back to the full name inventory when no stored
    context matches."""
    try:
        ids, groups = masking.encode_with_positions(
            vocab, code, variable_before, max_seq_len=1 << 30)
    except VariableNotFound:
        raise NoCandidates(f"{variable_before!r} does not occur in the code") from None
    # The memoised segments of the call above: the code is lexed once.
    segments = masking._segments(code, variable_before)
    stream = ids[1:-1]
    candidates: set[str] = set()
    for group in groups:
        first = group[0] - 1
        signature = tuple(_padded(stream[:first], ngram.n)[first:first + ngram.n - 1])
        candidates |= ngram.candidate_names.get(signature, set())
    if not candidates:
        names = ngram.all_names()
        if not names:
            raise NoCandidates("the model indexes no names")
        candidates = set(names)
    scored = []
    for name in sorted(candidates):
        substituted = "".join(name if is_occurrence else text
                              for text, is_occurrence in segments)
        scored.append((name, sequence_logprob(ngram, bpe.encode(vocab, substituted))))
    scored.sort(key=lambda ns: (-ns[1], ns[0]))
    return scored[:top_k]


def save_ngram(ngram: NgramModel, path: str) -> None:
    """Sorted text format: count lines, then the candidate index. The
    previous file at ``path`` stays intact until the new one is complete."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(f"NGRAM v1 {ngram.n} {ngram.vocab_size} {ngram.smoothing_k}\n")
        lines = []
        for context, counter in ngram.counts.items():
            ctx = " ".join(str(i) for i in context)
            for token, count in counter.items():
                lines.append(f"{ctx}\t{token}\t{count}")
        for line in sorted(lines):
            fh.write(line + "\n")
        fh.write("#CANDIDATES\n")
        entries = []
        for signature, names in ngram.candidate_names.items():
            sig = " ".join(str(i) for i in signature)
            for name in names:
                entries.append(f"{sig}\t{name}")
        for entry in sorted(entries):
            fh.write(entry + "\n")


class NgramPredictor:
    """Evaluation adapter for the n-gram suggester (generation only)."""

    def __init__(self, ngram: NgramModel, vocab: SubwordVocab):
        self.ngram = ngram
        self.vocab = vocab

    def predict_name(self, record: RefactoringRecord) -> str:
        ranked = ngram_suggest(self.ngram, self.vocab,
                               record.code_before, record.variable_before, top_k=1)
        return ranked[0][0]


class HeuristicLengthPredictor:
    """Evaluation adapter for the length heuristic (length only)."""

    def __init__(self, params: ModelParams, vocab: SubwordVocab):
        self.params = params
        self.vocab = vocab

    def predict_length(self, record: RefactoringRecord) -> list[tuple[int, float]]:
        return heuristic_lp(self.params, self.vocab, record)


class CompositePredictor:
    """Combine independent length and name predictors into one adapter."""

    def __init__(self, length_predictor=None, name_predictor=None):
        if length_predictor is not None:
            self.predict_length = length_predictor.predict_length
        if name_predictor is not None:
            self.predict_name = name_predictor.predict_name
