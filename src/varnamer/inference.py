"""Two-stage prediction: choose a sub-token count, then decode that many
distinct sub-tokens and concatenate them into the suggested name."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bpe, masking, model
from .bpe import SPECIAL_TOKENS, SubwordVocab
from .corpus import RefactoringRecord
from .errors import VocabExhausted
from .model import ModelParams

DECODE_METHODS = ("greedy", "global", "optimal")


@dataclass
class Suggestion:
    """A suggested rename with per-slot provenance probabilities."""

    name: str
    sub_tokens: list[str]
    length_used: int
    slot_candidates: list[list[tuple[str, float]]]   # top-5 (token, prob) per slot

    def to_json_dict(self, record_id: str = "") -> dict:
        return {
            "id": record_id,
            "suggested_name": self.name,
            "sub_tokens": self.sub_tokens,
            "length_used": self.length_used,
            "slot_probs": [
                [{"token": tok, "prob": prob} for tok, prob in slot]
                for slot in self.slot_candidates
            ],
        }


def _ranked_lengths(params: ModelParams, vocab: SubwordVocab,
                    code: str, name: str) -> list[tuple[int, float]]:
    config = params.config
    input_ids, _ = masking.masked_sequence(
        vocab, code, name, masking.SCHEME_NUM, 1, config.max_seq_len)
    encoded = model.forward(params, input_ids, train_mode=False, rows=[0])
    probs = model.length_probs(params, encoded.cls_vector).data
    ranked = sorted(
        ((length, float(probs[length - 1])) for length in range(1, config.max_name_tokens + 1)),
        key=lambda lp: (-lp[1], lp[0]),
    )
    return ranked


def _slot_distributions(params: ModelParams, vocab: SubwordVocab,
                        code: str, name: str, slots: int) -> np.ndarray:
    """Per-slot vocabulary distributions, averaged across occurrences."""
    config = params.config
    input_ids, groups = masking.masked_sequence(
        vocab, code, name, masking.SCHEME_CMLM, slots, config.max_seq_len)
    flat = [p for group in groups for p in group]
    encoded = model.forward(params, input_ids, train_mode=False, rows=flat)
    probs = model.token_probs(params, encoded.hidden_states).data
    per_occurrence = probs.reshape(len(groups), slots, -1)
    return per_occurrence.mean(axis=0)


def decode_unique(slot_probs: np.ndarray, vocab: SubwordVocab,
                  method: str = "greedy") -> list[int]:
    """Pick one token id per slot such that no token repeats.

    greedy: slots decode in order, each taking its argmax among tokens not
    yet chosen. global: the g tokens with the largest probability summed
    over slots are chosen first, then assigned to slots greedily. optimal:
    maximum-total-log-probability assignment (Hungarian method).
    """
    slots, vocab_size = slot_probs.shape
    num_specials = len(SPECIAL_TOKENS)
    if slots > vocab_size - num_specials:
        raise VocabExhausted(
            f"{slots} unique tokens requested from {vocab_size - num_specials} candidates")
    allowed = np.ones(vocab_size, dtype=bool)
    allowed[:num_specials] = False

    if method == "greedy":
        chosen: list[int] = []
        available = allowed.copy()
        for slot in range(slots):
            masked = np.where(available, slot_probs[slot], -np.inf)
            pick = int(np.argmax(masked))
            chosen.append(pick)
            available[pick] = False
        return chosen
    if method == "global":
        totals = np.where(allowed, slot_probs.sum(axis=0), -np.inf)
        pool = set(np.argsort(-totals)[:slots].tolist())
        chosen = []
        for slot in range(slots):
            pick = max(pool, key=lambda t: (slot_probs[slot, t], -t))
            chosen.append(int(pick))
            pool.remove(pick)
        return chosen
    if method == "optimal":
        from scipy.optimize import linear_sum_assignment

        cost = -np.log(np.maximum(slot_probs[:, allowed], 1e-300))
        candidate_ids = np.flatnonzero(allowed)
        rows, cols = linear_sum_assignment(cost)
        picks = [0] * slots
        for row, col in zip(rows, cols):
            picks[row] = int(candidate_ids[col])
        return picks
    raise ValueError(f"unknown decode method {method!r}; use one of {DECODE_METHODS}")


def predict_length(params: ModelParams, vocab: SubwordVocab,
                   record: RefactoringRecord) -> list[tuple[int, float]]:
    """Ranked (length, probability) pairs for the record's target variable,
    computed from the pre-refactoring side the model would see in use."""
    return _ranked_lengths(params, vocab, record.code_before, record.variable_before)


def generate_tokens(params: ModelParams, vocab: SubwordVocab,
                    record: RefactoringRecord, g: int,
                    method: str = "greedy") -> list[str]:
    """Decode g pairwise-distinct sub-token strings for the record."""
    if not 1 <= g <= params.config.max_name_tokens:
        raise ValueError(f"g must lie in 1..{params.config.max_name_tokens}")
    slot_probs = _slot_distributions(
        params, vocab, record.code_before, record.variable_before, g)
    ids = decode_unique(slot_probs, vocab, method)
    return [bpe.token_string(vocab, i) for i in ids]


def suggest(params: ModelParams, vocab: SubwordVocab,
            code: str, variable_before: str,
            method: str = "greedy") -> Suggestion:
    """End-to-end suggestion: top-1 predicted length, then unique decoding.

    Raises VariableNotFound when the variable does not occur in ``code``.
    """
    ranked = _ranked_lengths(params, vocab, code, variable_before)
    return _suggest_with_length(params, vocab, code, variable_before, ranked[0][0], method)


def _suggest_with_length(params: ModelParams, vocab: SubwordVocab, code: str,
                         variable_before: str, g: int, method: str) -> Suggestion:
    """Decode ``g`` unique sub-tokens: the part of ``suggest`` after ranking."""
    slot_probs = _slot_distributions(params, vocab, code, variable_before, g)
    ids = decode_unique(slot_probs, vocab, method)
    sub_tokens = [bpe.token_string(vocab, i) for i in ids]
    candidates = []
    for slot in range(g):
        top = np.argsort(-slot_probs[slot])[:5]
        candidates.append([
            (bpe.token_string(vocab, int(t)), float(slot_probs[slot, int(t)]))
            for t in top
        ])
    return Suggestion(
        name="".join(sub_tokens),
        sub_tokens=sub_tokens,
        length_used=g,
        slot_candidates=candidates,
    )


class ModelPredictor:
    """Adapter exposing the evaluation protocol over a trained model.

    ``predict_name`` reuses the ranking of a ``predict_length`` call on the
    same record, so a record evaluated for both costs two encoder passes.
    """

    def __init__(self, params: ModelParams, vocab: SubwordVocab,
                 method: str = "greedy"):
        self.params = params
        self.vocab = vocab
        self.method = method
        self._ranked: tuple[RefactoringRecord, list[tuple[int, float]]] | None = None

    def predict_length(self, record: RefactoringRecord) -> list[tuple[int, float]]:
        ranked = predict_length(self.params, self.vocab, record)
        self._ranked = (record, ranked)
        return ranked

    def predict_name(self, record: RefactoringRecord) -> str:
        if self._ranked is None or self._ranked[0] is not record:
            return suggest(self.params, self.vocab, record.code_before,
                           record.variable_before, self.method).name
        g = self._ranked[1][0][0]
        self._ranked = None
        return _suggest_with_length(self.params, self.vocab, record.code_before,
                                    record.variable_before, g, self.method).name
