"""Two-stage prediction: choose a sub-token count, then decode that many
distinct sub-tokens and concatenate them into the suggested name.

Serving records no tape: both encoder passes run under
``autodiff.no_grad``, so a request keeps no graph, saved activations or
gradients for a backward pass that never comes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bpe, masking, model
from .bpe import SPECIAL_TOKENS, SubwordVocab
from .corpus import RefactoringRecord
from .errors import LengthOutOfRange, VocabExhausted
from .model import ModelParams

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


def predict_length(params: ModelParams, vocab: SubwordVocab,
                   code: str, name: str) -> list[tuple[int, float]]:
    """Stage 1: (length, probability) pairs for ``name`` in ``code``, most
    probable first, ties toward the shorter length."""
    config = params.config
    input_ids, _ = masking.masked_sequence(
        vocab, code, name, masking.SCHEME_NUM, 1, config.max_seq_len)
    with ad.no_grad():
        cls = model.forward(params, input_ids, rows=[0])
        probs = model.length_probs(params, cls.data[0]).data
    return sorted(
        ((length, float(probs[length - 1])) for length in range(1, config.max_name_tokens + 1)),
        key=lambda lp: (-lp[1], lp[0]),
    )


def slot_distributions(params: ModelParams, vocab: SubwordVocab,
                       code: str, name: str, slots: int) -> np.ndarray:
    """Per-slot vocabulary distributions, averaged across occurrences."""
    config = params.config
    input_ids, groups = masking.masked_sequence(
        vocab, code, name, masking.SCHEME_CMLM, slots, config.max_seq_len)
    flat = [p for group in groups for p in group]
    with ad.no_grad():
        hidden = model.forward(params, input_ids, rows=flat)
        probs = model.token_probs(params, hidden.data).data
    per_occurrence = probs.reshape(len(groups), slots, -1)
    return per_occurrence.mean(axis=0)


def decode_unique(slot_probs: np.ndarray) -> list[int]:
    """Pick one token id per slot such that no token repeats: slots decode
    in order, each taking its argmax among tokens not yet chosen."""
    slots, vocab_size = slot_probs.shape
    num_specials = len(SPECIAL_TOKENS)
    if slots > vocab_size - num_specials:
        raise VocabExhausted(
            f"{slots} unique tokens requested from {vocab_size - num_specials} candidates")
    available = np.ones(vocab_size, dtype=bool)
    available[:num_specials] = False
    chosen: list[int] = []
    for slot in range(slots):
        masked = np.where(available, slot_probs[slot], -np.inf)
        pick = int(np.argmax(masked))
        chosen.append(pick)
        available[pick] = False
    return chosen


def generate(params: ModelParams, vocab: SubwordVocab, code: str, name: str,
             g: int) -> Suggestion:
    """Stage 2: decode ``g`` pairwise-distinct sub-tokens for ``name``."""
    if not 1 <= g <= params.config.max_name_tokens:
        raise LengthOutOfRange(f"g must lie in 1..{params.config.max_name_tokens}")
    slot_probs = slot_distributions(params, vocab, code, name, g)
    ids = decode_unique(slot_probs)
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


def suggest(params: ModelParams, vocab: SubwordVocab,
            code: str, variable_before: str) -> Suggestion:
    """End-to-end suggestion: the name generated at the top-ranked length.

    Raises VariableNotFound when the variable does not occur in ``code``.
    """
    g = predict_length(params, vocab, code, variable_before)[0][0]
    return generate(params, vocab, code, variable_before, g)


class ModelPredictor:
    """The evaluation protocol over a trained model: ``predictor(record)``
    returns the ranked lengths and the name decoded at the top-ranked
    length, two encoder passes per record."""

    def __init__(self, params: ModelParams, vocab: SubwordVocab):
        self.params = params
        self.vocab = vocab

    def __call__(self, record: RefactoringRecord) -> tuple[list[tuple[int, float]], str]:
        code, name = record.code_before, record.variable_before
        ranked = predict_length(self.params, self.vocab, code, name)
        return ranked, generate(self.params, self.vocab, code, name, ranked[0][0]).name
