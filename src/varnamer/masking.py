"""Masking schemes that turn refactoring records into model inputs.

One loop, ``_window``, encodes a method segment-by-segment around the
occurrences of a name, writes each occurrence as a given fill and cuts
the result to the model's window. Three fills use it: g [MASK] slots per
occurrence (token generation), a single [NUM] (length prediction, where
the slot count would leak the answer) and the name's own sub-tokens (the
unmasked sequences the contrastive loss and the n-gram baseline read).
The pre-splitting tokenizer guarantees the concatenated segments equal
encoding the whole text.

A ``MaskedExample`` does not name its fill; its groups show it, with one
slot per target under [MASK] and one slot under [NUM].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import bpe, javalex
from .bpe import CLS, MASK, NUM, SEP, SubwordVocab
from .corpus import RefactoringRecord
from .errors import NameTooLong, NameTruncated, ShapeMismatch, VariableNotFound

SCHEME_CMLM = "cmlm"
SCHEME_NUM = "num"


@dataclass
class MaskedExample:
    """One training input: ids with CLS/SEP, grouped mask slots, targets."""

    input_ids: list[int]
    mask_positions: list[list[int]]   # one group per surviving occurrence
    target_ids: list[int]

    @property
    def length_label(self) -> int:
        return len(self.target_ids)

    @property
    def flat_positions(self) -> list[int]:
        return [p for group in self.mask_positions for p in group]


# A request reads one (code, name) pair several times in a row: the [NUM]
# and [MASK] passes of ``suggest``, one pass per candidate length of the
# length heuristic. The segments of this many recent pairs are kept, so the
# code is lexed once per request while the memo holds only a few methods.
SEGMENT_CACHE_LIMIT = 8


@functools.lru_cache(maxsize=SEGMENT_CACHE_LIMIT)
def segments(code: str, name: str) -> tuple[tuple[str, bool], ...]:
    """Split code into (text, is_occurrence) pieces around the name."""
    spans = javalex.find_identifier_occurrences(code, name)
    if not spans:
        raise VariableNotFound(f"{name!r} does not occur as an identifier")
    pieces: list[tuple[str, bool]] = []
    prev = 0
    for start, end in spans:
        if start > prev:
            pieces.append((code[prev:start], False))
        pieces.append((code[start:end], True))
        prev = end
    if prev < len(code):
        pieces.append((code[prev:], False))
    return tuple(pieces)


def _window(
    vocab: SubwordVocab,
    code: str,
    name: str,
    fill: list[int],
    max_seq_len: int,
) -> tuple[list[int], list[list[int]]]:
    """Encode code with each occurrence of ``name`` written as ``fill``.

    Returns the CLS-wrapped ids and the positions of each occurrence's
    fill. Code cut by the window is kept up to the last token that fits;
    an occurrence that does not fit whole is dropped along with everything
    after it. Raises NameTruncated if no occurrence fits.
    """
    body: list[int] = []
    groups: list[list[int]] = []
    budget = max_seq_len - 2
    for text, is_occurrence in segments(code, name):
        ids = fill if is_occurrence else bpe.encode(vocab, text)
        if len(body) + len(ids) > budget:
            if not is_occurrence:
                body.extend(ids[:budget - len(body)])
            break
        if is_occurrence:
            groups.append(list(range(len(body) + 1, len(body) + 1 + len(ids))))
        body.extend(ids)
    if not groups:
        raise NameTruncated(
            f"no occurrence of {name!r} fits in the first {max_seq_len} tokens")
    return [CLS] + body + [SEP], groups


def masked_sequence(
    vocab: SubwordVocab,
    code: str,
    name: str,
    scheme: str,
    slots: int,
    max_seq_len: int,
) -> tuple[list[int], list[list[int]]]:
    """Encode code with each occurrence of ``name`` replaced by ``slots``
    [MASK] tokens (generation scheme) or one [NUM] (length scheme)."""
    fill = [MASK] * slots if scheme == SCHEME_CMLM else [NUM]
    return _window(vocab, code, name, fill, max_seq_len)


def encode_with_positions(
    vocab: SubwordVocab,
    code: str,
    name: str,
    max_seq_len: int,
) -> tuple[list[int], list[list[int]]]:
    """Encode code unmasked, reporting where the name's sub-tokens sit."""
    return _window(vocab, code, name, bpe.encode(vocab, name), max_seq_len)


def _apply_mask(
    vocab: SubwordVocab,
    record: RefactoringRecord,
    scheme: str,
    max_seq_len: int,
    max_name_tokens: int,
) -> MaskedExample:
    target_ids = bpe.encode(vocab, record.variable_after)
    g = len(target_ids)
    if g > max_name_tokens:
        raise NameTooLong(
            f"record {record.id}: name has {g} sub-tokens > {max_name_tokens}")
    fill = [MASK] * g if scheme == SCHEME_CMLM else [NUM]
    input_ids, groups = _window(vocab, record.code_after, record.variable_after,
                                fill, max_seq_len)
    return MaskedExample(
        input_ids=input_ids,
        mask_positions=groups,
        target_ids=target_ids,
    )


def apply_cmlm_mask(
    vocab: SubwordVocab,
    record: RefactoringRecord,
    max_seq_len: int = 512,
    max_name_tokens: int = 5,
) -> MaskedExample:
    """Replace every occurrence of the target name with its g mask slots."""
    return _apply_mask(vocab, record, SCHEME_CMLM, max_seq_len, max_name_tokens)


def apply_num_mask(
    vocab: SubwordVocab,
    record: RefactoringRecord,
    max_seq_len: int = 512,
    max_name_tokens: int = 5,
) -> MaskedExample:
    """Replace every occurrence with a single [NUM] placeholder so the
    input carries no information about the sub-token count."""
    return _apply_mask(vocab, record, SCHEME_NUM, max_seq_len, max_name_tokens)


def restore_targets(example: MaskedExample) -> list[int]:
    """Write the target ids back into the mask slots, one per target in
    every group (a [NUM] group of a longer name is rejected)."""
    g = len(example.target_ids)
    if any(len(group) != g for group in example.mask_positions):
        raise ShapeMismatch(f"every mask group must hold one slot per target ({g})")
    ids = list(example.input_ids)
    for group in example.mask_positions:
        for position, target in zip(group, example.target_ids):
            ids[position] = target
    return ids
