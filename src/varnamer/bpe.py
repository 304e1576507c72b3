"""Byte-pair-encoding subword tokenizer trained from scratch.

The base alphabet is all 256 byte values (mapped to printable unicode
characters so the vocabulary file stays line-oriented), which makes
encoding total: any UTF-8 text round-trips exactly. Text is pre-split at
whitespace/punctuation boundaries so merges never cross token boundaries
of the underlying language.

A vocabulary is its ordered merge list, as in subword-nmt; its file holds
the merges and the special tokens' fixed ids.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import CorruptVocab, EmptyCorpus, EmptyName, VocabTooSmall
from .fileio import atomic_write, read_text

SPECIAL_TOKENS = ("[CLS]", "[SEP]", "[MASK]", "[NUM]", "[PAD]", "[UNK]")
CLS, SEP, MASK, NUM, PAD, UNK = range(6)

_WORD_RE = re.compile(r"[A-Za-z0-9_$]+|\s+|[^A-Za-z0-9_$\s]")
_CAMEL_RE = re.compile(r"[a-z0-9_$]+|[A-Z]+(?![a-z])|[A-Z][a-z0-9_$]*")


def _bytes_to_unicode() -> dict[int, str]:
    """Bijective byte -> printable-unicode map (control bytes shifted up)."""
    printable = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("¡"), ord("¬") + 1))
        + list(range(ord("®"), ord("ÿ") + 1))
    )
    mapping = {}
    shift = 0
    for b in range(256):
        if b in printable:
            mapping[b] = chr(b)
        else:
            mapping[b] = chr(256 + shift)
            shift += 1
    return mapping


_BYTE_TO_CHAR = _bytes_to_unicode()
_CHAR_TO_BYTE = {c: b for b, c in _BYTE_TO_CHAR.items()}
BASE_ALPHABET_SIZE = 256
MIN_VOCAB_SIZE = BASE_ALPHABET_SIZE + len(SPECIAL_TOKENS)
# encode() memoises each pre-split chunk's ids per vocabulary; the memo is
# emptied when it holds this many chunks, which bounds its memory.
CHUNK_CACHE_LIMIT = 1 << 16
# train_bpe() stops once no adjacent pair occurs at least this often.
MIN_PAIR_FREQUENCY = 2


@dataclass
class SubwordVocab:
    """A vocabulary is its ordered merges; the token <-> id tables and the
    merge ranks follow from them. Ids run over the specials, the 256 byte
    symbols, then each merge's string where it first appears; a merge
    whose string is already a token adds none."""

    merges: list[tuple[str, str]]
    token_to_id: dict[str, int] = field(init=False, compare=False, repr=False)
    id_to_token: dict[int, str] = field(init=False, compare=False, repr=False)
    _ranks: dict[tuple[str, str], int] = field(init=False, compare=False, repr=False)
    _chunk_ids: dict[str, tuple[int, ...]] = field(
        init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        tokens = dict.fromkeys([*SPECIAL_TOKENS, *(_BYTE_TO_CHAR[b] for b in range(256)),
                                *(left + right for left, right in self.merges)])
        self.token_to_id = {tok: i for i, tok in enumerate(tokens)}
        self.id_to_token = dict(enumerate(tokens))
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def is_special(self, token_id: int) -> bool:
        return token_id < len(SPECIAL_TOKENS)


def _pre_split(text: str, camel_split: bool = False) -> list[str]:
    chunks = _WORD_RE.findall(text)
    if not camel_split:
        return chunks
    out = []
    for chunk in chunks:
        parts = _CAMEL_RE.findall(chunk)
        out.extend(parts if parts else [chunk])
    return out


def _to_symbols(chunk: str) -> tuple[str, ...]:
    return tuple(_BYTE_TO_CHAR[b] for b in chunk.encode("utf-8"))


def train_bpe(
    texts: list[str],
    vocab_size: int,
    camel_split: bool = False,
) -> SubwordVocab:
    """Learn merges by greedy highest-frequency pair merging.

    Stops when the vocabulary reaches ``vocab_size`` or no pair occurs at
    least ``MIN_PAIR_FREQUENCY`` times. Ties between equally frequent pairs
    break lexicographically on the merged string, so training is
    deterministic.
    """
    if vocab_size < MIN_VOCAB_SIZE:
        raise VocabTooSmall(
            f"vocab_size {vocab_size} < {BASE_ALPHABET_SIZE} byte symbols "
            f"+ {len(SPECIAL_TOKENS)} specials")
    if not texts:
        raise EmptyCorpus("no texts to train the tokenizer on")

    words = Counter()
    for text in texts:
        for chunk in _pre_split(text, camel_split):
            words[_to_symbols(chunk)] += 1

    tokens = set(SPECIAL_TOKENS) | set(_BYTE_TO_CHAR.values())
    merges: list[tuple[str, str]] = []

    current = dict(words)
    while len(tokens) < vocab_size:
        pair_counts: Counter = Counter()
        for symbols, count in current.items():
            for a, b in zip(symbols, symbols[1:]):
                pair_counts[(a, b)] += count
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        if best_count < MIN_PAIR_FREQUENCY:
            break
        best = min(
            (p for p, c in pair_counts.items() if c == best_count),
            key=lambda p: p[0] + p[1],
        )
        merges.append(best)
        merged = best[0] + best[1]
        tokens.add(merged)
        current = {
            _merge_symbols(symbols, best, merged): count
            for symbols, count in current.items()
        }
    return SubwordVocab(merges)


def _merge_symbols(symbols: tuple[str, ...], pair: tuple[str, str], merged: str) -> tuple[str, ...]:
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _apply_merges(vocab: SubwordVocab, symbols: tuple[str, ...]) -> tuple[str, ...]:
    ranks = vocab._ranks
    while len(symbols) > 1:
        ranked = [
            (ranks[pair], i)
            for i, pair in enumerate(zip(symbols, symbols[1:]))
            if pair in ranks
        ]
        if not ranked:
            break
        best_rank, _ = min(ranked)
        pair = vocab.merges[best_rank]
        symbols = _merge_symbols(symbols, pair, pair[0] + pair[1])
    return symbols


def encode(vocab: SubwordVocab, text: str) -> list[int]:
    """Tokenize text to ids; decode(encode(text)) reproduces text exactly."""
    # Camel pre-splitting is a training-time constraint only: merges never
    # cross a boundary they were not trained across, so encoding is flagless.
    cache = vocab._chunk_ids
    ids: list[int] = []
    for chunk in _WORD_RE.findall(text):
        chunk_ids = cache.get(chunk)
        if chunk_ids is None:
            if len(cache) >= CHUNK_CACHE_LIMIT:
                cache.clear()
            chunk_ids = cache[chunk] = tuple(
                vocab.token_to_id[symbol]
                for symbol in _apply_merges(vocab, _to_symbols(chunk)))
        ids.extend(chunk_ids)
    return ids


def decode(vocab: SubwordVocab, ids: list[int]) -> str:
    """Inverse of encode; special ids render as their bracketed names."""
    parts: list[str] = []
    buffer: list[int] = []

    def flush():
        if buffer:
            parts.append(bytes(buffer).decode("utf-8", errors="replace"))
            buffer.clear()

    for token_id in ids:
        token = vocab.id_to_token[token_id]
        if vocab.is_special(token_id):
            flush()
            parts.append(token)
        else:
            buffer.extend(_CHAR_TO_BYTE[c] for c in token)
    flush()
    return "".join(parts)


def token_string(vocab: SubwordVocab, token_id: int) -> str:
    """Surface string of one token; distinct ids give distinct strings.

    Tokens whose bytes are not valid UTF-8 on their own fall back to the
    mapped-alphabet spelling rather than collapsing to replacement chars.
    """
    token = vocab.id_to_token[token_id]
    if vocab.is_special(token_id):
        return token
    data = bytes(_CHAR_TO_BYTE[c] for c in token)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return token


def tokenize_variable(vocab: SubwordVocab, name: str) -> list[str]:
    """Split an identifier into sub-token strings; they concatenate to name."""
    if not name:
        raise EmptyName("variable name is empty")
    return [token_string(vocab, i) for i in encode(vocab, name)]


def save_vocab(vocab: SubwordVocab, path: str) -> None:
    """Write the vocabulary file; the previous file stays intact until the
    new one is complete."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(f"BPE v1 {vocab.size}\n")
        for left, right in vocab.merges:
            fh.write(f"{left} {right}\n")
        fh.write("#SPECIALS\n")
        for token_id, name in enumerate(SPECIAL_TOKENS):
            fh.write(f"{name} {token_id}\n")


def load_vocab(path: str) -> SubwordVocab:
    """Read a vocabulary file; a malformed one raises CorruptVocab naming
    the path and the 1-based line. The ``#SPECIALS`` section lists every
    special token with its id, in the order of ``SPECIAL_TOKENS``, which
    fixes the ids."""
    lines = read_text(path, lambda line_no: CorruptVocab(path, line_no, "not UTF-8")).splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 3 or header[:2] != ["BPE", "v1"]:
        raise CorruptVocab(path, 1, "not a vocabulary file (expected 'BPE v1 <size>')")
    try:
        declared_size = int(header[2])
    except ValueError:
        raise CorruptVocab(path, 1, f"vocabulary size {header[2]!r} is not an integer") from None
    merges: list[tuple[str, str]] = []
    specials: dict[str, int] = {}
    in_specials = False
    for line_no, line in enumerate(lines[1:], start=2):
        if line == "#SPECIALS":
            in_specials = True
            continue
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            expected = "'<name> <id>'" if in_specials else "'<left> <right>'"
            raise CorruptVocab(path, line_no, f"expected {expected}, got {line!r}")
        left, right = parts
        if in_specials:
            try:
                token_id = int(right)
            except ValueError:
                raise CorruptVocab(path, line_no,
                                   f"special id {right!r} is not an integer") from None
            if len(specials) == len(SPECIAL_TOKENS):
                raise CorruptVocab(path, line_no, f"unexpected special {line!r}")
            expected = (SPECIAL_TOKENS[len(specials)], len(specials))
            if (left, token_id) != expected:
                raise CorruptVocab(path, line_no,
                                   f"expected special '{expected[0]} {expected[1]}', "
                                   f"got {line!r}")
            specials[left] = token_id
        elif not all(c in _CHAR_TO_BYTE for c in left + right):
            raise CorruptVocab(path, line_no,
                               f"merge {line!r} has a symbol outside the byte alphabet")
        else:
            merges.append((left, right))
    vocab = SubwordVocab(merges)
    if vocab.size != declared_size:
        raise CorruptVocab(
            path, 1, f"header declares {declared_size} tokens, merges rebuild {vocab.size}")
    if len(specials) < len(SPECIAL_TOKENS):
        missing = SPECIAL_TOKENS[len(specials)]
        raise CorruptVocab(path, len(lines) + 1,
                           f"file ends before special '{missing} {len(specials)}'")
    return vocab
