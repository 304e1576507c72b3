"""Synthetic Java corpora for the tests: small, deterministic, and varied
enough that a desk-scale model can memorize them."""

from __future__ import annotations

import numpy as np

from varnamer import javalex
from varnamer.bpe import SubwordVocab
from varnamer.corpus import RefactoringRecord

TOKEN_BANK = [
    "count", "total", "value", "index", "buffer", "size", "name", "item",
    "rows", "sum", "data", "temp", "result", "flag", "node", "key",
]

ARG_BANK = ["limit", "bound", "step", "extra", "scale", "offset"]


def camel(tokens: list[str]) -> str:
    return tokens[0] + "".join(t.capitalize() for t in tokens[1:])


def make_function(name: str, arg: str, lit1: int, lit2: int, tag: int) -> str:
    return (
        f"int compute{tag}(int {arg}) {{\n"
        f"    int {name} = {lit1};\n"
        f"    while ({name} < {arg}) {{\n"
        f"        {name} += {lit2};\n"
        f"    }}\n"
        f"    return {name};\n"
        f"}}"
    )


def generate_functions(seed: int, count: int,
                       min_tokens: int = 1, max_tokens: int = 3) -> list[str]:
    """Unique single-function sources with camelCase local variables."""
    rng = np.random.default_rng(seed)
    functions = []
    for i in range(count):
        k = int(rng.integers(min_tokens, max_tokens + 1))
        tokens = [TOKEN_BANK[j] for j in rng.choice(len(TOKEN_BANK), size=k, replace=False)]
        arg = ARG_BANK[int(rng.integers(len(ARG_BANK)))] + str(i)
        lit1 = int(rng.integers(1, 900))
        lit2 = int(rng.integers(1, 90))
        functions.append(make_function(camel(tokens), arg, lit1, lit2, i))
    return functions


def handmade_vocab(words: list[str]) -> SubwordVocab:
    """A vocabulary whose merges build exactly the given words, one merge
    chain per word, so tokenization boundaries are fully controlled."""
    merges = dict.fromkeys((word[:i], word[i]) for word in words
                           for i in range(1, len(word)))
    return SubwordVocab(list(merges))


def make_record(record_id: str, code: str, name: str, decoy: str,
                split: str = "train") -> RefactoringRecord:
    spans = javalex.find_identifier_occurrences(code, name)
    return RefactoringRecord(
        id=record_id,
        code_before=javalex.substitute(code, spans, decoy),
        code_after=code,
        variable_before=decoy,
        variable_after=name,
        refactoring_type="RenameVariable",
        split=split,
    )


def bag_corpus(seed: int, bags: list[tuple[str, str]], per_bag: int,
               ) -> list[RefactoringRecord]:
    """Records whose names are permutations of fixed two-token bags.

    All records of one bag share the same body, so the masked inputs are
    identical while the target order flips between records.
    """
    rng = np.random.default_rng(seed)
    records = []
    for b, bag in enumerate(bags):
        lit1 = int(rng.integers(1, 900))
        lit2 = int(rng.integers(1, 90))
        for j in range(per_bag):
            order = list(bag) if (j % 2 == 0) else list(bag[::-1])
            name = "_".join(order)
            code = make_function(name, f"bound{b}", lit1, lit2, b)
            records.append(make_record(f"bag{b}-{j}", code, name, f"tmp{b}"))
    return records
