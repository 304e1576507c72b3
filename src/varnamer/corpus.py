"""Rename-refactoring corpus: record schema, adaptation of plain code, JSONL io.

A plain Java function is turned into a training record by picking one of
its variables as the ground-truth name and substituting a decoy name from
a shared pool to produce the "before" version.

Both JSONL formats, functions (``{"code": ...}``) and rename records, are
read by one reader, ``_objects``: it parses each line and rejects bad JSON,
non-objects and unknown fields, so ``load_functions``, ``load_corpus`` and
``load_texts`` add only the checks of their own format.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass

from . import javalex
from .errors import (
    InvariantViolation,
    MalformedCode,
    NoVariables,
    PoolExhausted,
    SchemaViolation,
)
from .fileio import atomic_write

SPLITS = ("train", "validation", "test")

RECORD_FIELDS = (
    "id", "code_before", "code_after", "variable_before", "variable_after",
    "refactoring_type", "split",
)
FUNCTION_FIELDS = ("code", "id")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny 64-bit PRNG; reproducible independent of numpy versioning."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n


@dataclass(frozen=True)
class RefactoringRecord:
    """One rename-refactoring example (before/after code and names)."""

    id: str
    code_before: str
    code_after: str
    variable_before: str
    variable_after: str
    refactoring_type: str
    split: str


def validate_record(record: RefactoringRecord) -> None:
    """Check the structural invariants of a record; raise InvariantViolation."""
    if record.split not in SPLITS:
        raise InvariantViolation(record.id, f"split must be one of {SPLITS}")
    if record.variable_before == record.variable_after:
        raise InvariantViolation(record.id, "variable_before equals variable_after")
    try:
        spans = javalex.find_identifier_occurrences(record.code_after, record.variable_after)
    except MalformedCode as exc:
        raise InvariantViolation(record.id, f"code_after: {exc}") from exc
    if not spans:
        raise InvariantViolation(
            record.id, "variable_after never occurs as an identifier in code_after")
    rebuilt = javalex.substitute(record.code_after, spans, record.variable_before)
    if rebuilt != record.code_before:
        raise InvariantViolation(
            record.id,
            "substituting variable_before for variable_after in code_after "
            "does not reproduce code_before")


def adapt_record(
    code: str,
    rng_seed: int,
    name_pool: list[str],
    record_id: str | None = None,
    split: str = "train",
) -> RefactoringRecord:
    """Turn a plain function into a record with a synthetic "before" name.

    One declared variable is picked uniformly (seeded) as the ground truth;
    a different name sampled from the pool replaces it to form code_before.
    Deterministic: same code, seed and pool give an identical record.
    """
    return _record(code, javalex.extract_variables(code), rng_seed, name_pool,
                   record_id, split)


def _record(
    code: str,
    variables: list[javalex.VariableOccurrence],
    rng_seed: int,
    name_pool: list[str],
    record_id: str | None,
    split: str,
) -> RefactoringRecord:
    """``adapt_record`` on the variables ``javalex.extract_variables`` found
    in ``code``."""
    if not variables:
        raise NoVariables("function declares no variables or parameters")
    if not name_pool:
        raise PoolExhausted("name pool is empty")
    rng = SplitMix64(rng_seed)
    chosen = variables[rng.below(len(variables))]
    eligible = [name for name in name_pool if name != chosen.name]
    if not eligible:
        raise PoolExhausted(f"every pool name equals {chosen.name!r}")
    decoy = eligible[rng.below(len(eligible))]
    code_before = javalex.substitute(code, list(chosen.spans), decoy)
    if record_id is None:
        digest = hashlib.sha256(code.encode("utf-8")).hexdigest()[:10]
        record_id = f"{digest}-s{rng_seed}"
    return RefactoringRecord(
        id=record_id,
        code_before=code_before,
        code_after=code,
        variable_before=decoy,
        variable_after=chosen.name,
        refactoring_type="RenameVariable",
        split=split,
    )


def normalize_whitespace(code: str) -> str:
    return " ".join(code.split())


def filter_functions(functions: list[str]) -> tuple[list[str], dict[str, int]]:
    """Drop functions shorter than three lines and exact duplicates
    (after whitespace normalization). Returns kept functions plus counts."""
    kept: list[str] = []
    seen: set[str] = set()
    stats = {"too_short": 0, "duplicate": 0}
    for code in functions:
        if len(code.strip().splitlines()) < 3:
            stats["too_short"] += 1
            continue
        key = normalize_whitespace(code)
        if key in seen:
            stats["duplicate"] += 1
            continue
        seen.add(key)
        kept.append(code)
    return kept, stats


def adapt_corpus(
    functions: list[str],
    seed: int,
    validation_fraction: float = 0.1,
    test_fraction: float = 0.1,
    apply_filters: bool = True,
) -> tuple[list[RefactoringRecord], dict[str, int]]:
    """Adapt a list of plain functions into refactoring records.

    The name pool is the set of picked ground-truth names over the whole
    corpus (first-seen order, deduplicated). Functions without variables
    are skipped and counted.
    """
    stats = {"too_short": 0, "duplicate": 0, "no_variables": 0}
    if apply_filters:
        functions, fstats = filter_functions(functions)
        stats.update(fstats)

    base = SplitMix64(seed)
    record_seeds = [base.next() for _ in functions]

    # Pass 1: pick the ground-truth variable per function; build the pool.
    found = [javalex.extract_variables(code) for code in functions]
    pool: list[str] = []
    pool_seen: set[str] = set()
    for variables, rseed in zip(found, record_seeds):
        if not variables:
            stats["no_variables"] += 1
            continue
        name = variables[SplitMix64(rseed).below(len(variables))].name
        if name not in pool_seen:
            pool_seen.add(name)
            pool.append(name)

    # Pass 2: build records; the per-record PRNG re-draws the same pick.
    records: list[RefactoringRecord] = []
    usable = [i for i, variables in enumerate(found) if variables]
    n = len(usable)
    n_test = int(n * test_fraction)
    n_val = int(n * validation_fraction)
    for rank, idx in enumerate(usable):
        if rank < n - n_val - n_test:
            split = "train"
        elif rank < n - n_test:
            split = "validation"
        else:
            split = "test"
        try:
            record = _record(functions[idx], found[idx], record_seeds[idx], pool,
                             f"{idx:06d}", split)
        except PoolExhausted:
            stats.setdefault("pool_exhausted", 0)
            stats["pool_exhausted"] += 1
            continue
        records.append(record)
    return records, stats


def _objects(path: str, fields: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, obj)`` for each non-blank line of a JSONL file.

    ``line_no`` is 1-based. A line that is not JSON, not a JSON object, or
    that has a field outside ``fields`` raises SchemaViolation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise SchemaViolation(line_no, "line is not a JSON object")
            unknown = set(obj) - set(fields)
            if unknown:
                raise SchemaViolation(line_no, f"unknown fields {sorted(unknown)}")
            yield line_no, obj


def load_functions(path: str) -> list[str]:
    """Read plain functions from JSONL lines shaped {"code": ..., "id"?: ...}."""
    functions: list[str] = []
    for line_no, obj in _objects(path, FUNCTION_FIELDS):
        if "code" not in obj:
            raise SchemaViolation(line_no, 'expected an object with a "code" field')
        if not isinstance(obj["code"], str):
            raise SchemaViolation(line_no, '"code" must be a string')
        functions.append(obj["code"])
    return functions


def load_corpus(path: str) -> list[RefactoringRecord]:
    """Read a JSONL corpus, validating schema and record invariants.

    Raises SchemaViolation with the offending line number, or
    InvariantViolation with the record id. Unknown fields are rejected.
    """
    records: list[RefactoringRecord] = []
    for line_no, obj in _objects(path, RECORD_FIELDS):
        missing = set(RECORD_FIELDS) - set(obj)
        if missing:
            raise SchemaViolation(line_no, f"missing fields {sorted(missing)}")
        for field in RECORD_FIELDS:
            if not isinstance(obj[field], str):
                raise SchemaViolation(line_no, f"field {field!r} must be a string")
        if obj["split"] not in SPLITS:
            raise SchemaViolation(line_no, f"split must be one of {SPLITS}")
        record = RefactoringRecord(**obj)
        validate_record(record)
        records.append(record)
    return records


def load_texts(path: str) -> list[str]:
    """The code of a functions file or of a records file: each function, or
    each record's ``code_after``. A first object with a ``"code"`` field
    makes it a functions file; the chosen loader reports any bad line."""
    # Both formats' fields: a first line this rejects, the chosen loader
    # would reject for the same reason.
    first = next(_objects(path, FUNCTION_FIELDS + RECORD_FIELDS), None)
    if first is not None and "code" in first[1]:
        return load_functions(path)
    return [record.code_after for record in load_corpus(path)]


def save_corpus(records: list[RefactoringRecord], path: str) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record), ensure_ascii=False) + "\n")
