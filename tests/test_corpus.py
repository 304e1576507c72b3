import hashlib
import inspect
import json
from dataclasses import asdict

import pytest

from varnamer import corpus, javalex
from varnamer.errors import (
    InvariantViolation,
    NoVariables,
    PoolExhausted,
    SchemaViolation,
)

CODE = "int f() {\n  int count = 0;\n  count++;\n  return count;\n}"


class TestAdaptRecord:
    def test_single_variable_forced_choice(self):
        record = corpus.adapt_record(CODE, rng_seed=3, name_pool=["x"])
        assert record.variable_after == "count"
        assert record.variable_before == "x"
        assert record.code_after == CODE
        assert "count" not in record.code_before

    def test_deterministic(self):
        a = corpus.adapt_record(CODE, 99, ["x", "y", "z"])
        b = corpus.adapt_record(CODE, 99, ["x", "y", "z"])
        assert a == b

    def test_pick_frequency_roughly_uniform(self):
        # seeded Monte Carlo: two variables, pick rate of each ~50%
        code = "int f() {\n  int a = 1;\n  int b = 2;\n  return a + b;\n}"
        pool = [f"name{i}" for i in range(100)]
        picks = [corpus.adapt_record(code, seed, pool).variable_after
                 for seed in range(1000)]
        share_a = picks.count("a") / len(picks)
        assert 0.45 <= share_a <= 0.55

    def test_substitution_roundtrip(self, toy_records):
        for record in toy_records:
            spans = javalex.find_identifier_occurrences(
                record.code_before, record.variable_before)
            rebuilt = javalex.substitute(record.code_before, spans, record.variable_after)
            assert rebuilt == record.code_after

    def test_no_variables(self):
        with pytest.raises(NoVariables):
            corpus.adapt_record("void f(){}", 0, ["x"])

    def test_pool_exhausted(self):
        with pytest.raises(PoolExhausted):
            corpus.adapt_record(CODE, 0, ["count", "count"])
        with pytest.raises(PoolExhausted):
            corpus.adapt_record(CODE, 0, [])


class TestFilters:
    def test_short_functions_dropped(self):
        kept, stats = corpus.filter_functions(["int x = 1;", CODE])
        assert kept == [CODE]
        assert stats["too_short"] == 1

    def test_duplicates_by_whitespace_normalization(self):
        reformatted = CODE.replace("\n", "\n\n").replace("  ", "\t")
        # reformatting must keep 3+ lines to survive the length filter
        kept, stats = corpus.filter_functions([CODE, reformatted])
        assert kept == [CODE]
        assert stats["duplicate"] == 1


class TestCorpusIo:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert corpus.load_corpus(str(path)) == []

    def test_roundtrip_preserves_order(self, tmp_path, toy_records):
        path = tmp_path / "corpus.jsonl"
        corpus.save_corpus(toy_records[:3], str(path))
        loaded = corpus.load_corpus(str(path))
        assert loaded == toy_records[:3]

    def test_equal_names_rejected(self, tmp_path):
        record = dict(
            id="r1", code_before=CODE, code_after=CODE,
            variable_before="count", variable_after="count",
            refactoring_type="RenameVariable", split="train")
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(InvariantViolation):
            corpus.load_corpus(str(path))

    def test_unknown_field_rejected(self, tmp_path, toy_records):
        obj = json.loads(json.dumps(toy_records[0].__dict__))
        obj["extra"] = 1
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaViolation) as excinfo:
            corpus.load_corpus(str(path))
        assert excinfo.value.line_no == 1

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "r1"}) + "\n")
        with pytest.raises(SchemaViolation):
            corpus.load_corpus(str(path))

    def test_bad_split_rejected(self, tmp_path, toy_records):
        obj = dict(toy_records[0].__dict__)
        obj["split"] = "dev"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaViolation):
            corpus.load_corpus(str(path))

    def test_broken_substitution_rejected(self, tmp_path, toy_records):
        obj = dict(toy_records[0].__dict__)
        obj["code_before"] = obj["code_before"] + " "
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(InvariantViolation):
            corpus.load_corpus(str(path))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(OSError):
            corpus.load_corpus(str(tmp_path / "missing.jsonl"))


def _record_line(record, **changes) -> str:
    obj = {**asdict(record), **changes}
    return json.dumps({k: v for k, v in obj.items() if v is not None})


FUNCTION_LINE = json.dumps({"code": CODE, "id": "f0"})

# (format, bad line, reason); "records" lines are built from a toy record.
BAD_LINES = [
    ("functions", "{not json", "invalid JSON: "),
    ("records", "{not json", "invalid JSON: "),
    ("functions", "[1, 2]", "line is not a JSON object"),
    ("records", "[1, 2]", "line is not a JSON object"),
    ("functions", json.dumps({"code": CODE, "extra": 1}), "unknown fields ['extra']"),
    ("records", {"extra": 1}, "unknown fields ['extra']"),
    ("functions", json.dumps({"id": "f1"}), 'expected an object with a "code" field'),
    ("functions", json.dumps({"code": 3}), '"code" must be a string'),
    ("records", {"split": None}, "missing fields ['split']"),
    ("records", {"split": "dev"}, f"split must be one of {corpus.SPLITS}"),
]


class TestOneReader:
    """Every loader reports a bad line through the one JSONL reader, with
    the file's 1-based line number, blank lines counted."""

    @pytest.mark.parametrize("kind, bad, reason", BAD_LINES)
    def test_bad_line_reported_by_every_loader(self, tmp_path, toy_records, kind, bad, reason):
        if kind == "records":
            good = _record_line(toy_records[0])
            bad = bad if isinstance(bad, str) else _record_line(toy_records[1], **bad)
            loaders = [corpus.load_corpus, corpus.load_texts]
        else:
            good = FUNCTION_LINE
            loaders = [corpus.load_functions, corpus.load_texts]
        path = tmp_path / "bad.jsonl"
        path.write_text(f"\n  \n{good}\n\n{bad}\n{good}\n")
        for loader in loaders:
            with pytest.raises(SchemaViolation) as excinfo:
                loader(str(path))
            assert excinfo.value.line_no == 5
            assert excinfo.value.reason.startswith(reason)

    @pytest.mark.parametrize("bad", ["{not json", "[1, 2]"])
    def test_a_bad_first_line_is_reported_by_load_texts(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"\n{bad}\n{FUNCTION_LINE}\n")
        with pytest.raises(SchemaViolation) as excinfo:
            corpus.load_texts(str(path))
        assert excinfo.value.line_no == 2

    def test_load_texts_reads_either_format(self, tmp_path, toy_functions, toy_records):
        functions = tmp_path / "functions.jsonl"
        functions.write_text("\n" + "".join(json.dumps({"code": code}) + "\n"
                                             for code in toy_functions[:5]))
        records = tmp_path / "records.jsonl"
        corpus.save_corpus(toy_records[:5], str(records))
        assert corpus.load_texts(str(functions)) == corpus.load_functions(str(functions)) \
            == toy_functions[:5]
        assert corpus.load_texts(str(records)) == \
            [r.code_after for r in corpus.load_corpus(str(records))]


class TestAdaptCorpus:
    def test_pool_is_picked_names(self, toy_functions):
        records, _ = corpus.adapt_corpus(toy_functions, seed=5)
        names = {r.variable_after for r in records}
        decoys = {r.variable_before for r in records}
        assert decoys <= names

    def test_splits_assigned(self, toy_functions):
        records, _ = corpus.adapt_corpus(
            toy_functions, seed=5, validation_fraction=0.2, test_fraction=0.2)
        splits = {r.split for r in records}
        assert splits == {"train", "validation", "test"}

    def test_deterministic(self, toy_functions):
        a, _ = corpus.adapt_corpus(toy_functions, seed=5)
        b, _ = corpus.adapt_corpus(toy_functions, seed=5)
        assert a == b

    def test_all_records_validate(self, toy_records):
        for record in toy_records:
            corpus.validate_record(record)

    def test_extracts_variables_once_per_function(self, toy_functions, monkeypatch):
        seen = []
        extract = javalex.extract_variables

        def counting(code):
            seen.append(code)
            return extract(code)

        monkeypatch.setattr(javalex, "extract_variables", counting)
        kept, _ = corpus.filter_functions(toy_functions)
        corpus.adapt_corpus(toy_functions, seed=7)
        assert seen == kept

    def test_adapt_record_keeps_its_signature(self):
        params = inspect.signature(corpus.adapt_record).parameters
        assert list(params) == ["code", "rng_seed", "name_pool", "record_id", "split"]
        assert params["record_id"].default is None
        assert params["split"].default == "train"

    def test_records_equal_adapt_record_per_function(self, toy_functions):
        records, stats = corpus.adapt_corpus(toy_functions, seed=7)
        assert stats["no_variables"] == 0 and "pool_exhausted" not in stats
        base = corpus.SplitMix64(7)
        seeds = [base.next() for _ in toy_functions]
        pool = list(dict.fromkeys(r.variable_after for r in records))
        for record in records:
            idx = int(record.id)
            assert record == corpus.adapt_record(
                toy_functions[idx], seeds[idx], pool, record_id=record.id, split=record.split)

    def test_records_are_unchanged(self, toy_functions):
        # sha256 of the records that the two-pass, two-lex adapt_corpus made
        records, _ = corpus.adapt_corpus(toy_functions, seed=7)
        dump = json.dumps([asdict(r) for r in records]).encode("utf-8")
        assert hashlib.sha256(dump).hexdigest() == (
            "50d6f9f6a0c4354387ce0fc4343e91edde264b401cf3e15d5828ceed30111f5d")
