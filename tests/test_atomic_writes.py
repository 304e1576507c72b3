"""Artifact writers replace their file atomically: a write that fails
midway leaves the previous file byte-identical and no temporary file."""

import dataclasses
import os

import pytest

from varnamer import baseline, fileio, metrics


class Unprintable:
    """A value whose text form fails, so a writer fails after writing some lines."""

    def __str__(self):
        raise OSError("disk full")


def _ngram(desk_vocab, toy_records, fail):
    ngram = baseline.train_ngram(toy_records[:6], desk_vocab, n=2)
    if fail:
        signature = next(iter(ngram.candidate_names))
        ngram.candidate_names[signature].add(Unprintable())
    return lambda path: baseline.save_ngram(ngram, path)


def _rows_failing_after_first(rows, fail):
    """Yield ``rows``, raising after the first one when ``fail`` is set."""
    for index, row in enumerate(rows):
        if fail and index == 1:
            raise OSError("disk full")
        yield row


def _report_rows(desk_vocab, toy_records, fail):
    # The evaluation rows, per_example.jsonl (a csv file before; the case id kept).
    rows = [metrics.ExampleResult(record_id, "fooBar", "fooBaz", 1, 1, 0.5, 0, 1, 14.3)
            for record_id in ("r1", "r2")]
    return lambda path: fileio.write_jsonl(
        path, _rows_failing_after_first((dataclasses.asdict(row) for row in rows), fail))


def _training_log(desk_vocab, toy_records, fail):
    # A stage's <stage>-log.jsonl.
    history = [{"epoch": 0.0, "step": 2.0, "loss": 1.5},
               {"epoch": 1.0, "step": 4.0, "loss": 1.25}]
    return lambda path: fileio.write_jsonl(path, _rows_failing_after_first(history, fail))


@pytest.mark.parametrize("writer", [_ngram, _report_rows, _training_log],
                         ids=["ngram", "report_csv", "training_log"])
def test_failed_write_keeps_previous_file(writer, desk_vocab, toy_records, tmp_path):
    path = tmp_path / "artifact.txt"
    writer(desk_vocab, toy_records, fail=False)(str(path))
    before = path.read_bytes()
    assert before
    with pytest.raises(OSError, match="disk full"):
        writer(desk_vocab, toy_records, fail=True)(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact.txt"]
