"""Artifact writers replace their file atomically: a write that fails
midway leaves the previous file byte-identical and no temporary file."""

import os

import pytest

from varnamer import baseline, metrics, training


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


def _report(desk_vocab, toy_records, fail):
    rows = [metrics.ExampleResult(record_id, "fooBar", "fooBaz", 1, 1, 0.5, 0, 1, 14.3)
            for record_id in ("r1", Unprintable() if fail else "r2")]
    report = metrics.EvalReport(
        dataset="d", evaluated=len(rows), excluded=0, hit_at_1=1.0, hit_at_3=1.0,
        accuracy=0.5, exact_match=0.0, mean_token_ed=1.0, mean_cer=14.3, rows=rows)
    return report.write_csv


def _training_log(desk_vocab, toy_records, fail):
    history = [{"epoch": 0.0, "step": 2.0, "loss": 1.5},
               {"epoch": 1.0, "step": 4.0, "loss": Unprintable() if fail else 1.25}]
    return lambda path: training._write_log(path, history)


@pytest.mark.parametrize("writer", [_ngram, _report, _training_log],
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
