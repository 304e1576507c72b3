"""Tests of the benchmark itself, on tiny inputs: every workload reports
every metric, the traced run reproduces the untraced outputs, and the
metric lists agree with BENCHMARK.json."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench_workloads as bw  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from varnamer import inference  # noqa: E402


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, tmp_path):
    result = bw.run(workload, seed=3, seconds=0, trace=False, size="tiny",
                    out_dir=str(tmp_path))
    line = bw.result_line(result)
    assert line["correct"], result["checks_failed"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == dict(bw.END_TO_END)
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in line["metrics"].values())
    report = "\n".join(bw.report_lines(result))
    for name, unit in bw.END_TO_END + bw.REPORTED:
        assert name in report
    assert result["repetitions"] >= 2
    json.dumps(line)


def test_traced_run_matches_untraced(tmp_path):
    plain = bw.run("train-short", seed=5, seconds=0, trace=False, size="tiny",
                   out_dir=str(tmp_path))
    traced = bw.run("train-short", seed=5, seconds=0, trace=True, size="tiny",
                    out_dir=str(tmp_path))
    # The traced run alternates untraced and traced repetitions and checks
    # that their digests agree; the digest must also match a plain run.
    assert traced["correct"], traced["checks_failed"]
    assert traced["digest"] == plain["digest"]
    line = bw.result_line(traced)
    assert {n: m["unit"] for n, m in line["metrics"].items()} == dict(bw.PER_LAYER)
    values = {n: m["value"] for n, m in line["metrics"].items()}
    for name in ("model.forward.calls", "autodiff.nodes", "autodiff.matmul.calls",
                 "autodiff.bwd.matmul.s", "training.adam_update.calls",
                 "bpe.encode.bytes", "model.save_checkpoint.bytes"):
        assert values[name] > 0, name
    assert Path(traced["spans"]["path"]).is_file()


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    inner = tracer.total["inner"]
    assert tracer.calls["outer"] == 1
    assert tracer.self_time["outer"] == pytest.approx(tracer.total["outer"] - inner)
    assert list(tracer.span_parent) == [-1, 0]


def test_tracer_uninstall_restores_functions():
    from varnamer import autodiff, model

    forward, matmul, backward = model.forward, autodiff.matmul, autodiff.Tensor.backward
    tracer = Tracer()
    tracer.install()
    assert model.forward is not forward
    tracer.uninstall()
    assert (model.forward, autodiff.matmul, autodiff.Tensor.backward) == (
        forward, matmul, backward)


@pytest.mark.parametrize("seed", [8, 24])
def test_every_served_variable_occurs_in_the_window(seed):
    # Seeds whose long served methods once had a loop variable first used
    # only past the window, which made suggest raise NameTruncated.
    from varnamer import bpe, masking

    sz = bw.SIZES["train-long"]["full"]
    data = bw.make_corpus(seed, sz)
    vocab = bpe.train_bpe([r.code_after for r in data.train + data.held_out],
                          sz.vocab_size, camel_split=True)
    for record in data.held_out:
        masking.masked_sequence(vocab, record.code_before, record.variable_before,
                                masking.SCHEME_CMLM, bw.MAX_NAME_TOKENS, sz.max_seq_len)


def test_bad_suggestion_fails_the_check():
    repeated = inference.Suggestion(name="itemitem", sub_tokens=["item", "item"],
                                    length_used=2, slot_candidates=[])
    with pytest.raises(bw.CheckFailed):
        bw._check_suggestion(repeated)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bw.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bw.PER_LAYER


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
