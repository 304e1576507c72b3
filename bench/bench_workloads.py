"""The benchmark's workloads, their correctness checks and their metrics.

Every repetition runs the pipeline a user runs through the ``varnamer``
API: tokenizer training, the three training stages with checkpoints
written every epoch, reloading the trained model, and serving held-out
methods with it (``suggest`` in a closed loop with one client,
evaluation, and the two baselines). The workloads differ in their inputs
and in where the time goes:

- ``train-short``: many short methods. Per-op autodiff overhead, the
  fixed Adam cost per step and checkpoint writes are the large costs.
- ``train-long``: long methods whose lengths straddle ``max_seq_len``;
  matmul/softmax and BPE encoding dominate, and late target names fall
  past the window, so the dataset builders exclude them.

A run repeats the workload until ``seconds`` have passed and reports
medians over the repetitions. Set-up (generating and adapting the
corpus) also runs several times, spread over the same window, and
``setup_s`` is the median. Every repetition of one seed must produce the
same outputs, checked by digest.

The traced run (``--trace 1``) alternates untraced and traced
repetitions, so it can report the tracing overhead and check that tracing
leaves the outputs unchanged. Its per-layer figures are for one traced
set-up plus one traced repetition.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bench_corpus import generate_methods
from bench_trace import COMPOSITE_OPS, LEAF_OPS, Tracer
from varnamer import baseline, bpe, corpus, inference, metrics, model, training
from varnamer.errors import VarnamerError

MAX_NAME_TOKENS = 5
EPOCHS = 1          # per training stage
# Tokenizer training is short, so each pipeline trains it this many times
# (on the same texts) to give the median more samples.
TOKENIZER_SAMPLES = 3
STAGES = (
    # (metric prefix, stage function, dataset builder, checkpoint stem)
    ("pretrain", "pretrain", "build_cmlm_dataset", "pretrain"),
    ("lp", "finetune_lp", "build_num_dataset", "finetune-lp"),
    ("tg", "finetune_tg", "build_tg_dataset", "finetune-tg"),
)

# End-to-end metrics the result line carries, with their units.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pretrain_tok_per_s", "tok/s"),
    ("lp_tok_per_s", "tok/s"),
    ("tg_tok_per_s", "tok/s"),
    ("suggest_p50_ms", "ms"),
    ("suggest_p95_ms", "ms"),
    ("evaluate_rec_per_s", "rec/s"),
]
# Printed with the others but not bounded. failed_frac is zero on these
# inputs; the quality figures depend on the seed more than any bound
# allows after one epoch; and the tokenizer and baseline timings, mostly
# pure Python, swing with the load of a shared machine by more than the
# largest bound (quartile spreads up to 0.29 over ten seeds on a 2-core VM).
REPORTED = [
    ("failed_frac", "frac"),
    ("tg_loss_final", "loss"),
    ("eval_exact_match", "frac"),
    ("eval_hit_at_1", "frac"),
    ("tokenizer_train_s", "s"),
    ("baseline_eval_rec_per_s", "rec/s"),
]

_MODULE_TIMES = [
    "model.forward", "model.token_probs", "model.length_probs",
    "model.pool_name_representation", "model.save_checkpoint",
    "model.load_checkpoint", "training.adam_update", "training.build_dataset",
    "losses.cmlm", "losses.lp", "losses.bot", "losses.cl", "bpe.encode",
    "bpe.train", "masking.masked_sequence", "masking.encode_with_positions",
    "javalex.find_identifier_occurrences", "inference.suggest",
    "inference.decode_unique", "metrics.evaluate_corpus",
    "baseline.ngram_suggest", "baseline.heuristic_lp", "corpus.adapt_corpus",
]
_MODULE_CALLS = [
    "model.forward", "training.adam_update", "bpe.encode",
    "javalex.find_identifier_occurrences", "inference.suggest",
    "metrics.evaluate_corpus", "baseline.heuristic_lp",
]
_COUNTERS = [
    ("autodiff.nodes", "count"), ("model.forward.tokens", "count"),
    ("model.save_checkpoint.bytes", "bytes"), ("bpe.encode.bytes", "bytes"),
    ("training.excluded.truncated", "count"), ("training.excluded.too_long", "count"),
    ("losses.clamp_warnings", "count"),
]
# Traced but not reported: no code path of the package calls these ops.
_UNUSED_OPS = ("sum_axis", "divide")
_OPS = [op for op in LEAF_OPS + COMPOSITE_OPS if op not in _UNUSED_OPS]
PER_LAYER = (
    [(f"autodiff.fwd.{op}.s", "s") for op in _OPS]
    + [(f"autodiff.bwd.{op}.s", "s") for op in LEAF_OPS if op not in _UNUSED_OPS]
    + [(f"autodiff.{op}.calls", "count") for op in _OPS]
    + [("autodiff.backward.s", "s")]
    + [(f"{name}.s", "s") for name in _MODULE_TIMES]
    + [(f"{name}.calls", "count") for name in _MODULE_CALLS]
    + _COUNTERS
    + [("trace.overhead_frac", "frac")]
)


# --- sizes -------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    train_methods: int
    held_out_methods: int         # served methods, never trained on
    vars_range: tuple[int, int]
    statements_range: tuple[int, int]
    declare_first: bool           # training methods declare all locals first
    vocab_size: int
    max_seq_len: int
    hidden_dim: int
    num_layers: int
    batch_size: int
    evaluate_n: int               # held-out records evaluated per repetition
    baseline_n: int
    setups: int


_TINY = dict(vocab_size=300, max_seq_len=96, hidden_dim=16, num_layers=1,
             batch_size=4, evaluate_n=2, baseline_n=1, setups=2)
SIZES = {
    "train-short": {
        "full": Sizes(train_methods=20, held_out_methods=40, vars_range=(1, 1),
                      statements_range=(1, 1), declare_first=True, vocab_size=600,
                      max_seq_len=128, hidden_dim=128, num_layers=2,
                      batch_size=10, evaluate_n=16, baseline_n=4, setups=9),
        "tiny": Sizes(train_methods=8, held_out_methods=3, vars_range=(1, 1),
                      statements_range=(1, 1), declare_first=True, **_TINY),
    },
    "train-long": {
        "full": Sizes(train_methods=6, held_out_methods=40, vars_range=(3, 6),
                      statements_range=(6, 13), declare_first=False, vocab_size=600,
                      max_seq_len=256, hidden_dim=128, num_layers=2,
                      batch_size=3, evaluate_n=4, baseline_n=2, setups=9),
        "tiny": Sizes(train_methods=6, held_out_methods=2, vars_range=(3, 6),
                      statements_range=(6, 13), declare_first=False, **_TINY),
    },
}
WORKLOADS = tuple(SIZES)


class CheckFailed(Exception):
    """A benchmark correctness check failed."""


# --- the pipeline -------------------------------------------------------------

@dataclass
class Corpus:
    train: list
    held_out: list      # held-out records the served model is asked about


def make_corpus(seed: int, sz: Sizes) -> Corpus:
    train_methods = generate_methods(
        seed, sz.train_methods, sz.vars_range, sz.statements_range, sz.declare_first)
    # Served methods declare their locals first, so every target name occurs
    # inside the model window and no request fails; later occurrences still
    # fall past it.
    held_out_methods = generate_methods(
        seed + 1_000_003, sz.held_out_methods, sz.vars_range, sz.statements_range, True)
    train, _ = corpus.adapt_corpus(train_methods, seed, validation_fraction=0.0,
                                   test_fraction=0.0)
    held_out, _ = corpus.adapt_corpus(held_out_methods, seed, validation_fraction=0.0,
                                      test_fraction=1.0)
    return Corpus(train=train, held_out=held_out)


def _train_config(seed: int, sz: Sizes) -> training.TrainConfig:
    return training.TrainConfig(
        max_epochs=EPOCHS, batch_size=sz.batch_size, seed=seed,
        max_seq_len=sz.max_seq_len, max_name_tokens=MAX_NAME_TOKENS)


def _count_tokens(vocab, records, config, builder: str) -> int:
    examples, _ = getattr(training, builder)(vocab, records, config)
    return sum(len(ex.masked.input_ids if builder == "build_tg_dataset" else ex.input_ids)
               for ex in examples)


def train_pipeline(seed: int, sz: Sizes, data: Corpus, work: str, obs: dict,
                   token_counts: dict) -> tuple:
    """Tokenizer training, then the three stages with checkpoints.

    Adds stage timings to ``obs``; returns (checkpoint path, vocabulary
    path, n-gram model, TG loss history). ``token_counts`` caches the input
    tokens per stage, which depend only on the seed, so that the
    benchmark's own dataset builds run once and outside any trace.
    """
    # The tokenizer sees every method of the workload, served ones too, as a
    # deployed tokenizer trained on a large corpus would.
    texts = [r.code_after for r in data.train + data.held_out]
    obs["tokenizer_train_s"] = []
    vocabs = []
    for _ in range(TOKENIZER_SAMPLES):
        start = time.perf_counter()
        vocabs.append(bpe.train_bpe(texts, sz.vocab_size, camel_split=True))
        obs["tokenizer_train_s"].append(time.perf_counter() - start)
    vocab = vocabs[0]
    if any(v.merges != vocab.merges for v in vocabs):
        raise CheckFailed("tokenizer training on the same texts gave different merges")
    config = model.ModelConfig(
        vocab_size=vocab.size, num_layers=sz.num_layers, hidden_dim=sz.hidden_dim,
        num_heads=4, ffn_dim=4 * sz.hidden_dim, max_seq_len=sz.max_seq_len,
        max_name_tokens=MAX_NAME_TOKENS)
    params = model.init_params(config, seed)
    tcfg = _train_config(seed, sz)
    for prefix, stage, builder, stem in STAGES:
        if stage not in token_counts:
            token_counts[stage] = _count_tokens(vocab, data.train, tcfg, builder)
        tokens = token_counts[stage]
        out_dir = os.path.join(work, stem)
        start = time.perf_counter()
        result = getattr(training, stage)(tcfg, params, data.train, vocab, out_dir=out_dir)
        obs[f"{prefix}_tok_per_s"] = tokens * len(result.history) / (time.perf_counter() - start)
    history = [row["loss"] for row in result.history]
    obs["tg_loss_final"] = history[-1]
    vocab_path = os.path.join(work, "vocab.txt")
    bpe.save_vocab(vocab, vocab_path)
    checkpoint = os.path.join(out_dir, f"{stem}-epoch{len(result.history) - 1}.rfbt")
    ngram = baseline.train_ngram(data.train, vocab)
    return checkpoint, vocab_path, ngram, history


def _check_suggestion(suggestion: inference.Suggestion) -> None:
    g = suggestion.length_used
    if not 1 <= g <= MAX_NAME_TOKENS:
        raise CheckFailed(f"length_used {g} outside 1..{MAX_NAME_TOKENS}")
    if len(suggestion.sub_tokens) != g or len(set(suggestion.sub_tokens)) != g:
        raise CheckFailed(f"{suggestion.sub_tokens} are not {g} distinct sub-tokens")
    if suggestion.name != "".join(suggestion.sub_tokens):
        raise CheckFailed(f"name {suggestion.name!r} is not its sub-tokens joined")


_RATES = ("hit_at_1", "hit_at_3", "accuracy", "exact_match")


def _check_rates(report: metrics.EvalReport) -> None:
    for key in _RATES:
        value = getattr(report, key)
        if value is not None and not 0.0 <= value <= 1.0:
            raise CheckFailed(f"evaluation rate {key}={value} outside [0, 1]")


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


def serve_pass(checkpoint: str, vocab_path: str, ngram, sz: Sizes, data: Corpus,
               obs: dict, counts: Counts) -> dict:
    """Reload the model and serve the held-out records; returns the outputs."""
    params = model.load_checkpoint(checkpoint)
    vocab = bpe.load_vocab(vocab_path)
    records = data.held_out
    outputs: dict = {"suggest": [], "evaluate": [], "baseline": []}

    latencies = []
    for record in records:
        counts.attempted += 1
        start = time.perf_counter()
        try:
            suggestion = inference.suggest(params, vocab, record.code_before,
                                           record.variable_before)
        except VarnamerError as exc:
            counts.failed += 1
            outputs["suggest"].append([record.id, type(exc).__name__])
            continue
        latencies.append(time.perf_counter() - start)
        _check_suggestion(suggestion)
        outputs["suggest"].append([record.id, suggestion.name, suggestion.length_used])
    obs["suggest_latencies"] = latencies

    # One record per evaluate_corpus call: a whole-corpus call aborts at the
    # first record that raises, and each such record is one failed operation.
    predictors = {
        "evaluate": (inference.ModelPredictor(params, vocab), sz.evaluate_n),
        "baseline": (baseline.CompositePredictor(
            baseline.HeuristicLengthPredictor(params, vocab),
            baseline.NgramPredictor(ngram, vocab)), sz.baseline_n),
    }
    for key, (predictor, n) in predictors.items():
        chosen = _spread(records, n)
        start = time.perf_counter()
        for record in chosen:
            counts.attempted += 1
            try:
                report = metrics.evaluate_corpus(predictor, [record], vocab, MAX_NAME_TOKENS)
            except VarnamerError as exc:
                counts.failed += 1
                outputs[key].append([record.id, type(exc).__name__])
                continue
            _check_rates(report)
            outputs[key].extend(dataclasses.astuple(row) for row in report.rows)
        obs[f"{key}_s"] = time.perf_counter() - start
        obs[f"{key}_n"] = len(chosen)
    return outputs


def _spread(records: list, n: int) -> list:
    """``n`` records taken evenly across the list, which is ordered by size."""
    n = min(n, len(records))
    return [records[i * len(records) // n] for i in range(n)]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


# --- one run -------------------------------------------------------------------

def _repetition(seed: int, sz: Sizes, data: Corpus, work: str, counts: Counts,
                token_counts: dict) -> tuple[dict, dict]:
    """Returns (observations, outputs)."""
    obs: dict = {}
    counts.attempted += len(STAGES)
    checkpoint, vocab_path, ngram, history = train_pipeline(
        seed, sz, data, work, obs, token_counts)
    outputs = serve_pass(checkpoint, vocab_path, ngram, sz, data, obs, counts)
    outputs["tg_loss_history"] = history
    return obs, outputs


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        out_dir: str | None = None) -> dict:
    """Run one workload; returns the full result (see ``result_line``)."""
    sz = SIZES[name][size]
    bench_dir = Path(__file__).resolve().parent
    out_dir = out_dir or str(bench_dir / "out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        return _run(name, seed, seconds, trace, sz, out_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(name, seed, seconds, trace, sz, out_dir, scratch) -> dict:
    counts = Counts()
    token_counts: dict = {}
    checks: list[str] = []

    setup_times: list[float] = []

    def set_up() -> Corpus:
        start = time.perf_counter()
        data = make_corpus(seed, sz)
        setup_times.append(time.perf_counter() - start)
        return data

    window_start = time.perf_counter()
    data = set_up()
    tracer = Tracer() if trace else None
    setup_layers = None
    if tracer is not None:
        with tracer.active("bench.setup"):
            make_corpus(seed, sz)
        setup_layers = _snapshot(tracer)
        tracer.reset()

    # Repetitions run until the window is spent. The remaining set-ups are
    # spread evenly over the window, so that they meet the same machine
    # conditions as the repetitions do.
    reps: list[dict] = []
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        work = os.path.join(scratch, f"rep{len(reps)}")
        start = time.perf_counter()
        with tracer.active("bench.repetition") if traced else contextlib.nullcontext():
            obs, outputs = _repetition(seed, sz, data, work, counts, token_counts)
        reps.append({"s": time.perf_counter() - start, "traced": traced, "obs": obs,
                     "digest": digest(outputs)})
        shutil.rmtree(work, ignore_errors=True)
        elapsed = time.perf_counter() - window_start
        if len(reps) >= 2 and elapsed + max(r["s"] for r in reps) > seconds:
            break
        if len(setup_times) < sz.setups and elapsed >= len(setup_times) * seconds / sz.setups:
            set_up()
    while len(setup_times) < sz.setups:
        set_up()

    if len({r["digest"] for r in reps}) != 1:
        checks.append("repetitions of one seed produced different outputs"
                      + (" (traced vs untraced)" if trace else ""))

    plain = [r for r in reps if not r["traced"]]
    training_obs = [r["obs"] for r in plain]
    latencies = [t for r in plain for t in r["obs"]["suggest_latencies"]]
    values = {
        "setup_s": _median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tokenizer_train_s": _median([t for o in training_obs for t in o["tokenizer_train_s"]]),
        "suggest_p50_ms": float(np.percentile(latencies, 50)) * 1000.0,
        "suggest_p95_ms": float(np.percentile(latencies, 95)) * 1000.0,
        "evaluate_rec_per_s": _median([r["obs"]["evaluate_n"] / r["obs"]["evaluate_s"]
                                       for r in plain]),
        "baseline_eval_rec_per_s": _median([r["obs"]["baseline_n"] / r["obs"]["baseline_s"]
                                            for r in plain]),
        "failed_frac": counts.failed / counts.attempted,
        "tg_loss_final": training_obs[0]["tg_loss_final"],
    }
    for prefix, *_ in STAGES:
        values[f"{prefix}_tok_per_s"] = _median([o[f"{prefix}_tok_per_s"] for o in training_obs])
    values.update(_eval_rates(outputs))   # outputs of the last repetition

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "environment": environment(),
        "correct": not checks, "checks_failed": checks,
        "attempted": counts.attempted, "failed": counts.failed,
        "repetitions": len(reps), "setups": len(setup_times),
        "repetition_s": [r["s"] for r in reps], "setup_times_s": setup_times,
        "suggest_samples": len(latencies),
        "digest": reps[0]["digest"],
        "values": values,
    }
    if tracer is not None:
        traced_reps = [r for r in reps if r["traced"]]
        layers = _snapshot(tracer)
        per_rep = dict(setup_layers)
        for key, value in layers.items():
            per_rep[key] = per_rep.get(key, 0.0) + value / len(traced_reps)
        per_rep["trace.overhead_frac"] = (
            _median([r["s"] for r in traced_reps]) / _median([r["s"] for r in plain]) - 1.0)
        result["per_layer"] = per_rep
        result["layer_table"] = tracer.layer_table()
        spans_path = os.path.join(out_dir, f"spans-{name}.npz")
        result["spans"] = {"path": spans_path, "count": tracer.write_spans(spans_path)}
    return result


def _eval_rates(outputs: dict) -> dict:
    """Model quality over the evaluated records of one repetition."""
    rows = [row for row in outputs["evaluate"] if len(row) > 2]
    fields = [f.name for f in dataclasses.fields(metrics.ExampleResult)]
    em = [row[fields.index("exact_match")] for row in rows]
    hit = [row[fields.index("hit1")] for row in rows]
    return {"eval_exact_match": sum(em) / len(em) if em else 0.0,
            "eval_hit_at_1": sum(hit) / len(hit) if hit else 0.0}


def _snapshot(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the tracer's aggregates. Autodiff forward times
    are self times (a composite op's span contains the ops it calls); all
    other times include the calls they make."""
    values: dict[str, float] = {}
    for name, calls in tracer.calls.items():
        if name.startswith("autodiff.fwd."):
            op = name[len("autodiff.fwd."):]
            values[f"{name}.s"] = tracer.self_time[name]
            values[f"autodiff.{op}.calls"] = float(calls)
        else:
            values[f"{name}.s"] = tracer.total[name]
            values[f"{name}.calls"] = float(calls)
    values.update({k: float(v) for k, v in tracer.counts.items()})
    return values


# --- reporting -------------------------------------------------------------------

def environment() -> dict:
    import scipy

    root = Path(__file__).resolve().parent.parent
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info is not stable
        blas_name = "unknown"
    source = hashlib.sha256()
    for path in sorted((root / "src" / "varnamer").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": _git_revision(root),
        "source_sha256": source.hexdigest(),
    }


def _git_revision(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def result_line(result: dict) -> dict:
    """The last line the benchmark prints: end-to-end metrics, or with
    tracing on, the per-layer metrics."""
    if result["trace"]:
        chosen = [(n, u, result["per_layer"].get(n, 0.0)) for n, u in PER_LAYER]
    else:
        chosen = [(n, u, result["values"][n]) for n, u in END_TO_END]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, u, v in chosen},
    }


def report_lines(result: dict) -> list[str]:
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"trace {int(result['trace'])}  repetitions {result['repetitions']}  "
             f"set-ups {result['setups']}  suggest samples {result['suggest_samples']}"]
    lines += [f"  env {k}: {v}" for k, v in result["environment"].items()]
    lines.append("  set-up s: " + " ".join(f"{t:.3f}" for t in result["setup_times_s"]))
    lines.append("  repetition s: " + " ".join(f"{t:.3f}" for t in result["repetition_s"]))
    for name, unit in END_TO_END + REPORTED:
        lines.append(f"  {name:<26} {result['values'][name]:>14.6g} {unit}")
    if result["trace"]:
        lines.append(f"  spans: {result['spans']['count']} -> {result['spans']['path']}")
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<46} {result['per_layer'].get(name, 0.0):>14.6g} {unit}")
    lines.append(f"  attempted {result['attempted']}  failed {result['failed']}  "
                 f"digest {result['digest'][:16]}")
    for check in result["checks_failed"]:
        lines.append(f"  CHECK FAILED: {check}")
    return lines
