"""Command-line entry point: corpus building, tokenizer and model training,
evaluation, baselines, one-shot suggestions, sweeps and gradient checks.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure. Machine-readable results go to stdout, diagnostics to stderr.
Every artifact-producing run writes a manifest next to its outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__, baseline, bpe, corpus, gradcheck, inference, metrics, model, training
from .errors import (
    NonFiniteGradient,
    NonFiniteLoss,
    ShapeMismatch,
    UsageError,
    VarnamerError,
)
from .fileio import atomic_write

logger = logging.getLogger(__name__)

GRADCHECK_TOLERANCE = 1e-4
SWEEP_PARAMETERS = ("lambda_cmlm", "lambda_bot", "lambda_cl", "tau", "lmax")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="varnamer", description=__doc__)
    parser.add_argument("--print-config", action="store_true",
                        help="print the default training config and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, *names):
        if "config" in names:
            p.add_argument("--config", help="training config file (key = value)")
        if "seed" in names:
            p.add_argument("--seed", type=int, default=0)
        if "data" in names:
            p.add_argument("--data", required=True, help="input JSONL path")
        if "model" in names:
            p.add_argument("--model", required=True, help="checkpoint path")
        if "vocab" in names:
            p.add_argument("--vocab", help="vocabulary file (default: sibling of --model)")
        if "out" in names:
            p.add_argument("--out", help="output directory")
        if "lambdas" in names:
            p.add_argument("--lambda-cmlm", type=float, dest="lambda_cmlm")
            p.add_argument("--lambda-bot", type=float, dest="lambda_bot")
            p.add_argument("--lambda-cl", type=float, dest="lambda_cl")
            p.add_argument("--tau", type=float)
        if "lmax" in names:
            p.add_argument("--lmax", type=int, help="maximum sub-tokens per name")

    p = sub.add_parser("build-corpus", help="adapt plain functions into rename records")
    common(p, "data", "seed", "out")
    p.add_argument("--validation-fraction", type=float, default=0.1)
    p.add_argument("--test-fraction", type=float, default=0.1)

    p = sub.add_parser("train-tokenizer", help="learn a subword vocabulary")
    common(p, "data", "out")
    p.add_argument("--vocab-size", type=int, default=4096)
    p.add_argument("--camel-split", action="store_true")

    for name in ("pretrain", "finetune-lp", "finetune-tg"):
        p = sub.add_parser(name, help=f"{name} on a rename corpus")
        common(p, "data", "seed", "out", "config", "lambdas")
        p.add_argument("--lmax", type=int,
                       help="maximum sub-tokens per name; resizes the checkpoint's "
                            "length head, which is kept as it is when not given")
        p.add_argument("--vocab", required=True)
        p.add_argument("--model", help="checkpoint to continue from (pretrain: optional)")
        if name == "pretrain":   # the one command that creates a model
            p.add_argument("--layers", type=int, default=2)
            p.add_argument("--hidden-dim", type=int, default=128)
            p.add_argument("--heads", type=int, default=4)
            p.add_argument("--ffn-dim", type=int, default=512)
            p.add_argument("--max-seq-len", type=int, default=512)

    p = sub.add_parser("evaluate", help="run all metrics over a dataset")
    common(p, "data", "model", "vocab", "out", "lmax")

    p = sub.add_parser("suggest", help="suggest a rename for one variable")
    common(p, "model", "vocab")
    p.add_argument("--code", required=True, help="file containing the function")
    p.add_argument("--var", required=True, help="variable to rename")

    p = sub.add_parser("baseline-eval", help="evaluate the two baselines")
    common(p, "data", "model", "vocab", "out", "lmax")
    p.add_argument("--train-data", required=True, help="records to fit the n-gram model")
    p.add_argument("--ngram-n", type=int, default=3)
    p.add_argument("--smoothing", type=float, default=0.01)
    p.add_argument("--k", type=int, default=5, help="suggestions per record")

    p = sub.add_parser("gradcheck", help="check analytic gradients on a toy model")
    common(p, "seed")
    p.add_argument("--epsilon", type=float, default=gradcheck.DEFAULT_EPSILON)
    p.add_argument("--coords", type=int, default=200)

    p = sub.add_parser("sweep", help="finetune-tg + evaluate across parameter values")
    common(p, "data", "model", "out", "config", "seed")
    p.add_argument("--vocab", required=True)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--values", required=True, help="comma-separated values")
    return parser


# --- helpers -----------------------------------------------------------------

def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _numeric_environment() -> dict:
    """The numpy version, its BLAS and the BLAS thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):   # the build-info layout is not stable
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# The arithmetic of a training run, as its manifest records it.
TRAINING_PRECISION = {"compute": np.dtype(training.COMPUTE_DTYPE).name,
                      "master": np.dtype(training.MASTER_DTYPE).name}


def _write_manifest(out_dir: str, command: str, args: argparse.Namespace,
                    inputs: list[str], config_text: str | None = None,
                    model_dtype: str | None = None,
                    training_precision: dict | None = None) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "arguments": {k: v for k, v in vars(args).items() if k != "command"},
        "inputs": {path: _digest(path) for path in inputs if path and os.path.exists(path)},
        "config": config_text,
        "numeric_environment": _numeric_environment(),
    }
    if model_dtype is not None:
        manifest["model_dtype"] = model_dtype
    if training_precision is not None:
        manifest["training_precision"] = training_precision
    os.makedirs(out_dir, exist_ok=True)
    with atomic_write(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _write_report(args, command: str, report: metrics.EvalReport, inputs: list[str],
                  params: model.ModelParams) -> None:
    """Write an evaluation's report.json, per_example.csv and manifest."""
    os.makedirs(args.out, exist_ok=True)
    with atomic_write(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    report.write_csv(os.path.join(args.out, "per_example.csv"))
    _write_manifest(args.out, command, args, inputs, model_dtype=str(params.dtype))


def _resolve_vocab(args) -> str:
    if getattr(args, "vocab", None):
        return args.vocab
    model_path = getattr(args, "model", None)
    if model_path:
        stem = os.path.splitext(model_path)[0]
        for candidate in (stem + ".vocab", os.path.join(os.path.dirname(model_path) or ".", "vocab.txt")):
            if os.path.exists(candidate):
                return candidate
    raise UsageError("--vocab not given and no sibling vocabulary file found")


def _train_config(args) -> training.TrainConfig:
    config = (training.TrainConfig.from_file(args.config)
              if getattr(args, "config", None) else training.TrainConfig())
    overrides = {
        "seed": getattr(args, "seed", None),
        "lambda_cmlm": getattr(args, "lambda_cmlm", None),
        "lambda_bot": getattr(args, "lambda_bot", None),
        "lambda_cl": getattr(args, "lambda_cl", None),
        "tau": getattr(args, "tau", None),
        "max_name_tokens": getattr(args, "lmax", None),
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    config.validate()
    return config


def _load_model(model_path: str, vocab_path: str) -> tuple[model.ModelParams, bpe.SubwordVocab]:
    """Load a checkpoint and the vocabulary it is used with; raises
    ShapeMismatch when their vocabulary sizes differ."""
    vocab = bpe.load_vocab(vocab_path)
    params = model.load_checkpoint(model_path)
    if params.config.vocab_size != vocab.size:
        raise ShapeMismatch(
            f"vocabulary {vocab_path} has {vocab.size} tokens but checkpoint "
            f"{model_path} was built for vocab_size {params.config.vocab_size}")
    return params, vocab


def _init_model(args, vocab, config: training.TrainConfig) -> model.ModelParams:
    model_config = model.ModelConfig(
        vocab_size=vocab.size,
        num_layers=args.layers,
        hidden_dim=args.hidden_dim,
        num_heads=args.heads,
        ffn_dim=args.ffn_dim,
        max_seq_len=args.max_seq_len,
        max_name_tokens=config.max_name_tokens,
        dropout=config.dropout,
    )
    return model.init_params(model_config, config.seed)


# --- subcommands -------------------------------------------------------------

def _cmd_build_corpus(args) -> int:
    functions = corpus.load_functions(args.data)
    records, stats = corpus.adapt_corpus(
        functions, args.seed,
        validation_fraction=args.validation_fraction,
        test_fraction=args.test_fraction)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "corpus.jsonl")
    corpus.save_corpus(records, out_path)
    _write_manifest(out_dir, "build-corpus", args, [args.data])
    print(json.dumps({"records": len(records), "stats": stats, "path": out_path}))
    return 0


def _cmd_train_tokenizer(args) -> int:
    texts = corpus.load_texts(args.data)
    vocab = bpe.train_bpe(texts, args.vocab_size, camel_split=args.camel_split)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "vocab.txt")
    bpe.save_vocab(vocab, out_path)
    _write_manifest(out_dir, "train-tokenizer", args, [args.data])
    print(json.dumps({"vocab_size": vocab.size, "merges": len(vocab.merges),
                      "path": out_path}))
    return 0


def _cmd_train(args, stage: str) -> int:
    config = _train_config(args)
    if args.model:
        params, vocab = _load_model(args.model, args.vocab)
    elif stage != "pretrain":
        raise UsageError(f"{stage} requires --model (a pretrained checkpoint)")
    else:
        vocab = bpe.load_vocab(args.vocab)
        params = _init_model(args, vocab, config)
    records = corpus.load_corpus(args.data)
    if args.lmax is not None:
        model.resize_length_head(params, args.lmax, config.seed)
    runner = {"pretrain": training.pretrain,
              "finetune-lp": training.finetune_lp,
              "finetune-tg": training.finetune_tg}[stage]
    out_dir = args.out or "."
    result = runner(config, params, records, vocab, out_dir=out_dir)
    final_path = os.path.join(out_dir, f"{stage}-final.rfbt")
    model.save_checkpoint(result.params, final_path)
    _write_manifest(out_dir, stage, args, [args.data, args.vocab],
                    config_text=config.to_text(), training_precision=TRAINING_PRECISION)
    print(json.dumps({
        "stage": stage,
        "epochs": len(result.history),
        "final_loss": result.history[-1]["loss"] if result.history else None,
        "checkpoint": final_path,
    }))
    return 0


def _cmd_evaluate(args) -> int:
    params, vocab = _load_model(args.model, _resolve_vocab(args))
    records = corpus.load_corpus(args.data)
    lmax = params.config.max_name_tokens if args.lmax is None else args.lmax
    predictor = inference.ModelPredictor(params, vocab)
    report = metrics.evaluate_corpus(predictor, records, vocab,
                                     max_name_tokens=lmax,
                                     dataset=os.path.basename(args.data))
    print(report.to_json())
    print(report.summary_table(), file=sys.stderr)
    if args.out:
        _write_report(args, "evaluate", report, [args.data, args.model], params)
    return 0


def _cmd_suggest(args) -> int:
    params, vocab = _load_model(args.model, _resolve_vocab(args))
    with open(args.code, "r", encoding="utf-8") as fh:
        code = fh.read()
    suggestion = inference.suggest(params, vocab, code, args.var)
    print(json.dumps(suggestion.to_json_dict(record_id=args.code)))
    return 0


def _cmd_baseline_eval(args) -> int:
    params, vocab = _load_model(args.model, _resolve_vocab(args))
    train_records = corpus.load_corpus(args.train_data)
    test_records = corpus.load_corpus(args.data)
    lmax = params.config.max_name_tokens if args.lmax is None else args.lmax
    ngram = baseline.train_ngram(train_records, vocab, n=args.ngram_n,
                                 smoothing_k=args.smoothing)
    predictor = baseline.CompositePredictor(
        length_predictor=baseline.HeuristicLengthPredictor(params, vocab),
        name_predictor=baseline.NgramPredictor(ngram, vocab),
    )
    report = metrics.evaluate_corpus(predictor, test_records, vocab,
                                     max_name_tokens=lmax,
                                     dataset=os.path.basename(args.data))
    print(report.to_json())
    print(report.summary_table(), file=sys.stderr)
    if args.out:
        _write_report(args, "baseline-eval", report,
                      [args.data, args.train_data, args.model], params)
        baseline.save_ngram(ngram, os.path.join(args.out, "ngram.txt"))
    return 0


def _cmd_gradcheck(args) -> int:
    params, example = gradcheck.toy_model(seed=args.seed)
    suite = gradcheck.loss_suite(params, example)
    results = {}
    for name, fn in suite.items():
        results[name] = gradcheck.gradient_check(
            fn, params, epsilon=args.epsilon,
            coords_per_tensor=args.coords, seed=args.seed)
        logger.info("gradcheck %s: max relative error %.3e", name, results[name])
    print(json.dumps(results))
    return 0 if all(v < GRADCHECK_TOLERANCE for v in results.values()) else 3


def sweep(config_path: str | None, parameter: str, values: list[float],
          data_path: str, model_path: str, vocab_path: str,
          out_dir: str, seed: int = 0) -> list[tuple[float, metrics.EvalReport]]:
    """One finetune-tg + evaluate run per value, against a fixed seed and a
    fixed base checkpoint; emits a CSV of parameter value vs accuracy."""
    if parameter not in SWEEP_PARAMETERS:
        raise UsageError(f"--param must be one of {SWEEP_PARAMETERS}")
    base_config = (training.TrainConfig.from_file(config_path)
                   if config_path else training.TrainConfig())
    base_config.seed = seed
    records = corpus.load_corpus(data_path)
    eval_records = ([r for r in records if r.split == "validation"]
                    or [r for r in records if r.split == "test"]
                    or records)
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for value in values:
        params, vocab = _load_model(model_path, vocab_path)
        config = dataclasses.replace(base_config)
        if parameter == "lmax":
            config.max_name_tokens = int(value)
            model.resize_length_head(params, config.max_name_tokens, config.seed)
        else:
            setattr(config, parameter, value)
        config.validate()
        result = training.finetune_tg(config, params, records, vocab)
        predictor = inference.ModelPredictor(result.params, vocab)
        report = metrics.evaluate_corpus(
            predictor, eval_records, vocab,
            max_name_tokens=min(config.max_name_tokens, params.config.max_name_tokens),
            dataset=f"{parameter}={value}")
        results.append((value, report))
    csv_path = os.path.join(out_dir, f"sweep_{parameter}.csv")
    with atomic_write(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "value", "accuracy"])
        for value, report in results:
            writer.writerow([parameter, value, report.accuracy])
    return results


def _cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise UsageError("--values must name at least one value")
    out_dir = args.out or "."
    results = sweep(args.config, args.param, values, args.data, args.model,
                    args.vocab, out_dir, seed=args.seed)
    _write_manifest(out_dir, "sweep", args, [args.data, args.model, args.vocab],
                    training_precision=TRAINING_PRECISION)
    print(json.dumps({
        "parameter": args.param,
        "rows": [{"value": v, "accuracy": r.accuracy} for v, r in results],
        "csv": os.path.join(out_dir, f"sweep_{args.param}.csv"),
    }))
    return 0


# --- dispatch ----------------------------------------------------------------

def run(argv: list[str]) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        if args.print_config:
            print(training.TrainConfig().to_text(), end="")
            return 0
        if args.command is None:
            print("error: a subcommand is required", file=sys.stderr)
            parser.print_usage(sys.stderr)
            return 1
        handler = {
            "build-corpus": _cmd_build_corpus,
            "train-tokenizer": _cmd_train_tokenizer,
            "pretrain": lambda a: _cmd_train(a, "pretrain"),
            "finetune-lp": lambda a: _cmd_train(a, "finetune-lp"),
            "finetune-tg": lambda a: _cmd_train(a, "finetune-tg"),
            "evaluate": _cmd_evaluate,
            "suggest": _cmd_suggest,
            "baseline-eval": _cmd_baseline_eval,
            "gradcheck": _cmd_gradcheck,
            "sweep": _cmd_sweep,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteLoss, NonFiniteGradient, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (VarnamerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
