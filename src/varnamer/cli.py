"""Command-line entry point: corpus building, tokenizer and model training,
evaluation, baselines, one-shot suggestions, sweeps and gradient checks.

The training commands and ``sweep`` read their settings from ``--config``
(``TrainConfig``'s defaults without it); a flag overrides a config value
only when given, and ``sweep`` then sets its parameter to each value.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure. Machine-readable results go to stdout, diagnostics to stderr.
Every artifact-producing run writes a manifest next to its outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__, baseline, bpe, corpus, gradcheck, inference, metrics, model, training
from .errors import (
    EmptyCorpus,
    MalformedCode,
    NonFiniteGradient,
    NonFiniteLoss,
    ShapeMismatch,
    UsageError,
    VarnamerError,
)
from .fileio import atomic_write, read_text, write_jsonl

logger = logging.getLogger(__name__)

GRADCHECK_TOLERANCE = 1e-4
# sweep's --param choices -> the TrainConfig field each sets
SWEEP_PARAMETERS = {"lambda_cmlm": "lambda_cmlm", "lambda_bot": "lambda_bot",
                    "lambda_cl": "lambda_cl", "tau": "tau", "lmax": "max_name_tokens"}
# the training commands -> the stage each runs
STAGES = {"pretrain": training.pretrain, "finetune-lp": training.finetune_lp,
          "finetune-tg": training.finetune_tg}


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
        if "seed" in names:   # beside --config, the config's seed when not given
            p.add_argument("--seed", type=int, default=None if "config" in names else 0)
        if "data" in names:
            p.add_argument("--data", required=True, help="input JSONL path")
        if "model" in names:
            p.add_argument("--model", required=True, help="checkpoint path")
        if "vocab" in names:
            p.add_argument("--vocab", help="vocabulary file (default: sibling of --model)")
        if "out" in names:
            p.add_argument("--out", help="output directory")
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

    for name in STAGES:
        p = sub.add_parser(name, help=f"{name} on a rename corpus")
        common(p, "data", "seed", "out", "config")
        p.add_argument("--lmax", type=int,
                       help="maximum sub-tokens per name; resizes the checkpoint's "
                            "length head, which is kept as it is when not given")
        p.add_argument("--vocab", required=True)
        p.add_argument("--model", help="checkpoint to continue from (pretrain: optional)")
        if name == "pretrain":   # the one command that creates a model
            # A new model's settings, ModelConfig's defaults when omitted;
            # a usage error beside --model.
            p.add_argument("--layers", type=int)
            p.add_argument("--hidden-dim", type=int)
            p.add_argument("--heads", type=int)
            p.add_argument("--ffn-dim", type=int)
            p.add_argument("--max-seq-len", type=int)
            p.add_argument("--dropout", type=float)
        if name == "finetune-tg":   # the one stage whose loss reads them
            for flag in ("--lambda-cmlm", "--lambda-bot", "--lambda-cl", "--tau"):
                p.add_argument(flag, type=float)

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


def _openblas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS runs, or None when numpy
    does not bundle it."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _numeric_environment() -> dict:
    """The numpy version, its BLAS, the BLAS thread settings and the
    thread count OpenBLAS runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):   # the build-info layout is not stable
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "openblas_threads": _openblas_threads(),
    }


# The arithmetic of a training run, as its manifest records it.
TRAINING_PRECISION = {"compute": np.dtype(training.COMPUTE_DTYPE).name,
                      "master": np.dtype(training.MASTER_DTYPE).name,
                      "moments": np.dtype(training.COMPUTE_DTYPE).name}


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


def _train_config(args, value: str | None = None) -> training.TrainConfig:
    """A training command's config: the --config file or the defaults, then
    each flag that was given, then sweep's --param set to ``value``."""
    config = (training.TrainConfig.from_file(args.config)
              if args.config else training.TrainConfig())
    given = {
        "seed": args.seed,
        "lambda_cmlm": getattr(args, "lambda_cmlm", None),
        "lambda_bot": getattr(args, "lambda_bot", None),
        "lambda_cl": getattr(args, "lambda_cl", None),
        "tau": getattr(args, "tau", None),
        "max_name_tokens": getattr(args, "lmax", None),
    }
    if value is not None:
        field = SWEEP_PARAMETERS[args.param]
        given[field] = config.parse_value(field, value)
    config = dataclasses.replace(config, **{k: v for k, v in given.items() if v is not None})
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


def _model_flags(args) -> dict[str, tuple[str, object]]:
    """``pretrain``'s model flags that were given: flag -> (ModelConfig
    field, value)."""
    flags = {"--layers": ("num_layers", args.layers), "--heads": ("num_heads", args.heads),
             "--hidden-dim": ("hidden_dim", args.hidden_dim),
             "--ffn-dim": ("ffn_dim", args.ffn_dim), "--dropout": ("dropout", args.dropout),
             "--max-seq-len": ("max_seq_len", args.max_seq_len)}
    return {flag: setting for flag, setting in flags.items() if setting[1] is not None}


def _evaluate(args, predictor, params: model.ModelParams,
              vocab: bpe.SubwordVocab, inputs: tuple[str, ...] = ()) -> None:
    """Evaluate ``predictor`` on --data, capped at --lmax (the checkpoint's
    cap when not given); print the report, and with --out write its
    report.json, per_example.jsonl (one line of ``metrics.ExampleResult``
    fields per evaluated record) and a manifest of --data, --model, the
    vocabulary and ``inputs``."""
    lmax = params.config.max_name_tokens if args.lmax is None else args.lmax
    report = metrics.evaluate_corpus(predictor, corpus.load_corpus(args.data), vocab,
                                     max_name_tokens=lmax,
                                     dataset=os.path.basename(args.data))
    print(report.to_json())
    print(report.summary_table(), file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with atomic_write(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        write_jsonl(os.path.join(args.out, "per_example.jsonl"),
                    (dataclasses.asdict(row) for row in report.rows))
        _write_manifest(args.out, args.command, args,
                        [args.data, args.model, _resolve_vocab(args), *inputs],
                        model_dtype=str(params.dtype))


# --- subcommands -------------------------------------------------------------

def _cmd_build_corpus(args) -> int:
    functions = corpus.load_functions(args.data)
    records, stats = corpus.adapt_corpus(
        functions, args.seed,
        validation_fraction=args.validation_fraction,
        test_fraction=args.test_fraction)
    if not records:
        raise EmptyCorpus(f"no rename records from {args.data}: of {len(functions)} "
                          f"functions, excluded {json.dumps(stats)}")
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


def _cmd_train(args) -> int:
    stage = args.command
    given = _model_flags(args) if stage == "pretrain" else {}
    if args.model and given:
        raise UsageError(f"--model cannot be combined with {', '.join(given)}, "
                         "which set up a new model")
    config = _train_config(args)
    if args.model:
        params, vocab = _load_model(args.model, args.vocab)
    elif stage != "pretrain":
        raise UsageError(f"{stage} requires --model (a pretrained checkpoint)")
    else:
        vocab = bpe.load_vocab(args.vocab)
        # a new model: the given model flags, and ModelConfig's defaults
        params = model.init_params(model.ModelConfig(
            vocab_size=vocab.size, max_name_tokens=config.max_name_tokens,
            **dict(given.values())), config.seed)
    records = corpus.load_corpus(args.data)
    if args.lmax is not None:
        model.resize_length_head(params, args.lmax, config.seed)
    out_dir = args.out or "."
    result = STAGES[stage](config, params, records, vocab, out_dir=out_dir)
    final_path = os.path.join(out_dir, f"{stage}-final.rfbt")
    model.save_checkpoint(result.params, final_path)
    _write_manifest(out_dir, stage, args, [args.data, args.vocab, args.model],
                    config_text=config.to_text(), training_precision=TRAINING_PRECISION)
    print(json.dumps({
        "stage": stage,
        "epochs": len(result.history),
        "final_loss": result.history[-1]["loss"],
        "checkpoint": final_path,
    }))
    return 0


def _cmd_evaluate(args) -> int:
    params, vocab = _load_model(args.model, _resolve_vocab(args))
    _evaluate(args, inference.ModelPredictor(params, vocab), params, vocab)
    return 0


def _cmd_suggest(args) -> int:
    params, vocab = _load_model(args.model, _resolve_vocab(args))
    code = read_text(args.code, lambda line_no: MalformedCode(
        f"{args.code}: line {line_no}: not UTF-8"))
    suggestion = inference.suggest(params, vocab, code, args.var)
    print(json.dumps(suggestion.to_json_dict(record_id=args.code)))
    return 0


def _cmd_baseline_eval(args) -> int:
    params, vocab = _load_model(args.model, _resolve_vocab(args))
    # the n-gram model sees the names the stages train on, no others
    train_records = [r for r in corpus.load_corpus(args.train_data) if r.split == "train"]
    if not train_records:
        raise EmptyCorpus(f"no train record in {args.train_data} to fit the n-gram model on")
    ngram = baseline.train_ngram(train_records, vocab,
                                 n=args.ngram_n, smoothing_k=args.smoothing)
    predictor = baseline.CompositePredictor(baseline.HeuristicLengthPredictor(params, vocab),
                                            baseline.NgramPredictor(ngram, vocab))
    _evaluate(args, predictor, params, vocab, (args.train_data,))
    if args.out:
        baseline.save_ngram(ngram, os.path.join(args.out, "ngram.txt"))
    return 0


def _cmd_gradcheck(args) -> int:
    params, example = gradcheck.toy_model(seed=args.seed)
    suite = gradcheck.loss_suite(example)
    results = {}
    for name, fn in suite.items():
        results[name] = gradcheck.gradient_check(
            fn, params, epsilon=args.epsilon,
            coords_per_tensor=args.coords, seed=args.seed)
        logger.info("gradcheck %s: max relative error %.3e", name, results[name])
    print(json.dumps(results))
    return 0 if all(v < GRADCHECK_TOLERANCE for v in results.values()) else 3


def _cmd_sweep(args) -> int:
    """One finetune-tg + evaluate run per value, from the same seed and base
    checkpoint; writes sweep_<param>.jsonl, one line per value with its
    accuracy, the number of records evaluated (0 where the accuracy is
    null) and the exclusions, the rows it prints under ``rows``. It scores
    the validation records, else the test records, else the training
    records, and names that split in its JSON as ``scored_split``."""
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise UsageError("--values must name at least one value")
    field = SWEEP_PARAMETERS[args.param]
    # every value is checked before any data is read
    configs = [_train_config(args, value) for value in values]
    records = corpus.load_corpus(args.data)
    scored_split = next((split for split in ("validation", "test")
                         if any(r.split == split for r in records)), "train")
    eval_records = [r for r in records if r.split == scored_split]
    if scored_split == "train":
        print("warning: no validation or test records; the accuracies are on the "
              "training records each run fine-tunes on", file=sys.stderr)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for config in configs:
        value = getattr(config, field)
        params, vocab = _load_model(args.model, args.vocab)
        if field == "max_name_tokens":
            model.resize_length_head(params, value, config.seed)
        result = training.finetune_tg(config, params, records, vocab)
        report = metrics.evaluate_corpus(
            inference.ModelPredictor(result.params, vocab), eval_records, vocab,
            max_name_tokens=min(config.max_name_tokens, params.config.max_name_tokens),
            dataset=f"{args.param}={value}")
        rows.append({"value": value, "accuracy": report.accuracy,
                     "evaluated": report.evaluated,
                     "excluded_reasons": dict(sorted(report.excluded_reasons.items()))})
    path = os.path.join(out_dir, f"sweep_{args.param}.jsonl")
    write_jsonl(path, rows)
    _write_manifest(out_dir, "sweep", args, [args.data, args.model, args.vocab],
                    training_precision=TRAINING_PRECISION)
    print(json.dumps({"parameter": args.param, "scored_split": scored_split,
                      "rows": rows, "path": path}))
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
            **dict.fromkeys(STAGES, _cmd_train),
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
