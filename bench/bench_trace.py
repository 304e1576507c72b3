"""Out-of-program tracing for the benchmark's per-layer run.

The tracer wraps public functions of the ``varnamer`` modules, and
``Tensor.backward``, by replacing module attributes; the package's own
code is not touched. Calls between modules, and between functions of one
module, look names up in the module namespace, so they pass through the
wrappers. For every autodiff op the tracer also wraps the ``_backward``
closure of the node the op returns, which times the backward pass per op
type.

Spans (name, start, end, parent) are kept in flat arrays while the run
goes on and written out once at the end. Self time is a span's duration
minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import logging
import os
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from varnamer import (autodiff, baseline, bpe, corpus, inference, javalex,
                      losses, masking, metrics, model, training)

# Ops whose result is built by another wrapped op: they get a span, but
# their node is counted, and its backward timed, by the inner op.
COMPOSITE_OPS = ("divide", "l2_normalize", "dot")
LEAF_OPS = (
    "add", "mul", "scale", "matmul", "transpose", "reshape", "take",
    "take_items", "sum_all", "mean_axis", "sum_axis", "ordered_sum_rows",
    "power", "log", "clamp_min", "sigmoid", "softplus", "gelu", "softmax",
    "layer_norm", "dropout",
)

# (module, attribute, span name) for the module-level functions.
FUNCTIONS = [
    (model, "forward", "model.forward"),
    (model, "token_probs", "model.token_probs"),
    (model, "length_probs", "model.length_probs"),
    (model, "pool_name_representation", "model.pool_name_representation"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (training, "adam_update", "training.adam_update"),
    (training, "build_cmlm_dataset", "training.build_dataset"),
    (training, "build_num_dataset", "training.build_dataset"),
    (training, "build_tg_dataset", "training.build_dataset"),
    (training, "pretrain", "training.pretrain"),
    (training, "finetune_lp", "training.finetune_lp"),
    (training, "finetune_tg", "training.finetune_tg"),
    (losses, "cmlm_loss", "losses.cmlm"),
    (losses, "lp_loss", "losses.lp"),
    (losses, "bot_distribution", "losses.bot"),
    (losses, "bot_loss", "losses.bot"),
    (losses, "cl_loss", "losses.cl"),
    (bpe, "encode", "bpe.encode"),
    (bpe, "train_bpe", "bpe.train"),
    (masking, "masked_sequence", "masking.masked_sequence"),
    (masking, "encode_with_positions", "masking.encode_with_positions"),
    (javalex, "find_identifier_occurrences", "javalex.find_identifier_occurrences"),
    (inference, "suggest", "inference.suggest"),
    (inference, "decode_unique", "inference.decode_unique"),
    (metrics, "evaluate_corpus", "metrics.evaluate_corpus"),
    (baseline, "ngram_suggest", "baseline.ngram_suggest"),
    (baseline, "heuristic_lp", "baseline.heuristic_lp"),
    (baseline, "train_ngram", "baseline.train_ngram"),
    (corpus, "adapt_corpus", "corpus.adapt_corpus"),
]


class _CountWarnings(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        self.counts["losses.clamp_warnings"] += 1


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` undoes it.

    Aggregates (calls, total and self time per span name, plus counters)
    accumulate until ``reset``; the span arrays keep everything recorded.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span index, name id, child time]
        self._patches: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._handler = _CountWarnings(self.counts)

    def reset(self) -> None:
        """Clear the aggregates; recorded spans are kept."""
        for table in (self.calls, self.total, self.self_time, self.counts):
            table.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- spans -------------------------------------------------------------

    def enter(self, name_id: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self._stack.append([index, name_id, 0.0])
        self.span_start.append(time.perf_counter())

    def exit(self) -> None:
        end = time.perf_counter()
        index, name_id, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[name_id]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.enter(self._name_id(name))
        try:
            yield
        finally:
            self.exit()

    @contextlib.contextmanager
    def active(self, span_name: str):
        """Install the wrappers and open a root span for the block."""
        self.install()
        try:
            with self.span(span_name):
                yield
        finally:
            self.uninstall()

    def wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for op in LEAF_OPS:
            self._patch(autodiff, op, self.wrap(
                f"autodiff.fwd.{op}", getattr(autodiff, op), self._leaf_after(op)))
        for op in COMPOSITE_OPS:
            self._patch(autodiff, op, self.wrap(f"autodiff.fwd.{op}", getattr(autodiff, op)))
        self._patch(autodiff.Tensor, "backward",
                    self.wrap("autodiff.backward", autodiff.Tensor.backward))
        hooks = self._after_hooks()
        for module, attr, name in FUNCTIONS:
            self._patch(module, attr, self.wrap(name, getattr(module, attr), hooks.get(name)))
        logging.getLogger("varnamer.losses").addHandler(self._handler)

    def uninstall(self) -> None:
        logging.getLogger("varnamer.losses").removeHandler(self._handler)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _leaf_after(self, op: str):
        backward_name = f"autodiff.bwd.{op}"
        counts = self.counts

        def after(args, kwargs, node):
            # An op may hand back its input unchanged (dropout at rate 0);
            # that node is already counted.
            if node._backward is not None and not any(node is a for a in args):
                counts["autodiff.nodes"] += 1
                node._backward = self.wrap(backward_name, node._backward)

        return after

    def _after_hooks(self) -> dict:
        counts = self.counts

        def forward(args, kwargs, result):
            ids = args[1] if len(args) > 1 else kwargs["ids"]
            counts["model.forward.tokens"] += len(ids)

        def save(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            counts["model.save_checkpoint.bytes"] += os.path.getsize(path)

        def build(args, kwargs, result):
            for reason, n in result[1].items():
                counts[f"training.excluded.{reason}"] += n

        def encode(args, kwargs, result):
            text = args[1] if len(args) > 1 else kwargs["text"]
            counts["bpe.encode.bytes"] += len(text.encode("utf-8"))

        return {"model.forward": forward, "model.save_checkpoint": save,
                "training.build_dataset": build, "bpe.encode": encode}

    # --- output ------------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)}

    def write_spans(self, path: str) -> int:
        """Write every span recorded so far as compressed arrays; returns
        the number of spans."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_start)

