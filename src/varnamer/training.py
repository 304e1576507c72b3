"""Training loops: masked-token pretraining and the two fine-tuning stages.

Stage 1 fits the length head, stage 2 fits the combined generation loss.
The head a stage's loss does not reach (the length head in pretraining and
stage 2, the token head in stage 1) gets no gradient and is not updated.
A stage builds its examples at the smaller of the ``TrainConfig``'s and the
model's ``max_seq_len`` and ``max_name_tokens``: a training config can
narrow the model's window and length cap but never widen them, so no
example is longer than the model reads or names more sub-tokens than its
length head has rows.

A step encodes its whole minibatch as one pack (see ``model``): pretraining
and stage 1 pack one sequence per example, stage 2 packs each example's
masked pass and, for the contrastive term, its after and before passes.
The token head and the masked-token gather then run once over all the
pack's selected rows; the bag-of-tokens and contrastive terms stay per
example, on slices of those rows. Validation runs the same batch losses.

Steps compute in float32: a stage keeps a float64 master copy of every
parameter, the forward and backward run on the masters' float32
rounding, and Adam widens each gradient and updates the master in
float64 before rounding it back into the compute copy (the master-weight
scheme of Micikevicius et al. 2018). A stage hands back the float64
masters, so stages chain without re-rounding, and every checkpoint it
writes holds the compute copy's float32 values.

Each stage draws its epochs' example orders from one generator seeded
with ``seed``, and each example's dropout from its own seed. Everything is
seeded, and bit-reproducible for a fixed BLAS thread count, so a fixed
(seed, config, corpus) triple reproduces the same checkpoints bit for bit
under one BLAS setting.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import masking, model
from .autodiff import Tensor
from .bpe import SubwordVocab
from .corpus import RefactoringRecord
from .errors import (
    InvalidConfig,
    NameTooLong,
    NameTruncated,
    NonFiniteLoss,
    NoTrainingExamples,
    ShapeMismatch,
)
from .fileio import atomic_write
from .model import ModelParams

logger = logging.getLogger(__name__)

# The precision of a training step's arithmetic and of the weights Adam
# updates (see the module docstring).
COMPUTE_DTYPE = np.float32
MASTER_DTYPE = np.float64


@dataclass
class TrainConfig(model.TextConfig):
    """Optimizer, loss and data settings of a training stage.

    ``dropout`` only sets the dropout of a model the CLI creates for
    ``pretrain``; stages train with the model's own ``ModelConfig.dropout``.
    """

    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-6          # BERT's; 1e-8 sits in float32 gradient noise
    batch_size: int = 16
    max_epochs: int = 50
    seed: int = 0
    lambda_cmlm: float = 1.0
    lambda_bot: float = 0.1
    lambda_cl: float = 1.0
    tau: float = 0.05
    max_name_tokens: int = 5
    max_seq_len: int = 512
    dropout: float = 0.1
    patience: int = 10
    dedupe_bot: bool = False

    def validate(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise InvalidConfig("learning_rate, batch_size, max_epochs must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise InvalidConfig("adam betas must lie in (0, 1)")
        if self.tau <= 0:
            raise InvalidConfig("tau must be positive")
        if min(self.lambda_cmlm, self.lambda_bot, self.lambda_cl) < 0:
            raise InvalidConfig("loss weights must be non-negative")
        if self.max_name_tokens < 1:
            raise InvalidConfig("max_name_tokens must be >= 1")
        if self.max_seq_len < 3:
            raise InvalidConfig("max_seq_len must be >= 3 (CLS + token + SEP)")

    @classmethod
    def from_file(cls, path: str) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# --- optimizer ---------------------------------------------------------------

@dataclass
class AdamState:
    """Adam's moments and step count, and the float64 master of each
    parameter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    master: dict[str, np.ndarray] = field(default_factory=dict)


def adam_update(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One Adam step with bias correction, in float64.

    Each parameter's float64 master in ``state.master`` (made from the
    parameter on its first step when absent) takes the step, and the
    parameter's array then receives the master in place: its float32
    rounding during training, an exact copy for a float64 parameter.
    Gradients widen to float64 before any arithmetic, and the moments and
    master update in place.
    """
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    correction1 = 1.0 - b1 ** state.step
    correction2 = 1.0 - b2 ** state.step
    for name, grad in grads.items():
        tensor = params.tensors[name]
        if grad.shape != tensor.data.shape:
            raise ShapeMismatch(
                f"gradient for {name!r} has shape {grad.shape}, "
                f"parameter has {tensor.data.shape}")
        master = state.master.get(name)
        if master is None:
            master = state.master[name] = tensor.data.astype(MASTER_DTYPE)
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(master), np.zeros_like(master)
        m, v = state.m[name], state.v[name]
        # In place through two scratch arrays, with the operations of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   master -= lr * (m/c1) / (sqrt(v/c2) + eps)
        # in the same order, so the results are bit-identical to it.
        wide = np.empty_like(master)
        term = np.empty_like(master)
        np.copyto(wide, grad)                       # exact widening
        m *= b1
        np.multiply(wide, 1.0 - b1, out=term)
        m += term
        v *= b2
        np.multiply(wide, 1.0 - b2, out=term)
        term *= wide
        v += term
        np.divide(v, correction2, out=wide)
        np.sqrt(wide, out=wide)
        wide += config.adam_epsilon
        np.divide(m, correction1, out=term)
        term *= config.learning_rate
        term /= wide
        master -= term
        np.copyto(tensor.data, master)
    return params, state


# --- dataset builders --------------------------------------------------------

@dataclass
class TgExample:
    """Stage-2 unit: the masked input plus both substituted variants."""

    masked: masking.MaskedExample
    after_ids: list[int]
    after_positions: list[int]
    before_ids: list[int]
    before_positions: list[int]


def _build(records: list[RefactoringRecord], make) -> tuple[list, dict[str, int]]:
    """``make(record)`` for each record; over-long and truncated names are
    excluded and counted."""
    examples = []
    stats = {"too_long": 0, "truncated": 0}
    for record in records:
        try:
            examples.append(make(record))
        except NameTooLong:
            stats["too_long"] += 1
        except NameTruncated:
            stats["truncated"] += 1
    return examples, stats


def build_cmlm_dataset(vocab: SubwordVocab, records: list[RefactoringRecord],
                       config: TrainConfig) -> tuple[list[masking.MaskedExample], dict[str, int]]:
    return _build(records, lambda record: masking.apply_cmlm_mask(
        vocab, record, config.max_seq_len, config.max_name_tokens))


def build_num_dataset(vocab: SubwordVocab, records: list[RefactoringRecord],
                      config: TrainConfig) -> tuple[list[masking.MaskedExample], dict[str, int]]:
    return _build(records, lambda record: masking.apply_num_mask(
        vocab, record, config.max_seq_len, config.max_name_tokens))


def build_tg_dataset(vocab: SubwordVocab, records: list[RefactoringRecord],
                     config: TrainConfig) -> tuple[list[TgExample], dict[str, int]]:
    def make(record: RefactoringRecord) -> TgExample:
        masked = masking.apply_cmlm_mask(
            vocab, record, config.max_seq_len, config.max_name_tokens)
        after_ids, after_groups = masking.encode_with_positions(
            vocab, record.code_after, record.variable_after, config.max_seq_len)
        before_ids, before_groups = masking.encode_with_positions(
            vocab, record.code_before, record.variable_before, config.max_seq_len)
        return TgExample(masked=masked, after_ids=after_ids,
                         after_positions=[p for g in after_groups for p in g],
                         before_ids=before_ids,
                         before_positions=[p for g in before_groups for p in g])

    return _build(records, make)


# --- batch losses ------------------------------------------------------------

def _encode_pack(params: ModelParams, passes: list[tuple[list[int], list[int], int | None]],
                 train_mode: bool) -> tuple[Tensor, list[int]]:
    """One encoder pass over a pack of sequences, given as (ids, rows,
    dropout seed or None) each. Returns the requested rows of every
    sequence stacked in pass order, and where each sequence's rows start
    in that stack (with the total appended)."""
    ids: list[int] = []
    rows: list[int] = []
    bounds = [0]
    for seq_ids, seq_rows, _ in passes:
        rows.extend(len(ids) + r for r in seq_rows)
        ids.extend(seq_ids)
        bounds.append(len(rows))
    hidden = model.forward(params, ids, train_mode, [seed for *_, seed in passes],
                           rows=rows, lengths=[len(seq_ids) for seq_ids, *_ in passes])
    return hidden, bounds


def _masked_prediction(params: ModelParams, hidden: Tensor,
                       examples: list[masking.MaskedExample]) -> L.MaskedPrediction:
    """Token distributions at the encoded mask rows of ``examples``, one
    target per row."""
    targets = [t for ex in examples for t in ex.target_ids * len(ex.mask_positions)]
    return L.MaskedPrediction(probs=model.token_probs(params, hidden), target_ids=targets)


def cmlm_batch_loss(params: ModelParams, examples: list[masking.MaskedExample],
                    train_mode: bool, dropout_seeds: list[int]) -> Tensor:
    """Masked-token cross entropy summed over a batch, from one pack."""
    hidden, _ = _encode_pack(params, [(ex.input_ids, ex.flat_positions, seed)
                                      for ex, seed in zip(examples, dropout_seeds)],
                             train_mode)
    return L.cmlm_loss(_masked_prediction(params, hidden, examples))


def lp_batch_loss(params: ModelParams, examples: list[masking.MaskedExample],
                  train_mode: bool, dropout_seeds: list[int]) -> Tensor:
    """Length cross entropy summed over a batch, from one pack's [CLS] rows."""
    cls, _ = _encode_pack(params, [(ex.input_ids, [0], seed)
                                   for ex, seed in zip(examples, dropout_seeds)],
                          train_mode)
    return L.lp_loss(model.length_probs(params, cls), [ex.length_label for ex in examples])


def tg_batch_loss(params: ModelParams, examples: list[TgExample], config: TrainConfig,
                  train_mode: bool, dropout_seeds: list[int]) -> tuple[Tensor, dict[str, float]]:
    """The stage-2 loss summed over a batch, and its terms' sums.

    One pack holds every example's masked pass and, for the contrastive
    term, its after and before passes. The substituted passes run without
    dropout but stay on the tape, so the contrastive term trains all
    three representations.
    """
    passes = [(ex.masked.input_ids, ex.masked.flat_positions, seed)
              for ex, seed in zip(examples, dropout_seeds)]
    if config.lambda_cl != 0.0:
        passes += [(ex.after_ids, ex.after_positions, None) for ex in examples]
        passes += [(ex.before_ids, ex.before_positions, None) for ex in examples]
    hidden, bounds = _encode_pack(params, passes, train_mode)
    n = len(examples)
    masked_rows = hidden if bounds[n] == bounds[-1] else ad.take(hidden, np.arange(bounds[n]))
    pred = _masked_prediction(params, masked_rows, [ex.masked for ex in examples])
    parts: dict[str, float] = {}
    total = Tensor(0.0)
    if config.lambda_cmlm != 0.0:
        term = L.cmlm_loss(pred)
        parts["cmlm"] = term.item()
        total = ad.add(total, ad.scale(term, config.lambda_cmlm))
    if config.lambda_bot != 0.0:
        term = Tensor(0.0)
        for start, stop in zip(bounds[:n], bounds[1:n + 1]):
            one = L.MaskedPrediction(probs=ad.take(pred.probs, np.arange(start, stop)),
                                     target_ids=pred.target_ids[start:stop])
            term = ad.add(term, L.bot_loss(L.bot_distribution(one), one.target_ids,
                                           config.dedupe_bot))
        parts["bot"] = term.item()
        total = ad.add(total, ad.scale(term, config.lambda_bot))
    if config.lambda_cl != 0.0:
        def pooled(j):
            return model.pool_name_representation(hidden, list(range(bounds[j], bounds[j + 1])))

        term = L.cl_loss([L.NameTriple(gen=pooled(i), after=pooled(n + i),
                                       before=pooled(2 * n + i)) for i in range(n)], config.tau)
        parts["cl"] = term.item()
        total = ad.add(total, ad.scale(term, config.lambda_cl))
    return total, parts


# --- generic loop ------------------------------------------------------------

@dataclass
class TrainResult:
    """With a validation split, ``params`` are those of the epoch with the
    lowest validation loss; otherwise those of the last epoch."""

    params: ModelParams
    history: list[dict[str, float]]
    best_checkpoint: str | None = None


def _dropout_seed(seed: int, epoch: int, index: int) -> int:
    return (seed * 1_000_003 + epoch * 10_007 + index * 101) & 0x7FFFFFFF


def _batches(items, size: int) -> list:
    return [items[start:start + size] for start in range(0, len(items), size)]


def _run_loop(
    params: ModelParams,
    examples: list,
    val_examples: list,
    config: TrainConfig,
    loss_fn,
    stage: str,
    out_dir: str | None,
) -> TrainResult:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    # Float64 masters (a loaded checkpoint's float32 values widen exactly)
    # and their float32 compute copies; see the module docstring.
    state = AdamState(master={name: t.data.astype(MASTER_DTYPE, copy=False)
                              for name, t in params.tensors.items()})
    for name, tensor in params.tensors.items():
        tensor.data = state.master[name].astype(COMPUTE_DTYPE)
    history: list[dict[str, float]] = []
    best_val = float("inf")
    best_masters: dict[str, np.ndarray] | None = None
    best_path = None
    patience_left = config.patience
    rng = np.random.default_rng(config.seed)
    # The parameters leave the stage as float64 masters: the best epoch's
    # with a validation split, otherwise (and when a step raises) the latest.
    final = state.master
    try:
        for epoch in range(config.max_epochs):
            order = rng.permutation(len(examples))
            epoch_losses: list[float] = []
            component_sums: dict[str, float] = {}
            for batch in _batches(order, config.batch_size):
                params.zero_grads()
                total, parts = loss_fn(params, [examples[i] for i in batch],
                                       [_dropout_seed(config.seed, epoch, int(i)) for i in batch])
                for key, part in parts.items():
                    component_sums[key] = component_sums.get(key, 0.0) + part
                total = ad.scale(total, 1.0 / len(batch))
                loss_value = total.item()
                if not np.isfinite(loss_value):
                    raise NonFiniteLoss(
                        f"{stage}: loss {loss_value} at epoch {epoch} step {state.step}")
                total.backward()
                # A tensor the loss does not reach has no gradient and no update.
                grads = {name: t.grad for name, t in params.tensors.items()
                         if t.grad is not None}
                adam_update(params, grads, state, config)
                del grads       # so the next zero_grads frees these gradients
                epoch_losses.append(loss_value)
            row: dict[str, float] = {
                "epoch": float(epoch),
                "step": float(state.step),
                "loss": float(np.mean(epoch_losses)),
            }
            for key, total_part in component_sums.items():
                row[key] = total_part / len(examples)
            if val_examples:
                with ad.no_grad():
                    val_total = sum(
                        loss_fn(params, chunk, [0] * len(chunk), train_mode=False)[0].item()
                        for chunk in _batches(val_examples, config.batch_size))
                row["val_loss"] = val_total / len(val_examples)
            history.append(row)
            logger.info("%s epoch %d: %s", stage, epoch,
                        " ".join(f"{k}={v:.4f}" for k, v in row.items() if k != "epoch"))
            if out_dir:
                model.save_checkpoint(params, os.path.join(out_dir, f"{stage}-epoch{epoch}.rfbt"))
            if val_examples:
                if row["val_loss"] < best_val - 1e-12:
                    best_val = row["val_loss"]
                    best_masters = {name: data.copy() for name, data in state.master.items()}
                    patience_left = config.patience
                    if out_dir:
                        best_path = os.path.join(out_dir, f"{stage}-best.rfbt")
                        model.save_checkpoint(params, best_path)
                else:
                    patience_left -= 1
                    if patience_left <= 0:
                        logger.info("%s: early stop at epoch %d", stage, epoch)
                        break
        if best_masters is not None:
            final = best_masters
    finally:
        for name, data in final.items():
            params.tensors[name].data = data
    if out_dir:
        _write_log(os.path.join(out_dir, f"{stage}-log.csv"), history)
    return TrainResult(params=params, history=history, best_checkpoint=best_path)


def _write_log(path: str, history: list[dict[str, float]]) -> None:
    if not history:
        return
    columns = ["epoch", "step", "loss"]
    for row in history:
        for key in row:
            if key not in columns:
                columns.append(key)
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(history)


def _datasets(build, config: TrainConfig, params: ModelParams,
              records: list[RefactoringRecord], vocab: SubwordVocab,
              stage: str) -> tuple[list, list]:
    """Training and validation examples of a stage, built within the
    model's limits (see the module docstring)."""
    limits = replace(
        config,
        max_seq_len=min(config.max_seq_len, params.config.max_seq_len),
        max_name_tokens=min(config.max_name_tokens, params.config.max_name_tokens))
    train_records = [r for r in records if r.split == "train"]
    examples, stats = build(vocab, train_records, limits)
    if not examples:
        raise NoTrainingExamples(
            f"{stage}: no training examples from {len(train_records)} training records "
            f"(excluded: {stats['too_long']} with names longer than "
            f"{limits.max_name_tokens} sub-tokens, {stats['truncated']} with every "
            f"occurrence past {limits.max_seq_len} tokens)")
    val_examples, _ = build(vocab, [r for r in records if r.split == "validation"], limits)
    logger.info("%s: %d examples (excluded %s)", stage, len(examples), stats)
    return examples, val_examples


# --- stages ------------------------------------------------------------------

def pretrain(
    config: TrainConfig,
    params: ModelParams,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    out_dir: str | None = None,
) -> TrainResult:
    """Masked-token pretraining; only the cross-entropy term, loss weights
    are deliberately ignored here."""
    config.validate()
    examples, val_examples = _datasets(build_cmlm_dataset, config, params, records,
                                       vocab, "pretrain")

    def loss_fn(p, batch, dropout_seeds, train_mode=True):
        return cmlm_batch_loss(p, batch, train_mode, dropout_seeds), {}

    return _run_loop(params, examples, val_examples, config, loss_fn,
                     "pretrain", out_dir)


def finetune_lp(
    config: TrainConfig,
    params: ModelParams,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    out_dir: str | None = None,
) -> TrainResult:
    """Stage 1: length prediction on [NUM]-masked inputs."""
    config.validate()
    examples, val_examples = _datasets(build_num_dataset, config, params, records,
                                       vocab, "finetune_lp")

    def loss_fn(p, batch, dropout_seeds, train_mode=True):
        return lp_batch_loss(p, batch, train_mode, dropout_seeds), {}

    return _run_loop(params, examples, val_examples, config, loss_fn,
                     "finetune-lp", out_dir)


def finetune_tg(
    config: TrainConfig,
    params: ModelParams,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    out_dir: str | None = None,
) -> TrainResult:
    """Stage 2: combined generation loss with configurable term weights."""
    config.validate()
    examples, val_examples = _datasets(build_tg_dataset, config, params, records,
                                       vocab, "finetune_tg")

    def loss_fn(p, batch, dropout_seeds, train_mode=True):
        return tg_batch_loss(p, batch, config, train_mode, dropout_seeds)

    return _run_loop(params, examples, val_examples, config, loss_fn,
                     "finetune-tg", out_dir)
