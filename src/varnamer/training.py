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
masked pass and, for the contrastive term, its after pass (the masked input
with its targets restored) and its before pass. The token head and the
masked-token gather then run once over all the pack's selected rows; the
bag-of-tokens and contrastive terms stay per example, on slices of those
rows. Validation runs the same batch losses.

Steps compute in float32: a stage keeps a float64 master copy of every
parameter, the forward and backward run on the masters' float32
rounding, and Adam updates the master in float64 before rounding it back
into the compute copy (the master-weight scheme of Micikevicius et al.
2018). Only the masters are float64. Adam's moments are float32 and
update from the float32 gradients: they steer the step's size and sign,
not the accumulated weight, and need far less precision than it
(Dettmers et al. 2022 train with 8-bit moments), so the optimizer state
costs 16 bytes per parameter rather than 24. The step itself is taken in
float64 from exact widenings of the moments. A stage hands back the
float64 masters, so stages chain without re-rounding, and every
checkpoint it writes holds the compute copy's float32 values.

Dropout has one owner and one rule: the model's ``ModelConfig.dropout``
is the rate, and a sequence drops out exactly when ``model.forward`` gets
a seed for it. A training step gives each example's masked pass its own
seed; validation and the contrastive passes give ``None`` and run without
dropout. Each stage draws its epochs' example orders from one generator
seeded with ``seed``. Everything is seeded, and bit-reproducible for a
fixed BLAS thread count, so a fixed (seed, config, corpus) triple
reproduces the same checkpoints bit for bit under one BLAS setting.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field, fields, replace

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
from .fileio import read_text, write_jsonl
from .model import ModelParams

logger = logging.getLogger(__name__)

# The precision of a training step's arithmetic and of the weights Adam
# updates (see the module docstring).
COMPUTE_DTYPE = np.float32
MASTER_DTYPE = np.float64

# BERT's Adam settings (Devlin et al. 2019); an epsilon of 1e-8 sits in float32 gradient noise.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-6


@dataclass
class TrainConfig(model.TextConfig):
    """Optimizer, loss and data settings of a training stage.

    There is no dropout setting here: stages train at the model's own
    ``ModelConfig.dropout``, each training example with its own seed, and
    validate without dropout (see the module docstring).
    """

    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 50
    seed: int = 0
    lambda_cmlm: float = 1.0
    lambda_bot: float = 0.1
    lambda_cl: float = 1.0
    tau: float = 0.05
    max_name_tokens: int = 5
    max_seq_len: int = 512
    patience: int = 10

    def validate(self) -> None:
        # NaN fails every comparison below, so non-finite values are caught first.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfig(f"{f.name} must be a finite number, got {value}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise InvalidConfig("learning_rate, batch_size, max_epochs must be positive")
        if self.tau <= 0:
            raise InvalidConfig("tau must be positive")
        if min(self.lambda_cmlm, self.lambda_bot, self.lambda_cl) < 0:
            raise InvalidConfig("loss weights must be non-negative")
        if self.max_name_tokens < 1:
            raise InvalidConfig("max_name_tokens must be >= 1")
        if self.max_seq_len < 3:
            raise InvalidConfig("max_seq_len must be >= 3 (CLS + token + SEP)")
        if self.patience < 1:
            raise InvalidConfig("patience must be >= 1")

    @classmethod
    def from_file(cls, path: str) -> "TrainConfig":
        return cls.from_text(read_text(
            path, lambda line_no: InvalidConfig(f"config line {line_no}: not UTF-8")))


# --- optimizer ---------------------------------------------------------------

@dataclass
class AdamState:
    """Adam's step count, its float32 moments ``m`` and ``v`` and the
    float64 master of each parameter (see the module docstring)."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    master: dict[str, np.ndarray] = field(default_factory=dict)


def adam_update(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> None:
    """One Adam step with bias correction at the ``ADAM_*`` settings.

    The moments update in float32 from the gradient in float32 (a float32
    gradient is used as it is). Each parameter's float64 master in
    ``state.master`` (made from the parameter on its first step when
    absent) then takes the step, computed in float64 from exact widenings
    of the moments, and the parameter's array receives the master in
    place: its float32 rounding during training, an exact copy for a
    float64 parameter. The moments and master update in place.
    """
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.step
    correction2 = 1.0 - ADAM_BETA2 ** state.step
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
            state.m[name] = np.zeros(master.shape, COMPUTE_DTYPE)
            state.v[name] = np.zeros(master.shape, COMPUTE_DTYPE)
        m, v = state.m[name], state.v[name]
        grad = np.asarray(grad, COMPUTE_DTYPE)
        # In place through scratch arrays, with the operations of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g         (float32)
        #   master -= lr * (m/c1) / (sqrt(v/c2) + eps)          (float64)
        # in the same order, so the results are bit-identical to it.
        term = np.empty_like(m)
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=term)
        m += term
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=term)
        term *= grad
        v += term
        wide = v.astype(MASTER_DTYPE)               # exact widenings
        update = m.astype(MASTER_DTYPE)
        wide /= correction2
        np.sqrt(wide, out=wide)
        wide += ADAM_EPSILON
        update /= correction1
        update *= learning_rate
        update /= wide
        master -= update
        np.copyto(tensor.data, master)


# --- dataset builders --------------------------------------------------------

@dataclass
class TgExample:
    """Stage-2 unit: the masked input and the input before the rename, which
    is ``None`` when ``lambda_cl`` is 0, since only the contrastive term
    reads it. The input after it is the masked input with its targets
    restored."""

    masked: masking.MaskedExample
    before_ids: list[int] | None
    before_positions: list[int] | None


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
        if config.lambda_cl == 0.0:
            return TgExample(masked=masked, before_ids=None, before_positions=None)
        before_ids, before_groups = masking.encode_with_positions(
            vocab, record.code_before, record.variable_before, config.max_seq_len)
        return TgExample(masked=masked, before_ids=before_ids,
                         before_positions=[p for g in before_groups for p in g])

    return _build(records, make)


# --- batch losses ------------------------------------------------------------

def _encode_pack(params: ModelParams,
                 passes: list[tuple[list[int], list[int], int | None]]) -> tuple[Tensor, list[int]]:
    """One encoder pass over a pack of sequences, given as (ids, increasing
    rows, dropout seed or None) each. Returns the requested rows of every
    sequence stacked in pass order, and where each sequence's rows start
    in that stack (with the total appended)."""
    ids: list[int] = []
    rows: list[int] = []
    bounds = [0]
    for seq_ids, seq_rows, _ in passes:
        rows.extend(len(ids) + r for r in seq_rows)
        ids.extend(seq_ids)
        bounds.append(len(rows))
    hidden = model.forward(params, ids, [seed for *_, seed in passes],
                           rows=rows, lengths=[len(seq_ids) for seq_ids, *_ in passes])
    return hidden, bounds


def _row_targets(examples: list[masking.MaskedExample]) -> list[int]:
    """The target id of every encoded mask row of ``examples``, in pack order."""
    return [t for ex in examples for t in ex.target_ids * len(ex.mask_positions)]


# A batch loss maps (params, examples, one dropout seed or None per example)
# to the loss summed over the batch and the sums of its named terms.

def cmlm_batch_loss(params: ModelParams, examples: list[masking.MaskedExample],
                    dropout_seeds: list[int | None]) -> tuple[Tensor, dict[str, float]]:
    """Masked-token cross entropy summed over a batch, from one pack."""
    hidden, _ = _encode_pack(params, [(ex.input_ids, ex.flat_positions, seed)
                                      for ex, seed in zip(examples, dropout_seeds)])
    return L.cmlm_loss(model.token_probs(params, hidden), _row_targets(examples)), {}


def lp_batch_loss(params: ModelParams, examples: list[masking.MaskedExample],
                  dropout_seeds: list[int | None]) -> tuple[Tensor, dict[str, float]]:
    """Length cross entropy summed over a batch, from one pack's [CLS] rows."""
    cls, _ = _encode_pack(params, [(ex.input_ids, [0], seed)
                                   for ex, seed in zip(examples, dropout_seeds)])
    return L.lp_loss(model.length_probs(params, cls), [ex.length_label for ex in examples]), {}


def tg_batch_loss(params: ModelParams, examples: list[TgExample],
                  dropout_seeds: list[int | None],
                  config: TrainConfig) -> tuple[Tensor, dict[str, float]]:
    """The stage-2 loss summed over a batch, and its terms' sums.

    One pack holds every example's masked pass and, for the contrastive
    term, its after and before passes. The substituted passes run without
    dropout but stay on the tape, so the contrastive term trains all
    three representations.
    """
    passes = [(ex.masked.input_ids, ex.masked.flat_positions, seed)
              for ex, seed in zip(examples, dropout_seeds)]
    if config.lambda_cl != 0.0:
        passes += [(masking.restore_targets(ex.masked), ex.masked.flat_positions, None)
                   for ex in examples]
        passes += [(ex.before_ids, ex.before_positions, None) for ex in examples]
    hidden, bounds = _encode_pack(params, passes)
    n = len(examples)
    masked_rows = hidden if bounds[n] == bounds[-1] else ad.take(hidden, np.arange(bounds[n]))
    probs = model.token_probs(params, masked_rows)
    targets = _row_targets([ex.masked for ex in examples])
    parts: dict[str, float] = {}
    total = Tensor(0.0)
    if config.lambda_cmlm != 0.0:
        term = L.cmlm_loss(probs, targets)
        parts["cmlm"] = term.item()
        total = ad.add(total, ad.scale(term, config.lambda_cmlm))
    if config.lambda_bot != 0.0:
        term = Tensor(0.0)
        for start, stop in zip(bounds[:n], bounds[1:n + 1]):
            z = L.bot_distribution(ad.take(probs, np.arange(start, stop)))
            term = ad.add(term, L.bot_loss(z, targets[start:stop]))
        parts["bot"] = term.item()
        total = ad.add(total, ad.scale(term, config.lambda_bot))
    if config.lambda_cl != 0.0:
        names = [model.pool_name_representation(hidden, list(range(bounds[j], bounds[j + 1])))
                 for j in range(3 * n)]                 # generated, after, before
        term = L.cl_loss(names[:n], names[n:2 * n], names[2 * n:], config.tau)
        parts["cl"] = term.item()
        total = ad.add(total, ad.scale(term, config.lambda_cl))
    return total, parts


# --- the stage runner --------------------------------------------------------

@dataclass
class TrainResult:
    """With a validation split, ``params`` are those of the epoch with the
    lowest validation loss; otherwise those of the last epoch."""

    params: ModelParams
    history: list[dict[str, float]]


def _dropout_seed(seed: int, epoch: int, index: int) -> int:
    return (seed * 1_000_003 + epoch * 10_007 + index * 101) & 0x7FFFFFFF


def _batches(items, size: int) -> list:
    return [items[start:start + size] for start in range(0, len(items), size)]


def _stage(stage: str, build, batch_loss, config: TrainConfig, params: ModelParams,
           records: list[RefactoringRecord], vocab: SubwordVocab,
           out_dir: str | None) -> TrainResult:
    """Run one training stage: ``build`` makes examples of the training
    and the validation records, within the model's limits (see the module
    docstring), and ``params`` train on ``batch_loss``. ``stage`` names the
    stage in logs, errors, checkpoints and ``<stage>-log.jsonl``. That log
    is rewritten after each epoch's checkpoint with the rows of ``history``
    so far, so a stage that stops keeps the log of the epochs it finished.
    An epoch's row logs ``loss`` and each term as means over its batches of
    per-example means, so the λ-weighted terms add up to ``loss``;
    ``val_loss`` is a per-example mean."""
    config.validate()
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
    patience_left = config.patience
    rng = np.random.default_rng(config.seed)
    # The parameters leave the stage as float64 masters: the best epoch's
    # with a validation split, otherwise (and when a step raises) the latest.
    final = state.master
    try:
        for epoch in range(config.max_epochs):
            order = rng.permutation(len(examples))
            batch_means: dict[str, list[float]] = {"loss": []}
            for batch in _batches(order, config.batch_size):
                params.zero_grads()
                seeds = [_dropout_seed(config.seed, epoch, int(i)) for i in batch]
                total, parts = batch_loss(params, [examples[i] for i in batch], seeds)
                for key, part in parts.items():
                    batch_means.setdefault(key, []).append(part / len(batch))
                total = ad.scale(total, 1.0 / len(batch))
                loss_value = total.item()
                if not np.isfinite(loss_value):
                    raise NonFiniteLoss(
                        f"{stage}: loss {loss_value} at epoch {epoch} step {state.step}")
                total.backward()
                # A tensor the loss does not reach has no gradient and no update.
                grads = {name: t.grad for name, t in params.tensors.items()
                         if t.grad is not None}
                adam_update(params, grads, state, config.learning_rate)
                del grads       # so the next zero_grads frees these gradients
                batch_means["loss"].append(loss_value)
            row = {"epoch": float(epoch), "step": float(state.step)}
            row.update((key, float(np.mean(means))) for key, means in batch_means.items())
            if val_examples:
                with ad.no_grad():
                    val_total = sum(
                        batch_loss(params, chunk, [None] * len(chunk))[0].item()
                        for chunk in _batches(val_examples, config.batch_size))
                row["val_loss"] = val_total / len(val_examples)
            history.append(row)
            logger.info("%s epoch %d: %s", stage, epoch,
                        " ".join(f"{k}={v:.4f}" for k, v in row.items() if k != "epoch"))
            if out_dir:
                model.save_checkpoint(params, os.path.join(out_dir, f"{stage}-epoch{epoch}.rfbt"))
                write_jsonl(os.path.join(out_dir, f"{stage}-log.jsonl"), history)
            if val_examples:
                if row["val_loss"] < best_val - 1e-12:
                    best_val = row["val_loss"]
                    best_masters = {name: data.copy() for name, data in state.master.items()}
                    patience_left = config.patience
                    if out_dir:
                        model.save_checkpoint(params, os.path.join(out_dir, f"{stage}-best.rfbt"))
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
    return TrainResult(params=params, history=history)


# --- stages ------------------------------------------------------------------
# Each stage looks up its builder and batch loss in this module when called,
# so a wrapper put in place of one (a tracer, a test) takes effect.

def pretrain(
    config: TrainConfig,
    params: ModelParams,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    out_dir: str | None = None,
) -> TrainResult:
    """Masked-token pretraining; only the cross-entropy term, loss weights
    are deliberately ignored here."""
    return _stage("pretrain", build_cmlm_dataset, cmlm_batch_loss,
                  config, params, records, vocab, out_dir)


def finetune_lp(
    config: TrainConfig,
    params: ModelParams,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    out_dir: str | None = None,
) -> TrainResult:
    """Stage 1: length prediction on [NUM]-masked inputs."""
    return _stage("finetune-lp", build_num_dataset, lp_batch_loss,
                  config, params, records, vocab, out_dir)


def finetune_tg(
    config: TrainConfig,
    params: ModelParams,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    out_dir: str | None = None,
) -> TrainResult:
    """Stage 2: combined generation loss with configurable term weights."""
    return _stage("finetune-tg", build_tg_dataset,
                  lambda p, batch, seeds: tg_batch_loss(p, batch, seeds, config),
                  config, params, records, vocab, out_dir)
