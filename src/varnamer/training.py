"""Training loops: masked-token pretraining and the two fine-tuning stages.

Stage 1 fits the length head, stage 2 fits the combined generation loss.
The head a stage's loss does not reach (the length head in pretraining and
stage 2, the token head in stage 1) gets no gradient and is not updated.
A stage builds its examples at the smaller of the ``TrainConfig``'s and the
model's ``max_seq_len`` and ``max_name_tokens``: a training config can
narrow the model's window and length cap but never widen them, so no
example is longer than the model reads or names more sub-tokens than its
length head has rows. Everything is seeded and single-threaded, so a fixed
(seed, config, corpus) triple reproduces the same checkpoints bit for bit.
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
    ShapeMismatch,
)
from .fileio import atomic_write
from .model import ModelParams

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig(model.TextConfig):
    """Optimizer, loss and data settings of a training stage.

    ``dropout`` only sets the dropout of a model the CLI creates for
    ``pretrain``; stages train with the model's own ``ModelConfig.dropout``.
    """

    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
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

    @classmethod
    def from_file(cls, path: str) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# --- optimizer ---------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_update(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One Adam step with bias correction; parameters update in place."""
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
        m = state.m.setdefault(name, np.zeros_like(tensor.data))
        v = state.v.setdefault(name, np.zeros_like(tensor.data))
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        tensor.data -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
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


# --- per-example losses ------------------------------------------------------

def _masked_prediction(params: ModelParams, example: masking.MaskedExample, train_mode: bool,
                       dropout_seed: int) -> tuple[Tensor, L.MaskedPrediction]:
    """The encoded mask rows and their token distributions, one target per row."""
    hidden = model.forward(params, example.input_ids, train_mode, dropout_seed,
                           rows=example.flat_positions)
    probs = model.token_probs(params, hidden)
    targets = example.target_ids * len(example.mask_positions)
    return hidden, L.MaskedPrediction(probs=probs, target_ids=targets)


def cmlm_example_loss(params: ModelParams, example: masking.MaskedExample,
                      train_mode: bool, dropout_seed: int) -> Tensor:
    return L.cmlm_loss(_masked_prediction(params, example, train_mode, dropout_seed)[1])


def lp_example_loss(params: ModelParams, example: masking.MaskedExample,
                    train_mode: bool, dropout_seed: int) -> Tensor:
    cls = model.forward(params, example.input_ids, train_mode, dropout_seed, rows=[0])
    q = ad.reshape(model.length_probs(params, cls), (-1,))
    return L.lp_loss(q, example.length_label)


def tg_example_loss(params: ModelParams, example: TgExample, config: TrainConfig,
                    train_mode: bool, dropout_seed: int) -> tuple[Tensor, dict[str, float]]:
    hidden, pred = _masked_prediction(params, example.masked, train_mode, dropout_seed)
    parts: dict[str, float] = {}
    total = Tensor(0.0)
    if config.lambda_cmlm != 0.0:
        term = L.cmlm_loss(pred)
        parts["cmlm"] = term.item()
        total = ad.add(total, ad.scale(term, config.lambda_cmlm))
    if config.lambda_bot != 0.0:
        term = L.bot_loss(L.bot_distribution(pred), pred.target_ids, config.dedupe_bot)
        parts["bot"] = term.item()
        total = ad.add(total, ad.scale(term, config.lambda_bot))
    if config.lambda_cl != 0.0:
        # The substituted passes run without dropout but stay on the tape,
        # so the contrastive term trains all three representations.
        gen = model.pool_name_representation(hidden)
        after = model.pool_name_representation(model.forward(
            params, example.after_ids, False, 0, rows=example.after_positions))
        before = model.pool_name_representation(model.forward(
            params, example.before_ids, False, 0, rows=example.before_positions))
        term = L.cl_loss([L.NameTriple(gen=gen, after=after, before=before)], config.tau)
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
    # Training runs in float64; a loaded checkpoint's float32 values widen exactly.
    for tensor in params.tensors.values():
        tensor.data = tensor.data.astype(np.float64, copy=False)
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    history: list[dict[str, float]] = []
    best_val = float("inf")
    best_data: dict[str, np.ndarray] | None = None
    best_path = None
    patience_left = config.patience
    step = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(examples))
        epoch_losses: list[float] = []
        component_sums: dict[str, float] = {}
        component_counts: dict[str, int] = {}
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            params.zero_grads()
            total = Tensor(0.0)
            for j, idx in enumerate(batch):
                value, parts = loss_fn(
                    params, examples[idx],
                    _dropout_seed(config.seed, epoch, int(idx)))
                total = ad.add(total, value)
                for key, part in parts.items():
                    component_sums[key] = component_sums.get(key, 0.0) + part
                    component_counts[key] = component_counts.get(key, 0) + 1
            total = ad.scale(total, 1.0 / len(batch))
            loss_value = total.item()
            if not np.isfinite(loss_value):
                raise NonFiniteLoss(
                    f"{stage}: loss {loss_value} at epoch {epoch} step {step}")
            total.backward()
            # A tensor the loss does not reach has no gradient and no update.
            grads = {name: t.grad for name, t in params.tensors.items()
                     if t.grad is not None}
            adam_update(params, grads, state, config)
            epoch_losses.append(loss_value)
            step += 1
        row: dict[str, float] = {
            "epoch": float(epoch),
            "step": float(step),
            "loss": float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
        }
        for key, total_part in component_sums.items():
            row[key] = total_part / component_counts[key]
        if val_examples:
            val_losses = [loss_fn(params, ex, 0, train_mode=False)[0].item()
                          for ex in val_examples]
            row["val_loss"] = float(np.mean(val_losses))
        history.append(row)
        logger.info("%s epoch %d: %s", stage, epoch,
                    " ".join(f"{k}={v:.4f}" for k, v in row.items() if k != "epoch"))
        if out_dir:
            model.save_checkpoint(params, os.path.join(out_dir, f"{stage}-epoch{epoch}.rfbt"))
        if val_examples:
            if row["val_loss"] < best_val - 1e-12:
                best_val = row["val_loss"]
                best_data = {name: t.data.copy() for name, t in params.tensors.items()}
                patience_left = config.patience
                if out_dir:
                    best_path = os.path.join(out_dir, f"{stage}-best.rfbt")
                    model.save_checkpoint(params, best_path)
            else:
                patience_left -= 1
                if patience_left <= 0:
                    logger.info("%s: early stop at epoch %d", stage, epoch)
                    break
    if best_data is not None:
        # The parameters leave the loop as they were at the best epoch.
        for name, data in best_data.items():
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
    examples, stats = build(vocab, [r for r in records if r.split == "train"], limits)
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

    def loss_fn(p, example, dropout_seed, train_mode=True):
        return cmlm_example_loss(p, example, train_mode, dropout_seed), {}

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

    def loss_fn(p, example, dropout_seed, train_mode=True):
        return lp_example_loss(p, example, train_mode, dropout_seed), {}

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

    def loss_fn(p, example, dropout_seed, train_mode=True):
        return tg_example_loss(p, example, config, train_mode, dropout_seed)

    return _run_loop(params, examples, val_examples, config, loss_fn,
                     "finetune-tg", out_dir)
