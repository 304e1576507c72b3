"""Training loops: masked-token pretraining and the two fine-tuning stages.

Stage 1 fits the length head (token head frozen), stage 2 fits the
combined generation loss (length head frozen). Everything is seeded and
single-threaded, so a fixed (seed, config, corpus) triple reproduces the
same checkpoints bit for bit.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, field

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
from .model import ModelParams

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig(model.TextConfig):
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
    freeze_token_head_in_lp: bool = True
    freeze_length_head_in_tg: bool = True
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
    skip: frozenset[str] = frozenset(),
) -> tuple[ModelParams, AdamState]:
    """One Adam step with bias correction; parameters update in place."""
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    correction1 = 1.0 - b1 ** state.step
    correction2 = 1.0 - b2 ** state.step
    for name, grad in grads.items():
        if name in skip:
            continue
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


def build_cmlm_dataset(
    vocab: SubwordVocab,
    records: list[RefactoringRecord],
    config: TrainConfig,
) -> tuple[list[masking.MaskedExample], dict[str, int]]:
    """Generation-scheme examples; over-long names are excluded and counted."""
    examples = []
    stats = {"too_long": 0, "truncated": 0}
    for record in records:
        try:
            examples.append(masking.apply_cmlm_mask(
                vocab, record, config.max_seq_len, config.max_name_tokens))
        except NameTooLong:
            stats["too_long"] += 1
        except NameTruncated:
            stats["truncated"] += 1
    return examples, stats


def build_num_dataset(
    vocab: SubwordVocab,
    records: list[RefactoringRecord],
    config: TrainConfig,
) -> tuple[list[masking.MaskedExample], dict[str, int]]:
    examples = []
    stats = {"too_long": 0, "truncated": 0}
    for record in records:
        try:
            examples.append(masking.apply_num_mask(
                vocab, record, config.max_seq_len, config.max_name_tokens))
        except NameTooLong:
            stats["too_long"] += 1
        except NameTruncated:
            stats["truncated"] += 1
    return examples, stats


def build_tg_dataset(
    vocab: SubwordVocab,
    records: list[RefactoringRecord],
    config: TrainConfig,
) -> tuple[list[TgExample], dict[str, int]]:
    examples = []
    stats = {"too_long": 0, "truncated": 0}
    for record in records:
        try:
            masked = masking.apply_cmlm_mask(
                vocab, record, config.max_seq_len, config.max_name_tokens)
            after_ids, after_groups = masking.encode_with_positions(
                vocab, record.code_after, record.variable_after, config.max_seq_len)
            before_ids, before_groups = masking.encode_with_positions(
                vocab, record.code_before, record.variable_before, config.max_seq_len)
        except NameTooLong:
            stats["too_long"] += 1
            continue
        except NameTruncated:
            stats["truncated"] += 1
            continue
        examples.append(TgExample(
            masked=masked,
            after_ids=after_ids,
            after_positions=[p for g in after_groups for p in g],
            before_ids=before_ids,
            before_positions=[p for g in before_groups for p in g],
        ))
    return examples, stats


# --- per-example losses ------------------------------------------------------

def _masked_prediction(params: ModelParams, example: masking.MaskedExample,
                       train_mode: bool, dropout_seed: int) -> L.MaskedPrediction:
    encoded = model.forward(params, example.input_ids, train_mode, dropout_seed,
                            rows=example.flat_positions)
    probs = model.token_probs(params, encoded.hidden)
    targets = example.target_ids * len(example.mask_positions)
    return L.MaskedPrediction(probs=probs, target_ids=targets)


def cmlm_example_loss(params: ModelParams, example: masking.MaskedExample,
                      train_mode: bool, dropout_seed: int) -> Tensor:
    return L.cmlm_loss(_masked_prediction(params, example, train_mode, dropout_seed))


def lp_example_loss(params: ModelParams, example: masking.MaskedExample,
                    train_mode: bool, dropout_seed: int) -> Tensor:
    encoded = model.forward(params, example.input_ids, train_mode, dropout_seed, rows=[0])
    q = ad.reshape(model.length_probs(params, encoded.hidden), (-1,))
    return L.lp_loss(q, example.length_label)


def tg_example_loss(params: ModelParams, example: TgExample, config: TrainConfig,
                    train_mode: bool, dropout_seed: int) -> tuple[Tensor, dict[str, float]]:
    flat = example.masked.flat_positions
    encoded = model.forward(params, example.masked.input_ids, train_mode, dropout_seed,
                            rows=flat)
    probs = model.token_probs(params, encoded.hidden)
    targets = example.masked.target_ids * len(example.masked.mask_positions)
    pred = L.MaskedPrediction(probs=probs, target_ids=targets)
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
        gen = model.pool_name_representation(encoded.hidden)
        after_enc = model.forward(params, example.after_ids, False, 0,
                                  rows=example.after_positions)
        after = model.pool_name_representation(after_enc.hidden)
        before_enc = model.forward(params, example.before_ids, False, 0,
                                   rows=example.before_positions)
        before = model.pool_name_representation(before_enc.hidden)
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
    frozen: frozenset[str],
    out_dir: str | None,
) -> TrainResult:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
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
            grads = {
                name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for name, t in params.tensors.items()
            }
            adam_update(params, grads, state, config, skip=frozen)
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(history)


def _split(records: list[RefactoringRecord]) -> tuple[list, list]:
    train = [r for r in records if r.split == "train"]
    val = [r for r in records if r.split == "validation"]
    return train, val


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
    train_records, val_records = _split(records)
    examples, stats = build_cmlm_dataset(vocab, train_records, config)
    val_examples, _ = build_cmlm_dataset(vocab, val_records, config)
    logger.info("pretrain: %d examples (excluded %s)", len(examples), stats)

    def loss_fn(p, example, dropout_seed, train_mode=True):
        return cmlm_example_loss(p, example, train_mode, dropout_seed), {}

    return _run_loop(params, examples, val_examples, config, loss_fn,
                     "pretrain", frozenset(), out_dir)


def finetune_lp(
    config: TrainConfig,
    params: ModelParams,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    out_dir: str | None = None,
) -> TrainResult:
    """Stage 1: length prediction on [NUM]-masked inputs."""
    config.validate()
    train_records, val_records = _split(records)
    examples, stats = build_num_dataset(vocab, train_records, config)
    val_examples, _ = build_num_dataset(vocab, val_records, config)
    logger.info("finetune_lp: %d examples (excluded %s)", len(examples), stats)
    frozen = frozenset(
        name for name in params.tensors if name.startswith("token_head")
    ) if config.freeze_token_head_in_lp else frozenset()

    def loss_fn(p, example, dropout_seed, train_mode=True):
        return lp_example_loss(p, example, train_mode, dropout_seed), {}

    return _run_loop(params, examples, val_examples, config, loss_fn,
                     "finetune-lp", frozen, out_dir)


def finetune_tg(
    config: TrainConfig,
    params: ModelParams,
    records: list[RefactoringRecord],
    vocab: SubwordVocab,
    out_dir: str | None = None,
) -> TrainResult:
    """Stage 2: combined generation loss with configurable term weights."""
    config.validate()
    train_records, val_records = _split(records)
    examples, stats = build_tg_dataset(vocab, train_records, config)
    val_examples, _ = build_tg_dataset(vocab, val_records, config)
    logger.info("finetune_tg: %d examples (excluded %s)", len(examples), stats)
    frozen = frozenset(
        name for name in params.tensors if name.startswith("length_head")
    ) if config.freeze_length_head_in_tg else frozenset()

    def loss_fn(p, example, dropout_seed, train_mode=True):
        return tg_example_loss(p, example, config, train_mode, dropout_seed)

    return _run_loop(params, examples, val_examples, config, loss_fn,
                     "finetune-tg", frozen, out_dir)
