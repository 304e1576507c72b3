"""Training objectives: masked-token cross entropy, length cross entropy,
the order-insensitive bag-of-tokens loss, and the two-way contrastive loss.

Each term is exposed separately so ablations are pure configuration. All
functions accept numpy arrays or autodiff tensors and return a scalar
Tensor, so the same code path serves evaluation and training.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import LengthOutOfRange

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


@dataclass
class MaskedPrediction:
    """Per-slot vocabulary distributions and the target sub-token ids."""

    probs: Tensor            # (num_masked, vocab) rows summing to 1
    target_ids: list[int]

    def __post_init__(self):
        self.probs = ad.as_tensor(self.probs)
        data = self.probs.data
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError("probs must be a (num_masked, vocab) matrix")
        if not np.allclose(data.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("each probability row must sum to 1")
        if any(not 0 <= t < data.shape[1] for t in self.target_ids):
            raise ValueError("target id outside vocabulary")


@dataclass
class NameTriple:
    """Unit-norm representations of generated / after / before names."""

    gen: Tensor
    after: Tensor
    before: Tensor

    def __post_init__(self):
        self.gen = ad.as_tensor(self.gen)
        self.after = ad.as_tensor(self.after)
        self.before = ad.as_tensor(self.before)
        for label, vec in (("gen", self.gen), ("after", self.after), ("before", self.before)):
            norm = np.linalg.norm(vec.data)
            if abs(norm - 1.0) > 1e-6:
                raise ValueError(f"{label} vector norm {norm} is not 1")


def _gather_log(values: Tensor, what: str) -> Tensor:
    floored = values.data < PROB_FLOOR
    if np.any(floored):
        logger.warning("%s: clamped %d probabilities below %g before log",
                       what, int(floored.sum()), PROB_FLOOR)
    return ad.log(ad.clamp_min(values, PROB_FLOOR))


def cmlm_loss(pred: MaskedPrediction) -> Tensor:
    """Cross entropy summed over masked positions: -sum_i log p[i, y_i].

    With several occurrences of the name, rows repeat the targets per
    occurrence; each position is aligned with its own target.
    """
    rows = np.arange(len(pred.target_ids))
    if pred.probs.data.shape[0] != len(pred.target_ids):
        raise ValueError("one target per probability row required")
    picked = ad.take_items(pred.probs, rows, np.asarray(pred.target_ids))
    return ad.scale(ad.sum_all(_gather_log(picked, "cmlm_loss")), -1.0)


def lp_loss(length_probs, true_len) -> Tensor:
    """Cross entropy of the length distribution: -log q[true_len].

    A ``(B, L)`` matrix of distributions with ``B`` true lengths gives the
    sum over its rows.
    """
    q = ad.as_tensor(length_probs)
    if q.data.ndim == 1:
        q, true_len = ad.reshape(q, (1, -1)), [true_len]
    if q.data.ndim != 2:
        raise ValueError("length distribution must be a vector or a matrix of rows")
    lengths = np.asarray(true_len, dtype=np.int64)
    if lengths.shape != (q.data.shape[0],):
        raise ValueError("one true length per distribution required")
    for length in lengths:
        if not 1 <= length <= q.data.shape[1]:
            raise LengthOutOfRange(
                f"true length {length} outside 1..{q.data.shape[1]}")
    picked = ad.take_items(q, np.arange(lengths.size), lengths - 1)
    return ad.scale(ad.sum_all(_gather_log(picked, "lp_loss")), -1.0)


def bot_distribution(pred: MaskedPrediction) -> Tensor:
    """Name-level token distribution: elementwise sigmoid of each slot's
    probabilities, summed over slots. Deliberately unnormalized; the sum is
    bit-invariant to any permutation of the slot rows."""
    return ad.ordered_sum_rows(ad.sigmoid(pred.probs))


def bot_loss(z: Tensor, target_ids: list[int]) -> Tensor:
    """Bag-of-tokens loss: -sum_i log z[target_i], order-insensitive.

    Targets are sorted before gathering so any permutation produces a
    bit-identical value. Entries of z may exceed 1, so the loss can be
    negative.
    """
    z = ad.as_tensor(z)
    picked = ad.take(z, np.sort(np.asarray(target_ids)))
    return ad.scale(ad.sum_all(_gather_log(picked, "bot_loss")), -1.0)


def cl_loss(triples: list[NameTriple], tau: float) -> Tensor:
    """Two-way instance discrimination: pull the generated name toward the
    after-name and away from the before-name.

    Per triple: -log( e^{cos(g,a)/tau} / (e^{cos(g,a)/tau} + e^{cos(g,b)/tau}) ),
    computed as softplus((cos(g,b) - cos(g,a)) / tau) for stability.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    total = None
    for triple in triples:
        cos_after = ad.dot(triple.gen, triple.after)
        cos_before = ad.dot(triple.gen, triple.before)
        gap = ad.scale(ad.add(cos_before, ad.scale(cos_after, -1.0)), 1.0 / tau)
        term = ad.softplus(gap)
        total = term if total is None else ad.add(total, term)
    if total is None:
        return Tensor(0.0)
    return total

