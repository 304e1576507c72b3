"""Training objectives: masked-token cross entropy, length cross entropy,
the order-insensitive bag-of-tokens loss, and the two-way contrastive loss.

Each term is exposed separately so ablations are pure configuration. Every
function takes plain numpy arrays or autodiff tensors and returns a scalar
Tensor. Training and validation call them; evaluation does not, since it
scores decoded names with ``metrics``.
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import LengthOutOfRange, ShapeMismatch, UnknownTokenId

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


def _neg_log_sum(picked: Tensor, what: str) -> Tensor:
    """-sum log max(picked, PROB_FLOOR), logging how many entries the floor lifts."""
    floored = picked.data < PROB_FLOOR
    if np.any(floored):
        logger.warning("%s: clamped %d probabilities below %g before log",
                       what, int(floored.sum()), PROB_FLOOR)
    return ad.scale(ad.sum_all(ad.log(ad.clamp_min(picked, PROB_FLOOR))), -1.0)


def _in_range(values, low: int, high: int, error: type, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.int64)
    outside = values[(values < low) | (values > high)]
    if outside.size:
        raise error(f"{what} {outside[0]} outside {low}..{high}")
    return values


def _per_row(matrix: Tensor, columns: np.ndarray) -> Tensor:
    """``matrix[i, columns[i]]`` for every row ``i``."""
    rows = matrix.data.shape[0]
    if columns.shape != (rows,):
        raise ShapeMismatch(f"{columns.size} targets for {rows} distribution rows")
    return ad.take_items(matrix, np.arange(rows), columns)


def cmlm_loss(probs, target_ids) -> Tensor:
    """Cross entropy summed over masked positions: -sum_i log p[i, y_i].

    ``probs`` holds one distribution row per target id. With several
    occurrences of the name, rows repeat the targets per occurrence.
    """
    probs = ad.as_tensor(probs)
    targets = _in_range(target_ids, 0, probs.data.shape[1] - 1, UnknownTokenId, "target id")
    return _neg_log_sum(_per_row(probs, targets), "cmlm_loss")


def lp_loss(length_probs, true_lengths) -> Tensor:
    """Cross entropy of the length distributions, summed over the rows of a
    ``(B, L)`` matrix: -sum_b log q[b, true_lengths[b]], lengths in 1..L."""
    q = ad.as_tensor(length_probs)
    lengths = _in_range(true_lengths, 1, q.data.shape[1], LengthOutOfRange, "true length")
    return _neg_log_sum(_per_row(q, lengths - 1), "lp_loss")


def bot_distribution(probs) -> Tensor:
    """Name-level token distribution: elementwise sigmoid of each slot's
    probabilities, summed over slots. Deliberately unnormalized; the sum is
    bit-invariant to any permutation of the slot rows."""
    return ad.ordered_sum_rows(ad.sigmoid(probs))


def bot_loss(z, target_ids) -> Tensor:
    """Bag-of-tokens loss: -sum_i log z[target_i], order-insensitive.

    Targets are sorted before gathering so any permutation produces a
    bit-identical value. Entries of z may exceed 1, so the loss can be
    negative.
    """
    z = ad.as_tensor(z)
    targets = _in_range(target_ids, 0, z.data.shape[0] - 1, UnknownTokenId, "target id")
    return _neg_log_sum(ad.take(z, np.sort(targets)), "bot_loss")


def cl_loss(gen, after, before, tau: float) -> Tensor:
    """Two-way instance discrimination: pull each generated name toward its
    after-name and away from its before-name.

    ``gen``, ``after`` and ``before`` hold one unit vector per name, and
    the loss sums over them. Per name:
    -log( e^{cos(g,a)/tau} / (e^{cos(g,a)/tau} + e^{cos(g,b)/tau}) ),
    computed as softplus((cos(g,b) - cos(g,a)) / tau) for stability.
    """
    total = None
    for g, a, b in zip(gen, after, before):
        gap = ad.add(ad.dot(g, b), ad.scale(ad.dot(g, a), -1.0))
        term = ad.softplus(ad.scale(gap, 1.0 / tau))
        total = term if total is None else ad.add(total, term)
    return total
