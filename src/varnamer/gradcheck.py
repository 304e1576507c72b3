"""Finite-difference validation of analytic gradients.

The binding acceptance gate for the differentiation contract: every loss
exposed by the package must agree with finite differences to 1e-4
relative error on toy instances in float64.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from . import masking, model
from .bpe import CLS, MASK, NUM, SEP
from .errors import InvalidConfig, NonFiniteGradient
from .model import ModelParams
from .training import TgExample, TrainConfig, cmlm_batch_loss, lp_batch_loss, tg_batch_loss

logger = logging.getLogger(__name__)

DEFAULT_EPSILON = 1e-3


def numeric_derivative(loss_fn, params: ModelParams, name: str, index: int,
                       epsilon: float = DEFAULT_EPSILON) -> float:
    """The derivative of ``loss_fn(params)`` in entry ``index`` of the
    flattened tensor ``name``: Richardson extrapolation ``(4 D(e) - D(2e)) / 3``
    of the central differences ``D`` at steps ``e = epsilon`` and ``2e``.

    The extrapolation cancels the central difference's O(e^2) truncation
    error, so the step can be large. A large step keeps the two losses
    subtracted many ulps apart: their rounding then stays small beside
    a gradient near the 1e-8 floor of the relative error.
    """
    flat = params[name].data.reshape(-1)
    original = flat[index]

    def central(step: float) -> float:
        flat[index] = original + step
        f_plus = float(loss_fn(params).data)
        flat[index] = original - step
        f_minus = float(loss_fn(params).data)
        flat[index] = original
        return (f_plus - f_minus) / (2.0 * step)

    return (4.0 * central(epsilon) - central(2.0 * epsilon)) / 3.0


def gradient_check(
    loss_fn,
    params: ModelParams,
    epsilon: float = DEFAULT_EPSILON,
    coords_per_tensor: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of ``loss_fn(params)`` to finite
    differences (``numeric_derivative`` at ``epsilon``).

    ``loss_fn`` must be deterministic (dropout off) and return a scalar
    Tensor built from the parameter tensors. Samples up to
    ``coords_per_tensor`` coordinates per tensor and returns the worst
    relative error |ga - gn| / max(|ga|, |gn|, 1e-8); logs the coordinate
    where it occurs.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise InvalidConfig(f"epsilon {epsilon} must lie in [1e-6, 1e-3]")
    if coords_per_tensor < 1:
        raise InvalidConfig(f"coords_per_tensor {coords_per_tensor} must be >= 1")

    params.zero_grads()
    out = loss_fn(params)
    if not np.isfinite(out.data):
        raise NonFiniteGradient("loss is not finite at the base point")
    out.backward()
    analytic = {}
    for name, tensor in params.tensors.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradient(f"gradient of {name!r} is not finite")
        analytic[name] = grad.copy()
    params.zero_grads()

    rng = np.random.default_rng(seed)
    worst, where = 0.0, None
    for name, tensor in params.tensors.items():
        size = tensor.data.size
        count = min(coords_per_tensor, size)
        coords = rng.choice(size, size=count, replace=False)
        grad_flat = analytic[name].reshape(-1)
        for idx in coords:
            numeric = numeric_derivative(loss_fn, params, name, idx, epsilon)
            ga = grad_flat[idx]
            rel = abs(ga - numeric) / max(abs(ga), abs(numeric), 1e-8)
            if rel > worst:
                worst, where = rel, (name, int(idx), float(ga), float(numeric))
    if where is not None:
        logger.info("worst coordinate %s[%d]: analytic %.6e, numeric %.6e", *where)
    return worst


# --- toy instances for checking every exposed loss ---------------------------

def toy_model(vocab_size: int = 64, hidden_dim: int = 32, num_layers: int = 2,
              seed: int = 0):
    """A tiny model plus a hand-built generation example for loss probes."""
    config = model.ModelConfig(
        vocab_size=vocab_size, num_layers=num_layers, hidden_dim=hidden_dim,
        num_heads=4, ffn_dim=hidden_dim * 4, max_seq_len=32,
        max_name_tokens=5, dropout=0.0)
    params = model.init_params(config, seed)
    rng = np.random.default_rng(seed + 1)

    def draw(k):
        return [int(t) for t in rng.integers(6, vocab_size, size=k)]

    context = draw(6)
    targets = draw(2)
    before = draw(2)
    body = context[:3] + [MASK, MASK] + context[3:]
    masked = masking.MaskedExample(
        input_ids=[CLS] + body + [SEP],
        mask_positions=[[4, 5]],
        target_ids=targets,
    )
    before_ids = [CLS] + context[:3] + before + context[3:] + [SEP]
    example = TgExample(
        masked=masked,
        before_ids=before_ids,
        before_positions=[4, 5],
    )
    return params, example


def loss_suite(example) -> dict[str, object]:
    """Named scalar loss closures over the toy instance, for checking.
    ``batch`` is the stage-2 loss of a two-example batch of different
    lengths, which runs as one pack of six sequences."""
    # The [NUM] scheme puts one placeholder where the toy's single mask group is.
    (group,) = example.masked.mask_positions
    ids = example.masked.input_ids
    num_example = dataclasses.replace(
        example.masked, input_ids=ids[:group[0]] + [NUM] + ids[group[-1] + 1:],
        mask_positions=[[group[0]]])

    # A second example of another length: the toy without the last token
    # before [SEP] (the name sits earlier, so its positions stay).
    def cut(seq):
        return seq[:-2] + seq[-1:]

    batch = [example, dataclasses.replace(
        example, masked=dataclasses.replace(example.masked, input_ids=cut(example.masked.input_ids)),
        before_ids=cut(example.before_ids))]

    def tg_fn(**weights):
        config = TrainConfig(**weights)
        return lambda p: tg_batch_loss(p, [example], [None], config)[0]

    def cmlm_fn(p):
        return cmlm_batch_loss(p, [example.masked], [None])[0]

    def lp_fn(p):
        return lp_batch_loss(p, [num_example], [None])[0]

    def batch_fn(p):
        return tg_batch_loss(p, batch, [None, None], TrainConfig())[0]

    return {"cmlm": cmlm_fn, "lp": lp_fn,
            "bot": tg_fn(lambda_cmlm=0.0, lambda_bot=1.0, lambda_cl=0.0),
            "cl": tg_fn(lambda_cmlm=0.0, lambda_bot=0.0, lambda_cl=1.0),
            "combined": tg_fn(), "batch": batch_fn}
