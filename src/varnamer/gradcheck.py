"""Finite-difference validation of analytic gradients.

The binding acceptance gate for the differentiation contract: every loss
exposed by the package must agree with central differences to 1e-4
relative error on toy instances in float64.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import NonFiniteGradient
from .model import ModelParams


def gradient_check(
    loss_fn,
    params: ModelParams,
    epsilon: float = 3e-4,
    coords_per_tensor: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of ``loss_fn(params)`` to central
    finite differences.

    ``loss_fn`` must be deterministic (dropout off) and return a scalar
    Tensor built from the parameter tensors. Samples up to
    ``coords_per_tensor`` coordinates per tensor and returns the worst
    relative error |ga - gn| / max(|ga|, |gn|, 1e-8).
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-6, 1e-3]")

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

    def value_at() -> float:
        return float(loss_fn(params).data)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, tensor in params.tensors.items():
        size = tensor.data.size
        count = min(coords_per_tensor, size)
        coords = rng.choice(size, size=count, replace=False)
        flat = tensor.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + epsilon
            f_plus = value_at()
            flat[idx] = original - epsilon
            f_minus = value_at()
            flat[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            ga = grad_flat[idx]
            rel = abs(ga - numeric) / max(abs(ga), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


def quadratic_probe(params: ModelParams) -> Tensor:
    """0.5 * sum of squares over all parameters; gradient is the parameters."""
    from . import autodiff as ad

    total = None
    for tensor in params.tensors.values():
        term = ad.scale(ad.sum_all(ad.power(tensor, 2.0)), 0.5)
        total = term if total is None else ad.add(total, term)
    return total


# --- toy instances for checking every exposed loss ---------------------------

def toy_model(vocab_size: int = 64, hidden_dim: int = 32, num_layers: int = 2,
              seed: int = 0):
    """A tiny model plus a hand-built generation example for loss probes."""
    from . import masking, model
    from .bpe import CLS, MASK, SEP
    from .training import TgExample

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
        length_label=2,
        scheme=masking.SCHEME_CMLM,
    )
    after_ids = [CLS] + context[:3] + targets + context[3:] + [SEP]
    before_ids = [CLS] + context[:3] + before + context[3:] + [SEP]
    example = TgExample(
        masked=masked,
        after_ids=after_ids,
        after_positions=[4, 5],
        before_ids=before_ids,
        before_positions=[4, 5],
    )
    return params, example


def loss_suite(params, example, tau: float = 0.05) -> dict[str, object]:
    """Named scalar loss closures over the toy instance, for checking."""
    from . import losses as L
    from . import model
    from .training import TrainConfig, cmlm_example_loss, lp_example_loss, tg_example_loss

    num_example = _num_variant(example.masked)

    def cmlm_fn(p):
        return cmlm_example_loss(p, example.masked, False, 0)

    def lp_fn(p):
        return lp_example_loss(p, num_example, False, 0)

    def bot_fn(p):
        encoded = model.forward(p, example.masked.input_ids, False, 0,
                                rows=example.masked.flat_positions)
        probs = model.token_probs(p, encoded.hidden)
        pred = L.MaskedPrediction(probs=probs, target_ids=example.masked.target_ids)
        return L.bot_loss(L.bot_distribution(pred), pred.target_ids)

    def cl_fn(p):
        config = TrainConfig(lambda_cmlm=0.0, lambda_bot=0.0, lambda_cl=1.0,
                             tau=tau, dropout=0.0)
        return tg_example_loss(p, example, config, False, 0)[0]

    def combined_fn(p):
        config = TrainConfig(tau=tau, dropout=0.0)
        return tg_example_loss(p, example, config, False, 0)[0]

    return {"cmlm": cmlm_fn, "lp": lp_fn, "bot": bot_fn,
            "cl": cl_fn, "combined": combined_fn}


def _num_variant(masked):
    from . import masking
    from .bpe import NUM

    ids = list(masked.input_ids)
    groups = []
    offset = 0
    for group in masked.mask_positions:
        start = group[0] - offset
        ids[start:start + len(group)] = [NUM]
        groups.append([start])
        offset += len(group) - 1
    return masking.MaskedExample(
        input_ids=ids,
        mask_positions=groups,
        target_ids=list(masked.target_ids),
        length_label=masked.length_label,
        scheme=masking.SCHEME_NUM,
    )
