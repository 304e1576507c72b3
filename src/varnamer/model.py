"""Small bidirectional transformer encoder with token and length heads.

Sizes are config-driven; the defaults are desk scale (2 layers, width 128)
but the full-size geometry remains expressible. All arithmetic is float64;
checkpoints store float32.

Every loss and decoder reads only a few output rows: [CLS] for length
prediction, the masked or name positions for the token head and the
pooled name vectors. ``forward(..., rows=R)`` returns just those rows.
Its last layer computes keys and values at every position (all rows are
attended to) but queries, attention output, FFN and layer norms only at
``R``, which saves about 40% of a 2-layer encoder's multiply-adds. The
result equals the full output's rows ``R`` up to rounding, in train mode
too: the last layer's dropout masks are drawn at full size and subset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bpe import CLS, SEP
from .errors import (
    CorruptCheckpoint,
    EmptyPositions,
    InvalidConfig,
    InvalidRows,
    SequenceTooLong,
    ShapeMismatch,
    UnknownTokenId,
    ZeroVector,
)

CHECKPOINT_MAGIC = b"RFBT"
CHECKPOINT_VERSION = 1

_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


class TextConfig:
    """The ``key = value`` text form shared by the model and training
    configurations; blank lines and ``#`` comments are skipped."""

    def to_text(self) -> str:
        return "\n".join(
            f"{f.name} = {getattr(self, f.name)}" for f in fields(self)
        ) + "\n"

    @classmethod
    def from_text(cls, text: str):
        types = {f.name: f.type for f in fields(cls)}   # strings: postponed annotations
        values: dict[str, object] = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfig(f"config line {line_no}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in types:
                raise InvalidConfig(f"config line {line_no}: unknown key {key!r}")
            kind = types[key]
            try:
                if kind == "bool":
                    values[key] = _BOOLEANS[raw.lower()]
                elif kind == "float":
                    values[key] = float(raw)
                else:
                    values[key] = int(raw)
            except (KeyError, ValueError):
                raise InvalidConfig(
                    f"config line {line_no}: {key} = {raw!r} is not a valid {kind}"
                ) from None
        config = cls(**values)  # type: ignore[arg-type]
        config.validate()
        return config


@dataclass
class ModelConfig(TextConfig):
    vocab_size: int
    num_layers: int = 2
    hidden_dim: int = 128
    num_heads: int = 4
    ffn_dim: int = 512
    max_seq_len: int = 512
    max_name_tokens: int = 5
    dropout: float = 0.1
    tie_token_head: bool = False

    def validate(self) -> None:
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidConfig("hidden_dim must be divisible by num_heads")
        if self.max_name_tokens < 1:
            raise InvalidConfig("max_name_tokens must be >= 1")
        if self.max_seq_len < 3:
            raise InvalidConfig("max_seq_len must be >= 3 (CLS + token + SEP)")
        if self.vocab_size < 7:
            raise InvalidConfig("vocab_size must cover the special tokens")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig("dropout must be in [0, 1)")
        if min(self.num_layers, self.ffn_dim) < 1:
            raise InvalidConfig("num_layers and ffn_dim must be positive")


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes for a configuration."""
    d, v = config.hidden_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (v, d),
        "position_embedding": (config.max_seq_len, d),
        "embedding_norm.scale": (d,),
        "embedding_norm.bias": (d,),
    }
    for i in range(config.num_layers):
        p = f"layer{i}"
        for proj in ("query", "key", "value", "output"):
            shapes[f"{p}.attention.{proj}.weight"] = (d, d)
            shapes[f"{p}.attention.{proj}.bias"] = (d,)
        shapes[f"{p}.attention_norm.scale"] = (d,)
        shapes[f"{p}.attention_norm.bias"] = (d,)
        shapes[f"{p}.ffn.in.weight"] = (d, config.ffn_dim)
        shapes[f"{p}.ffn.in.bias"] = (config.ffn_dim,)
        shapes[f"{p}.ffn.out.weight"] = (config.ffn_dim, d)
        shapes[f"{p}.ffn.out.bias"] = (d,)
        shapes[f"{p}.ffn_norm.scale"] = (d,)
        shapes[f"{p}.ffn_norm.bias"] = (d,)
    if not config.tie_token_head:
        shapes["token_head.weight"] = (d, v)
    shapes["token_head.bias"] = (v,)
    shapes["length_head.weight"] = (config.max_name_tokens, d)
    shapes["length_head.bias"] = (config.max_name_tokens,)
    return shapes


@dataclass
class ModelParams:
    """All weights as named, gradient-tracked tensors plus the config."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def clone(self) -> "ModelParams":
        """Deep copy (fresh tensors, same values); used to branch trainings."""
        import copy

        return ModelParams(
            config=copy.deepcopy(self.config),
            tensors={name: Tensor(t.data.copy(), requires_grad=True)
                     for name, t in self.tensors.items()},
        )

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Weights ~ N(0, 0.02), biases and norm offsets zero, norm scales one."""
    config.validate()
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".bias") or name == "embedding_norm.bias":
            data = np.zeros(shape)
        elif name.endswith(".scale"):
            data = np.ones(shape)
        else:
            data = rng.normal(0.0, 0.02, size=shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(config=config, tensors=tensors)


@dataclass
class EncodedSequence:
    """Contextual vectors, one row per position or per requested row; row 0
    is the [CLS] summary for the full output and for ``rows=[0]``."""

    hidden: Tensor = field(repr=False)

    @property
    def hidden_states(self) -> np.ndarray:
        return self.hidden.data

    @property
    def cls_vector(self) -> np.ndarray:
        return self.hidden.data[0]


def forward(
    params: ModelParams,
    ids: list[int],
    train_mode: bool = False,
    dropout_seed: int = 0,
    rows: list[int] | None = None,
) -> EncodedSequence:
    """Run the encoder over a CLS...SEP token sequence.

    Deterministic when train_mode is off; dropout is seeded otherwise.
    ``rows`` (positions in any order, repeats allowed) returns only those
    rows, shape ``(len(rows), d)``: the last layer attends from them alone,
    over keys and values at every position. ``None`` returns all S rows.
    Raises InvalidRows when ``rows`` is empty or out of range.
    """
    config = params.config
    n = len(ids)
    if n > config.max_seq_len:
        raise SequenceTooLong(f"{n} tokens > max_seq_len {config.max_seq_len}")
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0 or arr.min() < 0 or arr.max() >= config.vocab_size:
        raise UnknownTokenId("token ids must lie in [0, vocab_size)")
    if arr[0] != CLS or arr[-1] != SEP:
        raise ValueError("sequence must start with [CLS] and end with [SEP]")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or rows.size == 0 or rows.min() < 0 or rows.max() >= n:
            raise InvalidRows(f"rows must be a non-empty list of positions in [0, {n})")

    rate = config.dropout if train_mode else 0.0
    rng = np.random.default_rng(dropout_seed) if rate > 0 else None

    def drop(x: Tensor, sel=None, axis: int = 0) -> Tensor:
        if rng is None:
            return x
        if sel is None:
            return ad.dropout(x, rate, rng)
        # Draw the full-size mask so each kept row is masked as in the full pass.
        shape = list(x.shape)
        shape[axis] = n
        keep = np.take(rng.random(shape) >= rate, sel, axis=axis)
        return ad.dropout(x, rate, rng, keep=keep)

    x = ad.add(ad.take(params["token_embedding"], arr),
               ad.take(params["position_embedding"], np.arange(n)))
    x = ad.layer_norm(x, params["embedding_norm.scale"], params["embedding_norm.bias"])
    x = drop(x)

    heads = config.num_heads
    head_dim = config.hidden_dim // heads
    inv_sqrt = 1.0 / math.sqrt(head_dim)
    for i in range(config.num_layers):
        p = f"layer{i}"
        # Queries and everything after them run only at the output rows.
        sel = rows if i == config.num_layers - 1 else None
        xq = x if sel is None else ad.take(x, sel)
        m = xq.shape[0]
        q = _project(params, f"{p}.attention.query", xq)
        k = _project(params, f"{p}.attention.key", x)
        v = _project(params, f"{p}.attention.value", x)
        q = transpose_heads(q, m, heads, head_dim)
        k = transpose_heads(k, n, heads, head_dim)
        v = transpose_heads(v, n, heads, head_dim)
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), inv_sqrt)
        probs = drop(ad.softmax(scores), sel, axis=1)     # (H, m, S)
        context = ad.matmul(probs, v)                     # (H, m, head_dim)
        context = ad.reshape(ad.transpose(context, (1, 0, 2)), (m, config.hidden_dim))
        attn_out = drop(_project(params, f"{p}.attention.output", context), sel)
        x = ad.layer_norm(ad.add(xq, attn_out),
                          params[f"{p}.attention_norm.scale"],
                          params[f"{p}.attention_norm.bias"])
        ffn = ad.gelu(_project(params, f"{p}.ffn.in", x))
        ffn = drop(_project(params, f"{p}.ffn.out", ffn), sel)
        x = ad.layer_norm(ad.add(x, ffn),
                          params[f"{p}.ffn_norm.scale"],
                          params[f"{p}.ffn_norm.bias"])
    return EncodedSequence(hidden=x)


def _project(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, params[f"{prefix}.weight"]), params[f"{prefix}.bias"])


def transpose_heads(x: Tensor, n: int, heads: int, head_dim: int) -> Tensor:
    return ad.transpose(ad.reshape(x, (n, heads, head_dim)), (1, 0, 2))


def token_logits(params: ModelParams, hidden_state) -> Tensor:
    """Project hidden vectors (1-D or row-stacked 2-D) to vocabulary logits."""
    h = ad.as_tensor(hidden_state)
    if params.config.tie_token_head:
        weight = ad.transpose(params["token_embedding"], (1, 0))
    else:
        weight = params["token_head.weight"]
    return ad.add(ad.matmul(h, weight), params["token_head.bias"])


def token_probs(params: ModelParams, hidden_state) -> Tensor:
    return ad.softmax(token_logits(params, hidden_state))


def length_logits(params: ModelParams, cls_vector) -> Tensor:
    """Scores over 1..max_name_tokens from the [CLS] representation."""
    h = ad.as_tensor(cls_vector)
    return ad.add(
        ad.matmul(h, ad.transpose(params["length_head.weight"], (1, 0))),
        params["length_head.bias"],
    )


def length_probs(params: ModelParams, cls_vector) -> Tensor:
    return ad.softmax(length_logits(params, cls_vector))


def pool_name_representation(hidden_states, positions: list[int] | None = None) -> Tensor:
    """Mean of the selected rows (all rows when ``positions`` is None),
    L2-normalized to a unit vector."""
    h = ad.as_tensor(hidden_states)
    if positions is not None:
        if len(positions) == 0:
            raise EmptyPositions("positions must be non-empty")
        if max(positions) >= h.data.shape[0] or min(positions) < 0:
            raise IndexError("pooling position out of range")
        h = ad.take(h, list(positions))
    pooled = ad.mean_axis(h, axis=0)
    if not np.any(pooled.data):
        raise ZeroVector("pooled representation is exactly zero")
    return ad.l2_normalize(pooled)


def resize_length_head(params: ModelParams, max_name_tokens: int, seed: int = 0) -> None:
    """Re-shape the length head for a different maximum sub-token count.

    Existing rows are kept; new rows are drawn fresh. Used by sweeps that
    vary the length cap against one base checkpoint.
    """
    if max_name_tokens == params.config.max_name_tokens:
        return
    d = params.config.hidden_dim
    rng = np.random.default_rng(seed)
    old_w = params["length_head.weight"].data
    old_b = params["length_head.bias"].data
    new_w = rng.normal(0.0, 0.02, size=(max_name_tokens, d))
    new_b = np.zeros(max_name_tokens)
    keep = min(max_name_tokens, old_w.shape[0])
    new_w[:keep] = old_w[:keep]
    new_b[:keep] = old_b[:keep]
    params.tensors["length_head.weight"] = Tensor(new_w, requires_grad=True)
    params.tensors["length_head.bias"] = Tensor(new_b, requires_grad=True)
    params.config.max_name_tokens = max_name_tokens


# --- checkpoint io ----------------------------------------------------------

def save_checkpoint(params: ModelParams, path: str) -> None:
    """Binary little-endian checkpoint; tensor data stored as float32."""
    config_blob = params.config.to_text().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        for name, tensor in params.tensors.items():
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            data = tensor.data.astype("<f4")
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes(order="C"))


def load_checkpoint(path: str) -> ModelParams:
    """Read a checkpoint, validating tensor shapes against its config.

    A truncated or undecodable file raises CorruptCheckpoint naming the
    path and the byte offset where reading failed.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def read(size: int, what: str) -> bytes:
        nonlocal off
        if off + size > len(blob):
            raise CorruptCheckpoint(
                f"{path}: truncated at offset {off}: {what} needs {size} bytes, "
                f"{len(blob) - off} left")
        off += size
        return blob[off - size:off]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, read(struct.calcsize(fmt), what))

    def text(size: int, what: str) -> str:
        start = off
        try:
            return read(size, what).decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptCheckpoint(f"{path}: {what} at offset {start} is not UTF-8") from None

    if blob[:4] != CHECKPOINT_MAGIC:
        raise InvalidConfig(f"{path}: bad magic at offset 0, not a checkpoint")
    off = 4
    (version,) = unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise InvalidConfig(f"{path}: unsupported version {version}")
    (config_len,) = unpack("<I", "config length")
    config_off = off
    try:
        config = ModelConfig.from_text(text(config_len, "config"))
    except InvalidConfig as exc:
        raise CorruptCheckpoint(f"{path}: config at offset {config_off}: {exc}") from None

    expected = parameter_shapes(config)
    tensors: dict[str, Tensor] = {}
    while off < len(blob):
        (name_len,) = unpack("<I", "tensor name length")
        name = text(name_len, "tensor name")
        (rank,) = unpack("<I", f"rank of {name!r}")
        shape = unpack(f"<{rank}I", f"shape of {name!r}")
        if name not in expected:
            raise ShapeMismatch(f"{path}: unexpected tensor {name!r}")
        if tuple(shape) != expected[name]:
            raise ShapeMismatch(
                f"{path}: tensor {name!r} has shape {tuple(shape)}, "
                f"config implies {expected[name]}")
        count = int(np.prod(shape)) if rank else 1
        data = np.frombuffer(read(count * 4, f"data of {name!r}"), dtype="<f4")
        tensors[name] = Tensor(data.reshape(shape).astype(np.float64),
                               requires_grad=True)
    missing = set(expected) - set(tensors)
    if missing:
        raise ShapeMismatch(
            f"{path}: missing tensors {sorted(missing)} (file ends at offset {off})")
    return ModelParams(config=config, tensors=tensors)
