"""Small bidirectional transformer encoder with token and length heads.

Sizes are config-driven; the defaults are desk scale (2 layers, width 128)
but the full-size geometry remains expressible. Checkpoints store float32.
Fresh parameters are float64; training computes in float32 on rounded
copies of float64 master weights and hands back the masters (see
``training``); a model read from a checkpoint computes in float32, the
precision it was stored in (see the dtype rule in ``autodiff``). The
encoder computes in its parameters' dtype, dropout scales included.

Dropout is handed to ``autodiff`` as boolean keep patterns and a scale,
``1 / (1 - rate)`` divided in the parameters' dtype, so that
``keep * scale`` is the float mask; the ops keep only the booleans. In a
pack, the rows of a sequence without a dropout seed keep every entry at
scale 1 (the scale is an ``(N, 1)`` column), so they pass unchanged, and
that sequence gets no attention pattern.

``forward`` encodes a pack: one or more CLS...SEP sequences stored back to
back as one ``(ΣS, d)`` row block, so that embeddings, every projection,
layer norm, GELU and dropout run once for all of them. Each sequence has
its own positions (0 at its [CLS]) and attends only to itself, and each
draws its dropout masks from its own seed, in the order its own pass
would draw them. A pack's rows therefore equal those of one pass per
sequence up to rounding (the larger matrix products may sum in another
order), with exactly the same masks.
A one-sequence pack is the plain single-sequence encoder that inference
calls.

A layer's FFN is one ``autodiff.ffn`` node, which keeps the layer's
post-attention rows and rebuilds GELU's input and output from them in the
backward, so a recorded step holds no ``(ΣS, ffn_dim)`` array. A layer's
attention, its Q/K/V projections included, is one
``autodiff.self_attention`` node, which keeps the layer's input and
rebuilds the queries, keys and values in the backward. Both run the
operations of the graphs they replace, in the same order, so results are
bit-identical to those.

Every loss and decoder reads only a few output rows: [CLS] for length
prediction, the masked or name positions for the token head and the
pooled name vectors. ``forward(..., rows=R)`` returns just those rows,
``R`` being positions in the pack. Its last layer computes keys and values
at every position (every row of a sequence is attended to) but queries,
attention output, FFN and layer norms only at ``R``, each row attending
within its own sequence; this saves about 40% of a 2-layer encoder's
multiply-adds. The result equals the full output's rows ``R`` up to
rounding, in train mode too: the last layer's dropout patterns are the
rows ``R`` of the full draws, bit for bit. They are drawn only over the
runs of rows that ``R`` reads, and the generator's ``advance`` skips the
rest (see ``_drawn_rows``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

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
from .fileio import atomic_write

CHECKPOINT_MAGIC = b"RFBT"
CHECKPOINT_VERSION = 1

# A gap between the rows ``_drawn_rows`` needs is skipped with ``advance``
# from this many doubles on, and drawn below it.
_SKIP_MIN_DRAWS = 1024

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

    @property
    def dtype(self) -> np.dtype:
        """The precision the model computes in: float64 when fresh or
        handed back by a training stage, float32 during a stage's steps and
        when read from a checkpoint."""
        return self.tensors["token_embedding"].data.dtype


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


def forward(
    params: ModelParams,
    ids: list[int],
    train_mode: bool = False,
    dropout_seed: int | list[int | None] = 0,
    rows: list[int] | None = None,
    lengths: list[int] | None = None,
) -> Tensor:
    """Run the encoder over a pack of CLS...SEP token sequences; returns one
    contextual vector per row, a sequence's first row being its [CLS] summary.

    ``ids`` holds the pack's sequences back to back and ``lengths`` their
    lengths; ``None`` is one sequence. Deterministic when train_mode is
    off; dropout is seeded otherwise, by ``dropout_seed``: one seed for
    every sequence or one per sequence, where a ``None`` seed runs that
    sequence without dropout. ``rows`` (pack positions in any order,
    repeats allowed) returns only those rows, shape ``(len(rows), d)``:
    the last layer attends from them alone, over keys and values at every
    position of their sequence. ``None`` returns all rows. A repeated
    row's gradient into the last layer's input adds up the residual's and
    the queries' pieces of its repeats as two sums, so it can differ in the
    last bits from adding the repeats one at a time.
    Raises InvalidRows when ``rows`` is empty or out of range.
    """
    config = params.config
    arr = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray([arr.size] if lengths is None else lengths, dtype=np.int64)
    if lengths.max(initial=0) > config.max_seq_len:
        raise SequenceTooLong(f"{lengths.max()} tokens > max_seq_len {config.max_seq_len}")
    if arr.size == 0 or arr.min() < 0 or arr.max() >= config.vocab_size:
        raise UnknownTokenId("token ids must lie in [0, vocab_size)")
    if (lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1
            or lengths.sum() != arr.size):
        raise ValueError(f"lengths must be positive and sum to the {arr.size} ids")
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    if np.any(arr[offsets[:-1]] != CLS) or np.any(arr[offsets[1:] - 1] != SEP):
        raise ValueError("each sequence must start with [CLS] and end with [SEP]")
    total = arr.size
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or rows.size == 0 or rows.min() < 0 or rows.max() >= total:
            raise InvalidRows(f"rows must be a non-empty list of positions in [0, {total})")

    heads = config.num_heads
    rate = config.dropout if train_mode else 0.0
    seeds = ([dropout_seed] * lengths.size if np.ndim(dropout_seed) == 0
             else list(dropout_seed))
    if len(seeds) != lengths.size:
        raise ValueError(f"{len(seeds)} dropout seeds for {lengths.size} sequences")
    rngs = [np.random.default_rng(s) if rate > 0 and s is not None else None for s in seeds]
    dropping = any(rng is not None for rng in rngs)
    dtype = params.dtype        # of the activations, and so of the scales
    scale = row_scale = queries = spans = None
    if dropping:
        scale = np.divide(1.0, 1.0 - rate, dtype=dtype)
        row_scale = np.repeat(np.array([1 if rng is None else scale for rng in rngs], dtype),
                              lengths)[:, None]
        if rows is not None:
            # Per sequence, the positions in ``rows`` of its rows, the
            # distinct positions the last layer reads there, sorted, and
            # where each of its query rows finds its own.
            owner = np.searchsorted(offsets, rows, side="right") - 1
            queries = [np.flatnonzero(owner == i) for i in range(lengths.size)]
            spans = [np.unique(rows[mine] - start, return_inverse=True)
                     for mine, start in zip(queries, offsets)]

    def drop(x: Tensor, last: bool) -> Tensor:
        """Dropout on ``(rows, d)`` activations, each sequence's pattern
        drawn from its own generator, as its own pass would draw it; in
        the last layer, only the rows it reads."""
        if not dropping:
            return x
        width = x.shape[1]
        if last:
            keep = np.ones((rows.size, width), bool)
            for rng, n, mine, (local, inverse) in zip(rngs, lengths, queries, spans):
                if rng is not None:
                    keep[mine] = _drawn_rows(rng, local, n, width, rate)[inverse]
            return ad.dropout(x, keep, row_scale[rows])
        keep = np.concatenate([
            rng.random((n, width)) >= rate if rng is not None else np.ones((n, width), bool)
            for rng, n in zip(rngs, lengths)])
        return ad.dropout(x, keep, row_scale)

    def attention_keeps(last: bool):
        if not dropping:
            return None
        keeps = []
        for i, (rng, n) in enumerate(zip(rngs, lengths)):
            if rng is None:
                keeps.append(None)
            elif last:
                # the pattern's rows are heads * n rows of n; each head reads rows ``local``
                local, inverse = spans[i]
                wanted = (np.arange(heads)[:, None] * n + local).reshape(-1)
                keep = _drawn_rows(rng, wanted, heads * n, n, rate)
                keeps.append(keep.reshape(heads, local.size, n)[:, inverse])
            else:
                keeps.append(rng.random((heads, n, n)) >= rate)
        return keeps

    positions = np.arange(total) - np.repeat(offsets[:-1], lengths)
    x = ad.add(ad.take(params["token_embedding"], arr),
               ad.take(params["position_embedding"], positions))
    x = ad.layer_norm(x, params["embedding_norm.scale"], params["embedding_norm.bias"])
    x = drop(x, False)

    for i in range(config.num_layers):
        p = f"layer{i}"
        # Queries and everything after them run only at the output rows.
        last = rows is not None and i == config.num_layers - 1
        # xq is the residual add's first operand, so a take's backward reaches
        # x before the attention node's: x's gradient sums the residual's,
        # then Q's, K's and V's pieces, as in the graph of three linears.
        xq = ad.take(x, rows) if last else x
        projections = [params[f"{p}.attention.{proj}.{part}"]
                       for proj in ("query", "key", "value") for part in ("weight", "bias")]
        context = ad.self_attention(x, *projections, offsets, heads, rows if last else None,
                                    attention_keeps(last), scale)
        attn_out = drop(_project(params, f"{p}.attention.output", context), last)
        x = ad.layer_norm(ad.add(xq, attn_out),
                          params[f"{p}.attention_norm.scale"],
                          params[f"{p}.attention_norm.bias"])
        ffn = drop(ad.ffn(x, params[f"{p}.ffn.in.weight"], params[f"{p}.ffn.in.bias"],
                          params[f"{p}.ffn.out.weight"], params[f"{p}.ffn.out.bias"]), last)
        x = ad.layer_norm(ad.add(x, ffn),
                          params[f"{p}.ffn_norm.scale"],
                          params[f"{p}.ffn_norm.bias"])
    return x


def _drawn_rows(rng: np.random.Generator, rows: np.ndarray, count: int, width: int,
                rate: float) -> np.ndarray:
    """``rng.random((count, width))[rows] >= rate`` for sorted distinct
    ``rows``, drawing only runs of rows around them, and leaving ``rng``
    where the full draw would.

    The generator is a PCG64, which spends one 64-bit output per double,
    so ``advance`` skips the rows between runs exactly. Rows closer than
    ``_SKIP_MIN_DRAWS`` doubles share a run: drawing that gap costs less
    than one more call.
    """
    keep = np.empty((rows.size, width), bool)
    generator = rng.bit_generator
    cuts = np.flatnonzero((np.diff(rows) - 1) * width >= _SKIP_MIN_DRAWS) + 1
    done = position = 0
    for run in np.split(rows, cuts) if rows.size else ():
        first, last = int(run[0]), int(run[-1])
        generator.advance(int((first - position) * width))
        block = rng.random((last + 1 - first, width))
        np.greater_equal(block[run - first], rate, out=keep[done:done + run.size])
        done, position = done + run.size, last + 1
    generator.advance(int((count - position) * width))
    return keep


def _project(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return ad.linear(x, params[f"{prefix}.weight"], params[f"{prefix}.bias"])


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
    if max_name_tokens < 1:
        raise InvalidConfig(f"max_name_tokens must be >= 1, got {max_name_tokens}")
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
    """Binary little-endian checkpoint; tensor data stored as float32. The
    previous file at ``path`` stays intact until the new one is complete."""
    config_blob = params.config.to_text().encode("utf-8")
    with atomic_write(path, "wb") as fh:
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

    Tensors come back as float32, as stored (writable copies); training
    widens them exactly into its float64 master weights.

    A truncated or undecodable file, or one that stores a tensor twice,
    raises CorruptCheckpoint naming the path and the byte offset where
    reading failed or the second copy starts.
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
        start = off
        (name_len,) = unpack("<I", "tensor name length")
        name = text(name_len, "tensor name")
        if name in tensors:
            raise CorruptCheckpoint(
                f"{path}: tensor {name!r} stored a second time at offset {start}")
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
        tensors[name] = Tensor(data.reshape(shape).astype(np.float32),
                               requires_grad=True)
    missing = set(expected) - set(tensors)
    if missing:
        raise ShapeMismatch(
            f"{path}: missing tensors {sorted(missing)} (file ends at offset {off})")
    return ModelParams(config=config, tensors=tensors)
