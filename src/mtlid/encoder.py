"""Compact trainable transformer encoder with a tanh pooler over position 0.

Each block: multi-head self-attention whose softmax excludes padded keys,
residual + layer norm, GELU feed-forward, residual + layer norm.
Weights are drawn from a name-seeded truncated normal (sigma 0.02, cut at
+-2 sigma); biases start at zero and layer-norm gains at one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .preprocess import RESERVED_TOKENS, VOCAB_SIZE, TokenSequence, stack_sequences
from .tensor import (
    Tensor,
    add,
    attention,
    crop,
    dropout,
    embedding,
    gelu,
    layer_norm,
    linear,
    require_count,
    require_real,
    select,
    tanh,
)


@dataclass
class EncoderConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 256
    l_max: int = 64
    vocab_size: int = VOCAB_SIZE
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        for name in ("d_model", "n_layers", "n_heads", "d_ff", "l_max", "vocab_size"):
            require_count(name, getattr(self, name))
        if self.l_max < 2:
            raise ValueError("l_max must be >= 2")
        if self.vocab_size < len(RESERVED_TOKENS):
            raise ValueError(f"vocab_size must be >= {len(RESERVED_TOKENS)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        require_real("dropout_rate", self.dropout_rate)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass
class EncoderOutput:
    h: Tensor  # [B, W, d_model] contextual embeddings; W is the batch's longest true_length
    pooled: Tensor  # [B, d_model] tanh pooler over position 0
    mask: np.ndarray  # [B, W] bool, true at real tokens; the batch's stacked mask


def param_specs(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Named shapes and init kinds for every encoder parameter.

    Each weight, the positional table included, is one name-seeded draw
    of its full shape. A layer's query, key and value projections are
    one packed weight attn.wqkv [d, 3d] and one bias attn.bqkv [3d],
    side by side in that order.
    """
    d, ff = cfg.d_model, cfg.d_ff
    specs: list[tuple[str, tuple[int, ...], str]] = [
        ("encoder.tok_emb", (cfg.vocab_size, d), "normal"),
        ("encoder.pos_emb", (cfg.l_max, d), "normal"),
    ]
    for i in range(cfg.n_layers):
        base = f"encoder.layer{i}"
        specs.append((f"{base}.attn.wqkv", (d, 3 * d), "normal"))
        specs.append((f"{base}.attn.wo", (d, d), "normal"))
        specs.append((f"{base}.attn.bqkv", (3 * d,), "zeros"))
        specs.append((f"{base}.attn.bo", (d,), "zeros"))
        specs.append((f"{base}.ln1.gain", (d,), "ones"))
        specs.append((f"{base}.ln1.bias", (d,), "zeros"))
        specs.append((f"{base}.ff.w1", (d, ff), "normal"))
        specs.append((f"{base}.ff.b1", (ff,), "zeros"))
        specs.append((f"{base}.ff.w2", (ff, d), "normal"))
        specs.append((f"{base}.ff.b2", (d,), "zeros"))
        specs.append((f"{base}.ln2.gain", (d,), "ones"))
        specs.append((f"{base}.ln2.bias", (d,), "zeros"))
    specs.append(("encoder.pooler.w", (d, d), "normal"))
    specs.append(("encoder.pooler.b", (d,), "zeros"))
    return specs


def embed(ids: np.ndarray | Sequence[TokenSequence], params: dict[str, Tensor]) -> Tensor:
    """Token embedding plus learned positional embedding, [B, W, d].

    ids is the batch's [B, W] id array from stack_sequences; the
    positional table's first W rows are used. A list of TokenSequence is
    stacked here first.
    """
    if not isinstance(ids, np.ndarray):
        ids, _ = stack_sequences(ids)
    tok = embedding(params["encoder.tok_emb"], ids)
    pos = params["encoder.pos_emb"]
    return add(tok, crop(pos, (ids.shape[1], pos.shape[1])))


def multi_head_attention(
    x: Tensor,
    mask: np.ndarray,
    params: dict[str, Tensor],
    layer: str,
    n_heads: int,
    rate: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """Self-attention over x [B, L, d]; masked keys get exactly zero weight.

    One product with the packed weight projects the queries, keys and
    values. Returns the output [B, L, d] after dropout at rate.
    """
    attn = f"{layer}.attn."
    ctx = attention(linear(x, params[attn + "wqkv"], params[attn + "bqkv"]), mask, n_heads)
    return dropout(linear(ctx, params[attn + "wo"], params[attn + "bo"]), rate, rng)


def _feed_forward(
    x: Tensor, params: dict[str, Tensor], layer: str, rate: float, rng: np.random.Generator | None
) -> Tensor:
    hidden = gelu(linear(x, params[f"{layer}.ff.w1"], params[f"{layer}.ff.b1"]))
    return dropout(linear(hidden, params[f"{layer}.ff.w2"], params[f"{layer}.ff.b2"]), rate, rng)


def encode_batch(
    seqs: Sequence[TokenSequence],
    params: dict[str, Tensor],
    cfg: EncoderConfig,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> EncoderOutput:
    """Run the full encoder stack; dropout fires only in train mode.

    The batch is stacked once here; its mask travels on in the output.
    """
    ids, mask = stack_sequences(seqs)
    rate = cfg.dropout_rate if train_mode else 0.0
    if rate > 0.0 and rng is None:
        raise ValueError("encode_batch: train-mode dropout needs an rng")
    x = dropout(embed(ids, params), rate, rng)
    for i in range(cfg.n_layers):
        layer = f"encoder.layer{i}"
        # each sublayer's output is a temporary: under no_grad it is freed
        # once its layer norm returns, before the next sublayer allocates
        attn_out = multi_head_attention(x, mask, params, layer, cfg.n_heads, rate, rng)
        x = layer_norm(attn_out, x, params[f"{layer}.ln1.gain"], params[f"{layer}.ln1.bias"])
        del attn_out
        ff_out = _feed_forward(x, params, layer, rate, rng)
        x = layer_norm(ff_out, x, params[f"{layer}.ln2.gain"], params[f"{layer}.ln2.bias"])
        del ff_out
    first = select(x, 0, axis=1)
    pooled = tanh(linear(first, params["encoder.pooler.w"], params["encoder.pooler.b"]))
    return EncoderOutput(h=x, pooled=pooled, mask=mask)

