"""Compact trainable transformer encoder with a tanh pooler over position 0.

Each block: multi-head self-attention whose softmax excludes padded keys,
residual + layer norm, GELU feed-forward, residual + layer norm.
Weights are drawn from a name-seeded truncated normal (sigma 0.02, cut at
+-2 sigma); biases start at zero and layer-norm gains at one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .preprocess import TokenSequence, stack_sequences
from .tensor import (
    Tensor,
    add,
    crop,
    dropout,
    embedding,
    gelu,
    layer_norm,
    matmul,
    reshape,
    scale,
    select,
    softmax_masked,
    tanh,
    transpose,
)


def require_count(name: str, value) -> None:
    """A config count must be a positive integer; 2.0 and True are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive")


@dataclass
class EncoderConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 256
    l_max: int = 64
    vocab_size: int = 4096
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        for name in ("d_model", "n_layers", "n_heads", "d_ff", "l_max", "vocab_size"):
            require_count(name, getattr(self, name))
        if self.l_max < 2:
            raise ValueError("l_max must be >= 2")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass
class EncoderOutput:
    h: Tensor  # [B, W, d_model] contextual embeddings; W is the batch's longest true_length
    pooled: Tensor  # [B, d_model] tanh pooler over position 0
    mask: np.ndarray  # [B, W] bool, true at real tokens; the batch's stacked mask


def param_specs(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Named shapes and init kinds for every encoder parameter.

    The positional table uses per-row seeding so rows shared between two
    widths are bitwise identical, keeping PAD-tail extension a no-op at
    real positions.
    """
    d, ff = cfg.d_model, cfg.d_ff
    specs: list[tuple[str, tuple[int, ...], str]] = [
        ("encoder.tok_emb", (cfg.vocab_size, d), "normal"),
        ("encoder.pos_emb", (cfg.l_max, d), "normal_rows"),
    ]
    for i in range(cfg.n_layers):
        base = f"encoder.layer{i}"
        for w in ("wq", "wk", "wv", "wo"):
            specs.append((f"{base}.attn.{w}", (d, d), "normal"))
        for b in ("bq", "bk", "bv", "bo"):
            specs.append((f"{base}.attn.{b}", (d,), "zeros"))
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
) -> tuple[Tensor, Tensor]:
    """Self-attention over x [B, L, d]; masked keys get exactly zero weight.

    Returns (output [B, L, d], attention probabilities [B, heads, L, L]).
    """
    b, l, d = x.shape
    dk = d // n_heads

    def project(name: str) -> Tensor:
        y = add(matmul(x, params[f"{layer}.attn.w{name}"]), params[f"{layer}.attn.b{name}"])
        return transpose(reshape(y, (b, l, n_heads, dk)), (0, 2, 1, 3))

    q = project("q")
    k = project("k")
    v = project("v")
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
    att = softmax_masked(scores, mask[:, None, None, :])
    ctx = transpose(matmul(att, v), (0, 2, 1, 3))
    out = add(matmul(reshape(ctx, (b, l, d)), params[f"{layer}.attn.wo"]), params[f"{layer}.attn.bo"])
    return out, att


def _feed_forward(x: Tensor, params: dict[str, Tensor], layer: str) -> Tensor:
    hidden = gelu(add(matmul(x, params[f"{layer}.ff.w1"]), params[f"{layer}.ff.b1"]))
    return add(matmul(hidden, params[f"{layer}.ff.w2"]), params[f"{layer}.ff.b2"])


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
    use_dropout = train_mode and cfg.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("encode_batch: train-mode dropout needs an rng")

    def drop(t: Tensor) -> Tensor:
        return dropout(t, cfg.dropout_rate, rng) if use_dropout else t

    x = drop(embed(ids, params))
    for i in range(cfg.n_layers):
        layer = f"encoder.layer{i}"
        attn_out, _ = multi_head_attention(x, mask, params, layer, cfg.n_heads)
        x = layer_norm(add(x, drop(attn_out)), params[f"{layer}.ln1.gain"], params[f"{layer}.ln1.bias"])
        ff_out = _feed_forward(x, params, layer)
        x = layer_norm(add(x, drop(ff_out)), params[f"{layer}.ln2.gain"], params[f"{layer}.ln2.bias"])
    first = select(x, 0, axis=1)
    pooled = tanh(add(matmul(first, params["encoder.pooler.w"]), params["encoder.pooler.b"]))
    return EncoderOutput(h=x, pooled=pooled, mask=mask)
