"""Per-task attention pooling over contextual embeddings.

Given H [B, W, d] and a padding mask, each task layer computes
tanh(H w_a), mixes positions through an l_max x l_max matrix cropped to
its leading W x W corner (W is the batch width, at most l_max), masks
and normalizes the resulting scores, and returns the weighted sum of H
rows: a task-specific sentence vector that always lies in the convex
hull of the unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .preprocess import TokenSequence, Vocabulary
from .tensor import (
    Tensor,
    crop,
    matmul,
    mul,
    reshape,
    softmax_masked,
    tanh,
    transpose,
)


@dataclass
class TaskAttentionOutput:
    v: Tensor  # [B, d] pooled task vector
    alpha: Tensor  # [B, L] attention weights; 0 exactly at masked positions


def param_specs(d_model: int, l_max: int, task: str) -> list[tuple[str, tuple[int, ...], str]]:
    """Shapes for one task's attention layer; tasks never share these."""
    return [
        (f"{task}_attn.w_a", (d_model, 1), "normal"),
        (f"{task}_attn.w_alpha", (l_max, l_max), "normal"),
    ]


def task_attention(h: Tensor, mask: np.ndarray, w_a: Tensor, w_alpha: Tensor) -> TaskAttentionOutput:
    """Pool H [B, L, d] into one vector per example.

    w_alpha [l_max, l_max] is cropped to its leading L x L corner. Masked
    positions are zeroed before the position-mixing product and excluded
    from the softmax, so padding influences neither the scores nor the
    pooled vector. Raises DegenerateMaskError on an all-masked row.
    """
    b, l, _ = h.shape
    w_alpha = crop(w_alpha, (l, l))
    mask = np.asarray(mask, dtype=bool)
    scores_keep = Tensor(mask.astype(h.data.dtype)[:, :, None])
    c = mul(tanh(matmul(h, w_a)), scores_keep)  # [B, L, 1]
    scores = matmul(transpose(c, (0, 2, 1)), w_alpha)  # [B, 1, L]
    alpha = softmax_masked(scores, mask[:, None, :])
    v = reshape(matmul(alpha, h), (b, h.shape[-1]))
    return TaskAttentionOutput(v=v, alpha=reshape(alpha, (b, l)))


def attention_report(
    alpha: Tensor | np.ndarray,
    seqs: Sequence[TokenSequence],
    vocab: Vocabulary,
) -> list[list[tuple[str, float]]]:
    """Per example: (token, weight) for unmasked positions, in position order."""
    weights = alpha.data if isinstance(alpha, Tensor) else np.asarray(alpha)
    if weights.shape[0] != len(seqs):
        raise ValueError(f"alpha rows ({weights.shape[0]}) != batch size ({len(seqs)})")
    report = []
    for row, seq in zip(weights, seqs):
        report.append(
            [
                (vocab.token_for(int(i)), float(w))
                for i, m, w in zip(seq.ids, seq.mask, row)
                if m
            ]
        )
    return report


def format_attention_report(report: list[list[tuple[str, float]]]) -> str:
    """Tab-separated token/weight lines, one blank-line-separated block per example."""
    blocks = ["\n".join(f"{tok}\t{weight!r}" for tok, weight in example) for example in report]
    return "\n\n".join(blocks) + "\n"
