"""Per-task attention pooling over contextual embeddings.

Given H [B, W, d] and a padding mask, each task layer computes one
tanh(H w_a) score per position, mixes the [B, W] scores through an
l_max x l_max matrix cropped to its leading W x W corner (W is the batch
width, at most l_max), masks and normalizes them, and returns the
weighted sum of H rows: a task-specific sentence vector that always lies
in the convex hull of the unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, crop, softmax_masked, task_scores, weighted_sum


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

    w_alpha [l_max, l_max] is cropped to its leading L x L corner, and
    the [B, L] scores mix positions in one 2-D product with it
    (task_scores). Masked positions are zeroed before that product and
    excluded from the softmax, so padding influences neither the scores
    nor the pooled vector. Raises DegenerateMaskError on an all-masked
    row.
    """
    l = h.data.shape[1]
    mask = np.asarray(mask, dtype=bool)
    alpha = softmax_masked(task_scores(h, mask, w_a, crop(w_alpha, (l, l))), mask)
    return TaskAttentionOutput(v=weighted_sum(alpha, h), alpha=alpha)

