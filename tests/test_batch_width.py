"""A batch runs at its longest true_length; the result must not depend on it.

Each example runs a batch S at its own width, and S plus one l_max-long
sequence at the full width. With dropout off, S's logits and the parameter
gradients of a loss that reads only S's rows must agree: padding gets
exactly zero weight on both paths, so only rounding may differ.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtlid.encoder import EncoderConfig
from mtlid.model import MODES, MtlModel, ModelConfig
from mtlid.preprocess import CLS_ID, TokenSequence, stack_sequences
from mtlid.tensor import Tensor, add, mul, sum_all

L_MAX = 12
VOCAB = 30
LOGIT_ATOL = {np.float64: 1e-12, np.float32: 1e-6}
GRAD_ATOL = 1e-12  # float64


@lru_cache(maxsize=None)
def _model(mode: str, dtype) -> MtlModel:
    enc = EncoderConfig(
        d_model=8, n_layers=2, n_heads=2, d_ff=16, l_max=L_MAX, vocab_size=VOCAB, dropout_rate=0.0
    )
    return MtlModel(ModelConfig(encoder=enc, n_countries=3, n_provinces=5, mode=mode), 0, dtype)


def _seq(rng: np.random.Generator, n: int) -> TokenSequence:
    return TokenSequence(np.concatenate([[CLS_ID], rng.integers(3, VOCAB, size=n - 1)]))


def _logits_and_grads(model: MtlModel, seqs, weights):
    """Forward seqs, then one backward of sum(logits * weights) over the heads."""
    for p in model.params.values():
        p.grad = None
    logits = [t for t in model.forward(seqs) if t is not None]
    loss = None
    for t, w in zip(logits, weights):
        term = sum_all(mul(t, Tensor(w[: t.shape[0]].astype(t.dtype))))
        loss = term if loss is None else add(loss, term)
    loss.backward()
    return [t.data for t in logits], {name: p.grad for name, p in model.params.items()}


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.integers(1, L_MAX - 1), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_trimmed_batch_matches_full_width(mode, lengths, seed):
    rng = np.random.default_rng(seed)
    batch = [_seq(rng, n) for n in lengths]
    full = batch + [_seq(rng, L_MAX)]
    assert stack_sequences(batch)[0].shape[1] == max(lengths) < L_MAX
    assert stack_sequences(full)[0].shape[1] == L_MAX
    for dtype in (np.float64, np.float32):
        model = _model(mode, dtype)
        heads = [n for task, n in model.config.tasks()]
        weights = [rng.normal(size=(len(full), n)) for n in heads]
        for w in weights:
            w[-1] = 0.0  # the loss reads only the rows of the batch
        logits_trim, grads_trim = _logits_and_grads(model, batch, weights)
        logits_full, grads_full = _logits_and_grads(model, full, weights)
        for a, b in zip(logits_trim, logits_full):
            np.testing.assert_allclose(a, b[: len(batch)], rtol=0, atol=LOGIT_ATOL[dtype])
        if dtype is np.float64:
            for name, g in grads_trim.items():
                np.testing.assert_allclose(g, grads_full[name], rtol=0, atol=GRAD_ATOL, err_msg=name)
