"""Encoder contracts: embeddings, attention masking, pooling, gradients."""

import numpy as np
import pytest

from gradcheck import max_grad_error
from mtlid.encoder import (
    EncoderConfig,
    embed,
    encode_batch,
    multi_head_attention,
    param_specs,
)
from mtlid.preprocess import CLS_ID, PAD_ID, TokenSequence, stack_sequences
from mtlid.tensor import init_parameters, sum_all

TOY = EncoderConfig(d_model=8, n_layers=1, n_heads=1, d_ff=16, l_max=8, vocab_size=20, dropout_rate=0.0)


def make_seq(rng, l_max, true_length, vocab_size=20):
    ids = np.full(l_max, PAD_ID, dtype=np.int64)
    mask = np.zeros(l_max, dtype=bool)
    ids[0] = CLS_ID
    mask[0] = True
    for i in range(1, true_length):
        ids[i] = int(rng.integers(3, vocab_size))
        mask[i] = True
    return TokenSequence(ids, mask, true_length)


@pytest.fixture
def toy_params():
    return init_parameters(param_specs(TOY), 0, np.float64)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(d_model=10, n_heads=3)
    with pytest.raises(ValueError, match="dropout_rate"):
        EncoderConfig(dropout_rate=1.0)
    with pytest.raises(ValueError, match="positive"):
        EncoderConfig(n_layers=0)


def test_embed_identical_sequences_identical_rows(toy_params):
    rng = np.random.default_rng(0)
    seq = make_seq(rng, 8, 5)
    out = embed(stack_sequences([seq, seq])[0], toy_params)
    assert np.array_equal(out.data[0], out.data[1])


def test_embed_position_changes_same_token(toy_params):
    ids = np.full(8, PAD_ID, dtype=np.int64)
    ids[0], ids[1] = 5, 5
    mask = np.zeros(8, dtype=bool)
    mask[:2] = True
    seq = TokenSequence(ids, mask, 2)
    out = embed(stack_sequences([seq])[0], toy_params).data[0]
    assert not np.array_equal(out[0], out[1])  # positional rows differ


def test_embed_rejects_out_of_range_id(toy_params):
    ids = np.full(8, PAD_ID, dtype=np.int64)
    ids[0] = 25  # >= vocab_size
    seq = TokenSequence(ids, np.ones(8, dtype=bool), 8)
    with pytest.raises(ValueError, match="out of range"):
        embed(stack_sequences([seq])[0], toy_params)


def test_embed_gradient_counts_token_occurrences(toy_params):
    rng = np.random.default_rng(1)
    seq = make_seq(rng, 8, 8)
    sum_all(embed(stack_sequences([seq, seq])[0], toy_params)).backward()
    table = toy_params["encoder.tok_emb"]
    counts = np.bincount(np.concatenate([seq.ids, seq.ids]), minlength=20)
    for token_id in range(20):
        np.testing.assert_allclose(table.grad[token_id], counts[token_id], atol=1e-12)
    # finite-difference spot check on a used row
    check = np.random.default_rng(2)
    err = max_grad_error(
        lambda: sum_all(embed(stack_sequences([seq, seq])[0], toy_params)).item(), table, check, n_samples=30, h=1e-5, atol=1e-10
    )
    assert err < 1e-5


def test_encode_batch_deterministic(toy_params):
    rng = np.random.default_rng(3)
    seqs = [make_seq(rng, 8, 6), make_seq(rng, 8, 3)]
    a = encode_batch(seqs, toy_params, TOY)
    b = encode_batch(seqs, toy_params, TOY)
    assert np.array_equal(a.h.data, b.h.data)
    assert np.array_equal(a.pooled.data, b.pooled.data)


def test_identical_sequences_identical_outputs(toy_params):
    rng = np.random.default_rng(4)
    seq = make_seq(rng, 8, 5)
    out = encode_batch([seq, seq], toy_params, TOY)
    assert np.array_equal(out.h.data[0], out.h.data[1])
    assert np.array_equal(out.pooled.data[0], out.pooled.data[1])


def test_pooled_values_inside_tanh_range(toy_params):
    rng = np.random.default_rng(5)
    seqs = [make_seq(rng, 8, 8) for _ in range(4)]
    pooled = encode_batch(seqs, toy_params, TOY).pooled.data
    assert np.all(pooled > -1.0) and np.all(pooled < 1.0)


def test_padding_invariance_across_widths():
    # same true tokens, wider PAD tail: H at real positions must not move
    rng = np.random.default_rng(6)
    narrow_cfg = TOY
    wide_cfg = EncoderConfig(d_model=8, n_layers=1, n_heads=1, d_ff=16, l_max=12, vocab_size=20, dropout_rate=0.0)
    p_narrow = init_parameters(param_specs(narrow_cfg), 0, np.float64)
    p_wide = init_parameters(param_specs(wide_cfg), 0, np.float64)
    seqs = [make_seq(rng, 8, 5), make_seq(rng, 8, 8)]
    wide_seqs = [
        TokenSequence(np.pad(s.ids, (0, 4), constant_values=PAD_ID), np.pad(s.mask, (0, 4)), s.true_length)
        for s in seqs
    ]
    h_narrow = encode_batch(seqs, p_narrow, narrow_cfg).h.data
    h_wide = encode_batch(wide_seqs, p_wide, wide_cfg).h.data
    for b, seq in enumerate(seqs):
        n = seq.true_length
        np.testing.assert_allclose(h_narrow[b, :n], h_wide[b, :n], atol=1e-5)


def test_attention_rows_sum_to_one(toy_params):
    rng = np.random.default_rng(7)
    seqs = [make_seq(rng, 8, 5), make_seq(rng, 8, 8)]
    x = embed(stack_sequences(seqs)[0], toy_params)
    _, mask = np.stack([s.ids for s in seqs]), np.stack([s.mask for s in seqs])
    _, att = multi_head_attention(x, mask, toy_params, "encoder.layer0", TOY.n_heads)
    sums = att.data.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)
    # masked keys receive (numerically) zero attention from real queries
    probs_at_pad = att.data[0, :, :5, 5:]
    assert np.all(probs_at_pad < 1e-9)


def test_dropout_only_in_train_mode():
    cfg = EncoderConfig(d_model=8, n_layers=1, n_heads=1, d_ff=16, l_max=8, vocab_size=20, dropout_rate=0.5)
    params = init_parameters(param_specs(cfg), 0)
    rng = np.random.default_rng(8)
    seqs = [make_seq(rng, 8, 6)]
    eval_a = encode_batch(seqs, params, cfg, train_mode=False).h.data
    eval_b = encode_batch(seqs, params, cfg, train_mode=False).h.data
    assert np.array_equal(eval_a, eval_b)
    train_out = encode_batch(seqs, params, cfg, train_mode=True, rng=np.random.default_rng(0)).h.data
    assert not np.array_equal(eval_a, train_out)
    with pytest.raises(ValueError, match="rng"):
        encode_batch(seqs, params, cfg, train_mode=True)


def test_every_parameter_gets_gradient(toy_params):
    rng = np.random.default_rng(9)
    # include a full-width sequence so every position is real somewhere
    seqs = [make_seq(rng, 8, 8), make_seq(rng, 8, 3)]
    # cover all token ids so the whole embedding table participates
    ids = np.arange(8, dtype=np.int64) + 3
    extra = [TokenSequence(np.concatenate([[CLS_ID], ids[:7]]), np.ones(8, dtype=bool), 8)]
    ids2 = np.arange(8, dtype=np.int64) + 10
    extra.append(TokenSequence(np.clip(ids2, 0, 19), np.ones(8, dtype=bool), 8))
    out = encode_batch(seqs + extra, toy_params, TOY)
    sum_all(out.h).backward()
    sum_all(out.pooled).backward()
    for name, p in toy_params.items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, f"dead parameter {name}"


def test_param_specs_cover_init():
    names = [name for name, _, _ in param_specs(TOY)]
    params = init_parameters(param_specs(TOY), 0)
    assert sorted(names) == sorted(params)
    assert params["encoder.layer0.ln1.gain"].data.min() == 1.0
    assert np.all(params["encoder.layer0.attn.bq"].data == 0.0)
