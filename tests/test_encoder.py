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
from mtlid.tensor import Tensor, init_parameters, name_seeded_rng, parameter_views, sum_all, trunc_normal

TOY = EncoderConfig(d_model=8, n_layers=1, n_heads=1, d_ff=16, l_max=8, vocab_size=20, dropout_rate=0.0)


def make_seq(rng, true_length, vocab_size=20):
    ids = [CLS_ID] + [int(rng.integers(3, vocab_size)) for _ in range(1, true_length)]
    return TokenSequence(np.array(ids, dtype=np.int64))


@pytest.fixture
def toy_params():
    return parameter_views(init_parameters(param_specs(TOY), 0, np.float64), param_specs(TOY))


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(d_model=10, n_heads=3)
    with pytest.raises(ValueError, match="dropout_rate"):
        EncoderConfig(dropout_rate=1.0)
    with pytest.raises(ValueError, match="positive"):
        EncoderConfig(n_layers=0)


def test_embed_identical_sequences_identical_rows(toy_params):
    rng = np.random.default_rng(0)
    seq = make_seq(rng, 5)
    out = embed(stack_sequences([seq, seq])[0], toy_params)
    assert np.array_equal(out.data[0], out.data[1])


def test_embed_position_changes_same_token(toy_params):
    seq = TokenSequence(np.array([5, 5], dtype=np.int64))
    out = embed(stack_sequences([seq])[0], toy_params).data[0]
    assert not np.array_equal(out[0], out[1])  # positional rows differ


def test_embed_rejects_out_of_range_id(toy_params):
    ids = np.full(8, PAD_ID, dtype=np.int64)
    ids[0] = 25  # >= vocab_size
    seq = TokenSequence(ids)
    with pytest.raises(ValueError, match="out of range"):
        embed(stack_sequences([seq])[0], toy_params)


def test_embed_gradient_counts_token_occurrences(toy_params):
    rng = np.random.default_rng(1)
    seq = make_seq(rng, 8)
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
    seqs = [make_seq(rng, 6), make_seq(rng, 3)]
    a = encode_batch(seqs, toy_params, TOY)
    b = encode_batch(seqs, toy_params, TOY)
    assert np.array_equal(a.h.data, b.h.data)
    assert np.array_equal(a.pooled.data, b.pooled.data)


def test_identical_sequences_identical_outputs(toy_params):
    rng = np.random.default_rng(4)
    seq = make_seq(rng, 5)
    out = encode_batch([seq, seq], toy_params, TOY)
    assert np.array_equal(out.h.data[0], out.h.data[1])
    assert np.array_equal(out.pooled.data[0], out.pooled.data[1])


def test_pooled_values_inside_tanh_range(toy_params):
    rng = np.random.default_rng(5)
    seqs = [make_seq(rng, 8) for _ in range(4)]
    pooled = encode_batch(seqs, toy_params, TOY).pooled.data
    assert np.all(pooled > -1.0) and np.all(pooled < 1.0)


@pytest.mark.parametrize("n_heads", [1, 2])
def test_attention_output_ignores_padded_positions(toy_params, n_heads):
    # attention's own contract (rows sum to one, masked keys get zero weight) is in test_tensor.py
    rng = np.random.default_rng(7)
    seqs = [make_seq(rng, 5), make_seq(rng, 8)]
    ids, mask = stack_sequences(seqs)
    x = embed(ids, toy_params).data
    out = multi_head_attention(Tensor(x), mask, toy_params, "encoder.layer0", n_heads, 0.0, None).data
    moved = x.copy()
    moved[~mask] = rng.normal(scale=10.0, size=moved[~mask].shape)
    again = multi_head_attention(Tensor(moved), mask, toy_params, "encoder.layer0", n_heads, 0.0, None).data
    assert np.array_equal(again[mask], out[mask])
    assert not np.array_equal(again[~mask], out[~mask])


def test_dropout_only_in_train_mode():
    cfg = EncoderConfig(d_model=8, n_layers=1, n_heads=1, d_ff=16, l_max=8, vocab_size=20, dropout_rate=0.5)
    params = parameter_views(init_parameters(param_specs(cfg), 0), param_specs(cfg))
    rng = np.random.default_rng(8)
    seqs = [make_seq(rng, 6)]
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
    seqs = [make_seq(rng, 8), make_seq(rng, 3)]
    # cover all token ids so the whole embedding table participates
    ids = np.arange(8, dtype=np.int64) + 3
    extra = [TokenSequence(np.concatenate([[CLS_ID], ids[:7]]))]
    ids2 = np.arange(8, dtype=np.int64) + 10
    extra.append(TokenSequence(np.clip(ids2, 0, 19)))
    out = encode_batch(seqs + extra, toy_params, TOY)
    sum_all(out.h).backward()
    sum_all(out.pooled).backward()
    for name, p in toy_params.items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, f"dead parameter {name}"


def test_param_specs_cover_init():
    names = [name for name, _, _ in param_specs(TOY)]
    params = parameter_views(init_parameters(param_specs(TOY), 0), param_specs(TOY))
    assert sorted(names) == sorted(params)
    assert params["encoder.layer0.ln1.gain"].data.min() == 1.0
    assert np.all(params["encoder.layer0.attn.bqkv"].data == 0.0)
    # the positional table is one name-seeded draw of its full shape
    expected = trunc_normal((TOY.l_max, TOY.d_model), name_seeded_rng(0, "encoder.pos_emb"))
    assert np.array_equal(params["encoder.pos_emb"].data, expected)
    with pytest.raises(ValueError, match="unknown init kind 'normal_rows'"):
        init_parameters([("encoder.pos_emb", (TOY.l_max, TOY.d_model), "normal_rows")], 0)
