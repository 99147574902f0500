"""Model assembly: forward wiring, losses, argmax, checkpoints, head isolation."""

import dataclasses
import json
import math
import os
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtlid import model as model_mod
from mtlid.data import SynthConfig
from mtlid.encoder import EncoderConfig, EncoderOutput, embed
from mtlid.model import (
    MODE_COUNTRY,
    MODE_PROVINCE,
    MODES,
    CheckpointError,
    MtlModel,
    ModelConfig,
    _config_document,
    compute_loss,
    load_checkpoint,
    param_specs,
    predict,
    save_checkpoint,
)
from mtlid.preprocess import CLS_ID, PAD_ID, TokenSequence, build_vocab, stack_sequences
from mtlid.tensor import (
    Adam,
    ShapeError,
    Tensor,
    _toposort,
    attention,
    concat_last,
    dropout,
    gelu,
    layer_norm,
    linear,
    name_seeded_rng,
    no_grad,
    select,
    tanh,
    trunc_normal,
)
from mtlid.train import TrainConfig

TOY_ENC = EncoderConfig(d_model=4, n_layers=1, n_heads=1, d_ff=8, l_max=4, vocab_size=12, dropout_rate=0.0)


def make_seq(rng, l_max=4, true_length=None, vocab_size=12):
    n = true_length if true_length is not None else int(rng.integers(1, l_max + 1))
    ids = [CLS_ID] + [int(rng.integers(3, vocab_size)) for _ in range(1, n)]
    return TokenSequence(np.array(ids, dtype=np.int64))


def test_logits_shapes_match_class_counts():
    enc = EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, l_max=6, vocab_size=12, dropout_rate=0.0)
    config = ModelConfig(encoder=enc, n_countries=21, n_provinces=100)
    model = MtlModel(config, global_seed=0)
    rng = np.random.default_rng(0)
    seqs = [make_seq(rng, 6), make_seq(rng, 6)]
    logits_c, logits_p = model.forward(seqs)
    assert logits_c.shape == (2, 21)
    assert logits_p.shape == (2, 100)


def test_forward_deterministic_bitwise():
    config = ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4)
    model = MtlModel(config, global_seed=1)
    rng = np.random.default_rng(1)
    seqs = [make_seq(rng) for _ in range(3)]
    a_c, a_p = model.forward(seqs)
    b_c, b_p = model.forward(seqs)
    assert np.array_equal(a_c.data, b_c.data)
    assert np.array_equal(a_p.data, b_p.data)
    # without a graph the values are the same
    with no_grad():
        n_c, n_p = model.forward(seqs)
    assert n_c._parents == () and n_p._parents == ()
    assert np.array_equal(a_c.data, n_c.data)
    assert np.array_equal(a_p.data, n_p.data)


def test_single_task_modes_have_one_head():
    c_model = MtlModel(ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4, mode=MODE_COUNTRY), 0)
    p_model = MtlModel(ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4, mode=MODE_PROVINCE), 0)
    rng = np.random.default_rng(2)
    seqs = [make_seq(rng)]
    logits_c, logits_p = c_model.forward(seqs)
    assert logits_c is not None and logits_p is None
    logits_c, logits_p = p_model.forward(seqs)
    assert logits_c is None and logits_p is not None
    assert not any(name.startswith("province") for name in c_model.params)
    assert not any(name.startswith("country") for name in p_model.params)


def test_sequence_longer_than_l_max_is_rejected():
    model = MtlModel(ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4), 0)
    rng = np.random.default_rng(2)
    seqs = [make_seq(rng), make_seq(rng, l_max=5, true_length=5)]
    with pytest.raises(ShapeError, match="crop"):
        model.forward(seqs)


def _gelu_ref(x):
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + math.tanh(inner))


def test_forward_matches_hand_unrolled_oracle():
    """Replay the whole forward pass with explicit Python loops."""
    config = ModelConfig(encoder=TOY_ENC, n_countries=2, n_provinces=3)
    model = MtlModel(config, global_seed=3, dtype=np.float64)
    p = {name: t.data for name, t in model.params.items()}
    rng = np.random.default_rng(3)
    seq = make_seq(rng, 4, true_length=3)
    logits_c, _ = model.forward([seq])

    # replayed at the full width l_max, padding included
    L, d = 4, 4
    mask = np.arange(L) < seq.true_length
    ids = np.pad(seq.ids, (0, L - seq.true_length), constant_values=PAD_ID)
    # embeddings
    x = np.zeros((L, d))
    for i in range(L):
        x[i] = p["encoder.tok_emb"][ids[i]] + p["encoder.pos_emb"][i]
    # single-head self-attention
    wqkv, bqkv = p["encoder.layer0.attn.wqkv"], p["encoder.layer0.attn.bqkv"]
    q = x @ wqkv[:, :d] + bqkv[:d]
    k = x @ wqkv[:, d : 2 * d] + bqkv[d : 2 * d]
    v = x @ wqkv[:, 2 * d :] + bqkv[2 * d :]
    scores = np.zeros((L, L))
    for i in range(L):
        for j in range(L):
            scores[i, j] = float(q[i] @ k[j]) / math.sqrt(d) + (0.0 if mask[j] else -1e9)
    att = np.zeros((L, L))
    for i in range(L):
        e = np.exp(scores[i] - scores[i].max())
        att[i] = e / e.sum()
    ctx = att @ v
    attn_out = ctx @ p["encoder.layer0.attn.wo"] + p["encoder.layer0.attn.bo"]

    def ln(row, gain, bias):
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        return (row - mu) / math.sqrt(var + 1e-5) * gain + bias

    h1 = np.stack([
        ln(x[i] + attn_out[i], p["encoder.layer0.ln1.gain"], p["encoder.layer0.ln1.bias"])
        for i in range(L)
    ])
    ff = np.stack([
        np.array([_gelu_ref(z) for z in h1[i] @ p["encoder.layer0.ff.w1"] + p["encoder.layer0.ff.b1"]])
        @ p["encoder.layer0.ff.w2"]
        + p["encoder.layer0.ff.b2"]
        for i in range(L)
    ])
    h2 = np.stack([
        ln(h1[i] + ff[i], p["encoder.layer0.ln2.gain"], p["encoder.layer0.ln2.bias"])
        for i in range(L)
    ])
    pooled = np.tanh(h2[0] @ p["encoder.pooler.w"] + p["encoder.pooler.b"])
    # country task attention
    c = np.zeros(L)
    for i in range(L):
        if mask[i]:
            c[i] = math.tanh(float(h2[i] @ p["country_attn.w_a"][:, 0]))
    s = np.array([sum(c[i] * p["country_attn.w_alpha"][i, j] for i in range(L)) for j in range(L)])
    e = np.where(mask, np.exp(s - s[mask].max()), 0.0)
    alpha = e / e.sum()
    v_task = sum(alpha[i] * h2[i] for i in range(L))
    z = np.concatenate([pooled, v_task])
    hidden = np.tanh(z @ p["country_cls.w1"] + p["country_cls.b1"])
    expected = hidden @ p["country_cls.w2"] + p["country_cls.b2"]
    np.testing.assert_allclose(logits_c.data[0], expected, atol=1e-5)


def _concat_qkv_encode_batch(qkv, seqs, params, cfg, train_mode=False, rng=None):
    """encode_batch on three projection weights per layer: qkv maps each
    layer to its (wq, wk, wv, bq, bk, bv) tensors, joined by concat_last on
    every call, and dropout follows each sublayer's output projection."""
    ids, mask = stack_sequences(seqs)
    rate = cfg.dropout_rate if train_mode else 0.0
    x = dropout(embed(ids, params), rate, rng)
    for i in range(cfg.n_layers):
        layer = f"encoder.layer{i}"
        wq, wk, wv, bq, bk, bv = qkv[layer]
        w, b = concat_last(concat_last(wq, wk), wv), concat_last(concat_last(bq, bk), bv)
        ctx = attention(linear(x, w, b), mask, cfg.n_heads)
        attn_out = dropout(linear(ctx, params[f"{layer}.attn.wo"], params[f"{layer}.attn.bo"]), rate, rng)
        x = layer_norm(attn_out, x, params[f"{layer}.ln1.gain"], params[f"{layer}.ln1.bias"])
        hidden = gelu(linear(x, params[f"{layer}.ff.w1"], params[f"{layer}.ff.b1"]))
        ff_out = dropout(linear(hidden, params[f"{layer}.ff.w2"], params[f"{layer}.ff.b2"]), rate, rng)
        x = layer_norm(ff_out, x, params[f"{layer}.ln2.gain"], params[f"{layer}.ln2.bias"])
    first = select(x, 0, axis=1)
    pooled = tanh(linear(first, params["encoder.pooler.w"], params["encoder.pooler.b"]))
    return EncoderOutput(h=x, pooled=pooled, mask=mask)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", MODES)
def test_packed_qkv_matches_three_concatenated_weights(mode, dtype, monkeypatch):
    """A model whose wqkv and bqkv hold [wq | wk | wv] and [bq | bk | bv]
    gives the logits and train-mode loss of one that concatenates the three
    on each forward, bitwise, and the packed gradients are the three
    gradients side by side."""
    enc = EncoderConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, l_max=8, vocab_size=12, dropout_rate=0.25)
    config = ModelConfig(encoder=enc, n_countries=3, n_provinces=4, mode=mode)
    model = MtlModel(config, global_seed=11, dtype=dtype)
    qkv = {}
    for i in range(enc.n_layers):
        layer = f"encoder.layer{i}"
        parts = [
            Tensor(trunc_normal((8, 8), name_seeded_rng(11, f"{layer}.attn.{w}"), dtype))
            for w in ("wq", "wk", "wv")
        ]
        rng = np.random.default_rng(i)
        parts += [Tensor(rng.normal(scale=0.1, size=8).astype(dtype)) for _ in range(3)]
        qkv[layer] = parts
        model.params[f"{layer}.attn.wqkv"].data[...] = np.concatenate([t.data for t in parts[:3]], axis=-1)
        model.params[f"{layer}.attn.bqkv"].data[...] = np.concatenate([t.data for t in parts[3:]])
    rng = np.random.default_rng(12)
    seqs = [make_seq(rng, 8, true_length=n) for n in (5, 2, 7)]
    labels_c, labels_p = np.array([0, 2, 1]), np.array([3, 0, 1])

    def run(train_mode):
        logits = model.forward(seqs, train_mode, np.random.default_rng(13) if train_mode else None)
        total, _ = compute_loss(*logits, labels_c, labels_p, config)
        return logits, total

    packed = run(False)
    packed_total = run(True)[1]
    packed_total.backward()
    monkeypatch.setattr(
        model_mod, "encode_batch", lambda *args, **kwargs: _concat_qkv_encode_batch(qkv, *args, **kwargs)
    )
    joined = run(False)
    joined_total = run(True)[1]
    joined_total.backward()
    for got, want in zip(packed[0], joined[0]):
        if want is not None:
            np.testing.assert_array_equal(got.data, want.data, strict=True)
    assert packed[1].data == joined[1].data
    assert packed_total.data == joined_total.data
    for layer, parts in qkv.items():
        w_grad = np.concatenate([t.grad for t in parts[:3]], axis=-1)
        b_grad = np.concatenate([t.grad for t in parts[3:]])
        np.testing.assert_array_equal(model.params[f"{layer}.attn.wqkv"].grad, w_grad, strict=True)
        np.testing.assert_array_equal(model.params[f"{layer}.attn.bqkv"].grad, b_grad, strict=True)


def _interior_nodes(roots):
    seen = {id(r): r for r in roots if r is not None}
    stack = list(seen.values())
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return sum(1 for node in seen.values() if node._parents)


@pytest.mark.parametrize("mode,nodes", [("mtl", 38), ("country", 30), ("province", 30)])
def test_batch_one_request_graph_size(mode, nodes):
    """A batch-1 request with the graph on, at a width below l_max: 22
    encoder nodes (3 embedding, 8 per layer, 3 pooler) and 8 per head
    (crop, task_scores, softmax_masked, weighted_sum, then concat_last,
    linear, tanh, linear)."""
    config = ModelConfig(encoder=EncoderConfig(l_max=16, vocab_size=12), mode=mode)
    model = MtlModel(config, global_seed=0)
    seq = [make_seq(np.random.default_rng(0), 16, true_length=5)]
    assert _interior_nodes(model.forward(seq)) == nodes
    with no_grad():
        assert _interior_nodes(model.forward(seq)) == 0


@pytest.mark.parametrize("mode", MODES)
def test_every_graph_leaf_is_a_parameter(mode):
    """A training step's graph (dropout on, the loss included) and a batch-1
    request's graph reach no leaf but a parameter: every operand of every
    node the model records needs its gradient."""
    enc = EncoderConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, l_max=8, vocab_size=12, dropout_rate=0.25)
    model = MtlModel(ModelConfig(encoder=enc, n_countries=3, n_provinces=4, mode=mode), global_seed=9)
    rng = np.random.default_rng(9)
    seqs = [make_seq(rng, 8, true_length=n) for n in (8, 3, 5)]
    logits_c, logits_p = model.forward(seqs, train_mode=True, rng=rng)
    total, _ = compute_loss(logits_c, logits_p, np.array([0, 1, 2]), np.array([3, 1, 0]), model.config)
    params = {id(p) for p in model.params.values()}
    step_leaves = {id(node) for node in _toposort(total) if not node._parents}
    assert step_leaves == params
    for logits in model.forward(seqs[1:2]):
        if logits is not None:
            assert {id(node) for node in _toposort(logits) if not node._parents} <= params


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_loss_perfect_predictions_near_zero():
    config = ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4)
    logits_c = Tensor(np.full((2, 3), -30.0))
    logits_p = Tensor(np.full((2, 4), -30.0))
    labels_c = np.array([0, 2])
    labels_p = np.array([1, 3])
    for i, (lc, lp) in enumerate(zip(labels_c, labels_p)):
        logits_c.data[i, lc] = 30.0
        logits_p.data[i, lp] = 30.0
    _, report = compute_loss(logits_c, logits_p, labels_c, labels_p, config)
    assert report.total < 1e-9


def test_loss_uniform_logits_is_sum_of_logs():
    config = ModelConfig(encoder=TOY_ENC, n_countries=21, n_provinces=100)
    logits_c = Tensor(np.zeros((4, 21), dtype=np.float64))
    logits_p = Tensor(np.zeros((4, 100), dtype=np.float64))
    labels = np.array([0, 1, 2, 3])
    _, report = compute_loss(logits_c, logits_p, labels, labels, config)
    assert abs(report.country - math.log(21)) < 1e-9
    assert abs(report.province - math.log(100)) < 1e-9
    assert abs(report.total - (math.log(21) + math.log(100))) < 1e-9
    assert abs(report.total - 7.6497) < 1e-4


def test_loss_weights_one_zero_annihilates():
    config = ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4, loss_weights=(1.0, 0.0))
    rng = np.random.default_rng(4)
    logits_c = Tensor(rng.normal(size=(3, 3)).astype(np.float32))
    logits_p = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    _, report = compute_loss(logits_c, logits_p, np.array([0, 1, 2]), np.array([0, 1, 2]), config)
    assert report.total == report.country


def test_loss_additivity_on_random_batches():
    config = ModelConfig(encoder=TOY_ENC, n_countries=5, n_provinces=7)
    rng = np.random.default_rng(5)
    for _ in range(300):
        b = int(rng.integers(1, 6))
        logits_c = Tensor(rng.normal(scale=3, size=(b, 5)).astype(np.float32))
        logits_p = Tensor(rng.normal(scale=3, size=(b, 7)).astype(np.float32))
        lc = rng.integers(0, 5, size=b)
        lp = rng.integers(0, 7, size=b)
        _, report = compute_loss(logits_c, logits_p, lc, lp, config)
        assert abs(report.total - (report.country + report.province)) < 1e-7


def test_total_loss_tensor_backpropagates_both_heads():
    config = ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4)
    model = MtlModel(config, global_seed=6)
    rng = np.random.default_rng(6)
    seqs = [make_seq(rng) for _ in range(2)]
    logits_c, logits_p = model.forward(seqs)
    total, _ = compute_loss(logits_c, logits_p, np.array([0, 1]), np.array([2, 3]), config)
    total.backward()
    assert np.abs(model.params["country_cls.w2"].grad).max() > 0
    assert np.abs(model.params["province_cls.w2"].grad).max() > 0
    assert np.abs(model.params["encoder.tok_emb"].grad).max() > 0


@pytest.mark.parametrize("mode", MODES)
def test_every_parameter_gets_a_nonzero_gradient(mode):
    """train's gradient buffer starts zeroed, so a parameter no loss reaches
    would step on zeros unnoticed; with default weights none is unreached."""
    config = ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4, mode=mode)
    model = MtlModel(config, global_seed=8)
    rng = np.random.default_rng(8)
    seqs = [make_seq(rng, true_length=n) for n in (4, 2, 3)]
    logits_c, logits_p = model.forward(seqs)
    total, _ = compute_loss(logits_c, logits_p, np.array([0, 1, 2]), np.array([3, 1, 0]), config)
    total.backward()
    for name, p in model.params.items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, name


def test_head_isolation_under_zero_weight():
    """Shared gradients with weights (1,0) equal the single-country model's."""
    enc = EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, l_max=6, vocab_size=15, dropout_rate=0.0)
    mtl_cfg = ModelConfig(encoder=enc, n_countries=3, n_provinces=5, loss_weights=(1.0, 0.0))
    single_cfg = ModelConfig(encoder=enc, n_countries=3, n_provinces=5, mode=MODE_COUNTRY)
    mtl = MtlModel(mtl_cfg, global_seed=7)
    single = MtlModel(single_cfg, global_seed=7)
    for name, p in single.params.items():
        assert np.array_equal(p.data, mtl.params[name].data), f"init differs for {name}"
    rng = np.random.default_rng(7)
    seqs = [make_seq(rng, 6, vocab_size=15) for _ in range(4)]
    lc = np.array([0, 1, 2, 1])
    lp = np.array([0, 1, 2, 3])
    logits_c, logits_p = mtl.forward(seqs)
    total, _ = compute_loss(logits_c, logits_p, lc, lp, mtl_cfg)
    total.backward()
    logits_c, _ = single.forward(seqs)
    total_s, _ = compute_loss(logits_c, None, lc, None, single_cfg)
    total_s.backward()
    for name, p in single.params.items():
        np.testing.assert_allclose(mtl.params[name].grad, p.grad, atol=1e-6, err_msg=name)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_argmax():
    assert predict(Tensor(np.array([[0.1, 0.9]])))[0] == 1


def test_predict_tie_breaks_low_index():
    assert predict(Tensor(np.array([[0.5, 0.5]])))[0] == 0


def test_predict_matches_linear_scan():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(50, 9))
    preds = predict(Tensor(logits))
    for row, got in zip(logits, preds):
        best = 0
        for j in range(1, 9):
            if row[j] > row[best]:
                best = j
        assert got == best


def test_predict_shift_invariant():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(20, 5))
    assert np.array_equal(predict(Tensor(logits)), predict(Tensor(logits + 42.0)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@pytest.fixture
def saved(tmp_path):
    config = ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4)
    model = MtlModel(config, global_seed=10)
    vocab = build_vocab(["a b c d e f g h i"], max_size=12)
    assert len(vocab) == TOY_ENC.vocab_size
    labels_c = ["egypt", "iraq", "jordan"]
    labels_p = ["p0", "p1", "p2", "p3"]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, labels_c, labels_p, vocab)
    return path, model, labels_c, labels_p, vocab


def test_checkpoint_round_trip_byte_identical(saved, tmp_path):
    path, model, labels_c, labels_p, vocab = saved
    ckpt = load_checkpoint(path)
    second = tmp_path / "second.ckpt"
    save_checkpoint(second, ckpt.model, ckpt.country_labels, ckpt.province_labels, ckpt.vocab)
    assert path.read_bytes() == second.read_bytes()
    assert ckpt.country_labels == labels_c
    assert ckpt.province_labels == labels_p
    assert ckpt.vocab.id_to_token == vocab.id_to_token
    assert ckpt.vocab.token_to_id == vocab.token_to_id
    for name, p in model.params.items():
        assert np.array_equal(ckpt.model.params[name].data, p.data)


def test_checkpoint_layout_is_header_document_data_trailer(saved):
    # A checkpoint stores no parameter name or shape: the config fixes both.
    path, model, labels_c, labels_p, vocab = saved
    blob = path.read_bytes()
    assert struct.unpack("<4sH", blob[:6]) == (b"MTLD", 6)
    (doc_len,) = struct.unpack("<I", blob[6:10])
    assert blob[10 : 10 + doc_len] == _config_document(model.config, labels_c, labels_p, vocab)
    names = [name for name, _, _ in param_specs(model.config)]
    data = b"".join(model.params[name].data.astype("<f4").tobytes() for name in names)
    assert blob[10 + doc_len : -4] == data == np.asarray(model.values, "<f4").tobytes()
    assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[:-4]))
    assert list(load_checkpoint(path).model.params) == names == list(model.params)


def test_checkpoint_truncated_file_rejected(saved):
    path, *_ = saved
    blob = path.read_bytes()
    for cut in (0, 3, 5, 9, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _reseal(blob: bytes) -> bytes:
    """Replace the CRC32 trailer so a deliberate corruption reaches the check after it."""
    body = blob[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_truncation_or_bit_flip_loads_or_raises_checkpoint_error(saved):
    path, *_ = saved
    blob = path.read_bytes()
    corrupt = path.with_name("corrupt.ckpt")

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.integers(0, len(blob) - 1).map(lambda cut: blob[:cut]),
            st.integers(0, 8 * len(blob) - 1).map(lambda bit: _flip(blob, bit)),
        )
    )
    def loads_or_raises_checkpoint_error(data):
        corrupt.write_bytes(data)
        try:
            load_checkpoint(corrupt)
        except CheckpointError:
            pass

    loads_or_raises_checkpoint_error()


def test_checkpoint_every_bit_flip_raises(saved):
    path, *_ = saved
    blob = path.read_bytes()
    fd = os.open(path, os.O_RDWR)
    try:
        for offset, byte in enumerate(blob):
            for bit in range(8):
                os.pwrite(fd, bytes([byte ^ (1 << bit)]), offset)
                with pytest.raises(CheckpointError):
                    load_checkpoint(path)
            os.pwrite(fd, bytes([byte]), offset)
    finally:
        os.close(fd)
    load_checkpoint(path)


def test_checkpoint_version_1_is_unsupported(saved):
    # Versions 1 to 5 fail alike: there is one read path, for version 6.
    path, *_ = saved
    blob = path.read_bytes()
    for version in (1, 2, 3, 4, 5):
        path.write_bytes(blob[:4] + struct.pack("<H", version) + blob[6:-4])
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path)


def test_checkpoint_non_finite_weight_rejected(saved):
    # Bit 30 is the top exponent bit: flipping it turns a gain of 1.0 into inf.
    path, model, *_ = saved
    blob = path.read_bytes()
    (doc_len,) = struct.unpack("<I", blob[6:10])
    payload = 10 + doc_len
    for name, shape, _ in param_specs(model.config):
        if name == "encoder.layer0.ln1.gain":
            break
        payload += 4 * math.prod(shape)
    assert struct.unpack("<f", blob[payload : payload + 4]) == (1.0,)
    path.write_bytes(_reseal(_flip(blob, 8 * payload + 30)))
    with pytest.raises(CheckpointError, match=re.escape("'encoder.layer0.ln1.gain' holds a non-finite")):
        load_checkpoint(path)


def test_checkpoint_oversized_shape_rejected_before_reading_payload(saved, monkeypatch):
    # The parameter data must hold exactly the floats the config's shapes
    # need; a mismatch is caught before any of it is decoded.
    path, model, labels_c, labels_p, vocab = saved
    blob = path.read_bytes()
    (doc_len,) = struct.unpack("<I", blob[6:10])
    huge = dataclasses.replace(model.config, encoder=dataclasses.replace(model.config.encoder, d_ff=2**31))
    claim = _config_document(huge, labels_c, labels_p, vocab)
    body = blob[:-4]
    cases = [
        body[:-4],  # one float short
        body + body[-4:],  # one float long
        blob[:6] + struct.pack("<I", len(claim)) + claim + body[10 + doc_len :],
    ]

    def no_decoding(*args, **kwargs):
        raise AssertionError("parameter data decoded despite a size mismatch")

    monkeypatch.setattr(model_mod.np, "frombuffer", no_decoding)
    for data in cases:
        path.write_bytes(_reseal(data + bytes(4)))
        with pytest.raises(CheckpointError, match="parameter data holds"):
            load_checkpoint(path)


@pytest.mark.parametrize(
    "country_labels",
    [["egypt", "iraq", "jordan", "oman"], ["egypt", "iraq"]],
    ids=["extra-label", "class-without-label"],
)
def test_checkpoint_label_lists_must_match_class_counts(saved, country_labels):
    # Each class is a label: the list fixes the head's class count, so a
    # label added or dropped changes the shapes the parameter data must fill.
    path, model, _, labels_p, vocab = saved
    blob = path.read_bytes()
    (doc_len,) = struct.unpack("<I", blob[6:10])
    doc = _config_document(model.config, country_labels, labels_p, vocab)
    path.write_bytes(_reseal(blob[:6] + struct.pack("<I", len(doc)) + doc + blob[10 + doc_len :]))
    with pytest.raises(CheckpointError, match="parameter data holds"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("country_labels", ["egypt", "iraq", "jordan", "oman"], "4 country labels for the model's 3 country classes"),
        ("province_labels", ["p0", "p1", "p2"], "3 province labels for the model's 4 province classes"),
        ("vocab", build_vocab(["a b c d e f g h i j"], max_size=13), "13 tokens for the model's 12 embedding rows"),
    ],
    ids=["extra-country-label", "missing-province-label", "extra-token"],
)
def test_save_refuses_lists_that_do_not_fit_the_model_and_keeps_the_earlier_file(saved, field, value, message):
    # Loading rebuilds each count from its list, so such a file could not load.
    path, model, labels_c, labels_p, vocab = saved
    before = path.read_bytes()
    lists = {"country_labels": labels_c, "province_labels": labels_p, "vocab": vocab, field: value}
    with pytest.raises(CheckpointError, match=re.escape(message)):
        save_checkpoint(path, model, **lists)
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def _edited_document(blob: bytes, edit) -> bytes:
    """The checkpoint with edit applied to its parsed config document, resealed."""
    (doc_len,) = struct.unpack("<I", blob[6:10])
    doc = json.loads(blob[10 : 10 + doc_len])
    edit(doc)
    text = json.dumps(doc).encode("utf-8")
    return _reseal(blob[:6] + struct.pack("<I", len(text)) + text + blob[10 + doc_len :])


@pytest.mark.parametrize(
    "key, value",
    [
        ("country_labels", "xyz"),  # a string of three characters, not three labels
        ("country_labels", ["egypt", "iraq", "egypt"]),
        ("province_labels", ["p0", "p1", 2, "p3"]),
        ("vocab", ["[PAD]", "[UNK]", "[CLS]", "a", "b", "c", "d", "e", "f", "g", "h", "a"]),
        ("vocab", {"[PAD]": 0}),
    ],
    ids=["string", "duplicate-label", "non-string-label", "duplicate-token", "object"],
)
def test_checkpoint_lists_must_be_arrays_of_distinct_strings(saved, key, value):
    # The lists fix the class counts and the vocabulary size; this is their one check.
    path, *_ = saved
    path.write_bytes(_edited_document(path.read_bytes(), lambda doc: doc.__setitem__(key, value)))
    with pytest.raises(CheckpointError, match=f"{key} must be an array of distinct strings"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["n_countries", "n_provinces", "vocab_size"])
def test_checkpoint_document_storing_a_count_is_rejected(saved, key):
    # A count the lists fix is not stored beside them; a document that
    # carries one, even an agreeing one, is refused rather than overridden.
    path, model, labels_c, labels_p, vocab = saved
    counts = {"n_countries": len(labels_c), "n_provinces": len(labels_p), "vocab_size": len(vocab)}

    def add_count(doc):
        section = doc["model"]["encoder"] if key == "vocab_size" else doc["model"]
        section[key] = counts[key]

    path.write_bytes(_edited_document(path.read_bytes(), add_count))
    with pytest.raises(CheckpointError, match=f"invalid config document: .*'{key}'"):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(saved):
    path, *_ = saved
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_config_document_bytes_pinned():
    # The document is derived from the config dataclasses; a new field must
    # not change the checkpoint format unnoticed.
    enc = EncoderConfig(d_model=4, n_layers=1, n_heads=1, d_ff=8, l_max=4, vocab_size=5, dropout_rate=0.0)
    config = ModelConfig(encoder=enc, n_countries=3, n_provinces=4, mode=MODE_COUNTRY, loss_weights=(1, 0.5))
    doc = _config_document(config, ["egypt", "iraq", "jordan"], ["p0", "p1", "p2", "p3"], build_vocab(["a b"]))
    assert doc == (
        b'{"country_labels":["egypt","iraq","jordan"],"model":{"encoder":{"d_ff":8,"d_model":4,'
        b'"dropout_rate":0.0,"l_max":4,"n_heads":1,"n_layers":1},'
        b'"loss_weights":[1.0,0.5],"mode":"country"},'
        b'"province_labels":["p0","p1","p2","p3"],"vocab":["[PAD]","[UNK]","[CLS]","a","b"]}'
    )


def test_model_values_must_hold_every_parameter_as_floats():
    config = ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4)
    count = MtlModel(config).values.size
    for values in (np.zeros(count - 1, np.float32), np.zeros(count, np.int64), np.zeros((1, count), np.float32)):
        with pytest.raises(ValueError, match=rf"parameters need a \({count},\) float array"):
            MtlModel(config, values=values)


def test_checkpoint_predictions_survive_round_trip(saved):
    path, model, *_ = saved
    rng = np.random.default_rng(11)
    seqs = [make_seq(rng) for _ in range(5)]
    before_c, before_p = model.forward(seqs)
    ckpt = load_checkpoint(path)
    after_c, after_p = ckpt.model.forward(seqs)
    assert np.array_equal(before_c.data, after_c.data)
    assert np.array_equal(before_p.data, after_p.data)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="mode"):
        ModelConfig(encoder=TOY_ENC, mode="both")
    with pytest.raises(ValueError, match="n_countries"):
        ModelConfig(encoder=TOY_ENC, n_countries=1, n_provinces=4)
    with pytest.raises(ValueError, match="nonnegative"):
        ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4, loss_weights=(-1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4, loss_weights=(math.nan, 1.0))
    with pytest.raises(ValueError, match="positive weight"):
        ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4, mode=MODE_COUNTRY, loss_weights=(0.0, 1.0))
    with pytest.raises(ValueError, match="n_countries must be an integer"):
        ModelConfig(encoder=TOY_ENC, n_countries=2.5, n_provinces=4)
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        TrainConfig(learning_rate=math.inf)
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        Adam(np.zeros(2), np.zeros(2), learning_rate=math.nan)
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        Adam(np.zeros(2), np.zeros(2), learning_rate=True)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        TrainConfig(seed=-3)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        SynthConfig(seed=-1)
