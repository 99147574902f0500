"""Model assembly: forward wiring, losses, argmax, checkpoints, head isolation."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtlid import model as model_mod
from mtlid.encoder import EncoderConfig
from mtlid.model import (
    MODE_COUNTRY,
    MODE_PROVINCE,
    CheckpointError,
    MtlModel,
    ModelConfig,
    _config_document,
    compute_loss,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from mtlid.preprocess import CLS_ID, PAD_ID, TokenSequence, build_vocab
from mtlid.tensor import Tensor, no_grad

TOY_ENC = EncoderConfig(d_model=4, n_layers=1, n_heads=1, d_ff=8, l_max=4, vocab_size=12, dropout_rate=0.0)


def make_seq(rng, l_max=4, true_length=None, vocab_size=12):
    n = true_length if true_length is not None else int(rng.integers(1, l_max + 1))
    ids = np.full(l_max, PAD_ID, dtype=np.int64)
    mask = np.zeros(l_max, dtype=bool)
    ids[0] = CLS_ID
    mask[0] = True
    for i in range(1, n):
        ids[i] = int(rng.integers(3, vocab_size))
        mask[i] = True
    return TokenSequence(ids, mask, n)


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


def _gelu_ref(x):
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + math.tanh(inner))


def test_forward_matches_hand_unrolled_oracle():
    """Replay the whole forward pass with explicit Python loops."""
    config = ModelConfig(encoder=TOY_ENC, n_countries=2, n_provinces=3, hidden_size=4)
    model = MtlModel(config, global_seed=3, dtype=np.float64)
    p = {name: t.data for name, t in model.params.items()}
    rng = np.random.default_rng(3)
    seq = make_seq(rng, 4, true_length=3)
    logits_c, _ = model.forward([seq])

    L, d = 4, 4
    mask = seq.mask
    # embeddings
    x = np.zeros((L, d))
    for i in range(L):
        x[i] = p["encoder.tok_emb"][seq.ids[i]] + p["encoder.pos_emb"][i]
    # single-head self-attention
    q = x @ p["encoder.layer0.attn.wq"] + p["encoder.layer0.attn.bq"]
    k = x @ p["encoder.layer0.attn.wk"] + p["encoder.layer0.attn.bk"]
    v = x @ p["encoder.layer0.attn.wv"] + p["encoder.layer0.attn.bv"]
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
    assert predict(np.array([[0.1, 0.9]]))[0] == 1


def test_predict_tie_breaks_low_index():
    assert predict(np.array([[0.5, 0.5]]))[0] == 0


def test_predict_matches_linear_scan():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(50, 9))
    preds = predict(logits)
    for row, got in zip(logits, preds):
        best = 0
        for j in range(1, 9):
            if row[j] > row[best]:
                best = j
        assert got == best


def test_predict_shift_invariant():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(20, 5))
    assert np.array_equal(predict(logits), predict(logits + 42.0))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@pytest.fixture
def saved(tmp_path):
    config = ModelConfig(encoder=TOY_ENC, n_countries=3, n_provinces=4)
    model = MtlModel(config, global_seed=10)
    vocab = build_vocab(["a b c d e f g h i"], 1, 12)
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


def test_checkpoint_truncation_or_bit_flip_loads_or_raises_checkpoint_error(saved):
    path, model, *_ = saved
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
    # There is no checksum: a flip inside a float payload loads.
    last = model.params[max(model.params)].data
    for bit in range(8 * (len(blob) - 4 * last.size), 8 * len(blob), 7):
        corrupt.write_bytes(_flip(blob, bit))
        load_checkpoint(corrupt)


def test_checkpoint_non_finite_weight_rejected(saved):
    # Bit 30 is the top exponent bit: flipping it turns a gain of 1.0 into inf.
    path, *_ = saved
    blob = path.read_bytes()
    name = b"encoder.layer0.ln1.gain"
    payload = blob.rindex(name) + len(name) + 1 + 4  # rank u8, one u32 dim
    assert struct.unpack("<f", blob[payload : payload + 4]) == (1.0,)
    path.write_bytes(_flip(blob, 8 * payload + 30))
    with pytest.raises(CheckpointError, match=re.escape("'encoder.layer0.ln1.gain' holds a non-finite")):
        load_checkpoint(path)


def test_checkpoint_oversized_shape_rejected_before_reading_payload(saved):
    path, *_ = saved
    blob = bytearray(path.read_bytes())
    (doc_len,) = struct.unpack("<I", blob[6:10])
    first = 10 + doc_len
    (name_len,) = struct.unpack("<I", blob[first : first + 4])
    dims = first + 4 + name_len + 1
    blob[dims : dims + 4] = struct.pack("<I", 2**31)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="shape"):
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
    config = ModelConfig(
        encoder=enc, n_countries=3, n_provinces=4, hidden_size=5, mode=MODE_COUNTRY, loss_weights=(1, 0.5)
    )
    doc = _config_document(config, ["egypt", "iraq", "jordan"], ["p0", "p1", "p2", "p3"], build_vocab(["a b"]))
    assert doc == (
        b'{"country_labels":["egypt","iraq","jordan"],"model":{"encoder":{"d_ff":8,"d_model":4,'
        b'"dropout_rate":0.0,"l_max":4,"n_heads":1,"n_layers":1,"vocab_size":5},"hidden_size":5,'
        b'"loss_weights":[1.0,0.5],"mode":"country","n_countries":3,"n_provinces":4},'
        b'"province_labels":["p0","p1","p2","p3"],"vocab":["[PAD]","[UNK]","[CLS]","a","b"]}'
    )


def test_failed_save_keeps_previous_checkpoint(saved, monkeypatch):
    path, model, labels_c, labels_p, vocab = saved
    before = path.read_bytes()
    real_pack = struct.pack
    calls = []

    def failing_pack(*args):
        calls.append(args)
        if len(calls) == 10:
            raise OSError("disk full")
        return real_pack(*args)

    monkeypatch.setattr(model_mod.struct, "pack", failing_pack)
    for p in model.params.values():
        p.data = p.data + 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, labels_c, labels_p, vocab)
    assert len(calls) == 10
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]


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
