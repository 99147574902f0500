"""Task attention pooling: convexity, masking, isolation, gradients."""

import numpy as np
import pytest

from gradcheck import max_grad_error
from mtlid.attnpool import (
    attention_report,
    format_attention_report,
    param_specs,
    task_attention,
)
from mtlid.preprocess import TokenSequence, build_vocab
from mtlid.tensor import DegenerateMaskError, Tensor, init_parameters, mul, sum_all


def make_params(d=3, l_max=5, task="country", seed=0, dtype=np.float64):
    p = init_parameters(param_specs(d, l_max, task), seed, dtype)
    return p[f"{task}_attn.w_a"], p[f"{task}_attn.w_alpha"]


def test_constant_rows_pool_to_that_row():
    w_a, w_alpha = make_params()
    row = np.array([0.3, -1.2, 2.0])
    h = Tensor(np.tile(row, (1, 5, 1)), dtype=np.float64)
    mask = np.array([[True, True, True, False, False]])
    out = task_attention(h, mask, w_a, w_alpha)
    np.testing.assert_allclose(out.v.data[0], row, atol=1e-6)


def test_single_unmasked_position_gets_full_weight():
    w_a, w_alpha = make_params()
    rng = np.random.default_rng(0)
    h_data = rng.normal(size=(1, 5, 3))
    mask = np.array([[True, False, False, False, False]])
    out = task_attention(Tensor(h_data), mask, w_a, w_alpha)
    np.testing.assert_allclose(out.alpha.data[0], [1, 0, 0, 0, 0], atol=1e-7)
    np.testing.assert_allclose(out.v.data[0], h_data[0, 0], atol=1e-6)


def test_matches_explicit_loop_oracle():
    w_a, w_alpha = make_params()
    rng = np.random.default_rng(1)
    h_data = rng.normal(size=(1, 5, 3))
    mask = np.array([[True, True, True, True, False]])
    out = task_attention(Tensor(h_data, dtype=np.float64), mask, w_a, w_alpha)
    # independent loop: c_i = tanh(h_i . w_a) (zeroed when masked), s = c^T W, softmax, v = sum a_i h_i
    c = np.zeros(5)
    for i in range(5):
        if mask[0, i]:
            c[i] = np.tanh(float(h_data[0, i] @ w_a.data[:, 0]))
    s = np.zeros(5)
    for j in range(5):
        for i in range(5):
            s[j] += c[i] * w_alpha.data[i, j]
    e = np.where(mask[0], np.exp(s - s[mask[0]].max()), 0.0)
    a = e / e.sum()
    v = np.zeros(3)
    for i in range(5):
        v += a[i] * h_data[0, i]
    np.testing.assert_allclose(out.alpha.data[0], a, atol=1e-6)
    np.testing.assert_allclose(out.v.data[0], v, atol=1e-6)


def test_alpha_contract_random_inputs():
    w_a, w_alpha = make_params(d=4, l_max=6)
    rng = np.random.default_rng(2)
    for _ in range(200):
        h_data = rng.normal(scale=2.0, size=(3, 6, 4))
        mask = rng.random((3, 6)) < 0.6
        mask[:, 0] = True
        out = task_attention(Tensor(h_data, dtype=np.float64), mask, w_a, w_alpha)
        alpha = out.alpha.data
        assert np.all(alpha[~mask] == 0.0)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)
        # v inside the coordinate-wise hull of unmasked rows
        for b in range(3):
            rows = h_data[b][mask[b]]
            assert np.all(out.v.data[b] >= rows.min(axis=0) - 1e-6)
            assert np.all(out.v.data[b] <= rows.max(axis=0) + 1e-6)


def test_all_masked_row_raises():
    w_a, w_alpha = make_params()
    h = Tensor(np.zeros((1, 5, 3)))
    with pytest.raises(DegenerateMaskError):
        task_attention(h, np.zeros((1, 5), dtype=bool), w_a, w_alpha)


def test_tasks_share_no_parameters():
    d, l_max = 4, 6
    c = init_parameters(param_specs(d, l_max, "country"), 0, np.float64)
    p = init_parameters(param_specs(d, l_max, "province"), 0, np.float64)
    rng = np.random.default_rng(3)
    h_data = rng.normal(size=(2, 6, 4))
    mask = np.ones((2, 6), dtype=bool)
    h = Tensor(h_data, dtype=np.float64)
    before = task_attention(h, mask, p["province_attn.w_a"], p["province_attn.w_alpha"]).alpha.data
    c["country_attn.w_a"].data += 10.0  # perturb the other task hard
    after = task_attention(h, mask, p["province_attn.w_a"], p["province_attn.w_alpha"]).alpha.data
    assert np.array_equal(before, after)


def test_gradients_match_finite_differences():
    w_a, w_alpha = make_params(d=3, l_max=5, seed=4)
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(size=(2, 5, 3)), dtype=np.float64)
    h.requires_grad = True
    mask = np.array([[True, True, True, False, False], [True, True, True, True, True]])
    weight = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)

    def loss():
        out = task_attention(h, mask, w_a, w_alpha)
        return sum_all(mul(out.v, weight))

    loss().backward()
    check = np.random.default_rng(6)
    for p in (h, w_a, w_alpha):
        err = max_grad_error(lambda: loss().item(), p, check, n_samples=30, h=1e-5, atol=1e-9)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# attention report
# ---------------------------------------------------------------------------


def test_report_single_token():
    vocab = build_vocab(["tok"], 1, 10)
    seq = TokenSequence(
        ids=np.array([vocab.token_to_id["tok"]], dtype=np.int64),
        mask=np.array([True]),
        true_length=1,
    )
    report = attention_report(np.array([[1.0]]), [seq], vocab)
    assert report == [[("tok", 1.0)]]


def test_report_weights_sum_and_mask():
    vocab = build_vocab(["a b"], 1, 10)
    w_a, w_alpha = make_params(d=3, l_max=4)
    rng = np.random.default_rng(7)
    h = Tensor(rng.normal(size=(2, 4, 3)), dtype=np.float64)
    mask = np.array([[True, True, True, False], [True, True, False, False]])
    out = task_attention(h, mask, w_a, w_alpha)
    ids = np.array([[2, 3, 4, 0], [2, 4, 0, 0]], dtype=np.int64)
    seqs = [TokenSequence(ids[i], mask[i], int(mask[i].sum())) for i in range(2)]
    report = attention_report(out.alpha, seqs, vocab)
    assert [len(block) for block in report] == [3, 2]  # masked tail absent
    for block in report:
        assert abs(sum(w for _, w in block) - 1.0) < 1e-6
    text = format_attention_report(report)
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    first_line = blocks[0].splitlines()[0].split("\t")
    assert first_line[0] == "[CLS]"
    parsed = [float(line.split("\t")[1]) for line in blocks[0].splitlines()]
    assert abs(sum(parsed) - 1.0) < 1e-6
