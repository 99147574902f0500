"""Tensor-core contracts: op semantics, gradients, and the Adam update."""

import itertools
import math
import threading

import numpy as np
import pytest

from gradcheck import max_grad_error
from mtlid.tensor import (
    Adam,
    DegenerateMaskError,
    NonFiniteGradientError,
    ShapeError,
    Tensor,
    _masked_softmax_rows,
    add,
    attention,
    concat_last,
    crop,
    cross_entropy_from_logits,
    dropout,
    embedding,
    gelu,
    halves,
    init_parameters,
    layer_norm,
    linear,
    matmul,
    mul,
    name_seeded_rng,
    no_grad,
    parameter_views,
    reshape,
    scale,
    select,
    softmax,
    softmax_masked,
    sum_all,
    tanh,
    task_scores,
    transpose,
    trunc_normal,
    weighted_sum,
)


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64))


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_diagonal_scaling():
    out = matmul(Tensor([[1.0, 0.0], [0.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [8.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    out = matmul(t64(a), t64(b))
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# tanh / gelu
# ---------------------------------------------------------------------------


def test_tanh_zero():
    assert tanh(Tensor([0.0])).data[0] == 0.0


def test_tanh_odd_symmetry():
    x = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(tanh(t64(x)).data, -tanh(t64(-x)).data, atol=1e-12)


def test_tanh_reference_value():
    assert abs(tanh(t64([1.0])).data[0] - math.tanh(1.0)) < 1e-12


def test_tanh_range():
    # beyond |x| ~ 19 float64 tanh rounds to exactly +-1, so probe inside that
    y = tanh(t64(np.linspace(-10, 10, 101))).data
    assert np.all(y > -1.0) and np.all(y < 1.0)


# ---------------------------------------------------------------------------
# softmax_masked
# ---------------------------------------------------------------------------


def test_softmax_masked_uniform():
    out = softmax_masked(Tensor([[1.0, 1.0, 1.0, 1.0]]), np.array([True] * 4))
    np.testing.assert_allclose(out.data, [[0.25, 0.25, 0.25, 0.25]], atol=1e-7)


def test_softmax_masked_symmetry_with_mask():
    out = softmax_masked(Tensor([[5.0, 123.0, 5.0]]), np.array([True, False, True]))
    np.testing.assert_allclose(out.data, [[0.5, 0.0, 0.5]], atol=1e-7)
    assert out.data[0, 1] == 0.0


def test_softmax_masked_matches_exp_sum_oracle():
    scores = np.array([[1.0, 2.0, 3.0]])
    e = np.exp(scores[0])
    out = softmax_masked(t64(scores), np.array([True, True, True]))
    np.testing.assert_allclose(out.data[0], e / e.sum(), atol=1e-6)


def test_softmax_masked_all_masked_raises():
    with pytest.raises(DegenerateMaskError):
        softmax_masked(Tensor([[1.0, 2.0]]), np.array([False, False]))


def test_softmax_masked_random_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        scores = Tensor(rng.normal(scale=5.0, size=(3, n)).astype(np.float32))
        mask = rng.random((3, n)) < 0.6
        mask[:, 0] = True  # keep every row non-degenerate
        out = softmax_masked(scores, mask)
        sums = out.data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert np.all(out.data[~np.broadcast_to(mask, out.shape)] == 0.0)


def _softmax_masked_reference(scores, mask):
    """The mask broadcast to the scores' shape before the check and the where."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), scores.shape)
    if not m.any(axis=-1).all():
        raise DegenerateMaskError("reference: a row has every position masked")
    kept = np.where(m, scores, -np.inf)
    e = np.exp(kept - kept.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_masked_unbroadcast_mask_matches_broadcast_reference(dtype):
    rng = np.random.default_rng(12)
    b, heads, n = 3, 2, 5
    mask = rng.random((b, n)) < 0.6
    mask[:, 0] = True
    attn = rng.normal(size=(b, heads, n, n)).astype(dtype)
    pool = rng.normal(size=(b, 1, n)).astype(dtype)
    for scores, m in ((attn, mask[:, None, None, :]), (pool, mask[:, None, :]), (pool[:, 0], mask)):
        out = softmax_masked(Tensor(scores), m)
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, _softmax_masked_reference(scores, m))
    mask[1] = False
    for scores, m in ((attn, mask[:, None, None, :]), (pool[:, 0], mask)):
        with pytest.raises(DegenerateMaskError):
            _softmax_masked_reference(scores, m)
        with pytest.raises(DegenerateMaskError):
            softmax_masked(Tensor(scores), m)


def _masked_softmax_rows_reference(s, keep):
    """Every masked entry written to -inf, then the row's max subtracted."""
    s = s.copy()
    np.copyto(s, -np.inf, where=~keep)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_softmax_rows_matches_max_reference_on_non_finite_scores(dtype):
    rng = np.random.default_rng(21)
    specials = np.array([np.inf, -np.inf, np.nan], dtype=dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(300):
            rows, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            scores = (rng.normal(size=(rows, n)) * rng.choice([1.0, 1e3])).astype(dtype)
            hit = rng.random(scores.shape) < rng.choice([0.0, 0.1, 0.5])
            scores[hit] = rng.choice(specials, size=int(hit.sum()))
            keep = rng.random((rows, n)) < rng.choice([0.5, 1.0])
            keep[:, 0] = True
            for mask in (keep, keep[:1], np.ones(n, dtype=bool)):
                out = _masked_softmax_rows(scores.copy(), mask, "test")
                expected = _masked_softmax_rows_reference(scores, np.broadcast_to(mask, scores.shape))
                assert out.dtype == dtype
                np.testing.assert_array_equal(out, expected, strict=True)  # NaN equals NaN here


@pytest.mark.parametrize("shape", [(2, 0), (0,), (3, 1, 0)])
def test_masked_softmax_rows_reject_zero_width_rows(shape):
    # an all-true mask of width 0 still keeps nothing in each row
    with pytest.raises(DegenerateMaskError):
        softmax_masked(Tensor(np.zeros(shape)), np.ones(shape, dtype=bool))
    with pytest.raises(DegenerateMaskError):
        _masked_softmax_rows(np.zeros(shape), np.ones(shape[-1:], dtype=bool), "test")
    # with no row there is nothing to reject
    assert softmax_masked(Tensor(np.zeros((0, 3))), np.ones(3, dtype=bool)).shape == (0, 3)


def test_softmax_masked_rejects_mask_wider_than_scores():
    with pytest.raises(ShapeError, match="broadcast"):
        softmax_masked(Tensor(np.zeros((1, 3))), np.ones((2, 3), dtype=bool))


# ---------------------------------------------------------------------------
# concat_last
# ---------------------------------------------------------------------------


def test_concat_direct():
    out = concat_last(Tensor([[1.0, 2.0]]), Tensor([[3.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])


def test_concat_empty_identity():
    x = Tensor([[1.0, 2.0]])
    out = concat_last(x, Tensor(np.zeros((1, 0))))
    np.testing.assert_array_equal(out.data, x.data)


def test_concat_backward_splits_ones():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 2)))
    sum_all(concat_last(a, b)).backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((2, 2)))


def test_concat_leading_mismatch():
    with pytest.raises(ShapeError):
        concat_last(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_perfect_prediction_near_zero():
    logits = np.full((2, 4), -30.0)
    logits[0, 1] = 30.0
    logits[1, 3] = 30.0
    loss = cross_entropy_from_logits(t64(logits), np.array([1, 3]))
    assert loss.item() < 1e-9


def test_cross_entropy_uniform_is_log_c():
    for c in (2, 5, 21, 100):
        loss = cross_entropy_from_logits(t64(np.zeros((3, c))), np.array([0, 1, c - 1]))
        assert abs(loss.item() - math.log(c)) < 1e-6


def test_cross_entropy_reference_value():
    # 64-bit oracle: log(exp(1)+exp(2)+exp(3)) - 1
    expected = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 1.0
    loss = cross_entropy_from_logits(Tensor([[1.0, 2.0, 3.0]]), np.array([0]))
    assert abs(expected - 2.40760596444438) < 1e-11
    assert abs(loss.item() - expected) < 1e-6


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(5, 7))
    labels = rng.integers(0, 7, size=5)
    base = cross_entropy_from_logits(t64(logits), labels).item()
    shifted = cross_entropy_from_logits(t64(logits + 123.456), labels).item()
    assert abs(base - shifted) < 1e-6


def test_cross_entropy_out_of_range_label():
    with pytest.raises(ValueError, match="label 7"):
        cross_entropy_from_logits(Tensor(np.zeros((2, 3))), np.array([0, 7]))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_linear_gives_ones():
    w = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
    sum_all(w).backward()
    np.testing.assert_array_equal(w.grad, np.ones((3, 4)))


def test_backward_quadratic_gives_2w():
    w = t64(np.array([[1.0, -2.0], [0.5, 3.0]]))
    sum_all(mul(w, w)).backward()
    np.testing.assert_allclose(w.grad, 2 * w.data, atol=1e-12)


def test_backward_rejects_non_scalar():
    w = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        add(w, w).backward()


def test_backward_accumulates_without_reset():
    w = Tensor(np.ones(3))
    loss = sum_all(w)
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(w.grad, 2 * np.ones(3))


def test_backward_writes_grad_only_on_leaves():
    w = t64(np.ones((2, 3)))
    x = t64(np.arange(6.0).reshape(3, 2))

    def build():
        hidden = tanh(matmul(w, x))
        return hidden, sum_all(mul(hidden, hidden))

    hidden, loss = build()
    loss.backward()
    assert w.grad is not None and w.grad.shape == w.shape
    for node in (hidden, loss):
        assert node.grad is None
    # an input is a leaf like any other: it gets a correct gradient too
    err = max_grad_error(lambda: build()[1].item(), x, np.random.default_rng(9), 6, 1e-5, atol=1e-10)
    assert err < _RTOL, f"gradient mismatch: {err}"


def test_leaves_fed_by_one_add_own_their_gradients():
    # add's backward hands the same buffer to both operands
    a = t64(np.ones(3))
    b = t64(np.ones(3))
    loss = sum_all(add(a, b))
    loss.backward()
    a.grad += 5.0
    np.testing.assert_array_equal(b.grad, np.ones(3))
    loss.backward()
    np.testing.assert_array_equal(a.grad, np.full(3, 7.0))
    np.testing.assert_array_equal(b.grad, np.full(3, 2.0))


def test_no_grad_records_no_graph():
    w = t64(np.ones((2, 2)))
    x = t64(np.arange(4.0).reshape(2, 2))
    graph = tanh(matmul(x, w))
    with no_grad():
        free = tanh(matmul(x, w))
    assert free._parents == () and free._vjp is None
    assert np.array_equal(free.data, graph.data)
    # the graph records again once the block exits
    again = matmul(x, w)
    assert again._parents == (x, w) and again._vjp is not None


def test_graph_evaluation_deterministic():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
    b = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
    first = matmul(tanh(a), softmax(b)).data
    second = matmul(tanh(a), softmax(b)).data
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_fixed_point():
    values = np.array([1.0, -2.0, 3.0])
    before = values.copy()
    opt = Adam(values, np.zeros(3), learning_rate=0.1)
    opt.step()
    np.testing.assert_array_equal(values, before)
    assert opt.step_count == 1


def test_adam_single_step_oracle():
    values = np.array([1.0])
    opt = Adam(values, np.array([1.0]), learning_rate=0.1)
    opt.step()
    # hand-rolled first step: m-hat = v-hat = 1, so step = lr / (1 + eps)
    expected = 1.0 - 0.1 / (1.0 + 1e-8)
    assert abs(values[0] - expected) < 1e-12
    assert abs(values[0] - 0.9) < 1e-8


def test_adam_two_runs_bitwise_identical():
    def run():
        rng = np.random.default_rng(5)
        values = np.ones(9, dtype=np.float32)
        grads = np.zeros_like(values)
        p = Tensor(values.reshape(3, 3))
        p.grad = grads.reshape(3, 3)
        opt = Adam(values, grads, learning_rate=0.01)
        for _ in range(10):
            loss = sum_all(mul(p, Tensor(rng.normal(size=(3, 3)).astype(np.float32))))
            grads.fill(0)
            loss.backward()
            opt.step()
        return values

    assert np.array_equal(run(), run())


def _adam_reference(params, grads_per_step, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """The update of each parameter on its own, with its own m and v."""
    data = {name: arr.copy() for name, arr in params.items()}
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for name, g in grads.items():
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v[name] *= b2
            v[name] += (1.0 - b2) * (g * g)
            data[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    return data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_matches_per_parameter_update_bitwise(dtype):
    rng = np.random.default_rng(21)
    shapes = {"w": (4, 3), "b": (3,), "table": (7, 2), "gain": (1,)}
    start = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
    grads_per_step = [
        {name: (rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3)).astype(dtype) for name, shape in shapes.items()}
        for _ in range(5)
    ]
    specs = [(name, shape, "zeros") for name, shape in shapes.items()]
    values = np.concatenate([arr.ravel() for arr in start.values()])
    grads = np.empty_like(values)
    params, grad_slices = parameter_views(values, specs), parameter_views(grads, specs)
    opt = Adam(values, grads, learning_rate=0.01)
    for step_grads in grads_per_step:
        for name, g in step_grads.items():
            grad_slices[name].data[...] = g
        opt.step()
    expected = _adam_reference(start, grads_per_step)
    for name, p in params.items():
        assert p.data.dtype == dtype and p.data.shape == shapes[name]
        assert np.array_equal(p.data, expected[name]), name


def test_adam_rejects_mixed_dtypes():
    for grads in (np.ones(2, dtype=np.float64), np.ones(3, dtype=np.float32)):
        with pytest.raises(ValueError, match="do not match values float32"):
            Adam(np.ones(2, dtype=np.float32), grads, learning_rate=0.1)


def _in_turn(job):
    """beside on one CPU: the caller runs the job when it waits for it."""
    return job


def _on_a_thread(job):
    """beside on two CPUs: a thread runs the job; the wait joins it and raises its error."""
    errors = []

    def run():
        try:
            job()
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()

    def wait():
        thread.join()
        if errors:
            raise errors[0]

    return wait


BESIDES = {1: _in_turn, 2: _on_a_thread}


def _recording(beside, threads):
    """beside that records the thread each job runs on."""

    def wrapped(job):
        def recorded():
            threads.append(threading.current_thread())
            job()

        return beside(recorded)

    return wrapped


@pytest.mark.parametrize("cpus", [1, 2])
def test_adam_in_two_ranges_equals_one_step_bitwise(cpus):
    # an odd length: the first range is one element longer
    rng = np.random.default_rng(8)
    start = rng.normal(size=1001).astype(np.float32)
    opts = [Adam(start.copy(), np.empty_like(start), learning_rate=0.01) for _ in range(2)]
    threads = []
    for _ in range(4):
        g = (rng.normal(size=start.size) * 10.0 ** rng.integers(-4, 3)).astype(np.float32)
        for opt in opts:
            opt.grads[...] = g
        opts[0].step()
        opts[1].step(_recording(BESIDES[cpus], threads))
    whole, split = opts
    for attr in ("values", "m", "v"):
        assert getattr(split, attr).tobytes() == getattr(whole, attr).tobytes(), attr
    assert split.step_count == whole.step_count == 4
    assert halves(1001) == (slice(0, 501), slice(501, 1001))
    on_caller = [t is threading.current_thread() for t in threads]
    assert on_caller == [cpus == 1] * 4  # one job a step, the second range's


def test_adam_non_finite_gradient_changes_nothing():
    for beside in (None, _in_turn, _on_a_thread):
        values = np.ones(7, dtype=np.float32)
        grads = np.ones_like(values)
        opt = Adam(values, grads, learning_rate=0.1)
        opt.step(beside)
        before = values.copy()
        m, v = opt.m.copy(), opt.v.copy()
        # halves(7) is [0, 4) and [4, 7): a bad entry in either range
        for bad, where in itertools.product((np.inf, -np.inf, np.nan), (1, 4)):
            grads[...] = 1.0
            grads[where] = bad
            seen = grads.copy()
            threads = []
            with pytest.raises(NonFiniteGradientError):
                opt.step(beside and _recording(beside, threads))
            assert threads == []  # no range was started
            assert opt.step_count == 1
            assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
            assert np.array_equal(values, before)
            assert np.array_equal(grads, seen, equal_nan=True)  # left for the caller to locate


# ---------------------------------------------------------------------------
# gradient checks for every primitive op (64-bit)
# ---------------------------------------------------------------------------

_RTOL = 1e-5


def _check(build, n_params, seed, n_samples=25, h=1e-5):
    """build(params) -> scalar Tensor loss; FD-check each parameter."""
    rng = np.random.default_rng(seed)
    params = [t64(rng.normal(size=shape)) for shape in n_params]
    build(params).backward()
    check_rng = np.random.default_rng(seed + 1)
    for p in params:
        err = max_grad_error(lambda: build(params).item(), p, check_rng, n_samples, h, atol=1e-10)
        assert err < _RTOL, f"gradient mismatch: {err}"


def _weighted_sum(t, seed=99):
    w = np.random.default_rng(seed).normal(size=t.shape)
    return sum_all(mul(t, Tensor(w, dtype=np.float64)))


def test_grad_add_broadcast():
    _check(lambda ps: _weighted_sum(add(ps[0], ps[1])), [(3, 4), (4,)], 0)


def test_grad_mul_broadcast():
    _check(lambda ps: _weighted_sum(mul(ps[0], ps[1])), [(3, 4), (3, 1)], 1)


def test_grad_scale():
    _check(lambda ps: _weighted_sum(scale(ps[0], -2.5)), [(4, 2)], 2)


def test_grad_matmul_2d():
    _check(lambda ps: _weighted_sum(matmul(ps[0], ps[1])), [(3, 4), (4, 2)], 3)


def test_grad_matmul_batched_with_unbatched():
    # a 2-D right operand broadcasts over the leading axes; its gradient sums over them
    for shapes in ([(2, 1, 5), (5, 5)], [(3, 4, 5), (5, 2)], [(2, 3, 4, 5), (5, 3)]):
        _check(lambda ps: _weighted_sum(matmul(ps[0], ps[1])), shapes, 4)


def test_grad_tanh():
    _check(lambda ps: _weighted_sum(tanh(ps[0])), [(4, 3)], 5)


def test_grad_gelu():
    _check(lambda ps: _weighted_sum(gelu(ps[0])), [(4, 3)], 6)


def test_grad_softmax():
    _check(lambda ps: _weighted_sum(softmax(ps[0])), [(3, 6)], 7)


def test_grad_softmax_masked():
    mask = np.array([[True, True, False, True, True, False]] * 3)
    _check(lambda ps: _weighted_sum(softmax_masked(ps[0], mask)), [(3, 6)], 8)


def test_grad_concat_last():
    _check(lambda ps: _weighted_sum(concat_last(ps[0], ps[1])), [(2, 3), (2, 2)], 9)


def test_grad_select():
    _check(lambda ps: _weighted_sum(select(ps[0], 1, axis=1)), [(2, 4, 3)], 10)


def test_grad_reshape_transpose():
    _check(
        lambda ps: _weighted_sum(reshape(transpose(ps[0], (1, 0, 2)), (12, 2))),
        [(3, 4, 2)],
        11,
    )


def test_grad_embedding():
    ids = np.array([[0, 2, 2], [1, 0, 3]])
    _check(lambda ps: _weighted_sum(embedding(ps[0], ids)), [(5, 3)], 12)


def test_embedding_gradient_matches_indexed_add_at_bitwise():
    rng = np.random.default_rng(32)
    table = Tensor(rng.normal(size=(7, 5)).astype(np.float32))
    ids = rng.integers(0, 7, size=(4, 9))  # every row repeats
    g = rng.normal(size=(4, 9, 5)).astype(np.float32)
    want = np.zeros_like(table.data)
    np.add.at(want, ids, g)
    assert np.array_equal(embedding(table, ids)._vjp(g)[0], want)


def test_grad_layer_norm():
    _check(
        lambda ps: _weighted_sum(layer_norm(ps[0], ps[1], ps[2], ps[3])),
        [(3, 6), (3, 6), (6,), (6,)],
        13,
    )


def test_grad_linear():
    # 3-D and 2-D inputs fold into one 2-D product
    for shapes in ([(2, 3, 4), (4, 5), (5,)], [(3, 4), (4, 2), (2,)]):
        _check(lambda ps: _weighted_sum(linear(ps[0], ps[1], ps[2])), shapes, 18)


@pytest.mark.parametrize("n_heads", [1, 2])
def test_grad_attention(n_heads):
    # the second row is padded: its last two keys are masked
    mask = np.array([[True, True, True, True], [True, True, False, False]])
    _check(lambda ps: _weighted_sum(attention(ps[0], mask, n_heads)), [(2, 4, 12)], 21 + n_heads)


def test_grad_cross_entropy():
    labels = np.array([0, 3, 1])
    _check(lambda ps: cross_entropy_from_logits(ps[0], labels), [(3, 5)], 14)


def test_grad_sum_all():
    _check(lambda ps: sum_all(mul(ps[0], ps[0])), [(3, 3)], 15)


def test_grad_crop():
    _check(lambda ps: _weighted_sum(crop(ps[0], (2, 3))), [(4, 5)], 16)
    _check(lambda ps: _weighted_sum(crop(ps[0], (1, 3, 2))), [(2, 3, 4)], 17)


def test_crop_corner_and_zero_padded_gradient():
    a = t64(np.arange(12.0).reshape(3, 4))
    out = crop(a, (2, 2))
    np.testing.assert_array_equal(out.data, [[0.0, 1.0], [4.0, 5.0]])
    sum_all(out).backward()
    expected = np.zeros((3, 4))
    expected[:2, :2] = 1.0
    np.testing.assert_array_equal(a.grad, expected)
    assert crop(a, (3, 4)) is a
    for bad in ((4, 4), (2,), (2, -1)):
        with pytest.raises(ShapeError):
            crop(a, bad)


def test_dropout_grad_matches_mask():
    x = t64(np.ones((4, 4)))
    out = dropout(x, 0.5, np.random.default_rng(0))
    sum_all(out).backward()
    kept = out.data != 0.0
    np.testing.assert_allclose(x.grad[kept], 2.0, atol=1e-12)  # 1/(1-0.5)
    np.testing.assert_allclose(x.grad[~kept], 0.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_matches_scaled_mask_formula_bitwise(dtype):
    # the formula dropout used before it scaled in place: x * (keep / (1 - rate))
    rng = np.random.default_rng(24)
    x = rng.normal(size=(4, 5, 6)).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    # at 0.15, 1/(1-rate) rounds differently in float64 and in float32
    for rate in (0.1, 0.15, 0.3, 0.5):
        mine, ref = np.random.default_rng(25), np.random.default_rng(25)
        out = dropout(Tensor(x), rate, mine)
        m = (ref.random(x.shape) >= rate).astype(dtype) / (1.0 - rate)
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, x * m)
        assert np.array_equal(out._vjp(g)[0], g * m)
        assert mine.random() == ref.random()  # the same draws were consumed


def test_dropout_deterministic_under_seeded_rng():
    x = Tensor(np.ones((8, 8), dtype=np.float32))
    a = dropout(x, 0.3, np.random.default_rng(42)).data
    b = dropout(x, 0.3, np.random.default_rng(42)).data
    assert np.array_equal(a, b)


def test_transpose_inverse_matches_argsort_for_every_permutation():
    x = np.arange(2 * 3 * 4 * 5, dtype=np.float64).reshape(2, 3, 4, 5)
    for axes in itertools.permutations(range(4)):
        a = t64(x)
        out = transpose(a, axes)
        assert np.array_equal(out.data, np.transpose(x, axes))
        g = np.arange(out.data.size, dtype=np.float64).reshape(out.shape)
        (ga,) = out._vjp(g)
        assert np.array_equal(ga, np.transpose(g, np.argsort(axes)))


def test_gelu_matches_textbook_expression_bitwise():
    rng = np.random.default_rng(26)
    for dtype in (np.float32, np.float64):
        x = (rng.normal(size=(3, 7, 16)) * 3.0).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        c0, c1 = math.sqrt(2.0 / math.pi), 0.044715
        t = np.tanh(c0 * (x + c1 * x * x * x))
        d_inner = c0 * (1.0 + 3.0 * c1 * x * x)
        out = gelu(Tensor(x))
        assert np.array_equal(out.data, 0.5 * x * (1.0 + t))
        assert np.array_equal(out._vjp(g)[0], g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner))
        with no_grad():  # the forward then reuses its one temporary for the output
            assert np.array_equal(gelu(Tensor(x)).data, out.data)


def _layer_norm_reference(x, gain, bias, g, eps=1e-5):
    """Forward value and input/gain/bias gradients with numpy's mean."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    y = xhat * gain + bias
    lead = tuple(range(g.ndim - 1))
    gt = g * gain
    gx = inv * (gt - gt.mean(axis=-1, keepdims=True) - xhat * (gt * xhat).mean(axis=-1, keepdims=True))
    return y, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 4, 64), (2, 3, 33)])
def test_layer_norm_matches_mean_based_reference_bitwise(dtype, shape):
    rng = np.random.default_rng(31)
    x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
    gain = rng.normal(size=shape[-1]).astype(dtype)
    bias = rng.normal(size=shape[-1]).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    residual = rng.normal(size=shape).astype(dtype)
    out = layer_norm(
        Tensor(x),
        Tensor(residual),
        Tensor(gain),
        Tensor(bias),
    )
    y, gx, g_gain, g_bias = _layer_norm_reference(x + residual, gain, bias, g)
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, y)
    for got, want in zip(out._vjp(g), (gx, gx, g_gain, g_bias)):
        assert np.array_equal(got, want)
    with pytest.raises(ShapeError):
        layer_norm(Tensor(x), Tensor(residual[..., :1]), Tensor(gain), Tensor(bias))


# ---------------------------------------------------------------------------
# fused primitives against the composed graphs they replace
# ---------------------------------------------------------------------------

# float32 bound for a fused op against its composed reference on O(1)
# inputs: the products sum in another order, so results differ by a few
# units in the last place of float32 (eps 1.2e-7), far inside this.
_F32_PARITY = dict(rtol=1e-5, atol=1e-6)


def _attention_reference(q, k, v, mask, n_heads):
    """Attention composed of separate ops: (context [B, L, d], probabilities)."""
    b, l, d = q.shape
    dk = d // n_heads

    def heads(t):
        return transpose(reshape(t, (b, l, n_heads, dk)), (0, 2, 1, 3))

    scores = scale(matmul(heads(q), transpose(heads(k), (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
    probs = softmax_masked(scores, mask[:, None, None, :])
    ctx = transpose(matmul(probs, heads(v)), (0, 2, 1, 3))
    return reshape(ctx, (b, l, d)), probs


def _assert_parity(pairs, dtype):
    for got, want in pairs:
        assert got.dtype == dtype
        if dtype == np.float64:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            np.testing.assert_allclose(got, want, **_F32_PARITY)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(3, 4, 8), (5, 8)])
def test_linear_matches_matmul_add(dtype, x_shape):
    rng = np.random.default_rng(27)
    arrays = [rng.normal(size=s).astype(dtype) for s in (x_shape, (8, 6), (6,))]
    fused = [Tensor(a) for a in arrays]
    ref = [Tensor(a) for a in arrays]
    out = linear(*fused)
    ref_out = add(matmul(ref[0], ref[1]), ref[2])
    _weighted_sum(out).backward()
    _weighted_sum(ref_out).backward()
    _assert_parity([(out.data, ref_out.data)] + [(f.grad, r.grad) for f, r in zip(fused, ref)], dtype)


_PADDED = np.array([[True] * 6, [True] * 4 + [False] * 2, [True] + [False] * 5])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_matches_composed_reference(dtype, n_heads):
    rng = np.random.default_rng(29)
    q, k, v = (rng.normal(size=(3, 6, 8)).astype(dtype) for _ in range(3))
    qkv = Tensor(np.concatenate([q, k, v], axis=-1))
    ref = [Tensor(a) for a in (q, k, v)]
    out = attention(qkv, _PADDED, n_heads)
    ref_out, probs = _attention_reference(*ref, _PADDED, n_heads)
    # the reference's rows are distributions over the real keys
    np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(probs.data[np.broadcast_to(~_PADDED[:, None, None, :], probs.shape)] == 0.0)
    _weighted_sum(out).backward()
    _weighted_sum(ref_out).backward()
    ref_grad = np.concatenate([p.grad for p in ref], axis=-1)
    _assert_parity([(out.data, ref_out.data), (qkv.grad, ref_grad)], dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_rows_are_distributions_over_real_keys(dtype):
    rng = np.random.default_rng(30)
    qkv = rng.normal(scale=3.0, size=(3, 6, 24)).astype(dtype)
    qkv[..., 16:] = 1.0  # every value row is ones, so each output is its row's weight sum
    out = attention(Tensor(qkv), _PADDED, 2).data
    np.testing.assert_allclose(out, 1.0, rtol=0, atol=1e-6 if dtype == np.float32 else 1e-12)
    # keys and values at masked positions get exactly zero weight
    moved = qkv.copy()
    moved[..., 8:][~_PADDED] = rng.normal(scale=100.0, size=moved[..., 8:][~_PADDED].shape)
    assert np.array_equal(attention(Tensor(moved), _PADDED, 2).data, out)


def test_attention_rejects_degenerate_mask_and_bad_width():
    qkv = Tensor(np.zeros((2, 3, 12)))
    mask = np.array([[True, True, False], [False, False, False]])
    with pytest.raises(DegenerateMaskError):
        attention(qkv, mask, 2)
    for width, n_heads in ((10, 2), (12, 5), (9, 2)):
        with pytest.raises(ShapeError):
            attention(Tensor(np.zeros((2, 3, width))), np.ones((2, 3), dtype=bool), n_heads)
    with pytest.raises(ShapeError):
        attention(qkv, np.ones((2, 4), dtype=bool), 2)


# (batch, width, d, l_max, padded lengths): masked rows, batch 1, width 1
# and widths below l_max, where w_alpha is cropped to the batch width
_HEAD_CASES = [
    (3, 5, 4, 7, (5, 3, 1)),
    (1, 4, 3, 4, (4,)),
    (1, 3, 2, 6, (3,)),
    (2, 1, 3, 5, (1, 1)),
    (2, 6, 5, 6, (6, 2)),
]


def _head_mask(b, l, lengths):
    return np.arange(l)[None, :] < np.array(lengths)[:, None]


def _task_scores_reference(h, mask, w_a, w_alpha):
    """The composed graph task_scores replaces: tanh(h w_a), masked, mixed by w_alpha."""
    b, l, _ = h.shape
    keep = Tensor(mask.astype(h.dtype)[:, :, None])
    return matmul(reshape(mul(tanh(matmul(h, w_a)), keep), (b, l)), w_alpha)


def _weighted_sum_reference(alpha, h):
    """The composed graph weighted_sum replaces: alpha [B, 1, L] @ h."""
    b, l, d = h.shape
    return reshape(matmul(reshape(alpha, (b, 1, l)), h), (b, d))


@pytest.mark.parametrize("b,l,d,l_max,lengths", _HEAD_CASES)
def test_grad_task_scores(b, l, d, l_max, lengths):
    mask = _head_mask(b, l, lengths)
    _check(
        lambda ps: _weighted_sum(task_scores(ps[0], mask, ps[1], crop(ps[2], (l, l)))),
        [(b, l, d), (d, 1), (l_max, l_max)],
        50,
    )


@pytest.mark.parametrize("b,l,d,l_max,lengths", _HEAD_CASES)
def test_grad_weighted_sum(b, l, d, l_max, lengths):
    mask = _head_mask(b, l, lengths)
    # weights as task_attention makes them: a softmax over the real positions
    _check(
        lambda ps: _weighted_sum(weighted_sum(softmax_masked(ps[0], mask), ps[1])),
        [(b, l), (b, l, d)],
        51,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b,l,d,l_max,lengths", _HEAD_CASES)
def test_task_head_primitives_match_composed_reference(dtype, b, l, d, l_max, lengths):
    # Forward values are bitwise equal: both make the same numpy calls.
    # Gradients sum in another order (w_a's over all rows at once, alpha's
    # as h @ g), so they agree to 1e-12 in float64 and within _F32_PARITY
    # in float32. Inputs at scale 0.5 keep tanh off its saturated ends,
    # where 1 - t^2 rounds to 0 and would hide the h and w_a gradients.
    rng = np.random.default_rng(53)
    mask = _head_mask(b, l, lengths)
    arrays = [rng.normal(scale=0.5, size=s).astype(dtype) for s in ((b, l, d), (d, 1), (l_max, l_max))]
    fused = [Tensor(a) for a in arrays]
    ref = [Tensor(a) for a in arrays]
    scores = task_scores(fused[0], mask, fused[1], crop(fused[2], (l, l)))
    ref_scores = _task_scores_reference(ref[0], mask, ref[1], crop(ref[2], (l, l)))
    np.testing.assert_array_equal(scores.data, ref_scores.data, strict=True)
    alpha, ref_alpha = softmax_masked(scores, mask), softmax_masked(ref_scores, mask)
    v, ref_v = weighted_sum(alpha, fused[0]), _weighted_sum_reference(ref_alpha, ref[0])
    np.testing.assert_array_equal(v.data, ref_v.data, strict=True)
    _weighted_sum(v).backward()
    _weighted_sum(ref_v).backward()
    _assert_parity([(f.grad, r.grad) for f, r in zip(fused, ref)], dtype)


def test_task_head_primitives_reject_operands_that_do_not_fit():
    h, w_a, w_alpha = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 1))), Tensor(np.zeros((3, 3)))
    mask = np.ones((2, 3), dtype=bool)
    for bad in (
        (h, np.ones((2, 4), dtype=bool), w_a, w_alpha),  # mask wider than h
        (h, np.ones(3, dtype=bool), w_a, w_alpha),  # mask without the batch axis
        (h, mask, Tensor(np.zeros((5, 1))), w_alpha),
        (h, mask, Tensor(np.zeros((4, 2))), w_alpha),
        (h, mask, Tensor(np.zeros(4)), w_alpha),
        (h, mask, w_a, Tensor(np.zeros((4, 4)))),  # w_alpha not cropped to the width
        (Tensor(np.zeros((3, 4))), mask, w_a, w_alpha),
    ):
        with pytest.raises(ShapeError):
            task_scores(*bad)
    for alpha, rows in (
        (Tensor(np.zeros((2, 4))), h),
        (Tensor(np.zeros((3, 3))), h),
        (Tensor(np.zeros(3)), Tensor(np.zeros((3, 4)))),
    ):
        with pytest.raises(ShapeError):
            weighted_sum(alpha, rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_primitive_returns_an_array_of_its_input_dtype(dtype):
    rng = np.random.default_rng(41)

    def t(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype))

    mask = np.array([[True, False, True], [True, True, False]])
    outs = {
        "add": add(t(2, 3), t(3)),
        "add_0d": add(sum_all(t(2)), sum_all(t(2))),
        "mul": mul(t(2, 3), t(2, 3)),
        "scale": scale(t(2, 3), 0.5),
        "scale_0d": scale(sum_all(t(2)), 0.5),
        "matmul": matmul(t(2, 3), t(3, 4)),
        "linear": linear(t(2, 2, 3), t(3, 4), t(4)),
        "tanh": tanh(t(2, 3)),
        "tanh_0d": tanh(sum_all(t(2))),
        "gelu": gelu(t(2, 3)),
        "softmax": softmax(t(2, 3)),
        "softmax_masked": softmax_masked(t(2, 3), mask),
        "attention": attention(t(2, 3, 6), mask, 1),
        "task_scores": task_scores(t(2, 3, 4), mask, t(4, 1), t(3, 3)),
        "weighted_sum": weighted_sum(t(2, 3), t(2, 3, 4)),
        "concat_last": concat_last(t(2, 3), t(2, 1)),
        "crop": crop(t(4, 3), (2, 3)),
        "select": select(t(2, 3), 1, axis=0),
        "select_1d": select(t(3), 1, axis=0),
        "reshape": reshape(t(2, 3), (3, 2)),
        "transpose": transpose(t(2, 3), (1, 0)),
        "embedding": embedding(t(5, 3), np.array([[0, 4], [2, 2]])),
        "layer_norm": layer_norm(t(2, 3), t(2, 3), t(3), t(3)),
        "dropout": dropout(t(2, 3), 0.5, np.random.default_rng(0)),
        "sum_all": sum_all(t(2, 3)),
        "cross_entropy": cross_entropy_from_logits(t(2, 3), np.array([0, 2])),
    }
    for name, out in outs.items():
        assert type(out.data) is np.ndarray, name
        assert out.data.dtype == dtype, name
        assert out._parents and out._vjp is not None and out.grad is None, name
    with no_grad():
        out = add(t(2), t(2))
    assert type(out.data) is np.ndarray and out._vjp is None and out._parents == ()


# ---------------------------------------------------------------------------
# init helpers
# ---------------------------------------------------------------------------


def _trunc_normal_reference(shape, rng, dtype):
    """The redraw loop that re-tests every entry after each round."""
    out = rng.normal(0.0, 0.02, size=tuple(shape))
    bad = np.abs(out) > 0.04
    while bad.any():
        out[bad] = rng.normal(0.0, 0.02, size=int(bad.sum()))
        bad = np.abs(out) > 0.04
    return out.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1,), (7,), (64, 3), (4096, 64), (3, 5, 2)])
def test_trunc_normal_matches_redraw_everything_reference(dtype, shape):
    for seed in (0, 1, 17):
        got_rng, want_rng = name_seeded_rng(seed, "w"), name_seeded_rng(seed, "w")
        got = trunc_normal(shape, got_rng, dtype)
        want = _trunc_normal_reference(shape, want_rng, dtype)
        np.testing.assert_array_equal(got, want, strict=True)
        # the generators stand at the same state afterwards
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_parameters_matches_concatenated_parts(dtype):
    specs = [("a", (3, 4), "normal"), ("b", (4,), "zeros"), ("c", (2,), "ones"), ("d", (1,), "normal")]
    for seed in (0, 5):
        parts = [
            trunc_normal(shape, name_seeded_rng(seed, name), dtype) if kind == "normal"
            else np.full(shape, 1.0 if kind == "ones" else 0.0, dtype=dtype)
            for name, shape, kind in specs
        ]
        want = np.concatenate([part.ravel() for part in parts])
        np.testing.assert_array_equal(init_parameters(specs, seed, dtype), want, strict=True)


def test_trunc_normal_respects_bounds():
    rng = name_seeded_rng(0, "w")
    arr = trunc_normal((200, 50), rng)
    assert np.abs(arr).max() <= 0.04
    assert arr.std() > 0.005


def test_name_seeded_rng_stable_and_distinct():
    a = name_seeded_rng(1, "x").normal(size=4)
    b = name_seeded_rng(1, "x").normal(size=4)
    c = name_seeded_rng(1, "y").normal(size=4)
    d = name_seeded_rng(2, "x").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
