"""Metrics oracles, training-loop determinism, and report file formats."""

import collections
import contextlib
import dataclasses
import itertools
import os
import re
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from mtlid import train as train_mod
from mtlid.data import DataError, Dataset, Example, SynthConfig, synth_generate
from mtlid.encoder import EncoderConfig
from mtlid.model import (
    MODES,
    TASKS,
    MtlModel,
    ModelConfig,
    compute_loss,
    load_checkpoint,
    param_specs,
    predict,
    save_checkpoint,
)
from mtlid.preprocess import build_vocab, clean_text, encode
from mtlid.tensor import Adam, Tensor, no_grad, scale
from mtlid.train import (
    INFERENCE_TOKENS,
    DivergenceError,
    EpochRecord,
    MetricsReport,
    TrainConfig,
    confusion_matrix,
    evaluate,
    format_history_line,
    metrics_from_predictions,
    predict_texts,
    train,
    write_confusion,
    write_history,
)


def tally_oracle(gold, pred, c):
    """Independent pair-counting implementation of all the metrics."""
    per_class = []
    for i in range(c):
        tp = sum(1 for g, p in zip(gold, pred) if g == i and p == i)
        fp = sum(1 for g, p in zip(gold, pred) if g != i and p == i)
        fn = sum(1 for g, p in zip(gold, pred) if g == i and p != i)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append((precision, recall, f1, tp + fn))
    accuracy = sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)
    macro = sum(f1 for _, _, f1, _ in per_class) / c
    conf = [[0] * c for _ in range(c)]
    for g, p in zip(gold, pred):
        conf[g][p] += 1
    return accuracy, macro, per_class, np.array(conf)


# ---------------------------------------------------------------------------
# metric values
# ---------------------------------------------------------------------------


def test_all_correct_is_perfect():
    gold = np.array([0, 1, 2, 1])
    rep = metrics_from_predictions(gold, gold, 3)
    assert rep.accuracy == 1.0
    assert rep.macro_f1 == 1.0


def test_binary_all_flipped_is_zero():
    gold = np.array([0, 1, 0, 1])
    pred = 1 - gold
    rep = metrics_from_predictions(gold, pred, 2)
    assert rep.accuracy == 0.0
    assert rep.macro_f1 == 0.0


def test_three_class_hand_tally():
    gold = np.array([0, 0, 1, 2])
    pred = np.array([0, 1, 1, 2])
    rep = metrics_from_predictions(gold, pred, 3)
    assert rep.accuracy == 0.75
    f1s = [f1 for _, _, f1, _ in rep.per_class]
    np.testing.assert_allclose(f1s, [2 / 3, 2 / 3, 1.0], atol=1e-12)
    assert abs(rep.macro_f1 - 7 / 9) < 1e-6
    # per-class precision/recall as tallied by hand
    assert rep.per_class[0][:2] == (1.0, 0.5)
    assert rep.per_class[1][:2] == (0.5, 1.0)


def test_macro_f1_zero_support_class_lowers_mean():
    gold = np.array([0, 0])
    pred = np.array([0, 0])
    assert metrics_from_predictions(gold, pred, 1).macro_f1 == 1.0
    assert metrics_from_predictions(gold, pred, 2).macro_f1 == 0.5  # absent class contributes 0


def test_macro_f1_class_count_sensitivity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        used = int(rng.integers(2, 6))
        n = int(rng.integers(4, 40))
        gold = rng.integers(0, used, size=n)
        pred = rng.integers(0, used, size=n)
        full = used + int(rng.integers(1, 4))
        assert (
            metrics_from_predictions(gold, pred, used).macro_f1
            >= metrics_from_predictions(gold, pred, full).macro_f1
        )


def test_metrics_match_tally_oracle_exactly():
    rng = np.random.default_rng(1)
    for _ in range(40):
        c = int(rng.integers(2, 12))
        n = int(rng.integers(1, 200))
        gold = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        rep = metrics_from_predictions(gold, pred, c)
        acc, macro, per_class, conf = tally_oracle(gold.tolist(), pred.tolist(), c)
        assert rep.accuracy == acc
        assert rep.macro_f1 == macro
        assert rep.per_class == per_class
        assert np.array_equal(rep.confusion, conf)


def test_confusion_matrix_basics():
    assert np.array_equal(confusion_matrix(np.array([1]), np.array([0]), 2), [[0, 0], [1, 0]])
    gold = np.array([0, 1, 1, 2, 2, 2])
    pred = np.array([0, 1, 0, 2, 2, 1])
    conf = confusion_matrix(gold, pred, 3)
    assert np.array_equal(conf.sum(axis=1), [1, 2, 3])  # row sums = supports
    assert conf.sum() == 6
    with pytest.raises(ValueError, match="out of range"):
        confusion_matrix(np.array([3]), np.array([0]), 2)


@pytest.mark.parametrize("n_classes", [0, -1, 2.0, True])
@pytest.mark.parametrize("gold", [[], [0, 0]], ids=["no_rows", "two_rows"])
def test_a_bad_class_count_is_a_value_error_that_names_it(gold, n_classes):
    gold = np.array(gold, dtype=np.intp)
    with pytest.raises(ValueError, match="n_classes"):
        metrics_from_predictions(gold, gold, n_classes)


def test_accuracy_equals_trace_over_n():
    rng = np.random.default_rng(2)
    gold = rng.integers(0, 5, size=200)
    pred = rng.integers(0, 5, size=200)
    rep = metrics_from_predictions(gold, pred, 5)
    assert rep.accuracy == np.trace(rep.confusion) / 200


def test_relabeling_invariance():
    rng = np.random.default_rng(3)
    c = 6
    gold = rng.integers(0, c, size=150)
    pred = rng.integers(0, c, size=150)
    perm = rng.permutation(c)
    rep = metrics_from_predictions(gold, pred, c)
    rep_perm = metrics_from_predictions(perm[gold], perm[pred], c)
    assert abs(rep.accuracy - rep_perm.accuracy) < 1e-9
    assert abs(rep.macro_f1 - rep_perm.macro_f1) < 1e-9
    assert np.array_equal(rep_perm.confusion, rep.confusion[np.argsort(perm)][:, np.argsort(perm)])


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------


def tiny_setup(seed=0, mode="mtl", loss_weights=(1.0, 1.0)):
    splits = synth_generate(
        SynthConfig(
            n_countries=2,
            provinces_per_country=2,
            examples_per_province=16,
            shared_vocab_size=30,
            country_signal_tokens=4,
            province_signal_tokens=4,
            signal_strength=0.8,
            seed=seed,
            tokens_per_example=8,
        )
    )
    train_ds, dev_ds, _ = splits
    vocab = build_vocab([clean_text(ex.text) for ex in train_ds.examples], max_size=256)
    enc = EncoderConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32, l_max=10, vocab_size=len(vocab), dropout_rate=0.0)
    config = ModelConfig(
        encoder=enc,
        n_countries=len(train_ds.country_labels),
        n_provinces=len(train_ds.province_labels),
        mode=mode,
        loss_weights=loss_weights,
    )
    return train_ds, dev_ds, vocab, config


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)


def test_train_deterministic_history():
    def run():
        train_ds, dev_ds, vocab, config = tiny_setup()
        model = MtlModel(config, global_seed=0)
        res = train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=2, batch_size=8, seed=0))
        return [format_history_line(r) for r in res.history], {
            name: p.data.copy() for name, p in model.params.items()
        }

    lines_a, params_a = run()
    lines_b, params_b = run()
    assert lines_a == lines_b
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name])


@pytest.mark.parametrize("mode", MODES)
def test_best_epoch_restore_equals_training_to_that_epoch(mode):
    train_ds, dev_ds, vocab, config = tiny_setup(seed=0, mode=mode)
    a = MtlModel(config, global_seed=0)
    res = train(a, train_ds, dev_ds, vocab, TrainConfig(epochs=6, batch_size=8, seed=0))
    assert res.best_epoch < 6
    b = MtlModel(config, global_seed=0)
    train(b, train_ds, None, vocab, TrainConfig(epochs=res.best_epoch, batch_size=8, seed=0))
    assert a.values.tobytes() == b.values.tobytes()


def assert_parameters_view_values(model):
    """Each parameter is the run of model.values at its param_specs offset."""
    start = 0
    for name, shape, _ in param_specs(model.config):
        data = model.params[name].data
        assert data.shape == shape and np.shares_memory(data, model.values), name
        assert data.ctypes.data == model.values[start:].ctypes.data, name
        start += data.size
    assert start == model.values.size
    assert list(model.params) == [name for name, _, _ in param_specs(model.config)]


def test_parameters_stay_views_of_values(tmp_path):
    train_ds, dev_ds, vocab, config = tiny_setup()
    model = MtlModel(config, global_seed=0)
    assert_parameters_view_values(model)
    res = train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=6, batch_size=8, seed=0))
    assert res.best_epoch < 6  # the best epoch was restored
    assert_parameters_view_values(model)
    save_checkpoint(tmp_path / "model.ckpt", model, train_ds.country_labels, train_ds.province_labels, vocab)
    loaded = load_checkpoint(tmp_path / "model.ckpt").model
    assert_parameters_view_values(loaded)
    assert loaded.values.tobytes() == model.values.tobytes()


def test_train_loss_decreases_on_easy_data():
    train_ds, dev_ds, vocab, config = tiny_setup()
    model = MtlModel(config, global_seed=0)
    res = train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=8, batch_size=8, seed=0))
    losses = [r.train_loss for r in res.history]
    assert losses[-1] < losses[0]


def test_train_rejects_label_space_mismatch():
    train_ds, dev_ds, vocab, config = tiny_setup()
    model = MtlModel(config, global_seed=0)
    bad = Dataset(
        examples=[Example("x", "w0000", country=7, province=0)],
        country_labels=[f"c{i}" for i in range(8)],
        province_labels=train_ds.province_labels,
    )
    with pytest.raises(DataError):
        train(model, bad, dev_ds, vocab, TrainConfig(epochs=1))
    empty_dev = Dataset(examples=[], country_labels=dev_ds.country_labels, province_labels=dev_ds.province_labels)
    with pytest.raises(ValueError, match="empty dev dataset"):
        train(model, train_ds, empty_dev, vocab, TrainConfig(epochs=1))


def test_non_finite_gradient_under_finite_loss_stops_before_the_update():
    # At learning rate 1e9 a step comes whose loss is still finite but whose
    # gradient overflows; applying it would leave inf/nan in the parameters.
    train_ds, _, vocab, config = tiny_setup()
    model = MtlModel(config, global_seed=0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        train(model, train_ds, None, vocab, TrainConfig(epochs=3, batch_size=8, learning_rate=1e9))
    assert re.fullmatch(
        r"training diverged: loss \S+ at epoch \d+, step \d+ \(non-finite gradient in '[\w.]+'\)",
        str(info.value),
    ), str(info.value)
    assert all(np.isfinite(p.data).all() for p in model.params.values())


def test_train_owns_its_gradients_and_leaves_none_behind():
    train_ds, dev_ds, vocab, config = tiny_setup()
    cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
    clean = MtlModel(config, global_seed=0)
    train(clean, train_ds, dev_ds, vocab, cfg)
    # a gradient from an earlier backward() must not reach the first step
    model = MtlModel(config, global_seed=0)
    examples = train_ds.examples[:4]
    seqs = [encode(clean_text(ex.text), vocab, config.encoder.l_max) for ex in examples]
    logits_c, logits_p = model.forward(seqs)
    labels_c, labels_p = (np.array([getattr(ex, task) for ex in examples]) for task in TASKS)
    compute_loss(logits_c, logits_p, labels_c, labels_p, config)[0].backward()
    train(model, train_ds, dev_ds, vocab, cfg)
    assert model.values.tobytes() == clean.values.tobytes()
    assert all(p.grad is None for p in model.params.values())
    diverging = MtlModel(config, global_seed=0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="non-finite gradient"):
        train(diverging, train_ds, None, vocab, TrainConfig(epochs=3, batch_size=8, learning_rate=1e9))
    assert all(p.grad is None for p in diverging.params.values())


def test_diverging_run_raises_divergence_error_without_numpy_warnings():
    train_ds, _, vocab, config = tiny_setup()
    model = MtlModel(config, global_seed=0)
    with warnings.catch_warnings(), pytest.raises(DivergenceError):
        warnings.simplefilter("error")
        train(model, train_ds, None, vocab, TrainConfig(epochs=3, batch_size=8, learning_rate=1e9))


def test_partial_last_batch_still_trains():
    train_ds, dev_ds, vocab, config = tiny_setup()
    model = MtlModel(config, global_seed=0)
    # 44 train examples with batch 32 leaves a remainder of 12
    res = train(model, train_ds, None, vocab, TrainConfig(epochs=1, batch_size=32, seed=0))
    assert res.history[0].train_loss > 0


def test_country_only_weights_leave_province_untrained():
    """With loss weights (1,0) the country task improves; province stays near floor."""
    country_f1, province_f1 = [], []
    for seed in range(5):
        train_ds, dev_ds, vocab, config = tiny_setup(seed=seed, loss_weights=(1.0, 0.0))
        model = MtlModel(config, global_seed=seed)
        train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=6, batch_size=8, seed=seed))
        rep = evaluate(model, dev_ds, vocab)
        country_f1.append(rep["country"].macro_f1)
        province_f1.append(rep["province"].macro_f1)
    assert np.mean(country_f1) > 0.8
    assert np.mean(province_f1) < 0.45


def test_evaluate_perfect_toy_model():
    train_ds, dev_ds, vocab, config = tiny_setup()
    model = MtlModel(config, global_seed=0)
    train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=25, batch_size=8, seed=0))
    rep = evaluate(model, train_ds, vocab)
    assert rep["country"].accuracy > 0.95


# ---------------------------------------------------------------------------
# inference blocks
# ---------------------------------------------------------------------------


def _mixed_length_setup(mode="mtl"):
    """A float64 model and texts of every true_length from 1 to l_max, shuffled."""
    _, _, vocab, config = tiny_setup(mode=mode)
    l_max = config.encoder.l_max
    words = sorted(vocab.token_to_id)
    rng = np.random.default_rng(5)
    counts = rng.permutation(list(range(l_max + 2)) * 3)  # 0 words is [CLS] alone
    texts = [" ".join(rng.choice(words, size=n)) for n in counts]
    return MtlModel(config, global_seed=0, dtype=np.float64), vocab, texts


def _true_lengths(model, vocab, texts):
    return [encode(clean_text(t), vocab, model.config.encoder.l_max).true_length for t in texts]


CALLER = threading.main_thread().name


def _record_calls(monkeypatch, model):
    """Wrap model.forward to record each call as (index of its first text,
    its true_lengths, the name of the thread that ran it)."""
    calls = []
    index = {}
    encode_texts = train_mod._encode_texts

    def encoded(*args):
        seqs = encode_texts(*args)
        index.clear()
        index.update((id(seq), i) for i, seq in enumerate(seqs))
        return seqs

    forward = model.forward

    def recorded(seqs, *args, **kwargs):
        calls.append((index[id(seqs[0])], [s.true_length for s in seqs], threading.current_thread().name))
        return forward(seqs, *args, **kwargs)

    monkeypatch.setattr(train_mod, "_encode_texts", encoded)
    monkeypatch.setattr(model, "forward", recorded)
    return calls


def _blocks(calls):
    """The blocks in input order, each as its true_lengths: every forward
    call runs one whole block."""
    return [lengths for _, lengths, _ in sorted(calls)]


def _assert_helper_ran_every_second_block(calls):
    """The helper thread ran exactly the second, fourth, ... blocks, in input
    order, and the caller the rest."""
    assert [name for *_, name in sorted(calls)] == [CALLER if i % 2 == 0 else "mtlid-helper" for i in range(len(calls))]
    helper_starts = [start for start, _, name in calls if name != CALLER]
    assert helper_starts == sorted(helper_starts)


def _usable_cpus(monkeypatch, n):
    """The process may run on n CPUs, as _helper sees it."""
    monkeypatch.setattr(train_mod.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("mode", MODES)
def test_blocked_predictions_equal_one_text_at_a_time(monkeypatch, mode):
    model, vocab, texts = _mixed_length_setup(mode)
    l_max = model.config.encoder.l_max
    assert set(_true_lengths(model, vocab, texts)) == set(range(1, l_max + 1))
    with no_grad():
        one_by_one = [dict(zip(TASKS, model.forward([encode(clean_text(t), vocab, l_max)]))) for t in texts]
    expected = {task: np.concatenate([predict(logits[task]) for logits in one_by_one]) for task, _ in model.config.tasks()}
    for budget in (1, 7, 30, 10**6):
        monkeypatch.setattr(train_mod, "INFERENCE_TOKENS", budget)
        for batch_size in (1, 3, 64):
            got = predict_texts(model, vocab, texts, batch_size)
            assert sorted(got) == sorted(expected)
            for task, ids in expected.items():
                np.testing.assert_array_equal(got[task], ids, err_msg=f"{task} at {budget}/{batch_size}")


@pytest.mark.parametrize("budget, batch_size", [(INFERENCE_TOKENS, 128), (INFERENCE_TOKENS, 8), (40, 64), (12, 4), (1, 64)])
def test_blocks_hold_the_budget_and_the_row_cap_and_close_only_when_full(monkeypatch, budget, batch_size):
    model, vocab, texts = _mixed_length_setup()
    texts = texts * 4  # 144 texts: 128 rows at l_max 10 cross the real budget
    monkeypatch.setattr(train_mod, "INFERENCE_TOKENS", budget)
    _usable_cpus(monkeypatch, 2)  # every second block runs on the helper thread
    calls = _record_calls(monkeypatch, model)
    predict_texts(model, vocab, texts, batch_size)
    blocks = _blocks(calls)
    assert len(blocks) > 1
    assert [n for block in blocks for n in block] == _true_lengths(model, vocab, texts)
    for block, after in zip(blocks, blocks[1:] + [None]):  # so every block runs whole
        assert len(block) <= batch_size
        assert len(block) == 1 or len(block) * max(block) <= budget
        if after is not None:  # the next text would have broken a limit
            grown = block + after[:1]
            assert len(grown) > batch_size or len(grown) * max(grown) > budget
    if any(len(block) > 1 and batch_size * max(block) > budget for block in blocks):  # the budget limits one
        _assert_helper_ran_every_second_block(calls)
    else:  # the row cap limits every block, or each is one text: all on the caller
        assert {name for *_, name in calls} == {CALLER}


def test_a_text_over_the_budget_is_a_block_of_one(monkeypatch):
    model, vocab, _ = _mixed_length_setup()
    monkeypatch.setattr(train_mod, "INFERENCE_TOKENS", 5)
    calls = _record_calls(monkeypatch, model)
    long_text = " ".join(["w"] * 20)
    got = predict_texts(model, vocab, ["a", long_text, "a"])
    assert _blocks(calls) == [[2], [model.config.encoder.l_max], [2]]
    assert all(len(ids) == 3 for ids in got.values())
    calls.clear()
    empty = predict_texts(model, vocab, [])
    assert calls == []
    assert sorted(empty) == ["country", "province"]
    assert all(ids.shape == (0,) and ids.dtype == np.intp for ids in empty.values())
    with pytest.raises(ValueError, match="batch_size"):
        predict_texts(model, vocab, ["a"], batch_size=0)


def _long_text_setup(mode, dtype=np.float64):
    """A model at l_max 64 and 40 texts of 40 to 79 words: 64 rows would
    hold over INFERENCE_TOKENS positions, so every block of two or more
    texts is cut by the budget, into blocks of 16, 16 and 8 texts."""
    _, _, vocab, config = tiny_setup(mode=mode)
    config = dataclasses.replace(config, encoder=dataclasses.replace(config.encoder, l_max=64))
    words = sorted(vocab.token_to_id)
    rng = np.random.default_rng(6)
    texts = [" ".join(rng.choice(words, size=int(rng.integers(40, 80)))) for _ in range(40)]
    return MtlModel(config, global_seed=0, dtype=dtype), vocab, texts


@pytest.mark.parametrize("mode", MODES)
def test_labels_with_the_helper_equal_labels_on_one_cpu(monkeypatch, mode):
    model, vocab, texts = _long_text_setup(mode)
    seqs = train_mod._encode_texts(texts, vocab, model.config.encoder.l_max)
    forward = model.forward
    with no_grad():
        one_by_one = [dict(zip(TASKS, forward([seq]))) for seq in seqs]
    calls = _record_calls(monkeypatch, model)
    _usable_cpus(monkeypatch, 1)
    one_cpu = predict_texts(model, vocab, texts)
    assert {name for *_, name in calls} == {CALLER}
    blocks = sorted((start, len(lengths)) for start, lengths, _ in calls)
    assert len(blocks) == 3
    with no_grad():  # the same blocks, one after another on this thread
        serial = [dict(zip(TASKS, forward(seqs[start : start + rows]))) for start, rows in blocks]
    calls.clear()
    _usable_cpus(monkeypatch, 2)
    two_cpus = predict_texts(model, vocab, texts)
    _assert_helper_ran_every_second_block(calls)
    assert sorted((start, len(lengths)) for start, lengths, _ in calls) == blocks
    assert sorted(two_cpus) == sorted(one_cpu) == sorted(task for task, _ in model.config.tasks())
    for task, ids in one_cpu.items():
        expected = np.concatenate([predict(logits[task]) for logits in serial])
        assert len(set(expected)) > 1  # a block joined out of order would show
        np.testing.assert_array_equal(ids, expected)
        np.testing.assert_array_equal(two_cpus[task], expected)
        np.testing.assert_array_equal(expected, np.concatenate([predict(logits[task]) for logits in one_by_one]))


def test_the_helpers_blocks_record_no_graph(monkeypatch):
    model, vocab, texts = _long_text_setup("mtl")
    _usable_cpus(monkeypatch, 2)
    outputs = []
    forward = model.forward

    def recorded(seqs, *args, **kwargs):
        logits = forward(seqs, *args, **kwargs)
        outputs.append((threading.current_thread() is threading.main_thread(), logits))
        return logits

    monkeypatch.setattr(model, "forward", recorded)
    predict_texts(model, vocab, texts)
    assert {on_caller for on_caller, _ in outputs} == {True, False}
    for _, logits in outputs:
        assert all(t._parents == () and t._vjp is None for t in logits)


class BlockError(Exception):
    pass


def test_an_error_in_a_helper_block_reaches_the_caller_as_itself(monkeypatch):
    model, vocab, texts = _long_text_setup("country")
    _usable_cpus(monkeypatch, 2)
    error = BlockError("helper block")
    forward = model.forward

    def failing(seqs, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return forward(seqs, *args, **kwargs)

    monkeypatch.setattr(model, "forward", failing)
    with pytest.raises(BlockError) as info:
        predict_texts(model, vocab, texts)
    assert info.value is error
    monkeypatch.setattr(model, "forward", forward)
    assert predict_texts(model, vocab, texts)["country"].shape == (len(texts),)  # a later call runs


def test_an_error_in_a_caller_block_reaches_it_as_itself_and_stops_the_helper(monkeypatch):
    model, vocab, texts = _long_text_setup("country")
    texts = texts * 3  # eight blocks: four for the helper
    _usable_cpus(monkeypatch, 2)
    error = BlockError("caller block")
    events = []
    helper_began = threading.Event()
    forward = model.forward

    def failing(seqs, *args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            helper_began.wait(timeout=10)
            events.append("caller raises")
            raise error
        events.append("helper begins")
        helper_began.set()
        time.sleep(0.05)  # the caller raises during this block
        return forward(seqs, *args, **kwargs)

    monkeypatch.setattr(model, "forward", failing)
    before = threading.enumerate()
    with pytest.raises(BlockError) as info:
        predict_texts(model, vocab, texts)
    assert info.value is error
    assert threading.enumerate() == before
    assert "caller raises" in events
    assert events[events.index("caller raises") :].count("helper begins") <= 1


def test_no_thread_outlives_predict_texts(monkeypatch):
    model, vocab, texts = _long_text_setup("mtl")
    _usable_cpus(monkeypatch, 2)
    ran = []
    forward = model.forward

    def recorded(seqs, *args, **kwargs):
        ran.append(threading.current_thread())
        return forward(seqs, *args, **kwargs)

    monkeypatch.setattr(model, "forward", recorded)
    before = threading.enumerate()
    predict_texts(model, vocab, texts)
    assert threading.enumerate() == before
    helpers = {t for t in ran if t is not threading.main_thread()}
    assert len(helpers) == 1 and not any(t.is_alive() for t in helpers)


@pytest.mark.parametrize("source", ["affinity", "cpu_count"])
def test_one_usable_cpu_starts_no_thread(monkeypatch, source):
    model, vocab, texts = _long_text_setup("mtl")
    if source == "affinity":
        _usable_cpus(monkeypatch, 1)
    else:  # a platform without an affinity mask
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    calls = _record_calls(monkeypatch, model)
    counts = []  # threads alive at each forward call
    recorded = model.forward

    def counted(seqs, *args, **kwargs):
        counts.append(threading.active_count())
        return recorded(seqs, *args, **kwargs)

    monkeypatch.setattr(model, "forward", counted)
    before = threading.active_count()
    predict_texts(model, vocab, texts)
    assert set(counts) == {before} and threading.active_count() == before
    assert {name for *_, name in calls} == {CALLER}
    one_cpu = sorted((start, lengths) for start, lengths, _ in calls)
    calls.clear()
    counts.clear()
    _usable_cpus(monkeypatch, 2)  # the same call on two CPUs runs a helper for the call alone
    predict_texts(model, vocab, texts)
    assert before + 1 in counts and threading.active_count() == before
    assert sorted((start, lengths) for start, lengths, _ in calls) == one_cpu  # the same blocks, in turn
    _assert_helper_ran_every_second_block(calls)


@pytest.mark.parametrize("call", ["row-capped", "lone-block"])
def test_row_capped_calls_and_a_lone_block_start_no_thread(monkeypatch, call):
    # A helper's malloc arena would raise peak RSS where it buys little: a
    # call whose blocks the row cap limits, and a call of one block, run on
    # the caller alone, even on two CPUs.
    if call == "row-capped":  # 144 texts of at most 10 tokens, 8 to a block
        model, vocab, texts = _mixed_length_setup()
        texts, batch_size = texts * 4, 8
    else:  # lone-block: 16 texts of up to 64 tokens, one block that the budget limits
        model, vocab, texts = _long_text_setup("mtl")
        texts, batch_size = texts[:16], 64
    _usable_cpus(monkeypatch, 2)
    calls = _record_calls(monkeypatch, model)
    started = []
    start = threading.Thread.start

    def recorded_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    predict_texts(model, vocab, texts, batch_size)
    blocks = _blocks(calls)
    widest = max(map(max, blocks))
    if call == "row-capped":
        assert len(blocks) == 18 and batch_size * widest <= INFERENCE_TOKENS
    else:
        assert len(blocks) == 1 and batch_size * widest > INFERENCE_TOKENS
    assert started == []
    assert {name for *_, name in calls} == {CALLER}


def test_concurrent_callers_each_run_their_own_helper(monkeypatch):
    model, vocab, texts = _long_text_setup("country", dtype=np.float32)
    _usable_cpus(monkeypatch, 1)
    expected = predict_texts(model, vocab, texts)["country"]
    _usable_cpus(monkeypatch, 2)
    helpers = set()
    forward = model.forward

    def recorded(seqs, *args, **kwargs):
        if threading.current_thread().name == "mtlid-helper":
            helpers.add(threading.current_thread())
        return forward(seqs, *args, **kwargs)

    monkeypatch.setattr(model, "forward", recorded)
    before = set(threading.enumerate())
    results, errors = [], []

    def call():
        try:
            for _ in range(3):
                results.append(predict_texts(model, vocab, texts)["country"])
        except Exception as exc:
            errors.append(exc)

    callers = [threading.Thread(target=call) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers) and errors == []
    assert len(results) == 12 and all(np.array_equal(ids, expected) for ids in results)
    assert len(helpers) == 12  # one helper per call
    assert set(threading.enumerate()) == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper(monkeypatch):
    # A child forked after a prediction predicts as the parent did.
    model, vocab, texts = _long_text_setup("country")
    _usable_cpus(monkeypatch, 2)
    expected = predict_texts(model, vocab, texts)["country"]
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(predict_texts(model, vocab, texts)["country"], expected) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's prediction did not finish in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


# ---------------------------------------------------------------------------
# the helper thread
# ---------------------------------------------------------------------------


def _helper_threads():
    return [t for t in threading.enumerate() if t.name == "mtlid-helper"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_helper_job_runs_under_the_callers_no_grad_and_numpy_error_state(monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    leaf = Tensor(np.ones(3, dtype=np.float32))
    big = np.full(3, 3e38, dtype=np.float32)
    out, threads = [], []

    def job(make):
        def run():
            threads.append(threading.current_thread().name)
            out.append(make())

        return run

    with warnings.catch_warnings(), train_mod._helper() as beside:
        warnings.simplefilter("error")
        with no_grad():
            beside(job(lambda: scale(leaf, 2.0)))()
        beside(job(lambda: scale(leaf, 2.0)))()
        with np.errstate(over="ignore"):
            beside(job(lambda: big * np.float32(10)))()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            beside(job(lambda: big * np.float32(10)))()
    assert threads == [CALLER if cpus == 1 else "mtlid-helper"] * 4
    no_graph, graph, overflowed = out
    assert no_graph._parents == () and no_graph._vjp is None
    assert graph._parents == (leaf,)
    assert np.isinf(overflowed).all()
    assert _helper_threads() == []


def test_once_its_block_exits_the_helper_starts_no_job_it_has_not_begun(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    began, release = threading.Event(), threading.Event()
    ran = []
    join = threading.Thread.join

    def releasing_join(thread, *args, **kwargs):
        release.set()  # the block has exited and waits for the helper
        join(thread, *args, **kwargs)

    def first():
        began.set()
        release.wait(timeout=10)
        ran.append("first")

    monkeypatch.setattr(threading.Thread, "join", releasing_join)
    before = threading.enumerate()
    with pytest.raises(BlockError), train_mod._helper() as beside:
        beside(first)
        began.wait(timeout=10)
        beside(lambda: ran.append("second"))
        beside(lambda: ran.append("third"))
        raise BlockError("the block fails")
    assert release.is_set() and ran == ["first"]
    assert threading.enumerate() == before and _helper_threads() == []


# ---------------------------------------------------------------------------
# split training steps
# ---------------------------------------------------------------------------


def _dropout_setup(mode="mtl", dtype=np.float32):
    """tiny_setup's data and a model of dtype with dropout on, so each step draws."""
    train_ds, dev_ds, vocab, config = tiny_setup(mode=mode)
    config = dataclasses.replace(config, encoder=dataclasses.replace(config.encoder, dropout_rate=0.1))
    return train_ds, dev_ds, vocab, MtlModel(config, global_seed=0, dtype=dtype)


def _one_batch(train_ds, vocab, model, rows):
    examples = train_ds.examples[:rows]
    batch = [encode(clean_text(ex.text), vocab, model.config.encoder.l_max) for ex in examples]
    labels_c, labels_p = (np.array([getattr(ex, task) for ex in examples]) for task in TASKS)
    return batch, labels_c, labels_p


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_split_step_has_the_whole_steps_gradient_and_draws(monkeypatch, mode, cpus):
    # 7 rows: halves of 4 and 3, so each loss share is unequal
    train_ds, _, vocab, model = _dropout_setup(mode, dtype=np.float64)
    _usable_cpus(monkeypatch, cpus)
    batch, labels_c, labels_p = _one_batch(train_ds, vocab, model, 7)
    encoder = dataclasses.replace(model.config.encoder, dropout_rate=0.0)
    no_dropout = MtlModel(dataclasses.replace(model.config, encoder=encoder), global_seed=0, dtype=np.float64)
    # rng.permutation leaves the generator's buffered 32-bit word set, and
    # PCG64.advance clears it; a split step leaves the step's own word,
    # whether its halves draw or not
    for net, buffered in ((model, False), (model, True), (no_dropout, True)):

        def generator():
            rng = np.random.default_rng(3)
            if buffered:
                rng.permutation(5)
                assert rng.bit_generator.state["uinteger"] != 0
            return rng

        whole_rng = generator()
        tower = train_mod._Tower(net, np.zeros_like(net.values))
        whole_loss = tower.run(batch, labels_c, labels_p, whole_rng, 1.0)
        whole = tower.grads.copy()
        twin = train_mod._Tower(MtlModel(net.config, values=net.values), np.zeros_like(net.values))
        split_rng = generator()
        with train_mod._helper() as beside:
            split_loss = train_mod._split_step(tower, twin, batch, labels_c, labels_p, split_rng, beside)
        assert split_rng.bit_generator.state == whole_rng.bit_generator.state
        assert abs(split_loss - whole_loss) <= 1e-12
        assert np.abs(whole).max() > 0.1
        np.testing.assert_allclose(tower.grads, whole, rtol=0, atol=1e-12)


def test_split_training_in_float64_tracks_whole_training(monkeypatch):
    # the twin's gradient reaches Adam: one half's gradient alone moves
    # parameters by about the learning rate
    _usable_cpus(monkeypatch, 2)
    runs = []
    for threshold in (1, 10**9):
        monkeypatch.setattr(train_mod, "TRAIN_SPLIT_TOKENS", threshold)
        train_ds, dev_ds, vocab, model = _dropout_setup(dtype=np.float64)
        res = train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=3, batch_size=8, seed=0))
        runs.append((model.values, [r.train_loss for r in res.history], res.best_epoch))
    (split, split_losses, split_best), (whole, whole_losses, whole_best) = runs
    np.testing.assert_allclose(split, whole, rtol=0, atol=1e-12)
    np.testing.assert_allclose(split_losses, whole_losses, rtol=0, atol=1e-12)
    assert split_best == whole_best


def _record_training_threads(monkeypatch):
    """Wrap MtlModel.forward to record (model, thread) of each train-mode call."""
    calls = []
    forward = MtlModel.forward

    def recorded(self, seqs, train_mode=False, rng=None):
        if train_mode:
            calls.append((self, threading.current_thread()))
        return forward(self, seqs, train_mode, rng)

    monkeypatch.setattr(MtlModel, "forward", recorded)
    return calls


def test_split_steps_train_the_same_values_on_one_cpu_and_on_two(monkeypatch):
    # every step of two or more rows splits; 44 rows at batch 8 end in a batch of 4
    monkeypatch.setattr(train_mod, "TRAIN_SPLIT_TOKENS", 1)
    calls = _record_training_threads(monkeypatch)
    values, histories = [], []
    interval = sys.getswitchinterval()
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        train_ds, dev_ds, vocab, model = _dropout_setup()
        sys.setswitchinterval(1e-6)  # the two halves' threads swap as often as they can
        try:
            res = train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=2, batch_size=8, seed=0))
        finally:
            sys.setswitchinterval(interval)
        values.append(model.values.tobytes())
        histories.append([format_history_line(r) for r in res.history])
        models = {m for m, _ in calls}
        assert len(models) == 2 and model in models  # model and one twin
        assert {t.name for m, t in calls if m is not model} == ({CALLER} if cpus == 1 else {"mtlid-helper"})
        assert {t.name for m, t in calls if m is model} == {CALLER}
        calls.clear()
    assert values[0] == values[1]
    assert histories[0] == histories[1]
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(train_mod, "TRAIN_SPLIT_TOKENS", 10**9)  # no step splits
    train_ds, dev_ds, vocab, whole = _dropout_setup()
    train(whole, train_ds, dev_ds, vocab, TrainConfig(epochs=2, batch_size=8, seed=0))
    assert {t.name for _, t in calls} == {CALLER} and {m for m, _ in calls} == {whole}
    assert whole.values.tobytes() != values[0]  # the split steps sum in another order


def test_steps_below_the_split_threshold_run_whole(monkeypatch):
    train_ds, _, vocab, model = _dropout_setup()
    _usable_cpus(monkeypatch, 2)
    calls = _record_training_threads(monkeypatch)
    widest = max(encode(clean_text(ex.text), vocab, 10).true_length for ex in train_ds.examples)
    monkeypatch.setattr(train_mod, "TRAIN_SPLIT_TOKENS", 8 * widest + 1)
    train(model, train_ds, None, vocab, TrainConfig(epochs=1, batch_size=8, seed=0))
    assert {m for m, _ in calls} == {model} and {t.name for _, t in calls} == {CALLER}


class HalfError(Exception):
    pass


@pytest.mark.parametrize("failing", ["caller", "helper", "helper-merge", "helper-adam"])
def test_an_error_in_either_half_reaches_the_caller_as_itself_after_the_join(monkeypatch, failing):
    monkeypatch.setattr(train_mod, "TRAIN_SPLIT_TOKENS", 1)
    _usable_cpus(monkeypatch, 2)
    train_ds, _, vocab, model = _dropout_setup()
    error = HalfError(failing)
    events = []
    models = set()
    helper_began = threading.Event()
    forward = MtlModel.forward

    def failing_forward(self, seqs, train_mode=False, rng=None):
        models.add(self)
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "caller"):
            if on_caller:  # a half the helper has begun runs to its end
                helper_began.wait(timeout=10)
            events.append("raise")
            raise error
        helper_began.set()
        time.sleep(0.05)  # the other half raises meanwhile
        out = forward(self, seqs, train_mode, rng)
        events.append("other half's forward done")
        return out

    # the helper's jobs in a split step: its half, its merge, its Adam range
    helper, failing_job = train_mod._helper, {"helper-merge": 1, "helper-adam": 2}.get(failing)

    @contextlib.contextmanager
    def failing_helper():
        with helper() as beside:
            jobs = itertools.count()

            def failing_beside(job):
                def run():
                    assert threading.current_thread().name == "mtlid-helper"
                    time.sleep(0.05)  # the caller's own range runs meanwhile
                    events.append("raise")
                    raise error

                return beside(run if next(jobs) == failing_job else job)

            yield failing_beside

    if failing_job is None:
        monkeypatch.setattr(MtlModel, "forward", failing_forward)
    else:
        monkeypatch.setattr(train_mod, "_helper", failing_helper)
    before = threading.enumerate()
    with pytest.raises(HalfError) as info:
        train(model, train_ds, None, vocab, TrainConfig(epochs=1, batch_size=8, seed=0))
    assert info.value is error
    if failing_job is None:
        assert events == ["raise", "other half's forward done"]  # the helper was joined
        assert len(models) == 2
    else:
        assert events == ["raise"]  # in the first split step
    assert threading.enumerate() == before and _helper_threads() == []
    for m in (model, *models):
        assert all(p.grad is None for p in m.params.values())


def test_no_training_thread_or_gradient_outlives_train(monkeypatch):
    monkeypatch.setattr(train_mod, "TRAIN_SPLIT_TOKENS", 1)
    _usable_cpus(monkeypatch, 2)
    calls = _record_training_threads(monkeypatch)
    adam_threads = []
    update = Adam._update

    def recorded_update(self, part):
        adam_threads.append(threading.current_thread())
        update(self, part)

    monkeypatch.setattr(Adam, "_update", recorded_update)
    helpers_at_scoring = []
    predict_sequences = train_mod._predict_sequences

    def recorded_predict(*args):
        helpers_at_scoring.append(_helper_threads())
        return predict_sequences(*args)

    monkeypatch.setattr(train_mod, "_predict_sequences", recorded_predict)
    handed = []
    helper = train_mod._helper

    @contextlib.contextmanager
    def counting_helper():
        with helper() as beside:
            yield lambda job: handed.append(job) or beside(job)

    monkeypatch.setattr(train_mod, "_helper", counting_helper)
    train_ds, dev_ds, vocab, model = _dropout_setup()
    before = threading.enumerate()
    train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=2, batch_size=8, seed=0))
    assert threading.enumerate() == before and _helper_threads() == []
    helpers = {t for _, t in calls if t.name == "mtlid-helper"}
    assert helpers and not any(t.is_alive() for t in helpers)
    # 44 rows at batch 8: 6 split steps an epoch, for each of which the
    # epoch's one helper ran the second half and then the second range of
    # Adam's update; it is joined before the epoch's dev scoring
    assert len(helpers) == 2 and {t for t in adam_threads if t.name == "mtlid-helper"} == helpers
    assert collections.Counter(t.name for t in adam_threads) == {CALLER: 12, "mtlid-helper": 12}
    assert len(handed) == 3 * 12  # each step's half, merge range and Adam range
    assert helpers_at_scoring == [[], []]
    models = {m for m, _ in calls}
    assert len(models) == 2
    assert all(p.grad is None for m in models for p in m.params.values())


def test_a_diverging_split_run_raises_divergence_error_without_numpy_warnings(monkeypatch):
    # the helper runs each job under the caller's numpy error state, which train sets
    monkeypatch.setattr(train_mod, "TRAIN_SPLIT_TOKENS", 1)
    _usable_cpus(monkeypatch, 2)
    calls = _record_training_threads(monkeypatch)
    train_ds, _, vocab, model = _dropout_setup()
    with warnings.catch_warnings(), pytest.raises(DivergenceError) as info:
        warnings.simplefilter("error")
        train(model, train_ds, None, vocab, TrainConfig(epochs=3, batch_size=8, learning_rate=1e9))
    # the loss is still finite at the step whose merged gradient is not
    assert re.fullmatch(
        r"training diverged: loss \S+ at epoch \d+, step \d+ \(non-finite gradient in '[\w.]+'\)",
        str(info.value),
    ), str(info.value)
    assert "mtlid-helper" in {t.name for _, t in calls}
    assert _helper_threads() == []
    assert all(np.isfinite(p.data).all() for p in model.params.values())


def test_every_epoch_carries_dev_metrics():
    train_ds, dev_ds, vocab, config = tiny_setup()
    model = MtlModel(config, global_seed=0)
    res = train(model, train_ds, dev_ds, vocab, TrainConfig(epochs=4, batch_size=8, seed=0))
    assert [sorted(r.dev) for r in res.history] == [["country", "province"]] * 4


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def test_history_line_format():
    rep = MetricsReport(accuracy=0.5, macro_f1=0.25, per_class=[], confusion=np.zeros((2, 2), dtype=np.int64))
    rec = EpochRecord(epoch=3, train_loss=1.5, dev={"country": rep})
    line = format_history_line(rec)
    fields = line.split("\t")
    assert fields[0] == "3"
    assert float(fields[1]) == 1.5
    assert float(fields[2]) == 0.5 and float(fields[3]) == 0.25
    assert fields[4] == "nan" and fields[5] == "nan"


def test_write_history_round_trip(tmp_path):
    rep = MetricsReport(accuracy=1.0, macro_f1=1.0, per_class=[], confusion=np.zeros((2, 2), dtype=np.int64))
    history = [EpochRecord(1, 0.7, {"country": rep}), EpochRecord(2, 0.3, {"country": rep})]
    path = tmp_path / "history.tsv"
    write_history(path, history)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert all(len(line.split("\t")) == 6 for line in lines)


def test_write_confusion_format(tmp_path):
    conf = np.array([[5, 1], [2, 7]])
    path = tmp_path / "confusion.tsv"
    write_confusion(path, ["a", "b"], conf)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "a\tb"
    assert lines[1] == "5\t1"
    assert lines[2] == "2\t7"
