"""Metrics oracles, training-loop determinism, and report file formats."""

import re
import warnings

import numpy as np
import pytest

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
    save_checkpoint,
)
from mtlid.preprocess import build_vocab, clean_text, encode
from mtlid.train import (
    DivergenceError,
    EpochRecord,
    MetricsReport,
    TrainConfig,
    confusion_matrix,
    evaluate,
    format_history_line,
    metrics_from_predictions,
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
