"""Training loop, evaluation, and metrics: accuracy, macro-F1, confusion.

Macro-F1 averages over the full label set, so zero-support classes pull
the mean down (0/0 counts as 0). The best epoch is picked by dev macro-F1
on the country task when that head exists, else on the province task.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import DataError, Dataset, write_file
from .model import MtlModel, compute_loss, param_specs, predict
from .preprocess import TokenSequence, Vocabulary, clean_text, encode
from .tensor import (
    Adam,
    NonFiniteGradientError,
    no_grad,
    parameter_views,
    require_count,
    require_real,
    require_seed,
)


# Padded positions (rows x longest true_length) one inference block may
# hold. At d_ff 256 a block this size keeps each float32 feed-forward array
# at 1 MB, within a core's 2 MB L2 cache, where 64 texts of 64 tokens make
# 4 MB arrays. Of 256 to 2,048, 1,024 was as fast as any on long texts and
# is the smallest that leaves a 64-row batch of 13-token texts whole; 512
# cut those into 39-row blocks, which ran slower. A block this budget cuts
# short of batch_size rows runs as two row halves. Where the process may
# use two CPUs, a helper thread that lives for one predict_texts call runs
# the second halves while the caller runs the rest (see predict_texts), so
# a block or first half and a second half can be in flight together. The
# helper allocates its arrays from its own malloc arena, beside its stack
# and BLAS buffer: on 64-token texts at the default encoder, peak RSS over
# a training run with dev scoring is about 2 MB above one CPU's.
INFERENCE_TOKENS = 1024
INFERENCE_BATCH = 64  # texts per block unless the caller says otherwise


def _usable_cpus() -> int:
    """The CPUs this process may run on, as its affinity mask says where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class DivergenceError(RuntimeError):
    """A training step's loss or a parameter's gradient is not finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        require_real("learning_rate", self.learning_rate)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and positive")
        for name in ("batch_size", "epochs"):
            require_count(name, getattr(self, name))
        require_seed(self.seed)


@dataclass
class MetricsReport:
    accuracy: float
    macro_f1: float
    per_class: list[tuple[float, float, float, int]]  # (precision, recall, f1, support)
    confusion: np.ndarray  # rows = gold, columns = predicted


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev: dict[str, MetricsReport] = field(default_factory=dict)


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_epoch: int


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def confusion_matrix(gold: np.ndarray, pred: np.ndarray, n_classes: int) -> np.ndarray:
    require_count("n_classes", n_classes)
    gold = np.asarray(gold)
    pred = np.asarray(pred)
    if gold.shape != pred.shape:
        raise ValueError(f"gold and pred lengths differ: {gold.shape} vs {pred.shape}")
    for name, arr in (("gold", gold), ("pred", pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{name} label out of range for {n_classes} classes")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (gold, pred), 1)
    return out


def metrics_from_predictions(gold: np.ndarray, pred: np.ndarray, n_classes: int) -> MetricsReport:
    """Tally-based metrics; every ratio with a zero denominator is 0."""
    conf = confusion_matrix(gold, pred, n_classes)
    total = int(conf.sum())
    per_class: list[tuple[float, float, float, int]] = []
    for i in range(n_classes):
        tp = int(conf[i, i])
        fp = int(conf[:, i].sum()) - tp
        fn = int(conf[i, :].sum()) - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append((precision, recall, f1, tp + fn))
    accuracy = int(np.trace(conf)) / total if total else 0.0
    macro = sum(f1 for _, _, f1, _ in per_class) / n_classes
    return MetricsReport(accuracy=accuracy, macro_f1=macro, per_class=per_class, confusion=conf)


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


def _encode_texts(texts: Sequence[str], vocab: Vocabulary, l_max: int) -> list[TokenSequence]:
    return [encode(clean_text(text), vocab, l_max) for text in texts]


def _check_labels(dataset: Dataset, model: MtlModel, which: str) -> None:
    """Each head the model has must have one class per label of the dataset."""
    for task, classes in model.config.tasks():
        n_labels = len(getattr(dataset, f"{task}_labels"))
        if n_labels != classes:
            raise DataError(f"{which}: {n_labels} {task} labels do not match the model's {classes} classes")


def _labels(model: MtlModel, seqs: Sequence[TokenSequence]) -> list[np.ndarray]:
    """Argmax class ids of one block per present head, in forward order.

    Enters no_grad() itself: the helper thread does not see the caller's.
    """
    with no_grad():
        return [predict(logits) for logits in model.forward(seqs) if logits is not None]


def _predict_sequences(
    model: MtlModel, seqs: Sequence[TokenSequence], batch_size: int
) -> dict[str, np.ndarray]:
    """predict_texts on encoded texts."""
    require_count("batch_size", batch_size)
    blocks: list[tuple[int, int, int]] = []  # (start, mid, stop); mid == stop where the block runs whole
    start = 0
    while start < len(seqs):
        stop, width = start + 1, seqs[start].true_length
        while stop < len(seqs) and stop - start < batch_size:
            width = max(width, seqs[stop].true_length)
            if (stop - start + 1) * width > INFERENCE_TOKENS:
                break
            stop += 1
        split = stop - start > 1 and batch_size * width > INFERENCE_TOKENS
        blocks.append((start, (start + stop) // 2 if split else stop, stop))
        start = stop
    seconds = [seqs[mid:stop] for _, mid, stop in blocks if mid < stop]
    done: list[list[np.ndarray]] = []  # the helper's ids per head of each second half, in order
    errors: list[BaseException] = []  # once this holds one, the helper starts no further half

    def run_seconds() -> None:
        try:
            for half in seconds:
                if errors:
                    return
                done.append(_labels(model, half))
        except BaseException as exc:  # the caller re-raises it
            errors.append(exc)

    helper = None
    if seconds and _usable_cpus() > 1:
        # daemon: an interrupted join does not hold up the process's exit
        helper = threading.Thread(target=run_seconds, name="mtlid-predict", daemon=True)
        helper.start()
    parts: list[list[np.ndarray] | None] = []  # ids per head of each block or half; None: the helper's
    try:
        for start, mid, stop in blocks:
            parts.append(_labels(model, seqs[start:mid]))
            if mid < stop:
                parts.append(_labels(model, seqs[mid:stop]) if helper is None else None)
    except BaseException as exc:
        errors.append(exc)  # the caller's own: it stops the helper
        raise
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    halves = iter(done)
    parts = [next(halves) if part is None else part for part in parts]
    return {
        task: np.concatenate([part[i] for part in parts]) if parts else np.zeros(0, dtype=np.intp)
        for i, (task, _) in enumerate(model.config.tasks())
    }


def predict_texts(
    model: MtlModel, vocab: Vocabulary, texts: Sequence[str], batch_size: int = INFERENCE_BATCH
) -> dict[str, np.ndarray]:
    """Dropout-off argmax class ids per task head, one per raw text, in order.

    The texts run in consecutive blocks of at most batch_size texts whose
    rows times longest true_length stay within INFERENCE_TOKENS; a text over
    that budget on its own is a block of one. A block of two or more texts
    that the budget, not batch_size, limits (batch_size times its longest
    true_length is over INFERENCE_TOKENS) runs as two row halves. The
    blocks are cut first. If one splits and the process's CPU affinity,
    read at each call, allows two or more CPUs, one helper thread starts
    for this call and runs the second halves in input order while the
    caller runs whole blocks and first halves; the call joins it before
    it returns, and each concurrent caller runs its own. On one CPU the
    caller runs both halves in turn. The rows of every block and half are
    the same either way, so the labels do not depend on the CPU count.
    They equal those of one batch over all texts except at near-ties,
    since a row's BLAS result depends on the rows it runs with: over 352
    texts of 17 to 80 words at l_max 64, a half-block's float32 logits
    differed from the whole block's by at most 2.4e-7. Runs under
    no_grad: no graph is built.
    """
    return _predict_sequences(model, _encode_texts(texts, vocab, model.config.encoder.l_max), batch_size)


def _scores(model: MtlModel, dataset: Dataset, preds: dict[str, np.ndarray]) -> dict[str, MetricsReport]:
    reports = {}
    for task, classes in model.config.tasks():
        gold = np.array([getattr(ex, task) for ex in dataset.examples])
        reports[task] = metrics_from_predictions(gold, preds[task], classes)
    return reports


def evaluate(
    model: MtlModel, dataset: Dataset, vocab: Vocabulary, batch_size: int = INFERENCE_BATCH
) -> dict[str, MetricsReport]:
    """Dropout-off predictions scored per task over the whole dataset."""
    if not dataset.examples:
        raise ValueError("evaluate: empty dataset")
    _check_labels(dataset, model, "evaluate")
    return _scores(model, dataset, predict_texts(model, vocab, [ex.text for ex in dataset.examples], batch_size))


def train(
    model: MtlModel,
    dataset_train: Dataset,
    dataset_dev: Dataset | None,
    vocab: Vocabulary,
    cfg: TrainConfig,
) -> TrainResult:
    """Seeded epoch loop: shuffle, batch, backward, Adam step.

    The last partial batch still trains. Dev, when given, is encoded once
    and scored after every epoch as evaluate scores it, and after the
    final epoch the model's parameters are restored to the best dev epoch.
    Raises DivergenceError, before any update from that step, at the first
    step whose loss or whose gradient is not finite. Each parameter's grad
    views one gradient array for the length of the call, and is None after.
    """
    if not dataset_train.examples:
        raise ValueError("train: empty training dataset")
    _check_labels(dataset_train, model, "train")
    l_max = model.config.encoder.l_max
    if dataset_dev is not None:
        if not dataset_dev.examples:
            raise ValueError("train: empty dev dataset")
        _check_labels(dataset_dev, model, "dev")
        dev_seqs = _encode_texts([ex.text for ex in dataset_dev.examples], vocab, l_max)
    seqs = _encode_texts([ex.text for ex in dataset_train.examples], vocab, l_max)
    labels_c = np.array([ex.country for ex in dataset_train.examples])
    labels_p = np.array([ex.province for ex in dataset_train.examples])
    rng = np.random.default_rng(cfg.seed)
    grads = np.zeros_like(model.values)
    adam = Adam(model.values, grads, learning_rate=cfg.learning_rate)
    key_task = model.config.tasks()[0][0]
    history: list[EpochRecord] = []
    best_f1 = -1.0
    best_epoch = -1
    best_snapshot: np.ndarray | None = None
    n = len(seqs)
    for name, view in parameter_views(grads, param_specs(model.config)).items():
        model.params[name].grad = view.data  # backward() accumulates into it
    try:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            loss_sum = 0.0
            # A diverging step overflows inside the forward pass; the loss and
            # gradient checks below report it, so numpy's warnings are noise.
            with np.errstate(over="ignore", invalid="ignore"):
                for step, start in enumerate(range(0, n, cfg.batch_size), start=1):
                    idx = order[start : start + cfg.batch_size]
                    batch = [seqs[i] for i in idx]
                    logits_c, logits_p = model.forward(batch, train_mode=True, rng=rng)
                    total, report = compute_loss(logits_c, logits_p, labels_c[idx], labels_p[idx], model.config)
                    diverged = f"training diverged: loss {report.total} at epoch {epoch}, step {step}"
                    if not math.isfinite(report.total):
                        raise DivergenceError(diverged)
                    grads.fill(0)
                    total.backward()
                    try:
                        adam.step()
                    except NonFiniteGradientError as exc:
                        name = next(name for name, p in model.params.items() if not np.isfinite(p.grad).all())
                        raise DivergenceError(f"{diverged} (non-finite gradient in {name!r})") from exc
                    loss_sum += report.total * len(idx)
            record = EpochRecord(epoch=epoch, train_loss=loss_sum / n)
            if dataset_dev is not None:
                record.dev = _scores(model, dataset_dev, _predict_sequences(model, dev_seqs, INFERENCE_BATCH))
                f1 = record.dev[key_task].macro_f1
                if f1 > best_f1:
                    best_f1 = f1
                    best_epoch = epoch
                    best_snapshot = model.values.copy()
            history.append(record)
    finally:
        for p in model.params.values():
            p.grad = None
    if best_snapshot is not None:
        model.values[...] = best_snapshot
    else:
        best_epoch = cfg.epochs
    return TrainResult(history=history, best_epoch=best_epoch)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def format_history_line(record: EpochRecord) -> str:
    def metric(task: str, attr: str) -> float:
        report = record.dev.get(task)
        return getattr(report, attr) if report is not None else float("nan")

    fields = [
        str(record.epoch),
        repr(record.train_loss),
        repr(metric("country", "accuracy")),
        repr(metric("country", "macro_f1")),
        repr(metric("province", "accuracy")),
        repr(metric("province", "macro_f1")),
    ]
    return "\t".join(fields)


def write_history(path: str | Path, history: Sequence[EpochRecord]) -> None:
    """One tab-separated line per epoch: epoch, train loss, dev acc/F1 per task."""
    text = "\n".join(format_history_line(rec) for rec in history) + "\n"
    write_file(path, text.encode("utf-8"))


def write_confusion(path: str | Path, labels: Sequence[str], confusion: np.ndarray) -> None:
    """Header of class labels, then one tab-separated integer row per gold class."""
    lines = ["\t".join(labels)]
    lines.extend("\t".join(str(int(x)) for x in row) for row in confusion)
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))
