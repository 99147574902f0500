"""Training loop, evaluation, and metrics: accuracy, macro-F1, confusion.

Macro-F1 averages over the full label set, so zero-support classes pull
the mean down (0/0 counts as 0). The best epoch is picked by dev macro-F1
on the country task when that head exists, else on the province task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset
from .encoder import require_count
from .model import MtlModel, compute_loss, predict
from .preprocess import TokenSequence, Vocabulary, clean_text, encode
from .tensor import Adam, NonFiniteGradientError, no_grad

PAPER_PROTOCOL = {"learning_rate": 1e-5, "batch_size": 16, "epochs": 5}


class LabelSpaceError(ValueError):
    """Dataset labels do not fit the model's class counts."""


class DivergenceError(RuntimeError):
    """A training step's loss or a parameter's gradient is not finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("batch_size", "epochs"):
            require_count(name, getattr(self, name))


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
    cfg = model.config
    if cfg.has_country and len(dataset.country_labels) > cfg.n_countries:
        raise LabelSpaceError(
            f"{which}: {len(dataset.country_labels)} country labels exceed model's {cfg.n_countries}"
        )
    if cfg.has_province and len(dataset.province_labels) > cfg.n_provinces:
        raise LabelSpaceError(
            f"{which}: {len(dataset.province_labels)} province labels exceed model's {cfg.n_provinces}"
        )
    for ex in dataset.examples:
        if cfg.has_country and not 0 <= ex.country < cfg.n_countries:
            raise LabelSpaceError(f"{which}: country id {ex.country} out of range")
        if cfg.has_province and not 0 <= ex.province < cfg.n_provinces:
            raise LabelSpaceError(f"{which}: province id {ex.province} out of range")


def predict_texts(
    model: MtlModel, vocab: Vocabulary, texts: Sequence[str], batch_size: int = 64
) -> dict[str, np.ndarray]:
    """Dropout-off argmax class ids per task head, one per raw text, in order.

    Runs under no_grad: no graph is built.
    """
    seqs = _encode_texts(texts, vocab, model.config.encoder.l_max)
    preds: dict[str, list[np.ndarray]] = {task: [] for task, _ in model.config.tasks()}
    with no_grad():
        for start in range(0, len(seqs), batch_size):
            logits_c, logits_p = model.forward(seqs[start : start + batch_size], train_mode=False)
            for task, logits in (("country", logits_c), ("province", logits_p)):
                if logits is not None:
                    preds[task].append(predict(logits))
    return {
        task: np.concatenate(batches) if batches else np.zeros(0, dtype=np.intp)
        for task, batches in preds.items()
    }


def evaluate(
    model: MtlModel, dataset: Dataset, vocab: Vocabulary, batch_size: int = 64
) -> dict[str, MetricsReport]:
    """Dropout-off predictions scored per task over the whole dataset."""
    if not dataset.examples:
        raise ValueError("evaluate: empty dataset")
    _check_labels(dataset, model, "evaluate")
    preds = predict_texts(model, vocab, [ex.text for ex in dataset.examples], batch_size)
    gold = {
        "country": np.array([ex.country for ex in dataset.examples]),
        "province": np.array([ex.province for ex in dataset.examples]),
    }
    sizes = {"country": model.config.n_countries, "province": model.config.n_provinces}
    return {
        task: metrics_from_predictions(gold[task], pred, sizes[task])
        for task, pred in preds.items()
    }


def train(
    model: MtlModel,
    dataset_train: Dataset,
    dataset_dev: Dataset | None,
    vocab: Vocabulary,
    cfg: TrainConfig,
) -> TrainResult:
    """Seeded epoch loop: shuffle, batch, backward, Adam step, grad reset.

    The last partial batch still trains. Dev, when given, is scored after
    every epoch, and after the final epoch the model's parameters are
    restored to the best dev epoch.
    Raises DivergenceError, before any update from that step, at the first
    step whose loss or whose gradient is not finite.
    """
    if not dataset_train.examples:
        raise ValueError("train: empty training dataset")
    _check_labels(dataset_train, model, "train")
    if dataset_dev is not None:
        _check_labels(dataset_dev, model, "dev")
    seqs = _encode_texts([ex.text for ex in dataset_train.examples], vocab, model.config.encoder.l_max)
    labels_c = np.array([ex.country for ex in dataset_train.examples])
    labels_p = np.array([ex.province for ex in dataset_train.examples])
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(model.params, learning_rate=cfg.learning_rate)
    key_task = "country" if model.config.has_country else "province"
    history: list[EpochRecord] = []
    best_f1 = -1.0
    best_epoch = -1
    best_snapshot: dict[str, np.ndarray] | None = None
    n = len(seqs)
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
                if not math.isfinite(report.total):
                    raise DivergenceError(
                        f"training diverged: loss {report.total} at epoch {epoch}, step {step}"
                    )
                total.backward()
                try:
                    adam.step()
                except NonFiniteGradientError as exc:
                    raise DivergenceError(
                        f"training diverged: loss {report.total} at epoch {epoch}, step {step} ({exc})"
                    ) from exc
                adam.zero_grad()
                loss_sum += report.total * len(idx)
        record = EpochRecord(epoch=epoch, train_loss=loss_sum / n)
        if dataset_dev is not None:
            record.dev = evaluate(model, dataset_dev, vocab)
            f1 = record.dev[key_task].macro_f1
            if f1 > best_f1:
                best_f1 = f1
                best_epoch = epoch
                best_snapshot = {name: p.data.copy() for name, p in model.params.items()}
        history.append(record)
    if best_snapshot is not None:
        for name, arr in best_snapshot.items():
            model.params[name].data = arr
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
    Path(path).write_text(text, encoding="utf-8")


def write_confusion(path: str | Path, labels: Sequence[str], confusion: np.ndarray) -> None:
    """Header of class labels, then one tab-separated integer row per gold class."""
    lines = ["\t".join(labels)]
    lines.extend("\t".join(str(int(x)) for x in row) for row in confusion)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
