"""Training loop, evaluation, and metrics: accuracy, macro-F1, confusion.

Macro-F1 averages over the full label set, so zero-support classes pull
the mean down (0/0 counts as 0). The best epoch is picked by dev macro-F1
on the country task when that head exists, else on the province task.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .data import DataError, Dataset, write_file
from .model import MtlModel, compute_loss, param_specs, predict
from .preprocess import TokenSequence, Vocabulary, clean_text, encode
from .tensor import (
    Adam,
    Job,
    NonFiniteGradientError,
    halves,
    in_turn,
    no_grad,
    parameter_views,
    require_count,
    require_real,
    require_seed,
    scale,
)


# Padded positions (rows x longest true_length) one inference block may
# hold. At d_ff 256 a block this size keeps each float32 feed-forward array
# at 1 MB, within a core's 2 MB L2 cache, where 64 texts of 64 tokens make
# 4 MB arrays. Of 256 to 2,048, 1,024 was as fast as any on long texts and
# is the smallest that leaves a 64-row batch of 13-token texts whole; 512
# cut those into 39-row blocks, which ran slower. Blocks always run whole.
# When this budget cuts some block short of batch_size rows, a helper
# thread that lives for one predict_texts call runs every second block
# while the caller runs the rest, where the process may use two CPUs and
# the call has a second block (see predict_texts). A whole block keeps
# each numpy call long enough that the two threads seldom wait on each
# other for the interpreter lock; blocks of about 512 positions ran only
# 1.1-1.3x as fast on two threads as in turn. Calls whose blocks
# batch_size limits, as with short texts, stay on the caller: with one span
# stack, bench/tracer.py would add two threads' spans up past wall time.
INFERENCE_TOKENS = 1024
INFERENCE_BATCH = 64  # texts per block unless the caller says otherwise

# Padded positions (rows x longest true_length) from which a training step
# of two or more rows runs as two row halves on two threads (see train).
# Swept in-process: one-epoch train over 256 texts at the default encoder
# in country mode, one BLAS thread, a 2-core host, whole against split,
# min-of-5 to min-of-11 rounds, 2 to 5 sweeps a width. Split over whole
# ran 0.51x at 16 x 8 (128 positions), 0.64x at 16 x 13 (208), 0.72x at
# 256, 0.80-1.01x at 320, 0.80-0.98x at 384, 1.02-1.10x at 448,
# 0.97-1.22x at 512 (1.18-1.22x in four of five sweeps, also at 32 x 16
# and 8 x 64), 1.19-1.28x at 640, 1.26-1.30x at 768 and 1.25-1.36x at
# 1,024 (16 x 64 and 32 x 32). Below 512 the halves' numpy calls are too
# short for two threads to gain on the interpreter lock and the thread's
# start.
TRAIN_SPLIT_TOKENS = 512


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


def _predict_sequences(
    model: MtlModel, seqs: Sequence[TokenSequence], batch_size: int
) -> dict[str, np.ndarray]:
    """predict_texts on encoded texts."""
    require_count("batch_size", batch_size)
    blocks: list[Sequence[TokenSequence]] = []
    budgeted = False  # some block of two or more texts is cut by the budget, not by batch_size
    start = 0
    while start < len(seqs):
        stop, width = start + 1, seqs[start].true_length
        while stop < len(seqs) and stop - start < batch_size:
            width = max(width, seqs[stop].true_length)
            if (stop - start + 1) * width > INFERENCE_TOKENS:
                break
            stop += 1
        budgeted = budgeted or (stop - start > 1 and batch_size * width > INFERENCE_TOKENS)
        blocks.append(seqs[start:stop])
        start = stop
    parts: list[list[np.ndarray] | None] = [None] * len(blocks)  # ids per head of each block

    def run(i: int) -> None:
        parts[i] = [predict(logits) for logits in model.forward(blocks[i]) if logits is not None]

    helper = _helper() if budgeted else contextlib.nullcontext(in_turn)
    with no_grad(), helper as beside:
        waits = [beside(functools.partial(run, i)) for i in range(1, len(blocks), 2)]
        for i in range(0, len(blocks), 2):
            run(i)
        for wait in waits:
            wait()
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
    that budget on its own is a block of one. Every block runs whole. If
    some block of two or more texts is limited by the budget, not by
    batch_size (batch_size times its longest true_length is over
    INFERENCE_TOKENS), the call runs under one _helper of its own: the
    helper runs the second, fourth, ... blocks in input order while the
    caller runs the first, third, ..., and each concurrent caller runs
    its own; a lone block hands it no job, so starts no thread. Otherwise,
    as where batch_size limits every block (short texts), and where
    _helper finds one CPU, the caller runs every block. The rows of every
    block are the same either way, so the labels do not depend on the CPU
    count. They equal those of one batch over all texts except at
    near-ties, since a row's BLAS result depends on the rows it runs
    with. Runs under no_grad: no graph is built.
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


class _RowDraws:
    """A copy of a split step's generator that one half's forward draws from.

    Each random(shape) skips, with PCG64.advance, the other half's rows of
    the batch's next draw at the batch's width, draws the half's own rows
    at that width and returns them cut to the half's width, shape[1]. So
    the half gets the values that one forward over the whole batch would
    draw for its rows. The copy holds the generator's 128-bit state but
    not its buffered 32-bit word, which no double uses and which advance
    clears: _split_step gives the step's generator its own word back.
    """

    def __init__(self, state: dict, rows: int, part: slice, width: int):
        self.bits = np.random.PCG64()
        self.bits.state = {**state, "has_uint32": 0, "uinteger": 0}
        self._random = np.random.Generator(self.bits).random
        self._skip = (part.start, rows - part.stop)  # the other half's rows before and after this half's
        self._width = width

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        rows, width, d = shape
        before, after = self._skip
        if before:
            self.bits.advance(before * self._width * d)
        out = self._random((rows, self._width, d))[:, :width]
        if after:
            self.bits.advance(after * self._width * d)
        return out


class _Tower:
    """A model that train runs rows on, its parameters' grads viewing its
    own gradient array."""

    def __init__(self, model: MtlModel, grads: np.ndarray):
        self.model, self.grads = model, grads
        for name, view in parameter_views(grads, param_specs(model.config)).items():
            model.params[name].grad = view.data  # backward() accumulates into it

    def run(
        self,
        batch: Sequence[TokenSequence],
        labels_c: np.ndarray,
        labels_p: np.ndarray,
        rng: np.random.Generator | _RowDraws,
        share: float,
    ) -> float:
        """Forward and backward of a batch's rows into grads, which it
        zeroes first; returns their loss.

        The loss is scaled by share, the rows' part of the whole batch,
        before the backward, and a loss that is not finite gets no
        backward.
        """
        self.grads.fill(0)
        logits_c, logits_p = self.model.forward(batch, train_mode=True, rng=rng)
        total, report = compute_loss(logits_c, logits_p, labels_c, labels_p, self.model.config)
        if math.isfinite(report.total):
            (total if share == 1.0 else scale(total, share)).backward()
        return report.total

    def release(self) -> None:
        """Leave every parameter's grad None."""
        for p in self.model.params.values():
            p.grad = None


@contextlib.contextmanager
def _helper() -> Iterator[Callable[[Job], Job]]:
    """beside for predict_texts' blocks, split steps and Adam.step; the one
    place that starts a thread.

    Where the process may use two CPUs, beside(job) hands job to a helper
    thread, mtlid-helper, started at the first job, and returns a
    function that waits for that job alone and raises its error as
    itself. The helper runs the jobs in the order handed, each in a copy
    of the caller's context at the handing, so under the caller's
    no_grad() and numpy error state. After an error it runs no further
    job, and the wait for each one raises that error. Once the block
    exits, however it exits, the helper starts no job it has not begun,
    and a started helper is joined. On one CPU beside is in_turn.
    """
    if _usable_cpus() < 2:
        yield in_turn
        return
    jobs: queue.SimpleQueue[tuple[Job, queue.SimpleQueue] | None] = queue.SimpleQueue()
    closed = threading.Event()  # the block has exited

    def serve() -> None:
        error = None
        for job, result in iter(jobs.get, None):
            if error is None and not closed.is_set():
                try:
                    job()
                except BaseException as exc:  # the caller re-raises it
                    error = exc
            result.put(error)

    # daemon: an interrupted join does not hold up the process's exit
    helper = threading.Thread(target=serve, name="mtlid-helper", daemon=True)

    def beside(job: Job) -> Job:
        if helper.ident is None:  # the first job
            helper.start()
        result: queue.SimpleQueue[BaseException | None] = queue.SimpleQueue()  # this job's alone
        jobs.put((functools.partial(contextvars.copy_context().run, job), result))

        def wait() -> None:
            if (error := result.get()) is not None:
                raise error

        return wait

    try:
        yield beside
    finally:
        closed.set()
        if helper.ident is not None:
            jobs.put(None)
            helper.join()


def _split_step(
    tower: _Tower,
    twin: _Tower,
    batch: Sequence[TokenSequence],
    labels_c: np.ndarray,
    labels_p: np.ndarray,
    rng: np.random.Generator,
    beside: Callable[[Job], Job],
) -> float:
    """A batch's rows as two halves, the first run on tower and the second
    on twin, their gradients summed into tower.grads; returns the batch's
    loss.

    The second half runs through beside while the caller runs the first,
    then adds twin.grads into tower.grads. Each half draws from its own
    _RowDraws copy of rng, so it gets its rows of each dropout draw of
    one forward over the whole batch; after both halves, rng takes the
    second half's state with its own buffered word, the state an unsplit
    step leaves. An error in either half is raised as itself.
    """
    rows = len(batch)
    width = max(seq.true_length for seq in batch)
    state = rng.bit_generator.state
    towers, parts = (tower, twin), halves(rows)
    draws: list[_RowDraws | None] = [None, None]
    losses = [math.nan, math.nan]

    def run(i: int) -> None:
        part = parts[i]
        draws[i] = _RowDraws(state, rows, part, width)
        losses[i] = towers[i].run(
            batch[part], labels_c[part], labels_p[part], draws[i], (part.stop - part.start) / rows
        )

    second_half = beside(lambda: run(1))
    run(0)
    second_half()
    rng.bit_generator.state = {**state, "state": draws[1].bits.state["state"]}
    tower.grads += twin.grads
    mid = parts[1].start
    return (losses[0] * mid + losses[1] * (rows - mid)) / rows


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

    A step whose batch holds two or more rows and at least TRAIN_SPLIT_TOKENS
    padded positions (rows times longest true_length) runs as two row
    halves, each loss scaled by its share of the rows. The caller runs the
    first on model; the second runs on a twin, a second MtlModel over the
    same values whose grads view a second array. Each half draws only its
    own rows of each dropout draw, from its own copy of the generator, so
    the generator's stream is that of an unsplit step. After both halves
    the caller adds the twin's gradient into the model's, and Adam steps
    once, in the two ranges of halves(values.size). Each epoch runs under
    one _helper, whose thread starts at the epoch's first split step, if
    any: it runs each split step's second half and second range of Adam's
    update while the caller runs the first of each, and is joined at the
    epoch's end, before dev scoring, or when training raises. The split
    depends only on the batch's shape, so the trained bytes do not depend
    on the CPU count; they differ from an unsplit step's only in float
    summation order. Every other step runs whole, on the caller.
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
    tower = _Tower(model, grads)
    twin: _Tower | None = None  # runs the second half of each split step, from the first on
    try:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            loss_sum = 0.0
            # A diverging step overflows inside the forward pass; the loss and
            # gradient checks below report it, so numpy's warnings are noise.
            # The helper's jobs run under this error state too. One helper
            # an epoch, joined before dev scoring starts its own. With one
            # per step, bench train-long-country's peak RSS read about 81 MB
            # in 5 of 21 runs, 72 MB in the rest; one kept across dev
            # scoring held it at 75 MB.
            with np.errstate(over="ignore", invalid="ignore"), _helper() as helper:
                for step, start in enumerate(range(0, n, cfg.batch_size), start=1):
                    idx = order[start : start + cfg.batch_size]
                    batch = [seqs[i] for i in idx]
                    split = len(idx) > 1 and len(idx) * max(seq.true_length for seq in batch) >= TRAIN_SPLIT_TOKENS
                    if split and twin is None:
                        twin = _Tower(MtlModel(model.config, values=model.values), np.zeros_like(grads))
                    beside = helper if split else in_turn
                    if split:
                        loss = _split_step(tower, twin, batch, labels_c[idx], labels_p[idx], rng, beside)
                    else:
                        loss = tower.run(batch, labels_c[idx], labels_p[idx], rng, 1.0)
                    diverged = f"training diverged: loss {loss} at epoch {epoch}, step {step}"
                    if not math.isfinite(loss):
                        raise DivergenceError(diverged)
                    try:
                        adam.step(beside)
                    except NonFiniteGradientError as exc:
                        name = next(name for name, p in model.params.items() if not np.isfinite(p.grad).all())
                        raise DivergenceError(f"{diverged} (non-finite gradient in {name!r})") from exc
                    loss_sum += loss * len(idx)
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
        for t in (tower, twin):
            if t is not None:
                t.release()
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
