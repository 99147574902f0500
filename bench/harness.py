"""Workloads, timed phases and output checks of the mtlid benchmark.

Every workload runs the same phases in one process, so each reports every
end-to-end metric; workloads differ in their inputs and their mode.

First, untimed against the run's seconds: set-up, then quality training,
``train.train`` with the dev split for a fixed number of epochs. It fixes
the model every later phase uses and each task's dev macro-F1 at its best
epoch, which a seed repeats exactly. Then a checkpoint save, load and save.

Then the timed phases, each a fixed list of work items:

- set-up: ``load_tsv``, ``build_vocab`` and model init;
- train: one-epoch ``train.train`` calls over 256-example chunks of the
  training split, 16 steps each;
- eval: ``train.evaluate`` at batch 64 over 64-example chunks of dev;
- serve: passes of one client in a closed loop over the serving texts,
  one batch-1 request per text, each making the calls ``mtlid predict``
  makes for a row;
- offline: ``mtlid predict`` over a 320-row file, in its 64-row chunks.

The phases take turns, one item at a time, each getting its share of the
run's seconds and every item a minimum number of turns; a phase visits
its items in a new seeded order each round. Other tenants
of a shared machine slow the process for bursts of up to several seconds
and never speed it up, so in the throughput phases each item's time is
the fastest of its visits, taken at different moments of the run, and a
throughput divides the work of all items by the sum of their fastest
times. The serving phase's item is a pass of the client over all 1,008
serving texts. The p99 is taken over all requests of a pass, ten of
them beyond it, and the median over each block of 126 consecutive
requests; each is reported for the pass or block where it is lowest. A
stall the program makes recurs in every pass and so shows; another
tenant's burst falls in some passes only. Set-up reports the median of
its repetitions.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from mtlid import cli, data, model as model_mod, preprocess, train as train_mod
from mtlid.data import Dataset
from mtlid.encoder import EncoderConfig

from corpus import CorpusSpec, Row, generate, write_tsv
from tracer import PRIMITIVES, Tracer

TRAIN_BATCH = 16
EVAL_BATCH = 64
TRAIN_CHUNK = 256  # examples per timed training item: one Adam build per 16 steps
EVAL_CHUNK = 64  # examples per timed evaluation item
OFFLINE_ROWS = 320  # rows of the offline predict file
P50_BLOCK = 126  # consecutive requests of a pass the median is taken over
F1_MARGIN = 0.25  # macro-F1 must exceed 1/classes by this much
# Each timed phase's share of the run's seconds.
SHARES = {"setup": 0.02, "train": 0.35, "eval": 0.10, "serve": 0.38, "offline": 0.15}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    corpus: CorpusSpec
    epochs: int  # of the quality training


WORKLOADS = {
    w.name: w
    for w in (
        # Joint model on short tweet-like text: both heads run and 51 of
        # the 64 positions are padding.
        Workload(
            name="train-short-mtl",
            mode="mtl",
            corpus=CorpusSpec(
                n_countries=6,
                provinces_per_country=2,
                train_per_province=63,
                dev_per_province=30,
                serve_per_province=84,
                min_tokens=12,
                max_tokens=12,
                shared_words=200,
                province_words=2,
                p_country=0.2,
                p_province=0.5,
            ),
            epochs=4,
        ),
        # Country baseline on long text: no padding, one head, and a shared
        # pool large enough to fill the 4,096-row vocabulary cap.
        Workload(
            name="train-long-country",
            mode="country",
            corpus=CorpusSpec(
                n_countries=6,
                provinces_per_country=2,
                train_per_province=42,
                dev_per_province=30,
                serve_per_province=84,
                min_tokens=70,
                max_tokens=100,
                shared_words=8000,
                p_country=0.15,
                p_province=0.1,
            ),
            epochs=5,
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """How long the timed phases run: ``seconds`` in all, but at least
    ``min_visits`` turns for every item and ``setup_reps`` set-ups."""

    seconds: float
    min_visits: int
    setup_reps: int


def timed_plan(seconds: float) -> Plan:
    return Plan(seconds, min_visits=3, setup_reps=15)


# One turn for every item: the traced run and the tests use it.
FIXED_PLAN = Plan(0.0, min_visits=1, setup_reps=1)


class Run:
    """One workload's generated inputs and its tally of operations."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed % 2**32  # numpy generators take no negative seed
        self.work = work
        splits = generate(workload.corpus, self.seed)
        self.train_path = work / "train.tsv"
        self.dev_path = work / "dev.tsv"
        self.offline_path = work / "offline.tsv"
        write_tsv(splits["train"], self.train_path)
        write_tsv(splits["dev"], self.dev_path)
        self.serve_rows: list[Row] = splits["serve"]
        self.offline_rows = self.serve_rows[:OFFLINE_ROWS]
        write_tsv(self.offline_rows, self.offline_path, labels=False)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.details: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Phase:
    """A timed phase: a list of work items and the fastest time of each."""

    def __init__(self, share: float, items: list, fn, min_turns: int, rng: random.Random):
        self.share = share
        self.items = items
        self.fn = fn  # fn(item) -> seconds of the timed part
        self.min_turns = min_turns
        self.rng = rng
        self.order = list(range(len(items)))
        self.turns = 0
        self.spent = 0.0
        self.walls: list[float] = []
        self.best = [math.inf] * len(items)

    def turn(self) -> None:
        if self.turns % len(self.items) == 0:
            self.rng.shuffle(self.order)
        i = self.order[self.turns % len(self.items)]
        seconds = self.fn(self.items[i])
        self.turns += 1
        self.spent += seconds
        self.walls.append(seconds)
        self.best[i] = min(self.best[i], seconds)


def _interleave(phases: list[Phase], seconds: float) -> None:
    """Give the next turn to the phase furthest below its share of the time
    spent until ``seconds`` have passed, then only to phases short of their
    minimum until none is."""
    start = perf_counter()
    while True:
        short = [p for p in phases if p.turns < p.min_turns]
        over = perf_counter() - start >= seconds
        if over and not short:
            return
        min(short if over else phases, key=lambda p: p.spent / p.share).turn()


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


def _chunks(dataset: Dataset, size: int) -> list[Dataset]:
    return [
        Dataset(dataset.examples[i : i + size], dataset.country_labels, dataset.province_labels)
        for i in range(0, len(dataset), size)
    ]


def _setup_training(run: Run):
    """The set-up ``mtlid train`` does before its first step."""
    train_ds = data.load_tsv(run.train_path)
    dev_ds = data.relabel(
        data.load_tsv(run.dev_path), train_ds.country_labels, train_ds.province_labels
    )
    texts = [preprocess.clean_text(ex.text) for ex in train_ds.examples]
    vocab = preprocess.build_vocab(texts, max_size=EncoderConfig.vocab_size)
    config = model_mod.ModelConfig(
        encoder=EncoderConfig(vocab_size=len(vocab)),
        n_countries=max(2, len(train_ds.country_labels)),
        n_provinces=max(2, len(train_ds.province_labels)),
        mode=run.workload.mode,
    )
    model = model_mod.MtlModel(config, global_seed=run.seed)
    return train_ds, dev_ds, vocab, model


def _request(ckpt, text: str) -> tuple[str, str]:
    """One batch-1 request, making the calls ``mtlid predict`` makes per row."""
    seq = preprocess.encode(preprocess.clean_text(text), ckpt.vocab, ckpt.model.config.encoder.l_max)
    logits_c, logits_p = ckpt.model.forward([seq], train_mode=False)
    country = ckpt.country_labels[int(model_mod.predict(logits_c)[0])] if logits_c is not None else "NA"
    province = ckpt.province_labels[int(model_mod.predict(logits_p)[0])] if logits_p is not None else "NA"
    return country, province


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def measure(run: Run, plan: Plan, tracer: Tracer | None = None) -> tuple[dict[str, float], dict]:
    """Run every phase; return end-to-end values and details."""
    wl = run.workload
    details: dict = {}
    train_ds, dev_ds, vocab, model = _setup_training(run)
    config = model.config

    def check_losses(result) -> None:
        for rec in result.history:
            run.check(math.isfinite(rec.train_loss), f"epoch {rec.epoch}: train loss {rec.train_loss}")

    quality_cfg = train_mod.TrainConfig(epochs=wl.epochs, batch_size=TRAIN_BATCH, seed=run.seed)
    quality = train_mod.train(model, train_ds, dev_ds, vocab, quality_cfg)
    check_losses(quality)
    # each task's macro-F1 at its own best epoch
    best_f1 = {
        task: max(rec.dev[task].macro_f1 for rec in quality.history) for task in quality.history[0].dev
    }
    classes = {"country": config.n_countries, "province": config.n_provinces}
    for task, f1 in best_f1.items():
        chance = 1.0 / classes[task]
        run.check(
            f1 > chance + F1_MARGIN,
            f"{task} dev macro-F1 {f1:.4f} does not beat chance {chance:.4f} by {F1_MARGIN}",
        )
    details["dev_f1"] = best_f1
    details["best_epoch"] = quality.best_epoch

    ckpt_path = run.work / "model.ckpt"
    again_path = run.work / "model.again.ckpt"
    model_mod.save_checkpoint(ckpt_path, model, train_ds.country_labels, train_ds.province_labels, vocab)
    ckpt = model_mod.load_checkpoint(ckpt_path)
    model_mod.save_checkpoint(again_path, ckpt.model, ckpt.country_labels, ckpt.province_labels, ckpt.vocab)
    run.check(ckpt_path.read_bytes() == again_path.read_bytes(), "checkpoint save -> load -> save changed bytes")

    speed_model = model_mod.MtlModel(config, global_seed=run.seed)
    epoch_cfg = train_mod.TrainConfig(epochs=1, batch_size=TRAIN_BATCH, seed=run.seed)

    def train_item(chunk: Dataset) -> float:
        seconds, result = _timed(train_mod.train, speed_model, chunk, None, vocab, epoch_cfg)
        check_losses(result)
        return seconds

    def eval_item(chunk: Dataset) -> float:
        return _timed(train_mod.evaluate, ckpt.model, chunk, vocab, batch_size=EVAL_BATCH)[0]

    batch1: dict[str, tuple[str, str]] = {}
    passes: list[list[float]] = []  # each pass's request latencies, ms
    nodes = [0]
    serve_rng = random.Random(run.seed)

    def serve_pass(_) -> float:
        """The client's pass over every serving text, in a new order. A whole
        pass is one turn: only its first few requests follow another phase's
        work, which leaves them slower."""
        t_pass = perf_counter()
        latencies: list[float] = []
        passes.append(latencies)
        for row in serve_rng.sample(run.serve_rows, len(run.serve_rows)):
            before = tracer.nodes_recorded if tracer is not None else 0
            t0 = perf_counter()
            try:
                pred = _request(ckpt, row.text)
            except Exception as exc:  # a failed request is counted, not fatal
                run.check(False, f"request {row.id}: {exc!r}")
                continue
            latencies.append(1e3 * (perf_counter() - t0))
            run.check(True, "request")
            batch1.setdefault(row.id, pred)
            nodes[0] += (tracer.nodes_recorded if tracer is not None else 0) - before
        return perf_counter() - t_pass

    out_path = run.work / "predictions.tsv"
    argv = ["predict", "--model", str(ckpt_path), "--in", str(run.offline_path), "--out", str(out_path)]

    def offline_item(_) -> float:
        seconds, code = _timed(cli.main, argv)
        run.check(code == 0, f"mtlid predict exited {code}")
        return seconds

    items = {
        "setup": [None],
        "train": _chunks(train_ds, TRAIN_CHUNK),
        "eval": _chunks(dev_ds, EVAL_CHUNK),
        "serve": [None],
        "offline": [None],
    }
    min_turns = {name: plan.min_visits * len(items[name]) for name in SHARES}
    min_turns["setup"] = plan.setup_reps
    fns = {"setup": lambda _: _timed(_setup_training, run)[0], "train": train_item, "eval": eval_item, "serve": serve_pass, "offline": offline_item}
    phases = {
        name: Phase(
            share,
            items[name],
            fns[name],
            min_turns[name],
            random.Random(run.seed),
        )
        for name, share in SHARES.items()
    }
    _interleave(list(phases.values()), plan.seconds)

    batch64 = {}
    for line in out_path.read_text(encoding="utf-8").splitlines():
        ex_id, country, province = line.split("\t")
        batch64[ex_id] = (country, province)
    offline_ids = [row.id for row in run.offline_rows]
    mismatched = sum(batch64.get(ex_id) != batch1.get(ex_id) for ex_id in offline_ids)
    run.check(
        mismatched == 0 and len(batch64) == len(offline_ids),
        f"batch-1 and batch-64 predictions differ on {mismatched} of {len(offline_ids)} rows",
    )

    if tracer is not None:
        details["graph_nodes_per_request"] = nodes[0] / max(1, sum(map(len, passes)))
    details["vocab_rows"] = len(vocab)
    details["turns"] = {name: p.turns for name, p in phases.items()}
    served = [latencies for latencies in passes if latencies]
    blocks = [lat[i : i + P50_BLOCK] for lat in served for i in range(0, len(lat) - P50_BLOCK + 1, P50_BLOCK)]
    samples = min(map(len, served), default=0)
    details["latency_passes"] = len(served)
    details["latency_samples"] = samples
    details["latency_beyond_p99"] = samples - math.ceil(0.99 * samples)
    values = {
        "setup_s": statistics.median(phases["setup"].walls),
        "train_ex_per_s": len(train_ds) / sum(phases["train"].best),
        "eval_ex_per_s": len(dev_ds) / sum(phases["eval"].best),
        "dev_f1_country": best_f1["country"],
        "dev_f1_min": min(best_f1.values()),
        "predict_ms_p50": min(map(statistics.median, blocks), default=math.nan),
        "predict_ms_p99": min(map(_p99, served), default=math.nan),
        "predict_ex_per_s": len(offline_ids) / phases["offline"].best[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, details


END_TO_END_UNITS = {
    "setup_s": "s",
    "train_ex_per_s": "ex/s",
    "eval_ex_per_s": "ex/s",
    "dev_f1_country": "F1",
    "dev_f1_min": "F1",
    "predict_ms_p50": "ms",
    "predict_ms_p99": "ms",
    "predict_ex_per_s": "ex/s",
    "peak_rss_mb": "MB",
}


def layer_metrics(tracer: Tracer, details: dict, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    t, calls = tracer.total, tracer.calls
    bwd = tracer.bwd_by_layer
    out: dict[str, tuple[float, str]] = {}
    for op in PRIMITIVES:
        for kind in ("fwd", "vjp"):
            name = f"tensor.{kind}.{op}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (t[name], "s")
    out["tensor.fwd.matmul.gflop"] = (tracer.gflop["fwd"], "GFLOP")
    out["tensor.vjp.matmul.gflop"] = (tracer.gflop["vjp"], "GFLOP")
    steps = max(1, len(tracer.backward_nodes))
    out["tensor.backward.s"] = (t["tensor.backward"], "s")
    out["tensor.backward.bookkeeping_s"] = (tracer.self_time["tensor.backward"], "s")
    out["tensor.backward.nodes"] = (sum(tracer.backward_nodes) / steps, "count")
    out["tensor.grad_buffers.interior"] = (sum(tracer.interior_buffers) / steps, "count")
    out["tensor.grad_buffers.useful_ratio"] = (
        tracer.leaf_buffers / tracer.all_buffers if tracer.all_buffers else 1.0,
        "ratio",
    )
    out["tensor.graph_nodes.per_request"] = (details["graph_nodes_per_request"], "count")
    out["tensor.adam.step.s"] = (t["tensor.adam.step"], "s")
    out["tensor.init_parameters.s"] = (t["tensor.init_parameters"], "s")
    out["preprocess.encode.s"] = (t["preprocess.encode"], "s")
    out["preprocess.pad_frac"] = (tracer.pad_positions / max(1, tracer.positions), "ratio")
    out["preprocess.trunc_frac"] = (tracer.truncated / max(1, tracer.texts), "ratio")
    out["preprocess.vocab_rows"] = (details["vocab_rows"], "count")
    out["data.load_tsv.s"] = (t["data.load_tsv"], "s")
    out["data.load_texts.s"] = (t["data.load_texts"], "s")
    out["preprocess.build_vocab.s"] = (t["preprocess.build_vocab"], "s")
    embed, mha, enc = "encoder.embed", "encoder.multi_head_attention", "encoder.encode_batch"
    out["encoder.embed.fwd_s"] = (t[embed], "s")
    out["encoder.embed.bwd_s"] = (bwd[embed], "s")
    out["encoder.multi_head_attention.fwd_s"] = (t[mha], "s")
    out["encoder.multi_head_attention.bwd_s"] = (bwd[mha], "s")
    out["encoder.encode_batch.fwd_s"] = (t[enc], "s")
    out["encoder.encode_batch.bwd_s"] = (bwd[embed] + bwd[mha] + bwd[enc], "s")
    out["encoder.ff_ln.fwd_s"] = (t[enc] - t[embed] - t[mha], "s")
    out["encoder.ff_ln.bwd_s"] = (bwd[enc], "s")
    att = "attnpool.task_attention"
    out["attnpool.task_attention.calls"] = (calls[att], "count")
    out["attnpool.task_attention.fwd_s"] = (t[att], "s")
    out["attnpool.task_attention.bwd_s"] = (bwd[att], "s")
    out["model.heads.fwd_s"] = (t["model.forward"] - t[enc] - t[att], "s")
    out["model.heads.bwd_s"] = (bwd["model.forward"], "s")
    out["model.compute_loss.s"] = (t["model.compute_loss"], "s")
    out["model.load_checkpoint.s"] = (t["model.load_checkpoint"], "s")
    out["model.save_checkpoint.s"] = (t["model.save_checkpoint"], "s")
    step_ms = tracer.step_ms or [math.nan]
    out["train.step.ms_p50"] = (statistics.median(step_ms), "ms")
    out["train.step.ms_p99"] = (_p99(step_ms), "ms")
    out["train.evaluate.s"] = (t["train.evaluate"], "s")
    out["cli.cmd_predict.s"] = (t["cli.cmd_predict"], "s")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def run_workload(run: Run, seconds: float, trace: bool) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of a timed run, or per-layer metrics of a traced one.

    The traced run makes one untraced pass of the fixed plan and then the
    same pass under the tracer; their wall-time ratio is the tracer's
    overhead.
    """
    if not trace:
        values, run.details = measure(run, timed_plan(seconds))
        return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    t0 = perf_counter()
    measure(run, FIXED_PLAN)
    untraced = perf_counter() - t0
    with Tracer() as tracer:
        t0 = perf_counter()
        _, run.details = measure(run, FIXED_PLAN, tracer)
        traced = perf_counter() - t0
    run.details["traced_wall_s"] = traced
    run.details["span_self_s"] = sum(tracer.self_time.values())
    return layer_metrics(tracer, run.details, traced / untraced - 1.0)
