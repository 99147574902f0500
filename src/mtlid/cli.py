"""Command-line interface: train, eval, predict, distribution, synth.

Exit codes: 0 success, 1 runtime failure, 2 usage/config/parse error.
Every run that produces artifacts also writes a manifest recording the
fully resolved configuration, input digests, seed, artifact paths, and
wall-clock duration, so a run can be replayed. A training manifest also
records numpy, its BLAS build and the BLAS thread settings: seeded bytes
repeat only for one such build and thread count. The manifest is written
last, and an earlier one is removed before the first artifact is
replaced, so a manifest never describes another run's files.

The `mtlid` command enters through `mtlid.__main__`, which fixes the BLAS
thread count before this module loads numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, __version__, data as data_mod, train as train_mod
from .data import DataError, Dataset, SynthConfig, load_texts, load_tsv, relabel, save_tsv, synth_generate, write_file
from .encoder import EncoderConfig
from .model import MODE_TASKS, MODES, TASKS, MtlModel, ModelConfig, load_checkpoint, save_checkpoint
from .preprocess import build_vocab, clean_text
from .train import TrainConfig, evaluate, predict_texts, write_confusion, write_history

# Settings the command line fixes; a config file may not set them.
_CLI_OWNED = {"mode", "n_countries", "n_provinces", "seed"}


def _settings(cls) -> list[str]:
    """Fields of a dataclass that carry a plain default value.

    A field with a default factory is a nested section of its own
    (ModelConfig.encoder).
    """
    return [f.name for f in fields(cls) if f.default is not MISSING]


_CONFIG_SECTIONS = {
    section: set(_settings(cls)) - _CLI_OWNED
    for section, cls in (
        ("encoder", EncoderConfig),
        ("model", ModelConfig),
        ("train", TrainConfig),
    )
}


class UsageError(ValueError):
    """Bad flags, config, or inputs; maps to exit code 2."""


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(path: Path, payload: dict) -> None:
    write_file(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _runtime() -> dict:
    """The numpy and BLAS build and the thread settings a run's bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object's members; a key given twice is an error, not a silent override."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise UsageError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except UsageError as exc:
        raise UsageError(f"config {path}: {exc}") from exc
    except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
        raise UsageError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    for section, keys in raw.items():
        if section not in _CONFIG_SECTIONS:
            raise UsageError(f"config {path}: unknown section {section!r}")
        if not isinstance(keys, dict):
            raise UsageError(f"config {path}: section {section!r} must be a JSON object")
        unknown = set(keys) - _CONFIG_SECTIONS[section]
        if unknown:
            raise UsageError(f"config {path}: unknown keys in {section!r}: {sorted(unknown)}")
    return raw


def _input_file(path: str, flag: str) -> Path:
    """A data, config or checkpoint input that is a readable file; checked before any work."""
    src = Path(path)
    if not (src.is_file() and os.access(src, os.R_OK)):
        raise UsageError(f"{flag} {path}: not a readable file")
    return src


def _relabel(dataset: Dataset, labels: dict[str, list[str]], mode: str) -> Dataset:
    """dataset on labels' ids for the heads mode trains; any other head keeps the file's own labels."""
    return relabel(dataset, *(labels[t] if t in MODE_TASKS[mode] else getattr(dataset, f"{t}_labels") for t in TASKS))


def _output_dir(path: str | Path, flag: str) -> Path:
    """An output directory that can be created; checked before any work.

    The path, or its nearest existing ancestor, must be a directory, so a
    run never finishes its work only to fail at writing. Nothing is
    created here.
    """
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"{flag} {path}: {existing} exists and is not a directory")
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    started = time.monotonic()
    out = _output_dir(args.out, "--out")
    # digested before any work: an input edited while the run trains is recorded as it was
    inputs = {
        name: {"path": path, "sha256": _sha256(_input_file(path, f"--{name}"))}
        for name, path in (("train", args.train), ("dev", args.dev), ("config", args.config))
    }
    file_cfg = _load_config_file(args.config)
    train_ds = load_tsv(args.train)
    labels = {"country": train_ds.country_labels, "province": train_ds.province_labels}
    for task in MODE_TASKS[args.mode]:
        if len(labels[task]) < 2:
            raise UsageError(
                f"--train {args.train}: the {task} head needs at least 2 labels, found {len(labels[task])}"
            )
    dev_ds = _relabel(load_tsv(args.dev), labels, args.mode)

    texts = [clean_text(ex.text) for ex in train_ds.examples]
    try:
        enc = EncoderConfig(**file_cfg.get("encoder", {}))  # its vocab_size caps the vocabulary
        vocab = build_vocab(texts, max_size=enc.vocab_size)
        model_cfg = ModelConfig(
            encoder=replace(enc, vocab_size=len(vocab)),
            n_countries=len(train_ds.country_labels),
            n_provinces=len(train_ds.province_labels),
            mode=args.mode,
            **file_cfg.get("model", {}),
        )
        train_cfg = TrainConfig(**file_cfg.get("train", {}), seed=args.seed)
        model = MtlModel(model_cfg, global_seed=args.seed)  # sizes too large to allocate are config errors
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc
    result = train_mod.train(model, train_ds, dev_ds, vocab, train_cfg)

    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    ckpt_path = out / "model.ckpt"
    hist_path = out / "history.tsv"
    save_checkpoint(ckpt_path, model, train_ds.country_labels, train_ds.province_labels, vocab)
    write_history(hist_path, result.history)
    resolved = {"encoder": enc, "model": model_cfg, "train": train_cfg}
    manifest = {
        "command": "train",
        "version": __version__,
        "mode": args.mode,
        "seed": args.seed,
        # a config file that replays the run, given this mode and seed
        "resolved_config": {
            section: {key: getattr(cfg, key) for key in _CONFIG_SECTIONS[section]}
            for section, cfg in resolved.items()
        },
        "inputs": inputs,
        "artifacts": {"checkpoint": str(ckpt_path), "history": str(hist_path)},
        "flagged_ids": {  # rows empty after cleaning, kept: they train and score as [CLS] alone
            "train": [ex.id for ex, text in zip(train_ds.examples, texts) if not text.strip()],
            "dev": [ex.id for ex in dev_ds.examples if not clean_text(ex.text).strip()],
        },
        "runtime": _runtime(),
        "best_epoch": result.best_epoch,
        "duration_seconds": time.monotonic() - started,
    }
    _write_manifest(out / "manifest.json", manifest)
    return 0


def cmd_eval(args) -> int:
    conf_dir = _output_dir(args.confusion, "--confusion") if args.confusion else None
    data = _input_file(args.data, "--data")
    ckpt = load_checkpoint(_input_file(args.model, "--model"))
    labels = {"country": ckpt.country_labels, "province": ckpt.province_labels}
    dataset = _relabel(load_tsv(data), labels, ckpt.model.config.mode)
    reports = evaluate(ckpt.model, dataset, ckpt.vocab)
    for task, rep in reports.items():
        print(f"{task} f1={100 * rep.macro_f1:.2f} acc={100 * rep.accuracy:.2f}")
    if conf_dir is not None:
        conf_dir.mkdir(parents=True, exist_ok=True)
        for task, rep in reports.items():
            write_confusion(conf_dir / f"confusion_{task}.tsv", labels[task], rep.confusion)
    return 0


def cmd_predict(args) -> int:
    out = Path(args.out)
    if out.is_dir():
        raise UsageError(f"--out {args.out}: is a directory")
    _output_dir(out.parent, "--out")
    infile = _input_file(args.infile, "--in")
    ckpt = load_checkpoint(_input_file(args.model, "--model"))
    rows = load_texts(infile)
    preds = predict_texts(ckpt.model, ckpt.vocab, [text for _, text in rows])
    labels = {"country": ckpt.country_labels, "province": ckpt.province_labels}
    lines = []
    for i, (ex_id, _) in enumerate(rows):
        names = [labels[task][preds[task][i]] if task in preds else "NA" for task in labels]
        lines.append("\t".join([ex_id, *names]) + "\n")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_file(out, "".join(lines).encode("utf-8"))
    return 0


def cmd_distribution(args) -> int:
    dataset = load_tsv(_input_file(args.data, "--data"))
    for task, pairs in data_mod.label_distribution(dataset).items():
        for label, count in pairs:
            print(f"{task}\t{label}\t{count}")
    return 0


def cmd_synth(args) -> int:
    started = time.monotonic()
    out = _output_dir(args.out, "--out")
    try:
        config = SynthConfig(**{name: getattr(args, name) for name in _settings(SynthConfig)})
    except ValueError as exc:
        raise UsageError(f"invalid synthesis settings: {exc}") from exc
    splits = synth_generate(config)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    paths = {}
    for name, ds in zip(("train", "dev", "test"), splits):
        path = out / f"{name}.tsv"
        save_tsv(ds, path)
        paths[name] = {"path": str(path), "sha256": _sha256(path), "examples": len(ds)}
    manifest = {
        "command": "synth",
        "version": __version__,
        "resolved_config": vars(config),
        "artifacts": paths,
        "duration_seconds": time.monotonic() - started,
    }
    _write_manifest(out / "manifest.json", manifest)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlid",
        description="Joint country/province text identification: train, evaluate, predict.",
    )
    parser.add_argument("--version", action="version", version=f"mtlid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoint/history/manifest")
    p_train.add_argument("--train", required=True, help="training TSV (id, text, country, province)")
    p_train.add_argument("--dev", required=True, help="development TSV for per-epoch evaluation")
    p_train.add_argument("--config", required=True, help="JSON config covering encoder/model/train")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--mode", choices=MODES, default="mtl")
    p_train.add_argument("--seed", type=int, default=0, help="global seed")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="print per-task accuracy and macro-F1 percentages")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--confusion", default=None, help="directory for per-task confusion matrices")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="write id/country/province predictions as TSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--in", dest="infile", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_dist = sub.add_parser("distribution", help="print sorted label-count tables per task")
    p_dist.add_argument("--data", required=True)
    p_dist.set_defaults(func=cmd_distribution)

    p_synth = sub.add_parser("synth", help="generate a synthetic hierarchical corpus")
    for name in _settings(SynthConfig):
        default = getattr(SynthConfig, name)
        p_synth.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, corrupt checkpoints, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
