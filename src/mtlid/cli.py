"""Command-line interface: train, eval, predict, distribution, synth.

Exit codes: 0 success, 1 runtime failure, 2 usage/config/parse error.
Every run that produces artifacts also writes a manifest recording the
fully resolved configuration, input digests, seed, artifact paths, and
wall-clock duration, so a run can be replayed exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from . import __version__, data as data_mod, train as train_mod
from .data import DataError, SynthConfig, load_texts, load_tsv, relabel, save_tsv, synth_generate
from .encoder import EncoderConfig
from .model import MODES, MtlModel, ModelConfig, load_checkpoint, save_checkpoint
from .preprocess import Vocabulary, build_vocab, clean_text
from .train import LabelSpaceError, TrainConfig, evaluate, predict_texts, write_confusion, write_history

SEED_ENV_VAR = "MTLID_SEED"

# Settings the command line fixes (max_size comes from encoder.vocab_size);
# a config file may not set them.
_CLI_OWNED = {"mode", "n_countries", "n_provinces", "seed", "max_size"}


def _settings(cls) -> list[str]:
    """Fields of a dataclass that carry a plain default value.

    Fields without one are data (a vocabulary's tokens) or, with a
    default factory, a nested section of their own (ModelConfig.encoder).
    """
    return [f.name for f in fields(cls) if f.default is not MISSING]


_CONFIG_SECTIONS = {
    section: set(_settings(cls)) - _CLI_OWNED
    for section, cls in (
        ("encoder", EncoderConfig),
        ("model", ModelConfig),
        ("train", TrainConfig),
        ("vocab", Vocabulary),
    )
}


class UsageError(ValueError):
    """Bad flags, config, or inputs; maps to exit code 2."""


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
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


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    started = time.monotonic()
    seed = _resolve_seed(args)
    file_cfg = _load_config_file(args.config)
    train_ds = load_tsv(args.train)
    dev_ds = relabel(load_tsv(args.dev), train_ds.country_labels, train_ds.province_labels)

    texts = [clean_text(ex.text) for ex in train_ds.examples]
    enc_kwargs = dict(file_cfg.get("encoder", {}))
    vocab_cap = enc_kwargs.pop("vocab_size", EncoderConfig.vocab_size)
    try:
        vocab = build_vocab(texts, max_size=vocab_cap, **file_cfg.get("vocab", {}))
        model_cfg = ModelConfig(
            encoder=EncoderConfig(vocab_size=len(vocab), **enc_kwargs),
            n_countries=max(2, len(train_ds.country_labels)),
            n_provinces=max(2, len(train_ds.province_labels)),
            mode=args.mode,
            **file_cfg.get("model", {}),
        )
        train_kwargs = {**file_cfg.get("train", {}), "seed": seed}
        if args.paper_protocol:
            train_kwargs.update(train_mod.PAPER_PROTOCOL)
        train_cfg = TrainConfig(**train_kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc

    model = MtlModel(model_cfg, global_seed=seed)
    result = train_mod.train(model, train_ds, dev_ds, vocab, train_cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "model.ckpt"
    hist_path = out / "history.tsv"
    save_checkpoint(ckpt_path, model, train_ds.country_labels, train_ds.province_labels, vocab)
    write_history(hist_path, result.history)
    model_doc = asdict(model_cfg)
    manifest = {
        "command": "train",
        "version": __version__,
        "seed": seed,
        "resolved_config": {
            "encoder": model_doc.pop("encoder"),
            "model": model_doc,
            "train": asdict(train_cfg),
            "vocab": {name: getattr(vocab, name) for name in _settings(Vocabulary)},
        },
        "inputs": {
            "train": {"path": str(args.train), "sha256": _sha256(args.train)},
            "dev": {"path": str(args.dev), "sha256": _sha256(args.dev)},
            "config": {"path": str(args.config), "sha256": _sha256(args.config)},
        },
        "artifacts": {"checkpoint": str(ckpt_path), "history": str(hist_path)},
        "best_epoch": result.best_epoch,
        "duration_seconds": time.monotonic() - started,
    }
    _write_manifest(out / "manifest.json", manifest)
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.model)
    dataset = relabel(load_tsv(args.data), ckpt.country_labels, ckpt.province_labels)
    reports = evaluate(ckpt.model, dataset, ckpt.vocab)
    for task in ("country", "province"):
        if task in reports:
            rep = reports[task]
            print(f"{task} f1={100 * rep.macro_f1:.2f} acc={100 * rep.accuracy:.2f}")
    if args.confusion:
        conf_dir = Path(args.confusion)
        conf_dir.mkdir(parents=True, exist_ok=True)
        labels = {"country": ckpt.country_labels, "province": ckpt.province_labels}
        for task, rep in reports.items():
            write_confusion(conf_dir / f"confusion_{task}.tsv", labels[task], rep.confusion)
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.model)
    rows = load_texts(args.infile)
    preds = predict_texts(ckpt.model, ckpt.vocab, [text for _, text in rows])
    labels = {"country": ckpt.country_labels, "province": ckpt.province_labels}
    lines = []
    for i, (ex_id, _) in enumerate(rows):
        names = [labels[task][preds[task][i]] if task in preds else "NA" for task in labels]
        lines.append("\t".join([ex_id, *names]) + "\n")
    Path(args.out).write_text("".join(lines), encoding="utf-8")
    return 0


def cmd_distribution(args) -> int:
    dataset = load_tsv(args.data)
    for task, pairs in data_mod.label_distribution(dataset).items():
        for label, count in pairs:
            print(f"{task}\t{label}\t{count}")
    return 0


def cmd_synth(args) -> int:
    started = time.monotonic()
    try:
        config = SynthConfig(**{name: getattr(args, name) for name in _settings(SynthConfig)})
    except ValueError as exc:
        raise UsageError(f"invalid synthesis settings: {exc}") from exc
    splits = synth_generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    p_train.add_argument("--seed", type=int, default=None, help=f"global seed (falls back to ${SEED_ENV_VAR})")
    p_train.add_argument(
        "--paper-protocol",
        action="store_true",
        help="use the reference protocol: lr 1e-5, batch 16, 5 epochs",
    )
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
    except (UsageError, DataError, LabelSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, corrupt checkpoints, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
