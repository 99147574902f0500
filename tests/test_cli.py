"""Command-line contract: flags, exit codes, artifacts, determinism."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import mtlid
from mtlid import cli, data as data_mod, train as train_mod
from mtlid.cli import build_parser, main
from mtlid.data import SynthConfig, save_tsv, synth_generate
from mtlid.model import load_checkpoint
from mtlid.preprocess import clean_text

CONFIG = {
    "encoder": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32, "l_max": 12, "vocab_size": 512, "dropout_rate": 0.0},
    "train": {"epochs": 2, "batch_size": 8, "learning_rate": 1e-3},
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    splits = synth_generate(
        SynthConfig(
            n_countries=2,
            provinces_per_country=2,
            examples_per_province=16,
            shared_vocab_size=30,
            country_signal_tokens=4,
            province_signal_tokens=4,
            signal_strength=0.8,
            seed=0,
            tokens_per_example=8,
        )
    )
    paths = {}
    for name, ds in zip(("train", "dev", "test"), splits):
        paths[name] = root / f"{name}.tsv"
        save_tsv(ds, paths[name])
    paths["config"] = root / "config.json"
    paths["config"].write_text(json.dumps(CONFIG), encoding="utf-8")
    return paths


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(
        [
            "train",
            "--train", str(corpus["train"]),
            "--dev", str(corpus["dev"]),
            "--config", str(corpus["config"]),
            "--out", str(out),
            "--seed", "3",
        ]
    )
    assert code == 0
    return out


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["train", "--dev", "x.tsv"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_train_writes_artifacts(trained):
    assert (trained / "model.ckpt").exists()
    assert (trained / "history.tsv").exists()
    manifest = json.loads((trained / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    assert manifest["seed"] == 3
    assert manifest["resolved_config"]["train"]["epochs"] == 2
    assert manifest["resolved_config"]["encoder"]["vocab_size"] == 512  # the cap, CONFIG's encoder.vocab_size
    assert set(manifest["inputs"]) == {"train", "dev", "config"}
    assert manifest["flagged_ids"] == {"train": [], "dev": []}
    for entry in manifest["inputs"].values():
        assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"])
    assert manifest["duration_seconds"] > 0
    lines = (trained / "history.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2  # one per epoch
    assert all(len(line.split("\t")) == 6 for line in lines)


def test_train_determinism_byte_identical_history(corpus, tmp_path, trained):
    out2 = tmp_path / "run2"
    code = main(
        [
            "train",
            "--train", str(corpus["train"]),
            "--dev", str(corpus["dev"]),
            "--config", str(corpus["config"]),
            "--out", str(out2),
            "--seed", "3",
        ]
    )
    assert code == 0
    assert (trained / "history.tsv").read_bytes() == (out2 / "history.tsv").read_bytes()
    assert (trained / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()


def test_readme_paper_protocol_block_resolves_reference_settings(corpus, tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```json\n(.*?)^```", readme, re.S | re.M).group(1)
    config = dict(CONFIG, **json.loads(block))
    cfg_path = tmp_path / "paper.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    args = [
        "train",
        "--train", str(corpus["train"]),
        "--dev", str(corpus["dev"]),
        "--config", str(cfg_path),
    ]
    assert main([*args, "--out", str(tmp_path / "pp")]) == 0
    resolved = json.loads((tmp_path / "pp" / "manifest.json").read_text(encoding="utf-8"))["resolved_config"]["train"]
    assert (resolved["learning_rate"], resolved["batch_size"], resolved["epochs"]) == (1e-5, 16, 5)
    # the config file is the one channel for training settings
    assert main([*args, "--out", str(tmp_path / "flag"), "--paper-protocol"]) == 2
    assert "--paper-protocol" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


def test_manifest_records_rows_empty_after_cleaning(corpus, tmp_path):
    # a text of diacritics alone cleans to nothing: the row trains as [CLS]
    # alone and the manifest names it, per split
    train = tmp_path / "train.tsv"
    train.write_text(corpus["train"].read_text(encoding="utf-8") + "e1\t\u064b\u064c\tc00\tc00p00\n", encoding="utf-8")
    dev = tmp_path / "dev.tsv"
    dev.write_text(corpus["dev"].read_text(encoding="utf-8") + "e2\t\u0640\tc01\tc01p00\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main(["train", "--train", str(train), "--dev", str(dev), "--config", str(corpus["config"]), "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["flagged_ids"] == {"train": ["e1"], "dev": ["e2"]}
    assert manifest["seed"] == 0


def test_train_cleans_each_split_twice_whatever_the_epoch_count(corpus, tmp_path, monkeypatch):
    # cmd_train cleans train for the vocabulary and dev for the manifest, and
    # train encodes each split once, not dev again after every epoch.
    calls = []

    def counted(text):
        calls.append(text)
        return clean_text(text)

    monkeypatch.setattr(cli, "clean_text", counted)
    monkeypatch.setattr(train_mod, "clean_text", counted)
    args = ["train", "--train", str(corpus["train"]), "--dev", str(corpus["dev"]), "--config", str(corpus["config"])]
    assert main([*args, "--out", str(tmp_path / "o")]) == 0
    n_train, n_dev = (len(data_mod.load_tsv(corpus[split]).examples) for split in ("train", "dev"))
    assert CONFIG["train"]["epochs"] == 2
    assert len(calls) == 2 * n_train + 2 * n_dev


def test_manifest_records_the_blas_build_and_threads(corpus, tmp_path, monkeypatch):
    # seeded bytes repeat for one numpy/BLAS build and thread count, so the
    # manifest names them; an unset thread variable is recorded as null
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "o"
    args = ["--train", str(corpus["train"]), "--dev", str(corpus["dev"]), "--config", str(corpus["config"])]
    assert main(["train", *args, "--out", str(out)]) == 0
    runtime = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runtime"]
    assert runtime["numpy"] == np.__version__
    assert set(runtime["blas"]) == {"name", "version"}
    assert set(runtime["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert runtime["threads"]["OPENBLAS_NUM_THREADS"] == "3"
    assert runtime["threads"]["MKL_NUM_THREADS"] is None


@pytest.mark.parametrize("user_set", [{}, {"MKL_NUM_THREADS": "3"}], ids=["all-unset", "mkl-set"])
def test_the_console_entry_sets_each_unset_blas_thread_variable_to_one(corpus, tmp_path, user_set):
    # the installed command pins BLAS to one thread before numpy loads, so
    # OpenBLAS's threads do not compete with the inference helper; a value
    # the user sets wins
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^mtlid = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    entry = f"import sys; from {module} import {func}; assert 'numpy' not in sys.modules; sys.exit({func}())"
    env = {var: value for var, value in os.environ.items() if var not in mtlid.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(mtlid.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    env.update(user_set)
    out = tmp_path / "o"
    args = ["--train", str(corpus["train"]), "--dev", str(corpus["dev"]), "--config", str(corpus["config"])]
    run = subprocess.run([sys.executable, "-c", entry, "train", *args, "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    threads = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runtime"]["threads"]
    assert threads == {var: user_set.get(var, "1") for var in mtlid.BLAS_THREAD_VARS}


def test_bad_config_is_usage_error(corpus, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    reached = []

    def no_training(*args, **kwargs):
        reached.append(args)
        raise AssertionError("train.train reached")

    monkeypatch.setattr(train_mod, "train", no_training)
    cases = [
        ('{"encoder": {"bogus_knob": 1}}', "bogus_knob"),
        ('{"encoder": 5}', "'encoder' must be a JSON object"),
        ('{"vocab": {"max_size": 100}}', "unknown section 'vocab'"),
        ('{"model": {"hidden_size": 64}}', "unknown keys in 'model': ['hidden_size']"),
        # a config file is UTF-8
        (b"\xff\xfe{}", "is not valid UTF-8 JSON"),
        # the vocabulary cap is a count that holds the reserved tokens
        ('{"encoder": {"vocab_size": 2}}', "vocab_size must be >= 3"),
        ('{"encoder": {"vocab_size": 1.5}}', "vocab_size must be an integer"),
        ('{"encoder": {"vocab_size": true}}', "vocab_size must be an integer"),
        # the seed comes from --seed only
        ('{"train": {"seed": 4}}', "'seed'"),
        # counts are integers, and a sequence holds at least [CLS] and one token
        ('{"train": {"epochs": 1.5}}', "epochs must be an integer"),
        ('{"encoder": {"n_layers": 1.5}}', "n_layers must be an integer"),
        ('{"encoder": {"l_max": 1}}', "l_max must be >= 2"),
        # rates and weights are finite, and some head must learn
        ('{"train": {"learning_rate": NaN}}', "learning_rate must be finite"),
        ('{"train": {"learning_rate": Infinity}}', "learning_rate must be finite"),
        # a JSON boolean is not a number
        ('{"train": {"learning_rate": true}}', "learning_rate must be finite"),
        ('{"encoder": {"dropout_rate": false}}', "dropout_rate must be finite"),
        ('{"model": {"loss_weights": [true, false]}}', "loss_weights must be finite"),
        ('{"model": {"loss_weights": [NaN, 1.0]}}', "loss_weights must be finite"),
        ('{"model": {"loss_weights": [Infinity, 1.0]}}', "loss_weights must be finite"),
        ('{"model": {"loss_weights": [0.0, 0.0]}}', "positive weight"),
        ('{"model": {"loss_weights": 5}}', "loss_weights must be a [country, province] pair"),
        ('{"model": {"loss_weights": [1]}}', "loss_weights must be a [country, province] pair"),
        ('{"model": {"loss_weights": [1, 1, 1]}}', "loss_weights must be a [country, province] pair"),
        # the last value of a repeated key would win silently
        ('{"train": {"epochs": 1}, "train": {"epochs": 2}}', "duplicate key 'train'"),
        ('{"train": {"epochs": 1, "epochs": 2}}', "duplicate key 'epochs'"),
        # sizes numpy refuses before allocating anything name the largest
        # parameter; the last total is past int64
        ('{"encoder": {"l_max": 1000000000000}}', "parameters, the largest 'country_attn.w_alpha' of shape (1000000000000, 1000000000000)"),
        ('{"encoder": {"l_max": 3000000000}}', "parameters, the largest 'country_attn.w_alpha' of shape (3000000000, 3000000000)"),
        ('{"encoder": {"d_model": 10000000000}}', "parameters, the largest 'encoder.layer0.attn.wqkv' of shape (10000000000, 30000000000)"),
        # numpy's generators take no negative seed
        ("{}", "seed must be a nonnegative integer", "--seed", "-1"),
        # the output directory is checked before any work: an existing file
        # or a path under one cannot become the run directory
        ("{}", "exists and is not a directory", "--out", str(taken)),
        ("{}", "exists and is not a directory", "--out", str(taken / "run")),
    ]
    bad = tmp_path / "bad.json"
    for config, needle, *flags in cases:
        bad.write_bytes(config if isinstance(config, bytes) else config.encode("utf-8"))
        code = main(
            [
                "train",
                "--train", str(corpus["train"]),
                "--dev", str(corpus["dev"]),
                "--config", str(bad),
                "--out", str(tmp_path / "o"),
                *flags,
            ]
        )
        err = capsys.readouterr().err
        assert code == 2, config
        assert err.startswith("error: ") and needle in err, (config, err)
        assert not (tmp_path / "o").exists()
    assert reached == []
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_diverging_run_fails_without_artifacts(corpus, trained, tmp_path, capsys):
    config = dict(CONFIG, train={"epochs": 3, "batch_size": 8, "learning_rate": 1e9})
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o"
    argv = [
        "train",
        "--train", str(corpus["train"]),
        "--dev", str(corpus["dev"]),
        "--config", str(cfg_path),
        "--out", str(out),
    ]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert re.match(r"error: training diverged: loss \S+ at epoch \d+, step \d+", err), err
    assert not out.exists()
    # into an earlier run's directory, it leaves that run whole, its manifest included
    shutil.copytree(trained, out)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: training diverged")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("command", ["train", "synth"])
def test_failed_manifest_write_leaves_no_temporary_file(corpus, tmp_path, capsys, command):
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)  # os.replace cannot put a file there
    flags = {
        "train": ["--train", str(corpus["train"]), "--dev", str(corpus["dev"]), "--config", str(corpus["config"])],
        "synth": ["--n-countries", "2", "--provinces-per-country", "2", "--examples-per-province", "4"],
    }[command]
    assert main([command, *flags, "--out", str(out)]) == 1
    assert "manifest.json" in capsys.readouterr().err
    assert not (out / "manifest.json.tmp").exists()


class _DiskFull:
    """A file that takes half of the first chunk written to it, then fails like a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, chunk):
        view = memoryview(chunk).cast("B")
        self.f.write(view[: len(view) // 2])
        raise OSError("No space left on device")


# every kind of file a command writes: (the command, the file it writes)
OUTPUTS = {
    "checkpoint": ("train", "model.ckpt"),
    "history": ("train", "history.tsv"),
    "manifest": ("train", "manifest.json"),
    "confusion": ("eval", "confusion_country.tsv"),
    "synth": ("synth", "train.tsv"),
    "predictions": ("predict", "preds.tsv"),
}


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_write_keeps_the_earlier_output(corpus, trained, tmp_path, capsys, monkeypatch, fail_at, output):
    command, name = OUTPUTS[output]
    flags = {
        "train": ["--train", str(corpus["train"]), "--dev", str(corpus["dev"]), "--config", str(corpus["config"]),
                  "--out", str(tmp_path)],
        "eval": ["--model", str(trained / "model.ckpt"), "--data", str(corpus["test"]), "--confusion", str(tmp_path)],
        "synth": ["--n-countries", "2", "--provinces-per-country", "2", "--examples-per-province", "4",
                  "--out", str(tmp_path)],
        "predict": ["--model", str(trained / "model.ckpt"), "--in", str(corpus["test"]), "--out", str(tmp_path / name)],
    }[command]
    target, tmp = tmp_path / name, tmp_path / f"{name}.tmp"
    target.write_bytes(b"earlier output\n")
    failed = []
    if fail_at == "write":  # partway through the bytes
        def failing_open(file, *args, **kwargs):
            f = open(file, *args, **kwargs)
            if Path(file) != tmp:
                return f
            failed.append(Path(file))
            return _DiskFull(f)

        monkeypatch.setattr(data_mod, "open", failing_open, raising=False)
    else:  # once the bytes are complete, at the rename onto the target
        replace = data_mod.os.replace

        def failing_replace(src, dst):
            if Path(dst) != target:
                return replace(src, dst)
            failed.append(Path(src))
            raise OSError("No space left on device")

        monkeypatch.setattr(data_mod.os, "replace", failing_replace)
    assert main([command, *flags]) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert failed == [tmp]  # the bytes went to the temporary file, never to the target
    if output == "manifest":  # removed before the run's first write: it described other files
        assert not target.exists()
    else:
        assert target.read_bytes() == b"earlier output\n"
    assert list(tmp_path.glob("*.tmp")) == []
    monkeypatch.undo()
    assert main([command, *flags]) == 0  # the same run, with room to write, replaces the file
    assert target.read_bytes() != b"earlier output\n"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("command, name", [("train", "history.tsv"), ("synth", "dev.tsv")])
def test_failed_run_leaves_no_manifest_of_an_earlier_run(corpus, trained, tmp_path, capsys, monkeypatch, command,
                                                         name):
    # A second run into a run directory replaces its files one at a time; once
    # one fails, the files before it hold the second run, so no manifest may
    # still describe the first.
    out = tmp_path / "o"
    synth = ["synth", "--n-countries", "2", "--provinces-per-country", "2", "--examples-per-province", "4"]
    if command == "train":
        shutil.copytree(trained, out)  # seed 3
        argv = ["train", "--train", str(corpus["train"]), "--dev", str(corpus["dev"]),
                "--config", str(corpus["config"]), "--out", str(out)]
    else:
        assert main([*synth, "--seed", "1", "--out", str(out)]) == 0
        argv = [*synth, "--seed", "2", "--out", str(out)]
    assert (out / "manifest.json").exists()
    replace = data_mod.os.replace

    def failing_replace(src, dst):
        if Path(dst) == out / name:
            raise OSError("No space left on device")
        return replace(src, dst)

    monkeypatch.setattr(data_mod.os, "replace", failing_replace)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert not (out / "manifest.json").exists()


def test_manifest_resolved_config_replays_the_run(corpus, tmp_path):
    args = ["--train", str(corpus["train"]), "--dev", str(corpus["dev"])]
    first = tmp_path / "first"
    assert main(["train", *args, "--config", str(corpus["config"]), "--out", str(first), "--mode", "country",
                 "--seed", "5"]) == 0
    manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["mode"], manifest["seed"]) == ("country", 5)
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(manifest["resolved_config"]), encoding="utf-8")
    replay = tmp_path / "replay"
    assert main(["train", *args, "--config", str(replay_cfg), "--out", str(replay), "--mode", manifest["mode"],
                 "--seed", str(manifest["seed"])]) == 0
    assert (replay / "model.ckpt").read_bytes() == (first / "model.ckpt").read_bytes()
    # the replay's manifest resolves to the same config
    assert json.loads((replay / "manifest.json").read_text(encoding="utf-8"))["resolved_config"] == manifest["resolved_config"]


def test_non_utf8_training_data_is_exit_2(corpus, tmp_path, capsys):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes(corpus["train"].read_bytes() + "x999\tcaf\u00e9\tc00\tc00p00\n".encode("latin-1"))
    code = main(
        [
            "train",
            "--train", str(bad),
            "--dev", str(corpus["dev"]),
            "--config", str(corpus["config"]),
            "--out", str(tmp_path / "o"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "latin1.tsv: not UTF-8" in err, err
    assert not (tmp_path / "o").exists()


def test_manifest_digests_the_inputs_before_training(corpus, tmp_path, monkeypatch):
    # an input edited while the run trains is recorded as the bytes it read
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG), encoding="utf-8")
    original = sha(cfg)
    real_train = train_mod.train

    def train_then_edit_config(*args, **kwargs):
        result = real_train(*args, **kwargs)
        cfg.write_text("{}", encoding="utf-8")
        return result

    monkeypatch.setattr(train_mod, "train", train_then_edit_config)
    out = tmp_path / "o"
    code = main(
        [
            "train",
            "--train", str(corpus["train"]),
            "--dev", str(corpus["dev"]),
            "--config", str(cfg),
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"]["config"]["sha256"] == original != sha(cfg)


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("train", "--train"),
        ("train", "--dev"),
        ("train", "--config"),
        ("eval", "--data"),
        ("eval", "--model"),
        ("predict", "--in"),
        ("predict", "--model"),
        ("distribution", "--data"),
    ],
)
def test_bad_input_path_is_usage_error(corpus, trained, tmp_path, capsys, monkeypatch, command, flag, kind):
    # every data, config and checkpoint input is checked before any work, with one rule
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    out = tmp_path / "out"
    flags = {
        "train": {"--train": corpus["train"], "--dev": corpus["dev"], "--config": corpus["config"], "--out": out},
        "eval": {"--model": trained / "model.ckpt", "--data": corpus["test"], "--confusion": out},
        "predict": {"--model": trained / "model.ckpt", "--in": corpus["test"], "--out": out / "p.tsv"},
        "distribution": {"--data": corpus["train"]},
    }[command]
    flags[flag] = bad
    reached = []

    def no_work(*args, **kwargs):
        reached.append(args)
        raise AssertionError("input read before every input was checked")

    for name in ("load_tsv", "load_texts", "load_checkpoint", "_load_config_file"):
        monkeypatch.setattr(cli, name, no_work)
    code = main([command, *(str(x) for pair in flags.items() for x in pair)])
    stdout, err = capsys.readouterr()
    assert code == 2
    assert err == f"error: {flag} {bad}: not a readable file\n"
    assert stdout == "" and reached == [] and not out.exists()


def test_inputs_never_mutated(corpus, trained):
    before = {name: sha(corpus[name]) for name in ("train", "dev", "config")}
    main(["eval", "--model", str(trained / "model.ckpt"), "--data", str(corpus["dev"])])
    after = {name: sha(corpus[name]) for name in ("train", "dev", "config")}
    assert before == after


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_output_format(corpus, trained, capsys):
    code = main(["eval", "--model", str(trained / "model.ckpt"), "--data", str(corpus["test"])])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert re.fullmatch(r"country f1=\d+\.\d{2} acc=\d+\.\d{2}", out[0])
    assert re.fullmatch(r"province f1=\d+\.\d{2} acc=\d+\.\d{2}", out[1])


def test_eval_perfect_model_prints_hundreds(corpus, tmp_path, capsys):
    out = tmp_path / "perfect"
    config = dict(CONFIG)
    config["train"] = {"epochs": 25, "batch_size": 8, "learning_rate": 1e-3}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(
        [
            "train",
            "--train", str(corpus["train"]),
            "--dev", str(corpus["train"]),
            "--config", str(cfg_path),
            "--out", str(out),
            "--seed", "0",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(out / "model.ckpt"), "--data", str(corpus["train"])]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "country f1=100.00 acc=100.00"


def test_eval_deterministic(corpus, trained, capsys):
    main(["eval", "--model", str(trained / "model.ckpt"), "--data", str(corpus["test"])])
    first = capsys.readouterr().out
    main(["eval", "--model", str(trained / "model.ckpt"), "--data", str(corpus["test"])])
    assert capsys.readouterr().out == first


def test_eval_writes_confusion_matrices(corpus, trained, tmp_path, capsys):
    conf_dir = tmp_path / "conf"
    args = ["eval", "--model", str(trained / "model.ckpt"), "--data", str(corpus["test"])]
    # a confusion path that cannot be a directory fails before any scoring
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    assert main([*args, "--confusion", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --confusion") and "not a directory" in err, err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"
    code = main([*args, "--confusion", str(conf_dir)])
    assert code == 0
    country = (conf_dir / "confusion_country.tsv").read_text(encoding="utf-8").splitlines()
    assert country[0].split("\t") == ["c00", "c01"]
    total = sum(int(x) for line in country[1:] for x in line.split("\t"))
    n_test = len(corpus["test"].read_text(encoding="utf-8").splitlines()) - 1
    assert total == n_test


def test_eval_label_space_mismatch_exit_2(trained, tmp_path, capsys):
    alien = tmp_path / "alien.tsv"
    alien.write_text("id\ttext\tcountry\tprovince\nx\tw0001\tMars\tOlympus\n", encoding="utf-8")
    code = main(["eval", "--model", str(trained / "model.ckpt"), "--data", str(alien)])
    assert code == 2
    assert "label-space mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_truncated_model_is_runtime_error(corpus, trained, tmp_path, capsys, command):
    # a checkpoint that is a readable file but cannot be loaded is a runtime failure
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((trained / "model.ckpt").read_bytes()[:100])
    flags = {
        "eval": ["--data", str(corpus["test"])],
        "predict": ["--in", str(corpus["test"]), "--out", str(tmp_path / "p.tsv")],
    }[command]
    assert main([command, "--model", str(cut), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "p.tsv").exists()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_writes_labels(corpus, trained, tmp_path):
    out = tmp_path / "new" / "preds.tsv"  # a missing output directory is created
    code = main(["predict", "--model", str(trained / "model.ckpt"), "--in", str(corpus["test"]), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    n_inputs = len(corpus["test"].read_text(encoding="utf-8").splitlines()) - 1  # header
    assert len(lines) == n_inputs
    ckpt = load_checkpoint(trained / "model.ckpt")
    for line in lines:
        _, country, province = line.split("\t")
        assert country in ckpt.country_labels
        assert province in ckpt.province_labels


def test_predict_empty_input(trained, tmp_path):
    src = tmp_path / "empty.tsv"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "preds.tsv"
    assert main(["predict", "--model", str(trained / "model.ckpt"), "--in", str(src), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""


def test_predict_handles_unknown_tokens(trained, tmp_path):
    src = tmp_path / "oov.tsv"
    src.write_text("q1\ttotally unseen words here\n", encoding="utf-8")
    out = tmp_path / "preds.tsv"
    assert main(["predict", "--model", str(trained / "model.ckpt"), "--in", str(src), "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1


def test_reserved_tokens_in_the_text_train_a_loadable_model(corpus, tmp_path):
    # a literal [UNK], [PAD] or [CLS], however frequent, is not a second vocabulary entry
    rows = "".join(f"r{i}\t[UNK] [PAD] [CLS] [UNK]\tc00\tc00p00\n" for i in range(6))
    train = tmp_path / "train.tsv"
    train.write_text(corpus["train"].read_text(encoding="utf-8") + rows, encoding="utf-8")
    out = tmp_path / "o"
    args = ["--train", str(train), "--dev", str(corpus["dev"]), "--config", str(corpus["config"])]
    assert main(["train", *args, "--out", str(out)]) == 0
    assert load_checkpoint(out / "model.ckpt").vocab.id_to_token.count("[UNK]") == 1
    preds = tmp_path / "preds.tsv"
    assert main(["predict", "--model", str(out / "model.ckpt"), "--in", str(train), "--out", str(preds)]) == 0
    assert main(["eval", "--model", str(out / "model.ckpt"), "--data", str(corpus["dev"])]) == 0


def test_predict_bad_out_is_usage_error(corpus, trained, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    reached = []

    def no_prediction(*args, **kwargs):
        reached.append(args)
        raise AssertionError("predict_texts reached")

    monkeypatch.setattr(cli, "predict_texts", no_prediction)
    # the output is checked before the checkpoint loads: an existing
    # directory, or a file under an existing file, cannot be written
    for out, needle in (
        (tmp_path, "is a directory"),
        (taken / "p.tsv", "exists and is not a directory"),
        (taken / "sub" / "p.tsv", "exists and is not a directory"),
    ):
        code = main(["predict", "--model", str(trained / "model.ckpt"), "--in", str(corpus["test"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, out
        assert err.startswith("error: ") and needle in err, (out, err)
    assert reached == []
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


# ---------------------------------------------------------------------------
# distribution / synth
# ---------------------------------------------------------------------------


def test_distribution_counts_sum_to_dataset_size(corpus, capsys):
    assert main(["distribution", "--data", str(corpus["train"])]) == 0
    lines = capsys.readouterr().out.splitlines()
    country_total = sum(int(line.split("\t")[2]) for line in lines if line.startswith("country\t"))
    province_total = sum(int(line.split("\t")[2]) for line in lines if line.startswith("province\t"))
    n = len(corpus["train"].read_text(encoding="utf-8").splitlines()) - 1
    assert country_total == n
    assert province_total == n


def test_distribution_uniform_counts_equal(corpus, capsys):
    main(["distribution", "--data", str(corpus["train"])])
    lines = capsys.readouterr().out.splitlines()
    counts = {int(line.split("\t")[2]) for line in lines if line.startswith("country\t")}
    assert len(counts) == 1


def test_synth_flags_default_to_synth_config():
    args = build_parser().parse_args(["synth", "--out", "x"])
    assert {f.name: getattr(args, f.name) for f in fields(SynthConfig)} == asdict(SynthConfig())


def test_synth_same_seed_identical_digests(tmp_path):
    args = [
        "synth", "--n-countries", "2", "--provinces-per-country", "2",
        "--examples-per-province", "10", "--seed", "7",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    man_a = json.loads((tmp_path / "a" / "manifest.json").read_text(encoding="utf-8"))
    man_b = json.loads((tmp_path / "b" / "manifest.json").read_text(encoding="utf-8"))
    for split in ("train", "dev", "test"):
        assert man_a["artifacts"][split]["sha256"] == man_b["artifacts"][split]["sha256"]
        assert sha(tmp_path / "a" / f"{split}.tsv") == man_a["artifacts"][split]["sha256"]


def test_synth_bad_out_is_usage_error(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    reached = []

    def no_generation(*args, **kwargs):
        reached.append(args)
        raise AssertionError("synth_generate reached")

    monkeypatch.setattr(cli, "synth_generate", no_generation)
    for out in (taken, taken / "sub"):
        code = main(["synth", "--examples-per-province", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, out
        assert err.startswith("error: ") and "exists and is not a directory" in err, (out, err)
    assert reached == []
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_synth_output_trains(tmp_path, corpus):
    assert main(["synth", "--n-countries", "2", "--provinces-per-country", "2",
                 "--examples-per-province", "12", "--seed", "1", "--out", str(tmp_path / "s")]) == 0
    code = main(
        [
            "train",
            "--train", str(tmp_path / "s" / "train.tsv"),
            "--dev", str(tmp_path / "s" / "dev.tsv"),
            "--config", str(corpus["config"]),
            "--out", str(tmp_path / "s" / "run"),
        ]
    )
    assert code == 0


def test_single_task_mode_via_cli(corpus, tmp_path, capsys):
    out = tmp_path / "single"
    code = main(
        [
            "train",
            "--train", str(corpus["train"]),
            "--dev", str(corpus["dev"]),
            "--config", str(corpus["config"]),
            "--out", str(out),
            "--mode", "country",
            "--seed", "0",
        ]
    )
    assert code == 0
    lines = (out / "history.tsv").read_text(encoding="utf-8").splitlines()
    fields = lines[-1].split("\t")
    assert fields[4] == "nan" and fields[5] == "nan"  # province columns absent
    assert main(["eval", "--model", str(out / "model.ckpt"), "--data", str(corpus["test"])]) == 0
    assert capsys.readouterr().out.startswith("country f1=")


def _one_label_corpus(corpus, tmp_path, task, label):
    """The corpus splits with every row's `task` label set to `label`."""
    column = {"country": 2, "province": 3}[task]
    paths = {}
    for split in ("train", "dev", "test"):
        header, *rows = corpus[split].read_text(encoding="utf-8").splitlines()
        cells = [row.split("\t") for row in rows]
        for row in cells:
            row[column] = label
        paths[split] = tmp_path / f"{split}.tsv"
        paths[split].write_text("\n".join([header, *("\t".join(row) for row in cells)]) + "\n", encoding="utf-8")
    return paths


def _assert_head_needs_two_labels(corpus, paths, tmp_path, capsys, task):
    # the error names the training file, the head and its label count, and nothing is written
    args = ["train", "--train", str(paths["train"]), "--dev", str(paths["dev"]), "--config", str(corpus["config"])]
    for mode in ("mtl", task):
        out = tmp_path / mode
        assert main([*args, "--out", str(out), "--mode", mode]) == 2
        assert capsys.readouterr().err == (
            f"error: --train {paths['train']}: the {task} head needs at least 2 labels, found 1\n"
        )
        assert not out.exists()
    return args


def test_one_province_corpus_is_named_as_the_training_file(corpus, tmp_path, capsys):
    paths = _one_label_corpus(corpus, tmp_path, "province", "cairo")
    args = _assert_head_needs_two_labels(corpus, paths, tmp_path, capsys, "province")
    assert main([*args, "--out", str(tmp_path / "country"), "--mode", "country"]) == 0


def test_one_country_corpus_trains_only_the_province_head(corpus, tmp_path, capsys):
    # Each head's classes are its labels, and a head the mode trains needs
    # two: with one country in the data, only the province baseline trains.
    paths = _one_label_corpus(corpus, tmp_path, "country", "egypt")
    args = _assert_head_needs_two_labels(corpus, paths, tmp_path, capsys, "country")
    out = tmp_path / "province"
    assert main([*args, "--out", str(out), "--mode", "province"]) == 0
    assert load_checkpoint(out / "model.ckpt").country_labels == ["egypt"]
    preds = tmp_path / "preds.tsv"
    assert main(["predict", "--model", str(out / "model.ckpt"), "--in", str(paths["test"]), "--out", str(preds)]) == 0
    rows = [line.split("\t") for line in preds.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == len(paths["test"].read_text(encoding="utf-8").splitlines()) - 1
    assert {country for _, country, _ in rows} == {"NA"}
    capsys.readouterr()
    assert main(["eval", "--model", str(out / "model.ckpt"), "--data", str(paths["test"])]) == 0
    assert re.fullmatch(r"province f1=\d+\.\d{2} acc=\d+\.\d{2}\n", capsys.readouterr().out)
