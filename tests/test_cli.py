"""Command-line contract: flags, exit codes, artifacts, determinism."""

import hashlib
import json
import re
from dataclasses import asdict, fields

import pytest

from mtlid.cli import build_parser, main
from mtlid.data import SynthConfig, save_tsv, synth_generate
from mtlid.model import load_checkpoint

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
    assert set(manifest["inputs"]) == {"train", "dev", "config"}
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


def test_paper_protocol_resolves_reference_settings(corpus, tmp_path):
    out = tmp_path / "pp"
    code = main(
        [
            "train",
            "--train", str(corpus["train"]),
            "--dev", str(corpus["dev"]),
            "--config", str(corpus["config"]),
            "--out", str(out),
            "--paper-protocol",
        ]
    )
    assert code == 0
    resolved = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["resolved_config"]["train"]
    assert resolved["learning_rate"] == 1e-5
    assert resolved["batch_size"] == 16
    assert resolved["epochs"] == 5


def test_seed_env_fallback(corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("MTLID_SEED", "11")
    out = tmp_path / "env"
    code = main(
        [
            "train",
            "--train", str(corpus["train"]),
            "--dev", str(corpus["dev"]),
            "--config", str(corpus["config"]),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["seed"] == 11


def test_bad_config_is_usage_error(corpus, tmp_path, capsys):
    cases = [
        ('{"encoder": {"bogus_knob": 1}}', "bogus_knob"),
        ('{"encoder": 5}', "'encoder' must be a JSON object"),
        ('{"vocab": {"min_frequency": 0}}', "min_frequency"),
        ('{"encoder": {"vocab_size": 2}}', "max_size"),
        # the seed comes from --seed or MTLID_SEED only
        ('{"train": {"seed": 4}}', "'seed'"),
        # counts are integers, and a sequence holds at least [CLS] and one token
        ('{"train": {"epochs": 1.5}}', "epochs must be an integer"),
        ('{"encoder": {"n_layers": 1.5}}', "n_layers must be an integer"),
        ('{"encoder": {"l_max": 1}}', "l_max must be >= 2"),
    ]
    bad = tmp_path / "bad.json"
    for config, needle in cases:
        bad.write_text(config, encoding="utf-8")
        code = main(
            [
                "train",
                "--train", str(corpus["train"]),
                "--dev", str(corpus["dev"]),
                "--config", str(bad),
                "--out", str(tmp_path / "o"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2, config
        assert err.startswith("error: ") and needle in err, (config, err)
        assert not (tmp_path / "o").exists()


def test_diverging_run_fails_without_artifacts(corpus, tmp_path, capsys):
    config = dict(CONFIG, train={"epochs": 3, "batch_size": 8, "learning_rate": 1e9})
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o"
    code = main(
        [
            "train",
            "--train", str(corpus["train"]),
            "--dev", str(corpus["dev"]),
            "--config", str(cfg_path),
            "--out", str(out),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert re.match(r"error: training diverged: loss \S+ at epoch \d+, step \d+", err), err
    assert not out.exists()


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


def test_eval_writes_confusion_matrices(corpus, trained, tmp_path):
    conf_dir = tmp_path / "conf"
    code = main(
        [
            "eval",
            "--model", str(trained / "model.ckpt"),
            "--data", str(corpus["test"]),
            "--confusion", str(conf_dir),
        ]
    )
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


def test_eval_unreadable_model_exit_1(tmp_path, corpus):
    missing = tmp_path / "nope.ckpt"
    assert main(["eval", "--model", str(missing), "--data", str(corpus["test"])]) == 1


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_writes_labels(corpus, trained, tmp_path):
    out = tmp_path / "preds.tsv"
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


def test_predict_unreadable_model_exit_1(tmp_path, corpus):
    assert main(["predict", "--model", str(tmp_path / "no.ckpt"), "--in", str(corpus["test"]), "--out", str(tmp_path / "o.tsv")]) == 1


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
