"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Each criterion is deterministic: corpora, initialization,
and training all flow from frozen seeds.
"""

import time
from contextlib import contextmanager

import numpy as np

from gradcheck import max_grad_error
from mtlid.attnpool import param_specs, task_attention
from mtlid.cli import main as cli_main
from mtlid.data import Dataset, SynthConfig, synth_generate
from mtlid.encoder import EncoderConfig
from mtlid.model import (
    MODE_COUNTRY,
    MODE_PROVINCE,
    MtlModel,
    ModelConfig,
    compute_loss,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from mtlid.preprocess import (
    ARABIC_DIACRITICS,
    CLS_ID,
    PAD_ID,
    TokenSequence,
    build_vocab,
    clean_text,
)
from mtlid.tensor import Tensor, init_parameters, parameter_views
from mtlid.train import TrainConfig, evaluate, metrics_from_predictions, train


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


TOY_ENC = EncoderConfig(d_model=8, n_layers=1, n_heads=1, d_ff=16, l_max=8, vocab_size=30, dropout_rate=0.0)
TOY_CFG = dict(encoder=TOY_ENC, n_countries=3, n_provinces=6)


def toy_batch(rng, n_seqs=4, l_max=8, vocab_size=30):
    seqs = []
    for _ in range(n_seqs):
        n = int(rng.integers(2, l_max + 1))
        ids = [CLS_ID] + [int(rng.integers(3, vocab_size)) for _ in range(1, n)]
        seqs.append(TokenSequence(np.array(ids, dtype=np.int64)))
    return seqs


def test_criterion_1_gradient_suite():
    """Every parameter passes 64-bit central finite differences at h=1e-4."""
    with criterion(1, "gradient suite"):
        started = time.monotonic()
        rng = np.random.default_rng(0)
        config = ModelConfig(**TOY_CFG)
        model = MtlModel(config, global_seed=1, dtype=np.float64)
        seqs = toy_batch(rng)
        labels_c = rng.integers(0, 3, size=len(seqs))
        labels_p = rng.integers(0, 6, size=len(seqs))

        def loss_value() -> float:
            lc, lp = model.forward(seqs)
            total, _ = compute_loss(lc, lp, labels_c, labels_p, config)
            return total.item()

        lc, lp = model.forward(seqs)
        total, _ = compute_loss(lc, lp, labels_c, labels_p, config)
        total.backward()
        check_rng = np.random.default_rng(2)
        for name, p in model.params.items():
            err = max_grad_error(loss_value, p, check_rng, n_samples=50, h=1e-4, atol=1e-7)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_attention_contract():
    """1,000 random (H, mask) inputs: alpha normalized, masked zeros, v in hull."""
    with criterion(2, "attention contract"):
        rng = np.random.default_rng(3)
        d, l = 6, 10
        specs = param_specs(d, l, "country")
        params = parameter_views(init_parameters(specs, 4, np.float64), specs)
        h_data = rng.normal(scale=2.0, size=(1000, l, d))
        mask = rng.random((1000, l)) < 0.5
        mask[np.arange(1000), rng.integers(0, l, size=1000)] = True  # no degenerate rows
        out = task_attention(
            Tensor(h_data, dtype=np.float64), mask,
            params["country_attn.w_a"], params["country_attn.w_alpha"],
        )
        alpha = out.alpha.data
        assert np.all(alpha[~mask] == 0.0)
        assert np.all(np.abs(alpha.sum(axis=1) - 1.0) <= 1e-6)
        v = out.v.data
        big = np.where(mask[:, :, None], h_data, np.inf)
        small = np.where(mask[:, :, None], h_data, -np.inf)
        assert np.all(v >= big.min(axis=1) - 1e-6)
        assert np.all(v <= small.max(axis=1) + 1e-6)


def test_criterion_3_loss_decomposition():
    """Additivity on 1,000 random batches; (1,0) weights match single-task grads."""
    with criterion(3, "loss decomposition"):
        rng = np.random.default_rng(5)
        config = ModelConfig(**TOY_CFG)
        for _ in range(1000):
            b = int(rng.integers(1, 8))
            lc = Tensor(rng.normal(scale=4, size=(b, 3)).astype(np.float32))
            lp = Tensor(rng.normal(scale=4, size=(b, 6)).astype(np.float32))
            _, report = compute_loss(lc, lp, rng.integers(0, 3, b), rng.integers(0, 6, b), config)
            assert abs(report.total - (report.country + report.province)) < 1e-7

        mtl_cfg = ModelConfig(loss_weights=(1.0, 0.0), **TOY_CFG)
        single_cfg = ModelConfig(mode=MODE_COUNTRY, **TOY_CFG)
        mtl = MtlModel(mtl_cfg, global_seed=6)
        single = MtlModel(single_cfg, global_seed=6)
        seqs = toy_batch(rng)
        labels_c = rng.integers(0, 3, size=len(seqs))
        labels_p = rng.integers(0, 6, size=len(seqs))
        out_c, out_p = mtl.forward(seqs)
        total, _ = compute_loss(out_c, out_p, labels_c, labels_p, mtl_cfg)
        total.backward()
        out_c, _ = single.forward(seqs)
        total_s, _ = compute_loss(out_c, None, labels_c, None, single_cfg)
        total_s.backward()
        for name, p in single.params.items():
            assert np.all(np.abs(mtl.params[name].grad - p.grad) < 1e-6), name


def test_criterion_4_metric_oracle():
    """Metrics equal a brute-force tally on 10,000 random (gold, pred) pairs."""
    with criterion(4, "metric oracle"):
        rng = np.random.default_rng(7)
        remaining = 10_000
        while remaining > 0:
            n = int(min(remaining, rng.integers(1, 400)))
            remaining -= n
            c = int(rng.integers(2, 16))
            used = int(rng.integers(1, c + 1))  # leave some classes with zero support
            gold = rng.integers(0, used, size=n)
            pred = rng.integers(0, used, size=n)
            rep = metrics_from_predictions(gold, pred, c)
            per_class = []
            for i in range(c):
                tp = sum(1 for g, p in zip(gold, pred) if g == i and p == i)
                fp = sum(1 for g, p in zip(gold, pred) if g != i and p == i)
                fn = sum(1 for g, p in zip(gold, pred) if g == i and p != i)
                precision = tp / (tp + fp) if tp + fp > 0 else 0.0
                recall = tp / (tp + fn) if tp + fn > 0 else 0.0
                f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
                per_class.append((precision, recall, f1, tp + fn))
            assert rep.per_class == per_class
            assert rep.accuracy == sum(1 for g, p in zip(gold, pred) if g == p) / n
            assert rep.macro_f1 == sum(f1 for _, _, f1, _ in per_class) / c
            conf = np.zeros((c, c), dtype=np.int64)
            for g, p in zip(gold, pred):
                conf[g, p] += 1
            assert np.array_equal(rep.confusion, conf)


def test_criterion_5_overfit_check():
    """100% train accuracy on 64 examples within 200 epochs at lr 1e-3."""
    with criterion(5, "overfit check"):
        splits = synth_generate(
            SynthConfig(
                n_countries=2,
                provinces_per_country=2,
                examples_per_province=16,
                shared_vocab_size=40,
                country_signal_tokens=6,
                province_signal_tokens=6,
                signal_strength=1.0,
                seed=0,
                tokens_per_example=10,
            )
        )
        examples = [ex for ds in splits for ex in ds.examples]
        full = Dataset(examples, splits[0].country_labels, splits[0].province_labels)
        assert len(full) == 64
        vocab = build_vocab([clean_text(ex.text) for ex in full.examples], max_size=512)
        enc = EncoderConfig(
            d_model=32, n_layers=1, n_heads=2, d_ff=64, l_max=12,
            vocab_size=len(vocab), dropout_rate=0.0,
        )
        config = ModelConfig(encoder=enc, n_countries=2, n_provinces=4)
        model = MtlModel(config, global_seed=0)
        result = train(model, full, None, vocab, TrainConfig(learning_rate=1e-3, batch_size=16, epochs=200, seed=0))
        losses = [r.train_loss for r in result.history]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
        assert drops >= 0.9 * (len(losses) - 1), f"only {drops}/{len(losses) - 1} epochs decreased"
        rep = evaluate(model, full, vocab)
        assert rep["country"].accuracy == 1.0
        assert rep["province"].accuracy == 1.0


def test_criterion_6_mtl_benefit():
    """Joint training beats the single-province baseline by >= 2 F1 points."""
    with criterion(6, "mtl benefit"):
        started = time.monotonic()

        def province_f1(seed: int, mode: str) -> float:
            cfg = SynthConfig(
                n_countries=6,
                provinces_per_country=3,
                examples_per_province=200,
                shared_vocab_size=400,
                country_signal_tokens=300,
                province_signal_tokens=2,
                signal_strength=0.3,
                seed=seed,
                tokens_per_example=12,
            )
            train_ds, dev_ds, _ = synth_generate(cfg)
            vocab = build_vocab([clean_text(ex.text) for ex in train_ds.examples], max_size=8192)
            enc = EncoderConfig(
                d_model=32, n_layers=1, n_heads=2, d_ff=64, l_max=16,
                vocab_size=len(vocab), dropout_rate=0.0,
            )
            config = ModelConfig(
                encoder=enc,
                n_countries=len(train_ds.country_labels),
                n_provinces=len(train_ds.province_labels),
                mode=mode,
            )
            model = MtlModel(config, global_seed=seed)
            train(model, train_ds, None, vocab, TrainConfig(learning_rate=1e-3, batch_size=16, epochs=1, seed=seed))
            return evaluate(model, dev_ds, vocab)["province"].macro_f1

        seeds = range(5)
        mtl = [province_f1(s, "mtl") for s in seeds]
        single = [province_f1(s, MODE_PROVINCE) for s in seeds]
        margin = float(np.mean(mtl) - np.mean(single))
        elapsed = time.monotonic() - started
        print(
            f"[acceptance] criterion 6 detail: mtl={np.mean(mtl):.4f} single={np.mean(single):.4f} "
            f"margin={margin:+.4f} ({elapsed:.0f}s)"
        )
        assert margin >= 0.02, f"margin {margin:+.4f} below 2 points"
        assert elapsed < 900.0, f"experiment took {elapsed:.0f}s"


def test_criterion_7_determinism_and_round_trip(tmp_path):
    """Byte-identical history across runs; checkpoint round-trips bitwise."""
    with criterion(7, "determinism and round-trip"):
        splits = synth_generate(
            SynthConfig(
                n_countries=2, provinces_per_country=2, examples_per_province=12,
                shared_vocab_size=30, country_signal_tokens=4, province_signal_tokens=4,
                signal_strength=0.8, seed=1, tokens_per_example=8,
            )
        )
        from mtlid.data import save_tsv

        train_tsv = tmp_path / "train.tsv"
        dev_tsv = tmp_path / "dev.tsv"
        save_tsv(splits[0], train_tsv)
        save_tsv(splits[1], dev_tsv)
        config_json = tmp_path / "config.json"
        config_json.write_text(
            '{"encoder": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,'
            ' "l_max": 10, "vocab_size": 256, "dropout_rate": 0.1},'
            ' "train": {"epochs": 2, "batch_size": 8}}',
            encoding="utf-8",
        )
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = cli_main(
                [
                    "train",
                    "--train", str(train_tsv),
                    "--dev", str(dev_tsv),
                    "--config", str(config_json),
                    "--out", str(out),
                    "--seed", "9",
                ]
            )
            assert code == 0
            outs.append(out)
        hist_a = (outs[0] / "history.tsv").read_bytes()
        hist_b = (outs[1] / "history.tsv").read_bytes()
        assert hist_a == hist_b
        ckpt_path = outs[0] / "model.ckpt"
        ckpt = load_checkpoint(ckpt_path)
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(resaved, ckpt.model, ckpt.country_labels, ckpt.province_labels, ckpt.vocab)
        assert ckpt_path.read_bytes() == resaved.read_bytes()
        rng = np.random.default_rng(10)
        seqs = toy_batch(rng, n_seqs=6, l_max=10, vocab_size=len(ckpt.vocab))
        before_c, before_p = ckpt.model.forward(seqs)
        again = load_checkpoint(resaved)
        after_c, after_p = again.model.forward(seqs)
        assert np.array_equal(before_c.data, after_c.data)
        assert np.array_equal(before_p.data, after_p.data)
        assert np.array_equal(predict(before_c), predict(after_c))
        assert np.array_equal(predict(before_p), predict(after_p))


def test_criterion_8_preprocessing_fidelity():
    """clean_text is idempotent and removes exactly the declared code points."""
    with criterion(8, "preprocessing fidelity"):
        rng = np.random.default_rng(11)
        arabic_block = [chr(c) for c in range(0x0600, 0x0700)]
        pool = arabic_block + list(" " * 32) + list("abcXYZ019_")
        for _ in range(10_000):
            n = int(rng.integers(0, 40))
            text = "".join(pool[int(i)] for i in rng.integers(0, len(pool), size=n))
            cleaned = clean_text(text)
            assert clean_text(cleaned) == cleaned
            assert cleaned == "".join(ch for ch in text if ch not in ARABIC_DIACRITICS)
        # with mentions present, cleaning still reaches a fixed point in one
        # pass, also where an @ run meets another @ or a diacritic
        words = ["@user", "مرحباً", "abc", "@x9", "@@foo", "@\u064bfoo", "a_a\u0660@\u0670\u0660_"]
        texts = words + [
            " ".join(words[int(i)] for i in rng.integers(0, len(words), size=int(rng.integers(0, 8))))
            for _ in range(500)
        ]
        for text in texts:
            cleaned = clean_text(text)
            assert clean_text(cleaned) == cleaned, repr(text)
