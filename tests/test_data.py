"""TSV ingestion, label statistics, and the synthetic corpus generator."""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtlid.data import (
    DataError,
    Dataset,
    Example,
    SynthConfig,
    label_distribution,
    load_texts,
    load_tsv,
    relabel,
    save_tsv,
    synth_generate,
)
from mtlid.encoder import EncoderConfig
from mtlid.model import MtlModel, ModelConfig
from mtlid.preprocess import build_vocab, clean_text
from mtlid.train import TrainConfig, evaluate, train


# ---------------------------------------------------------------------------
# TSV parsing
# ---------------------------------------------------------------------------


def test_load_tsv_with_header(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("id\ttext\tcountry\tprovince\nx1\thello there\tEgypt\tCairo\n", encoding="utf-8")
    ds = load_tsv(path)
    assert len(ds) == 1
    assert ds.examples[0].id == "x1"
    assert ds.country_labels == ["Egypt"]


def test_load_tsv_without_header(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("x1\thello\tEgypt\tCairo\nx2\tbye\tIraq\tBasra\n", encoding="utf-8")
    assert len(load_tsv(path)) == 2


def test_load_tsv_bad_column_count_names_line(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("x1\thello\tEgypt\tCairo\nx2\tbroken\tEgypt\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_tsv(path)


def test_load_tsv_lexicographic_label_ids(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text(
        "x1\ta\tIraq\tBasra\nx2\tb\tEgypt\tCairo\nx3\tc\tIraq\tMosul\n", encoding="utf-8"
    )
    ds = load_tsv(path)
    assert ds.country_labels == ["Egypt", "Iraq"]
    assert ds.examples[0].country == 1  # Iraq
    assert ds.examples[1].country == 0  # Egypt


def test_load_tsv_duplicate_id_rejected(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("x1\ta\tEgypt\tCairo\nx1\tb\tEgypt\tCairo\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate id"):
        load_tsv(path)


def test_load_tsv_empty_file_rejected(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_tsv(path)


def test_load_tsv_and_load_texts_skip_a_byte_order_mark(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_bytes("id\ttext\tcountry\tprovince\nx1\thello\tEgypt\tCairo\n".encode("utf-8-sig"))
    ds = load_tsv(path)
    assert [ex.id for ex in ds.examples] == ["x1"]
    assert ds.country_labels == ["Egypt"] and ds.province_labels == ["Cairo"]
    path.write_bytes("x1\thello\nx2\tbye\n".encode("utf-8-sig"))
    assert load_texts(path) == [("x1", "hello"), ("x2", "bye")]


def test_load_tsv_and_load_texts_accept_crlf(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_bytes(b"id\ttext\tcountry\tprovince\r\nx1\thello\tEgypt\tCairo\r\nx2\tbye\tIraq\tBasra\r\n")
    ds = load_tsv(path)
    assert [ex.text for ex in ds.examples] == ["hello", "bye"]
    assert ds.province_labels == ["Basra", "Cairo"]
    assert load_texts(path) == [("x1", "hello"), ("x2", "bye")]


def test_non_utf8_file_is_a_data_error_naming_the_file(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes("x1\tcaf\u00e9\tEgypt\tCairo\n".encode("latin-1"))
    for load in (load_tsv, load_texts):
        with pytest.raises(DataError, match="latin1.tsv: not UTF-8"):
            load(path)


def test_tsv_round_trip(tmp_path):
    train_ds, _, _ = synth_generate(SynthConfig(n_countries=2, provinces_per_country=2, examples_per_province=10, seed=1))
    path = tmp_path / "rt.tsv"
    save_tsv(train_ds, path)
    back = load_tsv(path)
    assert back.country_labels == train_ds.country_labels
    assert back.province_labels == train_ds.province_labels
    assert [(e.id, e.text, e.country, e.province) for e in back.examples] == [
        (e.id, e.text, e.country, e.province) for e in train_ds.examples
    ]


# A field may hold any character but the separators the format reserves.
_FIELD = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=8)


def test_save_then_load_tsv_round_trips_every_field(tmp_path):
    path = tmp_path / "rt.tsv"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(_FIELD, _FIELD, _FIELD, _FIELD), min_size=1, max_size=6, unique_by=lambda row: row[0]))
    @example([("x1", "one\u2028two", "c", "p")])
    def round_trips(rows):
        countries = sorted({c for _, _, c, _ in rows})
        provinces = sorted({p for _, _, _, p in rows})
        examples = [Example(i, t, countries.index(c), provinces.index(p)) for i, t, c, p in rows]
        save_tsv(Dataset(examples, countries, provinces), path)
        back = load_tsv(path)
        assert [
            (e.id, e.text, back.country_labels[e.country], back.province_labels[e.province]) for e in back.examples
        ] == rows
        assert load_texts(path) == [(i, t) for i, t, _, _ in rows]

    round_trips()


def test_only_lf_or_crlf_ends_a_line(tmp_path):
    path = tmp_path / "p.tsv"
    for sep in ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        path.write_text(f"i1\tfoo{sep}i2\tbar\ni3\tbaz\r\n", encoding="utf-8", newline="")
        with pytest.raises(DataError, match="line 1: expected 2 or 4"):
            load_texts(path)
        path.write_text(f"i1\tfoo{sep}bar\ni3\tbaz\r\n", encoding="utf-8", newline="")
        assert load_texts(path) == [("i1", f"foo{sep}bar"), ("i3", "baz")]


def test_malformed_tsv_loads_or_raises_data_error(tmp_path):
    path = tmp_path / "bad.tsv"
    header = "id\ttext\tcountry\tprovince"
    piece = st.sampled_from(["\t", "\n", "\r\n", "\r", "id", "x", "y", " ", "\u2028", header])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(piece, max_size=16).map("".join))
    @example(header + "\n")
    @example("x\t\tc\tp\n")
    @example("x\ty\t\tc\tp\n")
    def loads_or_raises_data_error(content):
        path.write_text(content, encoding="utf-8", newline="")
        for load in (load_tsv, load_texts):
            try:
                load(path)
            except DataError:
                pass

    loads_or_raises_data_error()


def test_load_texts_accepts_two_or_four_columns(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("id\ttext\nx1\thello\n", encoding="utf-8")
    assert load_texts(path) == [("x1", "hello")]
    path.write_text("x1\thello\tEgypt\tCairo\n", encoding="utf-8")
    assert load_texts(path) == [("x1", "hello")]
    path.write_text("", encoding="utf-8")
    assert load_texts(path) == []


def test_relabel_remaps_and_rejects_unknown():
    ds = Dataset(
        examples=[Example("x", "t", country=0, province=0)],
        country_labels=["Iraq"],
        province_labels=["Basra"],
    )
    out = relabel(ds, ["Egypt", "Iraq"], ["Basra", "Cairo"])
    assert out.examples[0].country == 1
    assert out.examples[0].province == 0
    with pytest.raises(DataError, match="label-space mismatch"):
        relabel(ds, ["Egypt"], ["Basra"])


# ---------------------------------------------------------------------------
# label distribution
# ---------------------------------------------------------------------------


def test_distribution_uniform_counts_equal():
    train_ds, dev_ds, test_ds = synth_generate(
        SynthConfig(n_countries=3, provinces_per_country=2, examples_per_province=20, seed=2)
    )
    full = Dataset(
        train_ds.examples + dev_ds.examples + test_ds.examples,
        train_ds.country_labels,
        train_ds.province_labels,
    )
    dist = label_distribution(full)
    country_counts = [n for _, n in dist["country"]]
    assert len(set(country_counts)) == 1
    assert sum(country_counts) == len(full)
    assert sum(n for _, n in dist["province"]) == len(full)


def test_distribution_sorted_descending(tmp_path):
    path = tmp_path / "d.tsv"
    rows = ["id\ttext\tcountry\tprovince"]
    for i in range(5):
        rows.append(f"a{i}\tt\tEgypt\tCairo")
    rows.append("b0\tt\tIraq\tBasra")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    dist = label_distribution(load_tsv(path))
    assert dist["country"] == [("Egypt", 5), ("Iraq", 1)]


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synth_province_determines_country():
    train_ds, dev_ds, test_ds = synth_generate(
        SynthConfig(n_countries=4, provinces_per_country=3, examples_per_province=12, seed=3)
    )
    seen: dict[int, int] = {}
    for ds in (train_ds, dev_ds, test_ds):
        for ex in ds.examples:
            if ex.province in seen:
                assert seen[ex.province] == ex.country
            seen[ex.province] = ex.country


def test_synth_stratified_split_within_one():
    cfg = SynthConfig(n_countries=2, provinces_per_country=2, examples_per_province=33, seed=4)
    train_ds, dev_ds, test_ds = synth_generate(cfg)
    per_split = [Counter(ex.province for ex in ds.examples) for ds in (train_ds, dev_ds, test_ds)]
    for pi in range(4):
        counts = [c[pi] for c in per_split]
        assert sum(counts) == 33
        for got, frac in zip(counts, (0.70, 0.15, 0.15)):
            assert abs(got - 33 * frac) <= 1.0


def test_synth_deterministic_under_seed():
    cfg = SynthConfig(n_countries=2, provinces_per_country=2, examples_per_province=10, seed=5)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    for ds_a, ds_b in zip(a, b):
        assert [(e.id, e.text, e.country, e.province) for e in ds_a.examples] == [
            (e.id, e.text, e.country, e.province) for e in ds_b.examples
        ]


def test_synth_full_signal_frequency_oracle_is_perfect():
    """With signal 1 and mostly province-specific tokens, a token-frequency
    table built from train classifies dev perfectly."""
    cfg = SynthConfig(
        n_countries=3,
        provinces_per_country=2,
        examples_per_province=40,
        shared_vocab_size=50,
        country_signal_tokens=2,
        province_signal_tokens=6,
        signal_strength=1.0,
        seed=6,
        tokens_per_example=12,
    )
    train_ds, dev_ds, _ = synth_generate(cfg)
    token_votes: dict[str, Counter] = defaultdict(Counter)
    for ex in train_ds.examples:
        for tok in ex.text.split():
            token_votes[tok][ex.province] += 1
    correct = 0
    for ex in dev_ds.examples:
        scores: Counter = Counter()
        for tok in ex.text.split():
            votes = token_votes.get(tok)
            if not votes:
                continue
            total = sum(votes.values())
            for label, n in votes.items():
                scores[label] += n / total
        guess = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        correct += guess == ex.province
    assert correct == len(dev_ds.examples)


def test_synth_no_signal_models_sit_at_chance():
    """signal 0: trained models cannot beat the majority/chance predictor."""
    accs = []
    for seed in range(5):
        cfg = SynthConfig(
            n_countries=3,
            provinces_per_country=2,
            examples_per_province=20,
            shared_vocab_size=40,
            signal_strength=0.0,
            seed=seed,
            tokens_per_example=8,
        )
        train_ds, dev_ds, _ = synth_generate(cfg)
        vocab = build_vocab([clean_text(ex.text) for ex in train_ds.examples], max_size=128)
        enc = EncoderConfig(d_model=8, n_layers=1, n_heads=1, d_ff=16, l_max=10, vocab_size=len(vocab), dropout_rate=0.0)
        config = ModelConfig(
            encoder=enc,
            n_countries=len(train_ds.country_labels),
            n_provinces=len(train_ds.province_labels),
        )
        model = MtlModel(config, global_seed=seed)
        train(model, train_ds, None, vocab, TrainConfig(epochs=3, batch_size=16, seed=seed))
        rep = evaluate(model, dev_ds, vocab)
        accs.append(rep["country"].accuracy)
    # uniform 3-way chance is 1/3; allow sampling noise over 30-example dev sets
    assert abs(float(np.mean(accs)) - 1 / 3) < 0.15


def test_synth_config_validation():
    with pytest.raises(ValueError, match="signal_strength"):
        SynthConfig(signal_strength=1.5)
    with pytest.raises(ValueError, match="signal_strength must be finite"):
        SynthConfig(signal_strength=True)
    with pytest.raises(ValueError, match="n_countries"):
        SynthConfig(n_countries=0)
    with pytest.raises(ValueError, match="n_countries must be an integer"):
        SynthConfig(n_countries=2.0)
    with pytest.raises(ValueError, match="examples_per_province must be an integer"):
        SynthConfig(examples_per_province=True)
