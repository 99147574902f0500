"""Dataset ingestion, label statistics, and a synthetic hierarchical corpus.

The TSV schema is: columns id, text, country, province; an optional header
is detected by a first cell equal to "id". Files are UTF-8, with or
without a byte-order mark. Label ids are assigned by
lexicographic order of the label strings, so ids are stable across
shuffled files. The synthetic generator plants country-level signal
tokens shared by all of a country's provinces, plus rarer
province-specific tokens, which is what lets province classification
benefit from country supervision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoder import require_count
from .preprocess import clean_text


class DataError(ValueError):
    """Malformed data file or inconsistent label space."""


@dataclass
class Example:
    id: str
    text: str
    country: int
    province: int


@dataclass
class Dataset:
    examples: list[Example]
    country_labels: list[str]
    province_labels: list[str]
    # ids of examples whose text is empty after cleaning; kept, not dropped
    flagged_ids: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)


def _parse_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    """Non-empty lines split on tabs, numbered from 1, header dropped.

    The file must be UTF-8; a leading byte-order mark is skipped.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if line == "":
            continue
        rows.append((lineno, line.split("\t")))
    if rows and rows[0][1][0] == "id":
        rows = rows[1:]
    return rows


def load_tsv(path: str | Path) -> Dataset:
    """Parse a labeled TSV into a Dataset with lexicographic label ids."""
    rows = _parse_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    parsed: list[tuple[str, str, str, str]] = []
    seen_ids: set[str] = set()
    for lineno, cells in rows:
        if len(cells) != 4:
            raise DataError(f"{path}: line {lineno}: expected 4 tab-separated fields, got {len(cells)}")
        ex_id, text, country, province = cells
        if ex_id in seen_ids:
            raise DataError(f"{path}: line {lineno}: duplicate id {ex_id!r}")
        seen_ids.add(ex_id)
        parsed.append((ex_id, text, country, province))
    country_labels = sorted({c for _, _, c, _ in parsed})
    province_labels = sorted({p for _, _, _, p in parsed})
    c_ids = {label: i for i, label in enumerate(country_labels)}
    p_ids = {label: i for i, label in enumerate(province_labels)}
    examples = [
        Example(id=ex_id, text=text, country=c_ids[c], province=p_ids[p])
        for ex_id, text, c, p in parsed
    ]
    flagged = [ex.id for ex in examples if not clean_text(ex.text).strip()]
    return Dataset(examples, country_labels, province_labels, flagged)


def save_tsv(dataset: Dataset, path: str | Path) -> None:
    lines = ["id\ttext\tcountry\tprovince"]
    for ex in dataset.examples:
        lines.append(
            f"{ex.id}\t{ex.text}\t{dataset.country_labels[ex.country]}\t{dataset.province_labels[ex.province]}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_texts(path: str | Path) -> list[tuple[str, str]]:
    """(id, text) rows for prediction inputs; label columns are optional."""
    rows = _parse_rows(path)
    out: list[tuple[str, str]] = []
    for lineno, cells in rows:
        if len(cells) not in (2, 4):
            raise DataError(f"{path}: line {lineno}: expected 2 or 4 tab-separated fields, got {len(cells)}")
        out.append((cells[0], cells[1]))
    return out


def label_distribution(dataset: Dataset) -> dict[str, list[tuple[str, int]]]:
    """Per-task (label, count) lists sorted by count descending, label ascending."""
    if not dataset.examples:
        raise ValueError("label_distribution: empty dataset")
    out: dict[str, list[tuple[str, int]]] = {}
    for task, labels, ids in (
        ("country", dataset.country_labels, [ex.country for ex in dataset.examples]),
        ("province", dataset.province_labels, [ex.province for ex in dataset.examples]),
    ):
        counts = np.bincount(np.asarray(ids), minlength=len(labels))
        pairs = [(label, int(n)) for label, n in zip(labels, counts)]
        out[task] = sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
    return out


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    n_countries: int = 6
    provinces_per_country: int = 3
    examples_per_province: int = 200
    shared_vocab_size: int = 200
    country_signal_tokens: int = 8
    province_signal_tokens: int = 4
    signal_strength: float = 0.3
    seed: int = 0
    tokens_per_example: int = 12

    def __post_init__(self) -> None:
        for name in (
            "n_countries",
            "provinces_per_country",
            "examples_per_province",
            "shared_vocab_size",
            "country_signal_tokens",
            "province_signal_tokens",
            "tokens_per_example",
        ):
            require_count(name, getattr(self, name))
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValueError("signal_strength must lie in [0, 1]")


def _largest_remainder_split(n: int, fractions: Sequence[float]) -> list[int]:
    exact = [n * f for f in fractions]
    counts = [int(x) for x in exact]
    remainder = n - sum(counts)
    by_frac = sorted(range(len(fractions)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_frac[:remainder]:
        counts[i] += 1
    return counts


def synth_generate(config: SynthConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Hierarchical corpus split 70/15/15 stratified by province.

    Each token comes from the province's signal pool (its own tokens plus
    its country's tokens) with probability signal_strength, else from the
    shared pool. Province id determines country id by construction.
    """
    rng = np.random.default_rng(config.seed)
    country_labels = [f"c{ci:02d}" for ci in range(config.n_countries)]
    province_labels = []
    province_country: list[int] = []
    for ci in range(config.n_countries):
        for pj in range(config.provinces_per_country):
            province_labels.append(f"c{ci:02d}p{pj:02d}")
            province_country.append(ci)
    shared_pool = [f"w{t:04d}" for t in range(config.shared_vocab_size)]
    country_pools = [
        [f"c{ci:02d}sig{t:02d}" for t in range(config.country_signal_tokens)]
        for ci in range(config.n_countries)
    ]
    signal_pools = []
    for pi, label in enumerate(province_labels):
        own = [f"{label}sig{t:02d}" for t in range(config.province_signal_tokens)]
        signal_pools.append(country_pools[province_country[pi]] + own)

    splits: tuple[list[Example], list[Example], list[Example]] = ([], [], [])
    counter = 0
    for pi in range(len(province_labels)):
        pool = signal_pools[pi]
        province_examples: list[Example] = []
        for _ in range(config.examples_per_province):
            tokens = []
            for _ in range(config.tokens_per_example):
                if rng.random() < config.signal_strength:
                    tokens.append(pool[int(rng.integers(len(pool)))])
                else:
                    tokens.append(shared_pool[int(rng.integers(len(shared_pool)))])
            province_examples.append(
                Example(
                    id=f"s{counter:06d}",
                    text=" ".join(tokens),
                    country=province_country[pi],
                    province=pi,
                )
            )
            counter += 1
        order = rng.permutation(len(province_examples))
        n_train, n_dev, n_test = _largest_remainder_split(
            len(province_examples), (0.70, 0.15, 0.15)
        )
        bounds = (n_train, n_train + n_dev, n_train + n_dev + n_test)
        for dest, lo, hi in zip(splits, (0, bounds[0], bounds[1]), bounds):
            dest.extend(province_examples[i] for i in order[lo:hi])

    return tuple(
        Dataset(list(part), list(country_labels), list(province_labels)) for part in splits
    )


def relabel(dataset: Dataset, country_labels: Sequence[str], province_labels: Sequence[str]) -> Dataset:
    """Remap a dataset's label ids onto reference label lists."""
    c_ids = {label: i for i, label in enumerate(country_labels)}
    p_ids = {label: i for i, label in enumerate(province_labels)}
    examples = []
    for ex in dataset.examples:
        c = dataset.country_labels[ex.country]
        p = dataset.province_labels[ex.province]
        if c not in c_ids:
            raise DataError(f"label-space mismatch: unknown country label {c!r}")
        if p not in p_ids:
            raise DataError(f"label-space mismatch: unknown province label {p!r}")
        examples.append(Example(id=ex.id, text=ex.text, country=c_ids[c], province=p_ids[p]))
    return Dataset(examples, list(country_labels), list(province_labels), list(dataset.flagged_ids))
