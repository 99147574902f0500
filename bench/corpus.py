"""Seeded hierarchical corpora for the benchmark workloads.

The generator is the benchmark's own, so a change to the program's
synthetic-data code cannot change what the benchmark measures. Every
country owns a pool of signal words and every province a smaller pool of
its own; the remaining words come from a shared pool. The shared pool's
size sets how many distinct words the corpus has, and so how many rows
the vocabulary fills.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

COUNTRY_WORDS = 8  # signal words of each country
# Share of rows labelled with a random province instead of their own,
# which keeps dev macro-F1 below 1 by a seed-independent margin.
LABEL_NOISE = 0.03


@dataclass(frozen=True)
class CorpusSpec:
    n_countries: int
    provinces_per_country: int
    train_per_province: int
    dev_per_province: int
    serve_per_province: int
    min_tokens: int  # inclusive bounds on the words per text
    max_tokens: int
    shared_words: int
    p_country: float  # chance a word comes from the country pool
    p_province: float  # chance a word comes from the province pool
    province_words: int = 6


@dataclass(frozen=True)
class Row:
    id: str
    text: str
    country: str
    province: str


def generate(spec: CorpusSpec, seed: int) -> dict[str, list[Row]]:
    """Train, dev and serve splits; the same spec and seed give the same rows."""
    rng = random.Random(seed)
    shared = [f"w{i:05d}" for i in range(spec.shared_words)]
    provinces = [
        (f"c{c:02d}", f"c{c:02d}p{p:02d}")
        for c in range(spec.n_countries)
        for p in range(spec.provinces_per_country)
    ]
    splits: dict[str, list[Row]] = {"train": [], "dev": [], "serve": []}
    sizes = {
        "train": spec.train_per_province,
        "dev": spec.dev_per_province,
        "serve": spec.serve_per_province,
    }
    for country, province in provinces:
        country_pool = [f"{country}s{i:02d}" for i in range(COUNTRY_WORDS)]
        province_pool = [f"{province}s{i:02d}" for i in range(spec.province_words)]
        for split, n in sizes.items():
            for _ in range(n):
                words = []
                for _ in range(rng.randint(spec.min_tokens, spec.max_tokens)):
                    u = rng.random()
                    if u < spec.p_country:
                        words.append(rng.choice(country_pool))
                    elif u < spec.p_country + spec.p_province:
                        words.append(rng.choice(province_pool))
                    else:
                        words.append(rng.choice(shared))
                label = rng.choice(provinces) if rng.random() < LABEL_NOISE else (country, province)
                rows = splits[split]
                rows.append(Row(f"{split}{len(rows):06d}", " ".join(words), *label))
    for rows in splits.values():
        rng.shuffle(rows)
    return splits


def write_tsv(rows: list[Row], path: Path, labels: bool = True) -> None:
    """Dataset TSV with a header; without labels, the two-column predict input."""
    if labels:
        lines = ["id\ttext\tcountry\tprovince"]
        lines += [f"{r.id}\t{r.text}\t{r.country}\t{r.province}" for r in rows]
    else:
        lines = ["id\ttext"] + [f"{r.id}\t{r.text}" for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
