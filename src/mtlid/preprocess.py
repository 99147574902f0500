"""Text cleaning, corpus vocabulary, and padded token-id sequences.

Cleaning does exactly two things, in order: @-mentions become the literal
token USER, then Arabic diacritics (tashkeel U+064B..U+065F, superscript
alef U+0670, tatweel U+0640) are deleted. Tokenization is whitespace
word-level with an UNK fallback; ids 0/1/2 are reserved for PAD/UNK/CLS.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]")

ARABIC_DIACRITICS = frozenset(
    {chr(c) for c in range(0x064B, 0x0660)} | {"ٰ", "ـ"}
)
_DIACRITIC_TABLE = {ord(c): None for c in ARABIC_DIACRITICS}
_MENTION_RE = re.compile(r"@\w+")


def clean_text(raw: str) -> str:
    """Substitute @-mentions with USER, then strip the diacritic set."""
    return _MENTION_RE.sub("USER", raw).translate(_DIACRITIC_TABLE)


@dataclass
class Vocabulary:
    """Bijection between kept tokens and contiguous ids after the reserved three."""

    token_to_id: dict[str, int]
    id_to_token: list[str]
    min_frequency: int = 1
    max_size: int = 0

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_for(self, idx: int) -> str:
        return self.id_to_token[idx]


def build_vocab(corpus: Sequence[str], min_frequency: int = 1, max_size: int = 30000) -> Vocabulary:
    """Rank whitespace tokens by (count desc, token asc) and assign ids 3...

    Tokens below min_frequency are dropped; at most max_size - 3 survive.
    """
    if len(corpus) == 0:
        raise ValueError("build_vocab: empty corpus")
    if min_frequency < 1:
        raise ValueError("min_frequency must be >= 1")
    if max_size < len(RESERVED_TOKENS):
        raise ValueError(f"max_size must be >= {len(RESERVED_TOKENS)}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(text.split())
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_frequency),
        key=lambda tok: (-counts[tok], tok),
    )[: max_size - len(RESERVED_TOKENS)]
    id_to_token = list(RESERVED_TOKENS) + kept
    token_to_id = {tok: i + len(RESERVED_TOKENS) for i, tok in enumerate(kept)}
    return Vocabulary(token_to_id, id_to_token, min_frequency, max_size)


@dataclass
class TokenSequence:
    """One text's ids at the model's full width l_max: CLS first, then
    tokens, PAD-filled tail.

    mask is true exactly on the leading true_length positions. A batch
    runs at the width of its longest sequence (see stack_sequences).
    """

    ids: np.ndarray
    mask: np.ndarray
    true_length: int


def encode(text: str, vocab: Vocabulary, l_max: int) -> TokenSequence:
    """Map cleaned text to [CLS] + token ids, truncated/padded to l_max."""
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    kept = [CLS_ID] + [vocab.id_for(tok) for tok in text.split()]
    kept = kept[:l_max]
    n = len(kept)
    ids = np.full(l_max, PAD_ID, dtype=np.int64)
    ids[:n] = kept
    mask = np.zeros(l_max, dtype=bool)
    mask[:n] = True
    return TokenSequence(ids=ids, mask=mask, true_length=n)


def stack_sequences(seqs: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Stack equal-width sequences into (ids [B, W], mask [B, W]) arrays.

    W is the longest true_length in the batch. Every position past it is
    padding in every row, and padding gets exactly zero weight everywhere
    in the model, so dropping those columns changes no result.
    """
    if not seqs:
        raise ValueError("stack_sequences: empty batch")
    widths = {len(s.ids) for s in seqs}
    if len(widths) != 1:
        raise ValueError(f"stack_sequences: mixed widths {sorted(widths)}")
    w = max(s.true_length for s in seqs)
    ids = np.stack([s.ids[:w] for s in seqs])
    mask = np.stack([s.mask[:w] for s in seqs])
    return ids, mask
