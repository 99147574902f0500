"""Text cleaning, corpus vocabulary, and token-id sequences.

Cleaning does exactly two things, in order: Arabic diacritics (tashkeel
U+064B..U+065F, superscript alef U+0670, tatweel U+0640) are deleted, then
each @-mention, a run of @ and the word characters after it, becomes the
literal token USER. In this order a second cleaning changes nothing: no
diacritic is left between an @ and a word, and no @ before a USER.
Tokenization is whitespace
word-level with an UNK fallback; ids 0/1/2 are reserved for PAD/UNK/CLS.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor import is_integer, require_count

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]")
VOCAB_SIZE = 4096  # the default vocabulary cap, reserved tokens included

ARABIC_DIACRITICS = frozenset(
    {chr(c) for c in range(0x064B, 0x0660)} | {"ٰ", "ـ"}
)
# one character class over the set: on a 90-word mixed Arabic/Latin text
# re.sub took 16-20 us where str.translate with a deletion table took
# 38-50 us; an ASCII text holds none, and isascii() skips the pass
_DIACRITIC_RE = re.compile(f"[{''.join(sorted(ARABIC_DIACRITICS))}]")
# a run of @ and then word characters; spelled "@@*" and not "@+" so that
# re keeps its literal-prefix scan, which skips to each @ (about 13x faster
# than "@+" on a long text with none)
_MENTION_RE = re.compile(r"@@*\w+")


def clean_text(raw: str) -> str:
    """Strip the diacritic set, then substitute @-mentions with USER."""
    if not raw.isascii():
        raw = _DIACRITIC_RE.sub("", raw)
    return _MENTION_RE.sub("USER", raw)


@dataclass
class Vocabulary:
    """Bijection between kept tokens and contiguous ids after the reserved three.

    token_to_id is derived from id_to_token; the reserved tokens are not
    in it, so they look up as UNK like any other unknown token.
    """

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        reserved = len(RESERVED_TOKENS)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token[reserved:], start=reserved)}

    def __len__(self) -> int:
        return len(self.id_to_token)


def build_vocab(corpus: Sequence[str], max_size: int = VOCAB_SIZE) -> Vocabulary:
    """Rank whitespace tokens by (count desc, token asc) and assign ids 3...

    At most max_size - 3 tokens are kept. A literal reserved token in the
    text is not kept: it looks up as UNK, and no token appears twice.
    """
    if len(corpus) == 0:
        raise ValueError("build_vocab: empty corpus")
    require_count("max_size", max_size)
    if max_size < len(RESERVED_TOKENS):
        raise ValueError(f"max_size must be >= {len(RESERVED_TOKENS)}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(text.split())
    for tok in RESERVED_TOKENS:
        del counts[tok]
    # sorted is stable under reverse=True, so equal counts keep the token order
    kept = sorted(sorted(counts), key=counts.__getitem__, reverse=True)[: max_size - len(RESERVED_TOKENS)]
    return Vocabulary(list(RESERVED_TOKENS) + kept)


@dataclass
class TokenSequence:
    """One text's ids: CLS first, then its tokens, at most l_max in all.

    Padding is a property of a batch, not of a sequence: stack_sequences
    pads each batch to its longest sequence and builds its mask.
    """

    ids: np.ndarray

    @property
    def true_length(self) -> int:
        return len(self.ids)


def encode(text: str, vocab: Vocabulary, l_max: int) -> TokenSequence:
    """Map cleaned text to [CLS] + token ids, truncated to l_max."""
    if not is_integer(l_max) or l_max < 2:
        raise ValueError(f"l_max must be an integer >= 2, got {l_max!r}")
    get = vocab.token_to_id.get
    # maxsplit leaves the text past the kept tokens unsplit, as one last piece
    kept = [CLS_ID] + [get(tok, UNK_ID) for tok in text.split(None, l_max - 1)[: l_max - 1]]
    return TokenSequence(np.array(kept, dtype=np.int64))


def stack_sequences(seqs: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """PAD-fill a batch into (ids [B, W], mask [B, W]) arrays.

    W is the longest sequence in the batch; mask is true exactly on each
    row's real tokens. Padding gets exactly zero weight everywhere in the
    model, so the batch width changes no result.
    """
    if not seqs:
        raise ValueError("stack_sequences: empty batch")
    lengths = np.array([len(s.ids) for s in seqs])
    mask = np.arange(lengths.max()) < lengths[:, None]
    ids = np.full(mask.shape, PAD_ID, dtype=np.int64)
    ids[mask] = np.concatenate([s.ids for s in seqs])
    return ids, mask
