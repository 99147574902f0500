"""Cleaning, vocabulary construction, and sequence encoding contracts."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtlid.preprocess import (
    ARABIC_DIACRITICS,
    CLS_ID,
    PAD_ID,
    UNK_ID,
    build_vocab,
    clean_text,
    encode,
    stack_sequences,
)

ARABIC_LETTERS = [chr(c) for c in range(0x0621, 0x064B)]
# texts that a mention-first cleaning leaves one pass short of its fixed point
MENTION_COUNTEREXAMPLES = ["@@foo", "@\u064bfoo", "a_a\u0660@\u0670\u0660_"]


def random_arabic_text(rng: np.random.Generator, with_mentions: bool = False) -> str:
    pool = ARABIC_LETTERS + sorted(ARABIC_DIACRITICS) + list(" " * 8) + list("abc123")
    chars = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 40)))]
    if with_mentions and rng.random() < 0.5:
        chars.insert(int(rng.integers(0, len(chars) + 1)), " @user ")
    return "".join(chars)


# ---------------------------------------------------------------------------
# clean_text
# ---------------------------------------------------------------------------


def test_clean_mention_and_diacritic():
    assert clean_text("@user123 مرحباً") == "USER مرحبا"


def test_clean_no_op_without_targets():
    assert clean_text("لا diacritics here") == "لا diacritics here"


def test_clean_multiple_mentions_and_marks():
    assert clean_text("@a @b نصٌّ") == "USER USER نص"


def test_clean_order_mentions_before_diacritics():
    # the mark is deleted first, so the mention run it ends covers "@ab" whole
    assert clean_text("@abً") == "USER"


def test_clean_mention_run_takes_every_at_and_the_marks_inside():
    assert clean_text("@@foo") == "USER"
    assert clean_text("@\u064bfoo") == "USER"
    assert clean_text("a_a\u0660@\u0670\u0660_") == "a_a\u0660USER"


def test_clean_bare_at_sign_kept():
    assert clean_text("@ @@") == "@ @@"


def test_clean_idempotent_on_random_strings():
    rng = np.random.default_rng(17)
    texts = MENTION_COUNTEREXAMPLES + [random_arabic_text(rng, with_mentions=True) for _ in range(2000)]
    for text in texts:
        once = clean_text(text)
        assert clean_text(once) == once, repr(text)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(text=st.text(alphabet=["@", "a", "_", "1", " ", "\u064b", "\u0640", "\u0670", "\u0610", "\u0628", "\u0660"]))
def test_clean_idempotent_where_mentions_meet_marks(text):
    once = clean_text(text)
    assert clean_text(once) == once
    assert not set(once) & ARABIC_DIACRITICS


def test_clean_removes_exactly_the_declared_set():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        text = random_arabic_text(rng, with_mentions=False)
        expected = "".join(ch for ch in text if ch not in ARABIC_DIACRITICS)
        assert clean_text(text) == expected


def test_clean_full_arabic_block_scan():
    # exactly U+064B..U+065F, U+0670 and U+0640 disappear; everything else stays
    for cp in range(0x0600, 0x0700):
        ch = chr(cp)
        out = clean_text(f"ب{ch}")
        if ch in ARABIC_DIACRITICS:
            assert out == "ب", hex(cp)
        else:
            assert out == f"ب{ch}", hex(cp)


# ---------------------------------------------------------------------------
# build_vocab
# ---------------------------------------------------------------------------


def test_build_vocab_basic_ranking():
    vocab = build_vocab(["a a b"], max_size=100)
    assert vocab.id_to_token == ["[PAD]", "[UNK]", "[CLS]", "a", "b"]
    assert vocab.token_to_id == {"a": 3, "b": 4}


def test_build_vocab_tie_breaks_lexicographically():
    vocab = build_vocab(["y x"], max_size=100)
    assert vocab.token_to_id["x"] == 3
    assert vocab.token_to_id["y"] == 4


def test_build_vocab_max_size_truncates():
    vocab = build_vocab(["a a a b b c"], max_size=5)
    assert len(vocab) == 5
    assert "c" not in vocab.token_to_id
    with pytest.raises(ValueError, match="max_size must be >= 3"):
        build_vocab(["a"], max_size=2)
    for cap in (3.5, 5.0, "7", None, True):
        with pytest.raises(ValueError, match=re.escape(f"max_size must be an integer, got {cap!r}")):
            build_vocab(["a b c"], max_size=cap)


def test_build_vocab_keeps_no_reserved_token_from_the_text():
    # a literal [UNK] in the text is UNK, not a second vocabulary entry
    vocab = build_vocab(["[UNK] [UNK] [PAD] [CLS] a"], max_size=100)
    assert vocab.id_to_token == ["[PAD]", "[UNK]", "[CLS]", "a"]
    assert encode("[UNK] [CLS] a", vocab, l_max=8).ids.tolist() == [CLS_ID, UNK_ID, UNK_ID, 3]


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([], max_size=10)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


@pytest.fixture
def small_vocab():
    return build_vocab(["a a b"], max_size=100)


def test_encode_empty_text(small_vocab):
    seq = encode("", small_vocab, l_max=4)
    assert list(seq.ids) == [CLS_ID]
    assert seq.true_length == 1


def test_encode_known_tokens(small_vocab):
    seq = encode("a b", small_vocab, l_max=4)
    assert list(seq.ids) == [2, 3, 4]


def test_encode_is_cls_then_token_ids_without_padding(small_vocab):
    rng = np.random.default_rng(4)
    tokens = ["a", "b", "zz"]
    for _ in range(200):
        words = [tokens[int(i)] for i in rng.integers(0, 3, size=int(rng.integers(0, 12)))]
        seq = encode(" ".join(words), small_vocab, l_max=6)
        expected = [CLS_ID] + [small_vocab.token_to_id.get(w, UNK_ID) for w in words][:5]
        assert seq.ids.dtype == np.int64 and list(seq.ids) == expected
        assert seq.true_length == len(expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    text=st.lists(st.sampled_from(["a", "b", "zz", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\u3000"])).map("".join),
    l_max=st.integers(2, 8),
)
def test_encode_matches_split_then_lookup_on_whitespace_runs(text, l_max):
    vocab = build_vocab(["a a b"], max_size=100)
    expected = [CLS_ID] + [vocab.token_to_id.get(t, UNK_ID) for t in text.split()[: l_max - 1]]
    assert list(encode(text, vocab, l_max).ids) == expected


def test_encode_truncates_long_text(small_vocab):
    text = " ".join(["a"] * 100)
    seq = encode(text, small_vocab, l_max=8)
    assert seq.true_length == 8
    assert list(seq.ids) == [CLS_ID] + [3] * 7  # 7th input token is last kept


def test_encode_unknown_token_is_unk(small_vocab):
    seq = encode("zzz", small_vocab, l_max=4)
    assert seq.ids[1] == UNK_ID


def test_encode_requires_width_two(small_vocab):
    for width in (1, 2.5, "4", True):
        with pytest.raises(ValueError, match=re.escape(f"l_max must be an integer >= 2, got {width!r}")):
            encode("a", small_vocab, l_max=width)


def test_stack_sequences_mask_is_prefix(small_vocab):
    rng = np.random.default_rng(5)
    tokens = ["a", "b", "zz"]
    for _ in range(50):
        texts = [
            " ".join(tokens[int(i)] for i in rng.integers(0, 3, size=int(rng.integers(0, 12))))
            for _ in range(int(rng.integers(1, 5)))
        ]
        seqs = [encode(text, small_vocab, l_max=6) for text in texts]
        ids, mask = stack_sequences(seqs)
        assert ids.shape == mask.shape == (len(seqs), max(s.true_length for s in seqs))
        for row_ids, row_mask, seq in zip(ids, mask, seqs):
            n = seq.true_length
            assert row_mask[:n].all() and not row_mask[n:].any()
            assert list(row_ids[:n]) == list(seq.ids) and (row_ids[n:] == PAD_ID).all()


def test_stack_sequences_shapes(small_vocab):
    # the batch runs at its longest true_length: [CLS] b b is 3 wide
    seqs = [encode("a", small_vocab, 4), encode("b b", small_vocab, 4)]
    ids, mask = stack_sequences(seqs)
    assert ids.shape == (2, 3) and mask.shape == (2, 3)
    assert ids.dtype == np.int64 and mask.dtype == np.bool_
    # one sequence that fills l_max makes the batch l_max wide
    ids, mask = stack_sequences(seqs + [encode("a b a b", small_vocab, 4)])
    assert ids.shape == (3, 4) and mask.shape == (3, 4)
