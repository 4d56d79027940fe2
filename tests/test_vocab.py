import re

from hypothesis import given, strategies as st
import pytest

from tempolm.annotate import tokenize_raw
from tempolm.errors import ConfigError
from tempolm.synth import generate_corpus
from tempolm.vocab import SPECIALS, Vocabulary, build_vocab


def test_toy_merge_oracle():
    # hand trace: chars a/b enter by frequency (whitespace is not a token), then merges "aa", "aaa", "ab"
    vocab = build_vocab(["aaa aaa ab"], target_size=10)
    assert vocab.named_size == 10
    assert "aaa" in vocab.tokens
    assert vocab.tokens[:5] == list(SPECIALS)


def test_encode_decode_known_unit():
    vocab = build_vocab(["aaa aaa ab"], target_size=10)
    ids = vocab.encode_word("aaa")
    assert len(ids) == 1
    assert vocab.decode(ids) == "aaa"


def test_byte_fallback_roundtrip_unseen_chars():
    vocab = build_vocab(["plain english text"], target_size=40)
    for s in ["çà va", "日本語", "mixed ascii + ünïcode", "\t tabs \n", "lone \ud800 and \udfff surrogates"]:
        assert vocab.decode(vocab.encode_text(s)) == s


@given(st.text(max_size=120))
def test_any_string_roundtrips(s):
    vocab = build_vocab(["the quick brown fox 1999"], target_size=30)
    assert vocab.decode(vocab.encode_text(s)) == s


def test_determinism():
    corpus = ["one two three 1994", "two three four 1994"]
    a = build_vocab(corpus, target_size=64)
    b = build_vocab(corpus, target_size=64)
    assert a.tokens == b.tokens and a.merges == b.merges
    assert a.dumps() == b.dumps()


def test_target_size_too_small():
    with pytest.raises(ConfigError):
        build_vocab(["abc"], target_size=4)


def test_special_ids_distinct_and_dense():
    vocab = build_vocab(["abc"], target_size=16)
    ids = {vocab.pad_id, vocab.unk_id, vocab.cls_id, vocab.sep_id, vocab.mask_id}
    assert ids == {0, 1, 2, 3, 4}
    for i in range(vocab.size):
        assert isinstance(vocab.token(i), str)


def test_frequent_words_become_units():
    corpus = ["in 1994 the treaty was signed"] * 50
    vocab = build_vocab(corpus, target_size=80)
    assert vocab.encode_word("1994") == [vocab.tokens.index("1994")]


def test_no_learned_token_spans_two_annotator_tokens():
    texts = [r["text"] for r in generate_corpus(1000, seed=5, sentences_per_doc=4, undated_sentence_rate=0.2)]
    vocab = build_vocab(texts, target_size=512)
    assert vocab.merges
    assert [t for t in vocab.tokens[len(SPECIALS):] if len(tokenize_raw(t)) != 1] == []


_NEWS_VOCAB = build_vocab(["The U.S. treaty, signed in 1994, held until the 1990s ended.", "Mr. Smith left."] * 3,
                          target_size=80)


@given(st.lists(st.sampled_from(["the", "U.S.", "1990s", "1994,", "Smith.", " ", "\n\t", "\u00e9t\u00e9"])
                | st.text(max_size=8), max_size=20).map("".join))
def test_encode_text_without_whitespace_runs_is_the_word_encoder(text):
    """``encode_text`` encodes the text's tokens as the model does and its whitespace runs as bytes, in text order."""
    tokens = tokenize_raw(text)
    pieces = sorted([(t.char_start, t.text, True) for t in tokens]
                    + [(m.start(), m.group(), False) for m in re.finditer(r"\s+", text)])
    rest, kept = _NEWS_VOCAB.encode_text(text), []
    for _, piece, is_token in pieces:
        ids = _NEWS_VOCAB.encode_word(piece)
        assert rest[: len(ids)] == ids
        if is_token:
            kept += ids
        else:
            assert all(_NEWS_VOCAB.is_byte(i) for i in ids)
        rest = rest[len(ids):]
    assert rest == []
    assert kept == _NEWS_VOCAB.encode_words([t.text for t in tokens])[0]


def test_json_roundtrip():
    vocab = build_vocab(["some words here 2001"], target_size=48)
    clone = Vocabulary.loads(vocab.dumps())
    assert clone.tokens == vocab.tokens
    assert clone.encode_text("words 2001") == vocab.encode_text("words 2001")


def _merge_all(ids, a, b, merged):
    out, i = [], 0
    while i < len(ids):
        if i + 1 < len(ids) and ids[i] == a and ids[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def _reference_build_vocab(word_freq, target_size):
    """Recount every pair of every word after each merge, as build_vocab must reproduce it."""
    char_freq = {}
    for word, freq in word_freq.items():
        for ch in word:
            char_freq[ch] = char_freq.get(ch, 0) + freq
    tokens = list(SPECIALS) + sorted(char_freq, key=lambda c: (-char_freq[c], c))[: target_size - len(SPECIALS)]
    id_of = {tok: i for i, tok in enumerate(tokens)}
    encoded = {w: [id_of.get(ch, -1) for ch in w] for w in sorted(word_freq) if not w.isspace()}
    merges = []
    while len(tokens) < target_size:
        counts = {}
        for word, ids in encoded.items():
            for pair in zip(ids, ids[1:]):
                if min(pair) >= 0:
                    counts[pair] = counts.get(pair, 0) + word_freq[word]
        if not counts:
            break
        a, b = min(counts, key=lambda p: (-counts[p], tokens[p[0]], tokens[p[1]]))
        merges.append((a, b, len(tokens)))
        tokens.append(tokens[a] + tokens[b])
        encoded = {w: _merge_all(ids, a, b, len(tokens) - 1) for w, ids in encoded.items()}
    return tokens, merges


_word_tables = st.dictionaries(st.text(alphabet="abc é", min_size=1, max_size=8), st.integers(0, 6), max_size=12)


@given(_word_tables, st.integers(len(SPECIALS), 40))
def test_build_vocab_equals_full_recount(word_freq, target_size):
    vocab = build_vocab(dict(word_freq), target_size)
    assert (vocab.tokens, vocab.merges) == _reference_build_vocab(word_freq, target_size)


@given(_word_tables, st.integers(len(SPECIALS), 40),
       st.text(alphabet=st.sampled_from("abc éd€\U0001F600") | st.characters(), max_size=16))
def test_encode_word_equals_every_merge_in_order(word_freq, target_size, word):
    vocab = build_vocab(dict(word_freq), target_size)
    for text in [*word_freq, word, word.join(word_freq)]:
        ids = vocab._char_ids(text)
        for a, b, merged in vocab.merges:
            ids = _merge_all(ids, a, b, merged)
        assert vocab.encode_word(text) == ids
        assert vocab.decode(ids) == text
