"""Corpus-trained subword vocabulary with byte fallback.

Greedy frequency-based pair merges over the corpus word table, in the style
of byte-pair encoding: start from observed characters, repeatedly merge the
most frequent adjacent pair (ties broken by the lexicographically smallest
pair) until the named vocabulary reaches ``target_size``. A fixed block of
256 byte tokens sits after the named block so that any string, seen or not,
encodes and decodes losslessly. The words are the annotator's tokens, the
one split every model input goes through, so every merge can fire.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .annotate import tokenize_raw, tokenize_words
from .errors import ConfigError, ParseError

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
N_BYTES = 256


def _byte_text(raw: list[int]) -> str:
    """Text of byte-fallback ids: a lone surrogate comes back as encoded, other invalid bytes as U+FFFD."""
    try:
        return bytes(raw).decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        return bytes(raw).decode("utf-8", "replace")


@dataclass
class Vocabulary:
    tokens: list[str]                       # named block: specials + chars + merges
    merges: list[tuple[int, int, int]]      # (left_id, right_id, merged_id) in learned order
    _id_of: dict[str, int] = field(default_factory=dict, repr=False)
    _merge_table: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)
    _word_cache: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._id_of = {tok: i for i, tok in enumerate(self.tokens)}
        self._merge_table = {(a, b): m for a, b, m in self.merges}

    # -- layout -----------------------------------------------------------

    @property
    def named_size(self) -> int:
        return len(self.tokens)

    @property
    def size(self) -> int:
        """Total id count, byte-fallback block included."""
        return len(self.tokens) + N_BYTES

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    @property
    def cls_id(self) -> int:
        return 2

    @property
    def sep_id(self) -> int:
        return 3

    @property
    def mask_id(self) -> int:
        return 4

    def is_special(self, idx: int) -> bool:
        return idx < len(SPECIALS)

    def is_byte(self, idx: int) -> bool:
        return idx >= len(self.tokens)

    def token(self, idx: int) -> str:
        if idx < len(self.tokens):
            return self.tokens[idx]
        if idx < self.size:
            return f"<0x{idx - len(self.tokens):02X}>"
        raise ConfigError(f"id {idx} out of vocabulary of size {self.size}")

    # -- encoding ---------------------------------------------------------

    def _char_ids(self, word: str) -> list[int]:
        ids: list[int] = []
        base = len(self.tokens)
        for ch in word:
            idx = self._id_of.get(ch)
            if idx is None:
                ids.extend(base + b for b in ch.encode("utf-8", "surrogatepass"))
            else:
                ids.append(idx)
        return ids

    def encode_word(self, word: str) -> list[int]:
        return list(self._word_ids(word))

    def _word_ids(self, word: str) -> tuple[int, ...]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        # Apply the earliest merge present (merged ids grow with rank) until
        # none is. This equals applying every merge in learned order: a merge
        # only makes pairs that hold its new id, and no earlier merge names it.
        ids = self._char_ids(word)
        table = self._merge_table
        while len(ids) > 1:
            ranked = [(table[p], p) for p in zip(ids, ids[1:]) if p in table]
            if not ranked:
                break
            merged, (a, b) = min(ranked)
            ids = _merge_pair(ids, a, b, merged)
        cached = self._word_cache[word] = tuple(ids)
        return cached

    def encode_words(self, words: Iterable[str]) -> tuple[list[int], list[int]]:
        """The ids of ``words`` one after another, and where each word's ids start, the end last.

        Every model input is encoded here: documents, fine-tuning and query
        texts, period sentences and replacement surfaces.
        """
        ids: list[int] = []
        starts = [0]
        for word in words:
            ids += self._word_ids(word)
            starts.append(len(ids))
        return ids, starts

    def encode_text(self, text: str) -> list[int]:
        """Ids for a raw string; decoding them reproduces it exactly.

        Each token of ``annotate.tokenize_raw`` encodes as in ``encode_words``;
        the whitespace runs between tokens, never learned, fall back to bytes.
        """
        pieces, end = [], 0
        for tok in tokenize_raw(text):
            pieces += [text[end : tok.char_start], tok.text]
            end = tok.char_end
        pieces.append(text[end:])
        return self.encode_words(pieces)[0]

    def decode(self, ids: list[int]) -> str:
        out: list[str] = []
        pending: list[int] = []
        base = len(self.tokens)
        for idx in ids:
            if idx >= base:
                pending.append(idx - base)
                continue
            if pending:
                out.append(_byte_text(pending))
                pending = []
            out.append(self.tokens[idx])
        if pending:
            out.append(_byte_text(pending))
        return "".join(out)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"tokens": self.tokens, "merges": [list(m) for m in self.merges]}

    @staticmethod
    def from_json(data: dict) -> "Vocabulary":
        if not (isinstance(data, dict) and isinstance(data.get("tokens"), list)
                and isinstance(data.get("merges"), list)
                and all(isinstance(m, list) and len(m) == 3 for m in data["merges"])):
            raise ParseError("vocabulary must be a JSON object with a 'tokens' list and a 'merges' list of triples")
        return Vocabulary(list(data["tokens"]), [tuple(m) for m in data["merges"]])

    def dumps(self) -> str:
        return json.dumps(self.to_json(), ensure_ascii=False, sort_keys=True)

    @staticmethod
    def loads(text: str) -> "Vocabulary":
        return Vocabulary.from_json(json.loads(text))


def _merge_pair(ids: list[int], a: int, b: int, merged: int) -> list[int]:
    out: list[int] = []
    i = 0
    n = len(ids)
    while i < n:
        if i + 1 < n and ids[i] == a and ids[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def build_vocab(corpus: "list[str] | dict[str, int]", target_size: int) -> Vocabulary:
    """Learn a vocabulary of at most ``target_size`` named tokens.

    ``corpus`` is either raw strings, whose tokens (``annotate.tokenize_words``,
    the split every model input goes through) are counted, or a pre-counted
    word-frequency table.
    The named block holds the specials, then observed characters by
    frequency, then learned merges; identical corpora produce identical
    vocabularies.
    """
    if target_size < len(SPECIALS):
        raise ConfigError(f"target_size must be >= {len(SPECIALS)}, got {target_size}")

    word_freq: dict[str, int] = {}
    char_freq: dict[str, int] = {}
    if not isinstance(corpus, dict):
        corpus = Counter(word for text in corpus for word in tokenize_words(text))
    for piece, freq in corpus.items():
        for ch in piece:
            char_freq[ch] = char_freq.get(ch, 0) + freq
        if not piece.isspace():
            word_freq[piece] = word_freq.get(piece, 0) + freq

    tokens = list(SPECIALS)
    char_budget = target_size - len(SPECIALS)
    kept_chars = sorted(char_freq, key=lambda c: (-char_freq[c], c))[:char_budget]
    tokens.extend(sorted(kept_chars, key=lambda c: (-char_freq[c], c)))
    id_of = {tok: i for i, tok in enumerate(tokens)}

    # words as id sequences; characters that missed the budget fall back to
    # bytes at encode time and never participate in merges (-1 blocks pairs)
    words = sorted(word_freq)
    seqs = [[id_of.get(ch, -1) for ch in word] for word in words]
    # Pair counts and the words holding each pair stay exact as merges rewrite
    # words, so a merge touches only the words that hold its pair. A heap of
    # (-count, left, right) entries yields the pair a full recount would pick;
    # entries whose count is out of date are skipped. No two pairs tie on their
    # strings: merges inside a string run as in that string alone, so no string
    # is made twice.
    counts: dict[tuple[int, int], int] = {}
    holders: dict[tuple[int, int], set[int]] = {}
    heap: list[tuple] = []
    merges: list[tuple[int, int, int]] = []
    rewrite, best = range(len(words)), None  # the first pass counts every word
    while True:
        delta: dict[tuple[int, int], int] = {}
        for w in list(rewrite):
            freq = word_freq[words[w]]
            if best is not None:
                for p in _pairs(seqs[w]):
                    delta[p] = delta.get(p, 0) - freq
                    holders[p].discard(w)
                seqs[w] = _merge_pair(seqs[w], best[0], best[1], len(tokens) - 1)
            for p in _pairs(seqs[w]):
                delta[p] = delta.get(p, 0) + freq
                holders.setdefault(p, set()).add(w)
        for p, d in delta.items():
            if not holders[p]:
                del holders[p], counts[p]
            elif d or p not in counts:
                counts[p] = counts.get(p, 0) + d
                heapq.heappush(heap, (-counts[p], tokens[p[0]], tokens[p[1]], *p))
        while heap and counts.get(heap[0][3:]) != -heap[0][0]:
            heapq.heappop(heap)
        if len(tokens) >= target_size or not heap:
            break
        best = heap[0][3:]
        merges.append((best[0], best[1], len(tokens)))
        tokens.append(tokens[best[0]] + tokens[best[1]])
        rewrite = holders[best]

    return Vocabulary(tokens, merges)


def _pairs(ids: list[int]) -> list[tuple[int, int]]:
    return [p for p in zip(ids, ids[1:]) if p[0] >= 0 and p[1] >= 0]
