"""Corpus-trained subword vocabulary with byte fallback.

Greedy frequency-based pair merges over the corpus word table, in the style
of byte-pair encoding: start from observed characters, repeatedly merge the
most frequent adjacent pair (ties broken by the lexicographically smallest
pair) until the named vocabulary reaches ``target_size``. A fixed block of
256 byte tokens sits after the named block so that any string, seen or not,
encodes and decodes losslessly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import ConfigError, ParseError

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
N_BYTES = 256

_PIECE_RE = re.compile(r"\S+|\s+")


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
                ids.extend(base + b for b in ch.encode("utf-8"))
            else:
                ids.append(idx)
        return ids

    def encode_word(self, word: str) -> list[int]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return list(cached)
        ids = self._char_ids(word)
        for (a, b, merged) in self.merges:
            if len(ids) < 2:
                break
            ids = _merge_pair(ids, a, b, merged)
        self._word_cache[word] = tuple(ids)
        return list(ids)

    def encode_text(self, text: str) -> list[int]:
        """Ids for a raw string; decoding them reproduces it exactly."""
        ids: list[int] = []
        for piece in _PIECE_RE.findall(text):
            ids.extend(self.encode_word(piece))
        return ids

    def decode(self, ids: list[int]) -> str:
        out: list[str] = []
        pending: list[int] = []
        base = len(self.tokens)
        for idx in ids:
            if idx >= base:
                pending.append(idx - base)
                continue
            if pending:
                out.append(bytes(pending).decode("utf-8", errors="replace"))
                pending = []
            out.append(self.tokens[idx])
        if pending:
            out.append(bytes(pending).decode("utf-8", errors="replace"))
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

    ``corpus`` is either raw strings or a pre-counted word-frequency table.
    The named block holds the specials, then observed characters by
    frequency, then learned merges; identical corpora produce identical
    vocabularies.
    """
    if target_size < len(SPECIALS):
        raise ConfigError(f"target_size must be >= {len(SPECIALS)}, got {target_size}")

    word_freq: dict[str, int] = {}
    char_freq: dict[str, int] = {}
    if isinstance(corpus, dict):
        items = corpus.items()
    else:
        items = _count_pieces(corpus).items()
    for piece, freq in items:
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
    encoded = {
        word: [id_of.get(ch, -1) for ch in word]
        for word in sorted(word_freq)
    }
    merges: list[tuple[int, int, int]] = []
    while len(tokens) < target_size:
        pair_counts: dict[tuple[int, int], int] = {}
        for word, ids in encoded.items():
            freq = word_freq[word]
            for i in range(len(ids) - 1):
                if ids[i] < 0 or ids[i + 1] < 0:
                    continue
                pair = (ids[i], ids[i + 1])
                pair_counts[pair] = pair_counts.get(pair, 0) + freq
        if not pair_counts:
            break
        best = min(
            pair_counts,
            key=lambda p: (-pair_counts[p], tokens[p[0]], tokens[p[1]]),
        )
        merged_id = len(tokens)
        tokens.append(tokens[best[0]] + tokens[best[1]])
        merges.append((best[0], best[1], merged_id))
        for word in encoded:
            encoded[word] = _merge_pair(encoded[word], best[0], best[1], merged_id)

    return Vocabulary(tokens, merges)


def _count_pieces(texts: list[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for text in texts:
        for piece in _PIECE_RE.findall(text):
            counts[piece] = counts.get(piece, 0) + 1
    return counts
