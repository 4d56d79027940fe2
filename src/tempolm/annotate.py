"""Deterministic rule-based annotation of news-style text.

Produces, for each document: offset-preserving tokens, sentence bounds, and
three kinds of typed spans — temporal expressions (with normalization where
the pattern pins one), temporal signals (with a relation class), and person
entities (externally supplied or via a capitalization heuristic).

Everything here is a pure function of its inputs, so documents can be
annotated in parallel without coordination.
"""

from __future__ import annotations

import functools
import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Container
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from .errors import AnnotationAlignmentError
from .lexicon import Relation, SignalLexicon
from .timescale import Granularity, TimePoint, parse_timestamp

# Letter runs, digit-led runs ("1990s", "4th"), dotted initialisms ("U.S."),
# and single symbols; every non-space character lands in exactly one token.
_TOKEN_RE = re.compile(r"(?:[A-Za-z]\.){2,}|[A-Za-z]+|[0-9]+[A-Za-z]*|[^\sA-Za-z0-9]")

_TERMINAL_PUNCT = {".", "!", "?"}
_CLOSERS = {'"', "'", ")", "]", "”", "’"}
_TERMINAL_OR_CLOSER = _TERMINAL_PUNCT | _CLOSERS
_OPENERS = {'"', "'", "(", "[", "“", "‘"}

ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "sen", "gov", "rep", "gen", "sgt", "col",
    "capt", "lt", "rev", "hon", "st", "jr", "sr", "inc", "co", "corp", "ltd",
    "vs", "etc", "no", "vol", "fig", "jan", "feb", "mar", "apr", "jun", "jul",
    "aug", "sep", "sept", "oct", "nov", "dec",
}

HONORIFICS = {
    "mr", "mrs", "ms", "dr", "prof", "sen", "gov", "rep", "gen", "president",
    "judge", "justice", "rev", "sir", "lady", "lord", "col", "capt", "sgt", "lt",
}

_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12, "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7,
    "aug": 8, "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}
_SEASONS = {"spring", "summer", "fall", "autumn", "winter"}
_WEEKDAYS = {"monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"}
_EDGE_MODIFIERS = {"early", "mid", "late"}
# lowercased words that can open an expression; any other opener starts with a digit
_OPENER_WORDS = frozenset(_MONTHS) | _SEASONS | _EDGE_MODIFIERS

# Capitalized words that start sentences or noun phrases far more often than
# they start names; kept short on purpose, the heuristic may overtag.
_CAP_STOPWORDS = {
    "The", "A", "An", "In", "On", "At", "By", "From", "But", "And", "Or", "Of",
    "To", "For", "With", "As", "He", "She", "It", "They", "We", "I", "You",
    "His", "Her", "Their", "Its", "This", "That", "These", "Those", "There",
    "When", "While", "After", "Before", "During", "Since", "Until",
}
# lowercased capitalized words that are never part of a name
_NOT_NAMES = frozenset(_MONTHS) | _SEASONS | _WEEKDAYS

_YEAR_RE = re.compile(r"^[12]\d{3}$")
_DECADE_RE = re.compile(r"^[12]\d{2}0s$")
_SHORT_DECADE_RE = re.compile(r"^\d0s$")
_TWO_DIGITS_RE = re.compile(r"^\d{2}$")
_ONE_OR_TWO_DIGITS_RE = re.compile(r"^\d{1,2}$")
_DAY_NUM_RE = re.compile(r"^([0-9]{1,2})(st|nd|rd|th)?$")
_CAP_WORD_RE = re.compile(r"^[A-Z][a-z]+$")
_INITIALISM_RE = re.compile(r"^(?:[A-Z]\.){2,}$")


class SpanKind(str, Enum):
    TEMPORAL_EXPRESSION = "expression"
    TEMPORAL_SIGNAL = "signal"
    PERSON = "person"


class Token(NamedTuple):
    text: str
    char_start: int
    char_end: int


@dataclass(frozen=True, slots=True)
class Span:
    """A typed token range; ``token_end`` is exclusive."""

    kind: SpanKind
    token_start: int
    token_end: int
    surface: str
    relation: Relation | None = None
    normalized: TimePoint | None = None

    def __post_init__(self):
        if self.token_start >= self.token_end:
            raise ValueError("span must cover at least one token")
        if (self.relation is not None) != (self.kind is SpanKind.TEMPORAL_SIGNAL):
            raise ValueError("relation present iff span is a temporal signal")
        if self.normalized is not None and self.kind is not SpanKind.TEMPORAL_EXPRESSION:
            raise ValueError("only temporal expressions carry a normalization")


@dataclass(slots=True)
class AnnotatedDocument:
    """A document with its tokens held as columns: interned texts and ``array('q')`` char offsets."""

    id: str
    timestamp: TimePoint
    text: str
    token_texts: list[str]
    token_starts: array
    token_ends: array
    spans: list[Span]
    sentence_bounds: list[tuple[int, int]] = field(default_factory=list)

    @property
    def tokens(self) -> list[Token]:
        """The tokens as ``Token`` views, built on each access."""
        return list(map(Token, self.token_texts, self.token_starts, self.token_ends))

    def spans_of_kind(self, kind: SpanKind) -> list[Span]:
        return [s for s in self.spans if s.kind is kind]

    @property
    def month_key(self) -> str:
        return f"{self.timestamp.year:04d}-{self.timestamp.month:02d}"


@dataclass(slots=True)
class _Columns:
    """A text's tokens as columns, with the token indices where each later stage can start."""

    texts: list[str]
    starts: array
    ends: array
    lowered: list[str]
    openers: list[int]  # digit-led, or a month, season or edge word: an expression can open here
    heads: list[int]  # the first word of a lexicon phrase: a signal can open here
    caps: list[int]  # capitalized: an honorific or a name can open here
    terminals: list[int]  # ".", "!" or "?": a sentence can close here


def _columns(texts: list[str], starts: array, ends: array, first_words: Container[str]) -> _Columns:
    """One pass over the token texts that lowercases them and records every stage's start indices."""
    cols = _Columns(texts, starts, ends, [], [], [], [], [])
    lowered, openers, heads, caps, terminals = cols.lowered, cols.openers, cols.heads, cols.caps, cols.terminals
    for i, t in enumerate(texts):
        low = t.lower()
        lowered.append(low)
        if t[0].isupper():
            caps.append(i)
            if low in _OPENER_WORDS:
                openers.append(i)
        elif t[0].isdigit() or low in _OPENER_WORDS:
            openers.append(i)
        if low in first_words:
            heads.append(i)
        if t in _TERMINAL_PUNCT:
            terminals.append(i)
    return cols


def _token_columns(tokens: list[Token], first_words: Container[str] = ()) -> _Columns:
    return _columns([t.text for t in tokens], array("q", [t.char_start for t in tokens]),
                    array("q", [t.char_end for t in tokens]), first_words)


def tokenize_raw(text: str) -> list[Token]:
    """Whitespace/punctuation tokenization with source offsets."""
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def tokenize_words(text: str) -> list[str]:
    """The token texts of ``tokenize_raw``, without offsets."""
    return _TOKEN_RE.findall(text)


def split_sentences(tokens: list[Token]) -> list[tuple[int, int]]:
    """Sentence intervals over token indices.

    A sentence closes at terminal punctuation unless it follows a known
    abbreviation or a single-letter initial, or the next token does not look
    like a sentence opener. Trailing closers are pulled into the sentence.
    """
    return _sentence_bounds(_token_columns(tokens))


def _sentence_bounds(cols: _Columns) -> list[tuple[int, int]]:
    texts = cols.texts
    n = len(texts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in cols.terminals:
        if i < start:
            continue  # a terminal already pulled into the sentence before
        if texts[i] == "." and i > start:
            prev = texts[i - 1]
            if cols.lowered[i - 1] in ABBREVIATIONS or (len(prev) == 1 and prev.isalpha() and prev.isupper()):
                continue
        j = i + 1
        while j < n and texts[j] in _TERMINAL_OR_CLOSER:
            j += 1
        if j < n and not (texts[j][0].isupper() or texts[j][0].isdigit() or texts[j][0] in _OPENERS):
            continue
        bounds.append((start, j))
        start = j
    if start < n:
        bounds.append((start, n))
    return bounds


def _day_number(text: str) -> int | None:
    m = _DAY_NUM_RE.match(text)
    if m and 1 <= int(m.group(1)) <= 31:
        return int(m.group(1))
    return None


# time points are immutable and a corpus names few distinct ones, so each is built once
_time_point = functools.lru_cache(maxsize=4096)(TimePoint)


def _expression_candidates(cols: _Columns) -> list[tuple[int, int, TimePoint | None]]:
    """All raw pattern matches as (start, end, normalization) triples."""
    out: list[tuple[int, int, TimePoint | None]] = []
    texts, lowered, starts, ends = cols.texts, cols.lowered, cols.starts, cols.ends
    n = len(texts)
    for i in cols.openers:
        t = texts[i]
        digit = t[0].isdigit()  # digit-led patterns and word-led patterns never share a start

        # YYYY-MM-DD written without spaces
        if (
            digit and i + 4 < n
            and texts[i + 1] == "-" and texts[i + 3] == "-"
            and _YEAR_RE.match(t)
            and _TWO_DIGITS_RE.match(texts[i + 2]) and _TWO_DIGITS_RE.match(texts[i + 4])
            and all(ends[k] == starts[k + 1] for k in range(i, i + 4))  # written without spaces
        ):
            try:
                tp = _time_point(int(t), int(texts[i + 2]), int(texts[i + 4]), granularity=Granularity.DAY)
                out.append((i, i + 5, tp))
            except Exception:
                pass

        # MM/DD/YYYY written without spaces
        if (
            digit and i + 4 < n
            and texts[i + 1] == "/" and texts[i + 3] == "/"
            and _ONE_OR_TWO_DIGITS_RE.match(t)
            and _ONE_OR_TWO_DIGITS_RE.match(texts[i + 2]) and _YEAR_RE.match(texts[i + 4])
            and all(ends[k] == starts[k + 1] for k in range(i, i + 4))  # written without spaces
        ):
            try:
                tp = _time_point(int(texts[i + 4]), int(t), int(texts[i + 2]), granularity=Granularity.DAY)
                out.append((i, i + 5, tp))
            except Exception:
                pass

        # Month name [day] [,] [year] / month name "of" year
        month = _MONTHS.get(lowered[i]) if t[0].isupper() else None
        if month is not None:
            j = i + 1
            day = None
            if j < n and (day := _day_number(texts[j])) is not None:
                j += 1
            k = j
            if k < n and texts[k] in {",", "of"}:
                k += 1
            if k < n and _YEAR_RE.match(texts[k]):
                year = int(texts[k])
                try:
                    if day is not None:
                        out.append((i, k + 1, _time_point(year, month, day, granularity=Granularity.DAY)))
                    else:
                        out.append((i, k + 1, _time_point(year, month, granularity=Granularity.MONTH)))
                except Exception:
                    pass
            elif day is not None:
                # "May 4" without a year: content time, but not anchorable
                out.append((i, j, None))

        # Decades: "1990s", "the 1990s", "the '90s"
        if digit and _DECADE_RE.match(t):
            start = i - 1 if i > 0 and lowered[i - 1] == "the" else i
            out.append((start, i + 1, _time_point(int(t[:-1]), granularity=Granularity.DECADE)))
        if digit and _SHORT_DECADE_RE.match(t) and i > 0 and texts[i - 1] in {"'", "’"}:
            start = i - 2 if i > 1 and lowered[i - 2] == "the" else i - 1
            out.append((start, i + 1, None))  # century unknown

        # Bare 4-digit year 1000-2999
        if digit and _YEAR_RE.match(t):
            out.append((i, i + 1, _time_point(int(t), granularity=Granularity.YEAR)))

        # Season + year ("summer 2006", "Winter of 1999")
        if not digit and lowered[i] in _SEASONS:
            j = i + 1
            if j < n and texts[j] == "of":
                j += 1
            if j < n and _YEAR_RE.match(texts[j]):
                out.append((i, j + 1, _time_point(int(texts[j]), granularity=Granularity.YEAR)))

        # early/mid/late + year or decade, optionally hyphenated or "the"-marked
        if not digit and lowered[i] in _EDGE_MODIFIERS:
            j = i + 1
            if j < n and texts[j] in {"-", "the"}:
                j += 1
            if j < n:
                if _DECADE_RE.match(texts[j]):
                    out.append((i, j + 1, _time_point(int(texts[j][:-1]), granularity=Granularity.DECADE)))
                elif _YEAR_RE.match(texts[j]):
                    out.append((i, j + 1, _time_point(int(texts[j]), granularity=Granularity.YEAR)))
    return out


def _select_nonoverlapping(cands: list[tuple[int, int, TimePoint | None]]) -> list[tuple[int, int, TimePoint | None]]:
    """Longest match wins; ties broken by leftmost start."""
    taken: list[tuple[int, int, TimePoint | None]] = []
    covered: set[int] = set()
    for start, end, norm in sorted(cands, key=lambda c: (-(c[1] - c[0]), c[0])):
        if not covered.isdisjoint(range(start, end)):
            continue
        taken.append((start, end, norm))
        covered.update(range(start, end))
    taken.sort(key=lambda c: c[0])
    return taken


def _surface(text: str, cols: _Columns, start: int, end: int) -> str:
    return sys.intern(text[cols.starts[start] : cols.ends[end - 1]])


def tag_temporal_expressions(tokens: list[Token], text: str) -> list[Span]:
    """Non-overlapping temporal-expression spans from the pattern inventory."""
    return _expressions(_token_columns(tokens), text)


def _expressions(cols: _Columns, text: str) -> list[Span]:
    return [Span(SpanKind.TEMPORAL_EXPRESSION, start, end, _surface(text, cols, start, end), normalized=norm)
            for start, end, norm in _select_nonoverlapping(_expression_candidates(cols))]


def tag_temporal_signals(
    tokens: list[Token],
    lexicon: SignalLexicon,
    text: str,
    expressions: list[Span] | None = None,
) -> list[Span]:
    """Lexicon matches as signal spans, longest match first.

    Matches overlapping a temporal expression are suppressed, and
    context-restricted prepositions are tagged only when the token right
    after them opens a temporal expression.
    """
    cols = _token_columns(tokens, lexicon.phrase_heads)
    return _signals(cols, lexicon, text, _expressions(cols, text) if expressions is None else expressions)


def _signals(cols: _Columns, lexicon: SignalLexicon, text: str, expressions: list[Span]) -> list[Span]:
    in_expression = set()
    expression_starts = set()
    for s in expressions:
        in_expression.update(range(s.token_start, s.token_end))
        expression_starts.add(s.token_start)

    spans: list[Span] = []
    lowered = cols.lowered
    n = len(lowered)
    longest = lexicon.phrase_heads
    resume = 0  # the first token after the last match
    for i in cols.heads:
        if i < resume:
            continue
        matched = None
        for length in range(min(longest[lowered[i]], n - i), 0, -1):
            key = tuple(lowered[i : i + length])
            relation = lexicon.entries.get(key)
            if relation is None:
                continue
            if not in_expression.isdisjoint(range(i, i + length)):
                continue
            if lexicon.is_restricted(key) and (i + length) not in expression_starts:
                continue
            matched = (length, relation)
            break
        if matched:
            length, relation = matched
            spans.append(
                Span(SpanKind.TEMPORAL_SIGNAL, i, i + length, _surface(text, cols, i, i + length), relation=relation)
            )
            resume = i + length
    return spans


def _namelike_elements(cols: _Columns, i: int) -> int:
    """Length in tokens of the namelike element starting at ``i`` (0 if none)."""
    t = cols.texts[i]
    if not t[0].isupper():
        return 0
    if _CAP_WORD_RE.match(t):
        return 0 if t in _CAP_STOPWORDS or cols.lowered[i] in _NOT_NAMES else 1
    if _INITIALISM_RE.match(t):
        return 1
    if len(t) == 1 and t.isupper() and i + 1 < len(cols.texts) and cols.texts[i + 1] == ".":
        return 2  # an initial like "J."
    return 0


def tag_persons_heuristic(tokens: list[Token], text: str, blocked: set[int] | None = None) -> list[Span]:
    """Capitalized-run + honorific person tagger.

    Tags honorific-led names ("Mr. Smith") and runs of two or more
    capitalized name-like tokens ("Tupac Shakur"); single bare surnames are
    left to external annotation.
    """
    return _persons(_token_columns(tokens), text, blocked or set())


def _persons(cols: _Columns, text: str, blocked: set[int]) -> list[Span]:
    texts = cols.texts
    spans: list[Span] = []
    n = len(texts)
    resume = 0  # the first token after the last span
    for i in cols.caps:  # honorifics and name-like elements are capitalized
        if i < resume or i in blocked:
            continue
        start = None
        j = i
        honorific = cols.lowered[i].rstrip(".") in HONORIFICS
        if honorific:
            start = i
            j = i + 1
            if j < n and texts[j] == ".":
                j += 1
        run_start = j
        while j < n and j not in blocked:
            step = _namelike_elements(cols, j)
            if step == 0:
                break
            j += step
        run_len = j - run_start
        if honorific and run_len >= 1:
            spans.append(Span(SpanKind.PERSON, start, j, _surface(text, cols, start, j)))
            resume = j
        elif not honorific and run_len >= 2:
            spans.append(Span(SpanKind.PERSON, run_start, j, _surface(text, cols, run_start, j)))
            resume = j
    return spans


def _persons_external(cols: _Columns, annotations: list[tuple[int, int, str]], text: str) -> list[Span]:
    spans: list[Span] = []
    covered: set[int] = set()
    for char_start, char_end, _surface_text in sorted(annotations):
        if char_start < 0 or char_end > len(text) or char_start >= char_end:
            raise AnnotationAlignmentError(
                f"person span [{char_start}, {char_end}) outside text of length {len(text)}"
            )
        # tokens are ordered and disjoint: the first ending after the span's start to the last starting before its end
        start, end = bisect_right(cols.ends, char_start), bisect_left(cols.starts, char_end)
        if start >= end:
            raise AnnotationAlignmentError(
                f"person span [{char_start}, {char_end}) covers no tokens"
            )
        if not covered.isdisjoint(range(start, end)):
            continue
        covered.update(range(start, end))
        spans.append(Span(SpanKind.PERSON, start, end, _surface(text, cols, start, end)))
    return spans


def _sentence_of(span: Span, bounds: list[tuple[int, int]], sentence_starts: list[int]) -> int:
    """The index of the sentence holding ``span``, or -1; ``bounds`` ascend without overlap."""
    k = bisect_right(sentence_starts, span.token_start) - 1
    return k if k >= 0 and span.token_end <= bounds[k][1] else -1


_default_lexicon = functools.cache(SignalLexicon.default)


def annotate_document(
    doc_id: str,
    timestamp_text: str,
    text: str,
    persons: list[tuple[int, int, str]] | None = None,
    lexicon: SignalLexicon | None = None,
) -> AnnotatedDocument:
    """Tokenization, sentence splitting and all three taggers, in one pass over the token columns.

    Equals the public functions composed: ``tokenize_raw``, ``split_sentences``, expressions, signals
    that avoid them, then persons that touch neither (``persons=None`` selects the heuristic tagger, a
    possibly empty list external mode); spans crossing sentence bounds are discarded, the rest sorted.
    """
    timestamp = parse_timestamp(timestamp_text)
    lexicon = lexicon or _default_lexicon()
    found = list(_TOKEN_RE.finditer(text))
    cols = _columns(list(map(sys.intern, map(re.Match.group, found))),
                    array("q", map(re.Match.start, found)), array("q", map(re.Match.end, found)), lexicon.phrase_heads)
    bounds = _sentence_bounds(cols)
    expressions = _expressions(cols, text)
    signals = _signals(cols, lexicon, text, expressions)
    blocked = set()
    for s in expressions + signals:
        blocked.update(range(s.token_start, s.token_end))
    person_spans = _persons(cols, text, blocked) if persons is None else _persons_external(cols, persons, text)
    sentence_starts = [s for s, _ in bounds]
    spans = [
        s for s in expressions + signals + person_spans
        if _sentence_of(s, bounds, sentence_starts) >= 0
        and (s.kind is not SpanKind.PERSON or blocked.isdisjoint(range(s.token_start, s.token_end)))
    ]
    spans.sort(key=attrgetter("token_start", "kind"))  # kinds compare as their string values
    return AnnotatedDocument(doc_id, timestamp, text, cols.texts, cols.starts, cols.ends, spans, bounds)
