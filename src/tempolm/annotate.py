"""Deterministic rule-based annotation of news-style text.

Produces, for each document: offset-preserving tokens, sentence bounds, and
three kinds of typed spans — temporal expressions (with normalization where
the pattern pins one), temporal signals (with a relation class), and person
entities (externally supplied or via a capitalization heuristic).

Everything here is a pure function of its inputs, so documents can be
annotated in parallel without coordination.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
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
# lowercase words that can open an expression; any other opener starts with a digit or a capital
_LOWER_OPENERS = _SEASONS | _EDGE_MODIFIERS

# Capitalized words that start sentences or noun phrases far more often than
# they start names; kept short on purpose, the heuristic may overtag.
_CAP_STOPWORDS = {
    "The", "A", "An", "In", "On", "At", "By", "From", "But", "And", "Or", "Of",
    "To", "For", "With", "As", "He", "She", "It", "They", "We", "I", "You",
    "His", "Her", "Their", "Its", "This", "That", "These", "Those", "There",
    "When", "While", "After", "Before", "During", "Since", "Until",
}

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


@dataclass(frozen=True)
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


@dataclass
class AnnotatedDocument:
    id: str
    timestamp: TimePoint
    text: str
    tokens: list[Token]
    spans: list[Span]
    sentence_bounds: list[tuple[int, int]] = field(default_factory=list)

    def spans_of_kind(self, kind: SpanKind) -> list[Span]:
        return [s for s in self.spans if s.kind is kind]

    @property
    def month_key(self) -> str:
        return f"{self.timestamp.year:04d}-{self.timestamp.month:02d}"


def tokenize_raw(text: str) -> list[Token]:
    """Whitespace/punctuation tokenization with source offsets."""
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def split_sentences(tokens: list[Token]) -> list[tuple[int, int]]:
    """Sentence intervals over token indices.

    A sentence closes at terminal punctuation unless it follows a known
    abbreviation or a single-letter initial, or the next token does not look
    like a sentence opener. Trailing closers are pulled into the sentence.
    """
    bounds: list[tuple[int, int]] = []
    start = 0
    i = 0
    n = len(tokens)
    while i < n:
        text = tokens[i].text
        boundary = False
        if text in _TERMINAL_PUNCT:
            prev = tokens[i - 1].text if i > start else ""
            abbrev = text == "." and (
                prev.lower() in ABBREVIATIONS or (len(prev) == 1 and prev.isalpha() and prev.isupper())
            )
            if not abbrev:
                j = i + 1
                while j < n and tokens[j].text in _TERMINAL_OR_CLOSER:
                    j += 1
                if j >= n:
                    boundary = True
                    i = j - 1
                else:
                    nxt = tokens[j].text
                    if nxt[0].isupper() or nxt[0].isdigit() or nxt[0] in _OPENERS:
                        boundary = True
                        i = j - 1
        if boundary:
            bounds.append((start, i + 1))
            start = i + 1
        i += 1
    if start < n:
        bounds.append((start, n))
    return bounds


def _is_month(text: str) -> int | None:
    if text[0].isupper() and text.rstrip(".").lower() in _MONTHS:
        return _MONTHS[text.rstrip(".").lower()]
    return None


def _day_number(text: str) -> int | None:
    m = _DAY_NUM_RE.match(text)
    if m and 1 <= int(m.group(1)) <= 31:
        return int(m.group(1))
    return None


def _adjacent(tokens: list[Token], i: int, j: int) -> bool:
    return tokens[i].char_end == tokens[j].char_start


def _expression_candidates(tokens: list[Token]) -> list[tuple[int, int, TimePoint | None]]:
    """All raw pattern matches as (start, end, normalization) triples."""
    out: list[tuple[int, int, TimePoint | None]] = []
    n = len(tokens)
    texts = [t.text for t in tokens]

    # every pattern starts at a digit, a capital, a season or an edge modifier
    openers = [i for i, t in enumerate(texts) if t[0].isdigit() or t[0].isupper() or t.lower() in _LOWER_OPENERS]
    for i in openers:
        t = texts[i]
        digit = t[0].isdigit()  # digit-led patterns and word-led patterns never share a start

        # YYYY-MM-DD written without spaces
        if (
            digit and i + 4 < n
            and _YEAR_RE.match(t)
            and texts[i + 1] == "-" and texts[i + 3] == "-"
            and _TWO_DIGITS_RE.match(texts[i + 2]) and _TWO_DIGITS_RE.match(texts[i + 4])
            and all(_adjacent(tokens, k, k + 1) for k in range(i, i + 4))
        ):
            try:
                tp = TimePoint(int(t), int(texts[i + 2]), int(texts[i + 4]), granularity=Granularity.DAY)
                out.append((i, i + 5, tp))
            except Exception:
                pass

        # MM/DD/YYYY written without spaces
        if (
            digit and i + 4 < n
            and _ONE_OR_TWO_DIGITS_RE.match(t)
            and texts[i + 1] == "/" and texts[i + 3] == "/"
            and _ONE_OR_TWO_DIGITS_RE.match(texts[i + 2]) and _YEAR_RE.match(texts[i + 4])
            and all(_adjacent(tokens, k, k + 1) for k in range(i, i + 4))
        ):
            try:
                tp = TimePoint(int(texts[i + 4]), int(t), int(texts[i + 2]), granularity=Granularity.DAY)
                out.append((i, i + 5, tp))
            except Exception:
                pass

        # Month name [day] [,] [year] / month name "of" year
        month = None if digit else _is_month(t)
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
                        out.append((i, k + 1, TimePoint(year, month, day, granularity=Granularity.DAY)))
                    else:
                        out.append((i, k + 1, TimePoint(year, month, granularity=Granularity.MONTH)))
                except Exception:
                    pass
            elif day is not None:
                # "May 4" without a year: content time, but not anchorable
                out.append((i, j, None))

        # Decades: "1990s", "the 1990s", "the '90s"
        if digit and _DECADE_RE.match(t):
            start = i - 1 if i > 0 and texts[i - 1].lower() == "the" else i
            out.append((start, i + 1, TimePoint(int(t[:-1]), granularity=Granularity.DECADE)))
        if digit and _SHORT_DECADE_RE.match(t) and i > 0 and texts[i - 1] in {"'", "’"}:
            start = i - 2 if i > 1 and texts[i - 2].lower() == "the" else i - 1
            out.append((start, i + 1, None))  # century unknown

        # Bare 4-digit year 1000-2999
        if digit and _YEAR_RE.match(t):
            out.append((i, i + 1, TimePoint(int(t), granularity=Granularity.YEAR)))

        # Season + year ("summer 2006", "Winter of 1999")
        if not digit and t.lower() in _SEASONS:
            j = i + 1
            if j < n and texts[j] == "of":
                j += 1
            if j < n and _YEAR_RE.match(texts[j]):
                out.append((i, j + 1, TimePoint(int(texts[j]), granularity=Granularity.YEAR)))

        # early/mid/late + year or decade, optionally hyphenated or "the"-marked
        if not digit and t.lower() in _EDGE_MODIFIERS:
            j = i + 1
            if j < n and texts[j] in {"-", "the"}:
                j += 1
            if j < n:
                if _DECADE_RE.match(texts[j]):
                    out.append((i, j + 1, TimePoint(int(texts[j][:-1]), granularity=Granularity.DECADE)))
                elif _YEAR_RE.match(texts[j]):
                    out.append((i, j + 1, TimePoint(int(texts[j]), granularity=Granularity.YEAR)))
    return out


def _select_nonoverlapping(cands: list[tuple[int, int, TimePoint | None]]) -> list[tuple[int, int, TimePoint | None]]:
    """Longest match wins; ties broken by leftmost start."""
    taken: list[tuple[int, int, TimePoint | None]] = []
    covered: set[int] = set()
    for start, end, norm in sorted(cands, key=lambda c: (-(c[1] - c[0]), c[0])):
        if any(p in covered for p in range(start, end)):
            continue
        taken.append((start, end, norm))
        covered.update(range(start, end))
    taken.sort(key=lambda c: c[0])
    return taken


def _surface(text: str, tokens: list[Token], start: int, end: int) -> str:
    return text[tokens[start].char_start : tokens[end - 1].char_end]


def tag_temporal_expressions(tokens: list[Token], text: str) -> list[Span]:
    """Non-overlapping temporal-expression spans from the pattern inventory."""
    spans = []
    for start, end, norm in _select_nonoverlapping(_expression_candidates(tokens)):
        spans.append(
            Span(SpanKind.TEMPORAL_EXPRESSION, start, end, _surface(text, tokens, start, end), normalized=norm)
        )
    return spans


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
    if expressions is None:
        expressions = tag_temporal_expressions(tokens, text)
    in_expression = set()
    expression_starts = set()
    for s in expressions:
        in_expression.update(range(s.token_start, s.token_end))
        expression_starts.add(s.token_start)

    spans: list[Span] = []
    n = len(tokens)
    max_len = lexicon.max_phrase_len
    lowered = [t.text.lower() for t in tokens]
    first_words = {key[0] for key in lexicon.entries if key}
    resume = 0  # the first token after the last match
    for i in [i for i, word in enumerate(lowered) if word in first_words]:
        if i < resume:
            continue
        matched = None
        for length in range(min(max_len, n - i), 0, -1):
            key = tuple(lowered[i : i + length])
            relation = lexicon.entries.get(key)
            if relation is None:
                continue
            if any((i + k) in in_expression for k in range(length)):
                continue
            if lexicon.is_restricted(key) and (i + length) not in expression_starts:
                continue
            matched = (length, relation)
            break
        if matched:
            length, relation = matched
            spans.append(
                Span(SpanKind.TEMPORAL_SIGNAL, i, i + length, _surface(text, tokens, i, i + length), relation=relation)
            )
            resume = i + length
    return spans


def _namelike_elements(tokens: list[Token], i: int) -> int:
    """Length in tokens of the namelike element starting at ``i`` (0 if none)."""
    t = tokens[i].text
    if not t[0].isupper():
        return 0
    if _CAP_WORD_RE.match(t):
        if t in _CAP_STOPWORDS or t.lower() in _MONTHS or t.lower() in _SEASONS or t.lower() in _WEEKDAYS:
            return 0
        return 1
    if _INITIALISM_RE.match(t):
        return 1
    if len(t) == 1 and t.isupper() and i + 1 < len(tokens) and tokens[i + 1].text == ".":
        return 2  # an initial like "J."
    return 0


def tag_persons_heuristic(tokens: list[Token], text: str, blocked: set[int] | None = None) -> list[Span]:
    """Capitalized-run + honorific person tagger.

    Tags honorific-led names ("Mr. Smith") and runs of two or more
    capitalized name-like tokens ("Tupac Shakur"); single bare surnames are
    left to external annotation.
    """
    blocked = blocked or set()
    spans: list[Span] = []
    n = len(tokens)
    resume = 0  # the first token after the last span
    # honorifics and name-like elements are capitalized
    for i in [i for i, t in enumerate(tokens) if t.text[0].isupper() and i not in blocked]:
        if i < resume:
            continue
        start = None
        j = i
        honorific = tokens[i].text.rstrip(".").lower() in HONORIFICS
        if honorific:
            start = i
            j = i + 1
            if j < n and tokens[j].text == ".":
                j += 1
        run_start = j
        while j < n and j not in blocked:
            step = _namelike_elements(tokens, j)
            if step == 0:
                break
            j += step
        run_len = j - run_start
        if honorific and run_len >= 1:
            spans.append(Span(SpanKind.PERSON, start, j, _surface(text, tokens, start, j)))
            resume = j
        elif not honorific and run_len >= 2:
            spans.append(Span(SpanKind.PERSON, run_start, j, _surface(text, tokens, run_start, j)))
            resume = j
    return spans


def tag_persons_external(
    tokens: list[Token], annotations: list[tuple[int, int, str]], text: str
) -> list[Span]:
    """Snap character-offset person annotations to covering tokens."""
    spans: list[Span] = []
    covered: set[int] = set()
    for char_start, char_end, _surface_text in sorted(annotations):
        if char_start < 0 or char_end > len(text) or char_start >= char_end:
            raise AnnotationAlignmentError(
                f"person span [{char_start}, {char_end}) outside text of length {len(text)}"
            )
        idx = [
            k for k, t in enumerate(tokens)
            if t.char_end > char_start and t.char_start < char_end
        ]
        if not idx:
            raise AnnotationAlignmentError(
                f"person span [{char_start}, {char_end}) covers no tokens"
            )
        start, end = idx[0], idx[-1] + 1
        if any(k in covered for k in range(start, end)):
            continue
        covered.update(range(start, end))
        spans.append(Span(SpanKind.PERSON, start, end, _surface(text, tokens, start, end)))
    return spans


def annotate_persons(
    tokens: list[Token],
    external: list[tuple[int, int, str]] | None,
    text: str,
    blocked: set[int] | None = None,
) -> list[Span]:
    """Person spans, from external annotations when given, else heuristic."""
    if external is not None:
        return tag_persons_external(tokens, external, text)
    return tag_persons_heuristic(tokens, text, blocked)


def _within_one_sentence(span: Span, bounds: list[tuple[int, int]]) -> bool:
    return any(s <= span.token_start and span.token_end <= e for s, e in bounds)


def annotate_document(
    doc_id: str,
    timestamp_text: str,
    text: str,
    persons: list[tuple[int, int, str]] | None = None,
    lexicon: SignalLexicon | None = None,
) -> AnnotatedDocument:
    """Run tokenization, sentence splitting, and all three taggers.

    ``persons=None`` selects the heuristic tagger; a (possibly empty) list
    selects external mode. Spans crossing sentence bounds are discarded.
    """
    timestamp = parse_timestamp(timestamp_text)
    lexicon = lexicon or SignalLexicon.default()
    tokens = tokenize_raw(text)
    bounds = split_sentences(tokens)
    expressions = tag_temporal_expressions(tokens, text)
    signals = tag_temporal_signals(tokens, lexicon, text, expressions)
    blocked = set()
    for s in expressions + signals:
        blocked.update(range(s.token_start, s.token_end))
    person_spans = annotate_persons(tokens, persons, text, blocked)
    person_spans = [
        p for p in person_spans
        if not any(k in blocked for k in range(p.token_start, p.token_end))
    ]
    spans = [
        s for s in expressions + signals + person_spans
        if _within_one_sentence(s, bounds)
    ]
    spans.sort(key=lambda s: (s.token_start, s.kind.value))
    return AnnotatedDocument(doc_id, timestamp, text, tokens, spans, bounds)
