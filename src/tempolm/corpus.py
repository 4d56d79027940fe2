"""Corpus ingestion, refinement, entity calendars, and dataset splits.

The ingestion format is one JSON record per line with ``id``, ``timestamp``
("YYYY-MM-DD"), ``text``, and optional ``persons`` ([char_start, char_end,
surface] triples). Annotated corpora reuse the record and add ``tokens``,
``spans``, ``sentences``, and a schema version ``v``.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .annotate import AnnotatedDocument, Span, SpanKind, _sentence_of
from .errors import ConfigError, ParseError, TimestampParseError
from .lexicon import Relation
from .manifest import jsonl_line, read_json, read_jsonl, read_lines, write_atomic
from .timescale import CorpusSpan, Granularity, TimePoint, parse_timestamp

SCHEMA_VERSION = 1

T = TypeVar("T")


def read_raw_records(path: str | Path, skip_bad: bool = False) -> Iterator[tuple[int, dict]]:
    """``(line number, record)`` of each valid ingestion record; a bad record raises a line-numbered
    ``ParseError`` unless ``skip_bad`` skips it. A line that is not UTF-8 always raises."""
    for lineno, line in read_lines(path):
        try:
            rec = parse_raw_record(line, lineno)
        except ParseError:
            if skip_bad:
                continue
            raise
        yield lineno, rec


def parse_raw_record(line: str, lineno: int | None = None) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", lineno) from None
    if not isinstance(rec, dict):
        raise ParseError("record must be a JSON object", lineno)
    for key in ("id", "timestamp", "text"):
        if key not in rec:
            raise ParseError(f"missing field {key!r}", lineno)
    if not isinstance(rec["text"], str):
        raise ParseError("field 'text' must be a string", lineno)
    try:
        parse_timestamp(rec["timestamp"])
    except (TimestampParseError, TypeError) as exc:
        raise ParseError(f"bad field 'timestamp': {exc}", lineno) from None
    if "persons" in rec and rec["persons"] is not None:
        persons = rec["persons"]
        if not isinstance(persons, list) or any(
            not (isinstance(p, (list, tuple)) and len(p) == 3) for p in persons
        ):
            raise ParseError("field 'persons' must be a list of [start, end, surface]", lineno)
    return rec


def document_to_record(doc: AnnotatedDocument) -> dict:
    spans = []
    for s in doc.spans:
        spans.append({
            "kind": s.kind.value,
            "start": s.token_start,
            "end": s.token_end,
            "surface": s.surface,
            "relation": s.relation.value if s.relation else None,
            "normalized": s.normalized.render() if s.normalized else None,
        })
    return {
        "v": SCHEMA_VERSION,
        "id": doc.id,
        "timestamp": doc.timestamp.render(),
        "text": doc.text,
        "tokens": list(map(list, zip(doc.token_texts, doc.token_starts, doc.token_ends))),
        "spans": spans,
        "sentences": [list(b) for b in doc.sentence_bounds],
    }


def _check_range(start, end, n_tokens: int) -> None:
    if type(start) is not int or type(end) is not int or not 0 <= start < end <= n_tokens:
        raise ValueError(f"[{start!r}, {end!r}] is not a token range inside {n_tokens} tokens")


def record_to_document(rec: dict) -> AnnotatedDocument:
    """The document an annotated record holds; a record of the wrong shape raises ``ParseError``."""
    if not isinstance(rec, dict):
        raise ParseError("annotated record must be a JSON object")
    if rec.get("v") != SCHEMA_VERSION:
        raise ParseError(f"unsupported annotated-record version {rec.get('v')!r}")
    part = "timestamp"
    try:
        timestamp = parse_timestamp(rec["timestamp"])
        part = "tokens"
        # token by token, so the first bad token raises; then each column's types in one C-level pass
        texts, starts, ends = [*zip(*map(itemgetter(0, 1, 2), rec["tokens"]))] or ((), (), ())
        if set(map(type, texts)) - {str} or (set(map(type, starts)) | set(map(type, ends))) - {int}:
            raise TypeError("token text must be a string and its offsets integers")
        token_starts, token_ends = array("q", starts), array("q", ends)
        part = "spans"
        n_tokens = len(texts)
        spans = []
        for s in rec["spans"]:
            start, end = s["start"], s["end"]
            _check_range(start, end, n_tokens)
            normalized = TimePoint.parse(s["normalized"]) if s.get("normalized") else None
            spans.append(Span(
                kind=SpanKind(s["kind"]),
                token_start=start,
                token_end=end,
                surface=sys.intern(s["surface"]),
                relation=Relation(s["relation"]) if s.get("relation") else None,
                normalized=normalized,
            ))
        part = "sentences"
        sentence_bounds = []
        for start, end in rec["sentences"]:
            _check_range(start, end, n_tokens)
            if sentence_bounds and start < sentence_bounds[-1][1]:  # refine locates spans by bisection
                raise ValueError(f"sentence [{start}, {end}] overlaps or precedes the one before it")
            sentence_bounds.append((start, end))
    except TimestampParseError as exc:  # the record's timestamp or a span's normalization
        what = "timestamp" if part == "timestamp" else "normalized"
        raise ParseError(f"bad field {what!r} in annotated record: {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ParseError(f"bad field {part!r} in annotated record: {exc}") from None
    return AnnotatedDocument(
        id=rec["id"],
        timestamp=timestamp,
        text=rec["text"],
        token_texts=list(map(sys.intern, texts)),
        token_starts=token_starts,
        token_ends=token_ends,
        spans=spans,
        sentence_bounds=sentence_bounds,
    )


def write_documents(docs: Iterable[AnnotatedDocument], path: str | Path) -> int:
    return write_atomic(path, (jsonl_line(document_to_record(doc)) for doc in docs))


def read_documents(path: str | Path) -> Iterator[AnnotatedDocument]:
    for lineno, rec in read_jsonl(path):
        try:
            doc = record_to_document(rec)
        except KeyError as exc:
            raise ParseError(f"bad annotated record: {exc}", lineno) from None
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        yield doc


def refine_document(doc: AnnotatedDocument) -> AnnotatedDocument | None:
    """Keep only sentences with at least one temporal expression.

    Returns None when no sentence survives, and ``doc`` itself when every
    sentence survives and the sentences hold every token. Token char offsets
    keep pointing into the original text; token indices and spans are
    re-based. Applying the refinement twice equals applying it once.
    """
    sentences = doc.sentence_bounds
    sentence_starts = [s for s, _ in sentences]
    dated = {_sentence_of(sp, sentences, sentence_starts)
             for sp in doc.spans if sp.kind is SpanKind.TEMPORAL_EXPRESSION} - {-1}
    if not dated:
        return None
    if len(dated) == len(sentences) and sum(e - s for s, e in sentences) == len(doc.token_texts):
        return doc
    keep = [sentences[k] for k in sorted(dated)]

    new_index: dict[int, int] = {}
    texts: list[str] = []
    starts, ends = array("q"), array("q")
    bounds: list[tuple[int, int]] = []
    for (s, e) in keep:
        n = len(texts)
        bounds.append((n, n + (e - s)))
        new_index.update(zip(range(s, e), range(n, n + (e - s))))
        texts += doc.token_texts[s:e]
        starts += doc.token_starts[s:e]
        ends += doc.token_ends[s:e]
    spans = []
    for sp in doc.spans:
        if sp.token_start in new_index and (sp.token_end - 1) in new_index:
            start = new_index[sp.token_start]
            end = new_index[sp.token_end - 1] + 1
            if end - start == sp.token_end - sp.token_start:
                spans.append(Span(sp.kind, start, end, sp.surface, sp.relation, sp.normalized))
    return AnnotatedDocument(doc.id, doc.timestamp, doc.text, texts, starts, ends, spans, bounds)


def refine_corpus(docs: Iterable[AnnotatedDocument]) -> Iterator[AnnotatedDocument]:
    """Stream refinement; documents without temporal references are dropped."""
    for doc in docs:
        refined = refine_document(doc)
        if refined is not None:
            yield refined


@dataclass
class EntityCalendar:
    """Month key ("YYYY-MM") to the set of person surfaces seen that month."""

    months: dict[str, set[str]] = field(default_factory=dict)

    def add(self, month_key: str, surface: str) -> None:
        self.months.setdefault(month_key, set()).add(surface)

    def get(self, month_key: str) -> set[str]:
        return self.months.get(month_key, set())

    def merge(self, other: "EntityCalendar") -> "EntityCalendar":
        """Keyed set union; sharded builds merge deterministically."""
        merged = EntityCalendar({k: set(v) for k, v in self.months.items()})
        for k, v in other.months.items():
            merged.months.setdefault(k, set()).update(v)
        return merged

    def to_json(self) -> dict:
        return {k: sorted(v) for k, v in sorted(self.months.items())}

    @staticmethod
    def from_json(data: dict) -> "EntityCalendar":
        if not isinstance(data, dict) or not all(isinstance(v, list) for v in data.values()):
            raise ParseError("entity calendar must be a JSON object of month -> list of names")
        return EntityCalendar({k: set(v) for k, v in data.items()})

    def save(self, path: str | Path) -> None:
        write_atomic(path, [json.dumps(self.to_json(), indent=1, sort_keys=True)])

    @staticmethod
    def load(path: str | Path) -> "EntityCalendar":
        return EntityCalendar.from_json(read_json(path))


def build_entity_calendar(docs: Iterable[AnnotatedDocument]) -> EntityCalendar:
    """Collect person surfaces per publication month."""
    cal = EntityCalendar()
    for doc in docs:
        for sp in doc.spans_of_kind(SpanKind.PERSON):
            cal.add(doc.month_key, sp.surface)
    return cal


def derive_corpus_span(docs: Iterable[AnnotatedDocument]) -> CorpusSpan:
    """Smallest month span covering every document timestamp."""
    lo: TimePoint | None = None
    hi: TimePoint | None = None
    for doc in docs:
        t = doc.timestamp
        if lo is None or t.sort_key() < lo.sort_key():
            lo = t
        if hi is None or t.sort_key() > hi.sort_key():
            hi = t
    if lo is None:
        raise ConfigError("cannot derive a span from an empty corpus")
    return CorpusSpan(
        TimePoint(lo.year, lo.month, granularity=Granularity.MONTH),
        TimePoint(hi.year, hi.month, granularity=Granularity.MONTH),
    )


def split_dataset(items: Sequence[T], seed: int = 0) -> tuple[list[T], list[T], list[T]]:
    """Deterministic shuffled 80/10/10 split with floor/floor/remainder sizes."""
    n = len(items)
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    train = [items[i] for i in order[:n_train]]
    val = [items[i] for i in order[n_train : n_train + n_val]]
    test = [items[i] for i in order[n_train + n_val :]]
    return train, val, test
