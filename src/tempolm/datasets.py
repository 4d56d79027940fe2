"""Task-dataset records and their JSONL format.

One record per line: ``text``, ``time`` ("YYYY", "YYYY-MM", or
"YYYY-MM-DD"), and optional ``context_timestamp`` / ``context_text``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import ParseError
from .finetune import LabeledInstance
from .manifest import jsonl_line, read_jsonl, write_atomic
from .timescale import CorpusSpan, Granularity, TimePoint, timestamp_to_label


def read_task_records(path: str | Path, required: tuple[str, ...] = ("text", "time")) -> Iterator[dict]:
    """Records of a JSONL file; a bad line raises a line-numbered ``ParseError``."""
    for lineno, rec in read_jsonl(path):
        if not isinstance(rec, dict) or any(key not in rec for key in required):
            raise ParseError(f"task record needs {' and '.join(map(repr, required))}", lineno)
        yield rec


def write_task_records(records: list[dict], path: str | Path) -> None:
    write_atomic(path, (jsonl_line(rec) for rec in records))


def record_to_instance(rec: dict, granularity: Granularity, span: CorpusSpan) -> LabeledInstance:
    """Map a task record to a labeled instance at the requested granularity."""
    t = TimePoint.parse(rec["time"])
    gold = timestamp_to_label(t, granularity, span)
    return LabeledInstance(
        text=rec["text"],
        gold=gold,
        context_timestamp=rec.get("context_timestamp"),
        context_text=rec.get("context_text"),
    )


def derive_task_span(records: list[dict]) -> CorpusSpan:
    """Smallest span covering every record time, at the records' precision."""
    points = [TimePoint.parse(rec["time"]) for rec in records]
    if not points:
        raise ParseError("cannot derive a span from an empty dataset")
    lo = min(points, key=lambda p: p.sort_key())
    hi = max(points, key=lambda p: p.sort_key())
    return CorpusSpan(lo, hi)
