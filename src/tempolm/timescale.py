"""Calendar time points, corpus spans, and time-class labels.

A classifier over publication or occurrence time needs a dense, invertible
mapping between calendar time and class indices. ``CorpusSpan`` fixes the
epoch; ``timestamp_to_label`` / ``label_to_timepoint`` convert in both
directions at year, month, or day granularity.
"""

from __future__ import annotations

import calendar
import datetime as _dt
import re
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, OutOfSpanError, TimestampParseError


class Granularity(str, Enum):
    YEAR = "year"
    MONTH = "month"
    DAY = "day"
    DECADE = "decade"


_ISO_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")


@dataclass(frozen=True, slots=True)
class TimePoint:
    """A calendar time at one of four granularities.

    ``month`` is present only for month/day granularity, ``day`` only for
    day granularity; decade points sit on a year divisible by 10.
    """

    year: int
    month: int | None = None
    day: int | None = None
    granularity: Granularity = Granularity.YEAR

    def __post_init__(self):
        g = self.granularity
        if self.month is not None and g not in (Granularity.MONTH, Granularity.DAY):
            raise ConfigError(f"month given but granularity is {g.value}")
        if g in (Granularity.MONTH, Granularity.DAY) and self.month is None:
            raise ConfigError(f"{g.value} granularity requires a month")
        if self.day is not None and self.month is None:
            raise ConfigError("day given without month")
        if g is Granularity.DAY and self.day is None:
            raise ConfigError("day granularity requires a day")
        if g is Granularity.DECADE and self.year % 10 != 0:
            raise ConfigError(f"decade year must be divisible by 10, got {self.year}")
        if self.month is not None and not 1 <= self.month <= 12:
            raise ConfigError(f"month out of range: {self.month}")
        if self.day is not None:
            _dt.date(self.year, self.month, self.day)  # raises on bad day

    @staticmethod
    def parse(text: str) -> "TimePoint":
        """Parse ``YYYY``, ``YYYY-MM``, ``YYYY-MM-DD``, or decade ``YYYYs``."""
        parts = text.split("-")
        try:
            if len(parts) == 1:
                if text.endswith("s"):
                    return TimePoint(int(text[:-1]), granularity=Granularity.DECADE)
                return TimePoint(int(parts[0]), granularity=Granularity.YEAR)
            if len(parts) == 2:
                return TimePoint(int(parts[0]), int(parts[1]), granularity=Granularity.MONTH)
            if len(parts) == 3:
                y, m, d = (int(p) for p in parts)
                return TimePoint(y, m, d, granularity=Granularity.DAY)
        except (ValueError, ConfigError) as exc:
            raise TimestampParseError(f"bad time point {text!r}: {exc}") from exc
        raise TimestampParseError(f"bad time point {text!r}")

    def render(self) -> str:
        if self.granularity is Granularity.DAY:
            return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"
        if self.granularity is Granularity.MONTH:
            return f"{self.year:04d}-{self.month:02d}"
        if self.granularity is Granularity.DECADE:
            return f"{self.year:04d}s"
        return f"{self.year:04d}"

    def sort_key(self) -> tuple[int, int, int]:
        return (self.year, self.month or 1, self.day or 1)

    def __lt__(self, other: "TimePoint") -> bool:
        return self.sort_key() < other.sort_key()


def parse_timestamp(text: str) -> TimePoint:
    """Parse a strict ``YYYY-MM-DD`` document timestamp."""
    m = _ISO_DATE_RE.match(text)
    if not m:
        raise TimestampParseError(f"timestamp must be YYYY-MM-DD, got {text!r}")
    y, mo, d = (int(g) for g in m.groups())
    try:
        return TimePoint(y, mo, d, granularity=Granularity.DAY)
    except (ValueError, ConfigError) as exc:  # a month out of range, or a day the month lacks
        raise TimestampParseError(f"invalid calendar date {text!r}: {exc}") from exc


@dataclass(frozen=True)
class TimeLabel:
    """A (granularity, class index) pair relative to a corpus span."""

    granularity: Granularity
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ConfigError(f"label index must be >= 0, got {self.index}")
        if self.granularity is Granularity.DECADE:
            raise ConfigError("labels support year, month, or day granularity only")


def _month_ordinal(year: int, month: int) -> int:
    return year * 12 + (month - 1)


@dataclass(frozen=True)
class CorpusSpan:
    """Inclusive calendar interval from which class counts are derived.

    Endpoints usually carry month precision; day precision is accepted so
    that day-level class counts are exact.
    """

    start: TimePoint
    end: TimePoint

    def __post_init__(self):
        if self.start_date() > self.end_date():
            raise ConfigError("span start must not be after span end")

    def start_date(self) -> _dt.date:
        return _dt.date(self.start.year, self.start.month or 1, self.start.day or 1)

    def end_date(self) -> _dt.date:
        y = self.end.year
        m = self.end.month or 12
        d = self.end.day or calendar.monthrange(y, m)[1]
        return _dt.date(y, m, d)

    @staticmethod
    def parse(text: str) -> "CorpusSpan":
        """Parse ``START..END`` where each endpoint is YYYY[-MM[-DD]]."""
        if ".." not in text:
            raise ConfigError(f"span must be START..END, got {text!r}")
        a, b = text.split("..", 1)
        return CorpusSpan(TimePoint.parse(a), TimePoint.parse(b))

    def render(self) -> str:
        return f"{self.start.render()}..{self.end.render()}"

    def class_count(self, granularity: Granularity) -> int:
        if granularity is Granularity.YEAR:
            return self.end.year - self.start.year + 1
        if granularity is Granularity.MONTH:
            start = _month_ordinal(self.start.year, self.start.month or 1)
            end = _month_ordinal(self.end.year, self.end.month or 12)
            return end - start + 1
        if granularity is Granularity.DAY:
            return (self.end_date() - self.start_date()).days + 1
        raise ConfigError(f"unsupported label granularity: {granularity.value}")

    def contains(self, t: TimePoint) -> bool:
        key = (t.year, t.month or 1, t.day or 1)
        s, e = self.start_date(), self.end_date()
        return (s.year, s.month, s.day) <= key <= (e.year, e.month, e.day)


def timestamp_to_label(t: TimePoint, granularity: Granularity, span: CorpusSpan) -> TimeLabel:
    """Map a calendar time to its class index within ``span``."""
    if not span.contains(t):
        raise OutOfSpanError(f"{t.render()} outside span {span.render()}")
    if granularity is Granularity.YEAR:
        return TimeLabel(granularity, t.year - span.start.year)
    if granularity is Granularity.MONTH:
        if t.month is None:
            raise ConfigError(f"{t.render()} has no month; cannot label at month granularity")
        index = _month_ordinal(t.year, t.month) - _month_ordinal(span.start.year, span.start.month or 1)
        return TimeLabel(granularity, index)
    if granularity is Granularity.DAY:
        if t.day is None:
            raise ConfigError(f"{t.render()} has no day; cannot label at day granularity")
        index = (_dt.date(t.year, t.month, t.day) - span.start_date()).days
        return TimeLabel(granularity, index)
    raise ConfigError(f"unsupported label granularity: {granularity.value}")


def label_to_timepoint(label: TimeLabel, span: CorpusSpan) -> TimePoint:
    """Exact inverse of :func:`timestamp_to_label`."""
    if label.index >= span.class_count(label.granularity):
        raise OutOfSpanError(
            f"index {label.index} exceeds {label.granularity.value} class count "
            f"{span.class_count(label.granularity)}"
        )
    if label.granularity is Granularity.YEAR:
        return TimePoint(span.start.year + label.index, granularity=Granularity.YEAR)
    if label.granularity is Granularity.MONTH:
        ordinal = _month_ordinal(span.start.year, span.start.month or 1) + label.index
        return TimePoint(ordinal // 12, ordinal % 12 + 1, granularity=Granularity.MONTH)
    date = span.start_date() + _dt.timedelta(days=label.index)
    return TimePoint(date.year, date.month, date.day, granularity=Granularity.DAY)
