"""Day classification against an exclusion calendar.

A calendar file lists date ranges that should not count as normal household
behaviour: vacations, public holidays, severe weather, and metering-hardware
faults. Every date not listed is Normal. Lines look like

    2018-03-01..2018-03-04,weather
    2017-12-25,holiday
    # comments and blank lines are ignored

Ranges are inclusive on both ends. Overlapping ranges are allowed only when
they agree on the label; conflicting overlaps are rejected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CalendarError

__all__ = [
    "DayClass",
    "ExclusionCalendar",
    "count_normal_days",
    "load_calendar",
    "parse_calendar",
    "parse_date",
]


class DayClass(enum.Enum):
    NORMAL = "normal"
    VACATION = "vacation"
    PUBLIC_HOLIDAY = "holiday"
    WEATHER_EVENT = "weather"
    HARDWARE_FAULT = "hardware"


# Labels accepted in calendar files, mapped to their class.
_LABELS: Mapping[str, DayClass] = {
    "vacation": DayClass.VACATION,
    "holiday": DayClass.PUBLIC_HOLIDAY,
    "weather": DayClass.WEATHER_EVENT,
    "hardware": DayClass.HARDWARE_FAULT,
}


def parse_date(text: str) -> date:
    """The date of `YYYY-MM-DD` text; ValueError for other forms, such as
    20180101 or 2018-W01-1, which date.fromisoformat reads from Python 3.11 on."""
    day = date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return day


def _iter_span(start: date, end: date) -> Iterator[date]:
    # By ordinal, so a span ending on date.max never steps past it.
    return map(date.fromordinal, range(start.toordinal(), end.toordinal() + 1))


@dataclass(frozen=True)
class ExclusionCalendar:
    """Immutable mapping from dates to their non-Normal classification."""

    entries: Mapping[date, DayClass] = field(default_factory=dict)

    def __post_init__(self):
        for d, cls in self.entries.items():
            if not isinstance(d, date):
                raise CalendarError(f"calendar key {d!r} is not a date")
            if cls is DayClass.NORMAL:
                raise CalendarError(f"{d}: Normal days are implicit, not listed")
        # freeze against later mutation of the mapping passed in
        object.__setattr__(self, "entries", dict(self.entries))

    @classmethod
    def from_ranges(
        cls, ranges: Iterable[tuple[date, date, DayClass]]
    ) -> "ExclusionCalendar":
        entries: dict[date, DayClass] = {}
        for start, end, day_class in ranges:
            if end < start:
                raise CalendarError(f"range {start}..{end} ends before it starts")
            for d in _iter_span(start, end):
                previous = entries.get(d)
                if previous is not None and previous is not day_class:
                    raise CalendarError(
                        f"{d}: conflicting labels "
                        f"{previous.value!r} and {day_class.value!r}"
                    )
                entries[d] = day_class
        return cls(entries)

    def classify(self, d: date) -> DayClass:
        return self.entries.get(d, DayClass.NORMAL)

    def normal_mask(self, first: date, n: int) -> np.ndarray:
        """Which of the n days from `first` on are Normal, in one pass over the entries."""
        rows = np.array([(d - first).days for d in self.entries], dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        mask[rows[(rows >= 0) & (rows < n)]] = False
        return mask

    def vacation_ranges(self) -> list[tuple[date, date]]:
        """Maximal runs of consecutive vacation days, for plot annotation."""
        days = sorted(d for d, c in self.entries.items() if c is DayClass.VACATION)
        ranges: list[tuple[date, date]] = []
        for d in days:
            if ranges and d - ranges[-1][1] == timedelta(days=1):
                ranges[-1] = (ranges[-1][0], d)
            else:
                ranges.append((d, d))
        return ranges

    def __len__(self) -> int:
        return len(self.entries)


def count_normal_days(
    calendar: ExclusionCalendar, start: date, end: date, weekday: int
) -> int:
    """Count Normal days with the given weekday in [start, end] inclusive.

    weekday follows the datetime convention: Monday is 0, Sunday is 6.
    """
    if not 0 <= weekday <= 6:
        raise ValueError(f"weekday must be 0..6, got {weekday}")
    if end < start:
        raise ValueError(f"span {start}..{end} ends before it starts")
    n = (end - start).days + 1
    on_weekday = (start.weekday() + np.arange(n)) % 7 == weekday
    return int(np.count_nonzero(calendar.normal_mask(start, n) & on_weekday))


def parse_calendar(text: str) -> ExclusionCalendar:
    """Parse calendar text; see the module docstring for the line format."""
    ranges: list[tuple[date, date, DayClass]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            span_part, label_part = line.rsplit(",", 1)
        except ValueError:
            raise CalendarError(f"line {lineno}: expected 'DATE[..DATE],LABEL'")
        label = label_part.strip().lower()
        if label not in _LABELS:
            raise CalendarError(
                f"line {lineno}: unknown label {label!r}; "
                f"expected one of {sorted(_LABELS)}"
            )
        span = span_part.strip()
        first, sep, last = span.partition("..")
        try:
            start = parse_date(first.strip())
            end = parse_date(last.strip()) if sep else start
        except ValueError as exc:
            raise CalendarError(f"line {lineno}: {exc}")
        if end < start:
            raise CalendarError(f"line {lineno}: range {span} ends before it starts")
        ranges.append((start, end, _LABELS[label]))
    try:
        return ExclusionCalendar.from_ranges(ranges)
    except CalendarError as exc:
        raise CalendarError(f"calendar: {exc}")


def load_calendar(path: str | Path) -> ExclusionCalendar:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte order mark is dropped
    except UnicodeDecodeError as exc:
        raise CalendarError(f"calendar {path}: not UTF-8 text: {exc.reason}") from None
    return parse_calendar(text)
