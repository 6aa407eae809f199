"""Day classification against an exclusion calendar.

A calendar file lists date ranges that should not count as normal household
behaviour: vacations, public holidays, severe weather, and metering-hardware
faults. Every date not listed is Normal. Lines look like

    2018-03-01..2018-03-04,weather
    2017-12-25,holiday
    # comments and blank lines are ignored

Ranges are inclusive on both ends. Overlapping ranges are allowed only when
they agree on the label, and then merge; a day claimed by two labels is
rejected. A calendar holds its ranges, not its days, so a line such as
`2018-01-01..9999-12-31,hardware` costs no more than a single day.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

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


@dataclass(frozen=True)
class ExclusionCalendar:
    """The non-Normal days of a calendar, held as its ranges: `spans` are sorted,
    disjoint inclusive ranges of day ordinals, each with its class. Build one with `from_ranges`."""

    spans: tuple[tuple[int, int, DayClass], ...] = ()

    @classmethod
    def from_ranges(
        cls, ranges: Iterable[tuple[date, date, DayClass]]
    ) -> "ExclusionCalendar":
        """Ranges of the same class that overlap or touch merge; a day two
        classes claim is a CalendarError naming the earliest such day."""
        checked = []
        for start, end, day_class in ranges:
            if end < start:
                raise CalendarError(f"range {start}..{end} ends before it starts")
            if day_class is DayClass.NORMAL:
                raise CalendarError(f"range {start}..{end}: Normal days are implicit, not listed")
            checked.append((start.toordinal(), end.toordinal(), day_class))
        spans: list[tuple[int, int, DayClass]] = []
        # By start, a range can only meet the last span held: every earlier one ends before it.
        for first, last, day_class in sorted(checked, key=itemgetter(0)):
            if spans and first <= spans[-1][1] + 1:
                held_first, held_last, held = spans[-1]
                if held is day_class:
                    spans[-1] = (held_first, max(held_last, last), held)
                    continue
                if first <= held_last:
                    raise CalendarError(
                        f"{date.fromordinal(first)}: conflicting labels "
                        f"{held.value!r} and {day_class.value!r}"
                    )
            spans.append((first, last, day_class))
        return cls(tuple(spans))

    def classify(self, d: date) -> DayClass:
        day = d.toordinal()
        i = bisect_right(self.spans, day, key=itemgetter(0)) - 1
        return self.spans[i][2] if i >= 0 and day <= self.spans[i][1] else DayClass.NORMAL

    def normal_mask(self, first: date, n: int) -> np.ndarray:
        """Which of the n days from `first` on are Normal: each span clears its slice."""
        origin = first.toordinal()
        mask = np.ones(n, dtype=bool)
        for lo, hi, _ in self.spans:
            mask[max(lo - origin, 0) : max(hi - origin + 1, 0)] = False
        return mask

    def vacation_ranges(self) -> list[tuple[date, date]]:
        """Maximal runs of consecutive vacation days, for plot annotation."""
        vacations = [(lo, hi) for lo, hi, day_class in self.spans if day_class is DayClass.VACATION]
        return [(date.fromordinal(lo), date.fromordinal(hi)) for lo, hi in vacations]

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi, _ in self.spans)


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
