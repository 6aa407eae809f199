import re
import tracemalloc
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrhythm.errors import CalendarError
from flowrhythm.exclusions import (
    DayClass,
    ExclusionCalendar,
    count_normal_days,
    load_calendar,
    parse_calendar,
)

MON = date(2021, 3, 1)  # a Monday


def test_classify_defaults_to_normal():
    cal = ExclusionCalendar.from_ranges([])
    assert cal.classify(MON) is DayClass.NORMAL


def test_calendar_rejects_normal_entries():
    with pytest.raises(CalendarError):
        ExclusionCalendar.from_ranges([(MON, MON, DayClass.NORMAL)])


def test_from_ranges_expands_inclusive():
    cal = ExclusionCalendar.from_ranges(
        [(date(2021, 3, 2), date(2021, 3, 4), DayClass.VACATION)]
    )
    assert len(cal) == 3
    assert cal.classify(date(2021, 3, 2)) is DayClass.VACATION
    assert cal.classify(date(2021, 3, 4)) is DayClass.VACATION
    assert cal.classify(date(2021, 3, 5)) is DayClass.NORMAL


def test_from_ranges_rejects_conflicting_overlap():
    with pytest.raises(CalendarError, match="^2021-03-04: conflicting labels 'vacation' and 'holiday'$"):
        ExclusionCalendar.from_ranges(
            [
                (date(2021, 3, 2), date(2021, 3, 4), DayClass.VACATION),
                (date(2021, 3, 4), date(2021, 3, 4), DayClass.PUBLIC_HOLIDAY),
            ]
        )


def test_from_ranges_allows_agreeing_overlap():
    cal = ExclusionCalendar.from_ranges(
        [
            (date(2021, 3, 2), date(2021, 3, 4), DayClass.VACATION),
            (date(2021, 3, 4), date(2021, 3, 6), DayClass.VACATION),
        ]
    )
    assert len(cal) == 5
    assert cal.spans == ((date(2021, 3, 2).toordinal(), date(2021, 3, 6).toordinal(), DayClass.VACATION),)


def test_a_conflict_names_the_earliest_day_two_labels_claim():
    # The label of the range that starts first comes first, whatever the line order.
    with pytest.raises(CalendarError, match="^2021-03-03: conflicting labels 'vacation' and 'holiday'$"):
        ExclusionCalendar.from_ranges(
            [
                (date(2021, 3, 8), date(2021, 3, 8), DayClass.WEATHER_EVENT),
                (date(2021, 3, 3), date(2021, 3, 9), DayClass.PUBLIC_HOLIDAY),
                (date(2021, 3, 1), date(2021, 3, 10), DayClass.VACATION),
            ]
        )


def test_parse_calendar_lines_and_comments():
    cal = parse_calendar(
        """
        # holidays
        2021-03-02,holiday

        2021-03-03..2021-03-05,vacation
        2021-03-08,hardware
        2021-03-09,weather
        """
    )
    assert cal.classify(date(2021, 3, 2)) is DayClass.PUBLIC_HOLIDAY
    assert cal.classify(date(2021, 3, 4)) is DayClass.VACATION
    assert cal.classify(date(2021, 3, 8)) is DayClass.HARDWARE_FAULT
    assert cal.classify(date(2021, 3, 9)) is DayClass.WEATHER_EVENT


def test_parse_calendar_takes_the_last_date():
    cal = parse_calendar("9999-12-31,holiday\n9999-12-29..9999-12-30,vacation\n")
    assert len(cal) == 3
    assert cal.classify(date.max) is DayClass.PUBLIC_HOLIDAY
    assert cal.vacation_ranges() == [(date(9999, 12, 29), date(9999, 12, 30))]


def test_load_calendar_drops_a_byte_order_mark(tmp_path):
    text = "2017-12-25,holiday\n2018-03-01..2018-03-04,weather\n"
    (tmp_path / "cal.txt").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_calendar(tmp_path / "cal.txt") == parse_calendar(text)


def test_parse_calendar_unknown_label_reports_line():
    with pytest.raises(CalendarError, match="line 2"):
        parse_calendar("2021-03-02,holiday\n2021-03-03,picnic\n")


def test_parse_calendar_bad_date_reports_line():
    with pytest.raises(CalendarError, match="line 1"):
        parse_calendar("2021-13-40,holiday\n")


# From Python 3.11 on, date.fromisoformat reads 20180101 and 2018-W01-1 as 2018-01-01.
@pytest.mark.parametrize("span", ["20180101", "2018-W01-1", "2017-12-30..2018-W01-1", "20180101..2018-01-02"])
def test_parse_calendar_takes_only_yyyy_mm_dd_dates(span):
    with pytest.raises(CalendarError, match="line 1: "):
        parse_calendar(f"{span},holiday\n")


def test_parse_calendar_missing_label():
    with pytest.raises(CalendarError):
        parse_calendar("2021-03-02\n")


def test_vacation_ranges_merges_consecutive_days():
    cal = ExclusionCalendar.from_ranges(
        [
            (date(2021, 3, 2), date(2021, 3, 4), DayClass.VACATION),
            (date(2021, 3, 5), date(2021, 3, 6), DayClass.VACATION),
            (date(2021, 3, 10), date(2021, 3, 11), DayClass.VACATION),
            (date(2021, 3, 8), date(2021, 3, 8), DayClass.PUBLIC_HOLIDAY),
        ]
    )
    assert cal.vacation_ranges() == [
        (date(2021, 3, 2), date(2021, 3, 6)),
        (date(2021, 3, 10), date(2021, 3, 11)),
    ]


def test_count_normal_days_small_span():
    # Mon 2021-03-01 .. Sun 2021-03-14 with one excluded Tuesday.
    cal = ExclusionCalendar.from_ranges(
        [(date(2021, 3, 2), date(2021, 3, 2), DayClass.PUBLIC_HOLIDAY)]
    )
    start, end = date(2021, 3, 1), date(2021, 3, 14)
    assert count_normal_days(cal, start, end, 0) == 2
    assert count_normal_days(cal, start, end, 1) == 1
    assert [count_normal_days(cal, start, end, wd) for wd in range(7)] == [2, 1, 2, 2, 2, 2, 2]


def test_count_normal_days_rejects_reversed_span():
    cal = ExclusionCalendar.from_ranges([])
    with pytest.raises(ValueError):
        count_normal_days(cal, date(2021, 3, 2), date(2021, 3, 1), 0)


def test_study_calendar_weekday_totals(study_calendar):
    counts = [
        count_normal_days(study_calendar, date(2017, 9, 9), date(2018, 5, 31), wd)
        for wd in range(7)
    ]
    assert counts == [28, 34, 34, 34, 31, 33, 32]
    assert sum(counts) == 226


def test_an_open_ended_line_costs_one_range():
    tracemalloc.start()
    try:
        cal = parse_calendar("2018-01-01..9999-12-31,hardware\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    first = date(2010, 1, 1)
    n = (date(2019, 12, 31) - first).days + 1
    assert cal.normal_mask(first, n).tolist() == [first + timedelta(days=i) < date(2018, 1, 1) for i in range(n)]
    assert len(cal) == date.max.toordinal() - date(2018, 1, 1).toordinal() + 1
    assert cal.classify(date.max) is DayClass.HARDWARE_FAULT


LABELS = [c for c in DayClass if c is not DayClass.NORMAL]


@st.composite
def ranges_in_file_order(draw):
    """Single days and ranges within 60 days of MON, in the order a file lists them."""
    ranges = []
    for start in draw(st.lists(st.integers(0, 60), max_size=8)):
        end = start + draw(st.integers(0, 5))
        ranges.append((MON + timedelta(days=start), MON + timedelta(days=end), draw(st.sampled_from(LABELS))))
    return ranges


def per_day_oracle(ranges):
    """Each listed day's labels, built day by day in file order."""
    labels = {}
    for start, end, label in ranges:
        for k in range((end - start).days + 1):
            labels.setdefault(start + timedelta(days=k), []).append(label)
    return labels


@st.composite
def calendars_and_spans(draw):
    """A calendar from ranges in file order, less each range that would
    conflict with one kept before it, and a span that may begin before, or
    end after, every range."""
    kept = []
    for start, end, label in draw(ranges_in_file_order()):
        if all(set(labels) == {label} for labels in per_day_oracle(kept + [(start, end, label)]).values()):
            kept.append((start, end, label))
    first = MON + timedelta(days=draw(st.integers(-30, 90)))
    return ExclusionCalendar.from_ranges(kept), first, draw(st.integers(0, 100))


@settings(max_examples=300, deadline=None)
@given(ranges_in_file_order(), st.integers(-30, 90), st.integers(0, 100))
def test_from_ranges_equals_a_per_day_oracle(ranges, offset, n):
    labels = per_day_oracle(ranges)
    clashes = sorted(d for d, found in labels.items() if len(set(found)) > 1)
    if clashes:
        with pytest.raises(CalendarError) as caught:
            ExclusionCalendar.from_ranges(ranges)
        day, first_label, second_label = re.fullmatch(
            r"(\S+): conflicting labels '(\w+)' and '(\w+)'", str(caught.value)
        ).groups()
        assert day == clashes[0].isoformat()
        assert first_label != second_label
        assert {first_label, second_label} <= {label.value for label in labels[clashes[0]]}
        return
    cal = ExclusionCalendar.from_ranges(ranges)
    entries = {d: found[0] for d, found in labels.items()}
    first = MON + timedelta(days=offset)
    days = [first + timedelta(days=i) for i in range(n)]
    assert [cal.classify(d) for d in days] == [entries.get(d, DayClass.NORMAL) for d in days]
    assert cal.normal_mask(first, n).tolist() == [d not in entries for d in days]
    assert len(cal) == len(entries)
    vacation_days = sorted(d for d, label in entries.items() if label is DayClass.VACATION)
    runs = []
    for d in vacation_days:
        if runs and d - runs[-1][1] == timedelta(days=1):
            runs[-1] = (runs[-1][0], d)
        else:
            runs.append((d, d))
    assert cal.vacation_ranges() == runs


@settings(max_examples=200, deadline=None)
@given(calendars_and_spans(), st.integers(0, 6))
def test_count_normal_days_equals_per_day_count(case, weekday):
    cal, start, n = case
    end = start + timedelta(days=n)
    days = [start + timedelta(days=i) for i in range(n + 1)]
    expected = sum(1 for d in days if d.weekday() == weekday and cal.classify(d) is DayClass.NORMAL)
    assert count_normal_days(cal, start, end, weekday) == expected
