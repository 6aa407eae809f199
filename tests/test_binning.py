import math
import os
import subprocess
import sys
from datetime import date, datetime, timedelta, timezone, tzinfo
from functools import lru_cache
from unittest.mock import patch
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day_rows
from flowrhythm.binning import (
    SLOTS_PER_DAY,
    BinnedDay,
    DayMatrix,
    bin_blocks,
    local_clock,
    profile,
    readings_to_days,
    write_profile_csv,
)
import flowrhythm
from flowrhythm import binning, synth
from flowrhythm.errors import InvalidConfig, NoMatchingDays
from flowrhythm.readings import ReadingStream
from flowrhythm.synth import ScenarioConfig

UTC = timezone.utc
DUBLIN = ZoneInfo("Europe/Dublin")
MON = date(2021, 3, 1)


def midnight(day: date, tz=UTC) -> int:
    return int(datetime(day.year, day.month, day.day, tzinfo=tz).timestamp())


# Intervals, as binning sees them: (closing instants, litres) arrays.
Intervals = tuple[np.ndarray, np.ndarray]


def closing_at(ends, litres=1.0) -> Intervals:
    """Intervals closing at the given UTC epoch seconds."""
    ends = np.asarray(ends, dtype=np.int64)
    return ends, np.broadcast_to(np.float64(litres), ends.shape)


def joined(*parts: Intervals) -> Intervals:
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def bin_closing(intervals: Intervals, tz, min_valid_slots: int) -> DayMatrix:
    """bin_blocks over intervals in blocks of binning.BLOCK_ROWS."""
    end_s, litres = intervals
    rows = binning.BLOCK_ROWS
    blocks = [(end_s[a : a + rows], litres[a : a + rows]) for a in range(0, len(end_s), rows)]
    return bin_blocks(blocks, tz, min_valid_slots)


def complete_day(day: date, litres=1.0) -> Intervals:
    # One interval closing inside each slot (at slot start + 5 min).
    return closing_at(midnight(day) + 900 * np.arange(SLOTS_PER_DAY) + 300, litres)


def bin_one_day(intervals: Intervals, tz=UTC) -> tuple[date, np.ndarray]:
    """The single day that intervals all closing on one local day bin into."""
    days = bin_closing(intervals, tz, min_valid_slots=0)
    assert len(days.retained) == 1
    (day,) = day_rows(days)
    return day


def dates(days: DayMatrix) -> list[date]:
    return [d for d, _ in day_rows(days)]


def observed(bins: np.ndarray) -> int:
    return int(np.count_nonzero(~np.isnan(bins)))


def oracle_days(intervals: Intervals, tz, min_valid_slots: int) -> dict:
    """Per-interval astimezone binning: the reference for bin_blocks."""
    by_day: dict = {}
    for end, litres in zip(*(a.tolist() for a in intervals)):
        local = datetime.fromtimestamp(end, UTC).astimezone(tz)
        slot = (local.hour * 3600 + local.minute * 60 + local.second) // 900
        bins = by_day.setdefault(local.date(), np.full(SLOTS_PER_DAY, np.nan))
        bins[slot] = litres if np.isnan(bins[slot]) else bins[slot] + litres
    return {
        d: b for d, b in sorted(by_day.items())
        if np.count_nonzero(~np.isnan(b)) >= min_valid_slots
    }


def test_bin_day_complete_no_missing():
    day, bins = bin_one_day(complete_day(MON))
    assert day == MON
    assert observed(bins) == SLOTS_PER_DAY
    assert np.all(bins == 1.0)


def test_bin_day_92_intervals_4_missing():
    ends = midnight(MON) + 900 * np.arange(92) + 300
    _, bins = bin_one_day(closing_at(ends))
    assert observed(bins) == 92
    assert np.isnan(bins[92:]).all()
    assert dates(bin_closing(closing_at(ends), UTC, min_valid_slots=92)) == [MON]
    none = bin_closing(closing_at(ends), UTC, min_valid_slots=93)
    assert none.values.shape == (0, SLOTS_PER_DAY) and none.retained.shape == (0,)


@pytest.mark.parametrize("slots", [-1, 97])
@pytest.mark.parametrize("ends", [[], [300]], ids=["empty", "one-interval"])
def test_min_valid_slots_outside_0_to_96_is_a_config_error(slots, ends):
    # Checked in bin_blocks, which empty input and readings_to_days go through too.
    with pytest.raises(InvalidConfig, match="min_valid_slots"):
        bin_closing(closing_at(ends), UTC, min_valid_slots=slots)
    with pytest.raises(InvalidConfig, match="min_valid_slots"):
        readings_to_days(ReadingStream(np.array([0, *ends]), np.arange(len(ends) + 1.0)), UTC, slots)


def test_bin_day_empty_all_missing():
    # A day no interval closes on is Missing as a whole: an all-NaN row that
    # is not retained between observed days, and no row at all from empty input.
    assert bin_closing(closing_at([]), UTC, min_valid_slots=0).values.shape == (0, SLOTS_PER_DAY)
    gap = joined(complete_day(MON), complete_day(MON + timedelta(days=2)))
    days = bin_closing(gap, UTC, min_valid_slots=0)
    assert days.first == MON
    assert days.retained.tolist() == [True, False, True]
    assert np.isnan(days.values[1]).all()
    assert dates(days) == [MON, MON + timedelta(days=2)]


def test_bin_day_end_instant_decides_slot():
    # 00:14:59 closes in slot 0; exactly 00:15:00 belongs to slot 1.
    _, bins = bin_one_day(joined(closing_at([midnight(MON) + 899], 2.0), closing_at([midnight(MON) + 900], 3.0)))
    assert bins[0] == 2.0
    assert bins[1] == 3.0
    assert observed(bins) == 2


def test_bin_day_accumulates_same_slot():
    _, bins = bin_one_day(joined(closing_at([midnight(MON) + 420], 1.25), closing_at([midnight(MON) + 720], 2.5)))
    assert bins[0] == 3.75
    assert observed(bins) == 1


def test_bin_blocks_keeps_interval_on_its_own_day():
    stray = closing_at([midnight(MON + timedelta(days=1)) + 1800])
    days = day_rows(bin_closing(joined(complete_day(MON), stray), UTC, min_valid_slots=0))
    assert [d for d, _ in days] == [MON, MON + timedelta(days=1)]
    assert np.all(days[0][1] == 1.0)
    assert observed(days[1][1]) == 1 and days[1][1][2] == 1.0


def test_bin_day_midnight_close_belongs_to_next_day():
    day, bins = bin_one_day(closing_at([midnight(MON + timedelta(days=1))]))
    assert day == MON + timedelta(days=1)
    assert bins[0] == 1.0
    assert observed(bins) == 1


def epoch_intervals(local_midnight: datetime, n: int) -> Intervals:
    # Step real instants (not wall clocks): ends at midnight + 5min + 15min*k.
    return closing_at(int(local_midnight.timestamp()) + 300 + 900 * np.arange(n))


def test_bin_day_dst_spring_forward_slots_stay_missing():
    # Dublin 2018-03-25: 01:00 local jumps to 02:00. The day is 23 h (92
    # slots of wall time) and no instant can close in slots 4..7.
    day, bins = bin_one_day(epoch_intervals(datetime(2018, 3, 25, 0, 0, tzinfo=DUBLIN), 92), DUBLIN)
    assert day == date(2018, 3, 25)
    assert np.isnan(bins[4:8]).all()
    assert observed(bins) == 92


def test_bin_day_dst_fall_back_accumulates():
    # Dublin 2017-10-29: 01:00-02:00 local happens twice; the 25 h day holds
    # 100 closing instants and both passes sum into the same civil slots.
    day, bins = bin_one_day(epoch_intervals(datetime(2017, 10, 29, 0, 0, tzinfo=DUBLIN), 100), DUBLIN)
    assert day == date(2017, 10, 29)
    assert observed(bins) == SLOTS_PER_DAY
    assert bins[4:8].sum() == 8.0  # the repeated hour counts twice
    assert float(np.nansum(bins)) == 100.0


def test_bin_blocks_groups_and_drops_sparse_days():
    sparse = closing_at(midnight(MON + timedelta(days=1)) + 900 * np.arange(20) + 300)
    days = bin_closing(joined(complete_day(MON), sparse), UTC, min_valid_slots=92)
    assert dates(days) == [MON]
    assert len(days.retained) == 1  # the span ends at the last retained day
    both = bin_closing(joined(complete_day(MON), sparse), UTC, min_valid_slots=10)
    assert dates(both) == [MON, MON + timedelta(days=1)]


# --- vectorised local time against per-instant astimezone -------------------------

ZONES = ("Europe/Dublin", "America/New_York", "Australia/Lord_Howe", "Asia/Kolkata", "UTC")


@lru_cache(maxsize=None)
def offset_changes(zone: str, year: int) -> tuple[int, ...]:
    """UTC hours in a year at whose start the zone's offset differs from an hour before."""
    tz = ZoneInfo(zone)
    start = int(datetime(year, 1, 1, tzinfo=UTC).timestamp())

    def offset(t):
        return datetime.fromtimestamp(t, tz).utcoffset()

    found = []
    for d in range(366):
        day = start + 86400 * d
        if offset(day) != offset(day + 86400):
            found += [h for h in range(day + 3600, day + 86401, 3600) if offset(h) != offset(h - 3600)]
    return tuple(found) or (start,)


@st.composite
def crossing_intervals(draw):
    """Intervals of 1 s to 1 h around a UTC offset change of a drawn zone."""
    zone = draw(st.sampled_from(ZONES))
    anchor = draw(st.sampled_from(offset_changes(zone, draw(st.integers(1995, 2030)))))
    n = draw(st.integers(1, 300))
    steps = draw(st.lists(st.integers(1, 3600), min_size=n + 1, max_size=n + 1))
    bounds = anchor - draw(st.integers(0, 2 * 86400)) + np.cumsum(steps)
    litres = draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n))
    return zone, (bounds[1:], np.asarray(litres))


@settings(max_examples=150, deadline=None)
@given(crossing_intervals(), st.integers(0, 8))
def test_bin_blocks_matches_astimezone_oracle(case, min_valid_slots):
    zone, intervals = case
    tz = ZoneInfo(zone)
    local = [datetime.fromtimestamp(t, UTC).astimezone(tz) for t in intervals[0].tolist()]
    wall = [int(dt.replace(tzinfo=UTC).timestamp()) for dt in local]
    assert local_clock(tz)(intervals[0]).tolist() == wall
    days = bin_closing(intervals, tz, min_valid_slots)
    expected = oracle_days(intervals, tz, min_valid_slots)
    assert dates(days) == list(expected)
    for day, bins in day_rows(days):
        assert np.array_equal(bins, expected[day], equal_nan=True)
    # The span runs from the first retained day to the last; every other row is all NaN.
    if len(days.retained):
        assert days.retained[0] and days.retained[-1]
    assert np.isnan(days.values[~days.retained]).all()


@pytest.mark.parametrize("block_rows", [1, 2, 7])
def test_slot_sums_run_across_block_edges_in_interval_order(block_rows):
    # Up to a few hundred intervals close in each slot, with litres over nine
    # decades, so a slot summed per block and then added up would differ in
    # its last bits. (Differences of one cumulative counter share a grid and
    # add up exactly in any order.)
    rng = np.random.default_rng(13)
    ends = midnight(MON) + np.cumsum(rng.integers(1, 60, 5000))
    intervals = ends, rng.uniform(0, 1, 5000) * 10.0 ** rng.integers(-6, 3, 5000)
    whole = bin_closing(intervals, DUBLIN, min_valid_slots=0)
    with patch.object(binning, "BLOCK_ROWS", block_rows):
        blocks = bin_closing(intervals, DUBLIN, min_valid_slots=0)
    assert blocks.first == whole.first and blocks.retained.tolist() == whole.retained.tolist()
    assert blocks.values.tobytes() == whole.values.tobytes()
    running = {}  # per-slot running sums in interval order; Dublin keeps UTC in March
    for k, litres in zip(((ends - midnight(MON)) // 900).tolist(), intervals[1].tolist()):
        running[k] = running.get(k, 0.0) + litres
    assert whole.first == MON
    assert {k: whole.values.flat[k] for k in running} == running


def kept_intervals(stream: ReadingStream) -> Intervals:
    """The intervals readings_to_days keeps, pair by pair: no decrease, no outage."""
    pairs = zip(stream.epoch_s.tolist(), stream.epoch_s[1:].tolist(), stream.litres.tolist(), stream.litres[1:].tolist())
    gap = binning.DEFAULT_MAX_GAP.total_seconds()
    kept = [(end, b - a) for start, end, a, b in pairs if b >= a and end - start <= gap]
    return np.array([end for end, _ in kept], dtype=np.int64), np.array([litres for _, litres in kept])


def assert_oracle_days(days: DayMatrix, intervals: Intervals, tz) -> None:
    expected = oracle_days(intervals, tz, min_valid_slots=0)
    assert dates(days) == list(expected)
    for day, bins in day_rows(days):
        assert np.array_equal(bins, expected[day], equal_nan=True)


@pytest.mark.parametrize("block_rows", [1, 2, 7])
@pytest.mark.parametrize("opening", ["decrease", "outage"])
def test_days_grow_from_a_first_cleaned_block_that_is_empty(block_rows, opening):
    # The first eight readings make no interval, so the first cleaned block
    # holds none at every block size: the days start at the first one kept.
    start = midnight(MON, DUBLIN) + 1800
    if opening == "decrease":
        head = start + 900 * np.arange(8), 100.0 - np.arange(8.0)
    else:
        head = start + 3600 * np.arange(8), np.arange(8.0)
    tail = head[0][-1] + np.cumsum(np.full(500, 900)), head[1][-1] + np.cumsum(np.full(500, 0.5))
    stream = ReadingStream(np.r_[head[0], tail[0]], np.r_[head[1], tail[1]])
    with patch.object(binning, "BLOCK_ROWS", block_rows):
        days = readings_to_days(stream, DUBLIN, min_valid_slots=0)
    assert_oracle_days(days, kept_intervals(stream), DUBLIN)


@pytest.mark.parametrize("block_rows", [1, 2, 7])
def test_days_grow_across_clusters_years_apart(block_rows):
    first = midnight(MON, DUBLIN) + 900 * np.arange(1, 300)
    later = midnight(MON.replace(year=2027), DUBLIN) + 900 * np.arange(1, 300) + 420
    intervals = joined(closing_at(first, 1.5), closing_at(later, 2.5))
    with patch.object(binning, "BLOCK_ROWS", block_rows):
        days = bin_closing(intervals, DUBLIN, min_valid_slots=0)
    assert_oracle_days(days, intervals, DUBLIN)
    assert len(days.retained) == (date(2027, 3, 4) - MON).days + 1


@pytest.mark.parametrize("block_rows", [1, 2, 7])
@pytest.mark.parametrize("zone", ["America/New_York", "Australia/Lord_Howe"])
def test_days_grow_at_intervals_a_minute_either_side_of_local_midnight(block_rows, zone):
    # The arrays grow by whole local days, so each growth edge is a local
    # midnight; intervals close a minute before and after each of 40, across
    # a clock change, and a day's litres stay on that day.
    tz = ZoneInfo(zone)
    nights = [midnight(date(2021, 3, 1) + timedelta(days=k), tz) for k in range(40)]
    intervals = closing_at([t + step for t in nights for step in (-60, 60)], 0.25)
    with patch.object(binning, "BLOCK_ROWS", block_rows):
        days = bin_closing(intervals, tz, min_valid_slots=0)
    assert_oracle_days(days, intervals, tz)
    assert len(days.retained) == 41


@pytest.mark.parametrize("readings", [[], [5.0], [5.0, 1.0], [5.0, 6.0, 7.0]], ids=["none", "one", "decrease", "outage"])
def test_readings_to_days_on_no_intervals_has_no_rows(readings):
    epochs = 1_600_000_000 + 3600 * np.arange(len(readings))
    days = readings_to_days(ReadingStream(epochs, np.array(readings)), DUBLIN)
    assert days.values.shape == (0, SLOTS_PER_DAY) and days.retained.shape == (0,)


def test_local_clock_resolves_instants_inside_a_transition_hour():
    # Lord Howe Island moves its clocks by 30 minutes at 02:00 local, which
    # is inside a UTC hour: every second around it must match astimezone.
    tz = ZoneInfo("Australia/Lord_Howe")
    change = offset_changes("Australia/Lord_Howe", 2021)[0]
    t = np.arange(change - 3600, change + 3600, 7)
    expected = [
        int(datetime.fromtimestamp(s, UTC).astimezone(tz).replace(tzinfo=UTC).timestamp())
        for s in t.tolist()
    ]
    assert local_clock(tz)(t).tolist() == expected


# --- offset lookups per UTC day ----------------------------------------------------

TRANSITION_ZONES = (
    "Europe/Dublin",
    "America/New_York",
    "Australia/Lord_Howe",  # 30-minute changes, inside a UTC hour
    "America/St_Johns",  # changes at half past a UTC hour
    "Pacific/Apia",  # skipped 2011-12-30
    "Asia/Tehran",  # changes at half past a UTC hour, until 2022
)


def offset_at(t: int, tz) -> int:
    return int(datetime.fromtimestamp(t, tz).utcoffset().total_seconds())


def wall_seconds(t: np.ndarray, tz) -> list[int]:
    """Per-instant oracle: datetime.fromtimestamp(t, tz) read as a wall clock."""
    return [s + offset_at(s, tz) for s in t.tolist()]


class CountingZone(tzinfo):
    """A ZoneInfo that counts its UTC-to-local conversions, i.e. offset lookups."""

    def __init__(self, key: str):
        self.zone = ZoneInfo(key)
        self.lookups = 0

    def _as_zone(self, dt):
        return None if dt is None else dt.replace(tzinfo=self.zone)

    def fromutc(self, dt):
        self.lookups += 1
        return self.zone.fromutc(self._as_zone(dt)).replace(tzinfo=self)

    def utcoffset(self, dt):
        return self.zone.utcoffset(self._as_zone(dt))

    def dst(self, dt):
        return self.zone.dst(self._as_zone(dt))

    def tzname(self, dt):
        return self.zone.tzname(self._as_zone(dt))


@pytest.mark.parametrize("zone", TRANSITION_ZONES)
def test_local_clock_matches_fromtimestamp_around_every_transition(zone):
    # Every minute within 2 h of each 2000-2030 change, as one stream: the
    # clusters are months apart, so days with and without changes alternate.
    tz = ZoneInfo(zone)
    hours = {h for year in range(2000, 2031) for h in offset_changes(zone, year)}
    t = np.unique(np.concatenate([np.arange(h - 7200, h + 7200, 60) for h in hours]))
    assert local_clock(tz)(t).tolist() == wall_seconds(t, tz)


@pytest.mark.parametrize("zone", TRANSITION_ZONES)
def test_local_clock_across_a_multi_decade_gap(zone):
    # The offsets at the two ends of the gap agree (both in January) although
    # dozens of changes fall between them; the readings after the gap still
    # get their own day's offset.
    tz = ZoneInfo(zone)
    t = np.array([
        int(datetime(*stamp, tzinfo=UTC).timestamp())
        for stamp in [(1975, 1, 15, 23, 59, 59), (1975, 7, 1, 12), (2031, 1, 16, 0),
                      (2031, 1, 16, 0, 15), (2031, 7, 1, 12)]
    ])
    assert local_clock(tz)(t).tolist() == wall_seconds(t, tz)


@pytest.mark.parametrize("zone", TRANSITION_ZONES)
def test_local_clock_looks_offsets_up_per_day_edge(zone):
    # A year at the nominal cadence with transmission delay, then one reading
    # 30 years later.
    oracle = ZoneInfo(zone)
    rng = np.random.default_rng(11)
    first = int(datetime(2011, 1, 1, tzinfo=UTC).timestamp())
    t = first + np.cumsum(900 + rng.integers(0, 30, 35_040))
    t = np.append(t, t[-1] + 30 * 365 * 86400)
    tz = CountingZone(zone)
    assert local_clock(tz)(t).tolist() == wall_seconds(t, oracle)

    days = set((t // 86400).tolist())
    edges = days | {d + 1 for d in days}
    assert len(edges) == len(days) + 2  # one stretch of days, then one more
    changing = {d for d in days if offset_at(86400 * d, oracle) != offset_at(86400 * (d + 1), oracle)}
    assert 1 <= len(changing) <= 3
    # Instants of an hour whose two edges differ are looked up one by one;
    # that includes the hour that ends on a change.
    in_changing_hours = sum(
        1 for s in t.tolist()
        if s // 86400 in changing
        and offset_at(s // 3600 * 3600, oracle) != offset_at(s // 3600 * 3600 + 3600, oracle)
    )
    assert tz.lookups <= len(edges) + 25 * len(changing) + in_changing_hours


def test_binning_leaves_numpy_ma_unimported():
    # numpy.ma takes 10-30 ms to import; set routines such as np.union1d load it.
    code = (
        "import sys\n"
        "from zoneinfo import ZoneInfo\n"
        "import numpy as np\n"
        "print('numpy.ma' in sys.modules)\n"
        "from flowrhythm.binning import readings_to_days\n"
        "from flowrhythm.readings import ReadingStream\n"
        "t = 1616803200 + 900 * np.arange(3 * 96)  # 2021-03-27..29 UTC, Dublin springs forward\n"
        "days = readings_to_days(ReadingStream(t, 1.5 * np.arange(len(t))), ZoneInfo('Europe/Dublin'))\n"
        "assert days.retained.any()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowrhythm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    after_numpy, after_binning = done.stdout.split()
    if after_numpy == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after_binning == "False"


def test_block_by_block_conversion_looks_up_no_more_offsets():
    # Binning and generation convert instants a block at a time, sharing one
    # memo: no more lookups than one local_clock call over every instant.
    rng = np.random.default_rng(12)
    t = int(datetime(2020, 10, 1, tzinfo=UTC).timestamp()) + np.cumsum(900 + rng.integers(0, 30, 20_000))
    whole, blocks = CountingZone("America/New_York"), CountingZone("America/New_York")
    local_clock(whole)(t[1:])
    readings_to_days(ReadingStream(t, np.arange(len(t), dtype=float)), blocks)
    assert 0 < blocks.lookups <= whole.lookups

    cfg = ScenarioConfig(date(2020, 10, 1), date(2021, 3, 31), "America/New_York", seed=5)
    generated = CountingZone(cfg.timezone)
    with patch.object(synth, "ZoneInfo", lambda key: generated):
        stream = synth.generate(cfg)
    whole = CountingZone(cfg.timezone)
    local_clock(whole)(stream.epoch_s[1:])
    assert 0 < generated.lookups <= whole.lookups


def brute_force_profile(days, weekdays, std_kind="population"):
    matching = [d for d in days if d.day.weekday() in weekdays]
    mean = [math.nan] * SLOTS_PER_DAY
    std = [math.nan] * SLOTS_PER_DAY
    for k in range(SLOTS_PER_DAY):
        values = [float(d.bins[k]) for d in matching if not math.isnan(d.bins[k])]
        if not values:
            continue
        m = sum(values) / len(values)
        mean[k] = m
        squares = sum((v - m) ** 2 for v in values)
        if std_kind == "population":
            std[k] = math.sqrt(squares / len(values))
        else:
            std[k] = 0.0 if len(values) == 1 else math.sqrt(squares / (len(values) - 1))
    return mean, std


def dyadic_days(seed, n_days, start=MON):
    # Values on a 1/8-litre lattice keep every sum and mean exact in binary
    # floating point, so the oracle comparison can demand equality.
    rng = np.random.default_rng(seed)
    days = []
    for i in range(n_days):
        bins = rng.integers(0, 64, SLOTS_PER_DAY) / 8.0
        missing = rng.random(SLOTS_PER_DAY) < 0.15
        bins[missing] = np.nan
        bins[90] = np.nan  # one slot Missing on every day
        days.append(BinnedDay(start + timedelta(days=i * 7), bins))
    return days


@pytest.mark.parametrize("std_kind", ["population", "sample"])
def test_profile_matches_brute_force_exactly(std_kind):
    days = dyadic_days(3, 8)
    p = profile(days, 0, std_kind=std_kind)
    mean, std = brute_force_profile(days, (0,), std_kind)
    assert np.array_equal(p.mean, np.asarray(mean), equal_nan=True)
    assert np.array_equal(p.std, np.asarray(std), equal_nan=True)
    assert p.n_days == 8


# (group, its weekdays) for the matrix oracle below.
ORACLE_GROUPS = (("weekday", (0, 1, 2, 3, 4)), ("saturday", (5,)), ("sunday", (6,)), (3, (3,)), ((1, 5), (1, 5)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_profile_of_a_day_matrix_matches_brute_force_exactly(data):
    group, weekdays = data.draw(st.sampled_from(ORACLE_GROUPS), label="group")
    std_kind = data.draw(st.sampled_from(["population", "sample"]), label="std_kind")
    span = data.draw(st.integers(1, 60), label="span")
    first = MON + timedelta(days=data.draw(st.integers(0, 6), label="first"))
    retained = np.array(data.draw(st.lists(st.booleans(), min_size=span, max_size=span), label="retained"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # Rows that are not retained keep values, as the CLI leaves a calendar's
    # exclusions; absent days are rows that are not retained.
    values = rng.integers(0, 65, (span, SLOTS_PER_DAY)) / 8.0
    values[rng.random(values.shape) < 0.3] = np.nan
    matching = [
        i for i in range(span) if retained[i] and (first + timedelta(days=i)).weekday() in weekdays
    ]
    sizes = [c for c in (1, 2, 4, 8) if c <= len(matching)]
    for k in range(SLOTS_PER_DAY):
        # A power-of-two count of 1/8-litre values keeps every sum, mean and
        # squared residual exact, so the summation order cannot matter.
        present = rng.permutation(matching)[: rng.choice(sizes)] if sizes and k != 90 else []
        absent = np.setdiff1d(matching, present).astype(int)
        values[absent, k] = np.nan
    days = DayMatrix(first, values, retained)
    listed = [BinnedDay(d, bins) for d, bins in day_rows(days)]
    if not matching:
        with pytest.raises(NoMatchingDays):
            profile(days, group, std_kind)
        return
    p = profile(days, group, std_kind)
    mean, std = brute_force_profile(listed, weekdays, std_kind)
    assert np.array_equal(p.mean, np.asarray(mean), equal_nan=True)
    assert np.array_equal(p.std, np.asarray(std), equal_nan=True)
    assert p.n_days == len(matching)
    counts = np.count_nonzero(~np.isnan(values[matching]), axis=0)
    assert p.bin_counts.tolist() == counts.tolist()
    # No NaN becomes 0: a slot Missing on every matching day stays Missing.
    assert p.bin_counts[90] == 0 and math.isnan(p.mean[90]) and math.isnan(p.std[90])
    assert np.array_equal(np.isnan(p.mean), counts == 0)


def test_profile_all_missing_slot_stays_missing_never_zero():
    days = dyadic_days(4, 6)
    p = profile(days, 0)
    assert math.isnan(p.mean[90])
    assert math.isnan(p.std[90])
    assert p.bin_counts[90] == 0


def test_profile_single_day_mean_is_bins_std_zero(day_factory):
    d = day_factory(MON, np.linspace(0, 5, SLOTS_PER_DAY))
    p = profile([d], "weekday")
    assert np.array_equal(p.mean, d.bins)
    assert np.all(p.std == 0.0)
    assert p.n_days == 1


def test_profile_two_values_population_sigma(day_factory):
    a = day_factory(MON, 2.0)
    b = day_factory(MON + timedelta(days=7), 4.0)
    p = profile([a, b], "weekday")
    assert np.all(p.mean == 3.0)
    assert np.all(p.std == 1.0)
    q = profile([a, b], "weekday", std_kind="sample")
    assert q.std[0] == pytest.approx(math.sqrt(2.0))


def test_profile_sample_sigma_single_day_is_zero(day_factory):
    p = profile([day_factory(MON, 2.0)], "weekday", std_kind="sample")
    assert np.all(p.std == 0.0)


def test_profile_permutation_invariant():
    days = dyadic_days(9, 10)
    forward = profile(days, 0)
    backward = profile(list(reversed(days)), 0)
    assert np.array_equal(forward.mean, backward.mean, equal_nan=True)
    assert np.array_equal(forward.std, backward.std, equal_nan=True)


def test_profile_group_selection(day_factory):
    mon = day_factory(date(2021, 3, 1), 1.0)
    sat = day_factory(date(2021, 3, 6), 2.0)
    sun = day_factory(date(2021, 3, 7), 3.0)
    assert profile([mon, sat, sun], "weekday").n_days == 1
    assert profile([mon, sat, sun], "saturday").mean[0] == 2.0
    assert profile([mon, sat, sun], "sunday").mean[0] == 3.0
    with pytest.raises(NoMatchingDays):
        profile([sat], "weekday")


def test_template_ensemble_peak_bins(day_run_factory):
    # Days built from the packaged templates peak where the templates do:
    # 07:00 (bin 28) on weekdays, 10:00 (bin 40) on Saturday and Sunday.
    from flowrhythm.synth import default_templates

    t = default_templates()
    days = []
    for k in range(14):
        d = MON + timedelta(days=k)
        kind = "weekday" if d.weekday() < 5 else ("saturday" if d.weekday() == 5 else "sunday")
        days.append(BinnedDay(d, np.asarray(t[kind], dtype=np.float64)))
    assert abs(int(np.argmax(profile(days, "weekday").mean)) - 28) <= 1
    assert abs(int(np.argmax(profile(days, "saturday").mean)) - 40) <= 1
    assert abs(int(np.argmax(profile(days, "sunday").mean)) - 40) <= 1


def test_write_profile_csv_missing_cells_empty(tmp_path):
    days = dyadic_days(13, 4)
    p = profile(days, 0)
    path = tmp_path / "p.csv"
    write_profile_csv(p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_index,local_time,mean_litres,std_litres,n_days"
    assert len(lines) == 1 + SLOTS_PER_DAY
    row90 = lines[1 + 90].split(",")
    assert row90[2] == "" and row90[3] == "" and row90[4] == "0"
    # A present bin round-trips its mean exactly through repr.
    for k in range(SLOTS_PER_DAY):
        cells = lines[1 + k].split(",")
        if cells[2]:
            assert float(cells[2]) == p.mean[k]
