from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day_rows
from flowrhythm.binning import SLOTS_PER_DAY, BinnedDay, DayMatrix
from flowrhythm.errors import DataError, EmptyInput, InvalidConfig
from flowrhythm.exclusions import DayClass, ExclusionCalendar
from flowrhythm.pipeline import readings_to_days
from flowrhythm.readings import ReadingStream
from flowrhythm.spectral import Samples, classic_periodogram, lomb_scargle
from flowrhythm.tracking import (
    WindowConfig,
    compute_window_periodograms,
    make_windows,
    write_intensity_csv,
    write_overlay_csv,
)

START = date(2021, 3, 1)
SLOT_HOURS = 0.25


def cosine_bins(period_hours=24.0, amplitude=1.0, offset=2.0):
    mid = SLOT_HOURS * (np.arange(SLOTS_PER_DAY) + 0.5)
    return offset + amplitude * np.cos(2 * np.pi * mid / period_hours)


def noisy_tone_days(day_factory, n, seed=7):
    rng = np.random.default_rng(seed)
    return [
        day_factory(START + timedelta(days=k), cosine_bins(offset=8.0) + rng.normal(0, 0.5, SLOTS_PER_DAY))
        for k in range(n)
    ]


def track(tmp_path, days, calendar=None, cfg=None):
    """The rows of intensity.csv, each split into its five fields."""
    cfg = cfg or WindowConfig()
    path = tmp_path / "intensity.csv"
    write_intensity_csv(compute_window_periodograms(days, calendar, cfg), cfg.target_periods, path)
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def reference_samples(days, calendar, start, window_days):
    """A window's samples built slot by slot, as the single-series estimators take them.

    Times are bin midpoints in hours since window-start midnight; Missing
    slots, absent days and days the calendar excludes are left out. `days`
    is a list of BinnedDay or a DayMatrix.
    """
    if isinstance(days, DayMatrix):
        by_date = dict(day_rows(days))
    else:
        by_date = {d.day: d.bins for d in days}
    times, values = [], []
    for j in range(window_days):
        d = start + timedelta(days=j)
        bins = by_date.get(d)
        if bins is None or (calendar is not None and calendar.classify(d) is not DayClass.NORMAL):
            continue
        for k in range(SLOTS_PER_DAY):
            if not np.isnan(bins[k]):
                times.append(24.0 * j + SLOT_HOURS * (k + 0.5))
                values.append(float(bins[k]))
    return Samples(times, values)


def assert_matches_reference(pg, ref):
    assert pg.n_samples == ref.n_samples
    assert pg.normalization == ref.normalization
    assert np.max(np.abs(pg.power - ref.power)) <= 1e-12 * np.max(ref.power)


@pytest.fixture
def vacation_fixture(day_run_factory):
    """Twenty days with days 11..19 (1-based) marked vacation."""
    days = day_run_factory(START, 20)
    calendar = ExclusionCalendar.from_ranges(
        [(START + timedelta(days=10), START + timedelta(days=18), DayClass.VACATION)]
    )
    return days, calendar


def test_ten_days_single_window(day_run_factory):
    days = day_run_factory(START, 10)
    windows = make_windows(days, None, WindowConfig())
    assert len(windows) == 1
    assert windows[0].start_date == START
    assert windows[0].end_date == START + timedelta(days=9)
    assert windows[0].valid_day_count == 10
    assert not windows[0].skipped


EXCLUDED = [c for c in DayClass if c is not DayClass.NORMAL]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_count_over_spans_calendars_and_strides(data):
    # Window positions depend on the span from the first to the last binned
    # day alone; absent and calendar-excluded days only thin windows out.
    window = data.draw(st.integers(2, 15), label="window_days")
    cfg = WindowConfig(
        window_days=window,
        stride_days=data.draw(st.integers(1, window), label="stride_days"),
        min_valid_days=data.draw(st.integers(1, window), label="min_valid_days"),
    )
    span = data.draw(st.integers(1, 80), label="span")
    inner = data.draw(st.sets(st.integers(0, span - 1)), label="present")
    days = [
        BinnedDay(START + timedelta(days=k), np.ones(SLOTS_PER_DAY))
        for k in sorted(inner | {0, span - 1})
    ]
    excluded = data.draw(st.dictionaries(st.integers(0, span - 1), st.sampled_from(EXCLUDED)), label="excluded")
    calendar = data.draw(st.sampled_from([None, ExclusionCalendar.from_ranges(
        (START + timedelta(days=k), START + timedelta(days=k), c) for k, c in excluded.items()
    )]))
    windows = make_windows(days, calendar, cfg)
    assert len(windows) == max(0, (span - cfg.window_days) // cfg.stride_days + 1)
    assert [w.start_date for w in windows] == [
        START + timedelta(days=i * cfg.stride_days) for i in range(len(windows))
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=10, max_value=300))
def test_window_count_is_span_minus_nine(n):
    days = [
        # inline construction: hypothesis shrinks badly through fixtures
        d
        for d in (
            __import__("flowrhythm.binning", fromlist=["BinnedDay"]).BinnedDay(
                START + timedelta(days=k), np.ones(SLOTS_PER_DAY)
            )
            for k in range(n)
        )
    ]
    windows = make_windows(days, None, WindowConfig())
    assert len(windows) == n - 9


def test_two_hundred_twenty_six_days(day_run_factory):
    days = day_run_factory(START, 226)
    assert len(make_windows(days, None, WindowConfig())) == 217


def test_vacation_span_skips_low_occupancy_windows(vacation_fixture):
    days, calendar = vacation_fixture
    windows = make_windows(days, calendar, WindowConfig())
    assert len(windows) == 11
    emitted = [w for w in windows if not w.skipped]
    skipped = [w for w in windows if w.skipped]
    assert len(emitted) == 3
    assert len(skipped) == 8
    assert [w.start_date for w in emitted] == [
        START,
        START + timedelta(days=1),
        START + timedelta(days=2),
    ]
    assert [w.valid_day_count for w in emitted] == [10, 9, 8]
    for w in skipped:
        assert w.reason is not None and "valid day" in w.reason


def test_skip_rows_report_valid_day_count(tmp_path, vacation_fixture):
    days, calendar = vacation_fixture
    cfg = WindowConfig()
    pairs = compute_window_periodograms(days, calendar, cfg)
    assert [w.valid_day_count for w, pg in pairs if pg is None] == [7, 6, 5, 4, 3, 2, 1, 1]
    path = tmp_path / "intensity.csv"
    write_intensity_csv(pairs, cfg.target_periods, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    skipped = [int(r[3]) for r in rows if r[4] == "true"]
    assert skipped == [n for n in (7, 6, 5, 4, 3, 2, 1, 1) for _ in cfg.target_periods]


def test_stride_spaces_window_starts(day_run_factory):
    days = day_run_factory(START, 40)
    cfg = WindowConfig(stride_days=3)
    starts = [w.start_date for w in make_windows(days, None, cfg)]
    assert starts[0] == START
    assert all(
        (b - a).days == 3 for a, b in zip(starts, starts[1:])
    )
    assert starts[-1] + timedelta(days=9) <= days[-1].day


def test_duplicate_days_rejected(day_factory):
    days = [day_factory(START), day_factory(START)]
    with pytest.raises(DataError, match="duplicate"):
        make_windows(days, None, WindowConfig())


def test_empty_input():
    with pytest.raises(EmptyInput):
        make_windows([], None, WindowConfig())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_emitted_windows_count_the_present_slots_of_their_valid_rows(data):
    window = data.draw(st.integers(2, 4), label="window_days")
    cfg = WindowConfig(window_days=window, min_valid_days=data.draw(st.integers(1, window)))
    span = data.draw(st.integers(1, 10), label="span")
    retained = np.array(data.draw(st.lists(st.booleans(), min_size=span, max_size=span), label="retained"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.uniform(0.0, 5.0, (span, SLOTS_PER_DAY))
    values[rng.random(values.shape) < data.draw(st.floats(0.0, 1.0), label="missing")] = np.nan
    values[~retained] = np.nan
    excluded = data.draw(st.sets(st.integers(0, span - 1)), label="excluded")
    calendar = ExclusionCalendar({START + timedelta(days=k): DayClass.WEATHER_EVENT for k in excluded})
    valid = retained & ~np.isin(np.arange(span), list(excluded))
    pairs = compute_window_periodograms(DayMatrix(START, values, retained), calendar, cfg)
    for w, pg in pairs:
        rows = slice((w.start_date - START).days, (w.start_date - START).days + window)
        assert w.valid_day_count == int(valid[rows].sum())
        if pg is not None:
            assert pg.n_samples == int(np.count_nonzero(~np.isnan(values[rows][valid[rows]])))


def test_windows_start_at_the_first_retained_day(tmp_path):
    # Readings from 15:00 on day 0 to 06:00 on day 13: both edge days are too
    # sparse to keep, so the matrix and its windows begin on day 1.
    t = int(datetime(2021, 3, 1, 15, tzinfo=timezone.utc).timestamp()) + 900 * np.arange(12 * 96 + 61)
    rng = np.random.default_rng(5)
    litres = np.cumsum(2.0 + np.cos(2 * np.pi * t / 86400) + rng.uniform(0, 1, len(t)))
    days = readings_to_days(ReadingStream(t, litres))
    assert days.first == START + timedelta(days=1)
    assert len(days.retained) == 12 and days.retained.all()
    listed = DayMatrix.from_days([BinnedDay(d, bins) for d, bins in day_rows(days)])
    cfg = WindowConfig()
    for name, matrix in (("matrix", days), ("listed", listed)):
        pairs = compute_window_periodograms(matrix, None, cfg)
        assert pairs[0][0].start_date == START + timedelta(days=1)
        write_intensity_csv(pairs, cfg.target_periods, tmp_path / f"{name}.csv")
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()


def test_window_clock_is_slot_midpoints(day_factory):
    days = noisy_tone_days(day_factory, 2)
    cfg = WindowConfig(window_days=2, min_valid_days=2)
    (window, pg), = compute_window_periodograms(days, None, cfg)
    times = SLOT_HOURS * (np.arange(192) + 0.5)
    values = np.concatenate([d.bins for d in days])
    assert_matches_reference(pg, lomb_scargle(Samples(times, values), cfg.grid()))


def test_missing_slot_leaves_the_window(day_factory):
    bins = cosine_bins(offset=4.0)
    bins[5] = np.nan
    cfg = WindowConfig(window_days=2, min_valid_days=1)
    assert make_windows([day_factory(START, bins)], None, cfg) == []  # 1-day span cannot host a 2-day window

    days = [day_factory(START, bins), day_factory(START + timedelta(days=1), cosine_bins(amplitude=2.0))]
    (window, pg), = compute_window_periodograms(days, None, cfg)
    assert pg.n_samples == 191
    times = np.delete(SLOT_HOURS * (np.arange(192) + 0.5), 5)
    values = np.delete(np.concatenate([d.bins for d in days]), 5)
    assert_matches_reference(pg, lomb_scargle(Samples(times, values), cfg.grid()))


@pytest.mark.parametrize("normalization", ["raw", "variance"])
def test_batched_ls_matches_single_series_on_demo(demo_days, study_calendar, normalization):
    cfg = WindowConfig()
    grid = cfg.grid()
    pairs = compute_window_periodograms(demo_days, study_calendar, cfg, normalization=normalization)
    emitted = [(w, pg) for w, pg in pairs if pg is not None]
    assert len(emitted) > 100
    for window, pg in emitted:
        samples = reference_samples(demo_days, study_calendar, window.start_date, cfg.window_days)
        assert_matches_reference(pg, lomb_scargle(samples, grid, normalization=normalization))


@pytest.mark.parametrize("normalization", ["raw", "variance"])
def test_batched_classic_matches_single_series_on_complete_tone(day_factory, normalization):
    days = noisy_tone_days(day_factory, 45)  # 36 windows: more than one block
    cfg = WindowConfig()
    grid = cfg.grid()
    pairs = compute_window_periodograms(days, None, cfg, estimator="classic", normalization=normalization)
    assert len(pairs) == 36 and all(pg is not None for _, pg in pairs)
    for window, pg in pairs:
        samples = reference_samples(days, None, window.start_date, cfg.window_days)
        assert_matches_reference(pg, classic_periodogram(samples, grid, normalization=normalization))
        assert int(np.argmax(pg.power)) == grid.index_of_period(24.0)


def test_classic_accepts_edge_gap_and_rejects_inner_hole(day_factory):
    days = noisy_tone_days(day_factory, 20)
    hole = START + timedelta(days=10)
    calendar = ExclusionCalendar({hole: DayClass.HARDWARE_FAULT})
    cfg = WindowConfig()
    pairs = dict(
        (w.start_date, (w, pg))
        for w, pg in compute_window_periodograms(days, calendar, cfg, estimator="classic")
    )
    for start in (START + timedelta(days=1), hole):  # the hole is the last, then the first day
        window, pg = pairs[start]
        assert not window.skipped and window.valid_day_count == 9
        samples = reference_samples(days, calendar, start, cfg.window_days)
        assert_matches_reference(pg, classic_periodogram(samples, cfg.grid()))
    window, pg = pairs[START + timedelta(days=5)]
    assert pg is None and window.skipped and window.valid_day_count == 9
    assert "spacing" in window.reason


def test_pure_cosine_constant_intensity(tmp_path, day_run_factory):
    days = day_run_factory(START, 14, cosine_bins())
    rows = track(tmp_path, days)
    p24 = [float(r[2]) for r in rows if r[1] == "24.0"]
    p12 = [float(r[2]) for r in rows if r[1] == "12.0"]
    assert len(p24) == 5
    ref = p24[0]
    assert all(abs(p - ref) / ref <= 1e-6 for p in p24)
    assert all(p <= 0.01 * ref for p in p12)


def test_single_window_series(tmp_path, day_run_factory):
    days = day_run_factory(START, 10, cosine_bins())
    (row,) = track(tmp_path, days, cfg=WindowConfig(target_periods=(24.0,)))
    start, period, power, valid_days, skipped = row
    assert (start, period, valid_days, skipped) == (START.isoformat(), "24.0", "10", "false")
    assert float(power) > 0


def test_classic_estimator_demoted_on_gaps(day_run_factory, day_factory):
    days = day_run_factory(START, 5) + [
        day_factory(START + timedelta(days=k)) for k in range(6, 11)
    ]
    cfg = WindowConfig(min_valid_days=8)
    via_classic = compute_window_periodograms(days, None, cfg, estimator="classic")
    assert len(via_classic) == 2
    for window, pg in via_classic:
        assert pg is None
        assert window.skipped
        assert window.reason
    via_ls = compute_window_periodograms(days, None, cfg, estimator="ls")
    assert all(pg is not None for _, pg in via_ls)


def test_unknown_estimator():
    with pytest.raises(InvalidConfig):
        compute_window_periodograms([], None, WindowConfig(), estimator="welch")


def test_off_grid_target_period():
    with pytest.raises(InvalidConfig):
        WindowConfig(target_periods=(13.0,)).grid()


def test_noise_ladder_erodes_periodic_fraction(day_factory):
    rng = np.random.default_rng(2024)
    z = [rng.standard_normal(SLOTS_PER_DAY) for _ in range(12)]
    fractions = []
    for noise_sd in (0.0, 0.5, 1.0, 1.5, 2.0):
        days = [
            # offset 8 keeps every bin positive at the loudest rung
            day_factory(START + timedelta(days=k), cosine_bins(offset=8.0) + noise_sd * z[k])
            for k in range(12)
        ]
        pairs = compute_window_periodograms(days, None, WindowConfig())
        grid = WindowConfig().grid()
        i24 = grid.index_of_period(24.0)
        per_window = [
            float(pg.power[i24] / np.sum(pg.power)) for _, pg in pairs if pg is not None
        ]
        fractions.append(float(np.mean(per_window)))
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] < fractions[0]


def test_track_intensity_deterministic(tmp_path, day_run_factory):
    days = day_run_factory(START, 20, cosine_bins())
    assert track(tmp_path, days) == track(tmp_path, days)


def test_point_order_is_window_major(tmp_path, day_run_factory):
    days = day_run_factory(START, 11, cosine_bins())
    heads = [(r[0], r[1]) for r in track(tmp_path, days)[:4]]
    second = (START + timedelta(days=1)).isoformat()
    assert heads == [
        (START.isoformat(), "12.0"),
        (START.isoformat(), "24.0"),
        (second, "12.0"),
        (second, "24.0"),
    ]


def test_intensity_csv(tmp_path, vacation_fixture, day_run_factory):
    days, calendar = vacation_fixture
    track(tmp_path, days, calendar)
    lines = (tmp_path / "intensity.csv").read_text().splitlines()
    assert lines[0] == "window_start,period_hours,power,valid_days,skipped"
    assert len(lines) == 1 + 11 * 2
    emitted = [l for l in lines[1:] if l.endswith(",false")]
    skipped = [l for l in lines[1:] if l.endswith(",true")]
    assert len(emitted) == 6 and len(skipped) == 16
    for row in skipped:
        assert row.split(",")[2] == ""  # power column stays empty
    for row in emitted:
        float(row.split(",")[2])


def test_overlay_csv(tmp_path, vacation_fixture):
    days, calendar = vacation_fixture
    cfg = WindowConfig()
    pairs = compute_window_periodograms(days, calendar, cfg)
    path = tmp_path / "overlay.csv"
    write_overlay_csv(pairs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window_start,frequency_cph,period_hours,power"
    assert len(lines) == 1 + 3 * len(cfg.grid())
    first = lines[1].split(",")
    assert first[0] == START.isoformat()
    assert float(first[1]) == cfg.grid().frequencies_cph[0]


@pytest.mark.parametrize(
    "kw",
    [
        {"window_days": 1},
        {"window_days": 0},
        {"stride_days": 0},
        {"stride_days": 11},
        {"min_valid_days": 0},
        {"min_valid_days": 11},
        {"target_periods": ()},
        {"target_periods": (0.0,)},
        {"target_periods": (-24.0,)},
    ],
)
def test_window_config_validation(kw):
    with pytest.raises(InvalidConfig):
        WindowConfig(**kw)


def test_window_config_defaults():
    cfg = WindowConfig()
    assert cfg.window_days == 10
    assert cfg.stride_days == 1
    assert cfg.min_valid_days == 8
    assert cfg.target_periods == (12.0, 24.0)
    assert cfg.window_hours == 240.0


def per_row_overlay(pairs) -> str:
    """overlay.csv formatted row by row, frequency and period included."""
    lines = ["window_start,frequency_cph,period_hours,power"]
    for window, pg in pairs:
        if pg is None:
            continue
        for f, power in zip(pg.grid.frequencies_cph, pg.power):
            lines.append(
                f"{window.start_date.isoformat()},{repr(float(f))},"
                f"{repr(1.0 / float(f))},{repr(float(power))}"
            )
    return "\n".join(lines) + "\n"


def test_overlay_rows_equal_the_per_row_formula_on_demo(tmp_path, demo_days, study_calendar):
    pairs = compute_window_periodograms(demo_days, study_calendar, WindowConfig())
    assert sum(pg is not None for _, pg in pairs) > 100
    write_overlay_csv(pairs, tmp_path / "overlay.csv")
    assert (tmp_path / "overlay.csv").read_text() == per_row_overlay(pairs)


def test_overlay_rows_equal_the_per_row_formula_on_a_complete_tone(tmp_path, day_factory):
    pairs = compute_window_periodograms(noisy_tone_days(day_factory, 45), None, WindowConfig(), "classic")
    assert len(pairs) == 36 and all(pg is not None for _, pg in pairs)
    write_overlay_csv(pairs, tmp_path / "overlay.csv")
    assert (tmp_path / "overlay.csv").read_text() == per_row_overlay(pairs)
