import tracemalloc
from datetime import date, datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day_rows
from flowrhythm import tracking
from flowrhythm.binning import SLOTS_PER_DAY, BinnedDay, DayMatrix, readings_to_days
from flowrhythm.errors import DataError, EmptyInput, InvalidConfig
from flowrhythm.exclusions import DayClass, ExclusionCalendar
from flowrhythm.readings import ReadingStream
from flowrhythm.spectral import UNEVEN_SPACING, FrequencyGrid, Samples, classic_periodogram, lomb_scargle
from flowrhythm.synth import generate, scenario_from_json
from flowrhythm.tracking import (
    ESTIMATED,
    FEW_SAMPLES,
    FEW_VALID_DAYS,
    UNEVEN,
    WindowConfig,
    compute_track,
    compute_window_periodograms,
    make_windows,
    periodogram_window,
    write_intensity_csv,
    write_overlay_csv,
    write_periodogram_csv,
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


def excluding(days, calendar):
    """Listed days or a DayMatrix, as a DayMatrix without the days `calendar` excludes."""
    return DayMatrix.from_days(days).excluding(calendar)


def track(tmp_path, days, calendar=None, cfg=None):
    """The rows of intensity.csv, each split into its five fields."""
    cfg = cfg or WindowConfig()
    path = tmp_path / "intensity.csv"
    write_intensity_csv(compute_track(excluding(days, calendar), cfg), path)
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


def assert_matches_reference(track, row, ref, columns=slice(None)):
    """Track row `row`, at the grid `columns` the reference was estimated on,
    equals the single-series periodogram `ref` to 1e-12 of its peak."""
    assert track.n_samples[row] == ref.n_samples
    assert track.normalization == ref.normalization
    assert np.max(np.abs(track.power[row, columns] - ref.power)) <= 1e-12 * np.max(ref.power)


@pytest.fixture
def vacation_fixture(day_run_factory):
    """Twenty days with days 11..19 (1-based) marked vacation."""
    days = day_run_factory(START, 20)
    calendar = ExclusionCalendar.from_ranges(
        [(START + timedelta(days=10), START + timedelta(days=18), DayClass.VACATION)]
    )
    return days, calendar


def test_ten_days_single_window(day_run_factory):
    track = compute_track(day_run_factory(START, 10), WindowConfig())
    assert track.first == START and track.starts.tolist() == [0]
    assert track.valid_days.tolist() == [10]
    assert track.n_samples.tolist() == [960]
    assert track.skip.tolist() == [ESTIMATED]
    assert track.estimator == "lomb_scargle" and track.normalization == "raw"
    assert track.power.shape == (1, len(WindowConfig().grid()))


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
    track = compute_track(excluding(days, calendar), cfg)
    n = max(0, (span - cfg.window_days) // cfg.stride_days + 1)
    assert track.first == START
    assert track.starts.tolist() == [i * cfg.stride_days for i in range(n)]
    assert len(make_windows(days, calendar, cfg)) == n


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=10, max_value=300))
def test_window_count_is_span_minus_nine(n):
    # inline construction: hypothesis shrinks badly through fixtures
    days = [BinnedDay(START + timedelta(days=k), np.ones(SLOTS_PER_DAY)) for k in range(n)]
    assert len(compute_track(days, WindowConfig()).starts) == n - 9


def test_two_hundred_twenty_six_days(day_run_factory):
    days = day_run_factory(START, 226)
    assert len(compute_track(days, WindowConfig()).starts) == 217


def test_vacation_span_skips_low_occupancy_windows(tmp_path, vacation_fixture):
    days, calendar = vacation_fixture
    cfg = WindowConfig()
    track = compute_track(excluding(days, calendar), cfg)
    assert track.starts.tolist() == list(range(11))
    assert track.emitted.tolist() == [0, 1, 2]
    assert track.valid_days.tolist() == [10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1]
    assert track.skip.tolist() == [ESTIMATED] * 3 + [FEW_VALID_DAYS] * 8
    path = tmp_path / "intensity.csv"
    write_intensity_csv(track, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    skipped = [int(r[3]) for r in rows if r[4] == "true"]
    assert skipped == [n for n in (7, 6, 5, 4, 3, 2, 1, 1) for _ in cfg.target_periods]


def test_skip_rows_hold_nan_power_and_stay_out_of_the_overlay(tmp_path, day_run_factory, day_factory):
    # Valid-day skips from a vacation, and classic skips from a hole inside.
    days = day_run_factory(START, 5) + day_run_factory(START + timedelta(days=6), 20, cosine_bins())
    calendar = ExclusionCalendar.from_ranges(
        [(START + timedelta(days=14), START + timedelta(days=19), DayClass.VACATION)]
    )
    track = compute_track(excluding(days, calendar), WindowConfig(), estimator="classic")
    assert set(track.skip.tolist()) == {ESTIMATED, FEW_VALID_DAYS, UNEVEN}
    skipped = track.skip != ESTIMATED
    assert np.isnan(track.power[skipped]).all()
    assert np.isfinite(track.power[~skipped]).all()
    write_overlay_csv(track, tmp_path / "overlay.csv")
    starts = {line.split(",")[0] for line in (tmp_path / "overlay.csv").read_text().splitlines()[1:]}
    assert starts == {track.start_date(row).isoformat() for row in track.emitted}


def test_stride_spaces_window_starts(day_run_factory):
    days = day_run_factory(START, 40)
    track = compute_track(days, WindowConfig(stride_days=3))
    assert track.starts[0] == 0
    assert (np.diff(track.starts) == 3).all()
    assert track.start_date(-1) + timedelta(days=9) <= days[-1].day


def test_duplicate_days_rejected(day_factory):
    days = [day_factory(START), day_factory(START)]
    with pytest.raises(DataError, match="duplicate"):
        compute_track(days, WindowConfig())


def test_empty_input():
    with pytest.raises(EmptyInput):
        compute_track([], WindowConfig())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_windows_count_the_valid_days_and_present_slots_of_their_rows(data):
    window = data.draw(st.integers(2, 4), label="window_days")
    cfg = WindowConfig(window_days=window, min_valid_days=data.draw(st.integers(1, window)))
    span = data.draw(st.integers(1, 10), label="span")
    retained = np.array(data.draw(st.lists(st.booleans(), min_size=span, max_size=span), label="retained"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.uniform(0.0, 5.0, (span, SLOTS_PER_DAY))
    values[rng.random(values.shape) < data.draw(st.floats(0.0, 1.0), label="missing")] = np.nan
    values[~retained] = np.nan
    excluded = data.draw(st.sets(st.integers(0, span - 1)), label="excluded")
    excluded_days = [START + timedelta(days=k) for k in excluded]
    calendar = ExclusionCalendar.from_ranges([(d, d, DayClass.WEATHER_EVENT) for d in excluded_days])
    valid = retained & ~np.isin(np.arange(span), list(excluded))
    track = compute_track(excluding(DayMatrix(START, values, retained), calendar), cfg)
    for row, start in enumerate(track.starts.tolist()):
        rows = slice(start, start + window)
        assert track.valid_days[row] == int(valid[rows].sum())
        assert track.n_samples[row] == int(np.count_nonzero(~np.isnan(values[rows][valid[rows]])))
        expected = ESTIMATED if track.valid_days[row] >= cfg.min_valid_days else FEW_VALID_DAYS
        if expected == ESTIMATED and track.n_samples[row] < 3:
            expected = FEW_SAMPLES
        assert track.skip[row] == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_window_sums_are_the_sums_of_their_rows(data):
    rows = data.draw(st.integers(1, 40), label="rows")
    width = data.draw(st.integers(1, rows), label="width")
    starts = np.array(sorted(data.draw(st.lists(st.integers(0, rows - width), min_size=1), label="starts")))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    counts = rng.integers(-1000, 1000, (rows, 2))
    scale = np.exp(rng.uniform(-5.0, 5.0, (rows, 1)))
    phased = scale * (rng.normal(0.0, 1.0, (rows, 3)) + 1j * rng.normal(0.0, 1.0, (rows, 3)))
    # The helper turns its argument into running sums in place, so it gets copies.
    for a in (counts, counts[:, 0]):
        expected = np.array([a[s : s + width].sum(axis=0) for s in starts])
        assert np.array_equal(tracking._window_sums(a.copy(), starts, width), expected)
    expected = np.array([phased[s : s + width].sum(axis=0) for s in starts])
    got = tracking._window_sums(phased.copy(), starts, width)
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(phased).sum(axis=0))
    # A window that ends by row `end` reads nothing after it.
    end = data.draw(st.integers(int(starts.max()) + width, rows), label="end")
    assert np.array_equal(tracking._window_sums(phased[:end].copy(), starts, width), got)


@pytest.mark.parametrize("estimator", ["ls", "classic"])
def test_values_of_rows_not_retained_never_reach_a_window(estimator):
    # Row 4 is not retained but still holds values: the windows must read it
    # as the NaN row it would be had binning dropped the day.
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 5.0, (12, SLOTS_PER_DAY))
    retained = np.arange(12) != 4
    blanked = values.copy()
    blanked[4] = np.nan
    cfg = WindowConfig()
    held, blank = (compute_track(DayMatrix(START, v, retained), cfg, estimator) for v in (values, blanked))
    assert held.valid_days.tolist() == blank.valid_days.tolist() == [9, 9, 9]
    assert held.n_samples.tolist() == blank.n_samples.tolist() == [864] * 3
    assert held.skip.tolist() == blank.skip.tolist() == [ESTIMATED if estimator == "ls" else UNEVEN] * 3
    assert np.array_equal(held.power, blank.power, equal_nan=True)


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
        track = compute_track(matrix, cfg)
        assert track.start_date(0) == START + timedelta(days=1)
        write_intensity_csv(track, tmp_path / f"{name}.csv")
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()


def test_window_clock_is_slot_midpoints(day_factory):
    days = noisy_tone_days(day_factory, 2)
    cfg = WindowConfig(window_days=2, min_valid_days=2)
    track = compute_track(days, cfg)
    times = SLOT_HOURS * (np.arange(192) + 0.5)
    values = np.concatenate([d.bins for d in days])
    assert_matches_reference(track, 0, lomb_scargle(Samples(times, values), cfg.grid()))


def test_missing_slot_leaves_the_window(day_factory):
    bins = cosine_bins(offset=4.0)
    bins[5] = np.nan
    cfg = WindowConfig(window_days=2, min_valid_days=1)
    alone = compute_track([day_factory(START, bins)], cfg)
    assert len(alone.starts) == 0 and alone.power.shape == (0, len(cfg.grid()))  # 1-day span cannot host a 2-day window

    days = [day_factory(START, bins), day_factory(START + timedelta(days=1), cosine_bins(amplitude=2.0))]
    track = compute_track(days, cfg)
    assert track.n_samples.tolist() == [191]
    times = np.delete(SLOT_HOURS * (np.arange(192) + 0.5), 5)
    values = np.delete(np.concatenate([d.bins for d in days]), 5)
    assert_matches_reference(track, 0, lomb_scargle(Samples(times, values), cfg.grid()))


@pytest.mark.parametrize("normalization", ["raw", "variance"])
def test_batched_ls_matches_single_series_on_demo(demo_days, study_calendar, normalization):
    cfg = WindowConfig()
    grid = cfg.grid()
    track = compute_track(excluding(demo_days, study_calendar), cfg, normalization=normalization)
    assert len(track.emitted) > 100
    for row in track.emitted:
        samples = reference_samples(demo_days, study_calendar, track.start_date(row), cfg.window_days)
        assert_matches_reference(track, row, lomb_scargle(samples, grid, normalization=normalization))


@pytest.mark.parametrize("normalization", ["raw", "variance"])
def test_batched_classic_matches_single_series_on_complete_tone(day_factory, normalization):
    days = noisy_tone_days(day_factory, 45)  # 36 windows: more than one block
    cfg = WindowConfig()
    grid = cfg.grid()
    track = compute_track(days, cfg, estimator="classic", normalization=normalization)
    assert track.estimator == "classic"
    assert len(track.emitted) == len(track.starts) == 36
    for row in track.emitted:
        samples = reference_samples(days, None, track.start_date(row), cfg.window_days)
        assert_matches_reference(track, row, classic_periodogram(samples, grid, normalization=normalization))
        assert int(np.argmax(track.power[row])) == grid.index_of_period(24.0)


@pytest.mark.parametrize("household, window_days, estimator, calendar", [
    ("demo", 10, "ls", None),
    ("demo", 30, "ls", "study"), ("demo", 30, "ls", None), ("tone", 30, "classic", None),
    ("demo", 60, "ls", "study"), ("demo", 60, "ls", None), ("tone", 60, "classic", None),
    ("tone", 365, "ls", "holes"), ("tone", 365, "ls", None), ("tone", 365, "classic", None),
])
def test_batched_matches_single_series_at_every_window_length(
    demo_days, study_calendar, tone_days, household, window_days, estimator, calendar
):
    # A window's sums are built from its days' sums turned by each day's
    # phase; the single-series estimators project its samples directly.
    days = demo_days if household == "demo" else tone_days
    calendar = {None: None, "study": study_calendar, "holes": ExclusionCalendar.from_ranges([
        (date(2020, 3, 1), date(2020, 3, 14), DayClass.VACATION),
        (date(2020, 12, 25), date(2020, 12, 25), DayClass.PUBLIC_HOLIDAY),
    ])}[calendar]
    cfg = WindowConfig(window_days=window_days)
    track = compute_track(excluding(days, calendar), cfg, estimator)
    grid = cfg.grid()
    columns = slice(None)
    if window_days == 365:
        # A phase table of 35,040 samples by all 2,118 frequencies would take
        # about 1.2 GB, so the single series is estimated on a spread of them.
        columns = np.unique(np.concatenate([
            np.linspace(0, len(grid) - 1, 12).round().astype(int),
            [grid.index_of_period(24.0), grid.index_of_period(12.0)],
        ]))
        grid = FrequencyGrid(grid.frequencies_cph[columns])
    emitted = track.emitted
    assert len(emitted) > 0 and (calendar is None or track.valid_days[emitted].min() < window_days)
    single = {"ls": lomb_scargle, "classic": classic_periodogram}[estimator]
    for row in emitted[np.unique(np.linspace(0, len(emitted) - 1, 5).round().astype(int))]:
        samples = reference_samples(days, calendar, track.start_date(row), window_days)
        assert_matches_reference(track, row, single(samples, grid), columns)


@pytest.mark.parametrize("window_days", [10, 60])
def test_windows_of_a_decade_keep_their_precision(window_days):
    # Every window's sums are differences of running sums from row 0, so the
    # rounding of a late window grows with the rows before it.
    rng = np.random.default_rng(35)
    mid = SLOT_HOURS * (np.arange(SLOTS_PER_DAY) + 0.5)
    values = 4.0 + 2.0 * np.cos(2 * np.pi * mid / 24.0) + rng.uniform(0.0, 3.0, (3650, SLOTS_PER_DAY))
    values[rng.random(values.shape) < 0.05] = np.nan
    retained = rng.random(3650) >= 0.03
    values[~retained] = np.nan
    days = DayMatrix(START, values, retained)
    cfg = WindowConfig(window_days=window_days)
    track = compute_track(days, cfg)
    emitted = track.emitted
    assert len(emitted) > 3000
    for row in (emitted[0], emitted[len(emitted) // 2], emitted[-1]):
        samples = reference_samples(days, None, track.start_date(row), window_days)
        assert_matches_reference(track, row, lomb_scargle(samples, cfg.grid()))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_classic_equals_lomb_scargle_on_complete_windows(data):
    # On a complete window every grid frequency is a whole number of cycles,
    # so the floating-mean fit reduces to the Schuster form element by element.
    window = data.draw(st.integers(2, 40), label="window_days")
    stride = data.draw(st.integers(1, window), label="stride_days")
    span = window + data.draw(st.integers(0, 20), label="extra_days")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    noise_sd = data.draw(st.floats(0.01, 1.0), label="noise_sd")
    tone = cosine_bins(amplitude=4.0, offset=8.0) + rng.normal(0.0, noise_sd, (span, SLOTS_PER_DAY))
    days = DayMatrix(START, tone, np.ones(span, dtype=bool))
    cfg = WindowConfig(window_days=window, stride_days=stride, min_valid_days=window)
    classic = compute_track(days, cfg, "classic")
    ls = compute_track(days, cfg, "ls")
    assert len(classic.emitted) == len(classic.starts) > 0
    assert np.all(np.abs(classic.power - ls.power) <= 1e-12 * np.maximum(classic.power, ls.power))


def test_classic_accepts_edge_gap_and_rejects_inner_hole(day_factory, caplog):
    days = noisy_tone_days(day_factory, 20)
    hole = START + timedelta(days=10)
    calendar = ExclusionCalendar.from_ranges([(hole, hole, DayClass.HARDWARE_FAULT)])
    cfg = WindowConfig()
    track = compute_track(excluding(days, calendar), cfg, estimator="classic")
    for row in (1, 10):  # the hole is the last, then the first day
        assert track.skip[row] == ESTIMATED and track.valid_days[row] == 9
        samples = reference_samples(days, calendar, track.start_date(row), cfg.window_days)
        assert_matches_reference(track, row, classic_periodogram(samples, cfg.grid()))
    assert track.skip.tolist() == [ESTIMATED] * 2 + [UNEVEN] * 8 + [ESTIMATED]
    assert track.valid_days.tolist() == [10] + [9] * 10
    # One warning per demoted window, in window order.
    assert [r.getMessage() for r in caplog.records] == [
        f"window {START + timedelta(days=k)} skipped: {UNEVEN_SPACING}" for k in range(2, 10)
    ]


def test_too_few_samples_warns_with_the_count(day_factory, caplog):
    bins = np.full(SLOTS_PER_DAY, np.nan)
    bins[:2] = 1.0
    cfg = WindowConfig(window_days=2, min_valid_days=1)
    days = [day_factory(START, bins), day_factory(START + timedelta(days=1), np.full(SLOTS_PER_DAY, np.nan))]
    track = compute_track(days, cfg)
    assert track.skip.tolist() == [FEW_SAMPLES] and track.n_samples.tolist() == [2]
    assert np.isnan(track.power).all()
    assert [r.getMessage() for r in caplog.records] == [f"window {START} skipped: need at least 3 samples, got 2"]


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
    via_classic = compute_track(days, cfg, estimator="classic")
    assert via_classic.skip.tolist() == [UNEVEN, UNEVEN]
    assert np.isnan(via_classic.power).all()
    via_ls = compute_track(days, cfg, estimator="ls")
    assert via_ls.skip.tolist() == [ESTIMATED, ESTIMATED]


def test_unknown_estimator():
    with pytest.raises(InvalidConfig):
        compute_track([], WindowConfig(), estimator="welch")


def test_off_grid_target_period():
    with pytest.raises(InvalidConfig):
        WindowConfig(target_periods=(13.0,)).grid()


def test_no_window_to_estimate_builds_no_trig_table():
    # A 60-day window over 20 days has no position; one trig table of
    # 5,760 samples x 349 frequencies would take 16 MB.
    days = DayMatrix(START, np.ones((20, SLOTS_PER_DAY)), np.ones(20, dtype=bool))
    tracemalloc.start()
    try:
        track = compute_track(days, WindowConfig(window_days=60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(track.starts) == 0
    assert peak < 4 * 2**20


def test_an_overlay_with_no_emitted_window_formats_no_frequency(tmp_path):
    # A 100,000-day window has 580,001 grid frequencies, whose cells' text
    # would take over 100 MB to make; with no window to write, none is made.
    days = DayMatrix(START, np.ones((20, SLOTS_PER_DAY)), np.ones(20, dtype=bool))
    track = compute_track(days, WindowConfig(window_days=100_000))
    assert len(track.grid) == 580_001 and len(track.emitted) == 0
    tracemalloc.start()
    try:
        write_overlay_csv(track, tmp_path / "overlay.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "overlay.csv").read_text() == "window_start,frequency_cph,period_hours,power\n"
    assert peak < 2**20


def test_one_year_window_holds_its_days_sums_not_a_year_of_phases():
    # A 365-day window's own cos and sin tables of 35,040 samples x 2,118
    # frequencies would take 594 MB each; its days' sums take three complex
    # tables of 365 x 2,118, 12 MB each.
    rng = np.random.default_rng(3)
    days = DayMatrix(START, rng.uniform(0.0, 5.0, (365, SLOTS_PER_DAY)), np.ones(365, dtype=bool))
    tracemalloc.start()
    try:
        track = compute_track(days, WindowConfig(window_days=365))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert track.emitted.tolist() == [0]
    assert peak < 64 * 2**20


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
        track = compute_track(days, WindowConfig())
        i24 = track.grid.index_of_period(24.0)
        power = track.power[track.emitted]
        fractions.append(float(np.mean(power[:, i24] / power.sum(axis=1))))
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
    path = tmp_path / "overlay.csv"
    write_overlay_csv(compute_track(excluding(days, calendar), cfg), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window_start,frequency_cph,period_hours,power"
    assert len(lines) == 1 + 3 * len(cfg.grid())
    first = lines[1].split(",")
    assert first[0] == START.isoformat()
    assert float(first[1]) == cfg.grid().frequencies_cph[0]


def test_periodogram_csv(tmp_path, vacation_fixture):
    days, calendar = vacation_fixture
    grid = WindowConfig().grid()
    track = compute_track(excluding(days, calendar), WindowConfig())
    write_periodogram_csv(track, 2, tmp_path / "pg.csv")
    lines = (tmp_path / "pg.csv").read_text().splitlines()
    assert lines[0] == "frequency_cph,period_hours,power"
    assert len(lines) == 1 + len(grid)
    f0, p0, w0 = lines[1].split(",")
    assert float(f0) == grid.frequencies_cph[0]
    assert float(p0) == 1.0 / grid.frequencies_cph[0]
    assert float(w0) == track.power[2, 0]


def power_lines(cells: list[str], power: np.ndarray, prefix: str = "") -> str:
    """The writers' text as one f-string and repr per cell: the oracle for
    their byte matrices."""
    return "".join([prefix + cell + repr(p) + "\n" for cell, p in zip(cells, power.tolist())])


@pytest.fixture(scope="module")
def tone_days():
    """The tone-complete benchmark household: a year of a 24 h tone in UTC."""
    scenario = scenario_from_json({
        "start": "2020-01-01", "end": "2020-12-31", "timezone": "UTC", "seed": 1, "noise_sd": 0.5,
        "jitter": [0, 0], "dropout_rate": 0.0, "daily_pattern": {"period_hours": 24.0, "amplitude": 4.0},
    })
    return readings_to_days(generate(scenario), tz=ZoneInfo("UTC"))


@pytest.mark.parametrize("household, estimator, normalization", [
    ("demo", "ls", "raw"), ("tone", "classic", "raw"), ("tone", "classic", "variance"), ("tone", "ls", "variance"),
])
@pytest.mark.parametrize("block_rows", [1, 7, 32])
def test_overlay_and_periodogram_writers_equal_their_text_oracle(
    tmp_path, monkeypatch, demo_days, study_calendar, tone_days, household, estimator, normalization, block_rows
):
    days, calendar = (demo_days, study_calendar) if household == "demo" else (tone_days, None)
    track = compute_track(excluding(days, calendar), WindowConfig(), estimator, normalization)
    emitted = track.emitted
    powers = track.power[emitted]
    below_one = np.mean((powers >= 2.0**-10) & (powers < 1.0))  # formatted by the kernel's new range
    assert below_one > (0.9 if (household, normalization) == ("tone", "raw") else 0.0)
    if normalization == "variance":
        assert np.all((powers >= 0.0) & (powers <= 1.0))
    cells = [f"{f!r},{1.0 / f!r}," for f in track.grid.frequencies_cph.tolist()]
    monkeypatch.setattr(tracking, "BLOCK_ROWS", block_rows)
    write_overlay_csv(track, tmp_path / "overlay.csv")
    expected = "".join(power_lines(cells, track.power[row], track.start_date(row).isoformat() + ",") for row in emitted)
    assert (tmp_path / "overlay.csv").read_bytes() == ("window_start,frequency_cph,period_hours,power\n" + expected).encode()
    for row in (emitted[0], emitted[len(emitted) // 2], emitted[-1]):
        write_periodogram_csv(track, row, tmp_path / "pg.csv")
        expected = "frequency_cph,period_hours,power\n" + power_lines(cells, track.power[row])
        assert (tmp_path / "pg.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("household, estimator, window_days", [
    ("demo", "ls", 10), ("demo", "ls", 60), ("tone", "classic", 10), ("tone", "classic", 60),
])
def test_one_window_estimate_is_its_track_row_bit_for_bit(
    demo_days, study_calendar, tone_days, household, estimator, window_days
):
    days = excluding(demo_days, study_calendar) if household == "demo" else tone_days
    cfg = WindowConfig(window_days=window_days)
    track = compute_track(days, cfg, estimator)
    emitted = track.emitted
    assert len(emitted) > 100
    first, row = periodogram_window(days, cfg, estimator)
    assert row == emitted[0]
    assert np.isnan(first.power[emitted[1:]]).all()
    for row in emitted.tolist():
        one, at = periodogram_window(days, cfg, estimator, start=track.start_date(row))
        assert at == row
        assert np.array_equal(one.power[row], track.power[row])
        assert one.n_samples[row] == track.n_samples[row]


@pytest.mark.parametrize("estimator", ["ls", "classic"])
def test_rows_after_a_window_never_reach_its_power(estimator):
    # Later rows, whatever they hold, must leave a window's power the same bit
    # for bit, whether the whole track or that window alone is estimated.
    rng = np.random.default_rng(12)
    values = rng.uniform(0.0, 5.0, (40, SLOTS_PER_DAY))
    retained = np.ones(40, dtype=bool)
    cfg = WindowConfig()
    track = compute_track(DayMatrix(START, values, retained), cfg, estimator)
    for row in (0, 7, 15):
        assert track.skip[row] == ESTIMATED
        end = track.starts[row] + cfg.window_days
        other, kept = values.copy(), retained.copy()
        other[end:] = rng.uniform(0.0, 50.0, other[end:].shape)
        other[end:][rng.random(other[end:].shape) < 0.2] = np.nan
        kept[end::3] = False
        changed = DayMatrix(START, other, kept)
        assert np.array_equal(compute_track(changed, cfg, estimator).power[row], track.power[row])
        one, at = periodogram_window(changed, cfg, estimator, start=track.start_date(row))
        assert at == row
        assert np.array_equal(one.power[row], track.power[row])


def test_one_window_estimate_needs_an_emitted_window(vacation_fixture):
    days = excluding(*vacation_fixture)
    with pytest.raises(DataError, match="no emitted window starts at 2021-03-05"):
        periodogram_window(days, WindowConfig(), start=START + timedelta(days=4))
    with pytest.raises(DataError, match="no window has enough valid days"):
        periodogram_window(days, WindowConfig(window_days=12, min_valid_days=12))


def test_list_views_are_the_track_rows(vacation_fixture):
    days, calendar = vacation_fixture
    cfg = WindowConfig()
    track = compute_track(excluding(days, calendar), cfg)
    pairs = compute_window_periodograms(days, calendar, cfg)
    assert [w.start_date for w in make_windows(days, calendar, cfg)] == [w.start_date for w, _ in pairs]
    assert [w.start_date for w, _ in pairs] == [track.start_date(row) for row in range(11)]
    assert [pg is None for _, pg in pairs] == (track.skip != ESTIMATED).tolist()
    for row in track.emitted:
        pg = pairs[row][1]
        assert np.array_equal(pg.grid.frequencies_cph, track.grid.frequencies_cph)
        assert pg.estimator == "lomb_scargle"
        assert pg.n_samples == track.n_samples[row]
        assert np.array_equal(pg.power, track.power[row])


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


def per_row_overlay(track) -> str:
    """overlay.csv formatted row by row, frequency and period included."""
    lines = ["window_start,frequency_cph,period_hours,power"]
    for row in range(len(track.starts)):
        if track.skip[row] != ESTIMATED:
            continue
        for f, power in zip(track.grid.frequencies_cph, track.power[row]):
            lines.append(
                f"{track.start_date(row).isoformat()},{repr(float(f))},"
                f"{repr(1.0 / float(f))},{repr(float(power))}"
            )
    return "\n".join(lines) + "\n"


def test_overlay_rows_equal_the_per_row_formula_on_demo(tmp_path, demo_days, study_calendar):
    track = compute_track(excluding(demo_days, study_calendar), WindowConfig())
    assert len(track.emitted) > 100
    write_overlay_csv(track, tmp_path / "overlay.csv")
    assert (tmp_path / "overlay.csv").read_text() == per_row_overlay(track)


def test_overlay_rows_equal_the_per_row_formula_on_a_complete_tone(tmp_path, day_factory):
    track = compute_track(noisy_tone_days(day_factory, 45), WindowConfig(), "classic")
    assert len(track.emitted) == len(track.starts) == 36
    write_overlay_csv(track, tmp_path / "overlay.csv")
    assert (tmp_path / "overlay.csv").read_text() == per_row_overlay(track)
