"""The cleaning and binning chain: its litres ledger on messy streams, its block
edges, and the memory that reading, binning, generating and writing a long
stream take."""

import math
import tracemalloc
from collections import defaultdict
from datetime import date, datetime, timezone
from unittest.mock import patch
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day_rows, kernel_only
from flowrhythm import binning, readings
from flowrhythm.binning import DEFAULT_MAX_GAP, readings_to_days
from flowrhythm.readings import (
    ReadingStream,
    read_stream,
    segment_litres,
    write_stream_csv,
    write_stream_jsonl,
)
from flowrhythm.synth import ScenarioConfig, generate

DUBLIN = ZoneInfo("Europe/Dublin")
ZONES = ("Europe/Dublin", "America/New_York", "Australia/Lord_Howe", "Asia/Kolkata", "UTC")


@st.composite
def messy_streams(draw):
    """Streams with jitter, outage-length gaps, sub-nominal pairs and counter resets."""
    n = draw(st.integers(2, 300))
    steps = draw(st.lists(
        st.one_of(st.integers(880, 960), st.integers(1, 899), st.integers(2700, 30000)),
        min_size=n - 1, max_size=n - 1,
    ))
    start = draw(st.integers(1_200_000_000, 1_900_000_000))
    epochs = np.concatenate([[start], start + np.cumsum(steps)])
    usage = draw(st.lists(st.floats(0.0, 40.0), min_size=n - 1, max_size=n - 1))
    litres = np.concatenate([[draw(st.floats(0.0, 1e6))], usage]).cumsum()
    resets = draw(st.lists(st.integers(1, n - 1), max_size=3))
    for at in resets:  # restart the counter near zero from this reading on
        litres[at:] -= litres[at] - draw(st.floats(0.0, 5.0))
    return ReadingStream(epochs, np.maximum(litres, 0.0), "messy"), ZoneInfo(draw(st.sampled_from(ZONES)))


@settings(max_examples=100, deadline=None)
@given(messy_streams(), st.integers(0, 96))
def test_litres_balance_through_cleaning_and_binning(case, min_valid_slots):
    # binned + dropped in outage gaps + dropped in sparse days = litres read
    stream, tz = case
    t, v = stream.epoch_s.tolist(), stream.litres.tolist()
    pairs = [(t[i + 1] - t[i], v[i + 1] - v[i], t[i + 1]) for i in range(len(t) - 1) if v[i + 1] >= v[i]]
    max_gap = DEFAULT_MAX_GAP.total_seconds()
    in_gaps = math.fsum(used for dt, used, _ in pairs if dt > max_gap)
    days = day_rows(readings_to_days(stream, tz, min_valid_slots=min_valid_slots))
    closing: dict = defaultdict(set)  # local day -> slots some kept interval closes in
    in_sparse_days = []
    retained = {day for day, _ in days}
    for _, used, end in (pair for pair in pairs if pair[0] <= max_gap):
        local = datetime.fromtimestamp(end, timezone.utc).astimezone(tz)
        closing[local.date()].add((local.hour * 3600 + local.minute * 60 + local.second) // 900)
        if local.date() not in retained:
            in_sparse_days.append(used)
    binned = math.fsum(float(np.nansum(bins)) for _, bins in days)
    total = binned + in_gaps + math.fsum(in_sparse_days)
    assert math.isclose(total, segment_litres(stream), rel_tol=1e-9, abs_tol=1e-9)
    # A slot holds a number exactly where an interval closed; Missing never becomes 0.
    for day, bins in days:
        assert set(np.flatnonzero(~np.isnan(bins)).tolist()) == closing[day]
        assert len(closing[day]) >= min_valid_slots


def dublin_clock_changes_stream() -> ReadingStream:
    """Four days around Dublin's 2021 spring-forward day, then four around
    its fall-back hour, with a counter reset at reading 14 and an outage
    closing at reading 28; 14 and 28 are block edges for 1, 2 and 7 rows.
    Bursts of readings a minute apart put up to 14 intervals in one slot,
    so a slot's sum runs across block edges."""
    rng = np.random.default_rng(8)
    spring, autumn = (int(datetime(2021, m, d, tzinfo=timezone.utc).timestamp()) for m, d in ((3, 26), (10, 29)))
    steps = 900 + rng.integers(0, 30, 4 * 96)
    steps[100:114] = steps[200:214] = 60
    epochs = np.concatenate([spring + np.cumsum(steps), autumn + np.cumsum(steps)])
    epochs[28:] += 7200
    litres = np.cumsum(rng.uniform(0.0, 5.0, len(epochs)))
    litres[14:] -= litres[14] - 0.5
    return ReadingStream(epochs, litres, "clock-changes")


@pytest.mark.parametrize("block_rows", [1, 2, 7])
def test_block_edges_leave_days_and_warnings_unchanged(caplog, block_rows):
    stream = dublin_clock_changes_stream()

    def run():
        caplog.clear()
        days = readings_to_days(stream, DUBLIN)
        return days, [(r.name, r.levelname, r.getMessage()) for r in caplog.records]

    whole, whole_log = run()
    with patch.object(binning, "BLOCK_ROWS", block_rows):
        blocks, blocks_log = run()
    assert [message.split()[0] for _, _, message in whole_log] == ["cumulative", "discarded", "dropped"]
    assert "[14]" in whole_log[0][2] and date(2021, 3, 28).isoformat() in whole_log[2][2]
    assert blocks_log == whole_log
    assert blocks.first == whole.first
    assert blocks.values.tobytes() == whole.values.tobytes()
    assert blocks.retained.tolist() == whole.retained.tolist()
    # The fall-back day is kept; its repeated hour adds into four slots.
    assert whole.retained[(date(2021, 10, 31) - whole.first).days]


def test_readings_to_days_drops_long_gaps(caplog):
    # The hour-long interval closing at 01:15 UTC is an outage: its 6 litres
    # are dropped, and the slots it spans, 00:15 to 01:15, stay Missing.
    s = ReadingStream(np.array([0, 900, 900 + 3600, 900 + 4500]), np.array([0.0, 1.0, 7.0, 8.0]), "t")
    days = readings_to_days(s, ZoneInfo("UTC"), min_valid_slots=0)
    assert days.first == date(1970, 1, 1) and days.retained.tolist() == [True]
    assert np.flatnonzero(~np.isnan(days.values[0])).tolist() == [1, 6]
    assert days.values[0, [1, 6]].tolist() == [1.0, 1.0]
    ((name, message),) = [(r.name, r.getMessage()) for r in caplog.records]
    assert name == "flowrhythm.binning"
    assert message.startswith("discarded 1 interval(s) longer than 0:45:00 covering 6.000 litres")


def long_stream(n: int = 70_000) -> ReadingStream:
    """Two years of jittered readings with an outage and a counter reset."""
    rng = np.random.default_rng(3)
    epochs = 1_600_000_000 + np.cumsum(rng.integers(900, 960, n))
    epochs[n // 2 :] += 7200  # an outage
    litres = np.cumsum(rng.uniform(0.0, 5.0, n))
    litres[n // 3 :] -= litres[n // 3] - 1.0  # a counter reset
    return ReadingStream(epochs, litres)


def test_reading_and_binning_a_long_stream_stay_in_a_bounded_working_set(tmp_path):
    # numpy reports its buffers to tracemalloc, so the traced peak counts
    # every array. Parsing keeps the stream's 16 bytes per reading and never
    # the whole file; cleaning plus binning keep 9 bytes per slot of the day
    # matrix, about one slot per reading. The scratch space of each block
    # loop fits in the 1 MiB.
    n = 70_000
    path = tmp_path / "readings.csv"
    write_stream_csv(long_stream(n), path)
    tracemalloc.start()
    try:
        stream = read_stream(path)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        days = readings_to_days(stream, ZoneInfo("Europe/Dublin"))
        bin_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(stream) == n and days.retained.sum() > 700
    assert read_peak <= 32 * n + 2**20
    assert bin_peak <= 32 * n + 2**20


@pytest.mark.parametrize("stream", ["long", "demo"])
def test_the_writers_csv_is_read_by_the_value_kernel(tmp_path, stream, demo_stream):
    # Every block of what write_stream_csv writes is plain rows, which the
    # reader's own value kernel takes; a block it declined would be read
    # value by value without any output changing.
    stream = long_stream() if stream == "long" else demo_stream
    write_stream_csv(stream, tmp_path / "readings.csv")
    with kernel_only():
        back = read_stream(tmp_path / "readings.csv")
    assert back.epoch_s.tobytes() == stream.epoch_s.tobytes()
    assert back.litres.tobytes() == stream.litres.tobytes()


@pytest.mark.parametrize("write", [write_stream_csv, write_stream_jsonl])
def test_writing_a_long_stream_holds_one_block(tmp_path, write):
    # A writer holds one block's byte matrix (51 or 77 bytes a row), its
    # mask, the bytes written and the scratch arrays of the stamps and of
    # floattext.format_reprs: about 190 and 230 bytes per row of a block,
    # 0.78 and 0.94 MB at the default block size. Nothing is held per
    # reading: 16 bytes per reading would add 1.1 MB.
    stream = long_stream()
    tracemalloc.start()
    try:
        write(stream, tmp_path / "readings")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20 + 64 * readings.BLOCK_ROWS


def test_generating_a_multi_year_stream_stays_in_a_bounded_working_set():
    # Generation holds the stream's 16 bytes per reading, allocated for the
    # shortest steps throughout, and one block of draws and scratch arrays;
    # it makes no array of the whole run besides.
    cfg = ScenarioConfig(date(2016, 1, 1), date(2018, 12, 31), "America/New_York", seed=6,
                         noise_sd=0.8, dropout_rate=0.01, vacations=((date(2017, 7, 1), date(2017, 7, 20)),))
    tracemalloc.start()
    try:
        stream = generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stream) > 100_000
    assert peak <= 48 * len(stream) + 2**20


def test_row_parser_keeps_typed_buffers_not_a_tuple_per_reading(tmp_path):
    # Sub-second stamps make the fast path decline the file, so the row
    # parser reads it. It holds the file, its decoded text (the same size for
    # ASCII) and the text's lines, about 100 bytes each, while it collects
    # 24 bytes per reading; a tuple of Python objects per reading would cost
    # about 150 bytes more.
    n = 20_000
    rng = np.random.default_rng(5)
    epochs = 1_600_000_000 + np.cumsum(rng.integers(900, 960, n))
    path = tmp_path / "readings.csv"
    write_stream_csv(ReadingStream(epochs, np.cumsum(rng.uniform(0.0, 5.0, n))), path)
    path.write_text(path.read_text().replace("+00:00,", ".0+00:00,"))
    size = path.stat().st_size
    with open(path, "rb") as fh:
        assert readings._fast(fh, "csv") is None
    tracemalloc.start()
    try:
        stream = read_stream(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.epoch_s.tolist() == epochs.tolist()
    assert peak <= 2 * size + 160 * n + 2**20
