"""The cleaning and binning chain: its litres ledger on messy streams, and its memory."""

import math
import tracemalloc
from collections import defaultdict
from datetime import datetime, timezone
from zoneinfo import ZoneInfo

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day_rows
from flowrhythm.pipeline import clean_intervals, readings_to_days
from flowrhythm.readings import (
    DEFAULT_MAX_GAP,
    ReadingStream,
    read_stream,
    segment_litres,
    write_stream_csv,
)

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
    in_gaps = math.fsum(used for dt, used, _ in pairs if dt > DEFAULT_MAX_GAP.total_seconds())
    days = day_rows(readings_to_days(stream, tz, min_valid_slots=min_valid_slots))
    cleaned = clean_intervals(stream)
    closing: dict = defaultdict(set)  # local day -> slots some interval closes in
    in_sparse_days = []
    kept = {day for day, _ in days}
    for end, used in zip(cleaned.end_s.tolist(), cleaned.litres.tolist()):
        local = datetime.fromtimestamp(end, timezone.utc).astimezone(tz)
        closing[local.date()].add((local.hour * 3600 + local.minute * 60 + local.second) // 900)
        if local.date() not in kept:
            in_sparse_days.append(used)
    binned = math.fsum(float(np.nansum(bins)) for _, bins in days)
    total = binned + in_gaps + math.fsum(in_sparse_days)
    assert math.isclose(total, segment_litres(stream), rel_tol=1e-9, abs_tol=1e-9)
    # A slot holds a number exactly where an interval closed; Missing never becomes 0.
    for day, bins in days:
        assert set(np.flatnonzero(~np.isnan(bins)).tolist()) == closing[day]
        assert len(closing[day]) >= min_valid_slots


def test_clean_intervals_drops_long_gaps():
    s = ReadingStream(np.array([0, 900, 900 + 3600, 900 + 4500]), np.array([0.0, 1.0, 7.0, 8.0]), "t")
    kept = clean_intervals(s)
    assert kept.litres.tolist() == [1.0, 1.0]
    assert kept.end_s.tolist() == [900, 900 + 4500]


def test_reading_and_binning_a_long_stream_stay_in_a_bounded_working_set(tmp_path):
    # numpy reports its buffers to tracemalloc, so the traced peak counts
    # every array. Past the file's own bytes, parsing keeps about 16 bytes
    # per reading and cleaning plus binning a few arrays of 8 bytes per
    # interval; the scratch space of each block loop fits in the 1 MiB.
    n = 70_000
    rng = np.random.default_rng(3)
    epochs = 1_600_000_000 + np.cumsum(rng.integers(900, 960, n))
    epochs[n // 2 :] += 7200  # an outage
    litres = np.cumsum(rng.uniform(0.0, 5.0, n))
    litres[n // 3 :] -= litres[n // 3] - 1.0  # a counter reset
    path = tmp_path / "readings.csv"
    write_stream_csv(ReadingStream(epochs, litres), path)
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
    assert read_peak <= path.stat().st_size + 64 * n + 2**20
    assert bin_peak <= 88 * n + 2**20
