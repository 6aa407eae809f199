"""Shared fixtures: the demo household is generated once per session."""

import contextlib
from datetime import date, timedelta
from importlib import resources
from unittest.mock import patch
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from flowrhythm import readings
from flowrhythm.binning import SLOTS_PER_DAY, BinnedDay, DayMatrix, readings_to_days
from flowrhythm.exclusions import parse_calendar
from flowrhythm.synth import demo_scenario, generate


def day_rows(days: DayMatrix) -> list[tuple[date, np.ndarray]]:
    """The retained days of a matrix as (date, row of 96 slots) pairs, in date order."""
    return [
        (days.first + timedelta(days=int(i)), days.values[i])
        for i in np.flatnonzero(days.retained)
    ]


@contextlib.contextmanager
def kernel_only():
    """A patch under which reading a stream fails unless floattext reads
    every block's values: a block read value by value, or a file left to
    the row parser, raises."""

    def fail(*args):
        raise AssertionError("a block's values were not read by the value kernel")

    with patch.object(readings, "_row_values", fail), patch.dict(readings._PARSERS, dict.fromkeys(readings._PARSERS, fail)):
        yield


@pytest.fixture(scope="session")
def demo_config():
    return demo_scenario()


@pytest.fixture(scope="session")
def demo_stream(demo_config):
    return generate(demo_config)


@pytest.fixture(scope="session")
def demo_days(demo_config, demo_stream):
    return readings_to_days(demo_stream, tz=ZoneInfo(demo_config.timezone))


@pytest.fixture(scope="session")
def study_calendar():
    text = resources.files("flowrhythm.data").joinpath("study_calendar.txt").read_text()
    return parse_calendar(text)


@pytest.fixture
def day_factory():
    """Build a BinnedDay from a date and either a scalar fill or 96 values."""

    def make(d: date, fill=1.0) -> BinnedDay:
        if np.isscalar(fill):
            bins = np.full(SLOTS_PER_DAY, float(fill))
        else:
            bins = np.asarray(fill, dtype=np.float64)
        return BinnedDay(d, bins)

    return make


@pytest.fixture
def day_run_factory(day_factory):
    """Build n consecutive BinnedDays starting at a date."""

    def make(start: date, n: int, fill=1.0):
        return [day_factory(start + timedelta(days=k), fill) for k in range(n)]

    return make
