"""End-to-end glue from raw cumulative readings to a matrix of binned days.

Cleaning order matters: the pair of readings across a counter decrease is
not usage, so no interval straddles a meter reset; outage-length intervals
are then dropped so their accumulated volume cannot masquerade as a burst.
"""

from __future__ import annotations

import logging
from datetime import tzinfo

import numpy as np

from .binning import DEFAULT_MIN_VALID_SLOTS, UTC, DayMatrix, bin_intervals
from .readings import Intervals, ReadingStream, drop_long_gaps

log = logging.getLogger(__name__)


def clean_intervals(stream: ReadingStream) -> Intervals:
    """Difference a raw stream into usage intervals within counter segments,
    dropping outage spans."""
    diffs = np.diff(stream.litres)
    within = diffs >= 0
    if not within.all():
        drops = np.flatnonzero(~within) + 1
        log.warning(
            "cumulative counter decreases at reading index(es) %s (source %r); "
            "no interval spans a decrease",
            drops.tolist(),
            stream.source_id,
        )
    intervals = Intervals(stream.epoch_s[:-1][within], stream.epoch_s[1:][within], diffs[within])
    return drop_long_gaps(intervals)


def readings_to_days(
    stream: ReadingStream,
    tz: tzinfo = UTC,
    min_valid_slots: int = DEFAULT_MIN_VALID_SLOTS,
) -> DayMatrix:
    """Full cleaning and binning chain for one household stream."""
    return bin_intervals(clean_intervals(stream), tz, min_valid_slots)
