"""End-to-end glue from raw cumulative readings to a matrix of binned days.

Cleaning drops two kinds of interval: the pair of readings across a counter
decrease is not usage, so no interval straddles a meter reset; and the
volume accumulated across an outage cannot be placed within it, so an
interval longer than DEFAULT_MAX_GAP is dropped rather than masquerade as a
burst, and the slots it covers stay Missing.
"""

from __future__ import annotations

import logging
from datetime import tzinfo

import numpy as np

from .binning import DEFAULT_MIN_VALID_SLOTS, UTC, DayMatrix, bin_intervals
from .readings import DEFAULT_MAX_GAP, Intervals, ReadingStream

log = logging.getLogger(__name__)


def clean_intervals(stream: ReadingStream) -> Intervals:
    """Difference a raw stream into usage intervals within counter segments,
    dropping outage spans.

    Without a drop the intervals are views of the stream plus the
    differences; otherwise each array is copied once, through one keep mask.
    """
    diffs = np.diff(stream.litres)
    keep = diffs >= 0
    if not keep.all():
        log.warning(
            "cumulative counter decreases at reading index(es) %s (source %r); "
            "no interval spans a decrease",
            (np.flatnonzero(~keep) + 1).tolist(),
            stream.source_id,
        )
    long = np.diff(stream.epoch_s) > DEFAULT_MAX_GAP.total_seconds()
    long &= keep
    if long.any():
        log.warning(
            "discarded %d interval(s) longer than %s covering %.3f litres; "
            "the affected slots stay missing",
            int(np.count_nonzero(long)),
            DEFAULT_MAX_GAP,
            float(diffs[long].sum()),
        )
        keep &= ~long
    start, end = stream.epoch_s[:-1], stream.epoch_s[1:]
    if keep.all():
        return Intervals(start, end, diffs)
    return Intervals(start[keep], end[keep], diffs[keep])


def readings_to_days(
    stream: ReadingStream,
    tz: tzinfo = UTC,
    min_valid_slots: int = DEFAULT_MIN_VALID_SLOTS,
) -> DayMatrix:
    """Full cleaning and binning chain for one household stream."""
    return bin_intervals(clean_intervals(stream), tz, min_valid_slots)
