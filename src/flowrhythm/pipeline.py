"""End-to-end glue from raw cumulative readings to a matrix of binned days.

Cleaning drops two kinds of interval: the pair of readings across a counter
decrease is not usage, so no interval straddles a meter reset; and the
volume accumulated across an outage cannot be placed within it, so an
interval longer than DEFAULT_MAX_GAP is dropped rather than masquerade as a
burst, and the slots it covers stay Missing.

A stream is cleaned and binned in blocks of BLOCK_ROWS readings. Neighbouring
blocks share the reading at their edge, which closes the last interval of
one and opens the first of the next.
"""

from __future__ import annotations

import logging
from datetime import tzinfo
from typing import Iterator

import numpy as np

from .binning import DEFAULT_MIN_VALID_SLOTS, UTC, DayMatrix, bin_blocks
from .readings import BLOCK_ROWS, DEFAULT_MAX_GAP, Intervals, ReadingStream

log = logging.getLogger(__name__)


def _clean_blocks(stream: ReadingStream) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(start_s, end_s, litres) of the kept intervals, block by block.

    Once the last block has been taken, the counter decreases and the
    outage intervals of the whole stream are logged, one warning each.
    """
    resets, outages = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for a in range(0, len(stream) - 1, BLOCK_ROWS):
        epoch = stream.epoch_s[a : a + BLOCK_ROWS + 1]
        diffs = np.diff(stream.litres[a : a + BLOCK_ROWS + 1])
        keep = diffs >= 0
        resets.append(np.flatnonzero(~keep) + a + 1)
        long = np.diff(epoch) > DEFAULT_MAX_GAP.total_seconds()
        long &= keep
        outages.append(diffs[long])
        keep &= ~long
        yield epoch[:-1][keep], epoch[1:][keep], diffs[keep]
    resets, outages = np.concatenate(resets), np.concatenate(outages)
    if len(resets):
        log.warning(
            "cumulative counter decreases at reading index(es) %s (source %r); "
            "no interval spans a decrease",
            resets.tolist(),
            stream.source_id,
        )
    if len(outages):
        log.warning(
            "discarded %d interval(s) longer than %s covering %.3f litres; "
            "the affected slots stay missing",
            len(outages),
            DEFAULT_MAX_GAP,
            float(outages.sum()),
        )


def clean_intervals(stream: ReadingStream) -> Intervals:
    """Difference a raw stream into usage intervals within counter segments,
    dropping outage spans."""
    blocks = list(zip(*_clean_blocks(stream)))
    if not blocks:
        return Intervals(np.empty(0), np.empty(0), np.empty(0))
    return Intervals(*(np.concatenate(arrays) for arrays in blocks))


def readings_to_days(
    stream: ReadingStream,
    tz: tzinfo = UTC,
    min_valid_slots: int = DEFAULT_MIN_VALID_SLOTS,
) -> DayMatrix:
    """Full cleaning and binning chain for one household stream."""
    blocks = ((end_s, litres) for _, end_s, litres in _clean_blocks(stream))
    ends = stream.epoch_s[1:]  # the instants intervals close at
    first_s, last_s = (int(ends[0]), int(ends[-1])) if len(ends) else (0, 0)
    return bin_blocks(blocks, first_s, last_s, tz, min_valid_slots)
