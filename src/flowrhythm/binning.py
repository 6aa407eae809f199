"""From a reading stream to binned days, and day-of-week usage profiles.

readings_to_days is the one path from a stream to days. It differences
neighbouring readings into intervals and drops two kinds: the pair of
readings across a counter decrease is not usage, so no interval straddles a
meter reset; and the volume accumulated across an outage cannot be placed
within it, so an interval longer than DEFAULT_MAX_GAP is dropped rather
than masquerade as a burst, and the slots it covers stay Missing. Each
kind of drop is logged in one warning per stream.

A day is a grid of 96 quarter-hour slots in local civil time; slot k covers
[15k, 15(k+1)) minutes after local midnight, so slot 28 is always 07:00
wall-clock regardless of DST. An interval's litres land in the slot (and
day) containing the reading that closes the interval. Slots no interval
closed in are Missing, represented as NaN and never as zero: with the
nominal 15-minute cadence plus transmission delay, roughly one slot per
hour-of-drift gets skipped, and a skipped slot means "not observed", not
"no water used".

On the clock-change days themselves civil time does odd things: the four
slots inside a spring-forward hour can never be observed (they stay
Missing), and during a fall-back hour two intervals can close in the same
wall-clock slot, in which case their litres add.

A stream is cleaned and binned block by block: a ReadingStream in blocks
of BLOCK_ROWS readings, or a file's blocks as readings.read_blocks reads
them. The reading at a block's edge is carried on, to open the first
interval of the next. Nothing is read ahead of a block, and no block is
binned twice: the days grow as later ones arrive.

Binned days are laid out once, as a DayMatrix: row i of its (span x 96)
`values` holds the local day `first + i`, and `retained[i]` says whether
the day counts: binning kept it, and `excluding` left it. The span runs
from the first day binning kept to the last, so window starts and profiles
never see a dropped edge day. Rows of days dropped as sparse, or never
observed, are all NaN and not retained. Profiles and sliding windows read
only the retained rows of this one matrix.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, tzinfo
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from . import DEFAULT_MIN_VALID_SLOTS
from .errors import DataError, InvalidConfig, NoMatchingDays
from .readings import BLOCK_ROWS, ReadingStream

__all__ = [
    "SLOTS_PER_DAY",
    "SLOT_MINUTES",
    "DEFAULT_MIN_VALID_SLOTS",
    "DEFAULT_MAX_GAP",
    "GROUPS",
    "BinnedDay",
    "DayMatrix",
    "DayProfile",
    "bin_blocks",
    "check_min_valid_slots",
    "local_clock",
    "profile",
    "readings_to_days",
    "write_profile_csv",
    "zone_named",
]

log = logging.getLogger(__name__)

SLOTS_PER_DAY = 96
SLOT_MINUTES = 15
# Gaps longer than three nominal periods are treated as outages: the volume
# accumulated across the gap is discarded rather than attributed to one bin.
DEFAULT_MAX_GAP = timedelta(minutes=45)

UTC = ZoneInfo("UTC")
# Local days are counted from this date, as epoch seconds count from its midnight.
_EPOCH = date(1970, 1, 1)

# Day-of-week groups for profiles; datetime convention, Monday == 0.
GROUPS: Mapping[str, tuple[int, ...]] = {
    "weekday": (0, 1, 2, 3, 4),
    "saturday": (5,),
    "sunday": (6,),
}


@dataclass(frozen=True)
class BinnedDay:
    """One local calendar day of binned usage; NaN marks Missing slots."""

    day: date
    bins: np.ndarray

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.float64)
        if bins.shape != (SLOTS_PER_DAY,):
            raise ValueError(f"bins must have shape ({SLOTS_PER_DAY},)")
        with np.errstate(invalid="ignore"):
            if np.any(bins < 0):
                raise ValueError("binned litres must be >= 0")
        bins.setflags(write=False)
        object.__setattr__(self, "bins", bins)


@dataclass(frozen=True)
class DayMatrix:
    """Binned days as one (span x 96) matrix; see the module docstring."""

    first: date
    values: np.ndarray
    retained: np.ndarray

    @classmethod
    def from_days(cls, days: "DayMatrix | Sequence[BinnedDay]") -> "DayMatrix":
        """Lay a list of binned days out as a matrix; a DayMatrix passes unchanged.

        Every listed day is retained; the span runs from the earliest listed
        day to the latest, in any input order.
        """
        if isinstance(days, DayMatrix):
            return days
        if not days:
            return cls(_EPOCH, np.empty((0, SLOTS_PER_DAY)), np.zeros(0, dtype=bool))
        first = min(d.day for d in days)
        span = (max(d.day for d in days) - first).days + 1
        values = np.full((span, SLOTS_PER_DAY), np.nan)
        retained = np.zeros(span, dtype=bool)
        for d in days:
            row = (d.day - first).days
            if retained[row]:
                raise DataError(f"duplicate binned day {d.day}")
            retained[row] = True
            values[row] = d.bins
        return cls(first, values, retained)

    def excluding(self, calendar) -> "DayMatrix":
        """This matrix with the days an ExclusionCalendar excludes cleared
        from `retained`, sharing its `values`; itself for None."""
        if calendar is None:
            return self
        return replace(self, retained=self.retained & calendar.normal_mask(self.first, len(self.retained)))


def zone_named(name) -> ZoneInfo:
    """The IANA time zone called ``name``; InvalidConfig if there is none."""
    if not isinstance(name, str):
        raise InvalidConfig(f"timezone must be a zone name, got {name!r}")
    try:
        return ZoneInfo(name)
    except (ZoneInfoNotFoundError, ValueError) as exc:
        raise InvalidConfig(f"unknown timezone {name!r}") from exc


def check_min_valid_slots(min_valid_slots: int) -> None:
    """InvalidConfig unless min_valid_slots lies in [0, 96]."""
    if not 0 <= min_valid_slots <= SLOTS_PER_DAY:
        raise InvalidConfig(f"min_valid_slots must be in [0, {SLOTS_PER_DAY}], got {min_valid_slots}")


def local_clock(tz: tzinfo) -> Callable[[np.ndarray], np.ndarray]:
    """A function from UTC epoch seconds to local wall-clock seconds since
    1970-01-01 00:00 in tz, for streams converted block by block.

    The UTC offset is looked up once per distinct UTC day edge: at the start
    of each day holding an instant and at the start of the next day. Only a
    day whose two edges differ holds a transition; its instants are resolved
    the same way per UTC hour, and only an hour whose two edges differ is
    resolved instant by instant. Lookups are memoised across calls, so each
    is made once however many blocks share its instant. So the result equals
    `datetime.fromtimestamp(t, tz)` read as a wall clock, provided an offset
    changes at most once per UTC day.
    """

    @functools.cache
    def offset_at(t: int) -> int:
        return int(datetime.fromtimestamp(t, tz).utcoffset().total_seconds())

    def local(epoch_s: np.ndarray) -> np.ndarray:
        return epoch_s + _offsets(epoch_s, offset_at, (86400, 3600))

    return local


def _offsets(t: np.ndarray, offset_at, units: tuple[int, ...]) -> np.ndarray:
    """UTC offsets in seconds at the instants t.

    Each cell of units[0] seconds that holds an instant is looked up at its
    two edges. The instants of a cell whose edges differ are resolved with
    the remaining units, or one by one when none remain.
    """
    if not units:
        return _lookup(t, offset_at)
    unit = units[0]
    cells, which = np.unique(t // unit, return_inverse=True)
    at_start = _lookup(cells * unit, offset_at)
    # A cell's end is the next cell's start when that cell follows it.
    at_end = np.empty_like(at_start)
    at_end[:-1] = at_start[1:]
    apart = np.ones(len(cells), dtype=bool)
    apart[:-1] = cells[1:] != cells[:-1] + 1
    at_end[apart] = _lookup((cells[apart] + 1) * unit, offset_at)
    offset = at_start[which]
    changes = (at_start != at_end)[which]
    if changes.any():
        offset[changes] = _offsets(t[changes], offset_at, units[1:])
    return offset


def _lookup(t: np.ndarray, offset_at) -> np.ndarray:
    """UTC offsets in seconds at the instants t."""
    return np.array([offset_at(s) for s in t.tolist()], dtype=np.int64)


def _clean_blocks(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], source_id: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(end_s, litres) of the kept intervals of a stream's (epoch_s, litres)
    blocks, a block each.

    The reading at a block's edge is carried on, to open the first interval
    of the next. Once the last block has been taken, the counter decreases
    and the outage intervals of the whole stream are logged, one warning
    each.
    """
    resets, outages = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    edge = None  # the (instant, total) of the last reading taken
    a = 0  # the index in the stream of the block's first reading, the carried one if any
    for epoch, litres in blocks:
        if edge is not None:
            epoch, litres = np.concatenate(([edge[0]], epoch)), np.concatenate(([edge[1]], litres))
        diffs = np.diff(litres)
        keep = diffs >= 0
        resets.append(np.flatnonzero(~keep) + a + 1)
        long = np.diff(epoch) > DEFAULT_MAX_GAP.total_seconds()
        long &= keep
        outages.append(diffs[long])
        keep &= ~long
        yield epoch[1:][keep], diffs[keep]
        a += len(epoch) - 1
        edge = epoch[-1], litres[-1]
    resets, outages = np.concatenate(resets), np.concatenate(outages)
    if len(resets):
        log.warning(
            "cumulative counter decreases at reading index(es) %s (source %r); "
            "no interval spans a decrease",
            resets.tolist(),
            source_id,
        )
    if len(outages):
        log.warning(
            "discarded %d interval(s) longer than %s covering %.3f litres; "
            "the affected slots stay missing",
            len(outages),
            DEFAULT_MAX_GAP,
            float(outages.sum()),
        )


def readings_to_days(
    stream: ReadingStream,
    tz: tzinfo = UTC,
    min_valid_slots: int = DEFAULT_MIN_VALID_SLOTS,
) -> DayMatrix:
    """Clean one household stream and bin what is left into days (see the module docstring)."""
    blocks = _clean_blocks(stream.blocks(BLOCK_ROWS), stream.source_id)
    return bin_blocks(blocks, tz, min_valid_slots)


def bin_blocks(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    tz: tzinfo = UTC,
    min_valid_slots: int = DEFAULT_MIN_VALID_SLOTS,
) -> DayMatrix:
    """Bin blocks of (closing instant, litres) arrays into the local day and
    slot of each instant; the instants must be in time order, within and
    across blocks.

    Litres closing in the same slot add up in block and interval order;
    slots no interval closes in are Missing (NaN). Days with fewer than
    min_valid_slots observed slots (outages, stream edges) are dropped with
    a warning; they would distort profiles and windows more than their few
    observations are worth. Dropped days and days no interval closes on are
    all-NaN rows that are not retained; with no retained day the matrix has
    no rows.

    The sums go into one array of every slot from the local day before the
    first instant's, the earliest a later instant's local day can be while
    a UTC offset changes by less than a day. It grows in whole days, by at
    least half again, as later days arrive, and is trimmed to the last day
    used once the blocks end; the result is a slice of it. min_valid_slots
    must lie in [0, 96]; 0 keeps every observed day.
    """
    check_min_valid_slots(min_valid_slots)
    to_local = local_clock(tz)
    # The local day the arrays start at, and the days from it to the last
    # one an instant falls on, none before the first instant.
    first = used = 0
    sums, seen = np.zeros(0), np.zeros(0, dtype=bool)
    for end_s, litres in blocks:
        if not len(end_s):
            continue
        slot = to_local(end_s)
        if not used:
            first = int(slot[0]) // 86400 - 1
        slot -= first * 86400
        slot //= SLOT_MINUTES * 60
        used = max(used, int(slot.max()) // SLOTS_PER_DAY + 1)
        if used * SLOTS_PER_DAY > len(sums):
            # In place: no view of either array is held.
            size = max(used, len(sums) // SLOTS_PER_DAY * 3 // 2) * SLOTS_PER_DAY
            sums.resize(size, refcheck=False)
            seen.resize(size, refcheck=False)
        # add.at adds in index order, one value at a time, as a per-slot
        # running sum across the blocks does.
        np.add.at(sums, slot, litres)
        seen[slot] = True
    if not used:
        return DayMatrix.from_days([])
    sums.resize(used * SLOTS_PER_DAY, refcheck=False)
    seen.resize(used * SLOTS_PER_DAY, refcheck=False)
    sums, seen = sums.reshape(-1, SLOTS_PER_DAY), seen.reshape(-1, SLOTS_PER_DAY)
    sums[~seen] = np.nan
    observed = np.count_nonzero(seen, axis=1)
    keep = observed >= max(min_valid_slots, 1)
    dropped = np.flatnonzero((observed > 0) & ~keep)
    if len(dropped):
        log.warning(
            "dropped %d day(s) with fewer than %d observed slots: %s",
            len(dropped),
            min_valid_slots,
            ", ".join((_EPOCH + timedelta(days=int(first + d))).isoformat() for d in dropped),
        )
    rows = np.flatnonzero(keep)
    if not len(rows):
        return DayMatrix.from_days([])
    values, retained = sums[rows[0] : rows[-1] + 1], keep[rows[0] : rows[-1] + 1]
    values[~retained] = np.nan
    return DayMatrix(_EPOCH + timedelta(days=int(first + rows[0])), values, retained)


@dataclass(frozen=True)
class DayProfile:
    """Per-slot mean and spread across the days of one group."""

    mean: np.ndarray
    std: np.ndarray
    bin_counts: np.ndarray
    n_days: int

    def __post_init__(self):
        for name in ("mean", "std"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (SLOTS_PER_DAY,):
                raise ValueError(f"{name} must have shape ({SLOTS_PER_DAY},)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        counts = np.asarray(self.bin_counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_counts", counts)


def _resolve_group(group) -> tuple[str, tuple[int, ...]]:
    if isinstance(group, str):
        key = group.lower()
        if key not in GROUPS:
            raise ValueError(f"unknown group {group!r}; expected one of {sorted(GROUPS)}")
        return key, GROUPS[key]
    if isinstance(group, int):
        return f"weekday-{group}", (group,)
    weekdays = tuple(int(w) for w in group)
    return "+".join(str(w) for w in weekdays), weekdays


def profile(
    days: DayMatrix | Sequence[BinnedDay], group, std_kind: str = "population"
) -> DayProfile:
    """Per-slot mean and std over the non-Missing values of matching days.

    The matching days are the retained rows whose weekday is in `group`:
    "weekday" / "saturday" / "sunday", a single weekday int, or an iterable
    of weekday ints (Monday == 0). Slots Missing on every matching day stay
    Missing (NaN) in the profile; they are never coerced to zero. std_kind
    "population" divides by n, "sample" by n-1 (0.0 when n == 1).
    """
    if std_kind not in ("population", "sample"):
        raise ValueError(f"std_kind must be 'population' or 'sample', got {std_kind!r}")
    label, weekdays = _resolve_group(group)
    matrix = DayMatrix.from_days(days)
    weekday = (matrix.first.weekday() + np.arange(len(matrix.retained))) % 7
    # Rows in date order make the result exactly permutation-invariant.
    stacked = matrix.values[matrix.retained & np.isin(weekday, weekdays)]
    if not len(stacked):
        raise NoMatchingDays(f"no days match group {label!r}")
    valid = ~np.isnan(stacked)
    counts = valid.sum(axis=0)
    mean = np.full(SLOTS_PER_DAY, np.nan)
    std = np.full(SLOTS_PER_DAY, np.nan)
    for k in range(SLOTS_PER_DAY):
        if counts[k] == 0:
            continue
        values = stacked[valid[:, k], k]
        m = np.add.reduce(values) / counts[k]
        mean[k] = m
        squares = np.add.reduce((values - m) ** 2)
        if std_kind == "population":
            std[k] = np.sqrt(squares / counts[k])
        else:
            std[k] = 0.0 if counts[k] == 1 else np.sqrt(squares / (counts[k] - 1))
    return DayProfile(mean, std, counts, len(stacked))


def _slot_clock(k: int) -> str:
    minutes = k * SLOT_MINUTES
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def write_profile_csv(p: DayProfile, path: str | Path) -> None:
    """CSV with one row per slot; Missing slots leave mean/std cells empty."""
    lines = ["bin_index,local_time,mean_litres,std_litres,n_days"]
    for k in range(SLOTS_PER_DAY):
        if p.bin_counts[k] == 0:
            mean_s = std_s = ""
        else:
            mean_s = repr(float(p.mean[k]))
            std_s = repr(float(p.std[k]))
        lines.append(f"{k},{_slot_clock(k)},{mean_s},{std_s},{int(p.bin_counts[k])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
