"""Sliding-window periodicity tracking.

Slides a fixed-length window over the rows of the binned days' DayMatrix,
computes one periodogram per window, and reads off the intensity at the
target periods (24 h and 12 h by default). A run's windows are held as one
Track: a row of arrays per window position and one power matrix.
Windows advance in calendar time and read only retained rows, so dropped or
excluded days (see DayMatrix.excluding) thin a window out as NaN rows rather
than stretch it; windows with too few valid days become explicit skip rows,
with NaN power and never silent zeros.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import (
    DEFAULT_MIN_VALID_DAYS,
    DEFAULT_STRIDE_DAYS,
    DEFAULT_WINDOW_DAYS,
    ESTIMATOR_NAMES,
    NORMALIZATIONS,
    TARGET_PERIODS_HOURS,
    floattext,
)
from .binning import SLOT_MINUTES, SLOTS_PER_DAY, BinnedDay, DayMatrix
from .errors import DataError, EmptyInput, InvalidConfig, PeriodNotOnGrid
from .exclusions import ExclusionCalendar
from .spectral import (
    ESTIMATORS,
    UNEVEN_SPACING,
    FrequencyGrid,
    Moments,
    Periodogram,
    moments,
    phases,
    too_few_samples,
)

log = logging.getLogger(__name__)

Days = DayMatrix | Sequence[BinnedDay]

# Windows written per byte matrix of the overlay: large enough to amortise
# the matrix's numpy calls over many windows, small enough to keep its
# memory flat.
BLOCK_ROWS = 32


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window geometry and the periods to track."""

    window_days: int = DEFAULT_WINDOW_DAYS
    stride_days: int = DEFAULT_STRIDE_DAYS
    min_valid_days: int = DEFAULT_MIN_VALID_DAYS
    target_periods: tuple[float, ...] = TARGET_PERIODS_HOURS

    def __post_init__(self) -> None:
        if not (isinstance(self.window_days, int) and self.window_days >= 2):
            raise InvalidConfig(f"window_days must be an integer >= 2, got {self.window_days}")
        if not (isinstance(self.stride_days, int) and 1 <= self.stride_days <= self.window_days):
            raise InvalidConfig(
                f"stride_days must be a positive integer <= window_days, got {self.stride_days}"
            )
        if not (isinstance(self.min_valid_days, int) and 1 <= self.min_valid_days <= self.window_days):
            raise InvalidConfig(
                f"min_valid_days must be in [1, window_days], got {self.min_valid_days}"
            )
        periods = tuple(float(p) for p in self.target_periods)
        if not periods:
            raise InvalidConfig("target_periods must not be empty")
        if not all(math.isfinite(p) and p > 0 for p in periods):
            raise InvalidConfig(f"target_periods must be positive, got {periods}")
        if len(set(periods)) != len(periods):
            raise InvalidConfig(f"target_periods must not repeat, got {periods}")
        object.__setattr__(self, "target_periods", periods)

    @property
    def window_hours(self) -> float:
        return 24.0 * self.window_days

    def grid(self) -> FrequencyGrid:
        """The analysis grid shared by every window of this geometry."""
        grid = FrequencyGrid.for_window(self.window_hours)
        for period in self.target_periods:
            try:
                grid.index_of_period(period)
            except PeriodNotOnGrid as exc:
                raise InvalidConfig(
                    f"target period {period} h is not on the {self.window_days}-day "
                    f"window grid: {exc}"
                ) from exc
        return grid


# Skip-reason codes of a track row: estimated, or skipped for too few valid
# days, too few samples for the estimator, or (classic only) a hole inside.
ESTIMATED, FEW_VALID_DAYS, FEW_SAMPLES, UNEVEN = range(4)


@dataclass(frozen=True)
class Track:
    """One run's windows as arrays, one row per window position in start order.

    Row i is the window from DayMatrix row `starts[i]`, the date `first +
    starts[i]`, with `valid_days` valid days and `n_samples` present samples.
    `skip` holds ESTIMATED or the code it was skipped for, and `power` is
    (windows x len(grid)), NaN on every skip row and never zero.
    """

    first: date
    starts: np.ndarray
    valid_days: np.ndarray
    n_samples: np.ndarray
    skip: np.ndarray
    power: np.ndarray
    grid: FrequencyGrid
    estimator: str  # the periodogram label, e.g. "lomb_scargle"
    normalization: str
    cfg: WindowConfig

    def start_date(self, row: int) -> date:
        return self.first + timedelta(days=int(self.starts[row]))

    @property
    def emitted(self) -> np.ndarray:
        """Rows of the estimated windows, in start order."""
        return np.flatnonzero(self.skip == ESTIMATED)


def _starts(days: DayMatrix, cfg: WindowConfig) -> np.ndarray:
    """The first row of every window position that fits in the matrix."""
    if not len(days.retained):
        raise EmptyInput("no binned days to window")
    return np.arange(0, len(days.retained) - cfg.window_days + 1, cfg.stride_days)


def _hole_inside(present: np.ndarray, starts: np.ndarray, window_days: int) -> np.ndarray:
    """Whether each window's present slots form more than one run, so that
    the classic estimator cannot take them as evenly spaced."""
    seen, offsets, width = present.reshape(-1), starts * SLOTS_PER_DAY, window_days * SLOTS_PER_DAY
    rises = np.concatenate([[0], np.cumsum(seen[1:] & ~seen[:-1])])
    return seen[offsets] + rises[offsets + width - 1] - rises[offsets] > 1


def _window_moments(day: Moments, starts: np.ndarray, window_days: int, k: np.ndarray) -> Moments:
    """The Moments of the windows whose first day rows are `starts`: day j's
    sums turned by e^(2 pi i k j / W) at the grid frequency k / (24 W) cph,
    twice that at 2 w, with k j reduced mod W in integers first."""
    roots = np.exp(2j * np.pi * np.arange(window_days) / window_days)
    sums = Moments(*(np.zeros((len(starts), a.shape[1]), a.dtype) for a in day))
    for j in range(window_days):
        turn = roots[k * j % window_days]
        for total, a, by in zip(sums, day, (1, 1, 1, turn, turn, roots[2 * k * j % window_days])):
            total += a[starts + j] * by
    return sums


def _unestimated(days: Days, cfg: WindowConfig, estimator: str, normalization: str) -> tuple[Track, Callable]:
    """compute_track's Track with every skip code set and warned of, its power
    all NaN, and a function that estimates the windows at given rows into it:
    their power is the same alone as beside every other window."""
    if estimator not in ESTIMATORS:
        raise InvalidConfig(f"estimator must be one of {tuple(ESTIMATORS)}, got {estimator!r}")
    label, closed_form, minimum = ESTIMATORS[estimator]
    grid = cfg.grid()
    days = DayMatrix.from_days(days)
    starts = _starts(days, cfg)
    values = np.where(days.retained[:, None], days.values, np.nan)
    present = ~np.isnan(values)
    # Valid days and present samples of every window, off one running sum over day rows.
    sums = np.cumsum(np.column_stack([days.retained, present.sum(axis=1)]), axis=0)
    sums = np.concatenate([[[0, 0]], sums])
    valid_days, n_samples = (sums[starts + cfg.window_days] - sums[starts]).T

    skip = np.full(len(starts), ESTIMATED, dtype=np.int8)
    skip[valid_days < cfg.min_valid_days] = FEW_VALID_DAYS
    skip[(skip == ESTIMATED) & (n_samples < minimum)] = FEW_SAMPLES
    if estimator == "classic":
        skip[(skip == ESTIMATED) & _hole_inside(present, starts, cfg.window_days)] = UNEVEN
    for row in np.flatnonzero(skip > FEW_VALID_DAYS):
        reason = UNEVEN_SPACING if skip[row] == UNEVEN else too_few_samples(estimator, n_samples[row])
        log.warning("window %s skipped: %s", days.first + timedelta(days=int(starts[row])), reason)
    power = np.full((len(starts), len(grid)), np.nan)

    def estimate(rows: np.ndarray) -> None:
        if len(rows):  # day Moments of the whole matrix; every later step is per window
            slot_hours = (np.arange(SLOTS_PER_DAY) + 0.5) * (SLOT_MINUTES / 60.0)
            day = moments(values, *(phases(slot_hours, h * grid.frequencies_cph) for h in (1, 2)))
            k = np.rint(grid.frequencies_cph * cfg.window_hours).astype(np.int64)
            power[rows] = closed_form(_window_moments(day, starts[rows], cfg.window_days, k), normalization)

    return Track(days.first, starts, valid_days, n_samples, skip, power, grid, label, normalization, cfg), estimate


def compute_track(
    days: Days, cfg: WindowConfig,
    estimator: str = ESTIMATOR_NAMES[0], normalization: str = NORMALIZATIONS[0],
) -> Track:
    """Slide the window over calendar time and estimate every window that can be.

    Window starts run by the stride from the first row of the matrix to the
    last position inside it. A window's valid days are its retained rows
    (see DayMatrix.excluding); one with fewer than min_valid_days is skipped,
    and so, with a logged warning, is one whose samples defeat the
    estimator: too few, or a hole inside one for the classic estimator.

    Every window is a row slice of the DayMatrix, sampled at the slot
    midpoints 24 j + 0.25 (k + 0.5) hours after window-start midnight for
    day j, slot k, with missing slots and rows not retained as NaN. Each
    grid frequency is a whole number of cycles per window, so a window's
    Moments are its days' Moments, each turned by its day's phase; those
    are built once, from the 96 slot times, when some window is estimated.
    """
    track, estimate = _unestimated(days, cfg, estimator, normalization)
    estimate(track.emitted)
    return track


def periodogram_window(
    days: Days, cfg: WindowConfig, estimator: str = ESTIMATOR_NAMES[0],
    normalization: str = NORMALIZATIONS[0], start: date | None = None,
) -> tuple[Track, int]:
    """compute_track's Track with one window estimated, bit for bit as there,
    and its row: the first emitted window, or the emitted one from `start`."""
    track, estimate = _unestimated(days, cfg, estimator, normalization)
    rows = track.emitted
    if start is not None:
        rows = rows[track.starts[rows] == (start - track.first).days]
    if not len(rows):
        raise DataError(f"no emitted window starts at {start}" if start is not None
                        else "no window has enough valid days for the estimator")
    estimate(rows[:1])
    return track, int(rows[0])


class Window(NamedTuple):
    """A window position, as the list views below give it."""

    start_date: date


def make_windows(days: Days, calendar: ExclusionCalendar | None, cfg: WindowConfig) -> list[Window]:
    """The window of every compute_track row, skipped or not, without
    estimating; a calendar thins windows out but moves none."""
    days = DayMatrix.from_days(days)
    return [Window(days.first + timedelta(days=s)) for s in _starts(days, cfg).tolist()]


def compute_window_periodograms(
    days: Days, calendar: ExclusionCalendar | None, cfg: WindowConfig,
    estimator: str = ESTIMATOR_NAMES[0], normalization: str = NORMALIZATIONS[0],
) -> list[tuple[Window, Periodogram | None]]:
    """compute_track's rows as (window, periodogram) pairs, None for a skip row."""
    t = compute_track(DayMatrix.from_days(days).excluding(calendar), cfg, estimator, normalization)
    return [
        (Window(t.start_date(i)), None if t.skip[i] != ESTIMATED else Periodogram(
            t.grid, t.power[i], t.estimator, t.normalization, int(t.n_samples[i])))
        for i in range(len(t.starts))
    ]


def write_intensity_csv(track: Track, path: str | Path) -> None:
    """Write the power at each target period off every window as a long-format CSV.

    Rows run window-major, then in the order of the track's target periods;
    a skipped window keeps its row per period, with the power empty and its
    valid-day count.
    """
    periods = track.cfg.target_periods
    picked = track.power[:, [track.grid.index_of_period(p) for p in periods]].tolist()
    skipped = (track.skip != ESTIMATED).tolist()
    lines = ["window_start,period_hours,power,valid_days,skipped"]
    for row, n in enumerate(track.valid_days.tolist()):
        start = track.start_date(row).isoformat()
        tail = f",{n},{str(skipped[row]).lower()}"
        for period, power in zip(periods, picked[row]):
            lines.append(f"{start},{period!r},{'' if skipped[row] else repr(power)}{tail}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_powers(fh, track: Track, rows: np.ndarray, dated: bool) -> None:
    """Write the `frequency_cph,period_hours,power` lines of the windows at
    `rows`, in grid order, each after its window's start and a comma if
    `dated`.

    overlay.csv and periodogram.csv both write through here, so a window's
    periodogram.csv rows are its overlay rows without the start. Each block
    of BLOCK_ROWS windows is laid out as one byte matrix, a row per line:
    the start, the frequency cells (their text made once), the power's
    NUL-padded repr and a newline, written with the padding masked out.
    """
    if not len(rows):
        return
    cells = [f"{f!r},{1.0 / f!r},".encode() for f in track.grid.frequencies_cph.tolist()]
    start = 11 if dated else 0  # "YYYY-MM-DD,"
    power = start + max(map(len, cells))
    lines = np.zeros((min(BLOCK_ROWS, len(rows)), len(cells), power + floattext.FIELD_BYTES + 1), dtype=np.uint8)
    for g, cell in enumerate(cells):
        lines[:, g, start : start + len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    lines[:, :, -1] = ord("\n")
    if dated:
        lines[:, :, 10] = ord(",")
    first = np.datetime64(track.first, "D")
    for b in range(0, len(rows), BLOCK_ROWS):
        block = rows[b : b + BLOCK_ROWS]
        out = lines[: len(block)]
        if dated:
            dates = np.datetime_as_string(first + track.starts[block]).astype("S10")
            out[:, :, :10] = dates.view(np.uint8).reshape(-1, 1, 10)
        out = out.reshape(-1, out.shape[-1])
        floattext.put_reprs(out[:, power : power + floattext.FIELD_BYTES], track.power[block].reshape(-1))
        fh.write(out[out != 0])


def write_overlay_csv(track: Track, path: str | Path) -> None:
    """Write every estimated window's full periodogram as one long-format CSV,
    a block of windows at a time, so the file's text is never held whole."""
    with open(path, "wb") as fh:
        fh.write(b"window_start,frequency_cph,period_hours,power\n")
        _write_powers(fh, track, track.emitted, dated=True)


def write_periodogram_csv(track: Track, row: int, path: str | Path) -> None:
    """One `frequency_cph,period_hours,power` row per grid frequency of a window."""
    with open(path, "wb") as fh:
        fh.write(b"frequency_cph,period_hours,power\n")
        _write_powers(fh, track, np.array([row]), dated=False)
