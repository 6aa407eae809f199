"""Sliding-window periodicity tracking.

Slides a fixed-length window over the rows of the binned days' DayMatrix,
computes one periodogram per window, and reads off the intensity at the
target periods (24 h and 12 h by default).
Windows advance in calendar time, so excluded or missing days thin a window
out (as NaN rows) rather than stretching it; windows with too few valid days
become explicit skip markers, never silent zeros.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from .binning import SLOT_MINUTES, SLOTS_PER_DAY, BinnedDay, DayMatrix
from .errors import EmptyInput, InvalidConfig, PeriodNotOnGrid
from .exclusions import ExclusionCalendar
from .spectral import (
    ESTIMATORS,
    TARGET_PERIODS_HOURS,
    UNEVEN_SPACING,
    FrequencyGrid,
    Periodogram,
    too_few_samples,
    trig_table,
)

log = logging.getLogger(__name__)

DEFAULT_WINDOW_DAYS = 10
DEFAULT_STRIDE_DAYS = 1
DEFAULT_MIN_VALID_DAYS = 8
# Windows estimated per stacked block: large enough to amortise one matrix
# product over many windows, small enough to keep the block's memory flat.
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


@dataclass(frozen=True)
class AnalysisWindow:
    """One window position and its valid-day count; skip markers carry the reason."""

    start_date: date
    window_days: int
    valid_day_count: int
    skipped: bool = False
    reason: str | None = None

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=self.window_days - 1)


def _valid_days(
    days: DayMatrix | Sequence[BinnedDay], calendar: ExclusionCalendar | None
) -> tuple[DayMatrix, np.ndarray]:
    """The binned days as a DayMatrix, and which of its rows are valid.

    A day is valid when it was retained by binning and the calendar (if any)
    classifies it normal.
    """
    days = DayMatrix.from_days(days)
    if not len(days.retained):
        raise EmptyInput("no binned days to window")
    if calendar is None:
        return days, days.retained
    return days, days.retained & calendar.normal_mask(days.first, len(days.retained))


def _windows(first: date, valid: np.ndarray, cfg: WindowConfig) -> list[AnalysisWindow]:
    counts = np.concatenate([[0], np.cumsum(valid)])
    out = []
    for row in range(0, len(valid) - cfg.window_days + 1, cfg.stride_days):
        n = int(counts[row + cfg.window_days] - counts[row])
        window = AnalysisWindow(first + timedelta(days=row), cfg.window_days, n)
        if n < cfg.min_valid_days:
            window = replace(window, skipped=True, reason=f"{n} valid day(s) < {cfg.min_valid_days}")
        out.append(window)
    return out


def make_windows(
    days: DayMatrix | Sequence[BinnedDay],
    calendar: ExclusionCalendar | None,
    cfg: WindowConfig,
) -> list[AnalysisWindow]:
    """Slide the window over calendar time and count valid days per position.

    A day is valid when it was retained by binning and the calendar (if any)
    classifies it normal. Window starts run from the first retained day to the
    last position still fully inside the span of retained days, advancing by the
    stride; positions with fewer than min_valid_days valid days become skip
    markers that keep their count.
    """
    days, valid = _valid_days(days, calendar)
    return _windows(days.first, valid, cfg)


def _rejection(present: np.ndarray, estimator: str) -> str | None:
    """Why the estimator cannot take a window's samples, or None if it can."""
    n = int(np.count_nonzero(present))
    reason = too_few_samples(estimator, n)
    if reason is None and estimator == "classic":
        slots = np.flatnonzero(present)
        if slots[-1] - slots[0] + 1 != n:
            return UNEVEN_SPACING
    return reason


def compute_window_periodograms(
    days: DayMatrix | Sequence[BinnedDay],
    calendar: ExclusionCalendar | None,
    cfg: WindowConfig,
    estimator: str = "ls",
    normalization: str = "raw",
) -> list[tuple[AnalysisWindow, Periodogram | None]]:
    """One periodogram per window position; None where the window is skipped.

    Every window is a row slice of the DayMatrix on the same clock: slot
    midpoints 24 j + 0.25 (k + 0.5) hours after window-start midnight for
    day j, slot k, with missing slots and invalid days as NaN. So one trig
    table serves the whole run, and the estimator runs on blocks of
    BLOCK_ROWS stacked windows. A window whose samples defeat the estimator (too few samples,
    or for the classic estimator a hole inside the window) is demoted to a
    skip marker carrying the estimator's complaint, so downstream output
    never holds a silent hole.
    """
    if estimator not in ESTIMATORS:
        raise InvalidConfig(f"estimator must be one of {tuple(ESTIMATORS)}, got {estimator!r}")
    label, core, _ = ESTIMATORS[estimator]
    grid = cfg.grid()
    days, valid = _valid_days(days, calendar)
    # Days the calendar excludes are blanked in a copy; without a calendar
    # the windows slice the matrix itself.
    values = days.values if calendar is None else np.where(valid[:, None], days.values, np.nan)
    flat = values.reshape(-1)
    width = cfg.window_days * SLOTS_PER_DAY
    pairs: list[tuple[AnalysisWindow, Periodogram | None]] = []
    todo: list[tuple[int, int]] = []  # (index into pairs, offset into flat)
    for window in _windows(days.first, valid, cfg):
        if not window.skipped:
            offset = (window.start_date - days.first).days * SLOTS_PER_DAY
            reason = _rejection(~np.isnan(flat[offset : offset + width]), estimator)
            if reason is None:
                todo.append((len(pairs), offset))
            else:
                log.warning("window %s skipped: %s", window.start_date, reason)
                window = replace(window, skipped=True, reason=reason)
        pairs.append((window, None))

    table = trig_table((np.arange(width) + 0.5) * (SLOT_MINUTES / 60.0), grid)
    for b in range(0, len(todo), BLOCK_ROWS):
        block = todo[b : b + BLOCK_ROWS]
        values = np.stack([flat[o : o + width] for _, o in block])
        counts = np.count_nonzero(~np.isnan(values), axis=1)
        for (i, _), power, n in zip(block, core(values, table, normalization), counts):
            window = pairs[i][0]
            pg = Periodogram(
                grid, power, label, normalization, int(n),
                window_start=window.start_date.isoformat(),
                window_hours=cfg.window_hours,
            )
            pairs[i] = (window, pg)
    return pairs


def write_intensity_csv(
    pairs: Sequence[tuple[AnalysisWindow, Periodogram | None]],
    periods: Sequence[float],
    path: str | Path,
) -> None:
    """Write the power at each target period off every window as a long-format CSV.

    `pairs` come from compute_window_periodograms, whose WindowConfig
    target_periods are `periods`. Rows run window-major, then in period
    order; a skipped window (periodogram None) keeps its row per period,
    with the power empty and its valid-day count.
    """
    lines = ["window_start,period_hours,power,valid_days,skipped"]
    for window, pg in pairs:
        tail = f",{window.valid_day_count},{str(pg is None).lower()}"
        for period in periods:
            power = "" if pg is None else repr(float(pg.power[pg.grid.index_of_period(period)]))
            lines.append(f"{window.start_date.isoformat()},{period!r},{power}{tail}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_overlay_csv(
    pairs: Sequence[tuple[AnalysisWindow, Periodogram | None]], path: str | Path
) -> None:
    """Write every window's full periodogram as one long-format CSV, a
    window at a time, so the file's text is never held whole."""
    grid = cells = None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("window_start,frequency_cph,period_hours,power\n")
        for window, pg in pairs:
            if pg is None:
                continue
            if pg.grid is not grid:  # every window of a run shares one grid
                grid = pg.grid
                cells = [f",{f!r},{1.0 / f!r}," for f in grid.frequencies_cph.tolist()]
            start = window.start_date.isoformat()
            rows = zip(cells, pg.power.tolist())
            fh.write("".join([start + cell + repr(power) + "\n" for cell, power in rows]))
