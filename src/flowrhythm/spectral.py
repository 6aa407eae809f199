"""Periodogram estimators for binned usage series.

Two estimators share one frequency-grid convention:

``classic_periodogram``
    The Schuster form, P(f) = (1/n) * [(sum x cos 2 pi f t)^2 +
    (sum x sin 2 pi f t)^2] on mean-subtracted values. Valid only for
    complete, evenly spaced series.

``lomb_scargle``
    The floating-mean (generalised) least-squares periodogram after
    Zechmeister & Kuerster (2009, A&A 496, 577): at each frequency a
    sinusoid plus a constant offset is fit by weighted least squares, and
    the power is the chi-squared reduction relative to the constant-only
    fit. Tolerates arbitrary gaps, which is the normal state of binned
    meter data.

Raw power is reported in litres^2 * samples, scaled so that on complete,
evenly spaced data the two estimators agree exactly at every grid frequency
that is an integer multiple of the window fundamental 1/T (the default grid
uses exactly those). normalization="variance" divides raw power by
(n/2) * Var(y), which for the floating-mean estimator is the dimensionless
p in [0, 1] of the reference above.

Both are one-row calls of row-wise cores (``classic_rows``,
``lomb_scargle_rows``) that take a stack of series sharing one sampling
clock, NaN marking missing samples, and one ``trig_table`` for that clock.
The tracking layer runs the same cores on blocks of windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfig,
    PeriodNotOnGrid,
    TooFewSamples,
    UnevenSpacing,
)

__all__ = [
    "NYQUIST_CPH",
    "TARGET_PERIODS_HOURS",
    "Samples",
    "FrequencyGrid",
    "Periodogram",
    "classic_periodogram",
    "lomb_scargle",
]

# 15-minute sampling supports nothing above 2 cycles/hour.
NYQUIST_CPH = 2.0
# The two behavioural periodicities tracked by default.
TARGET_PERIODS_HOURS = (12.0, 24.0)
# The shortest and longest period on every window grid.
SHORTEST_PERIOD_HOURS = 4.0
LONGEST_PERIOD_HOURS = 120.0

NORMALIZATIONS = ("raw", "variance")


@dataclass(frozen=True)
class Samples:
    """Usage samples on a common window clock.

    times are hours since the window start (strictly increasing, gaps
    allowed); values are litres per slot.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("times and values must be finite")
        if len(times) > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("times must strictly increase")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing analysis frequencies in cycles/hour.

    Every grid contains exactly 1/24 and 1/12 cycles/hour (the tracked
    periods are read off the grid, never interpolated) and stays at or
    below the 2 cycles/hour Nyquist limit of 15-minute sampling.
    """

    frequencies_cph: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies_cph, dtype=np.float64)
        if f.ndim != 1 or len(f) == 0:
            raise ValueError("frequency grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(f)) or np.any(f <= 0):
            raise ValueError("frequencies must be finite and > 0")
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must strictly increase")
        if f[-1] > NYQUIST_CPH * (1 + 1e-12):
            raise ValueError(
                f"max frequency {f[-1]} exceeds the Nyquist limit {NYQUIST_CPH} cph"
            )
        f.setflags(write=False)
        object.__setattr__(self, "frequencies_cph", f)
        for period in TARGET_PERIODS_HOURS:
            self.index_of_period(period)

    @classmethod
    def for_window(cls, window_hours: float) -> "FrequencyGrid":
        """Fundamental-aligned grid for a window of the given length.

        Frequencies are k / window_hours covering periods
        SHORTEST_PERIOD_HOURS to LONGEST_PERIOD_HOURS, so every frequency is
        an integer multiple of the window fundamental 1/T; on complete even
        data the two estimators then agree exactly at every grid point.

        window_hours must be a multiple of 24 hours so that 1/24 and 1/12
        cycles/hour land exactly on the grid.
        """
        if window_hours <= 0:
            raise InvalidConfig("window_hours must be > 0")
        if abs(window_hours / 24.0 - round(window_hours / 24.0)) > 1e-9:
            raise InvalidConfig(
                f"window_hours = {window_hours} h is not a multiple of "
                "24 h, so 1/24 cycles/hour would miss the grid"
            )
        k_min = int(np.ceil(window_hours / LONGEST_PERIOD_HOURS - 1e-9))
        k_max = int(np.floor(window_hours / SHORTEST_PERIOD_HOURS + 1e-9))
        return cls(np.arange(k_min, k_max + 1) / window_hours)

    def index_of_period(self, period_hours: float) -> int:
        """Index whose frequency is exactly 1/period_hours, else raise.

        Intensities are read off the grid with no interpolation, so the
        period must match a grid point (to within float rounding).
        """
        if period_hours <= 0:
            raise PeriodNotOnGrid(f"period must be > 0, got {period_hours}")
        matches = np.flatnonzero(
            np.abs(self.frequencies_cph * period_hours - 1.0) <= 1e-9
        )
        if len(matches) == 0:
            raise PeriodNotOnGrid(
                f"period {period_hours} h has no exact grid frequency; grid "
                f"covers {1 / self.frequencies_cph[-1]:.6g} h to "
                f"{1 / self.frequencies_cph[0]:.6g} h"
            )
        return int(matches[0])

    def __len__(self) -> int:
        return len(self.frequencies_cph)


@dataclass(frozen=True)
class Periodogram:
    """Power at each grid frequency, tagged with how it was estimated."""

    grid: FrequencyGrid
    power: np.ndarray
    estimator: str
    normalization: str = "raw"
    n_samples: int = 0

    def __post_init__(self):
        power = np.asarray(self.power, dtype=np.float64)
        if power.shape != self.grid.frequencies_cph.shape:
            raise ValueError("power and grid must have the same length")
        if not np.all(np.isfinite(power)) or np.any(power < 0):
            raise ValueError("power must be finite and >= 0")
        power.setflags(write=False)
        object.__setattr__(self, "power", power)


def _check_normalization(normalization: str) -> None:
    if normalization not in NORMALIZATIONS:
        raise InvalidConfig(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )


def trig_table(times: np.ndarray, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi f t, each (len(grid), len(times)).

    The basis both estimators project onto. Every series sampled on the
    same clock shares it, so a tracking run builds it once for all of its
    windows.
    """
    omega_t = 2.0 * np.pi * np.outer(grid.frequencies_cph, times)
    return np.cos(omega_t), np.sin(omega_t)


def classic_rows(
    values: np.ndarray, table: tuple[np.ndarray, np.ndarray], normalization: str = "raw"
) -> np.ndarray:
    """Schuster power of each row of values, shape (rows, len(grid)).

    values is (rows, len(times)) on the clock of `table`; NaN marks a
    missing sample. The caller guarantees every row is a complete evenly
    spaced series of at least two samples: its valid samples are contiguous
    on an evenly spaced clock.
    """
    _check_normalization(normalization)
    cos_t, sin_t = table
    valid = ~np.isnan(values)
    n = valid.sum(axis=1, keepdims=True)
    mean = np.where(valid, values, 0.0).sum(axis=1, keepdims=True) / n
    x = np.where(valid, values - mean, 0.0)
    a = x @ cos_t.T
    b = x @ sin_t.T
    power = (a * a + b * b) / n
    if normalization == "variance":
        variance = (x * x).sum(axis=1, keepdims=True) / n
        with np.errstate(divide="ignore", invalid="ignore"):
            power = np.where(variance == 0.0, 0.0, power * 2.0 / (n * variance))
    return np.maximum(power, 0.0)


def lomb_scargle_rows(
    values: np.ndarray, table: tuple[np.ndarray, np.ndarray], normalization: str = "raw"
) -> np.ndarray:
    """Floating-mean least-squares power of each row, shape (rows, len(grid)).

    values is (rows, len(times)) on the clock of `table`; NaN marks a
    missing sample and each row needs at least three valid ones. Every
    valid sample of a row has equal weight. See lomb_scargle for the model.
    """
    _check_normalization(normalization)
    cos_t, sin_t = table
    valid = ~np.isnan(values)
    n = valid.sum(axis=1, keepdims=True)
    w = valid / n
    y = np.where(valid, values, 0.0)
    wy = w * y
    mean_y = wy.sum(axis=1, keepdims=True)
    yy = (w * (y * y)).sum(axis=1, keepdims=True) - mean_y * mean_y

    # Weighted moments of Zechmeister & Kuerster (2009), eqs. 5-14. The
    # squared terms are formed per call rather than kept beside the table:
    # holding them for a whole run raises peak memory more than they cost.
    c_mean = w @ cos_t.T
    s_mean = w @ sin_t.T
    yc = wy @ cos_t.T - mean_y * c_mean
    ys = wy @ sin_t.T - mean_y * s_mean
    cc = w @ (cos_t * cos_t).T - c_mean * c_mean
    ss = w @ (sin_t * sin_t).T - s_mean * s_mean
    cs = w @ (cos_t * sin_t).T - c_mean * s_mean

    det = cc * ss - cs * cs
    num = ss * yc * yc + cc * ys * ys - 2.0 * cs * yc * ys
    # det -> 0 means the sinusoid is indistinguishable from the offset at
    # this frequency (pathological sampling); report zero power there.
    with np.errstate(divide="ignore", invalid="ignore"):
        reduction = np.maximum(np.where(det > 1e-13, num / det, 0.0), 0.0)
        if normalization == "variance":
            return np.where(yy <= 0, 0.0, np.minimum(reduction / yy, 1.0))
    return reduction * (n / 2.0)


# Estimator name -> (periodogram label, row-wise core, fewest samples it takes).
ESTIMATORS = {
    "ls": ("lomb_scargle", lomb_scargle_rows, 3),
    "classic": ("classic", classic_rows, 2),
}
UNEVEN_SPACING = (
    "sample spacing varies; the classic periodogram requires a "
    "complete evenly spaced series"
)


def too_few_samples(estimator: str, n: int) -> str | None:
    """Why the estimator cannot take n samples, or None if it can."""
    minimum = ESTIMATORS[estimator][2]
    return f"need at least {minimum} samples, got {n}" if n < minimum else None


def _estimate(
    estimator: str, samples: Samples, grid: FrequencyGrid, normalization: str
) -> Periodogram:
    reason = too_few_samples(estimator, samples.n)
    if reason is not None:
        raise TooFewSamples(reason)
    label, core, _ = ESTIMATORS[estimator]
    power = core(samples.values[None, :], trig_table(samples.times, grid), normalization)
    return Periodogram(grid, power[0], label, normalization, samples.n)


def classic_periodogram(
    samples: Samples, grid: FrequencyGrid, normalization: str = "raw"
) -> Periodogram:
    """Schuster periodogram of a complete, evenly spaced series.

    Parameters
    ----------
    samples : Samples
        Evenly spaced samples; spacing must be uniform to 1e-9 relative
        (for binned days that means no Missing slots).
    grid : FrequencyGrid
        Frequencies to evaluate, cycles/hour.
    normalization : {"raw", "variance"}
        "raw" is litres^2 * samples; "variance" divides by (n/2) * Var(y).

    Returns
    -------
    Periodogram

    Raises
    ------
    TooFewSamples
        Fewer than two samples.
    UnevenSpacing
        Sample spacing is not uniform; use lomb_scargle instead.
    """
    steps = np.diff(samples.times)
    if len(steps) and np.any(np.abs(steps - steps[0]) > 1e-9 * steps[0]):
        raise UnevenSpacing(UNEVEN_SPACING)
    return _estimate("classic", samples, grid, normalization)


def lomb_scargle(
    samples: Samples, grid: FrequencyGrid, normalization: str = "raw"
) -> Periodogram:
    """Floating-mean least-squares periodogram (generalised Lomb-Scargle).

    At each grid frequency the model a*cos(w t) + b*sin(w t) + c is fit by
    least squares with equal weights; the power is the chi-squared reduction
    relative to the best constant fit, evaluated in closed form from the
    weighted moments (Zechmeister & Kuerster 2009, eqs. 5-14). Fitting the
    offset c jointly, rather than subtracting the sample mean up front,
    keeps the estimate unbiased when gaps make the sampled mean drift.

    Parameters
    ----------
    samples : Samples
        Arbitrarily gapped samples, at least three of them.
    grid : FrequencyGrid
        Frequencies to evaluate, cycles/hour.
    normalization : {"raw", "variance"}
        "raw" is (n/2) * chi-squared reduction, litres^2 * samples, chosen
        so complete even data reproduce the classic estimator exactly on
        fundamental-aligned grids. "variance" is the dimensionless p in
        [0, 1].

    Returns
    -------
    Periodogram

    Raises
    ------
    TooFewSamples
        Fewer than three samples (two parameters plus an offset).
    """
    return _estimate("ls", samples, grid, normalization)
