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

Both are closed forms (``classic_power``, ``lomb_scargle_power``) of a
series' six ``Moments``: n, sum y, sum y^2, and sum e^(i w t), sum y e^(i w t)
and sum e^(2 i w t) at each grid frequency. The estimators here project their
samples directly; the tracking layer builds them per day and sums a window's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ESTIMATOR_NAMES, NORMALIZATIONS, TARGET_PERIODS_HOURS
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
# The shortest and longest period on every window grid.
SHORTEST_PERIOD_HOURS = 4.0
LONGEST_PERIOD_HOURS = 120.0


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
    normalization: str = NORMALIZATIONS[0]
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


def phases(times: np.ndarray, frequencies_cph: np.ndarray) -> np.ndarray:
    """e^(2 pi i f t), shape (len(times), len(frequencies_cph))."""
    return np.exp(2j * np.pi * np.outer(times, frequencies_cph))


class Moments(NamedTuple):
    """The six sums both estimators are closed forms of, one row per series:
    n, sum y and sum y^2, each (rows, 1), and sum e^(i w t), sum y e^(i w t)
    and sum e^(2 i w t), the source of cos^2, sin^2 and cos sin, (rows, len(grid))."""

    n: np.ndarray
    y: np.ndarray
    yy: np.ndarray
    z: np.ndarray
    yz: np.ndarray
    z2: np.ndarray


def moments(values: np.ndarray, phases_at_f: np.ndarray, phases_at_2f: np.ndarray) -> Moments:
    """The Moments of each row of values, (rows, samples) with NaN for a missing
    sample, from the `phases` of the sample times at the grid frequencies and twice them."""
    present = ~np.isnan(values)
    y = np.where(present, values, 0.0)
    sums = [a.sum(axis=1, keepdims=True) for a in (present, y, y * y)]
    return Moments(*sums, present @ phases_at_f, y @ phases_at_f, present @ phases_at_2f)


def classic_power(m: Moments, normalization: str = NORMALIZATIONS[0]) -> np.ndarray:
    """Schuster power (1/n) |sum (y - mean) e^(i w t)|^2 of each row, (rows, len(grid)).
    Every row must be a complete evenly spaced series of at least two samples."""
    _check_normalization(normalization)
    mean = m.y / m.n
    x = m.yz - mean * m.z
    power = (x.real * x.real + x.imag * x.imag) / m.n
    if normalization == "variance":
        variance = m.yy / m.n - mean * mean
        with np.errstate(divide="ignore", invalid="ignore"):
            power = np.where(variance <= 0.0, 0.0, power * 2.0 / (m.n * variance))
    return np.maximum(power, 0.0)


def lomb_scargle_power(m: Moments, normalization: str = NORMALIZATIONS[0]) -> np.ndarray:
    """Floating-mean least-squares power of each row, (rows, len(grid)). Every row
    needs at least three samples, each weighted 1/n; see lomb_scargle for the model."""
    _check_normalization(normalization)
    # Weighted moments of Zechmeister & Kuerster (2009), eqs. 5-14: x holds
    # YC + i YS, and cos^2, sin^2 and cos sin are (1 +- cos 2wt) / 2, sin 2wt / 2.
    mean = m.y / m.n
    x = (m.yz - mean * m.z) / m.n
    c, s, z2 = m.z.real / m.n, m.z.imag / m.n, m.z2 / m.n
    cc = 0.5 * (1.0 + z2.real) - c * c
    ss = 0.5 * (1.0 - z2.real) - s * s
    cs = 0.5 * z2.imag - c * s
    det = cc * ss - cs * cs
    num = ss * x.real * x.real + cc * x.imag * x.imag - 2.0 * cs * x.real * x.imag
    # det -> 0 means the sinusoid is indistinguishable from the offset at
    # this frequency (pathological sampling); report zero power there.
    with np.errstate(divide="ignore", invalid="ignore"):
        reduction = np.maximum(np.where(det > 1e-13, num / det, 0.0), 0.0)
        if normalization == "variance":
            yy = m.yy / m.n - mean * mean
            return np.where(yy <= 0, 0.0, np.minimum(reduction / yy, 1.0))
    return reduction * (m.n / 2.0)


# Estimator name -> (periodogram label, closed form, fewest samples it takes),
# in the order of ESTIMATOR_NAMES.
ESTIMATORS = dict(zip(ESTIMATOR_NAMES, (
    ("lomb_scargle", lomb_scargle_power, 3),
    ("classic", classic_power, 2),
)))
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
    label, power, _ = ESTIMATORS[estimator]
    # Centred, so that a constant series has exactly zero power.
    x = samples.values - samples.values.mean()
    m = moments(x[None, :], *(phases(samples.times, h * grid.frequencies_cph) for h in (1, 2)))
    return Periodogram(grid, power(m, normalization)[0], label, normalization, samples.n)


def classic_periodogram(
    samples: Samples, grid: FrequencyGrid, normalization: str = NORMALIZATIONS[0]
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
    samples: Samples, grid: FrequencyGrid, normalization: str = NORMALIZATIONS[0]
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
