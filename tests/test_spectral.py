import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrhythm.errors import (
    InvalidConfig,
    PeriodNotOnGrid,
    TooFewSamples,
    UnevenSpacing,
)
from flowrhythm.spectral import (
    FrequencyGrid,
    Samples,
    classic_periodogram,
    lomb_scargle,
)

GRID10 = FrequencyGrid.for_window(240.0)
T10 = np.arange(960) * 0.25 + 0.125


def classic_oracle(times, values, freqs):
    """Independent O(n*m) Schuster periodogram: plain Python sums."""
    n = len(values)
    mean = math.fsum(values) / n
    x = [v - mean for v in values]
    powers = []
    for f in freqs:
        a = math.fsum(xi * math.cos(2 * math.pi * f * t) for xi, t in zip(x, times))
        b = math.fsum(xi * math.sin(2 * math.pi * f * t) for xi, t in zip(x, times))
        powers.append((a * a + b * b) / n)
    return np.asarray(powers)


def lstsq_oracle(times, values, freqs):
    """Independent floating-mean fit: explicit least squares per frequency.

    Raw power is (n/2) times the drop in weighted mean squared residual
    from the best constant fit to the best sinusoid-plus-offset fit.
    """
    t = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    base = float(np.mean((y - y.mean()) ** 2))
    powers = []
    for f in freqs:
        w = 2 * np.pi * f * t
        design = np.column_stack([np.cos(w), np.sin(w), np.ones(n)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        powers.append((n / 2.0) * (base - float(np.mean(resid**2))))
    return np.asarray(powers)


def rel_close(a, b, tol):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)
    return np.all(np.abs(a - b) / scale <= tol)


def test_grid_shape_for_ten_day_window():
    # 240 h window, periods 4..120 h, Nyquist 2 cph: k = 2..60.
    freqs = GRID10.frequencies_cph
    assert len(freqs) == 59
    assert freqs[0] == pytest.approx(2 / 240)
    assert freqs[-1] == pytest.approx(60 / 240)
    assert GRID10.index_of_period(24.0) == 8
    assert GRID10.index_of_period(12.0) == 18


def test_grid_rejects_span_not_multiple_of_twelve():
    with pytest.raises(InvalidConfig):
        FrequencyGrid.for_window(250.0)


@pytest.mark.parametrize("hours", [12.0, 36.0, 60.0])
def test_grid_rejects_span_that_is_not_whole_days(hours):
    # 1/12 cycles/hour would land on these grids, but 1/24 would not.
    with pytest.raises(InvalidConfig, match="multiple of 24 h"):
        FrequencyGrid.for_window(hours)


def test_index_of_period_off_grid():
    with pytest.raises(PeriodNotOnGrid):
        GRID10.index_of_period(13.0)


def test_classic_matches_oracle():
    rng = np.random.default_rng(21)
    values = rng.normal(2.0, 1.0, 960)
    pg = classic_periodogram(Samples(T10, values), GRID10)
    expected = classic_oracle(T10, values, GRID10.frequencies_cph)
    assert rel_close(pg.power, expected, 1e-9)


def test_lomb_scargle_matches_lstsq_oracle_on_gapped_data():
    rng = np.random.default_rng(22)
    keep = np.sort(rng.choice(960, size=600, replace=False))
    times = T10[keep]
    values = 3.0 + np.cos(2 * np.pi * times / 24.0) + rng.normal(0, 0.5, 600)
    pg = lomb_scargle(Samples(times, values), GRID10)
    expected = lstsq_oracle(times, values, GRID10.frequencies_cph)
    assert rel_close(pg.power, np.maximum(expected, 0.0), 1e-8)


def test_pure_cosine_peak_value_frozen():
    # Unit-amplitude 24 h cosine, 960 complete samples: raw peak power is
    # exactly n * A^2 / 4 = 240 at the 1/24 cph grid point.
    values = np.cos(2 * np.pi * T10 / 24.0)
    for estimate in (classic_periodogram, lomb_scargle):
        pg = estimate(Samples(T10, values), GRID10)
        assert pg.power[GRID10.index_of_period(24.0)] == pytest.approx(240.0, rel=1e-9)
        assert int(np.argmax(pg.power)) == GRID10.index_of_period(24.0)


def test_estimators_agree_on_complete_even_data():
    rng = np.random.default_rng(1)
    for _ in range(100):
        values = rng.normal(5.0, 2.0, 960)
        classic = classic_periodogram(Samples(T10, values), GRID10)
        ls = lomb_scargle(Samples(T10, values), GRID10)
        assert rel_close(classic.power, ls.power, 1e-6)


def test_variance_normalization_bounds_and_peak():
    values = np.cos(2 * np.pi * T10 / 24.0)
    pg = lomb_scargle(Samples(T10, values), GRID10, normalization="variance")
    assert np.all(pg.power >= 0.0) and np.all(pg.power <= 1.0)
    assert pg.power[GRID10.index_of_period(24.0)] == pytest.approx(1.0, rel=1e-9)
    cl = classic_periodogram(Samples(T10, values), GRID10, normalization="variance")
    assert cl.power[GRID10.index_of_period(24.0)] == pytest.approx(1.0, rel=1e-9)


def test_argmax_survives_thirty_percent_dropout():
    rng = np.random.default_rng(77)
    values = np.cos(2 * np.pi * T10 / 24.0)
    keep = np.sort(rng.choice(960, size=672, replace=False))
    pg = lomb_scargle(Samples(T10[keep], values[keep]), GRID10)
    assert int(np.argmax(pg.power)) == GRID10.index_of_period(24.0)


def test_two_tone_separation():
    values = 2.0 * np.cos(2 * np.pi * T10 / 24.0) + 1.0 * np.cos(2 * np.pi * T10 / 12.0)
    pg = classic_periodogram(Samples(T10, values), GRID10)
    i24 = GRID10.index_of_period(24.0)
    i12 = GRID10.index_of_period(12.0)
    rest = np.delete(pg.power, [i24, i12])
    assert pg.power[i24] == pytest.approx(4.0 * pg.power[i12], rel=1e-9)
    assert pg.power[i12] >= 10.0 * max(float(np.max(rest)), 1e-12)


def test_circular_shift_invariance():
    rng = np.random.default_rng(9)
    values = rng.normal(0, 1, 960)
    base = classic_periodogram(Samples(T10, values), GRID10).power
    shifted = classic_periodogram(Samples(T10, np.roll(values, 240)), GRID10).power
    assert rel_close(base, shifted, 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 10), st.integers(1, 60), st.sampled_from(["raw", "variance"]), st.integers(0, 2**32 - 1),
)
def test_powers_stay_when_the_clock_moves_by_whole_days(window_days, days, normalization, seed):
    # Tracking puts every window's sums on the clock of its first day row, not
    # of its own start, so no power may move when every time moves by 24 d h.
    grid = FrequencyGrid.for_window(24.0 * window_days)
    rng = np.random.default_rng(seed)
    times = (np.arange(96 * window_days) + 0.5) * 0.25
    values = 3.0 + np.cos(2 * np.pi * times / 24.0) + rng.normal(0, 1.0, len(times))
    gapped = np.sort(rng.choice(len(times), size=len(times) * 3 // 4, replace=False))
    for estimate, kept in ((lomb_scargle, gapped), (classic_periodogram, slice(None))):
        base = estimate(Samples(times[kept], values[kept]), grid, normalization).power
        moved = estimate(Samples(times[kept] + 24.0 * days, values[kept]), grid, normalization).power
        assert np.max(np.abs(moved - base)) <= 1e-12 * np.max(base)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_amplitude_scaling_is_quadratic(c):
    rng = np.random.default_rng(13)
    values = rng.normal(1.0, 1.0, 480)
    times = T10[:480]
    base = lomb_scargle(Samples(times, values), GRID10).power
    scaled = lomb_scargle(Samples(times, c * values), GRID10).power
    assert rel_close(scaled, c * c * base, 1e-7)


def test_classic_rejects_uneven_spacing():
    times = np.concatenate([T10[:500], T10[502:]])
    values = np.ones(958)
    with pytest.raises(UnevenSpacing):
        classic_periodogram(Samples(times, values), GRID10)


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        classic_periodogram(Samples([0.0], [1.0]), GRID10)
    with pytest.raises(TooFewSamples):
        lomb_scargle(Samples([0.0, 0.25], [1.0, 2.0]), GRID10)


def test_constant_signal_zero_power():
    values = np.full(960, 3.25)
    cl = classic_periodogram(Samples(T10, values), GRID10)
    ls = lomb_scargle(Samples(T10, values), GRID10)
    assert np.all(cl.power == 0.0)
    assert np.allclose(ls.power, 0.0, atol=1e-20)
    vn = classic_periodogram(Samples(T10, values), GRID10, normalization="variance")
    assert np.all(vn.power == 0.0)


def test_lomb_scargle_matches_scipy_floating_mean():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(11)
    keep = np.sort(rng.permutation(960)[:672])  # 30 % of the window missing
    times = T10[keep]
    values = 3.0 + 2.0 * np.cos(2 * np.pi * times / 24.0) + rng.normal(0, 1.0, len(times))
    ours = lomb_scargle(Samples(times, values), GRID10, normalization="variance").power
    oracle = signal.lombscargle(
        times, values, 2 * np.pi * GRID10.frequencies_cph,
        floating_mean=True, normalize="normalize",
    )
    assert np.max(np.abs(ours - oracle)) <= 1e-12


def test_samples_validation():
    with pytest.raises(ValueError):
        Samples([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])  # not strictly increasing
    with pytest.raises(ValueError):
        Samples([0.0, 1.0], [1.0, np.nan])
