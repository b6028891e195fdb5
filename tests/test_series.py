from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sensorcast.series import (
    TimeSeries,
    extract_splits,
    gap_fill,
    quantize_to_resolution,
)


def test_regular_builds_grid_timestamps():
    s = TimeSeries.regular([3.0, 1.0, 2.0], period=30.0, t0=100.0, unit="C")
    np.testing.assert_array_equal(s.timestamps, [100.0, 130.0, 160.0])
    np.testing.assert_array_equal(s.values, [3.0, 1.0, 2.0])
    assert s.unit == "C"
    assert len(s) == 3


def test_series_rejects_bad_input():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))  # not increasing
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, np.inf]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0]), np.array([1.0]), resolution=0.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        TimeSeries(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))


def test_series_arrays_are_readonly(short_series):
    with pytest.raises(ValueError):
        short_series.values[0] = 99.0
    with pytest.raises(ValueError):
        short_series.timestamps[0] = 99.0


def test_series_does_not_alias_caller_array():
    src = np.array([1.0, 2.0, 3.0])
    s = TimeSeries(np.array([0.0, 1.0, 2.0]), src)
    src[0] = 42.0
    assert s.values[0] == 1.0


def test_slice(short_series):
    mid = short_series.slice(1, 4)
    np.testing.assert_array_equal(mid.values, [2.0, 4.0, 8.0])
    np.testing.assert_array_equal(mid.timestamps, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        short_series.slice(3, 3)
    with pytest.raises(ValueError):
        short_series.slice(0, 6)


def test_split_blocks_are_readonly_copies():
    values = np.arange(30.0)
    s = TimeSeries.regular(values)
    splits = extract_splits(s, history_len=4, window_len=3, n_splits=5, seed=1)
    assert len(splits) == 5
    assert splits.histories.shape == (5, 4) and splits.windows.shape == (5, 3)
    for block in (splits.origins, splits.histories, splits.windows):
        assert not block.flags.writeable
        assert not np.shares_memory(block, s.values)
    with pytest.raises(ValueError):
        splits.histories[0, 0] = 99.0


def _noise(series, n, seed=0):
    return series.resolution * np.random.default_rng(seed).standard_normal(n)


def test_gap_fill_fills_missing_grid_points():
    # One sample missing at t=60; linear fill between (30, 2) and (90, 4),
    # plus the seeded noise drawn for grid point 2.
    s = TimeSeries(np.array([0.0, 30.0, 90.0]), np.array([1.0, 2.0, 4.0]))
    out = gap_fill(s, 30.0)
    assert out.timestamps.tolist() == [0.0, 30.0, 60.0, 90.0]
    assert out.values[[0, 1, 3]].tolist() == [1.0, 2.0, 4.0]
    line = np.interp(60.0, s.timestamps, s.values)
    assert abs(line - 3.0) <= 1e-12
    assert out.values[2] == line + _noise(s, 4)[2]


def test_gap_fill_is_identity_on_regular_series():
    s = TimeSeries.regular(np.arange(10.0) ** 2, period=30.0)
    out = gap_fill(s, 30.0)
    assert out.timestamps.tobytes() == s.timestamps.tobytes()
    assert out.values.tobytes() == s.values.tobytes()


def test_gap_fill_partial_period_tail_is_dropped():
    # Span 70 with period 30 covers grid points 0, 30, 60 only; the sample
    # at 70 is off the grid, so the point at 60 is filled.
    s = TimeSeries(np.array([0.0, 30.0, 70.0]), np.array([0.0, 3.0, 7.0]))
    out = gap_fill(s, 30.0)
    assert out.timestamps.tolist() == [0.0, 30.0, 60.0]
    assert out.values[:2].tolist() == [0.0, 3.0]
    line = np.interp(60.0, s.timestamps, s.values)
    assert abs(line - 6.0) <= 1e-12
    assert out.values[2] == line + _noise(s, 3)[2]


def test_gap_fill_rejects_degenerate_input(short_series):
    with pytest.raises(ValueError, match="expected_period must be finite and positive"):
        gap_fill(short_series, 0.0)
    one = TimeSeries(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="at least two samples"):
        gap_fill(one, 1.0)


def test_quantize_ties_round_away_from_zero():
    s = TimeSeries.regular([0.25, -0.25, 1.3, -1.3, 0.74, 0.76])
    out = quantize_to_resolution(s, 0.5)
    np.testing.assert_array_equal(out.values, [0.5, -0.5, 1.5, -1.5, 0.5, 1.0])
    assert out.resolution == 0.5


def test_quantize_is_idempotent_and_bounded():
    rng = np.random.default_rng(11)
    for r in (0.5, 0.01, 185.0 / 4096.0):
        s = TimeSeries.regular(rng.uniform(-50.0, 50.0, size=500))
        q1 = quantize_to_resolution(s, r)
        q2 = quantize_to_resolution(q1, r)
        np.testing.assert_array_equal(q1.values, q2.values)
        assert np.max(np.abs(q1.values - s.values)) <= r / 2.0 + 1e-12
        # Every quantized value sits on the resolution lattice.
        k = q1.values / r
        np.testing.assert_allclose(k, np.round(k), rtol=0, atol=1e-9)


def test_quantize_rejects_nonpositive_resolution(short_series):
    with pytest.raises(ValueError):
        quantize_to_resolution(short_series, 0.0)


@pytest.mark.parametrize("resolution", [np.inf, np.nan])
def test_quantize_rejects_a_non_finite_resolution(short_series, resolution):
    with pytest.raises(ValueError, match="resolution"):
        quantize_to_resolution(short_series, resolution)


def test_extract_splits_shapes_and_determinism():
    s = TimeSeries.regular(np.arange(100.0))
    a = extract_splits(s, history_len=10, window_len=5, n_splits=20, seed=42)
    b = extract_splits(s, history_len=10, window_len=5, n_splits=20, seed=42)
    assert len(a) == 20
    np.testing.assert_array_equal(a.origins, b.origins)
    np.testing.assert_array_equal(a.histories, b.histories)
    np.testing.assert_array_equal(a.windows, b.windows)
    assert a.histories.shape == (20, 10) and a.windows.shape == (20, 5)
    for origin, history, window in zip(a.origins, a.histories, a.windows):
        assert 0 <= origin <= 100 - 15
        # Rows are literal slices of the source values.
        np.testing.assert_array_equal(history, np.arange(origin, origin + 10.0))
        np.testing.assert_array_equal(window, np.arange(origin + 10.0, origin + 15.0))


def test_extract_splits_without_replacement_when_possible():
    s = TimeSeries.regular(np.arange(40.0))
    # 40 - 15 + 1 = 26 feasible origins for 26 requested splits.
    splits = extract_splits(s, 10, 5, 26, seed=0)
    assert len(set(splits.origins.tolist())) == 26


def test_extract_splits_with_replacement_when_origins_scarce():
    s = TimeSeries.regular(np.arange(16.0))
    # Only 2 feasible origins; 10 draws must repeat.
    splits = extract_splits(s, 10, 5, 10, seed=0)
    origins = set(splits.origins.tolist())
    assert origins <= {0, 1}
    assert len(splits) == 10


def test_extract_splits_rejects_short_series():
    s = TimeSeries.regular(np.arange(10.0))
    with pytest.raises(ValueError):
        extract_splits(s, 10, 5, 1, seed=0)
    with pytest.raises(ValueError):
        extract_splits(s, 0, 5, 1, seed=0)
    with pytest.raises(ValueError):
        extract_splits(s, 5, 2, 0, seed=0)


def test_gap_fill_noise_only_on_filled_points():
    s = TimeSeries(np.array([0.0, 30.0, 90.0, 120.0]),
                   np.array([1.0, 2.0, 4.0, 5.0]), resolution=0.25)
    out = gap_fill(s, 30.0, seed=5)
    np.testing.assert_array_equal(out.timestamps, [0.0, 30.0, 60.0, 90.0, 120.0])
    # Observed samples pass through untouched; the filled point moved.
    np.testing.assert_array_equal(out.values[[0, 1, 3, 4]], [1.0, 2.0, 4.0, 5.0])
    assert out.values[2] != 3.0
    assert abs(out.values[2] - 3.0) < 10 * 0.25


def _searchsorted_gap_fill(series, period, seed):
    # The reference rule: a grid point is observed when the original
    # timestamp on either side of it (by searchsorted) is within tol.
    ts = series.timestamps
    n_steps = int(np.floor((ts[-1] - ts[0]) / period + 1e-9))
    grid = ts[0] + period * np.arange(n_steps + 1, dtype=np.float64)
    tol = 1e-6 * period
    idx = np.searchsorted(ts, grid)
    lo = np.clip(idx - 1, 0, len(ts) - 1)
    hi = np.clip(idx, 0, len(ts) - 1)
    filled = np.minimum(np.abs(ts[lo] - grid), np.abs(ts[hi] - grid)) > tol
    noise = _noise(series, len(grid), seed)
    values = np.interp(grid, ts, series.values)
    values[filled] += noise[filled]
    return filled, grid, values


# Offsets from a grid point, in units of tol = 1e-6 period; None puts the
# sample off the grid, at a drawn fraction of the period.
_OFFSETS = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, None]),
                     st.floats(-3.0, 3.0))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(period=st.one_of(st.sampled_from([1.0, 30.0, 31.0, 0.25, 1e-3, 3600.0]),
                        st.floats(1e-3, 1e4)),
       t0=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
       samples=st.lists(st.tuples(st.integers(1, 4), _OFFSETS, st.floats(0.01, 0.99)),
                        min_size=1, max_size=40),
       zero_at=st.one_of(st.none(), st.integers(1, 40)),
       seed=st.integers(0, 2**32 - 1))
def test_gap_fill_matches_the_searchsorted_rule(period, t0, samples, zero_at, seed):
    tol = 1e-6 * period
    k = np.cumsum([0] + [step for step, _, _ in samples])
    if zero_at is not None:
        # Put one grid point at exactly 0.0, so that its sample's distance
        # to it is the drawn offset without rounding: tol itself included.
        t0 = -(period * float(k[min(zero_at, len(samples))]))
    offsets = [0.0] + [tol * o if o is not None else period * frac
                       for _, o, frac in samples]
    ts = t0 + period * k.astype(np.float64) + np.array(offsets)
    assume(np.all(np.diff(ts) > 0))
    rng = np.random.default_rng(seed)
    for values in (np.zeros(len(ts)), rng.uniform(-50.0, 50.0, len(ts))):
        series = TimeSeries(ts, values, resolution=0.5)
        filled, grid, expected = _searchsorted_gap_fill(series, period, seed)
        out = gap_fill(series, period, seed=seed)
        assert out.timestamps.tobytes() == grid.tobytes()
        assert out.values.tobytes() == expected.tobytes()
        if not values.any():
            # On zero readings a grid point moves exactly where noise was added.
            np.testing.assert_array_equal(out.values != 0.0, filled)
