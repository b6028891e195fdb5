"""Immutable time series container and the operations every other layer builds on.

A :class:`TimeSeries` pairs a strictly increasing timestamp vector with a
value vector and carries the sensor's reporting resolution.  All operations
here are pure: they never mutate their inputs and return new objects, so
series can be shared freely across threads and worker processes.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TimeSeries",
    "Splits",
    "quantize_to_resolution",
    "extract_splits",
    "gap_fill",
]


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int; refused unless >= ``least`` (numpy ints pass, 2.5 does not)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return count


_MAX_GRID = 2**26  # cells: 0.5 GiB for each float64 array of them


def check_splits(history_len, window_len, n_splits) -> tuple[int, int, int]:
    """The split lengths and count as ints, each >= 1; refused when the S x H
    and S x W blocks would hold more than 2**26 cells together."""
    h, w, s = (check_count(name, value) for name, value in (
        ("history_len", history_len), ("window_len", window_len), ("n_splits", n_splits)))
    if s * (h + w) > _MAX_GRID:
        raise ValueError(f"n_splits {s} x (history {h} + window {w}) is {s * (h + w)} "
                         f"cells, more than {_MAX_GRID}")
    return h, w, s


def check_magnitude(name: str, value) -> None:
    """Refuse a magnitude that is not finite and greater than 0 (NaN fails,
    as does an int past the largest float)."""
    if not 0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def coerce_name(kind, value, noun: str):
    """``value`` as a member of the string-valued enum ``kind``, by member or value;
    each class's ``coerce`` passes its own ``noun`` for the refusal."""
    if isinstance(value, kind):
        return value
    try:
        return kind(str(value))
    except ValueError:
        names = ", ".join(member.value for member in kind)
        raise ValueError(f"unknown {noun} {value!r}; expected one of: {names}") from None


def _as_readonly_f64(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A regular or irregular scalar series from a single sensor.

    Parameters
    ----------
    timestamps : ndarray
        Seconds, strictly increasing, same length as ``values``.
    values : ndarray
        Measured values as float64.
    unit : str
        Physical unit label, informational only.
    resolution : float
        Smallest meaningful value step of the producing sensor; must be
        finite and positive.  Doubles as the default transmission threshold.
    """

    timestamps: np.ndarray
    values: np.ndarray
    unit: str = ""
    resolution: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", _as_readonly_f64(self.timestamps, "timestamps"))
        object.__setattr__(self, "values", _as_readonly_f64(self.values, "values"))
        if self.timestamps.shape != self.values.shape:
            raise ValueError(
                f"timestamps and values must match: {len(self.timestamps)} != {len(self.values)}"
            )
        if len(self.timestamps) == 0:
            raise ValueError("series must contain at least one sample")
        if not np.all(np.isfinite(self.timestamps)):
            raise ValueError("timestamps must be finite")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        # Compared, not subtracted: a difference past the largest float overflows.
        if not np.all(self.timestamps[1:] > self.timestamps[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        check_magnitude("resolution", self.resolution)

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def regular(values, period: float = 1.0, t0: float = 0.0, *, unit: str = "",
                resolution: float = 1.0) -> "TimeSeries":
        """Build a series sampled every ``period`` seconds starting at ``t0``."""
        values = np.asarray(values, dtype=np.float64)
        ts = t0 + period * np.arange(len(values), dtype=np.float64)
        return TimeSeries(ts, values, unit=unit, resolution=resolution)

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """Contiguous sub-series by sample index."""
        if not (0 <= start < stop <= len(self)):
            raise ValueError(f"bad slice [{start}, {stop}) for series of length {len(self)}")
        return replace(self, timestamps=self.timestamps[start:stop], values=self.values[start:stop])


@dataclass(frozen=True, eq=False)
class Splits:
    """S rolling-origin evaluation splits as blocks.

    Row ``i`` of ``histories`` (S x H) is the model-fitting segment that
    starts at ``origins[i]``; row ``i`` of ``windows`` (S x W) is the
    segment being forecast, which starts right after it in the source
    series.  All three arrays are read-only, and ``len`` is S.
    """

    origins: np.ndarray
    histories: np.ndarray
    windows: np.ndarray

    def __len__(self) -> int:
        return len(self.origins)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round is banker's rounding; the quantizer needs ties away from zero.
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_to_resolution(series: TimeSeries, resolution: float) -> TimeSeries:
    """Snap every value to the nearest multiple of ``resolution``.

    Ties round away from zero.  Where the nearest multiple, or the quotient
    by ``resolution``, passes the largest float, the value snaps to the
    next multiple toward zero, x - fmod(x, r): x itself where r is below an
    ulp of x.  The result's ``resolution`` field is set to the new step so
    downstream thresholds follow the simulated sensor.
    """
    check_magnitude("resolution", resolution)
    x = series.values
    with np.errstate(over="ignore"):
        q = _round_half_away(x / resolution) * resolution
    q = np.where(np.isfinite(q), q, x - np.fmod(x, resolution))
    return replace(series, values=q, resolution=resolution)


def extract_splits(series: TimeSeries, history_len: int, window_len: int,
                   n_splits: int, seed: int) -> Splits:
    """Draw ``n_splits`` rolling-origin splits with fixed segment lengths.

    Origins are uniform over every feasible start index, drawn without
    replacement while enough distinct origins exist and with replacement
    otherwise.  The draw is fully determined by ``seed``.  The segments
    come back as one S x H and one S x W block, each gathered by a single
    fancy index into the series values, so every row is a contiguous copy;
    blocks of more than 2**26 cells together are refused before any draw.
    """
    history_len, window_len, n_splits = check_splits(history_len, window_len, n_splits)
    need = history_len + window_len
    if len(series) < need:
        raise ValueError(
            f"series of length {len(series)} too short for history {history_len} "
            f"+ window {window_len}"
        )
    n_origins = len(series) - need + 1
    rng = np.random.default_rng(seed)
    origins = rng.choice(n_origins, size=n_splits, replace=n_origins < n_splits)
    starts = origins[:, np.newaxis]
    blocks = (origins,
              series.values[starts + np.arange(history_len)],
              series.values[starts + np.arange(history_len, need)])
    for block in blocks:
        block.setflags(write=False)
    return Splits(*blocks)


def gap_fill(series: TimeSeries, expected_period: float, *, seed: int = 0) -> TimeSeries:
    """Resample onto the regular grid ``t0 + k * expected_period``, then
    perturb the filled samples.

    Values at grid points are linear interpolations of the neighbouring
    observed samples; grid points beyond the last observation are not
    generated.  Only grid points that had no original observation receive
    noise, with standard deviation equal to the series resolution.  Needs
    at least two samples, and a grid of at most 2**26 steps: a longer one,
    or one whose length passes the largest float, is refused before any of
    it is allocated.
    """
    check_magnitude("expected_period", expected_period)
    if len(series) < 2:
        raise ValueError("interpolation needs at least two samples")
    ts = series.timestamps
    # On Python floats, which overflow to inf without a warning.
    steps = (ts[-1].item() - ts[0].item()) / float(expected_period) + 1e-9
    if not steps < _MAX_GRID:
        raise ValueError(f"expected_period {expected_period} cuts the series into "
                         f"{steps:.3g} grid steps, more than {_MAX_GRID}")
    n_steps = math.floor(steps)
    grid = ts[0] + expected_period * np.arange(n_steps + 1, dtype=np.float64)
    values = np.interp(grid, ts, series.values)
    # A grid point counts as observed when an original timestamp lands on
    # it.  The tolerance is far below half a period, so only the grid point
    # nearest to a timestamp can be the one it lands on.  Timestamps past
    # the last grid point are tested against it, and miss it by more.
    nearest = np.minimum(np.rint((ts - grid[0]) / expected_period).astype(np.intp), n_steps)
    filled = np.ones(len(grid), dtype=bool)
    filled[nearest[np.abs(ts - grid[nearest]) <= 1e-6 * expected_period]] = False
    noise = series.resolution * np.random.default_rng(seed).standard_normal(len(grid))
    values[filled] += noise[filled]
    return TimeSeries(grid, values, unit=series.unit, resolution=series.resolution)
