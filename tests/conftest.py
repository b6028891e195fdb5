from __future__ import annotations

import numpy as np
import pytest

from sensorcast.series import TimeSeries


def make_ar1(phi: float, n: int, seed: int, sigma: float = 1.0) -> np.ndarray:
    """Stationary AR(1) draw: x_t = phi x_{t-1} + e_t, x_0 from the
    stationary distribution."""
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal() * sigma / np.sqrt(1.0 - phi * phi)
    e = sigma * rng.standard_normal(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


def yule_walker_ar1(x: np.ndarray) -> float:
    """Lag-1 autocorrelation estimate of the AR(1) coefficient."""
    z = x - np.mean(x)
    return float(np.dot(z[1:], z[:-1]) / np.dot(z, z))


# Every shape of series the property tests draw, and the peak magnitudes
# they scale it to.
SHAPES = ("walk", "constant", "step", "spikes", "quantized", "alternating")
MAGNITUDES = (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300, 1.5e308)


def shaped(shape: str, n: int, rng: np.random.Generator, peak: float | None = None) -> np.ndarray:
    """A unit-scale series of the given shape, or one scaled so that its
    largest magnitude is ``peak`` (an all-zero series stays zero)."""
    if peak is not None:
        values = shaped(shape, n, rng)
        top = np.max(np.abs(values))
        return values / top * peak if top else values
    if shape == "alternating":
        # Each reading has the other sign: forecasts miss by up to twice
        # the magnitude, past the largest float near the limit.
        return rng.uniform(0.5, 1.0, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    walk = rng.standard_normal(n).cumsum()
    if shape == "walk":
        return walk
    if shape == "constant":
        return np.full(n, rng.uniform(-1.0, 1.0))
    if shape == "step":
        return np.where(np.arange(n) < rng.integers(1, n), 0.0, rng.uniform(-5.0, 5.0))
    if shape == "spikes":
        return np.where(rng.random(n) < 0.1, rng.uniform(-50.0, 50.0, n), 0.0)
    return np.round(walk * 2.0) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


@pytest.fixture
def short_series():
    return TimeSeries.regular([1.0, 2.0, 4.0, 8.0, 16.0], period=1.0)
