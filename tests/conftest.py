from __future__ import annotations

import numpy as np
import pytest

from sensorcast.forecast.filters import all_pole
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


def nelder_mead_array_oracle(fn, x0, max_evals, xatol=1e-8, fatol=1e-10):
    """The n-dimensional Nelder-Mead simplex written on numpy arrays
    (argsort, mean(axis=0), np.argmin): ``(x, fun, n_evals)``.

    ``optimize.nelder_mead`` must match it bit for bit at one coordinate;
    at two it is the reference the q = 2 ARIMA search is measured against.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    n = len(x0)
    simplex = [x0]
    for i in range(n):
        v = x0.copy()
        v[i] += 0.1 * max(abs(v[i]), 0.25)
        simplex.append(v)
    simplex = np.array(simplex)
    fvals = np.array([fn(v) for v in simplex])
    n_evals = n + 1
    while n_evals < max_evals:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if fvals[-1] - fvals[0] <= fatol and np.max(np.abs(simplex[1:] - simplex[0])) <= xatol:
            break
        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = fn(reflected)
        n_evals += 1
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = fn(expanded)
            n_evals += 1
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = fn(contracted)
            n_evals += 1
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    fvals[i] = fn(simplex[i])
                n_evals += n
    best = int(np.argmin(fvals))
    return simplex[best], float(fvals[best]), n_evals


def simple_jacobian_gram_oracle(x, e):
    """The level-only weight search's Jacobian Gram, written for that variant
    alone: theta = alpha - 1, and de/dtheta = -(theta(B)^-1 e) lagged once.

    The shared smoothing search must match it bit for bit.
    """
    m = np.empty((2, len(e)))
    m[0, 0] = 0.0
    np.negative(all_pole([1.0, x[0] - 1.0], e)[:-1], out=m[0, 1:])
    m[1] = e
    return (m @ m.T).tolist()


def trend_jacobian_gram_oracle(x, e):
    """The trend weight search's Jacobian Gram, written for that variant
    alone: de/dtheta_j = -g lagged j times, with g = theta(B)^-1 e, chained
    through theta_1 = alpha(1 + beta) - 2 and theta_2 = 1 - alpha.

    The shared smoothing search must match it bit for bit.
    """
    alpha, beta = x
    g = all_pole([1.0, alpha * (1.0 + beta) - 2.0, 1.0 - alpha], e)
    m = np.zeros((3, len(e)))
    np.multiply(g[:-1], -(1.0 + beta), out=m[0, 1:])
    m[0, 2:] += g[:-2]
    np.multiply(g[:-1], -alpha, out=m[1, 1:])
    m[2] = e
    return (m @ m.T).tolist()


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


@pytest.fixture
def short_series():
    return TimeSeries.regular([1.0, 2.0, 4.0, 8.0, 16.0], period=1.0)
