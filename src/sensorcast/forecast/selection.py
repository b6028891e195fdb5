"""The method table: every per-family fact behind one spec per method.

A :class:`MethodSpec` holds what the rest of the package needs to know
about a forecasting family: its wire code, how to fit it, how to forecast
from a fitted model, its payload table (each order it can produce and the
float counts that order ships), the shortest history it can be fitted on,
whether it is the value-holding baseline, and, for the closed-form
kinds, how to forecast a whole block of histories at once.
Fitters are looked up by module-global name at call time, so a wrapper
installed on ``fit_arima`` or ``fit_exponential_smoothing`` here sees
every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arima import fit_arima, forecast_arima
from .arima import min_history as _arima_min_history
from .models import (FULL_ORDER_GRID, FitConfig, ForecastModel, MethodKind, _row_means,
                     fit_constant, fit_linear, fit_simple_mean)
from .smoothing import _MIN_HISTORY as _ES_MIN_HISTORY
from .smoothing import fit_exponential_smoothing

__all__ = ["MethodSpec", "METHOD_SPECS", "fit_model", "forecast", "min_history"]

Orders = tuple[int, int, int]


@dataclass(frozen=True)
class MethodSpec:
    """Everything that differs between forecasting families.

    ``payloads`` maps every (p, d, q) the fitter can produce to the
    (param count, state count) a model of those orders carries; a model
    update with any other orders is malformed.  ``holds`` marks
    value-holding: it predicts the last transmitted value, re-anchors on
    every transmission and never ships a model.  ``forecast_block`` maps
    an S x H block of histories to the S x W block of their forecasts,
    bit for bit what ``fit`` and ``forecast`` give row by row; the fitted
    kinds have none.
    """

    code: int
    fit: Callable[[np.ndarray, FitConfig], ForecastModel]
    forecast: Callable[[ForecastModel, int], np.ndarray]
    payloads: dict[Orders, tuple[int, int]]
    min_history: Callable[[FitConfig], int]
    holds: bool = False
    forecast_block: Callable[[np.ndarray, int], np.ndarray] | None = None


def _flat(value: float, shape: int | tuple[int, int]) -> np.ndarray:
    return np.full(shape, value)


def _line(level: float, slope: float, n_steps: int) -> np.ndarray:
    # A forecast past the largest float is inf, without a warning.  On a
    # short window np.errstate costs more than the line, so it is entered
    # only when the bound |level| + |slope| n, on Python floats, is not finite.
    steps = np.arange(1, n_steps + 1, dtype=np.float64)
    if math.isfinite(abs(float(level)) + abs(float(slope)) * n_steps):
        return level + slope * steps
    with np.errstate(over="ignore"):
        return level + slope * steps


def _line_block(histories: np.ndarray, n_steps: int) -> np.ndarray:
    # fit_linear and _line for every row, in the same operations: an
    # overflowing slope or forecast is inf.
    last = histories[:, -1:]
    with np.errstate(over="ignore"):
        return last + (last - histories[:, -2:-1]) * np.arange(1, n_steps + 1, dtype=np.float64)


def _forecast_smoothing(model: ForecastModel, n_steps: int) -> np.ndarray:
    # State is [level] for the simple variant, [level, trend] with trend.
    if model.orders[0] == 1:
        return _flat(model.state[0], n_steps)
    return _line(*model.state, n_steps)


METHOD_SPECS: dict[MethodKind, MethodSpec] = {
    MethodKind.CONSTANT: MethodSpec(
        code=0, fit=lambda history, config: fit_constant(history),
        forecast=lambda model, n: _flat(model.params[0], n), payloads={(0, 0, 0): (1, 0)},
        min_history=lambda config: 1, holds=True,
        forecast_block=lambda histories, n: _flat(histories[:, -1:], (len(histories), n))),
    MethodKind.LINEAR: MethodSpec(
        code=1, fit=lambda history, config: fit_linear(history),
        forecast=lambda model, n: _line(*model.params, n), payloads={(0, 0, 0): (2, 0)},
        min_history=lambda config: 2,
        forecast_block=_line_block),
    MethodKind.SIMPLE_MEAN: MethodSpec(
        code=2, fit=lambda history, config: fit_simple_mean(history),
        forecast=lambda model, n: _flat(model.params[0], n), payloads={(0, 0, 0): (1, 0)},
        min_history=lambda config: 1,
        forecast_block=lambda histories, n: _flat(_row_means(histories),
                                                  (len(histories), n))),
    MethodKind.EXPONENTIAL_SMOOTHING: MethodSpec(
        code=3, fit=lambda history, config: fit_exponential_smoothing(history, config),
        forecast=_forecast_smoothing, payloads={(1, 0, 0): (1, 1), (2, 0, 0): (2, 2)},
        min_history=lambda config: _ES_MIN_HISTORY),
    MethodKind.ARIMA: MethodSpec(
        code=4, fit=lambda history, config: fit_arima(history, config),
        forecast=forecast_arima,
        # Params phi, theta and the mean; state the p last values, the q
        # last residuals and the d integration anchors.
        payloads={(p, d, q): (p + q + 1, p + q + d) for p, d, q in FULL_ORDER_GRID},
        min_history=lambda config: _arima_min_history(config.order_grid)),
}


def min_history(config: FitConfig) -> int:
    """Shortest history the configured method can be fitted on."""
    return METHOD_SPECS[config.method].min_history(config)


def fit_model(history: np.ndarray, config: FitConfig) -> ForecastModel:
    """Fit the configured method on the history."""
    return METHOD_SPECS[config.method].fit(history, config)


def forecast(model: ForecastModel, n_steps: int) -> np.ndarray:
    """Forecast ``n_steps`` values ahead of the model's fit point.

    Deterministic in (model, n_steps); a shorter horizon is always a prefix
    of a longer one because every recursion runs forward step by step.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return METHOD_SPECS[model.kind].forecast(model, n_steps)
