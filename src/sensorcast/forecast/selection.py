"""The method table: every per-family fact behind one spec per method.

A :class:`MethodSpec` holds what the rest of the package needs to know
about a forecasting family: its wire code, how to fit it, how to forecast
from a fitted model, its payload table (each order it can produce and the
float counts that order ships), the shortest history it can be fitted on,
whether it is the value-holding baseline, and, for the closed-form
kinds, how to fit and forecast a whole block of histories at once.
Fitters are looked up by module-global name at call time, so a wrapper
installed on ``fit_arima`` or ``fit_exponential_smoothing`` here sees
every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..series import check_count
from .arima import fit_arima, forecast_arima
from .arima import min_history as _arima_min_history
from .models import FULL_ORDER_GRID, FitConfig, FitError, ForecastModel, MethodKind
from .smoothing import _MIN_HISTORY as _ES_MIN_HISTORY
from .smoothing import fit_exponential_smoothing

__all__ = ["MethodSpec", "METHOD_SPECS", "fit_constant", "fit_model", "forecast",
           "min_history"]

Orders = tuple[int, int, int]


@dataclass(frozen=True)
class MethodSpec:
    """Everything that differs between forecasting families.

    ``payloads`` maps every (p, d, q) the fitter can produce to the
    (param count, state count) of exactly the floats ``forecast`` reads;
    an update of other orders or length is malformed.  ``holds`` marks
    value-holding: it predicts the last transmitted value, re-anchors on
    every transmission and never ships a model.  A closed form is stated
    once, on blocks: ``fit_block`` maps an S x H block of histories to the
    S x P block of their params, and ``forecast_block`` maps S x P params
    to the S x W block of their forecasts.  Its ``fit`` and ``forecast``
    are the one-row case, so a block gives bit for bit what they give row
    by row; the fitted kinds have neither block.
    """

    code: int
    fit: Callable[[np.ndarray, FitConfig], ForecastModel]
    forecast: Callable[[ForecastModel, int], np.ndarray]
    payloads: dict[Orders, tuple[int, int]]
    min_history: Callable[[FitConfig], int]
    holds: bool = False
    fit_block: Callable[[np.ndarray], np.ndarray] | None = None
    forecast_block: Callable[[np.ndarray, int], np.ndarray] | None = None


def _closed_form(kind: MethodKind, code: int, n_params: int, fit_block, forecast_block,
                 holds: bool = False) -> MethodSpec:
    # The blocks index the last axis only, so one history and one model's
    # params are their one-row case.  A fit needs a value per param.
    def fit(history, config):
        history = np.asarray(history, dtype=np.float64)
        if len(history) < n_params:
            raise FitError(f"{kind.value} model needs at least {n_params} observations")
        return ForecastModel(kind, params=fit_block(history), k=n_params, fit_n=len(history))

    return MethodSpec(code, fit, lambda model, n: forecast_block(model.params, n),
                      payloads={(0, 0, 0): (n_params, 0)}, min_history=lambda config: n_params,
                      holds=holds, fit_block=fit_block, forecast_block=forecast_block)


def _last_and_slope(histories: np.ndarray):
    # [last, last - previous]: an overflowing slope is inf, without a
    # warning.  One history is fitted on Python floats, which never warn,
    # because np.errstate costs more than the fit.
    if histories.ndim == 1:
        previous, last = histories[-2:].tolist()
        return last, last - previous
    previous, last = histories[:, -2], histories[:, -1]
    with np.errstate(over="ignore"):
        return np.array((last, last - previous)).T


def _row_means(rows: np.ndarray) -> np.ndarray:
    # np.mean(rows, axis=-1, keepdims=True), taken on each row scaled by the
    # power of two that puts its max|x| in [0.5, 1): no sum can overflow, and
    # the scaling is exact unless a value falls into the subnormal range, so
    # the mean is np.mean's bit for bit.  np.mean is this sum over the count;
    # the ufuncs are called directly because np.mean's and np.max's wrappers
    # cost more than their arithmetic on a short history.
    _, exponent = np.frexp(np.maximum.reduce(np.abs(rows), axis=-1, keepdims=True))
    total = np.add.reduce(np.ldexp(rows, -exponent), axis=-1, keepdims=True)
    return np.ldexp(total / rows.shape[-1], exponent)


def _flat(params, n_steps: int) -> np.ndarray:
    # The first param repeated: a vector from one model's tuple, a block
    # from S x P.
    if isinstance(params, tuple):
        return np.full(n_steps, params[0])
    return np.full((len(params), n_steps), params[:, :1])


def _line(params, n_steps: int) -> np.ndarray:
    # level + k slope for k = 1..n_steps from [level, slope]: a vector from
    # one model's tuple, a block from S x 2.  Past the largest float it is inf,
    # without a warning.  On a short window np.errstate costs more than the
    # line, so one model enters it only when the bound |level| + |slope| n,
    # on Python floats, is not finite.
    steps = np.arange(1, n_steps + 1, dtype=np.float64)
    if isinstance(params, tuple):
        level, slope = params
        if math.isfinite(abs(level) + abs(slope) * n_steps):
            return level + slope * steps
    else:
        level, slope = params[:, :1], params[:, 1:]
    with np.errstate(over="ignore"):
        return level + slope * steps


METHOD_SPECS: dict[MethodKind, MethodSpec] = {
    MethodKind.CONSTANT: _closed_form(MethodKind.CONSTANT, 0, 1,
                                      lambda histories: histories[..., -1:], _flat,
                                      holds=True),
    MethodKind.LINEAR: _closed_form(MethodKind.LINEAR, 1, 2, _last_and_slope, _line),
    MethodKind.SIMPLE_MEAN: _closed_form(MethodKind.SIMPLE_MEAN, 2, 1, _row_means, _flat),
    MethodKind.EXPONENTIAL_SMOOTHING: MethodSpec(
        code=3, fit=lambda history, config: fit_exponential_smoothing(history, config),
        # State is [level] for the simple variant, [level, trend] with trend.
        forecast=lambda model, n: (_flat if model.orders[0] == 1 else _line)(model.state, n),
        payloads={(1, 0, 0): (0, 1), (2, 0, 0): (0, 2)},
        min_history=lambda config: _ES_MIN_HISTORY),
    MethodKind.ARIMA: MethodSpec(
        code=4, fit=lambda history, config: fit_arima(history, config),
        forecast=forecast_arima,
        # Params phi and, at d = 0, the mean; state the (p - q)+ last
        # values, the q first forecasts and the d integration anchors.
        payloads={(p, d, q): (p + (d == 0), max(p, q) + d) for p, d, q in FULL_ORDER_GRID},
        min_history=lambda config: _arima_min_history(config.order_grid)),
}


def min_history(config: FitConfig) -> int:
    """Shortest history the configured method can be fitted on."""
    return METHOD_SPECS[config.method].min_history(config)


def fit_constant(history: np.ndarray) -> ForecastModel:
    """The value-holding model: repeat the last observed value."""
    return METHOD_SPECS[MethodKind.CONSTANT].fit(history, None)


def fit_model(history: np.ndarray, config: FitConfig) -> ForecastModel:
    """Fit the configured method on the history."""
    return METHOD_SPECS[config.method].fit(history, config)


def forecast(model: ForecastModel, n_steps: int) -> np.ndarray:
    """Forecast ``n_steps`` values ahead of the model's fit point.

    Deterministic in (model, n_steps); a shorter horizon is always a prefix
    of a longer one because every recursion runs forward step by step.
    """
    check_count("n_steps", n_steps)
    return METHOD_SPECS[model.kind].forecast(model, n_steps)
