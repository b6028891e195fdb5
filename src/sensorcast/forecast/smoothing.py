"""Exponential smoothing: simple level tracking and the damped-free trend form.

Level-only smoothing is ARIMA(0,1,1) and Holt's linear trend is ARIMA(0,2,2)
(MA coefficients alpha - 1; alpha(1 + beta) - 2 and 1 - alpha), so both
variants compute their one-step errors as that MA filter over first or second
differences and recover the final level and trend from the last errors.

Smoothing weights are chosen by minimizing the in-sample sum of squared
one-step-ahead errors over a coarse grid, then sharpening the best cell with
golden-section steps.  The search runs on the history scaled by a power of
two that puts max|x| in [0.5, 1): the scaling is exact, so the chosen
weights do not depend on the series' magnitude, and no sum of squares
overflows or underflows at extreme ones.  Errors, states and the likelihood
come from the unscaled history.  Variant choice (level-only vs level+trend)
is by AICc with the initial states charged as parameters.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from .models import (
    FitConfig,
    FitError,
    ForecastModel,
    MethodKind,
    aicc,
    gaussian_neg2_loglik,
)
from .optimize import golden_section

__all__ = ["fit_exponential_smoothing", "simple_errors", "trend_errors"]

_ALPHA_LO = 0.01
_ALPHA_HI = 0.99
_MIN_HISTORY = 4


def simple_errors(values: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """One-step-ahead errors of level-only smoothing and the final level.

    Level starts at the first observation; errors begin at the second.
    """
    values = np.asarray(values, dtype=np.float64)
    # ARIMA(0,1,1): diff(x)_t = e_t + (alpha-1)*e_{t-1}, with e_0 = 0.
    e = np.concatenate(([0.0], lfilter([1.0], [1.0, alpha - 1.0], np.diff(values))))
    # level_t = x_t - (1-alpha)*e_t
    return e[1:], float(values[-1] - (1.0 - alpha) * e[-1])


def trend_errors(values: np.ndarray, alpha: float, beta: float) -> tuple[np.ndarray, float, float]:
    """One-step errors of level+trend smoothing with the final level and trend.

    Level starts at the first observation, trend at the first difference,
    so the first error is zero.
    """
    values = np.asarray(values, dtype=np.float64)
    # ARIMA(0,2,2): diff(x, 2)_t = e_t + theta_1*e_{t-1} + theta_2*e_{t-2}, with e_0 = e_1 = 0.
    ma = [1.0, alpha * (1.0 + beta) - 2.0, 1.0 - alpha]
    e = np.concatenate(([0.0, 0.0], lfilter([1.0], ma, np.diff(values, 2))))
    # level_t = x_t - (1-alpha)*e_t; trend_t = level_t - level_{t-1} - alpha(1-beta)*e_t.
    prev_level, level = values[-2:] - (1.0 - alpha) * e[-2:]
    return e[1:], float(level), float(level - prev_level - alpha * (1.0 - beta) * e[-1])


def _sse(errors: np.ndarray) -> float:
    return float(errors @ errors)


def _refine_1d(fn, grid: np.ndarray, iters: int) -> float:
    if len(grid) == 1:
        return float(grid[0])
    best = int(np.argmin([fn(a) for a in grid]))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    return golden_section(fn, float(lo), float(hi), iters=iters)


def _default_grid(n_points: int) -> np.ndarray:
    return np.linspace(_ALPHA_LO, _ALPHA_HI, n_points)


def _unit_scaled(values: np.ndarray) -> np.ndarray:
    # values * 2**-e with max|values| = m * 2**e, m in [0.5, 1): exact unless
    # a value falls into the subnormal range.
    _, exponent = np.frexp(np.max(np.abs(values)))
    return np.ldexp(values, -exponent)


def _fit_simple(values: np.ndarray, search: np.ndarray, config: FitConfig) -> ForecastModel:
    grid = (np.asarray(config.es_alpha_grid, dtype=np.float64)
            if config.es_alpha_grid is not None
            else _default_grid(max(3, min(25, config.budget ** 2))))
    alpha = _refine_1d(lambda a: _sse(simple_errors(search, a)[0]),
                       grid, config.refine_iters)
    errors, level = simple_errors(values, alpha)
    # k: one smoothing weight plus the fitted initial level.
    return ForecastModel(
        kind=MethodKind.EXPONENTIAL_SMOOTHING,
        orders=(1, 0, 0),
        params=[alpha],
        state=[level],
        k=2,
        fit_n=len(values),
        neg2_loglik=gaussian_neg2_loglik(errors),
        loglik_n=len(errors),
    )


def _fit_trend(values: np.ndarray, search: np.ndarray, config: FitConfig) -> ForecastModel:
    n_points = max(3, min(13, config.budget + 3))
    alpha_grid = (np.asarray(config.es_alpha_grid, dtype=np.float64)
                  if config.es_alpha_grid is not None
                  else _default_grid(n_points))
    beta_grid = _default_grid(n_points)

    best = (np.inf, float(alpha_grid[0]), float(beta_grid[0]))
    for a in alpha_grid:
        for b in beta_grid:
            sse = _sse(trend_errors(search, a, b)[0])
            if sse < best[0]:
                best = (sse, float(a), float(b))
    _, alpha, beta = best

    # Coordinate-wise sharpening; two passes settle the interaction.
    for _ in range(2):
        alpha = _refine_1d(lambda a: _sse(trend_errors(search, a, beta)[0]),
                           alpha_grid, config.refine_iters)
        beta = _refine_1d(lambda b: _sse(trend_errors(search, alpha, b)[0]),
                          beta_grid, config.refine_iters)

    errors, level, trend = trend_errors(values, alpha, beta)
    # k: two smoothing weights plus two fitted initial states.
    return ForecastModel(
        kind=MethodKind.EXPONENTIAL_SMOOTHING,
        orders=(2, 0, 0),
        params=[alpha, beta],
        state=[level, trend],
        k=4,
        fit_n=len(values),
        neg2_loglik=gaussian_neg2_loglik(errors),
        loglik_n=len(errors),
    )


def fit_exponential_smoothing(history: np.ndarray, config: FitConfig) -> ForecastModel:
    """Fit the configured smoothing variants and keep the AICc winner.

    Variants whose AICc is undefined (history too short for the parameter
    count) rank after every variant with a defined AICc; if none is defined
    the in-sample SSE breaks the tie.
    """
    values = np.asarray(history, dtype=np.float64)
    if len(values) < _MIN_HISTORY:
        raise FitError(
            f"exponential smoothing needs >= {_MIN_HISTORY} observations, got {len(values)}"
        )

    fitters = {"simple": _fit_simple, "trend": _fit_trend}
    search = _unit_scaled(values)
    ranked = []
    for order, variant in enumerate(config.es_variants):
        model = fitters[variant](values, search, config)
        try:
            crit = aicc(model.neg2_loglik, model.k, model.loglik_n)
            undefined = 0
        except ValueError:
            crit = model.neg2_loglik
            undefined = 1
        ranked.append((undefined, crit, model.k, order, model))
    ranked.sort(key=lambda item: item[:4])
    return ranked[0][4]
