"""Exponential smoothing: simple level tracking and the damped-free trend form.

Smoothing weights are chosen by minimizing the in-sample sum of squared
one-step-ahead errors over a coarse grid, then sharpening the best cell with
golden-section steps.  Variant choice (level-only vs level+trend) is by AICc
with the initial states charged as parameters.
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
    # level_t = alpha*x_t + (1-alpha)*level_{t-1}, initial level = x_0:
    # a linear filter with state, so the whole recursion vectorizes.
    levels = lfilter([alpha], [1.0, -(1.0 - alpha)], values[1:],
                     zi=np.array([(1.0 - alpha) * values[0]]))[0]
    preds = np.concatenate(([values[0]], levels[:-1]))
    errors = values[1:] - preds
    final_level = levels[-1] if len(levels) else values[0]
    return errors, float(final_level)


def trend_errors(values: np.ndarray, alpha: float, beta: float) -> tuple[np.ndarray, float, float]:
    """One-step errors of level+trend smoothing with the final level and trend.

    Level starts at the first observation, trend at the first difference.
    """
    values = np.asarray(values, dtype=np.float64)
    level = values[0]
    trend = values[1] - values[0]
    errors = np.empty(len(values) - 1)
    for t in range(1, len(values)):
        pred = level + trend
        err = values[t] - pred
        errors[t - 1] = err
        new_level = pred + alpha * err
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        level = new_level
    return errors, float(level), float(trend)


def _sse(errors: np.ndarray) -> float:
    return float(errors @ errors)


def _refine_1d(fn, grid: np.ndarray, iters: int) -> float:
    vals = [fn(a) for a in grid]
    best = int(np.argmin(vals))
    if len(grid) == 1:
        return float(grid[0])
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    return golden_section(fn, float(lo), float(hi), iters=iters)


def _default_grid(n_points: int) -> np.ndarray:
    return np.linspace(_ALPHA_LO, _ALPHA_HI, n_points)


def _fit_simple(values: np.ndarray, config: FitConfig) -> ForecastModel:
    grid = (np.asarray(config.es_alpha_grid, dtype=np.float64)
            if config.es_alpha_grid is not None
            else _default_grid(max(3, min(25, config.budget ** 2))))
    alpha = _refine_1d(lambda a: _sse(simple_errors(values, a)[0]),
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


def _fit_trend(values: np.ndarray, config: FitConfig) -> ForecastModel:
    n_points = max(3, min(13, config.budget + 3))
    alpha_grid = (np.asarray(config.es_alpha_grid, dtype=np.float64)
                  if config.es_alpha_grid is not None
                  else _default_grid(n_points))
    beta_grid = _default_grid(n_points)

    best = (np.inf, float(alpha_grid[0]), float(beta_grid[0]))
    for a in alpha_grid:
        for b in beta_grid:
            sse = _sse(trend_errors(values, a, b)[0])
            if sse < best[0]:
                best = (sse, float(a), float(b))
    _, alpha, beta = best

    # Coordinate-wise sharpening; two passes settle the interaction.
    for _ in range(2):
        alpha = _refine_1d(lambda a: _sse(trend_errors(values, a, beta)[0]),
                           alpha_grid, config.refine_iters)
        beta = _refine_1d(lambda b: _sse(trend_errors(values, alpha, b)[0]),
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
    ranked = []
    for order, variant in enumerate(config.es_variants):
        model = fitters[variant](values, config)
        try:
            crit = aicc(model.neg2_loglik, model.k, model.loglik_n)
            undefined = 0
        except ValueError:
            crit = model.neg2_loglik
            undefined = 1
        ranked.append((undefined, crit, model.k, order, model))
    ranked.sort(key=lambda item: item[:4])
    return ranked[0][4]
