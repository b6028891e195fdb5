"""Exponential smoothing: simple level tracking and the damped-free trend form.

Level-only smoothing is ARIMA(0,1,1) and Holt's linear trend is ARIMA(0,2,2)
(MA coefficients alpha - 1; alpha(1 + beta) - 2 and 1 - alpha), so both
variants compute their one-step errors as that MA filter over first or second
differences and recover the final level and trend from the last errors.

Smoothing weights are chosen by minimizing the in-sample sum of squared
one-step-ahead errors: the best point of a coarse grid starts one bounded
Gauss-Newton (Levenberg-Marquardt) search, ``optimize.gauss_newton``.  Each
variant takes its differences once; the trend grid runs as one recursion
over all (alpha, beta) cells, bit for bit the per-cell filter.  A search
step costs two filters: e = theta(B)^-1 w, then theta(B)^-1 e, whose lags
are the derivatives of e in theta, carried to the weights by the chain
rule.  Alpha stays in [min, max] of its grid ([0.01, 0.99] by default) and
beta in [0.01, 0.99]; the search never ends above its start, and its
trials are capped at ``FitConfig.max_evals`` (budget**3).  A fit runs a
few dozen filters in sequence on a few dozen samples, so they go
straight to lfilter's C kernel through ``filters.all_pole``: lfilter's
Python wrapper would cost twice the kernel.  The search runs on the history
scaled by a power of two that puts max|x| in [0.5, 1): the scaling is
exact, so the chosen weights do not depend on the series' magnitude, and
no sum of squares overflows or underflows at extreme ones.  Each variant
search returns its weights only; one ``simple_errors`` or ``trend_errors``
call on the scaled history then gives the errors and the final level and
trend.  The state is scaled back by the same power of two, exactly, and
the likelihood is that of the scaled errors plus the scale's exact log, so
the variant choice (level-only vs level+trend, by AICc with the initial
states charged as parameters) does not depend on the magnitude either.
"""

from __future__ import annotations

import functools

import numpy as np

from .filters import all_pole
from .models import (
    FitConfig,
    FitError,
    ForecastModel,
    MethodKind,
    _scaled_neg2_loglik,
    _unit_scaled,
    aicc,
)
from .optimize import gauss_newton

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
    e = np.concatenate(([0.0], all_pole([1.0, alpha - 1.0], np.diff(values))))
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
    e = np.concatenate(([0.0, 0.0], all_pole(ma, np.diff(values, 2))))
    # level_t = x_t - (1-alpha)*e_t; trend_t = level_t - level_{t-1} - alpha(1-beta)*e_t.
    prev_level, level = values[-2:] - (1.0 - alpha) * e[-2:]
    return e[1:], float(level), float(level - prev_level - alpha * (1.0 - beta) * e[-1])


def _sse(errors: np.ndarray) -> float:
    return float(errors @ errors)


def _lane_sse(w: np.ndarray, ma1: np.ndarray, ma2: np.ndarray) -> np.ndarray:
    """``_sse(lfilter([1], [1, ma1[i], ma2[i]], w))`` for all lanes i, bit for bit.

    One pass over ``w`` steps every lane in lfilter's transposed direct-form
    II order, y = x + ((-ma2 * y_2) - ma1 * y_1); a stack of 1 x n by n x 1
    products then runs ``_sse``'s dot product once per lane.
    """
    y = np.zeros((len(w) + 2, len(ma1)))
    rows = list(y)
    neg_ma2 = -ma2
    tmp = np.empty(len(ma1))
    for t, x in enumerate(w.tolist(), start=2):
        np.multiply(neg_ma2, rows[t - 2], out=rows[t])
        np.multiply(ma1, rows[t - 1], out=tmp)
        np.subtract(rows[t], tmp, out=rows[t])
        np.add(rows[t], x, out=rows[t])
    lanes = np.ascontiguousarray(y[2:].T)
    return np.matmul(lanes[:, None, :], lanes[:, :, None]).ravel()


def _best_cell(w: np.ndarray, alpha_grid: np.ndarray,
               beta_grid: np.ndarray) -> tuple[float, float]:
    # The cell with the least trend SSE over w, alpha-major: the first strict
    # minimum wins and a NaN never does, so with no finite SSE the first cell.
    alphas, betas = (g.ravel() for g in np.meshgrid(alpha_grid, beta_grid, indexing="ij"))
    sse = _lane_sse(w, alphas * (1.0 + betas) - 2.0, 1.0 - alphas)
    best = int(np.argmin(np.where(np.isnan(sse), np.inf, sse)))
    return float(alphas[best]), float(betas[best])


@functools.lru_cache(maxsize=None)
def _default_grid(n_points: int) -> np.ndarray:
    # Read-only, so that every fit can share one copy; the budget allows at
    # most a dozen sizes, so the cache stays small.
    grid = np.linspace(_ALPHA_LO, _ALPHA_HI, n_points)
    grid.flags.writeable = False
    return grid


def _alpha_grid(config: FitConfig, n_points: int) -> np.ndarray:
    if config.es_alpha_grid is not None:
        return np.asarray(config.es_alpha_grid, dtype=np.float64)
    return _default_grid(n_points)


def _simple_weights(search: np.ndarray, config: FitConfig) -> list[float]:
    grid = _alpha_grid(config, max(3, min(25, config.budget ** 2)))
    # simple_errors(search, a)[0], with the differences taken once.
    diffs = np.diff(search)
    n = len(diffs)

    def errors(x):
        return all_pole([1.0, x[0] - 1.0], diffs)

    def stacked_jacobian(x, e):
        # theta = alpha - 1, and de/dtheta = -(theta(B)^-1 e) lagged once.
        m = np.empty((2, n))
        m[0, 0] = 0.0
        np.negative(all_pole([1.0, x[0] - 1.0], e)[:-1], out=m[0, 1:])
        m[1] = e
        return m

    alphas = grid.tolist()
    start = alphas[int(np.argmin([_sse(errors([a])) for a in alphas]))]
    return gauss_newton(errors, stacked_jacobian, [start], alphas[:1], alphas[-1:],
                        max_trials=config.max_evals)


def _trend_weights(search: np.ndarray, config: FitConfig) -> list[float]:
    n_points = max(3, min(13, config.budget + 3))
    alpha_grid = _alpha_grid(config, n_points)
    beta_grid = _default_grid(n_points)
    # trend_errors(search, a, b)[0], with the differences taken once: the
    # leading zero is the error trend_errors fixes at the second step.
    diffs = np.concatenate(([0.0], np.diff(search, 2)))
    n = len(diffs)

    def errors(x):
        alpha, beta = x
        return all_pole([1.0, alpha * (1.0 + beta) - 2.0, 1.0 - alpha], diffs)

    def stacked_jacobian(x, e):
        # de/dtheta_j = -g lagged j times, with g = theta(B)^-1 e; the chain
        # rule through theta_1 = alpha(1 + beta) - 2 and theta_2 = 1 - alpha.
        alpha, beta = x
        g = all_pole([1.0, alpha * (1.0 + beta) - 2.0, 1.0 - alpha], e)
        m = np.zeros((3, n))
        np.multiply(g[:-1], -(1.0 + beta), out=m[0, 1:])
        m[0, 2:] += g[:-2]
        np.multiply(g[:-1], -alpha, out=m[1, 1:])
        m[2] = e
        return m

    start = _best_cell(diffs, alpha_grid, beta_grid)
    return gauss_newton(errors, stacked_jacobian, start,
                        [float(alpha_grid[0]), _ALPHA_LO], [float(alpha_grid[-1]), _ALPHA_HI],
                        max_trials=config.max_evals)


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

    search, exponent = _unit_scaled(values)
    ranked = []
    for order, variant in enumerate(config.es_variants):
        if variant == "simple":
            weights = _simple_weights(search, config)
            errors, *state = simple_errors(search, *weights)
        else:
            weights = _trend_weights(search, config)
            errors, *state = trend_errors(search, *weights)
        # A state past the largest float is inf, which the wire refuses.
        with np.errstate(over="ignore"):
            state = np.ldexp(state, exponent)
        # k: the smoothing weights plus the fitted initial states.
        model = ForecastModel(
            kind=MethodKind.EXPONENTIAL_SMOOTHING,
            orders=(len(weights), 0, 0),
            params=weights,
            state=state,
            k=len(weights) + len(state),
            fit_n=len(values),
            neg2_loglik=_scaled_neg2_loglik(errors, exponent),
            loglik_n=len(errors),
        )
        try:
            crit = aicc(model.neg2_loglik, model.k, model.loglik_n)
            undefined = 0
        except ValueError:
            crit = model.neg2_loglik
            undefined = 1
        ranked.append((undefined, crit, model.k, order, model))
    ranked.sort(key=lambda item: item[:4])
    return ranked[0][4]
