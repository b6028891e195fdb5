"""Exponential smoothing: simple level tracking and the damped-free trend form.

Level-only smoothing is ARIMA(0,1,1) and Holt's linear trend is ARIMA(0,2,2)
(MA coefficients alpha - 1; alpha(1 + beta) - 2 and 1 - alpha), so both
variants compute their one-step errors as that MA filter over first or second
differences and recover the final level and trend from the last errors.

The weights minimize the in-sample sum of squared one-step errors.  Each
variant takes its differences once and starts from the best point of a grid
(the trend grid runs as one recursion over all (alpha, beta) cells, bit for
bit the per-cell filter).  Both then run one bounded Levenberg-Marquardt
search, ``_ma_weights``, given their MA coefficients and the coefficients'
derivatives in the weights.  Alpha stays in [min, max] of its grid ([0.01,
0.99] by default) and beta in [0.01, 0.99]; the search never ends above its
start, and its trials are capped at ``FitConfig.max_evals`` (budget**3).
Every filter is ``filters.all_pole``.  The search runs on the history scaled
by an exact power of two (``models._unit_scaled``), so the weights do not
depend on the series' magnitude and no sum of squares overflows or
underflows.  One ``simple_errors`` or ``trend_errors`` call on the scaled
history gives the errors and the final level and trend, the state a model
ships, scaled back exactly; the weights are ``ForecastModel.estimates``.
The likelihood adds the scale's exact log, so the variant choice (by AICc,
initial states charged as parameters) does not depend on the magnitude.
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
    ma1 = (alpha_grid[:, None] * (1.0 + beta_grid) - 2.0).ravel()
    sse = _lane_sse(w, ma1, np.repeat(1.0 - alpha_grid, len(beta_grid)))
    a, b = divmod(int(np.argmin(np.where(np.isnan(sse), np.inf, sse))), len(beta_grid))
    return float(alpha_grid[a]), float(beta_grid[b])


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


def _ma_weights(diffs: np.ndarray, ma, start, lo, hi, config: FitConfig) -> list[float]:
    # The weights x in [lo, hi], from start, with the least squares of e =
    # theta(B)^-1 diffs: ma(x) is [1, theta_1, ...] and, per weight x_i, the
    # row of d theta_j / d x_i.  de/dtheta_j is -g lagged j, g = theta(B)^-1 e.
    def errors(x):
        return all_pole(ma(x)[0], diffs)

    def jacobian_gram(x, e):
        polynomial, rows = ma(x)
        g = all_pole(polynomial, e)
        m = np.zeros((len(x) + 1, len(e)))
        for i, derivatives in enumerate(rows):
            for lag, d in enumerate(derivatives, start=1):
                m[i, lag:] -= g[:-lag] * d
        m[-1] = e
        return (m @ m.T).tolist()

    return gauss_newton(errors, jacobian_gram, start, lo, hi, max_trials=config.max_evals)


def _simple_weights(search: np.ndarray, config: FitConfig) -> list[float]:
    alphas = _alpha_grid(config, max(3, min(25, config.budget ** 2))).tolist()
    # simple_errors(search, a)[0], with the differences taken once.
    diffs = np.diff(search)
    start = alphas[int(np.argmin([_sse(all_pole([1.0, a - 1.0], diffs)) for a in alphas]))]

    def ma(x):
        d_alpha = [1.0]  # d theta_1 / d alpha
        return [1.0, x[0] - 1.0], [d_alpha]

    return _ma_weights(diffs, ma, [start], alphas[:1], alphas[-1:], config)


def _trend_weights(search: np.ndarray, config: FitConfig) -> list[float]:
    n_points = max(3, min(13, config.budget + 3))
    alpha_grid = _alpha_grid(config, n_points)
    # trend_errors(search, a, b)[0], with the differences taken once: the
    # leading zero is the error trend_errors fixes at the second step.
    diffs = np.concatenate(([0.0], np.diff(search, 2)))

    def ma(x):
        alpha, beta = x
        d_alpha = [1.0 + beta, -1.0]  # d theta_1 / d alpha, d theta_2 / d alpha
        d_beta = [alpha]              # d theta_1 / d beta; theta_2 has no beta
        return [1.0, alpha * (1.0 + beta) - 2.0, 1.0 - alpha], [d_alpha, d_beta]

    start = _best_cell(diffs, alpha_grid, _default_grid(n_points))
    return _ma_weights(diffs, ma, start, [float(alpha_grid[0]), _ALPHA_LO],
                       [float(alpha_grid[-1]), _ALPHA_HI], config)


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
            state=state,
            estimates=weights,
            k=len(weights) + len(state),
            fit_n=len(values),
            neg2_loglik=_scaled_neg2_loglik(errors, exponent),
            loglik_n=len(errors),
        )
        try:
            key = (0, aicc(model.neg2_loglik, model.k, model.loglik_n))
        except ValueError:
            key = (1, model.neg2_loglik)
        ranked.append((*key, model.k, order, model))
    return min(ranked, key=lambda item: item[:4])[4]
