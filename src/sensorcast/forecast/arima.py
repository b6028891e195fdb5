"""ARIMA fitting by conditional sum of squares.

The fit pipeline: pick the differencing depth by a variance-ratio rule,
then for every (p, q) pair in the grid estimate coefficients and keep the
AICc winner.  Pure-AR pairs (q = 0) are linear least squares, solved in
closed form; pairs with a moving-average part start from Hannan-Rissanen
two-stage estimates and are refined with a simplex search on the CSS
objective.  Candidates whose AR or MA polynomial has a root with modulus
at or below 1.001 are rejected.

The intercept is parameterized as the process mean and estimated only at
d = 0: an undifferenced fit forecasting a flat mean reduces exactly to the
history average, while a differenced fit carrying a drift term would no
longer reduce to value-holding when p = q = 0.  The parameter vector keeps
the intercept slot (0.0) at d >= 1 so layouts never vary.
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
from .optimize import nelder_mead

__all__ = [
    "fit_arima",
    "forecast_arima",
    "choose_differencing",
    "css_residuals",
    "hannan_rissanen_start",
    "ROOT_MARGIN",
]

ROOT_MARGIN = 1.001

# Differencing must shrink variance below this fraction of the undifferenced
# variance to be worth a unit root.  Strongly autocorrelated but stationary
# series (lag-1 correlation ~0.8) keep ratios >= ~0.3, random walks and
# linear trends fall below 0.1, so 0.2 separates the two regimes.
_DIFF_RATIO = 0.2

_MIN_EXTRA_HISTORY = 10


def choose_differencing(values: np.ndarray, allowed_d=(0, 1, 2)) -> int:
    """Smallest allowed d whose next difference stops paying for itself.

    Differencing continues while it drops the variance below
    ``_DIFF_RATIO`` times the current level; if every allowed depth keeps
    paying, the largest allowed depth is returned.
    """
    values = np.asarray(values, dtype=np.float64)
    allowed = sorted(set(int(d) for d in allowed_d))
    if not allowed:
        raise ValueError("allowed_d must not be empty")
    for d in allowed:
        if len(values) - (d + 1) < 2:
            break
        v_here = float(np.var(np.diff(values, n=d)))
        v_next = float(np.var(np.diff(values, n=d + 1)))
        if v_next >= _DIFF_RATIO * v_here:
            return d
    return allowed[-1]


def css_residuals(z: np.ndarray, phi: np.ndarray, theta: np.ndarray,
                  mu: float) -> np.ndarray:
    """Conditional-sum-of-squares residuals of an ARMA model on ``z``.

    Residuals before ``max(p, q)`` are treated as zero and excluded; the
    returned array covers t = max(p, q) .. n-1 only.
    """
    z = np.asarray(z, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    p, q = len(phi), len(theta)
    start = max(p, q)
    if len(z) <= start:
        raise ValueError(f"series of length {len(z)} too short for orders ({p}, {q})")
    zt = z - mu
    w = zt[start:].copy()
    n = len(z)
    for i in range(1, p + 1):
        w -= phi[i - 1] * zt[start - i:n - i]
    if q == 0:
        return w
    return lfilter([1.0], np.concatenate(([1.0], theta)), w)


def _min_root_modulus(coefs: np.ndarray, sign: float) -> float:
    # Roots of 1 + sign*(c1 z + c2 z^2 + ...); empty polynomial has none.
    c = np.trim_zeros(np.asarray(coefs, dtype=np.float64), "b")
    if len(c) == 0:
        return np.inf
    roots = np.roots(np.concatenate(([1.0], sign * c))[::-1])
    if len(roots) == 0:
        return np.inf
    return float(np.min(np.abs(roots)))


def _admissible(phi: np.ndarray, theta: np.ndarray, margin: float = ROOT_MARGIN) -> bool:
    # Roots that cannot be computed (non-finite coefficients) count as
    # outside the admissible region.
    try:
        return (_min_root_modulus(phi, -1.0) > margin
                and _min_root_modulus(theta, 1.0) > margin)
    except np.linalg.LinAlgError:
        return False


def hannan_rissanen_start(z: np.ndarray, p: int, q: int,
                          with_mean: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Two-stage least-squares starting values for an ARMA(p, q) fit.

    A long autoregression supplies residual proxies; the second stage
    regresses on lagged values and lagged proxies.  Falls back to zero
    coefficients (mean only) whenever the sample is too short or the
    estimate lands outside the admissible region.
    """
    z = np.asarray(z, dtype=np.float64)
    n = len(z)
    mu = float(np.mean(z)) if with_mean else 0.0
    zt = z - mu
    zeros = (np.zeros(p), np.zeros(q), mu)
    if p == 0 and q == 0:
        return zeros

    if q == 0:
        rows = n - p
        if rows < p + 2:
            return zeros
        X = np.column_stack([zt[p - i:n - i] for i in range(1, p + 1)])
        phi, *_ = np.linalg.lstsq(X, zt[p:], rcond=None)
        theta = np.zeros(q)
    else:
        m = min(max(2 * (p + q), 4), max(1, (n - 1) // 3))
        r0 = max(p, m + q)
        if n - r0 < p + q + 2 or n - m < m + 2:
            return zeros
        X_long = np.column_stack([zt[m - i:n - i] for i in range(1, m + 1)])
        a, *_ = np.linalg.lstsq(X_long, zt[m:], rcond=None)
        ehat = np.zeros(n)
        ehat[m:] = zt[m:] - X_long @ a
        cols = [zt[r0 - i:n - i] for i in range(1, p + 1)]
        cols += [ehat[r0 - j:n - j] for j in range(1, q + 1)]
        coef, *_ = np.linalg.lstsq(np.column_stack(cols), zt[r0:], rcond=None)
        phi, theta = coef[:p], coef[p:]

    if not np.all(np.isfinite(phi)) or not np.all(np.isfinite(theta)):
        return zeros
    # Shrink towards zero until the start is admissible.
    for _ in range(20):
        if _admissible(phi, theta):
            return phi, theta, mu
        phi = 0.85 * phi
        theta = 0.85 * theta
    return zeros


def _exact_ar_fit(z: np.ndarray, p: int, with_mean: bool) -> tuple[np.ndarray, float]:
    """Closed-form CSS optimum for a pure AR(p) model.

    Conditional SSE of an AR model is an ordinary least-squares problem,
    so the solution is global and a simplex pass could only wander the
    floating-point plateau around it.
    """
    z = np.asarray(z, dtype=np.float64)
    n = len(z)
    if p == 0:
        return np.zeros(0), (float(np.mean(z)) if with_mean else 0.0)
    cols = [z[p - i:n - i] for i in range(1, p + 1)]
    if with_mean:
        cols.append(np.ones(n - p))
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), z[p:], rcond=None)
    phi = coef[:p]
    if not with_mean:
        return phi, 0.0
    denom = 1.0 - float(np.sum(phi))
    if abs(denom) < 1e-10:
        # Mean undefined at a unit root; the margin check rejects it anyway.
        raise FitError(f"AR({p}) intercept degenerate: AR polynomial has a unit root")
    return phi, float(coef[p]) / denom


def fit_arima(history: np.ndarray, config: FitConfig) -> ForecastModel:
    """Grid-search ARIMA fit: variance-rule d, AICc over (p, q).

    Ties prefer fewer parameters, then earlier grid position.  Raises
    :class:`FitError` when the history is too short or no candidate is
    admissible.
    """
    x = np.asarray(history, dtype=np.float64)
    grid = config.order_grid
    max_order = max(max(p, d, q) for p, d, q in grid)
    if len(x) < _MIN_EXTRA_HISTORY + max_order:
        raise FitError(
            f"arima needs >= {_MIN_EXTRA_HISTORY + max_order} observations "
            f"for this grid, got {len(x)}"
        )

    d = choose_differencing(x, [dd for _, dd, _ in grid])
    pq_pairs: list[tuple[int, int]] = []
    for p, dd, q in grid:
        if dd == d and (p, q) not in pq_pairs:
            pq_pairs.append((p, q))
    z = np.diff(x, n=d)
    with_mean = d == 0

    best = None
    for idx, (p, q) in enumerate(pq_pairs):
        n_eff = len(z) - max(p, q)
        k = p + q + (1 if with_mean else 0) + 1
        if n_eff <= k + 1:
            continue
        try:
            fitted = _fit_candidate(z, p, q, with_mean, config)
        except FitError:
            continue
        if fitted is None:
            continue
        phi, theta, mu = fitted
        resid = css_residuals(z, phi, theta, mu)
        crit = aicc(gaussian_neg2_loglik(resid), k, n_eff)
        key = (crit, k, idx)
        if best is None or key < best[0]:
            best = (key, p, q, phi, theta, mu, resid)

    if best is None:
        raise FitError(
            f"no admissible arima fit for history of length {len(x)} "
            f"(head {np.array2string(x[:4], precision=4)})"
        )

    _, p, q, phi, theta, mu, resid = best
    anchors = [float(np.diff(x, n=i)[-1]) for i in range(d)]
    state = np.concatenate([z[len(z) - p:], resid[len(resid) - q:] if q else [],
                            anchors]) if (p or q or d) else np.zeros(0)
    k = p + q + (1 if with_mean else 0) + 1
    return ForecastModel(
        kind=MethodKind.ARIMA,
        orders=(p, d, q),
        params=np.concatenate([phi, theta, [mu]]),
        state=state,
        k=k,
        fit_n=len(x),
        neg2_loglik=gaussian_neg2_loglik(resid),
        loglik_n=len(resid),
    )


def _fit_candidate(z: np.ndarray, p: int, q: int, with_mean: bool,
                   config: FitConfig):
    """Coefficients for one (p, q) pair, or None when inadmissible."""
    if q == 0:
        phi, mu = _exact_ar_fit(z, p, with_mean)
        theta = np.zeros(0)
        if not _admissible(phi, theta):
            return None
        return phi, theta, mu

    phi0, theta0, mu0 = hannan_rissanen_start(z, p, q, with_mean)
    x0 = np.concatenate([phi0, theta0, [mu0] if with_mean else []])

    def objective(vec: np.ndarray) -> float:
        phi = vec[:p]
        theta = vec[p:p + q]
        mu = vec[p + q] if with_mean else 0.0
        if not _admissible(phi, theta):
            # Steer back toward the admissible region.
            return 1e30 * (1.0 + float(np.sum(np.abs(vec))))
        e = css_residuals(z, phi, theta, mu)
        return float(e @ e)

    result = nelder_mead(objective, x0, max_evals=config.max_evals)
    phi = result.x[:p]
    theta = result.x[p:p + q]
    mu = float(result.x[p + q]) if with_mean else 0.0
    if not _admissible(phi, theta):
        return None
    return phi, theta, mu


def forecast_arima(model: ForecastModel, n_steps: int) -> np.ndarray:
    """Forecast ``n_steps`` values ahead from a fitted ARIMA model."""
    # State layout: p most recent differenced values (oldest first), then q
    # most recent residuals (oldest first), then the d integration anchors
    # (last value of each differencing level, level 0 first).
    p, d, q = model.orders
    phi = model.params[:p]
    theta = model.params[p:p + q]
    mu = model.params[p + q]
    z_hist = list(model.state[:p])
    e_hist = list(model.state[p:p + q])
    anchors = model.state[p + q:p + q + d]

    out = np.empty(n_steps)
    for step in range(n_steps):
        acc = mu
        for i in range(p):
            acc += phi[i] * (z_hist[-1 - i] - mu)
        for j in range(q):
            acc += theta[j] * e_hist[-1 - j]
        out[step] = acc
        if p:
            z_hist.append(acc)
        if q:
            e_hist.append(0.0)  # future shocks enter at their mean

    for level in range(d - 1, -1, -1):
        out = anchors[level] + np.cumsum(out)
    return out
