"""ARIMA fitting by conditional sum of squares.

The fit pipeline: pick the differencing depth by a variance-ratio rule,
then for every (p, q) pair in the grid estimate coefficients and keep
the AICc winner.  Every pair but (0, 0, 0) takes one path: its AR part
and mean come from one least-squares solve per theta, first at
theta = 0, the AR(p) fit (at q = 0 the closed-form CSS optimum, and the
end), then at each trial of a search over theta from there; it ends on
the search's last theta, or on the AR(p) fit if that sums lower.  Flat
lag rows (a constant stretch) make the solve singular and refuse the
candidate.  A candidate is admissible when every root of its AR and MA
polynomials has modulus above ``ROOT_MARGIN`` (1.001): for degree <= 2,
with a1 = m c1 and a2 = m^2 c2 for 1 - c1 z - c2 z^2 (c = phi, or -theta
for MA), when |a2| < 1, a1 + a2 < 1 and a2 - a1 < 1 (the Box-Jenkins
triangle scaled by the margin).  An inadmissible or refused candidate is
dropped; a fit raises ``FitError`` only when none is left.

The search covers the q <= 2 MA coefficients only, by variable projection
(Golub & Pereyra, SIAM J. Numer. Anal. 1973): for fixed theta the CSS
residuals are linear in phi and the constant, so each trial gets them from
one filter and least-squares solve, straight-line float code per count of
unknowns (``_profiled_css``), the one solve every candidate calls.  At
q = 1 a simplex searches theta, and an inadmissible solved phi costs a
vertex the penalty of an inadmissible theta.  At q = 2
``optimize.gauss_newton`` searches the MA polynomial's partial
autocorrelations, a box that maps onto the margin-scaled triangle, with
Kaufman's Jacobian; a trial with an inadmissible phi is refused.

The intercept is parameterized as the process mean and estimated only at
d = 0: an undifferenced fit forecasting a flat mean reduces exactly to the
history average, while a differenced fit carrying a drift term would no
longer reduce to value-holding when p = q = 0.

A model ships only what its forecast reads.  Past step q the MA terms act
on shocks at their mean, zero, so the fit runs the ARMA recursion for the
first q steps once, and the forecast continues it as an AR recursion.
``params`` is phi, then the mean at d = 0; ``state`` is the last (p - q)+
differenced values, the q first differenced forecasts and the d anchors.
phi, theta and the mean (0.0 at d >= 1) are ``ForecastModel.estimates``.

Fits run on the history scaled by the power of two that puts max|x| in
[0.5, 1).  The scaling is exact, so the chosen orders and coefficients do
not depend on the series' magnitude and no sum of squares overflows or
underflows; the mean, the state and the likelihood are scaled back, and
candidates are ranked by AICc on the scaled residuals, because their
residual counts differ and the scale's log would weigh on each
differently.
"""

from __future__ import annotations

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
    gaussian_neg2_loglik,
)
from .optimize import gauss_newton, nelder_mead

__all__ = [
    "fit_arima",
    "forecast_arima",
    "choose_differencing",
    "css_residuals",
    "min_history",
    "ROOT_MARGIN",
]

ROOT_MARGIN = 1.001

# Differencing must shrink variance below this fraction of the undifferenced
# variance to be worth a unit root.  Strongly autocorrelated but stationary
# series (lag-1 correlation ~0.8) keep ratios >= ~0.3, random walks and
# linear trends fall below 0.1, so 0.2 separates the two regimes.
_DIFF_RATIO = 0.2

_MIN_EXTRA_HISTORY = 10


def min_history(order_grid) -> int:
    """Shortest history :func:`fit_arima` accepts for this order grid."""
    return _MIN_EXTRA_HISTORY + max(map(max, order_grid))


def choose_differencing(values: np.ndarray, allowed_d=(0, 1, 2)) -> int:
    """Smallest allowed d whose next difference stops paying for itself.

    Differencing continues while it drops the variance below
    ``_DIFF_RATIO`` times the current level, and stops at a depth whose
    next difference is too short (under 2 values) to assess; if every
    allowed depth keeps paying, the largest allowed depth is returned.
    """
    values = np.asarray(values, dtype=np.float64)
    allowed = sorted(set(int(d) for d in allowed_d))
    if not allowed:
        raise ValueError("allowed_d must not be empty")
    for d in allowed:
        if len(values) - (d + 1) < 2:
            return d
        v_here = float(np.var(np.diff(values, n=d)))
        v_next = float(np.var(np.diff(values, n=d + 1)))
        if v_next >= _DIFF_RATIO * v_here:
            return d
    return allowed[-1]


def css_residuals(z: np.ndarray, phi, theta, mu: float) -> np.ndarray:
    """Conditional-sum-of-squares residuals of an ARMA model on ``z``.

    ``z`` is a float64 array; ``phi`` and ``theta`` are sequences of floats
    (arrays or lists).  Residuals before ``max(p, q)`` are treated as zero
    and excluded; the returned array covers t = max(p, q) .. n-1 only.
    """
    p, q = len(phi), len(theta)
    start = max(p, q)
    n = len(z)
    if n <= start:
        raise ValueError(f"series of length {n} too short for orders ({p}, {q})")
    zt = z - mu
    w = zt[start:]
    for i in range(1, p + 1):
        w = w - phi[i - 1] * zt[start - i:n - i]
    if q == 0:
        return w
    return all_pole([1.0, *theta], w)


_MARGIN_SQUARED = ROOT_MARGIN ** 2


def _beyond_margin(c1: float, c2: float) -> bool:
    # Both roots of 1 - c1 z - c2 z^2 lie beyond ROOT_MARGIN (see the module
    # docstring).  NaN fails every comparison, so it is never admissible.
    a1, a2 = ROOT_MARGIN * c1, _MARGIN_SQUARED * c2
    return abs(a2) < 1.0 and a1 + a2 < 1.0 and a2 - a1 < 1.0


# Elimination for k = 1..3, as the loop in tests' ``profiled_solve_oracle``: (sse, beta) or None.
def _eliminate1(g):
    (a00, a01), (_, a11) = g
    if not a00 > 1e-12 * a00:
        return None
    b0 = a01 / a00
    return a11 - b0 * a01, [b0]


def _eliminate2(g):
    (a00, a01, a02), (_, a11, a12), (*_, a22) = g
    if not a00 > 1e-12 * a00:
        return None
    f1, f2 = a01 / a00, a02 / a00
    c11 = a11 - f1 * a01
    if not c11 > 1e-12 * a11:
        return None
    c12 = a12 - f1 * a02
    b1 = c12 / c11
    return a22 - f2 * a02 - b1 * c12, [(a02 - a01 * b1) / a00, b1]


def _eliminate3(g):
    (a00, a01, a02, a03), (_, a11, a12, a13), (_, _, a22, a23), (*_, a33) = g
    if not a00 > 1e-12 * a00:
        return None
    f1, f2, f3 = a01 / a00, a02 / a00, a03 / a00
    c11 = a11 - f1 * a01
    if not c11 > 1e-12 * a11:
        return None
    c12, c13 = a12 - f1 * a02, a13 - f1 * a03
    h2, h3 = c12 / c11, c13 / c11
    c22 = a22 - f2 * a02 - h2 * c12
    if not c22 > 1e-12 * a22:
        return None
    c23 = a23 - f2 * a03 - h2 * c13
    b2 = c23 / c22
    b1 = (c13 - c12 * b2) / c11
    return a33 - f3 * a03 - h3 * c13 - b2 * c23, [(a03 - a01 * b1 - a02 * b2) / a00, b1, b2]


_ELIMINATE = (lambda g: (g[0][0], []), _eliminate1, _eliminate2, _eliminate3)


def fit_arima(history: np.ndarray, config: FitConfig) -> ForecastModel:
    """Grid-search ARIMA fit: variance-rule d, AICc over (p, q).

    Ties prefer fewer parameters, then earlier grid position.  Raises
    :class:`FitError` when the history is too short or no candidate is
    admissible.
    """
    x = np.asarray(history, dtype=np.float64)
    grid = config.order_grid
    need = min_history(grid)
    if len(x) < need:
        raise FitError(f"arima needs >= {need} observations for this grid, got {len(x)}")

    # Everything is fitted on the history scaled by 2**-exponent; the mean,
    # state and likelihood are scaled back.
    scaled, exponent = _unit_scaled(x)
    d = choose_differencing(scaled, [dd for _, dd, _ in grid])
    pq_pairs = list(dict.fromkeys((p, q) for p, dd, q in grid if dd == d))
    z = np.diff(scaled, n=d)
    with_mean = d == 0

    best = None
    for idx, (p, q) in enumerate(pq_pairs):
        k = p + q + (1 if with_mean else 0) + 1
        fitted = _fit_candidate(z, p, q, with_mean, config)
        if fitted is None:
            continue
        phi, theta, mu = fitted
        resid = css_residuals(z, phi, theta, mu)
        # Ranked on the scaled residuals, so the choice is scale-free.
        key = (aicc(gaussian_neg2_loglik(resid), k, len(resid)), k, idx)
        if best is None or key < best[0]:
            best = (key, p, q, phi, theta, mu, resid)

    if best is None:
        raise FitError(
            f"no admissible arima fit for history of length {len(x)} "
            f"(head {np.array2string(x[:4], precision=4)})"
        )

    (_, k, _), p, q, phi, theta, mu, resid = best
    anchors = [float(np.diff(scaled, n=i)[-1]) for i in range(d)]
    *tail, mu = np.ldexp([*z[len(z) - p:], *resid[len(resid) - q:], *anchors, mu],
                         exponent).tolist()
    lags, shocks, anchors = tail[:p], tail[p:p + q], tail[p + q:]
    return ForecastModel(
        kind=MethodKind.ARIMA,
        orders=(p, d, q),
        params=phi + [mu] if with_mean else phi,
        # The q first forecasts stand in for theta and the residuals.
        state=lags[min(p, q):] + _differenced_forecasts(phi, theta, mu, lags, shocks, q) + anchors,
        estimates=phi + theta + [mu],
        k=k,
        fit_n=len(x),
        neg2_loglik=_scaled_neg2_loglik(resid, exponent),
        loglik_n=len(resid),
    )


def _profiled_css(z: np.ndarray, p: int, q: int, with_mean: bool):
    """The least CSS sum of squares over phi and the mean, as a function of theta.

    Returns ``solve``: for ``theta`` a list of q floats, ``solve(theta)`` is
    ``(sse, phi, mu, beta, f)``, the least CSS sum of squares at that theta,
    the AR coefficients (a list of p floats) and mean that attain it, beta
    (phi, then c) and the filtered rows f, or None when theta or that phi is
    inadmissible or the filtered regressors are collinear (a flat stretch).
    Without a mean (d >= 1) mu is 0.

    For fixed theta the residuals are linear in phi and in the constant
    c = (mu - zbar) phi(1): e = F_0 - sum_i phi_i F_i - c F_c, where F_0, F_i
    and F_c are z - zbar, its lag i and ones, each filtered by theta(B)^-1
    (Golub & Pereyra's variable projection).  The rows hold, for
    t = max(p, q) .. n-1, the lags 1..p of z_t - zbar, ones (with a mean)
    and, last, z_t - zbar itself; at q = 0 (``theta = []``) the filter is the
    identity and is skipped, and the solve is the pure AR model's
    closed-form least squares.  A solve costs one filter call over the rows,
    one Gram product, and the normal equations of its k = p + [with mean]
    <= 3 unknowns solved by symmetric elimination (Cholesky without the
    square roots), written out per k on Python floats in the elimination
    loop's order of operations.  A pivot at most 1e-12 of its diagonal means
    the filtered regressors are collinear, as over a flat quantized stretch.
    """
    n, start = len(z), max(p, q)
    zbar = float(np.mean(z)) if with_mean else 0.0
    zc = z - zbar
    rows = np.stack([zc[start - i:n - i] for i in range(1, p + 1)]
                    + ([np.ones(n - start)] if with_mean else []) + [zc[start:]])
    eliminate = _ELIMINATE[len(rows) - 1]
    theta_pad, phi_pad = [0.0] * (2 - q), [0.0] * (2 - p)

    def solve(theta: list[float]):
        theta1, theta2 = theta + theta_pad
        if not _beyond_margin(-theta1, -theta2):
            return None
        f = all_pole([1.0, *theta], rows) if q else rows
        fit = eliminate(f.dot(f.T).tolist())
        if fit is None:
            return None
        sse, beta = fit
        phi = beta[:p]
        phi1, phi2 = phi + phi_pad
        if not _beyond_margin(phi1, phi2):
            return None
        mu = zbar + beta[p] / (1.0 - phi1 - phi2) if with_mean else 0.0
        return sse, phi, mu, beta, f

    return solve


# The q = 2 search runs over the partial autocorrelations r of the
# margin-scaled MA polynomial, held in [-_PACF_BOUND, _PACF_BOUND]^2.  At
# the corner r = (R, R), a1 + a2 = 1 - (1 - R)^2 sits about 90 ulps below
# 1, well clear of the few ulps the map rounds by, so every r in the box
# passes ``_beyond_margin``; 1e-7 lets the search come that close to the
# triangle's edges, where many CSS optima of quantized windows lie.
_PACF_BOUND = 1.0 - 1e-7


def _ma_from_pacf(r1: float, r2: float) -> list[float]:
    """theta at partial autocorrelations (r1, r2): m theta_1 = -r1 (1 - r2)
    and m^2 theta_2 = -r2, with m = ``ROOT_MARGIN``.

    Monahan's map (Biometrika 1984) takes the open box (-1, 1)^2 onto the
    margin-scaled invertibility triangle: a2 = r2 and a1 = r1 (1 - r2), so
    a1 + a2 < 1 and a2 - a1 < 1 are (1 - r2)(r1 -/+ 1) < 0.
    """
    return [-r1 * (1.0 - r2) / ROOT_MARGIN, -r2 / _MARGIN_SQUARED]


def _fit_candidate(z: np.ndarray, p: int, q: int, with_mean: bool,
                   config: FitConfig):
    """Coefficients ``(phi, theta, mu)`` for one (p, q) pair, phi and theta
    lists of floats, or None when inadmissible.

    p = q = 0 takes ``np.mean``, so (0, 0, 0) reduces bit for bit to the
    history mean.  Every other pair solves phi and the mean at theta = 0,
    the AR(p) fit (at q = 0 the global least CSS sum, and the end), and at
    each trial of a search over theta from there, each theta once.  q = 1
    runs the simplex over theta, an inadmissible or refused vertex
    penalized, so a refused start is one more penalized vertex that the
    search moves on from.  q = 2 runs ``gauss_newton`` over the partial
    autocorrelations r (``_ma_from_pacf``) in [-_PACF_BOUND, _PACF_BOUND]^2
    from r = 0, where a refused start ends the search.  Both take the solve
    of the theta they end on, or the AR(p) fit where its sum is lower, and
    refuse the pair when neither was admitted.
    """
    if p == q == 0:
        return [], [], float(np.mean(z)) if with_mean else 0.0
    profiled, fits = _profiled_css(z, p, q, with_mean), {}

    def solve(theta: list[float]):
        # -0.0 keys as 0.0: the filter's values do not tell the two apart.
        key = tuple(theta)
        if key not in fits:
            fits[key] = profiled(theta)
        return fits[key]

    start, theta = solve([0.0] * q), []
    if q == 1:
        def sse(theta: list[float]) -> float:
            fit = solve(theta)
            if fit is None:
                # Steer back toward the admissible region.
                return 1e30 * (1.0 + sum(abs(v) for v in theta))
            return fit[0]

        theta = nelder_mead(sse, [0.0], max_evals=config.max_evals).x.tolist()
    elif q == 2:
        residuals, jacobian_gram = _pacf_least_squares(z, p, with_mean, solve)
        theta = _ma_from_pacf(*gauss_newton(residuals, jacobian_gram, [0.0, 0.0],
                                            [-_PACF_BOUND] * 2, [_PACF_BOUND] * 2,
                                            max_trials=config.max_evals))
    fit = solve(theta)
    # q = 2 keeps trials on e'e, the search's sum; the solve's own sum rounds
    # apart, and on it too the pair must not end above its start.
    if start is not None and (fit is None or fit[0] > start[0]):
        theta, fit = [0.0] * q, start
    return None if fit is None else (fit[1], theta, fit[2])


def _pacf_least_squares(z: np.ndarray, p: int, with_mean: bool, solve):
    """The q = 2 CSS problem in r, as ``gauss_newton`` takes it.

    Returns ``(residuals, jacobian_gram)``.  ``residuals(r)`` takes the
    pair's solve (``_profiled_css``'s, or its cache) at theta =
    ``_ma_from_pacf(r)``, which every r in the box passes, and returns
    e = F_0 - beta' A over the filtered regressors A; a refused trial
    (collinear rows or an inadmissible phi) returns inf, which the search
    never keeps.

    ``jacobian_gram(r, e)`` is Kaufman's variable-projection Jacobian (BIT
    1975) at a trial ``residuals`` admitted: with g = theta(B)^-1 e,
    de/dtheta_j is minus g lagged j times, projected off A.  One Gram
    product of A, the two lags and e, and one ``_ELIMINATE`` solve per lag
    give the projected Gram on Python floats; the chain rule through
    ``_ma_from_pacf`` carries it to r.  At a refused start, or if the
    projection is singular, it returns a zero Gram, which ends the search.
    """
    k, n = p + with_mean, len(z) - max(p, 2)
    refused = np.full(n, np.inf)

    def residuals(r: list[float]) -> np.ndarray:
        fit = solve(_ma_from_pacf(*r))
        if fit is None:
            return refused
        return np.dot([-b for b in fit[3]] + [1.0], fit[4])

    stacked = np.zeros((k + 3, n))
    no_step = [[0.0] * 3] * 3

    def jacobian_gram(r: list[float], e: np.ndarray) -> list[list[float]]:
        theta = _ma_from_pacf(*r)
        fit = solve(theta)
        if fit is None:
            return no_step
        stacked[:k] = fit[4][:k]
        g = all_pole([1.0, *theta], e)
        stacked[k, 1:] = g[:-1]
        stacked[k + 1, 2:] = g[:-2]
        stacked[k + 2] = e
        gram = stacked.dot(stacked.T).tolist()
        # de/dtheta_j = b_j' A - l_j, for the lag l_j = B^j g and b_j its
        # least-squares coefficients on A; the elimination's sum is that
        # row's squared norm.
        norms, b = [], []
        for j in (k, k + 1):
            fit = _ELIMINATE[k]([row[:k] + [row[j]] for row in gram[:k]]
                                + [gram[j][:k] + [gram[j][j]]])
            if fit is None:
                return no_step
            norms.append(fit[0])
            b.append(fit[1])
        cross, grad1, grad2 = gram[k][k + 1], -gram[k][k + 2], -gram[k + 1][k + 2]
        for row, c1, c2 in zip(gram, *b):
            cross -= c1 * row[k + 1]
            grad1 += c1 * row[k + 2]
            grad2 += c2 * row[k + 2]
        # The chain rule: theta_1 moves with r1 and r2, theta_2 with r2.
        r1, r2 = r
        d11, d12, d22 = (r2 - 1.0) / ROOT_MARGIN, r1 / ROOT_MARGIN, -1.0 / _MARGIN_SQUARED
        h11 = d11 * d11 * norms[0]
        h12 = d11 * (d12 * norms[0] + d22 * cross)
        h22 = d12 * d12 * norms[0] + 2.0 * d12 * d22 * cross + d22 * d22 * norms[1]
        g1, g2 = d11 * grad1, d12 * grad1 + d22 * grad2
        return [[h11, h12, g1], [h12, h22, g2], [g1, g2, gram[k + 2][k + 2]]]

    return residuals, jacobian_gram


def _differenced_forecasts(phi, theta, mu: float, lags: list, shocks: list, n_steps: int) -> list:
    # n_steps differenced forecasts after the last values and residuals
    # (oldest first), future shocks at their mean; an overflow is inf.
    lags, shocks = list(lags), list(shocks)
    for _ in range(n_steps):
        acc = mu
        for i, c in enumerate(phi):
            acc += c * (lags[-1 - i] - mu)
        for j, c in enumerate(theta):
            acc += c * shocks[-1 - j]
        lags.append(acc)
        shocks.append(0.0)
    return lags[len(lags) - n_steps:]


def forecast_arima(model: ForecastModel, n_steps: int) -> np.ndarray:
    """Forecast ``n_steps`` values ahead: the q shipped differenced
    forecasts, the AR recursion after them, integrated by the anchors."""
    p, d, q = model.orders
    r = max(p, q)
    w = model.state[:r].tolist()
    mu = float(model.params[p]) if d == 0 else 0.0
    ar = _differenced_forecasts(model.params[:p].tolist(), [], mu, w, [], max(n_steps - q, 0))
    out = np.array((w[r - q:] + ar)[:n_steps])
    for level in range(d - 1, -1, -1):
        out = model.state[r + level] + np.cumsum(out)
    return out
