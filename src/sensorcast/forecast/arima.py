"""ARIMA fitting by conditional sum of squares.

The fit pipeline: pick the differencing depth by a variance-ratio rule,
then for every (p, q) pair in the grid estimate coefficients and keep the
AICc winner.  Every pair gets its AR part and mean from one least-squares
solve at a given theta: a pure-AR pair (q = 0) once at theta = [], the
closed-form CSS optimum, and a pair with a moving-average part at each
vertex of a simplex search over theta that starts at theta = 0, the AR(p)
fit.  Flat lag rows (a constant stretch) make the solve singular and
refuse the candidate.  A candidate is admissible when every root of its AR
and MA polynomials has modulus above ``ROOT_MARGIN`` (1.001): for degree
<= 2, with a1 = m c1 and a2 = m^2 c2 for 1 - c1 z - c2 z^2 (c = phi, or
-theta for MA), when |a2| < 1, a1 + a2 < 1 and a2 - a1 < 1 (the
Box-Jenkins triangle scaled by the margin).  An inadmissible or refused
candidate is dropped; a fit raises ``FitError`` only when none is left.

The simplex searches the q <= 2 MA coefficients only, by variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 1973): for fixed theta
the CSS residuals are linear in the AR coefficients and in the constant,
so each vertex gets its phi and mean from a least-squares solve, and the
search has one or two dimensions, not p + q.  The objective runs dozens to
a few hundred times per candidate, so it works on Python floats and as
few numpy calls as it can: it tests the vertex's MA admissibility on its
floats, filters the lag rows built once per candidate in one all-pole
filter call, run on lfilter's C kernel through ``filters.all_pole`` (at a
few dozen samples lfilter's Python wrapper costs twice the kernel), takes
one Gram product and solves normal equations of at most 3 unknowns by hand.
A vertex whose solved phi is inadmissible gets the same penalty as an
inadmissible theta.

The intercept is parameterized as the process mean and estimated only at
d = 0: an undifferenced fit forecasting a flat mean reduces exactly to the
history average, while a differenced fit carrying a drift term would no
longer reduce to value-holding when p = q = 0.  The parameter vector keeps
the intercept slot (0.0) at d >= 1 so layouts never vary.

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
from .optimize import nelder_mead

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
    pq_pairs: list[tuple[int, int]] = []
    for p, dd, q in grid:
        if dd == d and (p, q) not in pq_pairs:
            pq_pairs.append((p, q))
    z = np.diff(scaled, n=d)
    with_mean = d == 0

    best = None
    for idx, (p, q) in enumerate(pq_pairs):
        n_eff = len(z) - max(p, q)
        k = p + q + (1 if with_mean else 0) + 1
        if n_eff <= k + 1:
            continue
        fitted = _fit_candidate(z, p, q, with_mean, config)
        if fitted is None:
            continue
        phi, theta, mu = fitted
        resid = css_residuals(z, phi, theta, mu)
        # Ranked on the scaled residuals, so the choice is scale-free.
        key = (aicc(gaussian_neg2_loglik(resid), k, n_eff), k, idx)
        if best is None or key < best[0]:
            best = (key, p, q, phi, theta, mu, resid)

    if best is None:
        raise FitError(
            f"no admissible arima fit for history of length {len(x)} "
            f"(head {np.array2string(x[:4], precision=4)})"
        )

    (_, k, _), p, q, phi, theta, mu, resid = best
    anchors = [float(np.diff(scaled, n=i)[-1]) for i in range(d)]
    state = np.concatenate([z[len(z) - p:], resid[len(resid) - q:] if q else [],
                            anchors]) if (p or q or d) else np.zeros(0)
    return ForecastModel(
        kind=MethodKind.ARIMA,
        orders=(p, d, q),
        params=np.concatenate([phi, theta, np.ldexp([mu], exponent)]),
        state=np.ldexp(state, exponent),
        k=k,
        fit_n=len(x),
        neg2_loglik=_scaled_neg2_loglik(resid, exponent),
        loglik_n=len(resid),
    )


def _profiled_css(z: np.ndarray, p: int, q: int, with_mean: bool):
    """The least CSS sum of squares over phi and the mean, as a function of theta.

    Returns ``solve``: for ``theta`` a list of q floats, ``solve(theta)`` is
    ``(sse, phi, mu)``, the least CSS sum of squares at that theta and the
    AR coefficients (a list of p floats) and mean that attain it, or None
    when theta or that phi is inadmissible or the lag rows are collinear
    after filtering (a flat stretch).  Without a mean (d >= 1) mu is 0.
    At q = 0 (``theta = []``) the filter is the identity and is skipped:
    the solve is then the pure AR model's closed-form least squares.

    For fixed theta the residuals are linear in phi and in the constant
    c = (mu - zbar) phi(1): e = F_0 - sum_i phi_i F_i - c F_c, where F_0, F_i
    and F_c are z - zbar, its lag i and ones, each filtered by theta(B)^-1
    (Golub & Pereyra's variable projection).  So a vertex costs one filter
    call over those rows, one Gram product, and the normal equations of at
    most 3 unknowns solved by symmetric elimination (Cholesky without the
    square roots) on Python floats, no numpy call.  A pivot at most 1e-12
    of its diagonal means the filtered regressors are collinear, as over a
    flat quantized stretch, and refuses the vertex.
    """
    n, start = len(z), max(p, q)
    zbar = float(np.mean(z)) if with_mean else 0.0
    zc = z - zbar
    # For t = start .. n-1: the lags 1..p of z_t - zbar, ones (with a mean)
    # and, last, z_t - zbar itself.
    rows = np.stack([zc[start - i:n - i] for i in range(1, p + 1)]
                    + ([np.ones(n - start)] if with_mean else []) + [zc[start:]])
    k = len(rows) - 1
    theta_pad = [0.0] * (2 - q)

    def solve(theta: list[float]):
        theta1, theta2 = theta + theta_pad
        if not _beyond_margin(-theta1, -theta2):
            return None
        f = all_pole([1.0, *theta], rows) if q else rows
        gram = f.dot(f.T).tolist()
        diagonal = [gram[j][j] for j in range(k)]
        # Eliminate the regressors in order on the upper triangle; what is
        # left of the target's diagonal is the least sum of squares.
        for j in range(k):
            row = gram[j]
            pivot = row[j]
            if not pivot > 1e-12 * diagonal[j]:
                return None
            for i in range(j + 1, k + 1):
                factor = row[i] / pivot
                below = gram[i]
                for m in range(i, k + 1):
                    below[m] -= factor * row[m]
        beta = [0.0] * k
        for i in range(k - 1, -1, -1):
            row = gram[i]
            total = row[k]
            for m in range(i + 1, k):
                total -= row[m] * beta[m]
            beta[i] = total / row[i]
        phi = beta[:p]
        phi1, phi2 = phi + [0.0] * (2 - p)
        if not _beyond_margin(phi1, phi2):
            return None
        mu = zbar + beta[p] / (1.0 - phi1 - phi2) if with_mean else 0.0
        return gram[k][k], phi, mu

    return solve


def _fit_candidate(z: np.ndarray, p: int, q: int, with_mean: bool,
                   config: FitConfig):
    """Coefficients for one (p, q) pair, or None when inadmissible.

    Every pair is solved by ``_profiled_css``.  A pure AR pair takes one
    solve at theta = [], the global least CSS sum.  Otherwise the simplex
    searches theta alone, with phi and the mean solved at each vertex.  It
    starts at theta = 0, where the filter is the identity and the solve is
    the AR(p) fit, and returns the best vertex it evaluated, so the result
    is never worse than that fit.  Flat lag rows are refused either way.
    p = q = 0 takes ``np.mean``, so (0, 0, 0) reduces bit for bit to the
    history mean.
    """
    if p == q == 0:
        return np.zeros(0), np.zeros(0), float(np.mean(z)) if with_mean else 0.0
    solve = _profiled_css(z, p, q, with_mean)
    theta = np.zeros(0)
    if q:
        def sse(theta: list[float]) -> float:
            fit = solve(theta)
            if fit is None:
                # Steer back toward the admissible region.
                return 1e30 * (1.0 + sum(abs(v) for v in theta))
            return fit[0]

        theta = nelder_mead(sse, [0.0] * q, max_evals=config.max_evals).x
    fit = solve(theta.tolist())
    if fit is None:
        return None
    _, phi, mu = fit
    return np.array(phi), theta, mu


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
