from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from sensorcast.datasets import ball_series
from sensorcast.forecast.arima import (
    ROOT_MARGIN,
    _beyond_margin,
    _fit_candidate,
    _profiled_css,
    choose_differencing,
    css_residuals,
    fit_arima,
)
from sensorcast.forecast.models import FitConfig, FitError, MethodKind, _unit_scaled
from sensorcast.forecast.selection import forecast
from sensorcast.series import quantize_to_resolution

from conftest import make_ar1, yule_walker_ar1

ARIMA_CONFIG = FitConfig(method="arima")


def css_residuals_oracle(z, phi, theta, mu):
    # Direct recursion: e_t = z~_t - sum phi_i z~_{t-i} - sum theta_j e_{t-j},
    # residuals before max(p, q) pinned to zero.
    zt = np.asarray(z, dtype=np.float64) - mu
    p, q = len(phi), len(theta)
    start = max(p, q)
    e = np.zeros(len(zt))
    for t in range(start, len(zt)):
        acc = zt[t]
        for i in range(p):
            acc -= phi[i] * zt[t - 1 - i]
        for j in range(q):
            acc -= theta[j] * e[t - 1 - j]
        e[t] = acc
    return e[start:]


def test_css_residuals_match_recursion_oracle():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(80).cumsum()
    cases = [
        ([0.5], [], 0.0),
        ([0.5, -0.3], [0.4], 1.2),
        ([], [0.6, 0.2], -0.5),
        ([0.9], [0.3, -0.1], 0.0),
        ([], [], 2.0),
    ]
    for phi, theta, mu in cases:
        got = css_residuals(z, np.array(phi), np.array(theta), mu)
        exp = css_residuals_oracle(z, phi, theta, mu)
        np.testing.assert_allclose(got, exp, rtol=0, atol=1e-9)
        assert len(got) == len(z) - max(len(phi), len(theta))


def test_css_residuals_exact_on_noiseless_ar1():
    # A perfect AR(1) path yields all-zero residuals at the true phi.
    z = 0.7 ** np.arange(30)
    resid = css_residuals(z, np.array([0.7]), np.array([]), 0.0)
    np.testing.assert_allclose(resid, 0.0, rtol=0, atol=1e-15)


def test_css_residuals_rejects_short_series():
    with pytest.raises(ValueError):
        css_residuals(np.array([1.0, 2.0]), np.array([0.1, 0.1]), np.array([]), 0.0)


def test_choose_differencing_levels():
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(600)
    assert choose_differencing(noise) == 0

    walk = np.cumsum(noise)
    assert choose_differencing(walk) == 1

    double_walk = np.cumsum(walk)
    assert choose_differencing(double_walk) == 2

    # Stationary but strongly autocorrelated: must stay at d = 0.
    ar = make_ar1(0.8, 600, seed=11)
    assert choose_differencing(ar) == 0


def test_choose_differencing_respects_allowed_set():
    rng = np.random.default_rng(13)
    walk = np.cumsum(rng.standard_normal(300))
    assert choose_differencing(walk, allowed_d=(0,)) == 0
    assert choose_differencing(walk, allowed_d=(0, 1)) == 1
    with pytest.raises(ValueError):
        choose_differencing(walk, allowed_d=())


def test_choose_differencing_deterministic_trend():
    t = np.arange(200.0)
    line = 3.0 + 2.0 * t
    # First difference of a line is constant: variance 0, clearly paying.
    assert choose_differencing(line) == 1


def test_fit_arima_recovers_ar1_against_yule_walker():
    x = make_ar1(0.8, 500, seed=101)
    m = fit_arima(x, ARIMA_CONFIG)
    p, d, q = m.orders
    assert d == 0
    assert p >= 1
    ref = yule_walker_ar1(x)
    assert m.params[0] == pytest.approx(ref, abs=0.15)


def test_fit_arima_pure_ar_matches_lstsq_oracle():
    # Closed-form oracle: regress z_t on (z_{t-1}, 1).
    x = make_ar1(0.5, 300, seed=31)
    cfg = FitConfig(method="arima", order_grid=((1, 0, 0),))
    m = fit_arima(x, cfg)
    X = np.column_stack([x[:-1], np.ones(len(x) - 1)])
    coef, *_ = np.linalg.lstsq(X, x[1:], rcond=None)
    phi_ref = coef[0]
    mu_ref = coef[1] / (1.0 - coef[0])
    assert m.orders == (1, 0, 0)
    assert m.params[0] == pytest.approx(phi_ref, abs=1e-12)
    assert m.params[1] == pytest.approx(mu_ref, abs=1e-12)


def test_fit_arima_000_with_mean_equals_history_mean():
    rng = np.random.default_rng(37)
    x = 5.0 + rng.standard_normal(60)
    cfg = FitConfig(method="arima", order_grid=((0, 0, 0),))
    m = fit_arima(x, cfg)
    assert m.orders == (0, 0, 0)
    # Bit-exact: same np.mean call as the simple-mean method.
    assert m.params[-1] == np.mean(x)
    np.testing.assert_array_equal(forecast(m, 3), np.full(3, np.mean(x)))


def test_fit_arima_010_reduces_to_value_holding():
    rng = np.random.default_rng(41)
    x = np.cumsum(rng.standard_normal(80))
    cfg = FitConfig(method="arima", order_grid=((0, 1, 0),))
    m = fit_arima(x, cfg)
    assert m.orders == (0, 1, 0)
    assert m.params[-1] == 0.0  # no drift term at d >= 1
    np.testing.assert_array_equal(forecast(m, 4), np.full(4, x[-1]))


def test_fit_arima_ma_component_improves_on_arma_data():
    rng = np.random.default_rng(43)
    e = rng.standard_normal(800)
    x = lfilter([1.0, 0.6], [1.0], e)  # pure MA(1)
    cfg = FitConfig(method="arima", order_grid=((0, 0, 0), (0, 0, 1), (1, 0, 0)))
    m = fit_arima(x, cfg)
    # MA(1) data: the q=1 candidate must beat white noise, and its
    # coefficient should land near the truth.
    assert m.orders[2] == 1 or m.orders[0] == 1
    if m.orders == (0, 0, 1):
        assert m.params[0] == pytest.approx(0.6, abs=0.15)


def test_fit_arima_estimates_are_admissible():
    rng = np.random.default_rng(47)
    for seed in range(5):
        x = np.cumsum(rng.standard_normal(150))
        m = fit_arima(x, ARIMA_CONFIG)
        p, d, q = m.orders
        phi, theta = m.params[:p], m.params[p:p + q]
        if p:
            roots = np.roots(np.concatenate(([1.0], -phi))[::-1])
            assert np.min(np.abs(roots)) > ROOT_MARGIN
        if q:
            roots = np.roots(np.concatenate(([1.0], theta))[::-1])
            assert np.min(np.abs(roots)) > ROOT_MARGIN


def test_fit_arima_state_carries_forecast_context():
    x = make_ar1(0.7, 200, seed=53)
    cfg = FitConfig(method="arima", order_grid=((2, 0, 1),))
    m = fit_arima(x, cfg)
    p, d, q = m.orders
    assert len(m.state) == p + q + d
    # The AR lags in the state are the last differenced observations.
    np.testing.assert_array_equal(m.state[:p], x[-p:])


def test_fit_arima_short_history_raises():
    with pytest.raises(FitError):
        fit_arima(np.arange(8.0), ARIMA_CONFIG)


def test_fit_arima_is_deterministic():
    x = make_ar1(0.6, 250, seed=59)
    a = fit_arima(x, ARIMA_CONFIG)
    b = fit_arima(x, ARIMA_CONFIG)
    assert a.orders == b.orders
    np.testing.assert_array_equal(a.params, b.params)
    np.testing.assert_array_equal(a.state, b.state)


def test_fit_arima_one_step_forecast_tracks_ar_process():
    # One-step forecasts from a correct AR(1) fit track the next value far
    # better than value-holding does on average.
    x = make_ar1(0.9, 400, seed=61)
    errs_model = []
    errs_hold = []
    cfg = FitConfig(method="arima", order_grid=((1, 0, 0),))
    for origin in range(300, 380, 10):
        m = fit_arima(x[origin - 200:origin], cfg)
        errs_model.append(abs(forecast(m, 1)[0] - x[origin]))
        errs_hold.append(abs(x[origin - 1] - x[origin]))
    assert np.mean(errs_model) <= np.mean(errs_hold) * 1.05


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_arima_tiny_magnitudes_raise_only_fit_error():
    # Candidates fitted to ~1e-160 data may be non-finite; they are
    # inadmissible, with neither a crash nor a numpy warning.
    x = np.random.default_rng(0).standard_normal(60) * 1e-160
    try:
        model = fit_arima(x, ARIMA_CONFIG)
    except FitError:
        return
    assert model.kind is MethodKind.ARIMA
    assert np.all(np.isfinite(forecast(model, 5)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [600, -600])
def test_fit_arima_does_not_depend_on_the_scale(exponent):
    # The fit runs on the exactly rescaled history, so orders and
    # coefficients are bit-equal at any power-of-two scale, and the mean
    # and state scale exactly.  (Ranked on the unscaled likelihood, this
    # walk would take (2, 0, 0) at unit scale but (0, 0, 0) at 2**-600.)
    x = np.random.default_rng(1).standard_normal(50).cumsum()
    base = fit_arima(x, ARIMA_CONFIG)
    model = fit_arima(np.ldexp(x, exponent), ARIMA_CONFIG)
    assert base.orders == model.orders == (1, 0, 1)
    assert [v.hex() for v in model.params[:2].tolist()] == \
        [v.hex() for v in base.params[:2].tolist()]
    np.testing.assert_array_equal(model.params[2:], np.ldexp(base.params[2:], exponent))
    np.testing.assert_array_equal(model.state, np.ldexp(base.state, exponent))
    assert model.neg2_loglik == pytest.approx(
        base.neg2_loglik + 2 * model.loglik_n * exponent * math.log(2.0), rel=1e-12)


def min_root_modulus_oracle(coefs, sign):
    # Roots of 1 + sign*(c1 z + c2 z^2) by companion-matrix eigenvalues.
    c = np.trim_zeros(np.asarray(coefs, dtype=np.float64), "b")
    if len(c) == 0:
        return np.inf
    return float(np.min(np.abs(np.roots(np.concatenate(([1.0], sign * c))[::-1]))))


def oracle_admissible(phi, theta):
    return (min_root_modulus_oracle(phi, -1.0) > ROOT_MARGIN
            and min_root_modulus_oracle(theta, 1.0) > ROOT_MARGIN)


def admissible(phi, theta):
    # The AR polynomial 1 - phi1 z - phi2 z^2 and the MA polynomial
    # 1 + theta1 z + theta2 z^2, each put to the margin predicate.
    phi1, phi2 = [float(v) for v in phi] + [0.0] * (2 - len(phi))
    theta1, theta2 = [float(v) for v in theta] + [0.0] * (2 - len(theta))
    return _beyond_margin(phi1, phi2) and _beyond_margin(-theta1, -theta2)


def test_admissible_matches_root_oracle_on_random_coefficients():
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(4000):
        p, q = rng.integers(0, 3, size=2)
        phi = rng.uniform(-2.2, 2.2, size=p)
        theta = rng.uniform(-2.2, 2.2, size=q)
        moduli = [min_root_modulus_oracle(c, s) for c, s in ((phi, -1.0), (theta, 1.0))]
        # Skip cases the two computations cannot both resolve: a root
        # within rounding of the margin.
        if any(abs(r / ROOT_MARGIN - 1.0) < 1e-12 for r in moduli if np.isfinite(r)):
            continue
        # oracle_admissible, on the moduli just computed.
        assert admissible(phi, theta) == all(r > ROOT_MARGIN for r in moduli), (phi, theta)
        checked += 1
    assert checked > 3900


def coefficients_from_roots(roots):
    # (1 - z/r1)(1 - z/r2) = 1 - c1 z - c2 z^2 with c1 = 1/r1 + 1/r2,
    # c2 = -1/(r1 r2); conjugate pairs give real coefficients.
    inv = [1.0 / r for r in roots]
    c1 = sum(inv)
    c2 = -np.prod(inv) if len(inv) == 2 else 0.0
    return np.real(np.array([c1, c2][:len(roots)]))


@pytest.mark.parametrize("scale", [1.0 - 1e-9, 1.0 + 1e-9])
def test_admissible_decides_roots_placed_at_the_margin(scale):
    r = ROOT_MARGIN * scale
    outside = scale > 1.0
    # No double real root: rounding its coefficients moves it by ~sqrt(eps),
    # far more than 1e-9, so no float test can decide it.
    for roots in ([r], [-r], [r, 5.0], [-r, -3.0], [r, -r],
                  [r * np.exp(0.7j), r * np.exp(-0.7j)],
                  [r * np.exp(2.5j), r * np.exp(-2.5j)]):
        c = coefficients_from_roots(roots)
        assert oracle_admissible(c, []) is outside
        assert admissible(c, np.zeros(0)) is outside, roots
        # The MA side is 1 + theta1 z + theta2 z^2.
        assert admissible(np.zeros(0), -c) is outside, roots


def test_admissible_rejects_non_finite_and_huge_coefficients():
    for bad in (np.nan, np.inf, -np.inf, 1e300, -1e300):
        assert not admissible(np.array([bad]), np.zeros(0))
        assert not admissible(np.array([0.1, bad]), np.zeros(0))
        assert not admissible(np.zeros(0), np.array([bad]))
        assert not admissible(np.zeros(0), np.array([bad, 0.1]))
        assert not admissible(np.array([bad, bad]), np.array([bad, bad]))
    assert admissible(np.zeros(0), np.zeros(0))


def arma_history(seed, d, n=60):
    # ARMA(1, 2) noise (phi 0.4, theta 0.6 and 0.3), integrated d times.
    rng = np.random.default_rng(seed)
    z = lfilter([1.0, 0.6, 0.3], [1.0, -0.4], rng.standard_normal(n + 20))[20:]
    for _ in range(d):
        z = np.cumsum(z)
    return z


# Golden fits, bit for bit (float.hex): each winner has an MA part, so its
# coefficients come from the simplex search over theta, with phi and the
# mean solved at each vertex.
FIT_ARIMA_PINS = [
    (1, 0, (2, 0, 2),
     ["0x1.6966cd57e6c5ap+0", "-0x1.33a6bc5514e13p-1", "-0x1.1c4c6390172f3p-1",
      "-0x1.c5ed22899e890p-2", "-0x1.495cc839b5187p-2"],
     ["-0x1.88b5c63f62b95p+0", "-0x1.91ead5e9d5ba0p+0", "0x1.6c69f8e030220p-5",
      "-0x1.62dc8319fba65p-2"]),
    (0, 1, (1, 1, 1),
     ["0x1.57772897338ccp-1", "0x1.57e4ea0000002p-2", "0x0.0p+0"],
     ["0x1.39d74bcdfb8d0p+1", "0x1.0fb9089d90fe2p+1", "0x1.3e781dad504a6p+5"]),
    (0, 2, (1, 2, 1),
     ["0x1.5c89e3be0031bp-1", "0x1.528333999999ap-2", "0x0.0p+0"],
     ["0x1.39d74bcdfb800p+1", "0x1.0f671979f8beap+1", "0x1.23f3897c7ca65p+10",
      "0x1.3e781dad504a0p+5"]),
]


@pytest.mark.parametrize("seed, d, orders, params, state", FIT_ARIMA_PINS)
def test_fit_arima_reproduces_pinned_fits(seed, d, orders, params, state):
    model = fit_arima(arma_history(seed, d), ARIMA_CONFIG)
    assert model.orders == orders
    assert [v.hex() for v in model.params.tolist()] == params
    assert [v.hex() for v in model.state.tolist()] == state


def test_ma_search_never_ends_above_its_ar_start():
    # The simplex starts at theta = 0, where the solve is the AR(p) fit on
    # the candidate's samples, and returns the best vertex it evaluated.
    ball = quantize_to_resolution(ball_series(1), 1.9).values
    histories = [ball[s:s + 50] for s in range(20, 2750, 100)]
    histories += [np.cumsum(np.random.default_rng(seed).standard_normal(50))
                  for seed in range(20, 30)]
    pairs = sorted({(p, q) for p, _, q in ARIMA_CONFIG.order_grid if q})
    checked = 0
    for x in histories:
        scaled, _ = _unit_scaled(x)
        for d in (0, 1):
            z = np.diff(scaled, n=d)
            for p, q in pairs:
                fitted = _fit_candidate(z, p, q, d == 0, ARIMA_CONFIG)
                if fitted is None:
                    continue
                solve = _profiled_css(z, p, q, d == 0)
                start = solve([0.0] * q)
                if start is not None:
                    assert solve(fitted[1].tolist())[0] <= start[0], (p, d, q)
                    checked += 1
    assert checked > 400


def profiled_mean_cases():
    # (z, phi, theta): random admissible coefficients on ARMA data with a
    # mean, AR parts near the unit-root margin (a real root at 1.002 and a
    # complex pair of modulus 1.0015), pure MA (p = 0) and a constant history.
    rng = np.random.default_rng(71)
    cases = []
    while len(cases) < 40:
        p, q = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        phi, theta = rng.uniform(-1.5, 1.5, p), rng.uniform(-1.5, 1.5, q)
        if not admissible(phi, theta):
            continue
        z = 3.0 + lfilter([1.0, 0.5], [1.0, -0.6], rng.standard_normal(50)) * 10.0 ** rng.uniform(-3, 3)
        cases.append((z, phi.tolist(), theta.tolist()))
    walk = np.cumsum(rng.standard_normal(50))
    cases.append((walk, [1.0 / 1.002], [0.3]))
    r = 1.0015
    cases.append((walk, [2.0 * math.cos(0.4) / r, -1.0 / r ** 2], [-0.5, 0.2]))
    cases.append((walk, [], [0.9]))
    cases.append((np.full(50, 3.0), [0.5], [0.4]))
    cases.append((np.full(50, 0.1), [], [0.4, -0.2]))  # its mean is not 0.1
    return cases


def assert_least_css(z, phi, theta, mu, sse, with_mean):
    # ``sse`` is the CSS sum at (phi, theta, mu), and a step of 1e-6 in one
    # AR coefficient, or in the mean (scaled by the history), never lowers it.
    e = css_residuals(z, phi, theta, mu)
    least = float(e @ e)
    scale = float(np.max(np.abs(z)))
    # An exact fit sums rounding errors of the residuals alone.
    assert math.isclose(sse, least, rel_tol=1e-10, abs_tol=len(z) * (1e-15 * scale) ** 2)
    moves = [(phi[:i] + [phi[i] + step] + phi[i + 1:], mu)
             for i in range(len(phi)) for step in (-1e-6, 1e-6)]
    if with_mean:
        moves += [(phi, mu + step * scale) for step in (-1e-6, 1e-6)]
    # Near the unit root phi(1) is tiny and so is the sum's curvature in the
    # mean: there moving it is a change within the sum's own rounding.
    for moved_phi, moved_mu in moves:
        moved = css_residuals(z, moved_phi, theta, moved_mu)
        assert float(moved @ moved) >= least * (1.0 - 1e-14)


@pytest.mark.parametrize("case", range(len(profiled_mean_cases())))
def test_theta_objective_is_the_least_css_sum_at_its_phi_and_mean(case):
    z, phi, theta = profiled_mean_cases()[case]
    fit = _profiled_css(z, len(phi), len(theta), True)(theta)
    if phi and np.ptp(z) == 0.0:
        # A flat history leaves no AR lag to solve for: a refused vertex.
        assert fit is None
        return
    sse, phi, mu = fit
    assert_least_css(z, phi, theta, mu, sse, with_mean=True)


def test_unmeaned_theta_objective_is_the_least_css_sum_at_zero():
    rng = np.random.default_rng(73)
    z = rng.standard_normal(60)
    sse, phi, mu = _profiled_css(z, 2, 1, False)([0.5])
    assert mu == 0.0
    assert_least_css(z, phi, [0.5], 0.0, sse, with_mean=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("history", [np.full(60, 3.0), np.repeat([3.0, 3.5], 30),
                                     np.arange(60.0)])
@pytest.mark.parametrize("grid", [((1, 0, 1), (2, 0, 2)), ((1, 1, 1), (2, 1, 2)),
                                  ((1, 0, 0), (2, 0, 0)), ((1, 1, 0), (2, 1, 0))])
def test_fit_arima_on_flat_stretches_with_ar_lags_gives_a_model_or_fit_error(history, grid):
    # Flat (or, differenced, constant) lag rows make the AR part's Gram
    # matrix singular at every vertex, and at a pure AR pair's one solve.
    try:
        model = fit_arima(history, FitConfig(method="arima", order_grid=grid))
    except FitError:
        return
    assert np.all(np.isfinite(forecast(model, 5)))


def test_fit_arima_refuses_a_pure_ar_fit_on_a_flat_history():
    # Every lag row equals the ones column: the AR coefficient is not
    # determined, so the candidate is refused rather than given a
    # minimum-norm solution.
    with pytest.raises(FitError):
        fit_arima(np.full(60, 3.0), FitConfig(method="arima", order_grid=((1, 0, 0),)))
