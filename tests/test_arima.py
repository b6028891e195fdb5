from __future__ import annotations

import hashlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from sensorcast.datasets import ball_series
from sensorcast.forecast.arima import (
    _PACF_BOUND,
    ROOT_MARGIN,
    _beyond_margin,
    _fit_candidate,
    _ma_from_pacf,
    _pacf_least_squares,
    _profiled_css,
    choose_differencing,
    css_residuals,
    fit_arima,
)
from sensorcast.forecast.filters import all_pole
from sensorcast.forecast.models import (FULL_ORDER_GRID, FitConfig, FitError, MethodKind,
                                        _unit_scaled)
from sensorcast.forecast.optimize import SimplexResult
from sensorcast.forecast.selection import forecast
from sensorcast.series import quantize_to_resolution

from conftest import SHAPES, make_ar1, nelder_mead_array_oracle, shaped, yule_walker_ar1

ARIMA_CONFIG = FitConfig(method="arima")
# By name, because the package attribute ``sensorcast.forecast`` is the
# forecast() function.
ARIMA_MODULE = importlib.import_module("sensorcast.forecast.arima")


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


@pytest.mark.parametrize("values, d", [([5.0], 0), ([1.0, 2.0], 0),
                                       (np.arange(3.0), 1), (np.arange(4.0), 1)])
def test_choose_differencing_stops_where_the_next_difference_is_too_short(values, d):
    # The next difference would leave fewer than 2 values: the depth
    # reached stands, and a longer line gets the same answer.
    assert choose_differencing(values) == d


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
    assert m.estimates[-1] == 0.0  # no drift term at d >= 1
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
        assert m.estimates[0] == pytest.approx(0.6, abs=0.15)


def test_fit_arima_estimates_are_admissible():
    rng = np.random.default_rng(47)
    for seed in range(5):
        x = np.cumsum(rng.standard_normal(150))
        m = fit_arima(x, ARIMA_CONFIG)
        p, d, q = m.orders
        phi, theta = m.estimates[:p], m.estimates[p:p + q]
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
    assert (p, d, q) == (2, 0, 1)
    assert len(m.state) == max(p, q) + d
    # The state is the last p - q differenced observations, then the first
    # q forecasts, which carry the MA part.
    np.testing.assert_array_equal(m.state[:p - q], x[-(p - q):])
    np.testing.assert_array_equal(m.state[p - q:], forecast(m, q))


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
    np.testing.assert_array_equal(a.estimates, b.estimates)


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
    assert base.orders == model.orders == (2, 0, 2)
    assert [v.hex() for v in model.estimates[:4].tolist()] == \
        [v.hex() for v in base.estimates[:4].tolist()]
    np.testing.assert_array_equal(model.estimates[4:], np.ldexp(base.estimates[4:], exponent))
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
# coefficients come from a search over theta (Levenberg-Marquardt at q = 2,
# the simplex at q = 1), with phi and the mean solved at each trial.  The estimates are phi, theta and the mean;
# a model ships phi and, at d = 0, the mean, then the (p - q)+ last values,
# the q first forecasts and the d anchors.
FIT_ARIMA_PINS = [
    (1, 0, (2, 0, 2),
     ["0x1.6966cd19b2451p+0", "-0x1.33a6bbdfe8efdp-1", "-0x1.1c4c61544231fp-1",
      "-0x1.c5ed234725a7cp-2", "-0x1.495cc831f08eep-2"],
     ["0x1.6966cd19b2451p+0", "-0x1.33a6bbdfe8efdp-1", "-0x1.495cc831f08eep-2"],
     ["-0x1.2ec9722649cc1p+0", "-0x1.44645984f5d74p-1"]),
    (0, 1, (1, 1, 1),
     ["0x1.57772897338ccp-1", "0x1.57e4ea0000002p-2", "0x0.0p+0"],
     ["0x1.57772897338ccp-1"],
     ["0x1.2dc9bea197c78p+1", "0x1.3e781dad504a6p+5"]),
    (0, 2, (1, 2, 1),
     ["0x1.5c89e3be0031bp-1", "0x1.528333999999ap-2", "0x0.0p+0"],
     ["0x1.5c89e3be0031bp-1"],
     ["0x1.2f5d294192060p+1", "0x1.23f3897c7ca65p+10", "0x1.3e781dad504a0p+5"]),
]


@pytest.mark.parametrize("seed, d, orders, estimates, params, state", FIT_ARIMA_PINS)
def test_fit_arima_reproduces_pinned_fits(seed, d, orders, estimates, params, state):
    model = fit_arima(arma_history(seed, d), ARIMA_CONFIG)
    assert model.orders == orders
    assert [v.hex() for v in model.estimates.tolist()] == estimates
    assert [v.hex() for v in model.params.tolist()] == params
    assert [v.hex() for v in model.state.tolist()] == state


def pinned_grid_histories():
    # Quantized ball windows at the bench's history lengths, and seeded
    # walks integrated 0, 1 and 2 times at the same lengths.
    ball = quantize_to_resolution(ball_series(1), 1.9).values
    histories = [ball[s:s + h] for h in (20, 50, 200) for s in range(30, 2400, 400)]
    rng = np.random.default_rng(83)
    for d in range(3):
        for n in (20, 50, 200):
            z = rng.standard_normal(n)
            for _ in range(d):
                z = np.cumsum(z)
            histories.append(z)
    return histories


def test_fit_arima_full_grid_fits_are_pinned():
    # Every winner of the default grid, bit for bit: its orders, estimates,
    # params, state and likelihood.  The histories choose each d, so the
    # solve meets every regressor count p + [d = 0] from 0 to 3.
    digest = hashlib.sha256()
    depths = set()
    for x in pinned_grid_histories():
        model = fit_arima(x, ARIMA_CONFIG)
        depths.add(model.orders[1])
        floats = [*model.estimates.tolist(), *model.params.tolist(),
                  *model.state.tolist(), model.neg2_loglik]
        digest.update(repr((model.orders, [v.hex() for v in floats])).encode())
    assert depths == {0, 1, 2}
    assert digest.hexdigest() == (
        "de4c3143688b8e68d2bd5ab4a530bac6d2b2f8e8de55913d363d60a4a8b64854")


def full_recursion_oracle(x, model, n_steps):
    # The ARIMA forecast from phi, theta, the mean and the last q residuals:
    # the ARMA recursion over every step, with future shocks at their mean,
    # then integrated by the anchors.  The residuals and the last values
    # come from the scaled history, as the fit takes them.
    p, d, q = model.orders
    phi, theta = model.estimates[:p], model.estimates[p:p + q]
    mu = model.estimates[p + q]
    scaled, exponent = _unit_scaled(x)
    z = np.diff(scaled, n=d)
    resid = css_residuals(z, phi, theta, np.ldexp(mu, -exponent))
    z_hist = list(np.ldexp(z[len(z) - p:], exponent))
    e_hist = list(np.ldexp(resid[len(resid) - q:], exponent))
    anchors = np.ldexp([np.diff(scaled, n=i)[-1] for i in range(d)], exponent)
    out = np.empty(n_steps)
    for step in range(n_steps):
        acc = mu
        for i in range(p):
            acc += phi[i] * (z_hist[-1 - i] - mu)
        for j in range(q):
            acc += theta[j] * e_hist[-1 - j]
        out[step] = acc
        z_hist.append(acc)
        e_hist.append(0.0)
    for level in range(d - 1, -1, -1):
        out = anchors[level] + np.cumsum(out)
    return out


def oracle_histories():
    rng = np.random.default_rng(79)
    walks = [rng.standard_normal(60).cumsum() for _ in range(4)]
    walks += [walk.cumsum() for walk in walks[:2]]
    ball = quantize_to_resolution(ball_series(2).slice(0, 400), 0.5).values
    return walks + [ball[start:start + 50] for start in range(0, 350, 70)]


@pytest.mark.parametrize("order", FULL_ORDER_GRID, ids=str)
def test_forecast_from_shipped_floats_is_the_full_recursion(order):
    # A model ships the q first forecasts in place of theta and the
    # residuals; from there on the AR recursion gives, bit for bit, what
    # the whole ARMA recursion gives (a zero's sign aside: the MA terms
    # add theta * 0.0 past step q).
    config = FitConfig(method="arima", order_grid=(order,))
    checked = 0
    for x in oracle_histories():
        try:
            model = fit_arima(x, config)
        except FitError:
            continue
        got = forecast(model, 25) + 0.0
        want = full_recursion_oracle(x, model, 25) + 0.0
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        checked += 1
    assert checked >= 6


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
                    assert solve(fitted[1])[0] <= start[0], (p, d, q)
                    checked += 1
    assert checked > 400


def test_no_theta_is_solved_twice_in_one_pair(monkeypatch):
    # Each pair builds its solve once; every theta its search tries, the
    # start and the end among them, reaches that solve at most once.
    solved = []

    def recording_profiled_css(z, p, q, with_mean):
        solve, thetas = _profiled_css(z, p, q, with_mean), []
        solved.append(((p, q), thetas))

        def recorded(theta):
            thetas.append(tuple(theta))
            return solve(theta)

        return recorded

    monkeypatch.setattr(ARIMA_MODULE, "_profiled_css", recording_profiled_css)
    for x in pinned_grid_histories():
        fit_arima(x, ARIMA_CONFIG)
    assert {pair for pair, _ in solved} == {(p, q) for p, _, q in ARIMA_CONFIG.order_grid
                                            if p or q}
    for pair, thetas in solved:
        assert len(set(thetas)) == len(thetas), pair


def fake_search_end(monkeypatch, theta):
    # Both searches end on ``theta`` (at q = 2, on the r that maps to it),
    # whatever their objective says.
    def nelder_mead(fn, x0, *, max_evals):
        return SimplexResult(x=np.array(theta[:1]), fun=fn(theta[:1]), n_evals=1)

    def gauss_newton(residuals, jacobian_gram, x0, lo, hi, *, max_trials):
        return list(pacf_from_ma(*theta))

    monkeypatch.setattr(ARIMA_MODULE, "nelder_mead", nelder_mead)
    monkeypatch.setattr(ARIMA_MODULE, "gauss_newton", gauss_newton)


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("q", [1, 2])
def test_a_search_ending_above_its_ar_start_takes_the_ar_fit(monkeypatch, p, q):
    z, _ = _unit_scaled(arma_history(5, 0))
    theta = [-0.9, 0.05][:q]
    solve = _profiled_css(z, p, q, True)
    start, end = solve([0.0] * q), solve(theta)
    assert end is not None and end[0] > start[0]
    fake_search_end(monkeypatch, theta)
    assert _fit_candidate(z, p, q, True, ARIMA_CONFIG) == (start[1], [0.0] * q, start[2])


@pytest.mark.parametrize("q", [1, 2])
def test_a_search_ending_refused_at_a_refused_start_refuses_the_pair(monkeypatch, q):
    # Lag rows of a flat history are the ones column: every solve refuses.
    z = np.full(40, 0.75)
    theta = [0.5, 0.2][:q]
    solve = _profiled_css(z, 1, q, True)
    assert solve([0.0] * q) is None and solve(theta) is None
    fake_search_end(monkeypatch, theta)
    assert _fit_candidate(z, 1, q, True, ARIMA_CONFIG) is None


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
    sse, phi, mu, *_ = fit
    assert_least_css(z, phi, theta, mu, sse, with_mean=True)


def test_unmeaned_theta_objective_is_the_least_css_sum_at_zero():
    rng = np.random.default_rng(73)
    z = rng.standard_normal(60)
    sse, phi, mu, *_ = _profiled_css(z, 2, 1, False)([0.5])
    assert mu == 0.0
    assert_least_css(z, phi, [0.5], 0.0, sse, with_mean=False)


def profiled_solve_oracle(z, p, q, with_mean, theta):
    # ``_profiled_css(z, p, q, with_mean)(theta)`` with the symmetric
    # elimination as a loop over the Gram matrix's upper triangle.
    n, start = len(z), max(p, q)
    zbar = float(np.mean(z)) if with_mean else 0.0
    zc = z - zbar
    rows = np.stack([zc[start - i:n - i] for i in range(1, p + 1)]
                    + ([np.ones(n - start)] if with_mean else []) + [zc[start:]])
    k = len(rows) - 1
    theta1, theta2 = theta + [0.0] * (2 - q)
    if not _beyond_margin(-theta1, -theta2):
        return None
    f = all_pole([1.0, *theta], rows) if q else rows
    gram = f.dot(f.T).tolist()
    diagonal = [gram[j][j] for j in range(k)]
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


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(shape=st.sampled_from(SHAPES), n=st.integers(12, 200), seed=st.integers(0, 2**32 - 1),
       orders=st.sampled_from([(p, q) for p in range(3) for q in range(3) if p or q]),
       with_mean=st.booleans(), theta=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2))
def test_profiled_solve_is_the_elimination_loop_bit_for_bit(shape, n, seed, orders, with_mean,
                                                             theta):
    # Theta is drawn inside and outside the MA triangle; either both sides
    # refuse, or the sum of squares, phi and the mean agree to the bit.
    p, q = orders
    z = shaped(shape, n, np.random.default_rng(seed))
    got = _profiled_css(z, p, q, with_mean)(theta[:q])
    want = profiled_solve_oracle(z, p, q, with_mean, theta[:q])
    if want is None:
        assert got is None
        return
    sse, phi, mu = want
    assert got is not None
    assert [v.hex() for v in [got[0], *got[1], got[2]]] == [v.hex() for v in [sse, *phi, mu]]


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


def pacf_from_ma(theta1, theta2):
    # The inverse of _ma_from_pacf: r2 = -m^2 theta_2, r1 = -m theta_1 / (1 - r2).
    r2 = -theta2 * ROOT_MARGIN ** 2
    return -theta1 * ROOT_MARGIN / (1.0 - r2), r2


def within_ulps(got, want, ulps):
    return abs(got - want) <= ulps * math.ulp(want)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(r1=st.floats(-_PACF_BOUND, _PACF_BOUND), r2=st.floats(-_PACF_BOUND, _PACF_BOUND))
@example(r1=_PACF_BOUND, r2=_PACF_BOUND)
@example(r1=-_PACF_BOUND, r2=_PACF_BOUND)
@example(r1=_PACF_BOUND, r2=-_PACF_BOUND)
@example(r1=-_PACF_BOUND, r2=-_PACF_BOUND)
def test_every_pacf_in_the_box_maps_to_an_admissible_theta(r1, r2):
    theta1, theta2 = _ma_from_pacf(r1, r2)
    assert _beyond_margin(-theta1, -theta2)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(a2=st.floats(-1.0, 1.0), share=st.floats(-1.0, 1.0))
@example(a2=0.0, share=0.0)
@example(a2=1.0 - 1e-6, share=0.999)
@example(a2=-1.0 + 2e-9, share=-1.0 + 1e-9)
def test_every_theta_inside_the_triangle_maps_back_into_the_box(a2, share):
    # a = (m c1, m^2 c2) for c = -theta, drawn across the margin-scaled
    # triangle, at least 1e-9 inside each edge.
    a1 = share * (1.0 - a2)
    assume(abs(a2) < 1.0 - 1e-9 and a1 + a2 < 1.0 - 1e-9 and a2 - a1 < 1.0 - 1e-9)
    theta1, theta2 = -a1 / ROOT_MARGIN, -a2 / ROOT_MARGIN ** 2
    assert _beyond_margin(-theta1, -theta2)
    r1, r2 = pacf_from_ma(theta1, theta2)
    assert -1.0 < r1 < 1.0 and -1.0 < r2 < 1.0
    back1, back2 = _ma_from_pacf(r1, r2)
    assert within_ulps(back1, theta1, 4) and within_ulps(back2, theta2, 4)


def pacf_problem_data(p, with_mean, seed):
    # ARMA(1, 2) data, unit-scaled, differenced once when there is no mean.
    z, _ = _unit_scaled(arma_history(seed, 0 if with_mean else 1))
    return z if with_mean else np.diff(z)


@pytest.mark.parametrize("with_mean", [True, False])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_projected_jacobian_matches_finite_differences(p, with_mean):
    # At interior r: 2 J'e is the gradient of solve's sum of squares (the
    # projection drops only a term orthogonal to e), and J'J is the Gram of
    # the central-difference Jacobian of e, projected off the filtered
    # regressors A.
    rng = np.random.default_rng(89 + p)
    for seed in range(3):
        z = pacf_problem_data(p, with_mean, seed)
        solve = _profiled_css(z, p, 2, with_mean)
        for r in rng.uniform(-0.8, 0.8, size=(4, 2)).tolist():
            residuals, jacobian_gram = _pacf_least_squares(z, p, with_mean, solve)
            e = residuals(r)
            gram = np.array(jacobian_gram(r, e))
            a = solve(_ma_from_pacf(*r))[4][:-1]
            h = 1e-6
            fd_grad, fd_jac = [], []
            for i in range(2):
                up, down = list(r), list(r)
                up[i] += h
                down[i] -= h
                fd_grad.append((solve(_ma_from_pacf(*up))[0]
                                - solve(_ma_from_pacf(*down))[0]) / (2 * h))
                fd_jac.append((residuals(up) - residuals(down)) / (2 * h))
            np.testing.assert_allclose(2.0 * gram[:2, 2], fd_grad, rtol=1e-5,
                                       atol=1e-7 * float(e @ e))
            jac = np.array(fd_jac)
            if len(a):
                jac = jac - np.linalg.lstsq(a.T, jac.T, rcond=None)[0].T @ a
            np.testing.assert_allclose(gram[:2, :2], jac @ jac.T, rtol=1e-5,
                                       atol=1e-7 * float(np.max(np.abs(gram[:2, :2]))))
            assert gram[2][2] == pytest.approx(float(e @ e), rel=1e-12)


def simplex_from_zero(z, p, q, with_mean, config):
    # The q = 2 search before Levenberg-Marquardt: the simplex over theta
    # from theta = 0, an inadmissible or refused vertex penalized.
    solve = _profiled_css(z, p, q, with_mean)

    def sse(theta):
        fit = solve(theta)
        return 1e30 * (1.0 + sum(abs(v) for v in theta)) if fit is None else fit[0]

    theta, _, _ = nelder_mead_array_oracle(lambda v: sse(v.tolist()), [0.0] * q,
                                           config.max_evals)
    return solve(theta.tolist())


def test_ma2_search_ends_better_at_least_as_often_as_the_simplex():
    # Over the q = 2 candidates of the pinned histories, at each one's
    # variance-rule d: the search refuses the same candidates as the simplex
    # from theta = 0, and no more of them end worse (by a relative 1e-6 in
    # the solve's own sum) than end better.  At this writing 10 end
    # better, 10 worse and 61 within 1e-6.
    better = worse = 0
    for x in pinned_grid_histories():
        scaled, _ = _unit_scaled(x)
        d = choose_differencing(scaled, [dd for _, dd, _ in ARIMA_CONFIG.order_grid])
        z = np.diff(scaled, n=d)
        for p in range(3):
            fitted = _fit_candidate(z, p, 2, d == 0, ARIMA_CONFIG)
            simplex = simplex_from_zero(z, p, 2, d == 0, ARIMA_CONFIG)
            assert (fitted is None) == (simplex is None), (p, d)
            if fitted is None:
                continue
            sse = _profiled_css(z, p, 2, d == 0)(fitted[1])[0]
            change = (sse - simplex[0]) / simplex[0]
            better += change < -1e-6
            worse += change > 1e-6
    assert worse <= better, (better, worse)
