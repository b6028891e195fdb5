from __future__ import annotations

import numpy as np
import pytest

from sensorcast.forecast.models import FitConfig, FitError, MethodKind
from sensorcast.forecast.selection import forecast
from sensorcast.forecast.smoothing import (
    fit_exponential_smoothing,
    simple_errors,
    trend_errors,
)

ES_CONFIG = FitConfig(method="exponential_smoothing")


def simple_errors_oracle(values, alpha):
    # Plain-loop reference; the production code runs the equivalent
    # ARIMA(0,1,1) filter over first differences.
    level = values[0]
    errors = []
    for x in values[1:]:
        errors.append(x - level)
        level = alpha * x + (1.0 - alpha) * level
    return np.array(errors), level


def trend_errors_oracle(values, alpha, beta):
    # Textbook component form; the production code runs the equivalent
    # ARIMA(0,2,2) filter over second differences.
    level = values[0]
    trend = values[1] - values[0]
    errors = []
    for x in values[1:]:
        prev_level = level
        pred = level + trend
        errors.append(x - pred)
        level = alpha * x + (1.0 - alpha) * pred
        trend = beta * (level - prev_level) + (1.0 - beta) * trend
    return np.array(errors), level, trend


def oracle_inputs(short, seed):
    # The short series and a 1000-step walk, each at unit scale and at the
    # extremes of float64; gaps are judged relative to the largest magnitude.
    long = np.random.default_rng(seed).standard_normal(1000).cumsum()
    for values in (short, long):
        for scale in (1.0, 1e200, 1e-200):
            yield values * scale, 1e-11 * scale * np.abs(values).max()


def test_simple_errors_match_loop_oracle():
    rng = np.random.default_rng(17)
    for values, tol in oracle_inputs(rng.standard_normal(60).cumsum(), 19):
        for alpha in (0.01, 0.2, 0.55, 0.99, 1.0):
            got_err, got_level = simple_errors(values, alpha)
            exp_err, exp_level = simple_errors_oracle(values, alpha)
            np.testing.assert_allclose(got_err, exp_err, rtol=0, atol=tol)
            assert got_level == pytest.approx(exp_level, rel=0, abs=tol)


def test_simple_errors_alpha_one_tracks_last_value():
    values = np.array([3.0, 7.0, 2.0, 9.0])
    errors, level = simple_errors(values, 1.0)
    np.testing.assert_array_equal(errors, np.diff(values))
    assert level == values[-1]


def test_trend_errors_match_component_oracle():
    rng = np.random.default_rng(23)
    short = 5.0 + 0.3 * np.arange(50) + rng.standard_normal(50)
    for values, tol in oracle_inputs(short, 29):
        for alpha, beta in ((0.1, 0.1), (0.5, 0.05), (0.99, 0.99), (0.01, 0.01),
                            (1.0, 0.3)):
            got_err, got_l, got_b = trend_errors(values, alpha, beta)
            exp_err, exp_l, exp_b = trend_errors_oracle(values, alpha, beta)
            np.testing.assert_allclose(got_err, exp_err, rtol=0, atol=tol)
            assert got_l == pytest.approx(exp_l, rel=0, abs=tol)
            assert got_b == pytest.approx(exp_b, rel=0, abs=tol)


def test_trend_variant_nails_a_noiseless_line():
    line = 2.0 + 0.5 * np.arange(30.0)
    m = fit_exponential_smoothing(line, ES_CONFIG)
    assert m.orders == (2, 0, 0)
    np.testing.assert_allclose(m.state, [16.5, 0.5], rtol=0, atol=1e-9)
    np.testing.assert_allclose(forecast(m, 3), [17.0, 17.5, 18.0],
                               rtol=0, atol=1e-9)


def test_level_only_variant_wins_on_flat_noise():
    rng = np.random.default_rng(5)
    flat = 10.0 + 0.3 * rng.standard_normal(80)
    m = fit_exponential_smoothing(flat, ES_CONFIG)
    assert m.kind is MethodKind.EXPONENTIAL_SMOOTHING
    assert m.orders == (1, 0, 0)
    assert m.k == 2
    # Small weight: the fitted level averages across the noise.
    assert m.params[0] < 0.5
    assert forecast(m, 1)[0] == pytest.approx(10.0, abs=0.5)


def test_forced_alpha_one_reduces_to_last_value():
    rng = np.random.default_rng(29)
    values = rng.uniform(-5.0, 5.0, size=40)
    cfg = FitConfig(method="exponential_smoothing",
                    es_variants=("simple",), es_alpha_grid=(1.0,))
    m = fit_exponential_smoothing(values, cfg)
    assert m.params[0] == 1.0
    assert m.state[0] == values[-1]
    np.testing.assert_array_equal(forecast(m, 5), np.full(5, values[-1]))


def test_explicit_grid_is_respected_exactly():
    values = np.arange(20.0) ** 1.5
    cfg = FitConfig(method="exponential_smoothing",
                    es_variants=("simple",), es_alpha_grid=(0.3,))
    m = fit_exponential_smoothing(values, cfg)
    assert m.params[0] == 0.3


def test_variant_restriction_is_honored():
    rng = np.random.default_rng(31)
    values = rng.standard_normal(30).cumsum()
    only_trend = fit_exponential_smoothing(
        values, FitConfig(method="exponential_smoothing", es_variants=("trend",)))
    assert only_trend.orders == (2, 0, 0)
    assert only_trend.k == 4
    only_simple = fit_exponential_smoothing(
        values, FitConfig(method="exponential_smoothing", es_variants=("simple",)))
    assert only_simple.orders == (1, 0, 0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(37)
    values = rng.standard_normal(50).cumsum()
    a = fit_exponential_smoothing(values, ES_CONFIG)
    b = fit_exponential_smoothing(values, ES_CONFIG)
    np.testing.assert_array_equal(a.params, b.params)
    np.testing.assert_array_equal(a.state, b.state)
    assert a.orders == b.orders


def test_minimum_history_enforced():
    with pytest.raises(FitError):
        fit_exponential_smoothing(np.array([1.0, 2.0, 3.0]), ES_CONFIG)
    # Four observations is the floor and must fit.
    m = fit_exponential_smoothing(np.array([1.0, 2.0, 3.0, 4.0]), ES_CONFIG)
    assert m.fit_n == 4


def test_budget_zero_still_fits():
    rng = np.random.default_rng(41)
    values = rng.standard_normal(25)
    m = fit_exponential_smoothing(
        values, FitConfig(method="exponential_smoothing", budget=0))
    assert m.orders in ((1, 0, 0), (2, 0, 0))
    assert np.isfinite(forecast(m, 3)).all()


@pytest.mark.parametrize("variant", ["simple", "trend"])
def test_weights_do_not_depend_on_the_scale(variant):
    # At 2**600 every squared error overflows and at 2**-600 it underflows;
    # the weight search must still pick the unit-scale weights, bit for bit.
    values = np.random.default_rng(1).standard_normal(50).cumsum()
    config = FitConfig(method="exponential_smoothing", es_variants=(variant,))
    unit = fit_exponential_smoothing(values, config)
    for scale in (2.0 ** 600, 2.0 ** -600):
        with np.errstate(over="ignore"):
            scaled = fit_exponential_smoothing(values * scale, config)
        assert [v.hex() for v in scaled.params.tolist()] == \
            [v.hex() for v in unit.params.tolist()], scale
