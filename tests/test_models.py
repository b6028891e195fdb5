from __future__ import annotations

import numpy as np
import pytest

from sensorcast.forecast.models import (
    FULL_ORDER_GRID,
    FitConfig,
    FitError,
    ForecastModel,
    MethodKind,
    aicc,
    gaussian_neg2_loglik,
)
from sensorcast.forecast.selection import fit_constant, fit_model, forecast

LINEAR = FitConfig(method="linear")
SIMPLE_MEAN = FitConfig(method="simple_mean")


def test_method_kind_coerce():
    assert MethodKind.coerce("arima") is MethodKind.ARIMA
    assert MethodKind.coerce(MethodKind.LINEAR) is MethodKind.LINEAR
    with pytest.raises(ValueError, match="unknown method"):
        MethodKind.coerce("ewma")


def test_full_order_grid_enumerates_27_orders():
    assert len(FULL_ORDER_GRID) == 27
    assert len(set(FULL_ORDER_GRID)) == 27
    assert all(0 <= v <= 2 for order in FULL_ORDER_GRID for v in order)


def test_fit_config_validation():
    cfg = FitConfig(method="arima", budget=3)
    assert cfg.method is MethodKind.ARIMA
    assert cfg.max_evals == 27
    # budget 0 still allows one evaluation
    zero = FitConfig(budget=0)
    assert zero.max_evals == 1
    with pytest.raises(ValueError):
        FitConfig(budget=11)
    with pytest.raises(ValueError):
        FitConfig(order_grid=((3, 0, 0),))
    with pytest.raises(ValueError):
        FitConfig(order_grid=())
    with pytest.raises(ValueError):
        FitConfig(es_variants=("holt",))
    with pytest.raises(ValueError):
        FitConfig(es_variants=())
    # Level weights must be finite and in [0, 1], and there must be one.
    assert FitConfig(es_alpha_grid=(0.0, 1.0)).es_alpha_grid == (0.0, 1.0)
    assert FitConfig(es_alpha_grid=(0.9, 0.1, 0.5)).es_alpha_grid == (0.1, 0.5, 0.9)
    for grid in ((), (float("nan"),), (3.0,), (0.5, -0.1), (float("inf"),)):
        with pytest.raises(ValueError):
            FitConfig(es_alpha_grid=grid)


@pytest.mark.parametrize("orders", [(), (1, 1), (1, 1, 1, 0)])
def test_forecast_model_rejects_orders_not_a_triple(orders):
    with pytest.raises(ValueError, match="3-tuple"):
        ForecastModel(kind=MethodKind.ARIMA, orders=orders)


def test_forecast_model_is_an_immutable_tuple_equal_only_to_itself():
    m = ForecastModel("linear", [0, 0, 0], np.array([1.0, 2.0]), estimates=[np.float64(0.5)])
    assert m.orders == (0, 0, 0) and m.params == (1.0, 2.0) and m.state == ()
    assert all(type(v) is float for v in (*m.params, *m.estimates))
    with pytest.raises(AttributeError):
        m.params = (3.0, 4.0)
    with pytest.raises(AttributeError):
        m.extra = 1
    # Equality and hashing are by identity, as for the frozen dataclass
    # with eq=False this replaced: equal floats do not make equal models.
    twin = ForecastModel(*m)
    assert m == m and m != twin and not m == twin and hash(m) != hash(twin)
    assert len({m, twin}) == 2
    # _replace goes through the constructor, so it coerces and checks too.
    replaced = m._replace(params=[np.float64(3.0), 4])
    assert type(replaced) is ForecastModel and replaced.params == (3.0, 4.0)
    assert all(type(v) is float for v in replaced.params)
    with pytest.raises(ValueError, match="3-tuple"):
        m._replace(orders=(1, 1))


def test_forecast_model_round_trips_through_json():
    m = ForecastModel(kind=MethodKind.ARIMA, orders=(1, 1, 1),
                      params=[0.5], state=[1.2, 3.0], estimates=[0.5, -0.2, 0.0],
                      k=3, fit_n=50, neg2_loglik=12.5, loglik_n=48)
    d = m.to_json_dict()
    assert sorted(d) == ["estimates", "fit_n", "k", "kind", "orders", "params", "state"]
    assert d["estimates"] == [0.5, -0.2, 0.0]
    # Diagnostics are fitter-local and must not leak into the wire dict.
    assert "neg2_loglik" not in d


def test_aicc_formula_and_domain():
    # 2k + 2k(k+1)/(n-k-1) on top of the deviance, by hand: k=2, n=10.
    assert aicc(100.0, 2, 10) == pytest.approx(100.0 + 4.0 + 12.0 / 7.0)
    assert aicc(50.0, 0, 2) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        aicc(1.0, 3, 4)
    with pytest.raises(ValueError):
        aicc(1.0, -1, 10)


def test_gaussian_neg2_loglik_matches_closed_form():
    r = np.array([1.0, -1.0, 2.0, -2.0])
    sigma2 = np.mean(r * r)
    expected = len(r) * (np.log(2.0 * np.pi * sigma2) + 1.0)
    assert gaussian_neg2_loglik(r) == pytest.approx(expected, rel=1e-15)
    # All-zero residuals hit the variance floor instead of -inf.
    assert np.isfinite(gaussian_neg2_loglik(np.zeros(5)))
    with pytest.raises(ValueError):
        gaussian_neg2_loglik(np.array([]))


def test_fit_constant_repeats_last_value():
    m = fit_constant([4.0, 9.0, 7.5])
    np.testing.assert_array_equal(forecast(m, 4), [7.5, 7.5, 7.5, 7.5])
    assert m.k == 1 and m.fit_n == 3
    with pytest.raises(FitError):
        fit_constant([])


def test_fit_linear_extends_last_two_points():
    m = fit_model([1.0, 3.0, 5.0, 6.0], LINEAR)
    np.testing.assert_array_equal(forecast(m, 3), [7.0, 8.0, 9.0])
    down = fit_model([10.0, 8.0], LINEAR)
    np.testing.assert_array_equal(forecast(down, 2), [6.0, 4.0])
    with pytest.raises(FitError):
        fit_model([1.0], LINEAR)


def test_fit_simple_mean_repeats_history_mean():
    m = fit_model([1.0, 2.0, 3.0, 6.0], SIMPLE_MEAN)
    np.testing.assert_array_equal(forecast(m, 2), [3.0, 3.0])
    with pytest.raises(FitError):
        fit_model([], SIMPLE_MEAN)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_fits_run_near_the_float_limit():
    history = np.array([1.5e308, -1.5e308, 1.5e308, -1.5e308, 1.0e308])
    linear = fit_model(history[:4], LINEAR)
    assert linear.params == (-1.5e308, -np.inf)
    assert forecast(linear, 2).tolist() == [-np.inf, -np.inf]
    # A finite slope whose multiples pass the largest float.
    rising = forecast(fit_model([0.5e308, 1.0e308], LINEAR), 3)
    assert rising.tolist() == [1.5e308, np.inf, np.inf]
    mean = fit_model(history, SIMPLE_MEAN)
    assert mean.params == (0.2e308,)
    assert forecast(mean, 2).tolist() == [0.2e308, 0.2e308]
    # Bit for bit np.mean wherever that does not overflow.
    walk = np.random.default_rng(3).standard_normal(37).cumsum()
    for scale in (1.0, 1e-300, 1e300):
        assert fit_model(walk * scale, SIMPLE_MEAN).params[0] == np.mean(walk * scale)


def test_forecast_rejects_bad_horizon():
    m = fit_constant([1.0])
    with pytest.raises(ValueError):
        forecast(m, 0)


def test_forecast_shorter_horizon_is_prefix_of_longer():
    histories = [
        fit_constant([2.0, 3.0]),
        fit_model([0.0, 1.5], LINEAR),
        fit_model([4.0, 8.0], SIMPLE_MEAN),
        ForecastModel(kind=MethodKind.ARIMA, orders=(2, 1, 1),
                      params=[0.4, -0.3], state=[0.5, -0.2, 10.0], k=4, fit_n=40),
        ForecastModel(kind=MethodKind.EXPONENTIAL_SMOOTHING, orders=(2, 0, 0),
                      state=[5.0, 0.5], k=4, fit_n=40),
    ]
    for m in histories:
        long = forecast(m, 12)
        short = forecast(m, 5)
        np.testing.assert_array_equal(short, long[:5])


def test_arima_forecast_pure_ar_recursion_by_hand():
    # AR(2), d=0: x_hat = mu + phi1 (z1 - mu) + phi2 (z2 - mu), run forward.
    phi = [0.6, -0.2]
    mu = 1.0
    m = ForecastModel(kind=MethodKind.ARIMA, orders=(2, 0, 0),
                      params=phi + [mu], state=[2.0, 3.0], k=3, fit_n=30)
    got = forecast(m, 3)
    z = [2.0, 3.0]
    expected = []
    for _ in range(3):
        nxt = mu + phi[0] * (z[-1] - mu) + phi[1] * (z[-2] - mu)
        expected.append(nxt)
        z.append(nxt)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_arima_forecast_ma_shocks_die_after_q_steps():
    # MA(1): the first step is the shipped forecast, which carries the last
    # residual (theta 0.7, residual 1.5); afterwards mean only.
    m = ForecastModel(kind=MethodKind.ARIMA, orders=(0, 0, 1),
                      params=[2.0], state=[2.0 + 0.7 * 1.5], k=3, fit_n=30)
    got = forecast(m, 4)
    np.testing.assert_allclose(got, [2.0 + 0.7 * 1.5, 2.0, 2.0, 2.0],
                               rtol=0, atol=1e-15)


def test_arima_forecast_integration_anchors():
    # (0,1,0) with no params: differenced forecast is 0, so the anchor repeats.
    rw = ForecastModel(kind=MethodKind.ARIMA, orders=(0, 1, 0),
                       state=[7.25], k=1, fit_n=20)
    np.testing.assert_array_equal(forecast(rw, 3), [7.25, 7.25, 7.25])

    # (0,2,0): double integration turns zero curvature into a straight line.
    # Anchors: last value 10, last first-difference 2.
    lin = ForecastModel(kind=MethodKind.ARIMA, orders=(0, 2, 0),
                        state=[10.0, 2.0], k=1, fit_n=20)
    np.testing.assert_array_equal(forecast(lin, 3), [12.0, 14.0, 16.0])


def test_exponential_smoothing_forecast_shapes():
    simple = ForecastModel(kind=MethodKind.EXPONENTIAL_SMOOTHING, orders=(1, 0, 0),
                           state=[3.25], k=2, fit_n=20)
    np.testing.assert_array_equal(forecast(simple, 3), [3.25, 3.25, 3.25])

    trend = ForecastModel(kind=MethodKind.EXPONENTIAL_SMOOTHING, orders=(2, 0, 0),
                          state=[3.0, -0.5], k=4, fit_n=20)
    np.testing.assert_array_equal(forecast(trend, 3), [2.5, 2.0, 1.5])


def test_forecast_subpackage_imports_by_dotted_path():
    # The package must not shadow its ``forecast`` subpackage with the
    # function of the same name.
    import sensorcast.forecast.arima as arima_module

    from sensorcast.forecast.arima import fit_arima
    assert arima_module.fit_arima is fit_arima
