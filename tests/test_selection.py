from __future__ import annotations

import numpy as np
import pytest

from sensorcast.forecast.models import FitConfig, FitError, MethodKind
from sensorcast.forecast.selection import METHOD_SPECS, fit_model, min_history

from conftest import make_ar1


def test_min_history_per_method():
    assert min_history(FitConfig(method="constant")) == 1
    assert min_history(FitConfig(method="simple_mean")) == 1
    assert min_history(FitConfig(method="linear")) == 2
    assert min_history(FitConfig(method="exponential_smoothing")) == 4
    assert min_history(FitConfig(method="arima")) == 12
    assert min_history(FitConfig(method="arima", order_grid=((1, 0, 0),))) == 11


def test_fit_model_dispatches_every_method():
    history = make_ar1(0.5, 60, seed=1)
    for name, kind in (
        ("constant", MethodKind.CONSTANT),
        ("linear", MethodKind.LINEAR),
        ("simple_mean", MethodKind.SIMPLE_MEAN),
        ("exponential_smoothing", MethodKind.EXPONENTIAL_SMOOTHING),
        ("arima", MethodKind.ARIMA),
    ):
        model = fit_model(history, FitConfig(method=name))
        assert model.kind is kind
        assert model.fit_n == 60


def test_fit_model_respects_method_minimums():
    with pytest.raises(FitError):
        fit_model(np.array([1.0]), FitConfig(method="linear"))
    with pytest.raises(FitError):
        fit_model(np.arange(3.0), FitConfig(method="exponential_smoothing"))
    with pytest.raises(FitError):
        fit_model(np.arange(5.0), FitConfig(method="arima"))


def test_every_method_has_exactly_one_spec():
    assert list(METHOD_SPECS) == list(MethodKind)
    assert all(isinstance(kind, MethodKind) for kind in METHOD_SPECS)
    assert [spec.holds for spec in METHOD_SPECS.values()] == [
        kind is MethodKind.CONSTANT for kind in METHOD_SPECS]


def test_wire_codes_are_pinned():
    # Codes are on the wire: changing one breaks every deployed decoder.
    codes = {kind.value: spec.code for kind, spec in METHOD_SPECS.items()}
    assert codes == {"constant": 0, "linear": 1, "simple_mean": 2,
                     "exponential_smoothing": 3, "arima": 4}


def test_payload_sizes_match_fitted_models():
    history = make_ar1(0.5, 60, seed=4)
    configs = [FitConfig(method=kind) for kind in MethodKind]
    configs += [FitConfig(method="exponential_smoothing", es_variants=("simple",)),
                FitConfig(method="exponential_smoothing", es_variants=("trend",)),
                FitConfig(method="arima", order_grid=((2, 1, 1),))]
    for config in configs:
        model = fit_model(history, config)
        sizes = METHOD_SPECS[model.kind].payloads[model.orders]
        assert sizes == (len(model.params), len(model.state)), (config, model.orders)


@pytest.mark.parametrize("config", [
    FitConfig(method="constant"),
    FitConfig(method="linear"),
    FitConfig(method="simple_mean"),
    FitConfig(method="exponential_smoothing"),
    FitConfig(method="arima"),
    FitConfig(method="arima", order_grid=((1, 0, 0),)),
], ids=lambda c: f"{c.method.value}-{len(c.order_grid)}")
def test_min_history_is_the_fitters_own_minimum(config):
    history = make_ar1(0.5, 60, seed=5)
    n = min_history(config)
    assert fit_model(history[:n], config).fit_n == n
    with pytest.raises(FitError):
        fit_model(history[:n - 1], config)


@pytest.mark.parametrize("order", [(p, d, q) for p in range(3) for d in range(3)
                                   for q in range(3)], ids=lambda o: "".join(map(str, o)))
def test_min_history_leaves_every_single_order_more_residuals_than_parameters(order):
    # At its minimum a one-order grid's candidate keeps n - d - max(p, q)
    # residuals, more than its k + 1 parameters, so its AICc is finite and
    # fit_arima scores it.  The seed-5 history of the test above has no
    # admissible AR(2) on its differenced first 12 points, so this history
    # is drawn with seed 1.
    history = make_ar1(0.5, 60, seed=1)
    config = FitConfig(method="arima", order_grid=(order,))
    n = min_history(config)
    model = fit_model(history[:n], config)
    p, d, q = order
    assert model.orders == order
    assert model.loglik_n == n - d - max(p, q) > model.k + 1
    with pytest.raises(FitError):
        fit_model(history[:n - 1], config)
