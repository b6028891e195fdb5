"""Property-based tests of the protocol for every method.

For walks, constants, steps, sparse spikes and quantized walks of any
finite magnitude from 1e-300 to 1e300, run at the shortest history the
method accepts and a small window, every transmitted step is reconstructed
exactly and every suppressed step lies strictly within ``delta_min``.
The sensor catches only ``FitError`` from a refit (and ``DpsProtocolError``
from the wire), so a fitter raising anything else fails the run.  On the
same series, the sensor's and the gateway's windows agree bit for bit
after every reading.  ``run_scenario`` scores every method on series of
any magnitude up to 1.5e308 without a RuntimeWarning, and its block scores
are those of each split's shipped model (``dps.ship``) scored on its own.  The fitted methods also scale
exactly: a fit of the series times 2**k picks the same orders and
coefficients, and its mean and state are the unit fit's times 2**k.  Runs
are derandomized, so the suite tests the same series every time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensorcast.datasets import descriptor_for
from sensorcast.dps import Gateway, Measurement, ModelUpdate, SensorNode, run_dps, ship
from sensorcast.evaluation import MapeUndefined, Scenario, count_avoided, mape, run_scenario
from sensorcast.forecast import FitConfig, FitError, fit_model, forecast, min_history
from sensorcast.series import TimeSeries, extract_splits

from conftest import MAGNITUDES, SHAPES, shaped

PROPERTY = settings(derandomize=True, database=None, max_examples=50, deadline=None)

METHODS = ("constant", "linear", "simple_mean", "exponential_smoothing", "arima")


RUNS = dict(method=st.sampled_from(METHODS),
            # Only the scoring test below draws alternating readings.
            shape=st.sampled_from(SHAPES[:-1]),
            exponent=st.sampled_from((-300, -150, -20, 0, 20, 150, 300)),
            relative_delta=st.sampled_from((1e-3, 0.1, 1.0, 10.0)),
            window_len=st.integers(1, 6),
            n_windows=st.integers(1, 4),
            seed=st.integers(0, 2**32 - 1))


@PROPERTY
@given(**RUNS)
def test_every_method_keeps_the_guarantee_at_any_magnitude(
        method, shape, exponent, relative_delta, window_len, n_windows, seed):
    config = FitConfig(method=method)
    history_len = min_history(config)
    n = history_len + window_len * n_windows
    scale = 10.0 ** exponent
    values = shaped(shape, n, np.random.default_rng(seed)) * scale
    delta = relative_delta * scale
    series = TimeSeries.regular(values)

    try:
        fit_model(values[:history_len], config)
    except FitError:
        pass
    trace = run_dps(series, config, history_len, window_len, delta)

    transmitted = {m.index for _, m in trace.messages if isinstance(m, Measurement)}
    err = np.abs(trace.reconstructed.values - values)
    for t in range(n):
        if t in transmitted:
            assert err[t] == 0.0, (t, values[t])
        else:
            assert err[t] < delta, (t, err[t], delta)


def window_state(window):
    values = None if window.values is None else [v.hex() for v in window.values]
    return values, window.pos


@PROPERTY
@given(**RUNS)
def test_sensor_and_gateway_windows_agree_bit_for_bit(
        method, shape, exponent, relative_delta, window_len, n_windows, seed):
    config = FitConfig(method=method)
    history_len = min_history(config)
    n = history_len + window_len * n_windows
    scale = 10.0 ** exponent
    values = shaped(shape, n, np.random.default_rng(seed)) * scale
    sensor = SensorNode(config, history_len, window_len, relative_delta * scale)
    gateway = Gateway(config.method, history_len, window_len)

    updates = []
    for t, value in enumerate(values):
        messages = sensor.step(value)
        gateway.step(messages)
        updates += [(t, m.piggybacked) for m in messages if isinstance(m, ModelUpdate)]
        assert window_state(sensor._window) == window_state(gateway._window), t

    # Value-holding ships no model; every other method fits after reading
    # H and piggybacks that update on it, and only that one.
    if method == "constant":
        assert updates == []
    else:
        assert updates[0] == (history_len - 1, True)
        assert not any(piggybacked for _, piggybacked in updates[1:])


def hexes(values):
    return [v.hex() for v in values.tolist()]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(method=st.sampled_from(("exponential_smoothing", "arima")), shape=RUNS["shape"],
       n=st.integers(min_history(FitConfig(method="arima")), 60),
       k=st.integers(-1100, 1100), seed=RUNS["seed"])
def test_fits_scale_exactly_by_powers_of_two(method, shape, n, k, seed):
    config = FitConfig(method=method)
    values = shaped(shape, n, np.random.default_rng(seed))
    # Clamp k so that every nonzero value stays a normal float, with room
    # below the largest for the state's differences.
    exponents = np.frexp(values[values != 0.0])[1].tolist() or [0]
    k = min(max(k, -1021 - min(exponents)), 1020 - max(exponents))
    try:
        unit = fit_model(values, config)
    except FitError:
        unit = None
    try:
        scaled = fit_model(np.ldexp(values, k), config)
    except FitError:
        scaled = None
    assert (unit is None) == (scaled is None)
    if unit is None:
        return
    # ARIMA's params are phi, then the mean at d = 0 only; smoothing ships
    # no params, only its state.
    free = unit.orders[0] if method == "arima" else 0
    assert scaled.orders == unit.orders
    assert hexes(scaled.params[:free]) == hexes(unit.params[:free])
    assert hexes(scaled.params[free:]) == hexes(np.ldexp(unit.params[free:], k))
    assert hexes(scaled.state) == hexes(np.ldexp(unit.state, k))


@PROPERTY
@given(method=RUNS["method"],
       shape=st.sampled_from(SHAPES), magnitude=st.sampled_from(MAGNITUDES),
       relative_delta=st.sampled_from((1e-3, 0.1, 1.0)),
       extra_history=st.integers(0, 3), window_len=st.integers(1, 6),
       n_splits=st.integers(1, 6), seed=RUNS["seed"])
# Every linear slope overflows, so each split is scored as the fallback.
@example(method="linear", shape="alternating", magnitude=1.5e308, relative_delta=1.0,
         extra_history=0, window_len=3, n_splits=2, seed=0)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_scenario_scores_any_magnitude_without_warnings(
        method, shape, magnitude, relative_delta, extra_history, window_len, n_splits, seed):
    config = FitConfig(method=method)
    history_len = min_history(config) + extra_history
    n = history_len + window_len + 2 * n_splits
    values = shaped(shape, n, np.random.default_rng(seed), magnitude)
    delta = relative_delta * magnitude
    scenario = Scenario(descriptor_for("ball", delta_min=delta), config, history_len,
                        window_len, n_splits=n_splits, seed=seed)
    result = run_scenario(scenario, TimeSeries.regular(values))
    json.dumps(result.to_json_dict(), allow_nan=False)

    splits = extract_splits(TimeSeries.regular(values), history_len, window_len, n_splits, seed)
    for i, (history, window) in enumerate(zip(splits.histories, splits.windows)):
        predicted = forecast(ship(history, config)[1], window_len)
        try:
            expected = mape(window, predicted)[0]
        except MapeUndefined:
            expected = float("nan")
        assert result.mape_values[i].hex() == expected.hex(), i
        assert result.avoided[i] == count_avoided(config.method, history[-1], window,
                                                  predicted, delta), i
