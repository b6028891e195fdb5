"""Property-based test of the quality guarantee for every method.

For walks, constants, steps, sparse spikes and quantized walks of any
finite magnitude from 1e-300 to 1e300, run at the shortest history the
method accepts and a small window, every transmitted step is reconstructed
exactly and every suppressed step lies strictly within ``delta_min``.
The sensor catches only ``FitError`` from a refit (and ``DpsProtocolError``
from the wire), so a fitter raising anything else fails the run.  Runs are
derandomized, so the suite tests the same series every time.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorcast.dps import Measurement, run_dps
from sensorcast.forecast import FitConfig, FitError, fit_model, min_history
from sensorcast.series import TimeSeries

PROPERTY = settings(derandomize=True, database=None, max_examples=50, deadline=None)

METHODS = ("constant", "linear", "simple_mean", "exponential_smoothing", "arima")


def shaped(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    # A unit-scale series of the given shape.
    walk = rng.standard_normal(n).cumsum()
    if shape == "walk":
        return walk
    if shape == "constant":
        return np.full(n, rng.uniform(-1.0, 1.0))
    if shape == "step":
        return np.where(np.arange(n) < rng.integers(1, n), 0.0, rng.uniform(-5.0, 5.0))
    if shape == "spikes":
        return np.where(rng.random(n) < 0.1, rng.uniform(-50.0, 50.0, n), 0.0)
    return np.round(walk * 2.0) / 2.0


@PROPERTY
@given(method=st.sampled_from(METHODS),
       shape=st.sampled_from(("walk", "constant", "step", "spikes", "quantized")),
       exponent=st.sampled_from((-300, -150, -20, 0, 20, 150, 300)),
       relative_delta=st.sampled_from((1e-3, 0.1, 1.0, 10.0)),
       window_len=st.integers(1, 6),
       n_windows=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
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
