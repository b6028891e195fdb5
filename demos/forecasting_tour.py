#!/usr/bin/env python3
"""
Forecasting tour

Fits all five model families on the same history and compares their
multi-step forecasts against what actually happened next.
"""

import numpy as np

from sensorcast import FitConfig, MethodKind, ball_series, fit_model
from sensorcast.forecast import forecast
from sensorcast.evaluation import count_avoided, mape

H = 40
W = 8

series = ball_series(1)
history = series.values[:H]
actual = series.values[H:H + W]

print(f"history: first {H} samples of the bouncing-ball trace, forecasting {W} ahead")
print(f"last three observed values: {np.round(history[-3:], 3).tolist()}")
print()

DELTA = 2.0
for kind in MethodKind:
    model = fit_model(history, FitConfig(method=kind))
    predicted = forecast(model, W)
    score, skipped = mape(actual, predicted)
    avoided = count_avoided(kind, history[-1], actual, predicted, DELTA)
    label = kind.value
    if kind is MethodKind.ARIMA:
        label = f"arima{model.orders}"
    print(f"{label:<22} first steps {np.round(predicted[:3], 3).tolist()}"
          f"  mape {score:8.2f}%  avoided {avoided}/{W} at delta {DELTA}")

print()
print("the selected arima order and the smoothing variant are chosen by AICc;")
print("MAPE explodes whenever the trajectory crosses zero, which is why the")
print("harness also counts the transmissions each forecast would have avoided")
