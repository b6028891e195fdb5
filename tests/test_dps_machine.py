"""A stateful Hypothesis machine over one sensor and its gateway.

Between good steps it hands the gateway message lists the protocol
refuses: an extra, mis-indexed or NaN measurement, a junk object, an
update that is not due, a foreign-kind, NaN or bad-orders update, and a
step with no bootstrap measurement.  Every such list must raise
``DpsProtocolError`` and leave the gateway's reconstruction and window as
they were, so the finished run, refusals and all, matches ``run_dps`` on
the same readings.  Runs are derandomized.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, rule,
                                 run_state_machine_as_test)

from sensorcast import FitConfig, MethodKind, TimeSeries
from sensorcast.dps import (DpsProtocolError, Gateway, Measurement, ModelUpdate, SensorNode,
                            encode_message, run_dps)
from sensorcast.forecast import METHOD_SPECS, ForecastModel, min_history

BAD = ("extra", "mis-indexed", "nan-measurement", "junk", "undue-update", "foreign-update",
       "nan-update", "bad-orders", "no-bootstrap")


def _payload_model(kind: MethodKind, value: float) -> ForecastModel:
    # A model of ``kind`` whose floats all read ``value``, at its first orders.
    orders = min(METHOD_SPECS[kind].payloads)
    n_params, n_state = METHOD_SPECS[kind].payloads[orders]
    return ForecastModel(kind, orders, [value] * n_params, [value] * n_state)


class SensorGatewayMachine(RuleBasedStateMachine):
    def __init__(self, method: MethodKind):
        super().__init__()
        self.config = FitConfig(method=method, budget=2)

    @initialize(extra=st.integers(0, 3), window_len=st.integers(1, 4),
                delta_min=st.sampled_from((0.25, 1.0, 4.0)))
    def start(self, extra, window_len, delta_min):
        self.history_len = min_history(self.config) + extra
        self.window_len, self.delta_min = window_len, delta_min
        self.sensor = SensorNode(self.config, self.history_len, window_len, delta_min)
        self.gateway = Gateway(self.config.method, self.history_len, window_len)
        self.readings: list[float] = []
        self.sent: list[list] = []

    @rule(move=st.floats(-3.0, 3.0), bad=st.lists(st.sampled_from(BAD), max_size=2))
    def step(self, move, bad):
        value = (self.readings[-1] if self.readings else 10.0) + move
        self.readings.append(value)
        messages = self.sensor.step(value)
        self.sent.append(messages)
        for name in bad:
            self.refused(name, messages)
        self.gateway.step(messages)

    def refused(self, bad, good):
        t = len(self.gateway.reconstructed)
        measurements = [m for m in good if isinstance(m, Measurement)]
        updates = [m for m in good if isinstance(m, ModelUpdate)]
        here = Measurement(999, t, 1.0)
        if bad == "extra":
            messages = [*good, here, here]
        elif bad == "mis-indexed":
            messages = [Measurement(999, t + 1, 1.0), *updates]
        elif bad == "nan-measurement":
            messages = [Measurement(999, t, math.nan), *updates]
        elif bad == "junk":
            messages = [*good, object()]
        elif bad == "no-bootstrap" and t < self.history_len:
            messages = updates
        elif not updates:
            # No fit is due at this step, so any update is refused.
            messages = [*good, ModelUpdate(999, _payload_model(MethodKind.CONSTANT, 1.0))]
        else:
            update = updates[0]
            if bad == "foreign-update":
                foreign = next(kind for kind in (MethodKind.LINEAR, MethodKind.SIMPLE_MEAN)
                               if kind is not self.config.method)
                model = _payload_model(foreign, 1.0)
            elif bad == "bad-orders":
                # Orders whose bits overflow the packed byte, or that it cannot hold.
                orders = ((0, 4, 0), (16, 0, 0), (-1, 0, 0))[t % 3]
                model = ForecastModel(MethodKind.ARIMA, orders, [0.5, 0.1], [1.0])
            else:
                model = _payload_model(update.model.kind, math.nan)
            messages = [*measurements, ModelUpdate(update.seq, model, update.piggybacked)]
        window = self.gateway._window
        before = (list(self.gateway.reconstructed),
                  [list(window.values or ()), window.length, window.pos])
        try:
            self.gateway.step(messages)
        except DpsProtocolError:
            pass
        else:
            raise AssertionError(f"{bad}: the gateway accepted {messages}")
        assert before == (self.gateway.reconstructed,
                          [list(window.values or ()), window.length, window.pos])

    def teardown(self):
        if len(self.readings) < self.history_len + self.window_len:
            return
        trace = run_dps(TimeSeries.regular(self.readings), self.config, self.history_len,
                        self.window_len, self.delta_min)
        assert [v.hex() for v in trace.reconstructed.values.tolist()] == \
            [v.hex() for v in self.gateway.reconstructed]
        logged = [[] for _ in self.readings]
        for t, msg in trace.messages:
            logged[t].append(encode_message(msg))
        assert logged == [[encode_message(m) for m in msgs] for msgs in self.sent]


@pytest.mark.parametrize("method", list(MethodKind), ids=lambda kind: kind.value)
def test_sensor_and_gateway_refuse_bad_steps_without_moving(method):
    run_state_machine_as_test(lambda: SensorGatewayMachine(method), settings=settings(
        derandomize=True, database=None, max_examples=25, stateful_step_count=40,
        deadline=None))
