from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pickle
import struct
import sys

import numpy as np
import pytest

import sensorcast.dps as dps_module
from sensorcast.datasets import ball_series
from sensorcast.dps import (
    DpsProtocolError,
    Gateway,
    Measurement,
    ModelUpdate,
    SensorNode,
    count_model_overhead,
    decode_message,
    encode_message,
    run_dps,
)
from sensorcast.forecast import (
    METHOD_SPECS,
    FitConfig,
    ForecastModel,
    MethodKind,
    fit_constant,
    fit_model,
    forecast,
)
from sensorcast.series import TimeSeries, quantize_to_resolution

ALL_METHODS = ("constant", "linear", "simple_mean", "exponential_smoothing", "arima")
LINEAR = FitConfig(method="linear")


def replay_stream(trace):
    """Independent gateway: rebuild the stream from the message log alone.

    Uses only the wire messages plus the public forecast function, so any
    disagreement with the production gateway is a protocol bug.
    """
    by_step: dict[int, list] = {}
    for step, msg in trace.messages:
        by_step.setdefault(step, []).append(msg)

    rebuilt = []
    held = None
    window = None
    pos = 0
    for t in range(trace.n_steps):
        msgs = by_step.get(t, [])
        meas = [m for m in msgs if isinstance(m, Measurement)]
        ups = [m for m in msgs if isinstance(m, ModelUpdate)]
        if meas:
            value = meas[0].value
        elif trace.method is MethodKind.CONSTANT:
            value = held
        else:
            value = float(window[pos])
        rebuilt.append(value)
        if trace.method is MethodKind.CONSTANT:
            if meas:
                held = value
        elif t >= trace.history_len:
            pos += 1
        if ups:
            # Models act as they arrive over the wire.
            model = decode_message(encode_message(ups[0])).model
            window = forecast(model, trace.window_len)
            pos = 0
    return np.array(rebuilt)


def test_measurement_wire_round_trip():
    m = Measurement(seq=7, index=123, value=-3.25)
    back = decode_message(encode_message(m))
    assert back == m


def test_measurement_is_a_frozen_slotted_value():
    # The message log holds one per transmitted reading: no __dict__ each.
    m = Measurement(7, 123, -0.0)
    assert not hasattr(m, "__dict__")
    for name in ("seq", "index", "value"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, 1.0)
    # A slotted frozen dataclass refuses a new name with TypeError before
    # Python 3.12 and with FrozenInstanceError (an AttributeError) after.
    with pytest.raises((AttributeError, TypeError)):
        m.other = 1.0
    assert m == Measurement(seq=7, index=123, value=-0.0)
    assert m != Measurement(8, 123, -0.0) and m != Measurement(7, 124, -0.0)
    assert hash(m) == hash(Measurement(7, 123, -0.0))
    assert len({m, Measurement(7, 123, -0.0), Measurement(7, 123, 1.5)}) == 2
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(m, protocol))
        assert type(back) is Measurement and back == m
        assert back.value.hex() == "-0x0.0p+0"


def test_measurement_equals_only_a_measurement():
    m = Measurement(7, 123, -0.0)
    plain = (7, 123, -0.0)
    assert m != plain and plain != m
    assert not m == plain and not plain == m
    assert len({m, plain}) == 2
    update = ModelUpdate(seq=7, model=fit_constant(np.array([1.0])))
    assert m != update and update != m and not m == update
    # Positional, keyword and mixed construction build the same value.
    for other in (Measurement(seq=7, index=123, value=-0.0),
                  Measurement(7, index=123, value=-0.0)):
        assert m == other and not m != other
        assert (other.seq, other.index, other.value) == (7, 123, -0.0)
    # The sensor builds its measurements without __init__: each is still a
    # Measurement and carries the reading's bits.
    node = SensorNode(FitConfig(method="constant"), 3, 5, 0.5)
    readings = (-0.0, 5e-324, -1.5e308)
    for t, value in enumerate(readings):
        (sent,) = node.step(value)
        assert type(sent) is Measurement and sent == Measurement(t, t, value)
        assert struct.pack("<d", sent.value) == struct.pack("<d", value)
        assert decode_message(encode_message(sent)) == sent


def test_value_holding_step_enters_no_python_frame_beyond_its_own():
    # After the bootstrap, a value-holding reading, sent or suppressed, runs
    # Python code only in the step and its window: no message __init__.
    node = SensorNode(FitConfig(method="constant"), 2, 5, 0.5)
    for value in (0.0, 0.0):
        node.step(value)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code.co_name)

    sent = []
    sys.setprofile(profile)
    try:
        for value in (0.1, 3.0, 3.2, -0.0, 7.5):
            sent.append(node.step(value))
    finally:
        sys.setprofile(None)
    assert entered == {"step", "predicted", "suppressed", "advance"}
    assert [[m.value for m in msgs] for msgs in sent] == [[], [3.0], [], [-0.0], [7.5]]


def test_model_update_wire_round_trip_every_kind():
    # Each update is a 7-byte header and the floats its forecast reads.
    models = [
        (fit_constant(np.array([1.0, 2.5])), 15),
        (fit_model(np.array([0.0, 0.125]), LINEAR), 23),
        (ForecastModel(kind=MethodKind.SIMPLE_MEAN, params=[3.5], k=1, fit_n=9), 15),
        (ForecastModel(kind=MethodKind.EXPONENTIAL_SMOOTHING, orders=(1, 0, 0),
                       state=[5.0], estimates=[0.3], k=2, fit_n=20), 15),
        (ForecastModel(kind=MethodKind.EXPONENTIAL_SMOOTHING, orders=(2, 0, 0),
                       state=[5.0, -0.25], estimates=[0.3, 0.1], k=4, fit_n=20), 23),
        (ForecastModel(kind=MethodKind.ARIMA, orders=(2, 0, 2), params=[0.4, -0.1, 3.0],
                       state=[2.5, 0.75], estimates=[0.4, -0.1, 0.2, 0.1, 3.0],
                       k=6, fit_n=60), 47),
        (ForecastModel(kind=MethodKind.ARIMA, orders=(1, 1, 1), params=[0.4],
                       state=[0.75, 10.0], estimates=[0.4, 0.2, 0.0], k=3, fit_n=60), 31),
    ]
    for model, size in models:
        wire = encode_message(ModelUpdate(seq=42, model=model))
        assert len(wire) == size
        back = decode_message(wire, piggybacked=True)
        assert isinstance(back, ModelUpdate)
        assert back.seq == 42
        assert back.piggybacked
        assert back.model.kind is model.kind
        assert back.model.orders == model.orders
        np.testing.assert_array_equal(back.model.params, model.params)
        np.testing.assert_array_equal(back.model.state, model.state)
        # The fit's record stays off the wire.
        assert back.model.estimates == ()
        # Same model, same bytes: encoding is deterministic.
        assert encode_message(ModelUpdate(seq=42, model=model)) == wire


def test_decode_rejects_malformed_frames():
    good = encode_message(Measurement(seq=1, index=2, value=3.0))
    with pytest.raises(DpsProtocolError):
        decode_message(b"")
    with pytest.raises(DpsProtocolError):
        decode_message(b"\x7f" + good[1:])
    with pytest.raises(DpsProtocolError):
        decode_message(good[:-1])

    update = encode_message(ModelUpdate(seq=1, model=fit_model(np.array([1.0, 2.0]), LINEAR)))
    with pytest.raises(DpsProtocolError):
        decode_message(update[:-8])  # drops one float
    with pytest.raises(DpsProtocolError, match="expected 16"):
        decode_message(update + bytes(8))  # one float more than linear ships
    bad_kind = bytearray(update)
    bad_kind[5] = 200
    with pytest.raises(DpsProtocolError):
        decode_message(bytes(bad_kind))


def _every_payload_shape():
    # A config per payload shape: the orders are forced where a kind has
    # several, and value-holding's model ships only when a linear fit's
    # slope overflows on the wire.
    for kind, spec in METHOD_SPECS.items():
        for orders in spec.payloads:
            if kind is MethodKind.ARIMA:
                config = FitConfig(method=kind, order_grid=(orders,))
            elif kind is MethodKind.EXPONENTIAL_SMOOTHING:
                config = FitConfig(method=kind, es_variants=(("simple", "trend")[orders[0] - 1],))
            else:
                config = FitConfig(method="linear" if spec.holds else kind)
            yield pytest.param(config, kind, orders, id=f"{kind.value}{orders}")


def _hex(model):
    return [list(map(float.hex, getattr(model, name))) for name in ("params", "state")]


@pytest.mark.parametrize("config, kind, orders", list(_every_payload_shape()))
def test_every_model_of_a_refit_is_a_tuple_of_exact_floats_aliasing_nothing(config, kind, orders,
                                                                             monkeypatch):
    history = np.cumsum(np.random.default_rng(1).standard_normal(60))
    if kind is MethodKind.CONSTANT:
        history[-2:] = -1e308, 1e308
    calls, decoded = [], []
    pack, decode = dps_module._pack_update, dps_module.decode_message

    def packing(seq, model):
        calls.append("encode")
        return pack(seq, model)

    def decoding(data, **kwargs):
        calls.append("decode")
        msg = decode(data, **kwargs)
        decoded.append(msg.model)
        return msg

    # Every update frame is packed by _pack_update, encode_message's update
    # half, which the sensor's refit rule calls directly.
    monkeypatch.setattr(dps_module, "_pack_update", packing)
    monkeypatch.setattr(dps_module, "decode_message", decoding)
    sensor = SensorNode(config, len(history), 5, 0.1)
    gateway = Gateway(config.method, len(history), 5)
    for value in history[:-1]:
        gateway.step(sensor.step(value))
    assert calls == []
    # The one refit rides on the last bootstrap reading.  The sensor encodes
    # it once, as its refit rule checks it (a refused fit included), and
    # forecasts from the model it sends; the gateway encodes the update it
    # is handed and decodes that frame.
    messages = sensor.step(history[-1])
    assert calls == ["encode"]
    gateway.step(messages)
    assert calls == ["encode", "encode", "decode"]
    monkeypatch.undo()
    fit = messages[-1].model
    assert fit.kind is kind and fit.orders == orders and len(decoded) == 1
    frame = encode_message(messages[-1])
    n_params, n_state = METHOD_SPECS[fit.kind].payloads[orders]
    floats = struct.unpack_from(f"<{n_params + n_state}d", frame, 7)
    wire = ForecastModel(fit.kind, orders, params=floats[:n_params], state=floats[n_params:])
    for model in (fit, *decoded):
        for floats in (model.params, model.state, model.estimates):
            assert type(floats) is tuple and all(type(v) is float for v in floats)
        # The constructor, given the model's own fields, yields the same floats.
        assert _hex(model) == _hex(ForecastModel(*model)) == _hex(wire)
        assert model.to_json_dict() == ForecastModel(*model).to_json_dict()

    # Nothing a refit yields changes with the history or frame it came from.
    source = history.copy()
    models = [fit_model(source, config), fit_constant(source)]
    buffers = [bytearray(frame), memoryview(bytearray(frame))]
    models += [decode_message(buffer).model for buffer in buffers]
    before = [_hex(model) for model in models]
    source[:] = np.nan
    for buffer in buffers:
        buffer[7:] = bytes(len(frame) - 7)
    assert [_hex(model) for model in models] == before


def test_encode_and_decode_refuse_non_finite_floats():
    # Each frame is packed by hand, since the encoder refuses it with the
    # decoder's own message.
    for bad in (np.nan, np.inf, -np.inf):
        message = Measurement(seq=1, index=2, value=bad)
        with pytest.raises(DpsProtocolError, match="non-finite value") as encoded:
            encode_message(message)
        with pytest.raises(DpsProtocolError) as decoded:
            decode_message(struct.pack("<BIId", 0x02, 1, 2, bad))
        assert str(encoded.value) == str(decoded.value)
    for model in (
        ForecastModel(kind=MethodKind.LINEAR, params=[np.nan, np.inf], k=2),
        ForecastModel(kind=MethodKind.ARIMA, orders=(1, 1, 0), params=[0.5],
                      state=[1.0, -np.inf], k=2),
    ):
        p, d, q = model.orders
        frame = struct.pack(f"<BIBB{len(model.params + model.state)}d", 0x01, 1,
                            METHOD_SPECS[model.kind].code, (p << 4) | (d << 2) | q,
                            *model.params, *model.state)
        with pytest.raises(DpsProtocolError, match="non-finite floats") as encoded:
            encode_message(ModelUpdate(seq=1, model=model))
        with pytest.raises(DpsProtocolError) as decoded:
            decode_message(frame)
        assert str(encoded.value) == str(decoded.value)


@pytest.mark.parametrize("model, refusal", [
    # d's bits overflowed into p: this frame decoded as ARIMA(1, 0, 0).
    (ForecastModel(MethodKind.ARIMA, (0, 4, 0), [0.5, 0.1], [1.0]),
     r"arima models have no orders \(0, 4, 0\)"),
    # Orders the packed byte cannot hold raised struct.error.
    (ForecastModel(MethodKind.ARIMA, (16, 0, 0), [0.5], [1.0]),
     r"arima models have no orders \(16, 0, 0\)"),
    (ForecastModel(MethodKind.ARIMA, (-1, 0, 0), [0.5], [1.0]),
     r"arima models have no orders \(-1, 0, 0\)"),
    # The right float count, split otherwise: this decoded as params [1.0, 2.0].
    (ForecastModel(MethodKind.LINEAR, params=[1.0], state=[2.0]),
     r"linear\(0, 0, 0\) update payload has 1 \+ 1 floats, expected 2 \+ 0"),
], ids=["arima-d-4", "arima-p-16", "arima-p-minus-1", "linear-split"])
def test_encode_refuses_a_model_its_kinds_payload_table_does_not_hold(model, refusal):
    with pytest.raises(DpsProtocolError, match=refusal):
        encode_message(ModelUpdate(0, model))
    gw = Gateway(model.kind, history_len=1, window_len=2)
    with pytest.raises(DpsProtocolError, match=refusal):
        gw.step([Measurement(0, 0, 1.0), ModelUpdate(1, model)])
    assert gw.reconstructed == []
    assert gw.step([Measurement(0, 0, 1.0), ModelUpdate(1, fit_constant([1.0]))]) == 1.0


def update_frame(kind_code: int, packed_orders: int, n_floats: int) -> bytes:
    """A model-update frame carrying ``n_floats`` floats."""
    return struct.pack(f"<BIBB{n_floats}d", 0x01, 3, kind_code, packed_orders,
                       *[0.5] * n_floats)


@pytest.mark.parametrize("frame", [
    pytest.param(update_frame(3, 0x00, 0), id="smoothing-(0,0,0)"),
    pytest.param(update_frame(3, 0x30, 6), id="smoothing-(3,0,0)"),
    pytest.param(update_frame(3, 0x14, 2), id="smoothing-(1,1,0)"),
    pytest.param(update_frame(0, 0xFF, 1), id="constant-all-order-bits"),
    pytest.param(update_frame(0, 0x40, 1), id="constant-reserved-bit-6"),
    pytest.param(update_frame(1, 0x10, 2), id="linear-(1,0,0)"),
    pytest.param(update_frame(2, 0x04, 1), id="simple-mean-(0,1,0)"),
    pytest.param(update_frame(4, 0x30, 7), id="arima-(3,0,0)"),
    pytest.param(update_frame(4, 0x0C, 4), id="arima-(0,3,0)"),
    pytest.param(update_frame(4, 0x03, 7), id="arima-(0,0,3)"),
    pytest.param(update_frame(4, 0x80, 1), id="arima-reserved-bit-7"),
])
def test_decode_refuses_orders_the_kind_never_produces(frame):
    with pytest.raises(DpsProtocolError, match="no orders"):
        decode_message(frame)


def test_non_finite_fit_falls_back_to_value_holding():
    # A linear fit on alternating +-1e308 has slope -inf or inf: the wire
    # refuses it, so every refit ships the last value instead.
    series = TimeSeries.regular(np.tile([1e308, -1e308], 40))
    delta = 0.5
    with np.errstate(over="ignore"):
        trace = run_dps(series, FitConfig(method="linear"), history_len=10,
                        window_len=10, delta_min=delta)
    assert trace.n_steps == 80
    assert trace.fallback_steps == (9, 19, 29, 39, 49, 59, 69, 79)
    updates = [m for _, m in trace.messages if isinstance(m, ModelUpdate)]
    assert [m.model.kind for m in updates] == [MethodKind.CONSTANT] * 8
    assert_quality_guarantee(trace, series, delta)


def test_bootstrap_relays_every_reading():
    series = TimeSeries.regular(np.arange(12.0))
    trace = run_dps(series, FitConfig(method="linear"), history_len=6,
                    window_len=3, delta_min=0.5)
    boot = [m for _, m in trace.messages
            if isinstance(m, Measurement) and m.index < 6]
    assert [m.index for m in boot] == list(range(6))
    assert [m.value for m in boot] == list(map(float, range(6)))
    # The first model rides along with the last bootstrap packet.
    first_update_step = next(step for step, m in trace.messages
                             if isinstance(m, ModelUpdate))
    assert first_update_step == 5
    assert next(m for _, m in trace.messages
                if isinstance(m, ModelUpdate)).piggybacked


def test_constant_method_hand_oracle():
    values = [5.0, 6.0, 6.4, 7.2, 7.1, 9.0]
    series = TimeSeries.regular(values)
    trace = run_dps(series, FitConfig(method="constant"), history_len=2,
                    window_len=2, delta_min=1.0)
    np.testing.assert_array_equal(trace.reconstructed.values,
                                  [5.0, 6.0, 6.0, 7.2, 7.2, 9.0])
    # Steps 3 and 5 exceeded the threshold against the held value.
    post = [m.index for _, m in trace.messages
            if isinstance(m, Measurement) and m.index >= 2]
    assert post == [3, 5]
    assert trace.post_bootstrap_measurements == 2
    assert trace.saved_fraction == pytest.approx(50.0)
    # Value-holding never ships a model.
    assert count_model_overhead(trace) == 0
    assert not any(isinstance(m, ModelUpdate) for _, m in trace.messages)


def test_linear_method_exact_line_transmits_nothing():
    series = TimeSeries.regular(2.0 * np.arange(30.0))
    trace = run_dps(series, FitConfig(method="linear"), history_len=5,
                    window_len=5, delta_min=1e-6)
    assert trace.post_bootstrap_measurements == 0
    assert trace.saved_fraction == 100.0
    np.testing.assert_array_equal(trace.reconstructed.values, series.values)
    # One update per completed window: (30 - 5) / 5 full windows.
    assert count_model_overhead(trace) == 5


def assert_quality_guarantee(trace, series, delta):
    """Transmitted steps are exact, suppressed steps strictly within delta."""
    transmitted = {m.index for _, m in trace.messages if isinstance(m, Measurement)}
    err = np.abs(trace.reconstructed.values - series.values)
    for t in range(len(series)):
        if t in transmitted:
            assert err[t] == 0.0, (trace.method, t)
        else:
            assert err[t] < delta, (trace.method, t, err[t])


def test_quality_guarantee_on_ball_segments():
    series = ball_series(1).slice(0, 220)
    delta = 0.05
    for method in ALL_METHODS:
        trace = run_dps(series, FitConfig(method=method), history_len=40,
                        window_len=20, delta_min=delta)
        assert_quality_guarantee(trace, series, delta)


def test_nan_forecast_fails_closed(monkeypatch):
    # A model whose forecast is NaN must transmit every reading, never let
    # the gateway stand NaN in for it.  Its floats are finite, so the wire
    # carries it: the AR recursion meets inf - inf.
    nan_model = ForecastModel(kind=MethodKind.ARIMA, orders=(2, 0, 0),
                              params=[1e300, 1e300, 0.0], state=[1e300, -1e300], k=3)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(forecast(nan_model, 10)).all()
    monkeypatch.setattr(dps_module, "fit_model", lambda history, config: nan_model)
    series = ball_series(1).slice(0, 80)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run_dps(series, FitConfig(method="arima"), history_len=10,
                        window_len=10, delta_min=0.5)
    assert trace.fallback_steps == ()
    assert trace.post_bootstrap_measurements == len(series) - 10
    np.testing.assert_array_equal(trace.reconstructed.values, series.values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_arima_run_on_tiny_magnitudes_keeps_the_guarantee():
    values = np.random.default_rng(0).standard_normal(200) * 1e-160
    series = TimeSeries.regular(values)
    delta = 1e-161
    trace = run_dps(series, FitConfig(method="arima"), history_len=50,
                    window_len=20, delta_min=delta)
    assert trace.n_steps == 200
    assert_quality_guarantee(trace, series, delta)


def test_replay_oracle_matches_gateway():
    series = ball_series(2).slice(100, 300)
    for method in ALL_METHODS:
        trace = run_dps(series, FitConfig(method=method), history_len=30,
                        window_len=10, delta_min=0.02)
        np.testing.assert_array_equal(replay_stream(trace),
                                      trace.reconstructed.values)


def test_update_cadence_and_piggyback_accounting():
    series = TimeSeries.regular(np.sin(0.3 * np.arange(65.0)))
    trace = run_dps(series, FitConfig(method="exponential_smoothing"),
                    history_len=5, window_len=20, delta_min=0.01)
    updates = [(step, m) for step, m in trace.messages if isinstance(m, ModelUpdate)]
    # Piggybacked bootstrap update plus one per completed window.
    assert [step for step, _ in updates] == [4, 24, 44, 64]
    assert [m.piggybacked for _, m in updates] == [True, False, False, False]
    assert count_model_overhead(trace) == 3
    assert len(trace.measurements_per_window()) == 3


def test_measurements_per_window_counts_trailing_partial():
    # Windows over post-bootstrap steps: [2, 6], [7, 11], [12, 13] partial.
    # The jump at t=6 transmits in window 0, the drop back at t=7 in window 1,
    # the jump at t=13 in the partial window.
    values = np.zeros(14)
    values[6] = 5.0
    values[13] = 5.0
    series = TimeSeries.regular(values)
    trace = run_dps(series, FitConfig(method="constant"), history_len=2,
                    window_len=5, delta_min=0.5)
    assert trace.measurements_per_window() == [1, 1, 1]


def test_constant_transmissions_monotone_in_threshold():
    rng = np.random.default_rng(77)
    for trial in range(5):
        series = TimeSeries.regular(np.cumsum(rng.standard_normal(150)))
        counts = []
        for delta in (0.1, 0.3, 0.9, 2.7):
            trace = run_dps(series, FitConfig(method="constant"), history_len=10,
                            window_len=10, delta_min=delta)
            counts.append(trace.post_bootstrap_measurements)
        assert counts == sorted(counts, reverse=True), counts


def test_sensor_falls_back_to_value_holding_when_fit_fails():
    # History shorter than the ARIMA minimum: every refit falls back.
    series = ball_series(3).slice(0, 40)
    trace = run_dps(series, FitConfig(method="arima"), history_len=8,
                    window_len=8, delta_min=0.05)
    assert len(trace.fallback_steps) >= 1
    updates = [m for _, m in trace.messages if isinstance(m, ModelUpdate)]
    assert all(m.model.kind is MethodKind.CONSTANT for m in updates)
    # The guarantee holds even in degraded mode.
    transmitted = {m.index for _, m in trace.messages if isinstance(m, Measurement)}
    err = np.abs(trace.reconstructed.values - series.values)
    for t in range(len(series)):
        if t not in transmitted:
            assert err[t] < 0.05


def test_sensor_validation():
    cfg = FitConfig(method="constant")
    with pytest.raises(ValueError):
        SensorNode(cfg, 0, 5, 0.1)
    with pytest.raises(ValueError):
        SensorNode(cfg, 5, 0, 0.1)
    for delta in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SensorNode(cfg, 5, 5, delta)


@pytest.mark.parametrize("method", ["constant", "linear"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.nan)])
def test_sensor_refuses_a_non_finite_reading_before_any_state_moves(method, bad):
    # Refused mid-bootstrap (value-holding would relay inf, which the wire
    # refuses) and at the first fit (linear on 1, 2, NaN would fail inside
    # the refit's own fallback, after the step had moved).
    def state(node):
        return (node._t, node._seq, list(node._buffer), node._window.values,
                node._window.pos)

    node, clean = (SensorNode(FitConfig(method=method), 3, 2, 0.5) for _ in range(2))
    for value in (1.0, 2.0):
        assert node.step(value) == clean.step(value)
    before = state(node)
    with pytest.raises(ValueError, match="reading must be finite"):
        node.step(bad)
    assert state(node) == before
    for value in (3.0, 3.25, 9.0):
        got, want = node.step(value), clean.step(value)
        assert [encode_message(m) for m in got] == [encode_message(m) for m in want]


def test_run_dps_rejects_short_series():
    series = TimeSeries.regular(np.arange(10.0))
    with pytest.raises(ValueError):
        run_dps(series, FitConfig(method="constant"), history_len=8,
                window_len=3, delta_min=0.1)


def test_gateway_rejects_protocol_violations():
    gw = Gateway(MethodKind.LINEAR, history_len=2, window_len=3)
    with pytest.raises(DpsProtocolError):
        gw.step([])  # missing bootstrap measurement
    gw.step([Measurement(seq=0, index=0, value=1.0)])
    with pytest.raises(DpsProtocolError):
        gw.step([Measurement(seq=1, index=5, value=2.0)])  # index gap
    with pytest.raises(DpsProtocolError):
        gw.step([Measurement(seq=1, index=1, value=2.0),
                 Measurement(seq=2, index=1, value=2.0)])
    gw.step([Measurement(seq=1, index=1, value=2.0)])
    # Steady state with no model installed is a protocol violation.
    with pytest.raises(DpsProtocolError):
        gw.step([])
    # A model update where no fit is due is refused before the step changes
    # anything: mid-window, and under value-holding, which never refits.
    model = fit_model(np.array([0.0, 1.0]), LINEAR)
    gw = Gateway(MethodKind.LINEAR, history_len=1, window_len=3)
    gw.step([Measurement(seq=0, index=0, value=1.0), ModelUpdate(seq=1, model=model)])
    with pytest.raises(DpsProtocolError, match="no fit is due"):
        gw.step([ModelUpdate(seq=2, model=model)])
    assert gw.reconstructed == [1.0]
    assert gw.step([]) == 2.0
    gw = Gateway(MethodKind.CONSTANT, history_len=1, window_len=3)
    with pytest.raises(DpsProtocolError, match="no fit is due"):
        gw.step([Measurement(seq=0, index=0, value=6.0), ModelUpdate(seq=1, model=model)])
    assert gw.reconstructed == []
    gw.step([Measurement(seq=0, index=0, value=6.0)])
    assert gw.step([]) == 6.0


def test_gateway_rejects_two_updates_or_a_foreign_object_in_one_step():
    model = fit_model(np.array([0.0, 1.0]), LINEAR)
    bootstrap = Measurement(seq=0, index=0, value=1.0)
    gw = Gateway(MethodKind.LINEAR, history_len=1, window_len=2)
    with pytest.raises(DpsProtocolError, match="more than one model update"):
        gw.step([bootstrap, ModelUpdate(seq=1, model=model), ModelUpdate(seq=2, model=model)])
    with pytest.raises(DpsProtocolError, match="unknown message type bytes"):
        gw.step([bootstrap, encode_message(bootstrap)])
    assert gw.reconstructed == []


@pytest.mark.parametrize("method", ["linear", "simple_mean", "exponential_smoothing", "arima"])
def test_gateway_refuses_an_update_of_another_method(method):
    # A sensor ships its own method's model or, when the fit falls back, the
    # value-holding one; any other kind is refused before any state moves.
    history = np.array([0.0, 1.0])
    foreign = fit_model(history, FitConfig(method="simple_mean" if method == "linear"
                                           else "linear"))
    gw = Gateway(MethodKind(method), history_len=2, window_len=3)
    gw.step([Measurement(0, 0, 0.0)])
    with pytest.raises(DpsProtocolError, match=f"{foreign.kind.value} model update at a "
                                               f"{method} gateway"):
        gw.step([Measurement(1, 1, 1.0), ModelUpdate(2, foreign)])
    assert gw.reconstructed == [0.0]
    fallback = fit_constant(history)
    assert gw.step([Measurement(1, 1, 1.0), ModelUpdate(2, fallback)]) == 1.0
    assert [gw.step([]) for _ in range(3)] == [1.0, 1.0, 1.0]


def test_gateway_coerces_its_method_and_refuses_lengths_as_the_sensor_does():
    assert Gateway("arima", 50, 20).method is MethodKind.ARIMA
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        Gateway("bogus", 50, 20)
    for lengths in ((0, 5), (5, 0), (-1, -1)):
        with pytest.raises(ValueError) as sensor:
            SensorNode(FitConfig(method="constant"), *lengths, 0.1)
        with pytest.raises(ValueError) as gateway:
            Gateway(MethodKind.CONSTANT, *lengths)
        assert str(gateway.value) == str(sensor.value)


def test_forecast_model_coerces_its_kind_and_a_foreign_kind_is_still_refused():
    # A kind given by name becomes its MethodKind at construction, so the
    # encoder and the gateway see the same model a fitter would build.
    model = ForecastModel(kind="linear", params=[1.0, 0.0])
    assert model.kind is MethodKind.LINEAR
    assert decode_message(encode_message(ModelUpdate(0, model))).model.kind is MethodKind.LINEAR
    with pytest.raises(ValueError, match="unknown method 'bogus'; expected one of: constant"):
        ForecastModel(kind="bogus")
    gw = Gateway("arima", history_len=2, window_len=3)
    gw.step([Measurement(0, 0, 0.0)])
    with pytest.raises(DpsProtocolError, match="linear model update at a arima gateway"):
        gw.step([Measurement(1, 1, 1.0), ModelUpdate(2, model)])
    assert gw.reconstructed == [0.0]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_gateway_refuses_a_non_finite_measurement_as_the_decoder_does(bad):
    # The object API carries what the wire refuses; the gateway refuses it
    # with the decoder's message, before the step changes anything.
    with pytest.raises(DpsProtocolError) as decoded:
        decode_message(struct.pack("<BIId", 0x02, 1, 1, bad))
    model = fit_model(np.array([0.0, 1.0]), LINEAR)
    gw = Gateway(MethodKind.LINEAR, history_len=2, window_len=2)
    gw.step([Measurement(0, 0, 0.0)])
    with pytest.raises(DpsProtocolError) as stepped:
        gw.step([Measurement(1, 1, bad), ModelUpdate(2, model)])
    assert str(stepped.value) == str(decoded.value)
    assert gw.reconstructed == [0.0]
    gw.step([Measurement(1, 1, 1.0), ModelUpdate(2, model)])
    with pytest.raises(DpsProtocolError, match="non-finite value"):
        gw.step([Measurement(3, 2, bad)])
    assert gw.reconstructed == [0.0, 1.0]
    assert gw.step([]) == 2.0


def test_gateway_refuses_a_malformed_update_before_any_state_moves():
    # The step's update is decoded and forecast first: a refused one leaves
    # the reconstruction and the window as they were, so the sensor's good
    # messages for the same step are still accepted.
    node = SensorNode(LINEAR, 3, 2, 0.5)
    gw = Gateway(MethodKind.LINEAR, 3, 2)
    for value in (1.0, 2.0):
        gw.step(node.step(value))
    measurement, update = node.step(3.0)
    bad = ModelUpdate(update.seq, update.model._replace(params=[math.inf, 1.0]))
    with pytest.raises(DpsProtocolError, match="non-finite floats"):
        gw.step([measurement, bad])
    assert gw.reconstructed == [1.0, 2.0]
    assert gw.step([measurement, update]) == 3.0
    assert gw.reconstructed == [1.0, 2.0, 3.0]
    for value in (4.0, 5.0):
        assert gw.step(node.step(value)) == value


def test_gateway_window_exhaustion_detected():
    gw = Gateway(MethodKind.LINEAR, history_len=1, window_len=2)
    model = fit_model(np.array([0.0, 1.0]), LINEAR)
    gw.step([Measurement(seq=0, index=0, value=1.0),
             ModelUpdate(seq=1, model=model)])
    gw.step([])
    gw.step([])
    with pytest.raises(DpsProtocolError):
        gw.step([])  # third silent step exceeds the 2-step window


def test_trace_jsonl_round_trip(tmp_path):
    series = ball_series(1).slice(0, 60)
    trace = run_dps(series, FitConfig(method="simple_mean"), history_len=10,
                    window_len=10, delta_min=0.02)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path, extra_header={"run": "t1"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[0]["run"] == "t1"
    assert lines[0]["method"] == "simple_mean"
    assert lines[-1]["type"] == "summary"
    assert lines[-1]["measurements"] == trace.measurement_count
    body_types = {ln["type"] for ln in lines[1:-1]}
    assert body_types <= {"measurement", "model_update"}
    assert len(lines) == 2 + len(trace.messages)
    # Same trace, same bytes.
    path2 = tmp_path / "trace2.jsonl"
    trace.to_jsonl(path2, extra_header={"run": "t1"})
    assert path.read_bytes() == path2.read_bytes()


def test_trace_jsonl_refuses_non_finite_values_before_writing(tmp_path):
    trace = run_dps(ball_series(1).slice(0, 30), FitConfig(method="constant"),
                    history_len=10, window_len=10, delta_min=0.02)
    with pytest.raises(ValueError, match="JSON compliant"):
        trace.to_jsonl(tmp_path / "trace.jsonl", extra_header={"run": float("nan")})
    assert list(tmp_path.iterdir()) == []


# sha256 of every message's wire bytes, in order, for a whole run on a
# quantized ball segment: the fits, the suppression decisions and the
# encoding together, bit for bit.
RUN_DIGESTS = {
    "arima": "a15ac3636db43ccd5ec02253caafeb97834890cb62b76482959ae30bf041718d",
    "exponential_smoothing":
        "b28d51b9b6478cf8b179a31ab2c55b42391680663ced03fe9d5b288ff051721e",
}


@pytest.mark.parametrize("method", sorted(RUN_DIGESTS))
def test_run_dps_reproduces_pinned_wire_stream(method):
    series = quantize_to_resolution(ball_series(1).slice(0, 250), 1.9)
    trace = run_dps(series, FitConfig(method=method), history_len=50,
                    window_len=20, delta_min=1.9)
    wire = b"".join(encode_message(msg) for _, msg in trace.messages)
    assert hashlib.sha256(wire).hexdigest() == RUN_DIGESTS[method]


def update_size(model):
    # A 7-byte header (tag, seq, kind, orders) and the floats the forecast
    # reads: ARIMA phi, the mean at d = 0, the max(p, q) values it starts
    # from and the d anchors; smoothing its level and trend.
    p, d, q = model.orders
    n_floats = {MethodKind.LINEAR: 2, MethodKind.SIMPLE_MEAN: 1,
                MethodKind.EXPONENTIAL_SMOOTHING: p,
                MethodKind.ARIMA: p + (d == 0) + max(p, q) + d}[model.kind]
    return 7 + 8 * n_floats


@pytest.mark.parametrize("method", ALL_METHODS)
def test_summary_counts_the_radio_bytes(method):
    series = quantize_to_resolution(ball_series(1).slice(0, 250), 1.9)
    trace = run_dps(series, FitConfig(method=method), history_len=50,
                    window_len=20, delta_min=1.9)
    measurements = [m for _, m in trace.messages if isinstance(m, Measurement)]
    updates = [m for _, m in trace.messages if isinstance(m, ModelUpdate)]
    summary = trace.summary()
    # Every measurement is 17 bytes; every update, piggybacked or not,
    # counts the bytes of its kind and orders.
    assert summary["measurement_bytes"] == 17 * len(measurements)
    assert summary["update_bytes"] == sum(update_size(m.model) for m in updates)
    assert (method == "constant") == (summary["update_bytes"] == 0)
    assert any(m.piggybacked for m in updates) == (method != "constant")

