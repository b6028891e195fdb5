"""Dual-prediction transmission suppression between a sensor and its gateway.

Both endpoints run the same forecasting model.  The sensor transmits a
measurement only when its own forecast misses the true value by at least
the threshold; otherwise the gateway's identical forecast stands in for the
reading.  Models travel as periodic updates: one rides along with the last
bootstrap measurement, after that one follows each completed forecast
window.  The value-holding method is the degenerate case: its "model" is
the last transmitted value, so it never ships updates.

The sensor forecasts from the model it sends: the encoder refuses what the
decoder would, so sensor and gateway forecasts are bit-identical and every
untransmitted step's reconstruction error is strictly below the threshold.
"""

from __future__ import annotations

import json
import math
import struct
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

import numpy as np

from .datasets import _atomic_write
from .forecast import (METHOD_SPECS, FitConfig, FitError, ForecastModel, MethodKind,
                       fit_constant, fit_model, forecast)
from .series import TimeSeries, check_count, check_magnitude

__all__ = [
    "Measurement",
    "ModelUpdate",
    "DpsMessage",
    "DpsProtocolError",
    "SensorNode",
    "Gateway",
    "DpsTrace",
    "run_dps",
    "count_model_overhead",
    "encode_message",
    "decode_message",
    "ship",
    "suppressed",
]


class DpsProtocolError(RuntimeError):
    """Message stream violates the protocol contract."""


class Measurement(NamedTuple):
    """One transmitted reading: an immutable tuple, so the sensor builds it
    in one C call (``tuple.__new__``), with type-strict equality."""

    seq: int
    index: int
    value: float

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


@dataclass(frozen=True, eq=False)
class ModelUpdate:
    seq: int
    model: ForecastModel
    piggybacked: bool = False


DpsMessage = Measurement | ModelUpdate

_TAG_MODEL_UPDATE = 0x01
_TAG_MEASUREMENT = 0x02

_CODE_KINDS = {spec.code: kind for kind, spec in METHOD_SPECS.items()}


def suppressed(predicted, actual, delta_min):
    """Whether the prediction may stand in for the reading: strictly
    within ``delta_min``.  Works elementwise on arrays.  Fails closed: a
    NaN prediction is never within, so the reading is transmitted."""
    return abs(predicted - actual) < delta_min


def _payload_sizes(kind: MethodKind, orders) -> tuple[int, int]:
    # The (params, state) float counts an update of these orders carries;
    # orders the kind's fitter never produces are malformed.
    sizes = METHOD_SPECS[kind].payloads.get(orders)
    if sizes is None:
        raise DpsProtocolError(f"{kind.value} models have no orders {orders}")
    return sizes


def _check_value(value: float) -> None:
    if not math.isfinite(value):
        raise DpsProtocolError(f"measurement carries non-finite value {value}")


def _check_floats(model: ForecastModel) -> None:
    if not all(map(math.isfinite, model.params + model.state)):
        raise DpsProtocolError(f"{model.kind.value}{model.orders} update carries "
                               f"non-finite floats")


def _pack_update(seq: int, model: ForecastModel) -> bytes:
    p, d, q = model.orders
    sizes = _payload_sizes(model.kind, model.orders)
    if sizes != (len(model.params), len(model.state)):
        raise DpsProtocolError(f"{model.kind.value}{model.orders} update payload has "
                               f"{len(model.params)} + {len(model.state)} floats, "
                               f"expected {sizes[0]} + {sizes[1]}")
    _check_floats(model)
    return struct.pack(f"<BIBB{sum(sizes)}d", _TAG_MODEL_UPDATE, seq,
                       METHOD_SPECS[model.kind].code, (p << 4) | (d << 2) | q,
                       *model.params, *model.state)


def encode_message(msg: DpsMessage) -> bytes:
    """Wire encoding: 1-byte variant tag, little-endian fields.

    ModelUpdate: u32 seq, u8 kind, u8 packed orders (p in bits 4-5, d in
    2-3, q in 0-1; bits 6-7 reserved, zero), then params and state as
    float64, as many as kind and orders fix (``MethodSpec.payloads``):
    15 to 55 bytes.  Measurement: u32 seq, u32 index, float64 value.
    A message the decoder would refuse raises :class:`DpsProtocolError`.
    """
    if isinstance(msg, Measurement):
        _check_value(msg.value)
        return struct.pack("<BIId", _TAG_MEASUREMENT, msg.seq, msg.index, msg.value)
    return _pack_update(msg.seq, msg.model)


def decode_message(data: bytes, *, piggybacked: bool = False) -> DpsMessage:
    """Inverse of :func:`encode_message`; malformed input raises
    :class:`DpsProtocolError`.  A frame carrying a non-finite float (a NaN
    or infinite measurement, model parameter or state), reserved order bits
    or orders its kind's fitter never produces is malformed, so every frame
    accepted re-encodes to its own bytes and can be forecast from."""
    if len(data) < 1:
        raise DpsProtocolError("empty message")
    tag = data[0]
    if tag == _TAG_MEASUREMENT:
        if len(data) != struct.calcsize("<BIId"):
            raise DpsProtocolError(f"measurement payload has {len(data)} bytes")
        _, seq, index, value = struct.unpack("<BIId", data)
        _check_value(value)
        return Measurement(seq=seq, index=index, value=value)
    if tag != _TAG_MODEL_UPDATE:
        raise DpsProtocolError(f"unknown message tag 0x{tag:02x}")
    head = struct.calcsize("<BIBB")
    if len(data) < head:
        raise DpsProtocolError(f"model update header truncated at {len(data)} bytes")
    _, seq, kind_code, packed = struct.unpack_from("<BIBB", data)
    if kind_code not in _CODE_KINDS:
        raise DpsProtocolError(f"unknown model kind code {kind_code}")
    kind = _CODE_KINDS[kind_code]
    # p takes the reserved bits 6-7 too: set, they make p > 3, which no
    # kind produces.
    orders = (packed >> 4, (packed >> 2) & 0x3, packed & 0x3)
    n_params, n_state = _payload_sizes(kind, orders)
    count = n_params + n_state
    if len(data) != head + 8 * count:
        raise DpsProtocolError(f"{kind.value}{orders} update payload has "
                               f"{len(data) - head} bytes, expected {8 * count}")
    floats = struct.unpack_from(f"<{count}d", data, head)
    model = ForecastModel(kind, orders, floats[:n_params], floats[n_params:])
    _check_floats(model)
    return ModelUpdate(seq=seq, model=model, piggybacked=piggybacked)


def ship(history: np.ndarray, config: FitConfig) -> ForecastModel:
    """The refit rule: the model an update on ``history`` carries, the fit or,
    where it fails or the encoder refuses it, the value-holding model."""
    try:
        model = fit_model(history, config)
        _pack_update(0, model)
        return model
    except (FitError, DpsProtocolError):
        return fit_constant(history)


class _Window:
    """One endpoint's current prediction and its position in it.

    Both endpoints advance it once per reading, bootstrap included.  A
    forecasting method is due its first fit after the bootstrap's last
    reading, and a refit each time a window of forecasts is used up.
    Value-holding predicts the last transmitted value: its window is that
    one value, the position never moves, and every transmission (each
    bootstrap reading among them) replaces it.
    """

    __slots__ = ("holds", "length", "values", "pos")

    def __init__(self, holds: bool, history_len: int):
        self.holds = holds
        # The bootstrap's readings count as the first window, so the first
        # fit falls due after the last of them.
        self.length = history_len
        self.values: list[float] | None = None
        self.pos = 0

    def install(self, forecast_values: np.ndarray) -> None:
        self.values = forecast_values.tolist()
        self.length = len(self.values)
        self.pos = 0

    def predicted(self) -> float:
        try:
            return self.values[self.pos]
        except TypeError:
            raise DpsProtocolError("no model established by a prior update") from None
        except IndexError:
            raise DpsProtocolError("forecast window exhausted") from None

    def due(self) -> bool:
        """True when the next ``advance`` makes a fit due."""
        return not self.holds and self.pos + 1 == self.length

    def advance(self, value: float, transmitted: bool) -> bool:
        """Move past one reading; True when a fit is due."""
        if self.holds:
            if transmitted:
                self.values = [value]
            return False
        self.pos += 1
        return self.pos == self.length


class SensorNode:
    """Sensor endpoint: decides transmissions, refits at window boundaries."""

    def __init__(self, config: FitConfig, history_len: int, window_len: int,
                 delta_min: float):
        self.history_len = check_count("history_len", history_len)
        self.window_len = check_count("window_len", window_len)
        check_magnitude("delta_min", delta_min)
        self.config = config
        self.delta_min = delta_min
        self._buffer: deque[float] = deque(maxlen=self.history_len)
        self._seq = 0
        self._t = 0
        self._window = _Window(METHOD_SPECS[config.method].holds, self.history_len)

    def step(self, value: float) -> list[DpsMessage]:
        """Process one reading; returns the messages to transmit (0 to 2).
        A reading that is not finite is refused before any state moves."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"reading must be finite, got {value}")
        t = self._t
        self._t += 1
        self._buffer.append(value)
        # The bootstrap relays raw readings, so the gateway sees the same
        # history the first fit will use, and that fit rides along with
        # the last of them.
        bootstrap = t < self.history_len
        messages: list[DpsMessage] = []
        transmit = bootstrap or not suppressed(self._window.predicted(), value, self.delta_min)
        if transmit:
            messages.append(tuple.__new__(Measurement, (self._seq, t, value)))
            self._seq += 1
        if self._window.advance(value, transmit):
            history = np.fromiter(self._buffer, np.float64, len(self._buffer))
            update = ModelUpdate(self._seq, ship(history, self.config), bootstrap)
            self._seq += 1
            self._window.install(forecast(update.model, self.window_len))
            messages.append(update)
        return messages


class Gateway:
    """Gateway endpoint: reconstructs the stream from messages and forecasts.

    It keeps its own window and forecasts from its own decoding of each
    update, so a reconstruction that matches the sensor's shows that the
    update bytes alone carry the model.
    """

    def __init__(self, method: MethodKind | str, history_len: int, window_len: int):
        self.history_len = check_count("history_len", history_len)
        self.window_len = check_count("window_len", window_len)
        self.method = MethodKind.coerce(method)
        self.reconstructed: list[float] = []
        self._window = _Window(METHOD_SPECS[self.method].holds, self.history_len)

    def step(self, messages) -> float:
        """Consume one step's messages and return the reconstructed value."""
        measurement = None
        update = None
        for msg in messages:
            if isinstance(msg, Measurement):
                if measurement is not None:
                    raise DpsProtocolError("more than one measurement in a step")
                measurement = msg
            elif isinstance(msg, ModelUpdate):
                if update is not None:
                    raise DpsProtocolError("more than one model update in a step")
                update = msg
            else:
                raise DpsProtocolError(f"unknown message type {type(msg).__name__}")

        if update is not None and not self._window.due():
            raise DpsProtocolError("model update at a step where no fit is due")
        t = len(self.reconstructed)
        if measurement is not None:
            if measurement.index != t:
                raise DpsProtocolError(
                    f"measurement for index {measurement.index} outside the "
                    f"current position {t}"
                )
            value = measurement.value
            _check_value(value)
        elif t < self.history_len:
            raise DpsProtocolError(f"missing bootstrap measurement at step {t}")
        else:
            value = self._window.predicted()
        # Decoded and forecast before any state moves, so a refused update
        # leaves the step to be sent again.
        if update is not None:
            model = decode_message(encode_message(update)).model
            # A sensor ships its own method's model, or value-holding's
            # when that fit falls back.
            if model.kind is not self.method and model.kind is not MethodKind.CONSTANT:
                raise DpsProtocolError(
                    f"{model.kind.value} model update at a {self.method.value} gateway")
            values = forecast(model, self.window_len)

        self.reconstructed.append(value)
        self._window.advance(value, measurement is not None)
        if update is not None:
            self._window.install(values)
        return value


@dataclass(frozen=True, eq=False)
class DpsTrace:
    """Complete record of one sensor/gateway run."""

    method: MethodKind
    history_len: int
    window_len: int
    delta_min: float
    reconstructed: TimeSeries
    messages: tuple[tuple[int, DpsMessage], ...]

    @property
    def n_steps(self) -> int:
        return len(self.reconstructed)

    @property
    def fallback_steps(self) -> tuple[int, ...]:
        """Steps whose refit fell back to value-holding's model."""
        return tuple(step for step, m in self.messages
                     if isinstance(m, ModelUpdate) and m.model.kind is not self.method)

    @property
    def measurement_count(self) -> int:
        return sum(1 for _, m in self.messages if isinstance(m, Measurement))

    @property
    def post_bootstrap_measurements(self) -> int:
        return sum(
            1 for _, m in self.messages
            if isinstance(m, Measurement) and m.index >= self.history_len
        )

    @property
    def saved_fraction(self) -> float:
        """Percent of post-bootstrap steps that needed no measurement."""
        post = self.n_steps - self.history_len
        return 100.0 * (post - self.post_bootstrap_measurements) / post

    def measurements_per_window(self) -> list[int]:
        """Measurement counts per forecast window, trailing partial included."""
        post = self.n_steps - self.history_len
        n_windows = -(-post // self.window_len)
        counts = [0] * n_windows
        for _, m in self.messages:
            if isinstance(m, Measurement) and m.index >= self.history_len:
                counts[(m.index - self.history_len) // self.window_len] += 1
        return counts

    def summary(self) -> dict:
        """The run's totals, wire bytes per message type included (piggybacked
        updates too), as the JSONL trace and the dps summary report them."""
        sizes = {Measurement: 0, ModelUpdate: 0}
        for _, msg in self.messages:
            sizes[type(msg)] += len(encode_message(msg))
        return {
            "measurements": self.measurement_count,
            "model_updates": count_model_overhead(self),
            "measurement_bytes": sizes[Measurement],
            "update_bytes": sizes[ModelUpdate],
            "fallback_steps": list(self.fallback_steps),
            "saved_fraction": self.saved_fraction,
        }

    def to_jsonl(self, path, *, extra_header: dict | None = None) -> None:
        """One JSON object per line: header, every message, then a summary.

        Written atomically as strict JSON: a NaN or infinity is a
        ValueError, raised before any file is touched."""
        header = {
            "type": "header",
            "method": self.method.value,
            "history_len": self.history_len,
            "window_len": self.window_len,
            "delta_min": self.delta_min,
            "n_steps": self.n_steps,
        }
        if extra_header:
            header.update(extra_header)
        records = [header]
        for step, msg in self.messages:
            if isinstance(msg, Measurement):
                records.append({"type": "measurement", "step": step, "seq": msg.seq,
                                "index": msg.index, "value": msg.value})
            else:
                records.append({"type": "model_update", "step": step, "seq": msg.seq,
                                "piggybacked": msg.piggybacked,
                                "model": msg.model.to_json_dict()})
        records.append({"type": "summary", **self.summary()})
        _atomic_write(path, "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n"
                                    for r in records))


def run_dps(series: TimeSeries, config: FitConfig, history_len: int,
            window_len: int, delta_min: float) -> DpsTrace:
    """Run the full protocol over a series and return the trace.

    The series must cover the bootstrap plus at least one forecast window.
    Reconstruction obeys the quality guarantee: transmitted steps match
    exactly, suppressed steps err strictly below ``delta_min``.
    """
    if len(series) < history_len + window_len:
        raise ValueError(
            f"series of length {len(series)} too short for bootstrap "
            f"{history_len} + window {window_len}"
        )
    sensor = SensorNode(config, history_len, window_len, delta_min)
    gateway = Gateway(config.method, history_len, window_len)
    log: list[tuple[int, DpsMessage]] = []
    for t, value in enumerate(series.values.tolist()):
        messages = sensor.step(value)
        gateway.step(messages)
        for m in messages:
            log.append((t, m))
    reconstructed = TimeSeries(
        series.timestamps, np.array(gateway.reconstructed),
        unit=series.unit, resolution=series.resolution,
    )
    return DpsTrace(
        method=config.method,
        history_len=history_len,
        window_len=window_len,
        delta_min=delta_min,
        reconstructed=reconstructed,
        messages=tuple(log),
    )


def count_model_overhead(trace: "DpsTrace") -> int:
    """Model updates that needed their own transmission (piggybacked ones
    ride inside a bootstrap packet and are excluded)."""
    return sum(
        1 for _, msg in trace.messages
        if isinstance(msg, ModelUpdate) and not msg.piggybacked
    )
