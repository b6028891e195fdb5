"""Property-based fuzzing of the wire encoder and decoder.

``decode_message`` is the gateway's only contact with radio bytes.  For
random bytes, random model-update headers, and valid frames truncated or
with bits flipped, it may raise only ``DpsProtocolError``; every frame it
accepts re-encodes to the same bytes and carries only finite floats, and
every model it accepts can be forecast from.  ``encode_message`` succeeds
on a message exactly when the decoder accepts that message's frame, packed
here by hand, for every kind and payload shape and for floats the wire
refuses.  Runs are derandomized, so the suite tests the same frames every
time.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sensorcast.dps import (DpsProtocolError, Measurement, ModelUpdate, decode_message,
                            encode_message)
from sensorcast.forecast import METHOD_SPECS, ForecastModel, forecast

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)

u32 = st.integers(0, 2**32 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)
measurements = st.builds(Measurement, seq=u32, index=u32, value=finite)


@st.composite
def model_updates(draw):
    kind = draw(st.sampled_from(list(METHOD_SPECS)))
    spec = METHOD_SPECS[kind]
    orders = draw(st.sampled_from(sorted(spec.payloads)))
    n_params, n_state = spec.payloads[orders]
    floats = draw(st.lists(finite, min_size=n_params + n_state, max_size=n_params + n_state))
    model = ForecastModel(kind=kind, orders=orders, params=floats[:n_params],
                          state=floats[n_params:])
    return ModelUpdate(seq=draw(u32), model=model)


valid_frames = st.one_of(measurements, model_updates()).map(encode_message)


@st.composite
def update_headers(draw):
    # A well-formed update header, then 8-byte floats, finite or not.  Most
    # headers carry a kind and orders some fitter produces and as many
    # floats as those orders ship, so they reach the decoder's float check;
    # the rest have any kind code, order byte and float count.
    if draw(st.integers(0, 3)):
        spec = METHOD_SPECS[draw(st.sampled_from(list(METHOD_SPECS)))]
        p, d, q = orders = draw(st.sampled_from(sorted(spec.payloads)))
        code, packed, n_floats = spec.code, (p << 4) | (d << 2) | q, sum(spec.payloads[orders])
    else:
        code, packed = draw(st.integers(0, 6)), draw(st.integers(0, 255))
        n_floats = draw(st.integers(0, 8))
    floats = st.one_of(st.floats().map(lambda x: struct.pack("<d", x)),
                       st.binary(min_size=8, max_size=8))
    payload = b"".join(draw(st.lists(floats, min_size=n_floats, max_size=n_floats)))
    return struct.pack("<BIBB", 0x01, draw(u32), code, packed) + payload


@st.composite
def damaged_frames(draw):
    frame = bytearray(draw(valid_frames))
    if draw(st.booleans()):
        return bytes(frame[:draw(st.integers(0, len(frame) - 1))])
    for bit in draw(st.lists(st.integers(0, 8 * len(frame) - 1), min_size=1, max_size=3)):
        frame[bit // 8] ^= 1 << (bit % 8)
    return bytes(frame)


def check_frame(frame: bytes) -> bool:
    """Decode; True when accepted.  Anything but DpsProtocolError escapes,
    and an accepted frame must re-encode to its own bytes, carry only
    finite floats and forecast."""
    try:
        msg = decode_message(frame)
    except DpsProtocolError:
        return False
    assert encode_message(msg) == frame
    if isinstance(msg, Measurement):
        assert np.isfinite(msg.value)
    else:
        assert np.isfinite(msg.model.params).all() and np.isfinite(msg.model.state).all()
        # Finite floats can still overflow to inf in the recursion; an
        # inf forecast misses every reading, so that is not an error.
        with np.errstate(over="ignore", invalid="ignore"):
            values = forecast(msg.model, 20)
        assert values.shape == (20,)
    return True


# Floats at and past the wire's edges: NaN, the infinities, the largest and
# smallest magnitudes, and a negative zero.
EDGES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0, 0.0, 1.5)
PAYLOAD_SHAPES = [(kind, orders) for kind, spec in METHOD_SPECS.items()
                  for orders in sorted(spec.payloads)]


def hand_packed(msg) -> bytes:
    # The frame of a message, packed from its fields with no checks.
    if isinstance(msg, Measurement):
        return struct.pack("<BIId", 0x02, msg.seq, msg.index, msg.value)
    model = msg.model
    p, d, q = model.orders
    floats = model.params + model.state
    return struct.pack(f"<BIBB{len(floats)}d", 0x01, msg.seq, METHOD_SPECS[model.kind].code,
                       (p << 4) | (d << 2) | q, *floats)


def check_encoder(msg) -> bool:
    """Encode; True when it succeeds, which must be exactly when the
    decoder accepts the message's hand-packed frame, and then to that
    frame."""
    try:
        frame = encode_message(msg)
    except DpsProtocolError:
        frame = None
    assert check_frame(hand_packed(msg)) == (frame is not None)
    if frame is not None:
        assert frame == hand_packed(msg)
    return frame is not None


@st.composite
def edge_messages(draw):
    # Any message the encoder is handed: a measurement, or an update of
    # every kind and payload shape, its floats drawn from the edges and
    # from every float.
    floats = st.one_of(st.sampled_from(EDGES), st.floats())
    if draw(st.integers(0, 4)) == 0:
        return Measurement(draw(u32), draw(u32), draw(floats))
    kind, orders = draw(st.sampled_from(PAYLOAD_SHAPES))
    n_params, n_state = METHOD_SPECS[kind].payloads[orders]
    values = draw(st.lists(floats, min_size=n_params + n_state, max_size=n_params + n_state))
    return ModelUpdate(draw(u32), ForecastModel(kind, orders, values[:n_params],
                                                values[n_params:]))


@FUZZ
@given(edge_messages())
def test_encode_succeeds_exactly_when_the_decoder_accepts_the_frame(msg):
    event("encoded" if check_encoder(msg) else "refused")


@pytest.mark.parametrize("kind, orders", PAYLOAD_SHAPES,
                         ids=[f"{kind.value}{orders}" for kind, orders in PAYLOAD_SHAPES])
def test_encode_refuses_an_edge_float_exactly_where_the_decoder_does(kind, orders):
    # Every edge value in every float of the payload, the rest ones.
    n_params, n_state = METHOD_SPECS[kind].payloads[orders]
    for i in range(n_params + n_state):
        for edge in EDGES:
            values = [1.0] * (n_params + n_state)
            values[i] = edge
            model = ForecastModel(kind, orders, values[:n_params], values[n_params:])
            assert check_encoder(ModelUpdate(7, model)) == math.isfinite(edge)
    for edge in EDGES:
        assert check_encoder(Measurement(7, 8, edge)) == math.isfinite(edge)


@FUZZ
@given(valid_frames)
def test_every_valid_frame_is_accepted_and_re_encodes(frame):
    assert check_frame(frame)


@FUZZ
@given(st.one_of(st.binary(max_size=120),
                 st.tuples(st.sampled_from([b"\x01", b"\x02"]), st.binary(max_size=120))
                 .map(b"".join)))
def test_random_bytes_raise_only_protocol_errors(frame):
    check_frame(frame)


@FUZZ
@given(update_headers())
def test_update_headers_raise_only_protocol_errors(frame):
    event("accepted" if check_frame(frame) else "refused")


@FUZZ
@given(damaged_frames())
def test_damaged_frames_raise_only_protocol_errors(frame):
    check_frame(frame)
