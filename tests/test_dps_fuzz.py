"""Property-based fuzzing of the wire decoder.

``decode_message`` is the gateway's only contact with radio bytes.  For
random bytes, random model-update headers, and valid frames truncated or
with bits flipped, it may raise only ``DpsProtocolError``; every frame it
accepts re-encodes to the same bytes and carries only finite floats, and
every model it accepts can be forecast from.  Runs are derandomized, so
the suite tests the same frames every time.
"""

from __future__ import annotations

import struct

import numpy as np
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
