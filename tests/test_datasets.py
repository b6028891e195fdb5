from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorcast import datasets
from sensorcast.datasets import (
    BALL_GROUPS,
    BallParams,
    DataFormatError,
    DatasetFamily,
    ball_series,
    ball_signal,
    ball_zero_crossings,
    builtin_threshold,
    descriptor_for,
    generate_ball,
    load_csv,
    write_series_csv,
)
from sensorcast.series import TimeSeries


def test_builtin_thresholds_are_the_documented_sensor_resolutions():
    assert builtin_threshold("intel") == 0.01
    assert builtin_threshold("sensorscope") == pytest.approx(185.0 / 4096.0)
    assert builtin_threshold("sensorscope") == pytest.approx(0.045166, abs=1e-6)
    assert builtin_threshold("ball") == 0.001
    assert builtin_threshold("running_latitude") == 8.38e-8
    assert builtin_threshold("running_longitude") == 8.38e-8
    with pytest.raises(ValueError):
        builtin_threshold("humidity")


def test_descriptor_defaults_and_overrides():
    d = descriptor_for("intel", 2)
    assert d.family is DatasetFamily.INTEL
    assert d.group == 2
    assert d.threshold == 0.01
    assert d.period == 31.0
    assert d.unit == "degC"
    assert d.label == "intel-g2"

    custom = descriptor_for("intel", 1, delta_min=0.5, expected_period=60.0)
    assert custom.threshold == 0.5
    assert custom.period == 60.0

    gps = descriptor_for("running_latitude")
    assert gps.period is None
    with pytest.raises(ValueError):
        descriptor_for("ball", 0)


def test_ball_params_validation():
    with pytest.raises(ValueError):
        BallParams(amplitude=0.0)
    with pytest.raises(ValueError):
        BallParams(frequency=0.0)
    with pytest.raises(ValueError):
        BallParams(decay=-0.1)
    with pytest.raises(ValueError):
        BallParams(n_samples=0)
    with pytest.raises(ValueError):
        BallParams(dt=0.0)


def test_standard_ball_groups():
    assert sorted(BALL_GROUPS) == [1, 2, 3]
    assert BALL_GROUPS[1].amplitude == 50.0 and BALL_GROUPS[1].decay == 0.05
    assert BALL_GROUPS[2].amplitude == 100.0 and BALL_GROUPS[2].decay == 0.1
    assert BALL_GROUPS[3].amplitude == 200.0 and BALL_GROUPS[3].decay == 0.1
    for params in BALL_GROUPS.values():
        assert params.frequency == 0.1
        assert params.n_samples == 2800
        assert params.dt == 1.0


def test_ball_signal_closed_form():
    params = BallParams(amplitude=50.0, frequency=0.1, decay=0.05)
    t = np.array([0.0, 1.0, 2.5, 10.0])
    expected = 50.0 * np.abs(np.cos(2.0 * np.pi * 0.1 * t)) * np.exp(-0.05 * t)
    np.testing.assert_allclose(ball_signal(t, params), expected, rtol=1e-15)
    # Envelope bound: the trajectory never exceeds the decayed amplitude.
    tt = np.linspace(0.0, 100.0, 5000)
    sig = ball_signal(tt, params)
    assert np.all(sig <= 50.0 * np.exp(-0.05 * tt) + 1e-12)
    assert np.all(sig >= 0.0)


def test_ball_zero_crossings_formula():
    params = BallParams(frequency=0.1)
    crossings = ball_zero_crossings(params, 4)
    np.testing.assert_allclose(crossings, [2.5, 7.5, 12.5, 17.5], rtol=1e-15)
    # cos vanishes there, so the noiseless signal does too.
    np.testing.assert_allclose(ball_signal(crossings, params), 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        ball_zero_crossings(params, 0)


def test_generate_ball_noise_is_seeded_unit_normal():
    params = BallParams(seed=99, n_samples=50_000)
    clean = generate_ball(params, with_noise=False)
    noisy = generate_ball(params)
    again = generate_ball(params)
    np.testing.assert_array_equal(noisy.values, again.values)
    residual = noisy.values - clean.values
    assert abs(np.mean(residual)) < 0.02
    assert abs(np.std(residual) - 1.0) < 0.02
    assert noisy.unit == "m"
    assert noisy.resolution == 0.001


def test_ball_series_group_gate():
    s = ball_series(1)
    assert len(s) == 2800
    assert s.timestamps[1] - s.timestamps[0] == 1.0
    with pytest.raises(ValueError):
        ball_series(4)


def test_ball_csv_round_trip(tmp_path):
    series = ball_series(2)
    path = tmp_path / "ball.csv"
    write_series_csv(path, series)
    loaded = load_csv(path, descriptor_for("ball", 2))
    np.testing.assert_array_equal(loaded.timestamps, series.timestamps)
    np.testing.assert_array_equal(loaded.values, series.values)


def test_load_intel_schema(tmp_path):
    path = tmp_path / "intel.csv"
    path.write_text(
        "epoch,moteid,temperature\n"
        "1,7,20.0\n"
        "2,7,20.5\n"
        "3,7,21.0\n"
    )
    s = load_csv(path, descriptor_for("intel"))
    # Epochs scale by the 31 s reporting period.
    np.testing.assert_array_equal(s.timestamps, [31.0, 62.0, 93.0])
    np.testing.assert_array_equal(s.values, [20.0, 20.5, 21.0])
    assert s.resolution == 0.01
    assert s.unit == "degC"


def test_load_sensorscope_schema_column_order(tmp_path):
    path = tmp_path / "station.csv"
    path.write_text(
        "station,epoch,temperature\n"
        "3,10,5.0\n"
        "3,11,5.5\n"
    )
    s = load_csv(path, descriptor_for("sensorscope"))
    np.testing.assert_array_equal(s.timestamps, [300.0, 330.0])
    np.testing.assert_array_equal(s.values, [5.0, 5.5])


def test_load_with_gap_gets_interpolation_noise(tmp_path):
    path = tmp_path / "gappy.csv"
    # Epoch 3 missing: the grid point is filled with noisy interpolation.
    path.write_text(
        "epoch,moteid,temperature\n"
        "1,7,20.0\n2,7,21.0\n4,7,23.0\n5,7,24.0\n"
    )
    s = load_csv(path, descriptor_for("intel"))
    assert len(s) == 5
    np.testing.assert_array_equal(s.values[[0, 1, 3, 4]], [20.0, 21.0, 23.0, 24.0])
    assert s.values[2] != 22.0  # interpolated then perturbed
    assert abs(s.values[2] - 22.0) < 1.0
    # Loading is deterministic: the fill seed comes from the descriptor.
    again = load_csv(path, descriptor_for("intel"))
    np.testing.assert_array_equal(s.values, again.values)


def test_load_multi_sensor_requires_selector(tmp_path):
    path = tmp_path / "two_motes.csv"
    path.write_text(
        "epoch,moteid,temperature\n"
        "1,7,20.0\n1,8,30.0\n2,7,21.0\n2,8,31.0\n"
    )
    with pytest.raises(DataFormatError, match="sensor id"):
        load_csv(path, descriptor_for("intel"))
    s7 = load_csv(path, descriptor_for("intel", sensor_id=7))
    np.testing.assert_array_equal(s7.values, [20.0, 21.0])
    s8 = load_csv(path, descriptor_for("intel", sensor_id=8))
    np.testing.assert_array_equal(s8.values, [30.0, 31.0])
    with pytest.raises(DataFormatError, match="no rows"):
        load_csv(path, descriptor_for("intel", sensor_id=99))


def test_load_duplicate_epochs_last_wins(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "epoch,moteid,temperature\n"
        "1,7,20.0\n2,7,99.0\n2,7,21.0\n3,7,22.0\n"
    )
    s = load_csv(path, descriptor_for("intel"))
    np.testing.assert_array_equal(s.values, [20.0, 21.0, 22.0])


def test_load_running_track_keeps_raw_timestamps(tmp_path):
    path = tmp_path / "run.csv"
    path.write_text(
        "timestamp,latitude,longitude\n"
        "0.0,45.1,7.6\n"
        "1.5,45.2,7.7\n"
        "9.0,45.3,7.9\n"
    )
    lat = load_csv(path, descriptor_for("running_latitude"))
    lon = load_csv(path, descriptor_for("running_longitude"))
    np.testing.assert_array_equal(lat.timestamps, [0.0, 1.5, 9.0])
    np.testing.assert_array_equal(lat.values, [45.1, 45.2, 45.3])
    np.testing.assert_array_equal(lon.values, [7.6, 7.7, 7.9])
    assert lat.resolution == 8.38e-8


# One small file per family in its schema, with the timestamps it must load
# to: epoch counters scale by the family cadence, seconds stay as written.
_FAMILY_CASES = {
    DatasetFamily.INTEL: ("epoch,moteid,temperature\n1,7,20.0\n2,7,20.5\n3,7,21.0\n",
                          [31.0, 62.0, 93.0], [20.0, 20.5, 21.0], "degC"),
    DatasetFamily.SENSORSCOPE: ("station,epoch,temperature\n3,1,20.0\n3,2,20.5\n3,3,21.0\n",
                                [30.0, 60.0, 90.0], [20.0, 20.5, 21.0], "degC"),
    DatasetFamily.BALL: ("timestamp,position\n4,20.0\n5,20.5\n6,21.0\n",
                         [4.0, 5.0, 6.0], [20.0, 20.5, 21.0], "m"),
    DatasetFamily.RUNNING_LATITUDE: (
        "timestamp,latitude,longitude\n0.0,20.0,7.0\n1.5,20.5,7.5\n9.0,21.0,8.0\n",
        [0.0, 1.5, 9.0], [20.0, 20.5, 21.0], "deg"),
    DatasetFamily.RUNNING_LONGITUDE: (
        "timestamp,latitude,longitude\n0.0,20.0,7.0\n1.5,20.5,7.5\n9.0,21.0,8.0\n",
        [0.0, 1.5, 9.0], [7.0, 7.5, 8.0], "deg"),
}


@pytest.mark.parametrize("family", list(DatasetFamily), ids=lambda f: f.value)
def test_every_family_loads_its_schema(tmp_path, family):
    text, timestamps, values, unit = _FAMILY_CASES[family]
    path = tmp_path / f"{family.value}.csv"
    path.write_text(text)
    descriptor = descriptor_for(family)
    s = load_csv(path, descriptor)
    np.testing.assert_array_equal(s.timestamps, timestamps)
    np.testing.assert_array_equal(s.values, values)
    assert s.unit == descriptor.unit == unit
    assert s.resolution == builtin_threshold(family)


def _messy_intel_csv() -> str:
    """Two motes over epochs 1-40 with 17-18 missing, a whitespace-padded
    row, a blank and a whitespace-only row, and a late re-report of epoch
    12 by mote 3 (last write wins)."""
    rng = np.random.default_rng(2024)
    lines = ["epoch,moteid,temperature"]
    for epoch in range(1, 41):
        if epoch in (17, 18):
            continue
        for mote in (3, 9):
            lines.append(f"{epoch},{mote},{20.0 + rng.standard_normal()!r}")
    lines[5] = f"  {lines[5].replace(',', ' , ')}  "
    lines[20:20] = ["", " , , "]
    lines.append(f"12,3,{25.0 + rng.standard_normal()!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("sensor_id, golden", [
    (3, "43f2c13aeb9e403a4f6422bdfae9250ab78a85e187d2426f155bd7b928c7235d"),
    (9, "d247ba29f18b6c82b308b6b638e4b7ebcbeb5fcee7f98b54c2a7fd9240f14eac"),
])
def test_load_csv_output_is_pinned(tmp_path, sensor_id, golden):
    path = tmp_path / "motes.csv"
    path.write_text(_messy_intel_csv())
    s = load_csv(path, descriptor_for("intel", 2, sensor_id=sensor_id))
    assert len(s) == 40
    digest = hashlib.sha256()
    digest.update(s.timestamps.astype("<f8").tobytes())
    digest.update(s.values.astype("<f8").tobytes())
    digest.update(s.unit.encode())
    digest.update(float(s.resolution).hex().encode())
    assert digest.hexdigest() == golden


def test_load_rejects_schema_violations(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(empty, descriptor_for("intel"))

    wrong_header = tmp_path / "wrong.csv"
    wrong_header.write_text("time,value\n1,2\n")
    with pytest.raises(DataFormatError, match="header"):
        load_csv(wrong_header, descriptor_for("intel"))

    bad_field = tmp_path / "bad.csv"
    bad_field.write_text("epoch,moteid,temperature\n1,7,warm\n")
    with pytest.raises(DataFormatError, match="bad.csv:2"):
        load_csv(bad_field, descriptor_for("intel"))

    short_row = tmp_path / "short.csv"
    short_row.write_text("epoch,moteid,temperature\n1,7\n")
    with pytest.raises(DataFormatError, match="expected 3 fields"):
        load_csv(short_row, descriptor_for("intel"))

    no_rows = tmp_path / "norows.csv"
    no_rows.write_text("epoch,moteid,temperature\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(no_rows, descriptor_for("intel"))


def test_load_tolerates_blank_lines_and_header_case(tmp_path):
    path = tmp_path / "messy.csv"
    path.write_text(
        "Epoch, MoteId ,Temperature\n"
        "1,7,20.0\n"
        "\n"
        "2,7,21.0\n"
    )
    s = load_csv(path, descriptor_for("intel"))
    assert len(s) == 2


_NUMBER = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e400", "4e-324", "-0", ".5", "5.",
                     "1E5", "+3"]),
)
_PAD = st.sampled_from(["", " ", "\t"])
_ROW = st.lists(st.tuples(_PAD, _NUMBER, _PAD).map("".join), min_size=3, max_size=3).map(",".join)
# Rows only the csv-module loop reads, or refuses with a line number.
_ODD_ROW = st.one_of(
    st.sampled_from(["", "  ", "\t", ", ,", " , , ", "#1,2,3", '"1",2,3', "2_5,1,2", "1,2,3,",
                     "1,2", "1,2,3,4", "1,2,3\r4,5,6"]),
    st.lists(st.text(alphabet="0123456789.-e +\t\"#_", max_size=4), max_size=4).map(",".join),
)


def _outcome(read, *args):
    # A DataFormatError, or the ValueError of a series the rows cannot make.
    try:
        return read(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _csv_columns(path, header):
    # The csv-module reading of the whole file, header check included.
    with open(path, encoding="utf-8", newline="") as fh:
        next(fh)
        rows = fh.read()
    return dict(zip(header, datasets._csv_table(path, rows, len(header)).T))


def _loaded(path, descriptor):
    series = load_csv(path, descriptor)
    return series.timestamps.tobytes(), series.values.tobytes()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(rows=st.lists(_ROW, max_size=6),
       odd=st.lists(st.tuples(st.integers(0, 6), _ODD_ROW), max_size=2),
       newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans())
def test_csv_fast_path_matches_the_csv_module_path(tmp_path_factory, rows, odd, newline,
                                                   final_newline):
    # GPS tracks keep raw timestamps, so load_csv does no gap filling here.
    header = ("timestamp", "latitude", "longitude")
    for at, row in odd:
        rows.insert(at, row)
    rows = newline.join(rows) + (newline if final_newline else "")
    path = tmp_path_factory.mktemp("csv") / "track.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + rows)

    slow = _outcome(datasets._csv_table, path, rows, len(header))
    fast = datasets._fast_table(path, len(header))
    if fast is not None:
        assert not isinstance(slow, str), slow
        assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes()

    expected = _outcome(_csv_columns, path, header)
    got = _outcome(datasets._parse_columns, path, header)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert [v.tobytes() for v in got.values()] == [v.tobytes() for v in expected.values()]

    descriptor = descriptor_for("running_latitude")
    with mock.patch.object(datasets, "_parse_columns", _csv_columns):
        expected = _outcome(_loaded, path, descriptor) if not isinstance(expected, str) else expected
    assert _outcome(_loaded, path, descriptor) == expected
