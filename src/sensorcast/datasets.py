"""Dataset descriptors, built-in thresholds, CSV ingestion, the bouncing
ball generator, and the atomic writer every output file goes through.

Every per-family ingestion fact (threshold, unit, cadence, CSV header, which
columns hold time, value and sensor id, and whether time counts epochs or
seconds) lives in one table, ``_FAMILIES``.  The CSV schemas (header
required, extra whitespace tolerated):

* indoor temperature (``intel`` family): ``epoch,moteid,temperature``;
  ``epoch`` is a monotone sample counter, converted to seconds by the
  descriptor's expected period.
* outdoor temperature (``sensorscope`` family): ``station,epoch,temperature``;
  same epoch convention.
* GPS track (``running_latitude`` / ``running_longitude``): ``timestamp,
  latitude,longitude``; timestamps are raw seconds and stay irregular, so
  no grid interpolation is applied on load.
* ball fixtures (``ball``): ``timestamp,position`` as written by the
  generator CLI.

Regular-cadence families are deduplicated (last write wins), sorted, and
gap-filled onto the expected grid with interpolation noise on the filled
points only.  Loading is deterministic: the noise seed derives from the
descriptor, never from ambient randomness.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import io
import math
import os
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries, check_count, check_magnitude, coerce_name, gap_fill

__all__ = [
    "DatasetFamily",
    "DatasetDescriptor",
    "DataFormatError",
    "BallParams",
    "BALL_GROUPS",
    "builtin_threshold",
    "descriptor_for",
    "ball_signal",
    "ball_zero_crossings",
    "generate_ball",
    "ball_series",
    "load_csv",
    "write_series_csv",
]


class DataFormatError(ValueError):
    """Input file violates its declared schema."""


class DatasetFamily(enum.Enum):
    INTEL = "intel"
    SENSORSCOPE = "sensorscope"
    BALL = "ball"
    RUNNING_LATITUDE = "running_latitude"
    RUNNING_LONGITUDE = "running_longitude"

    @classmethod
    def coerce(cls, value) -> "DatasetFamily":
        return coerce_name(cls, value, "dataset family")


@dataclass(frozen=True)
class _Family:
    """How one family's files are read and what its samples mean."""

    threshold: float
    unit: str
    cadence: float | None  # seconds between samples; None keeps raw timestamps
    header: tuple[str, ...]
    time: str
    value: str
    sensor: str | None = None  # sensor-id column of multi-sensor files
    epochs: bool = False  # time counts samples of the cadence, not seconds


_GPS_HEADER = ("timestamp", "latitude", "longitude")

# Reporting resolutions of the source sensors double as transmission
# thresholds.  The outdoor stations digitize [-55, 130] degC at 12 bits.
_FAMILIES = {
    DatasetFamily.INTEL: _Family(0.01, "degC", 31.0, ("epoch", "moteid", "temperature"),
                                 "epoch", "temperature", sensor="moteid", epochs=True),
    DatasetFamily.SENSORSCOPE: _Family((130.0 - (-55.0)) / 2 ** 12, "degC", 30.0,
                                       ("station", "epoch", "temperature"),
                                       "epoch", "temperature", sensor="station", epochs=True),
    DatasetFamily.BALL: _Family(0.001, "m", 1.0, ("timestamp", "position"),
                                "timestamp", "position"),
    DatasetFamily.RUNNING_LATITUDE: _Family(8.38e-8, "deg", None, _GPS_HEADER,
                                            "timestamp", "latitude"),
    DatasetFamily.RUNNING_LONGITUDE: _Family(8.38e-8, "deg", None, _GPS_HEADER,
                                             "timestamp", "longitude"),
}


def builtin_threshold(family) -> float:
    """Default transmission threshold for a dataset family."""
    return _FAMILIES[DatasetFamily.coerce(family)].threshold


@dataclass(frozen=True)
class DatasetDescriptor:
    """Identifies one sensor's series and how to ingest it."""

    family: DatasetFamily
    group: int = 1
    delta_min: float | None = None
    expected_period: float | None = None
    sensor_id: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", DatasetFamily.coerce(self.family))
        object.__setattr__(self, "group", check_count("group", self.group))
        # Every command takes its threshold and period from a descriptor.
        for name in ("delta_min", "expected_period"):
            if getattr(self, name) is not None:
                check_magnitude(name, getattr(self, name))
        if self.sensor_id is not None and _FAMILIES[self.family].sensor is None:
            raise ValueError(f"sensor_id {self.sensor_id} given, but {self.family.value} "
                             f"files have no sensor column")

    @property
    def threshold(self) -> float:
        return self.delta_min if self.delta_min is not None else _FAMILIES[self.family].threshold

    @property
    def period(self) -> float | None:
        return (self.expected_period if self.expected_period is not None
                else _FAMILIES[self.family].cadence)

    @property
    def unit(self) -> str:
        return _FAMILIES[self.family].unit

    @property
    def label(self) -> str:
        return f"{self.family.value}-g{self.group}"


def descriptor_for(family, group: int = 1, **overrides) -> DatasetDescriptor:
    """Descriptor with the family's built-in threshold, period, and unit."""
    return DatasetDescriptor(family=family, group=group, **overrides)


@dataclass(frozen=True)
class BallParams:
    """Bouncing ball with decaying rebound height and unit measurement noise.

    The noiseless trajectory is ``amplitude * |cos(2 pi frequency t)| *
    exp(-decay t)``; every sample then gets one standard normal draw.
    """

    amplitude: float = 50.0
    frequency: float = 0.1
    decay: float = 0.05
    n_samples: int = 2800
    dt: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        for name in ("amplitude", "frequency", "dt"):
            check_magnitude(name, getattr(self, name))
        if not 0 <= self.decay < math.inf:
            raise ValueError(f"decay must be finite and >= 0, got {self.decay}")
        object.__setattr__(self, "n_samples", check_count("n_samples", self.n_samples))


# The three standard ball scenarios: drop heights 50/100/200 with slow or
# fast decay, all bouncing at 0.1 Hz, sampled each second.
BALL_GROUPS = {
    1: BallParams(amplitude=50.0, decay=0.05, seed=71),
    2: BallParams(amplitude=100.0, decay=0.1, seed=72),
    3: BallParams(amplitude=200.0, decay=0.1, seed=73),
}


def ball_signal(t: np.ndarray, params: BallParams) -> np.ndarray:
    """Noiseless trajectory at times ``t`` (seconds)."""
    t = np.asarray(t, dtype=np.float64)
    # exp(-x) underflows to 0 where the reciprocal form would overflow.
    return (params.amplitude * np.abs(np.cos(2.0 * np.pi * params.frequency * t))
            * np.exp(-params.decay * t))


def ball_zero_crossings(params: BallParams, count: int) -> np.ndarray:
    """First ``count`` times the noiseless trajectory touches zero:
    t = (2k + 1) / (4 frequency)."""
    check_count("count", count)
    k = np.arange(count, dtype=np.float64)
    return (2.0 * k + 1.0) / (4.0 * params.frequency)


def generate_ball(params: BallParams, *, with_noise: bool = True) -> TimeSeries:
    """Sample the trajectory on its regular grid, optionally with noise."""
    t = params.dt * np.arange(params.n_samples, dtype=np.float64)
    values = ball_signal(t, params)
    if with_noise:
        rng = np.random.default_rng(params.seed)
        values = values + rng.standard_normal(params.n_samples)
    ball = _FAMILIES[DatasetFamily.BALL]
    return TimeSeries(t, values, unit=ball.unit, resolution=ball.threshold)


def ball_series(group: int, *, with_noise: bool = True) -> TimeSeries:
    """One of the standard ball scenarios by group number."""
    if group not in BALL_GROUPS:
        raise ValueError(f"ball group must be one of {sorted(BALL_GROUPS)}, got {group}")
    return generate_ball(BALL_GROUPS[group], with_noise=with_noise)


def _parse_columns(path, header: tuple[str, ...]) -> dict[str, np.ndarray]:
    """One float64 array per header column.

    After the header check, numpy's C reader (``np.loadtxt``) parses the
    data rows straight from the file.  Where it refuses them (a row of
    empty fields such as ``, ,``, a quoted, ``#`` or otherwise unparsable
    field, a ragged row, no rows at all) or finds another column count
    than the header's, the ``csv``-module loop of :func:`_csv_table` reads
    the rows instead: only that loop skips whitespace-only rows and names
    the line of a bad row in its :class:`DataFormatError`.  Wherever the C
    reader returns, both give the same bits.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        found = next(csv.reader(fh), None)
        if found is None:
            raise DataFormatError(f"{path}: empty file")
        found = tuple(h.strip().lower() for h in found)
        if found != header:
            raise DataFormatError(
                f"{path}: header {found} does not match expected {header}"
            )
        table = _fast_table(path, len(header))
        if table is None:
            table = _csv_table(path, fh.read(), len(header))
    return dict(zip(header, table.T))


def _fast_table(path, n_columns: int) -> np.ndarray | None:
    """The rows after the first line as an n x ``n_columns`` table from
    ``np.loadtxt``, or None where the ``csv``-module loop has to decide
    what they mean."""
    try:
        with warnings.catch_warnings():
            # A header-only file is the csv loop's "no data rows".
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2,
                               dtype=np.float64, encoding="utf-8")
    except ValueError:
        return None
    return table if len(table) and table.shape[1] == n_columns else None


def _csv_table(path, rows: str, n_columns: int) -> np.ndarray:
    """The data rows (the text after the header row) as an n x
    ``n_columns`` table, read by the ``csv`` module with one ``float()``
    per field; blank rows are skipped."""
    flat: list[float] = []
    for line_no, row in enumerate(csv.reader(io.StringIO(rows, newline="")), start=2):
        if not "".join(row).strip():
            continue
        if len(row) != n_columns:
            raise DataFormatError(
                f"{path}:{line_no}: expected {n_columns} fields, got {len(row)}"
            )
        try:
            flat.extend(map(float, row))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from None
    if not flat:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(flat).reshape(-1, n_columns)


def _dedupe_sorted(ts: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(ts, kind="stable")
    ts, vs = ts[order], vs[order]
    # Last write wins on duplicate timestamps.
    keep = np.concatenate([ts[1:] != ts[:-1], [True]])
    return ts[keep], vs[keep]


def load_csv(path, descriptor: DatasetDescriptor) -> TimeSeries:
    """Read one sensor's series from a CSV file per the family schema.

    Families with a regular cadence are resampled onto their grid with
    interpolation noise on filled points; GPS tracks keep their raw
    timestamps.  The result carries the descriptor's threshold as its
    resolution.
    """
    spec = _FAMILIES[descriptor.family]
    columns = _parse_columns(path, spec.header)
    ts, vs = columns[spec.time], columns[spec.value]
    if spec.sensor is not None:
        ids = columns[spec.sensor]
        if descriptor.sensor_id is not None:
            mask = ids == descriptor.sensor_id
            if not np.any(mask):
                raise DataFormatError(
                    f"{path}: no rows for sensor id {descriptor.sensor_id}"
                )
            ts, vs = ts[mask], vs[mask]
        elif len(distinct := np.unique(ids)) > 1:
            raise DataFormatError(
                f"{path}: {len(distinct)} sensor ids present; descriptor must "
                f"select one via sensor_id"
            )
    period = descriptor.period
    if spec.epochs:
        ts = ts * period

    ts, vs = _dedupe_sorted(ts, vs)
    if len(ts) < 2:
        raise DataFormatError(f"{path}: need at least two distinct samples")
    series = TimeSeries(ts, vs, unit=spec.unit, resolution=descriptor.threshold)
    if period is None:
        return series
    seed = zlib.crc32(f"{descriptor.family.value}:{descriptor.group}".encode())
    return gap_fill(series, period, seed=seed)


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    into place: a write that fails leaves neither a partial file under
    the final name nor the temporary one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(f"writing {path}: {exc}") from exc


def write_series_csv(path, series: TimeSeries) -> None:
    """Write a series atomically in the ball fixture schema (timestamp,
    position)."""
    rows = "".join(f"{t!r},{v!r}\n"
                   for t, v in zip(series.timestamps.tolist(), series.values.tolist()))
    _atomic_write(path, "timestamp,position\n" + rows)
