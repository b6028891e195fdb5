"""Scenario evaluation harness.

A scenario fixes a dataset, a method, a history length H and a forecast
window W.  Running it draws seeded rolling-origin splits, refits on each
history as the sensor does (``dps.ship``, fallback included), forecasts
the window from the model it ships, and records accuracy (MAPE) plus how
many of the W transmissions the protocol would have suppressed.  The S
splits of a scenario are scored as one S x H and one S x W block.  Rows
sharing a seed share split origins exactly, which is what makes the paired
significance test and the fairness rule meaningful.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import DatasetDescriptor, _atomic_write
from .dps import ship, suppressed
from .forecast import METHOD_SPECS, FitConfig, FitError, MethodKind, forecast
from .forecast.models import _unit_scaled
from .series import TimeSeries, check_count, extract_splits, quantize_to_resolution

__all__ = [
    "HISTORY_GRID",
    "WINDOW_GRID",
    "Scenario",
    "ScenarioResult",
    "ComparisonVerdict",
    "MapeUndefined",
    "CalibrationError",
    "mape",
    "run_scenario",
    "count_avoided",
    "compare_to_baseline",
    "fairness_filter",
    "attach_fairness",
    "calibrate_resolution",
    "equal_pair_fraction",
    "emit_report",
    "manifest_sha256",
    "write_json",
]

HISTORY_GRID = (5, 10, 20, 50, 100, 200, 500, 1000)
WINDOW_GRID = (1, 5, 10, 20, 50, 100, 200, 500, 1000)

_ZERO_DENOM = 1e-12


class MapeUndefined(ValueError):
    """Every term had a zero denominator; the mean is undefined."""


class CalibrationError(ValueError):
    """Resolution calibration cannot produce a meaningful answer."""


def mape(actual, predicted):
    """Mean absolute percentage error and the count of skipped terms.

    Terms whose actual value is within 1e-12 of zero cannot contribute a
    percentage and are excluded.  On two vectors the result is a float and
    an int, and if every term is excluded the error is undefined and
    :class:`MapeUndefined` is raised.  On two S x W blocks it is one error
    per row, NaN for a row whose every term is excluded, and one skipped
    count per row.

    Every row is averaged as it would be on its own: rows with no excluded
    term by one ``np.mean`` over the block (numpy sums each contiguous row
    pairwise, exactly as it sums a vector), the others compressed one by
    one, because zeros in place of the excluded terms would change the
    pairwise grouping.  Excluded terms are never computed.
    """
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape or actual.ndim not in (1, 2):
        raise ValueError(
            f"actual and predicted must be equal-shape vectors or blocks, got "
            f"{actual.shape} and {predicted.shape}"
        )
    if actual.shape[-1] == 0:
        raise ValueError("mape needs at least one term")
    rows, predicted_rows = np.atleast_2d(actual, predicted)
    keep = np.abs(rows) > _ZERO_DENOM
    kept = np.count_nonzero(keep, axis=1)
    whole = kept == rows.shape[1]
    values = np.full(len(rows), np.nan)
    values[whole] = _mean_terms(rows[whole], predicted_rows[whole])
    for i in np.flatnonzero(~whole & (kept > 0)):
        values[i] = _mean_terms(rows[i, keep[i]], predicted_rows[i, keep[i]])
    skipped = rows.shape[1] - kept
    if actual.ndim == 2:
        return values, skipped
    if not kept[0]:
        raise MapeUndefined(f"all {len(actual)} terms have zero denominators")
    return float(values[0]), int(skipped[0])


def _mean_terms(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    # Scaling by 2**-8 is exact here, so the terms are 100 (a - p) / a bit
    # for bit, but 100 (a - p) cannot overflow near the float limit.
    # A term or row past the largest float is inf, so its MAPE reads null.
    a, p = actual / 256.0, predicted / 256.0
    with np.errstate(over="ignore"):
        return np.mean(np.abs(100.0 * (a - p) / a), axis=-1)


@dataclass(frozen=True)
class Scenario:
    """One cell of the evaluation grid."""

    descriptor: DatasetDescriptor
    config: FitConfig
    history_len: int
    window_len: int
    n_splits: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("history_len", "window_len", "n_splits"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Per-split records plus the aggregates one report row carries.

    ``mape_values`` holds NaN for splits whose MAPE was undefined; such
    splits still contribute avoided-transmission counts.
    """

    scenario: Scenario
    origins: np.ndarray
    mape_values: np.ndarray
    skipped_terms: np.ndarray
    avoided: np.ndarray
    fairness: bool | None = None

    @property
    def n_splits(self) -> int:
        return len(self.origins)

    @property
    def mape_mean(self) -> float:
        defined = self.mape_values[~np.isnan(self.mape_values)]
        if len(defined) == 0:
            return float("nan")
        return _unit_scaled_stat(np.mean, defined)

    @property
    def mape_std(self) -> float:
        defined = self.mape_values[~np.isnan(self.mape_values)]
        if len(defined) < 2:
            return 0.0
        if np.isinf(defined).any():
            # An overflowed MAPE has no spread (NaN, so null in the report).
            return float("nan")
        return _unit_scaled_stat(lambda v: np.std(v, ddof=1), defined)

    @property
    def ci95(self) -> float:
        defined = np.count_nonzero(~np.isnan(self.mape_values))
        if defined < 2:
            return 0.0
        return float(1.96 * self.mape_std / np.sqrt(defined))

    @property
    def avoided_mean(self) -> float:
        return float(np.mean(self.avoided))

    @property
    def saved_pct(self) -> float:
        return 100.0 * self.avoided_mean / self.scenario.window_len

    @property
    def model_updates_per_window(self) -> int:
        # One refit ships per completed window; value-holding ships none.
        return 0 if METHOD_SPECS[self.scenario.config.method].holds else 1

    @property
    def skipped_total(self) -> int:
        return int(np.sum(self.skipped_terms))

    def to_json_dict(self) -> dict:
        s = self.scenario
        return {
            "family": s.descriptor.family.value,
            "group": s.descriptor.group,
            "method": s.config.method.value,
            "H": s.history_len,
            "W": s.window_len,
            "n_splits": s.n_splits,
            "seed": s.seed,
            "delta_min": s.descriptor.threshold,
            "mape_mean": _finite_or_none(self.mape_mean),
            "mape_std": _finite_or_none(self.mape_std),
            "ci95": _finite_or_none(self.ci95),
            "avoided_mean": self.avoided_mean,
            "saved_pct": self.saved_pct,
            "model_updates": self.model_updates_per_window,
            "fairness": self.fairness,
            "skipped_terms": self.skipped_total,
            "per_split": {
                "origins": self.origins.tolist(),
                "mape": [_finite_or_none(v) for v in self.mape_values.tolist()],
                "skipped": self.skipped_terms.tolist(),
                "avoided": self.avoided.tolist(),
            },
        }


def _unit_scaled_stat(stat, values: np.ndarray) -> float:
    # stat(values) taken on the values scaled by the power of two that puts
    # max|v| in [0.5, 1), then scaled back: no sum or square overflows, and
    # for normal values the scaling is exact, so the result is stat's.
    scaled, exponent = _unit_scaled(values)
    return float(np.ldexp(stat(scaled), exponent))


def _finite_or_none(value: float) -> float | None:
    # JSON has no NaN or Infinity: an undefined or overflowed MAPE is null
    # (an empty cell in the CSV).
    return value if math.isfinite(value) else None


def count_avoided(method: MethodKind, history_last, window: np.ndarray,
                  predicted: np.ndarray, delta_min: float):
    """Window steps the threshold rule would have suppressed.

    The value-holding method re-anchors on every transmitted value, exactly
    as its protocol run does; every other method forecasts the whole window
    from the model its refit ships, so suppression is a pointwise
    comparison with ``predicted``.  On vectors the result is an int.  On
    S x W blocks, with one ``history_last`` per row, it is one count per
    row, and value-holding is one pass over the W columns, each compared
    for all S rows at once.
    """
    windows = np.atleast_2d(window)
    # An overflowing difference is inf, so that step transmits, as it does
    # in the protocol, which compares Python floats and never warns.
    with np.errstate(over="ignore"):
        if METHOD_SPECS[method].holds:
            avoided = _held_steps(np.atleast_1d(history_last), windows, delta_min)
        else:
            avoided = np.count_nonzero(
                suppressed(np.atleast_2d(predicted), windows, delta_min), axis=1)
    return avoided if np.ndim(window) == 2 else int(avoided[0])


def _held_steps(history_last: np.ndarray, windows: np.ndarray, delta_min: float) -> np.ndarray:
    # A row holds the history's last value until its first transmission,
    # then the last transmitted reading.
    base = history_last.astype(np.float64)
    avoided = np.zeros(len(base), dtype=np.int64)
    for column in windows.T:
        held = suppressed(base, column, delta_min)
        avoided += held
        base = np.where(held, base, column)
    return avoided


def _forecasts(histories: np.ndarray, config: FitConfig, n_steps: int) -> np.ndarray:
    """The S x W forecasts of the models the refits on the histories ship
    (``dps.ship``), so flat at the last value where a fit fails or the wire
    refuses it; a FitError below the method's minimum history.  The closed
    forms are fitted as one block, and the wire's rule is one test on it."""
    spec = METHOD_SPECS[config.method]
    need = spec.min_history(config)
    if histories.shape[1] < need:
        raise FitError(f"{config.method.value} needs a history of at least {need} values")
    if spec.fit_block is None:
        return np.array([forecast(ship(history, config)[1], n_steps) for history in histories])
    params = spec.fit_block(histories)
    predicted = spec.forecast_block(params, n_steps)
    # Only the refused rows are rewritten: np.where would copy the block.
    refused = ~np.isfinite(params).all(axis=1)
    predicted[refused] = histories[refused, -1:]
    return predicted


def run_scenario(scenario: Scenario, series: TimeSeries) -> ScenarioResult:
    """Evaluate one grid cell over its seeded splits, scored as one block."""
    s = scenario
    splits = extract_splits(series, s.history_len, s.window_len, s.n_splits, s.seed)
    predicted = _forecasts(splits.histories, s.config, s.window_len)
    mape_values, skipped = mape(splits.windows, predicted)
    avoided = count_avoided(s.config.method, splits.histories[:, -1], splits.windows,
                            predicted, s.descriptor.threshold)
    return ScenarioResult(scenario=s, origins=splits.origins, mape_values=mape_values,
                          skipped_terms=skipped, avoided=avoided)


@dataclass(frozen=True)
class ComparisonVerdict:
    significant: bool
    mean_difference: float
    ci_half_width: float
    n: int
    direction: str  # "candidate", "baseline", or "none"


def _require_same_splits(a: ScenarioResult, b: ScenarioResult) -> None:
    if a.scenario.seed != b.scenario.seed or not np.array_equal(a.origins, b.origins):
        raise ValueError(
            "rows were evaluated on different split sets; rerun both with a "
            "shared seed before comparing"
        )


def compare_to_baseline(candidate: ScenarioResult,
                        baseline: ScenarioResult) -> ComparisonVerdict:
    """Paired per-split MAPE comparison with a 95% normal CI.

    Positive differences mean the candidate had lower error.  Splits where
    either side's MAPE was undefined are dropped pairwise.
    """
    _require_same_splits(candidate, baseline)
    diffs = baseline.mape_values - candidate.mape_values
    diffs = diffs[~np.isnan(diffs)]
    n = len(diffs)
    if n < 2:
        raise ValueError(f"need >= 2 paired splits with defined MAPE, have {n}")
    mean = float(np.mean(diffs))
    half = 1.96 * float(np.std(diffs, ddof=1)) / np.sqrt(n)
    significant = (mean - half > 0.0) or (mean + half < 0.0)
    if significant:
        direction = "candidate" if mean > 0 else "baseline"
    else:
        direction = "none"
    return ComparisonVerdict(significant=significant, mean_difference=mean,
                             ci_half_width=half, n=n, direction=direction)


def fairness_filter(candidate: ScenarioResult, constant_row: ScenarioResult,
                    window_len: int) -> bool:
    """True when the candidate suppresses at least two more transmissions
    per window than value-holding on the same splits."""
    _require_same_splits(candidate, constant_row)
    if (candidate.scenario.window_len != window_len
            or constant_row.scenario.window_len != window_len):
        raise ValueError("rows were evaluated with a different window length")
    if constant_row.scenario.config.method is not MethodKind.CONSTANT:
        raise ValueError("baseline row must come from the value-holding method")
    return candidate.avoided_mean - constant_row.avoided_mean >= 2.0


def equal_pair_fraction(series: TimeSeries, resolution: float) -> float:
    """Fraction of consecutive pairs that coincide after quantization."""
    q = quantize_to_resolution(series, resolution).values
    if len(q) < 2:
        raise ValueError("need at least two samples")
    return float(np.mean(q[1:] == q[:-1]))


def calibrate_resolution(series: TimeSeries, target: float = 0.5) -> float:
    """Smallest grid resolution making ``target`` of consecutive pairs equal.

    Scans a 1024-point geometric grid spanning the positive consecutive
    differences; if the whole span quantizes too finely, a geometric tail
    up to four times the largest difference is scanned as well.  The
    fraction is not monotone in r near bin boundaries, which is why this
    scans instead of bisecting.  Both spans are built on the readings
    scaled by 2**-shift, the least power of two that keeps four times their
    largest difference finite (none below 2**1021), and scaled back; a
    resolution past the largest float ends the scan.
    """
    if len(series) < 2:
        raise ValueError("calibration needs at least two samples")
    if not (0.0 < target < 1.0):
        raise ValueError(f"target must lie in (0, 1), got {target}")
    shift = max(int(np.frexp(np.max(np.abs(series.values)))[1]) - 1021, 0)
    adiffs = np.abs(np.diff(np.ldexp(series.values, -shift)))
    positive = adiffs[adiffs > 0]
    if len(positive) == 0:
        raise CalibrationError("series is constant; every resolution satisfies the target")
    lo = float(np.min(positive))
    hi = float(np.max(adiffs))
    grid = np.geomspace(lo, hi, 1024) if hi > lo else np.array([lo])
    with np.errstate(over="ignore"):
        candidates = np.ldexp(np.concatenate([grid, np.geomspace(hi, 4.0 * hi, 256)[1:]]),
                              shift)
    scanned = candidates[np.isfinite(candidates)].tolist()
    for r in scanned:
        if equal_pair_fraction(series, r) >= target:
            return r
    bound = f"up to {scanned[-1]!r}" if scanned else "that is finite"
    raise CalibrationError(f"no resolution {bound} reaches an equal-pair fraction of {target}")


def manifest_sha256(manifest: dict | None) -> str:
    """Stable digest of a manifest dict (sorted keys, compact separators)."""
    canonical = json.dumps(manifest or {}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_CSV_COLUMNS = (
    "family", "group", "method", "H", "W", "mape_mean", "mape_std", "ci95",
    "avoided_mean", "saved_pct", "model_updates", "fairness", "skipped_terms",
    "manifest_sha256",
)


# With an indent, json.dumps runs json's pure-Python encoder; without one,
# its C encoder.  _indented lays out containers itself and hands leaves and
# number lists to the C encoder.
_COMPACT = json.JSONEncoder(allow_nan=False)
# Exact types: a list holding a subclass (numpy.float64) is laid out item by
# item, which writes the same bytes.
_SCALARS = frozenset((int, float, bool, type(None)))


def _json_key(key) -> str:
    # json's conversion of a non-str key (json.encoder._make_iterencode).
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _COMPACT.encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _indented(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` writes it, nested at indent ``pad``."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = (",\n" + inner).join(f"{_COMPACT.encode(_json_key(k))}: {_indented(v, inner)}"
                                    for k, v in sorted(value.items()))
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= _SCALARS:
            # No number, boolean or null contains ", ", so in the compact
            # dump it separates items and nothing else.
            body = _COMPACT.encode(value)[1:-1].replace(", ", ",\n" + inner)
        else:
            body = (",\n" + inner).join(_indented(v, inner) for v in value)
        return f"[\n{inner}{body}\n{pad}]"
    return _COMPACT.encode(value)


def write_json(path, payload) -> None:
    """Write ``payload`` atomically as strict JSON (a NaN or infinity is a
    ValueError, raised before any file is touched), indented, with sorted
    keys: exactly ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, at the cost of json's C encoder."""
    _atomic_write(path, _indented(payload, "") + "\n")


def emit_report(rows, json_path, csv_path, *, manifest: dict | None = None) -> str:
    """Write the JSON (full fidelity) and CSV (flat) reports atomically.

    Returns the manifest digest embedded in both files.  Field order is
    fixed, floats are rendered by ``repr``, so identical rows always
    produce identical bytes.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("emit_report needs at least one row")
    digest = manifest_sha256(manifest)
    dicts = [r.to_json_dict() for r in rows]
    payload = {"manifest": manifest or {}, "manifest_sha256": digest, "rows": dicts}
    write_json(json_path, payload)

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            # numpy scalars subclass float but repr differently
            return repr(float(value))
        return str(value)

    lines = [",".join(_CSV_COLUMNS)]
    for d in dicts:
        row = {**d, "manifest_sha256": digest}
        lines.append(",".join(cell(row[col]) for col in _CSV_COLUMNS))
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    return digest


def attach_fairness(rows: list[ScenarioResult]) -> list[ScenarioResult]:
    """Fill the fairness flag on every row that has a value-holding
    counterpart over the same (dataset, H, W) cell."""
    constants = {}
    for row in rows:
        s = row.scenario
        if s.config.method is MethodKind.CONSTANT:
            key = (s.descriptor.family, s.descriptor.group, s.history_len,
                   s.window_len, s.seed)
            constants[key] = row
    out = []
    for row in rows:
        s = row.scenario
        key = (s.descriptor.family, s.descriptor.group, s.history_len,
               s.window_len, s.seed)
        base = constants.get(key)
        if base is None or s.config.method is MethodKind.CONSTANT:
            out.append(row)
        else:
            out.append(replace(row, fairness=fairness_filter(row, base, s.window_len)))
    return out
