from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensorcast.datasets import ball_series, descriptor_for, write_series_csv
from sensorcast.dps import run_dps, ship
from sensorcast.evaluation import (
    HISTORY_GRID,
    WINDOW_GRID,
    CalibrationError,
    ComparisonVerdict,
    MapeUndefined,
    Scenario,
    ScenarioResult,
    attach_fairness,
    calibrate_resolution,
    compare_to_baseline,
    count_avoided,
    emit_report,
    equal_pair_fraction,
    fairness_filter,
    manifest_sha256,
    mape,
    run_scenario,
    write_json,
)
from sensorcast.forecast import FitConfig, FitError, MethodKind, forecast, min_history
from sensorcast.series import TimeSeries, extract_splits, quantize_to_resolution

from conftest import MAGNITUDES, SHAPES, shaped


def make_result(mape_values, avoided, *, method="linear", seed=0, window_len=10,
                origins=None, skipped=None):
    n = len(mape_values)
    scenario = Scenario(
        descriptor=descriptor_for("ball"),
        config=FitConfig(method=method),
        history_len=20,
        window_len=window_len,
        n_splits=n,
        seed=seed,
    )
    return ScenarioResult(
        scenario=scenario,
        origins=np.arange(n) if origins is None else np.asarray(origins),
        mape_values=np.asarray(mape_values, dtype=np.float64),
        skipped_terms=np.zeros(n, dtype=np.int64) if skipped is None else np.asarray(skipped),
        avoided=np.asarray(avoided, dtype=np.int64),
    )


def test_grids_cover_the_documented_sizes():
    assert HISTORY_GRID == (5, 10, 20, 50, 100, 200, 500, 1000)
    assert WINDOW_GRID == (1, 5, 10, 20, 50, 100, 200, 500, 1000)


def test_mape_hand_case_with_zero_denominator():
    value, skipped = mape([10.0, 0.0, 20.0], [11.0, 5.0, 18.0])
    assert value == pytest.approx(10.0)
    assert skipped == 1


def test_mape_exact_forecast_is_zero():
    value, skipped = mape([3.0, -4.0], [3.0, -4.0])
    assert value == 0.0
    assert skipped == 0


def test_mape_scale_invariance():
    rng = np.random.default_rng(6)
    actual = rng.uniform(1.0, 10.0, size=50)
    predicted = actual + rng.standard_normal(50)
    base, _ = mape(actual, predicted)
    for c in (0.01, 3.0, 1e6):
        scaled, _ = mape(c * actual, c * predicted)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_mape_undefined_and_shape_errors():
    with pytest.raises(MapeUndefined):
        mape([0.0, 1e-13], [1.0, 2.0])
    with pytest.raises(ValueError):
        mape([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        mape([], [])


def test_count_avoided_constant_reanchors():
    window = np.array([10.2, 11.5, 11.6, 13.0])
    got = count_avoided(MethodKind.CONSTANT, 10.0, window, np.empty(0), 1.0)
    # 10.2 holds, 11.5 transmits and re-anchors, 11.6 holds, 13.0 transmits.
    assert got == 2


def test_count_avoided_pointwise_for_model_methods():
    window = np.array([1.05, 2.5, 3.04])
    predicted = np.array([1.0, 2.0, 3.0])
    assert count_avoided(MethodKind.LINEAR, 0.0, window, predicted, 0.1) == 2
    # Exactly at the threshold counts as transmitted, not avoided.
    assert count_avoided(MethodKind.ARIMA, 0.0, np.array([1.5]),
                         np.array([1.0]), 0.5) == 0


@st.composite
def protocol_windows(draw):
    # A method, its history length, and one history plus one window of any
    # shape, scaled to any peak from 1e-300 to 1.5e308, with the threshold.
    method = draw(st.sampled_from([m.value for m in MethodKind]))
    history_len = min_history(FitConfig(method=method)) + draw(st.integers(0, 3))
    n = history_len + draw(st.integers(1, 8))
    magnitude = draw(st.sampled_from(MAGNITUDES))
    values = shaped(draw(st.sampled_from(SHAPES)), n,
                    np.random.default_rng(draw(st.integers(0, 2**32 - 1))), magnitude)
    relative_delta = draw(st.sampled_from((1e-3, 0.1, 1.0)))
    return method, history_len, values.tolist(), relative_delta * magnitude


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=protocol_windows())
# The linear fit's slope overflows, and the wire refuses it: the sensor
# holds 1.5e308 and suppresses all six readings.
@example(case=("linear", 4, [0.0, 0.0, -1.5e308, 1.5e308] + [1.5e308] * 6, 1.0))
def test_count_avoided_agrees_with_protocol_run(case):
    # Evaluate counts as suppressed exactly the window steps a protocol run
    # does not transmit.
    method, history_len, values, delta = case
    series = TimeSeries.regular(values)
    window_len = len(values) - history_len
    scenario = Scenario(descriptor=descriptor_for("ball", delta_min=delta),
                        config=FitConfig(method=method), history_len=history_len,
                        window_len=window_len, n_splits=1)
    row = run_scenario(scenario, series)
    trace = run_dps(series, scenario.config, history_len, window_len, delta)
    assert window_len - row.avoided[0] == trace.post_bootstrap_measurements


def test_run_scenario_scores_a_failed_fit_as_the_fallback():
    # No AR(1) fit of a doubling series is admissible.  Below the minimum
    # history evaluate refuses the scenario; above it each split is scored
    # as the sensor's fallback, a forecast flat at the last value, which
    # misses the next four readings by 50, 75, 87.5 and 93.75%.
    config = FitConfig(method="arima", order_grid=((1, 0, 0),))
    series = TimeSeries.regular(2.0 ** np.arange(20))

    def scenario(history_len):
        return Scenario(descriptor=descriptor_for("ball", delta_min=1.0), config=config,
                        history_len=history_len, window_len=4, n_splits=3, seed=1)

    with pytest.raises(FitError):
        run_scenario(scenario(min_history(config) - 1), series)
    row = run_scenario(scenario(12), series)
    assert row.mape_values.tolist() == [76.5625] * 3
    assert row.avoided.tolist() == [0] * 3


def test_run_scenario_shapes_and_determinism():
    series = ball_series(1)
    scenario = Scenario(descriptor=descriptor_for("ball"),
                        config=FitConfig(method="linear"),
                        history_len=20, window_len=10, n_splits=25, seed=3)
    a = run_scenario(scenario, series)
    b = run_scenario(scenario, series)
    assert a.n_splits == 25
    np.testing.assert_array_equal(a.origins, b.origins)
    np.testing.assert_array_equal(a.mape_values, b.mape_values)
    np.testing.assert_array_equal(a.avoided, b.avoided)
    assert np.all((0 <= a.avoided) & (a.avoided <= 10))


def test_run_scenario_shares_splits_across_methods():
    series = ball_series(2)
    base = dict(descriptor=descriptor_for("ball", 2), history_len=30,
                window_len=5, n_splits=15, seed=11)
    rows = [run_scenario(Scenario(config=FitConfig(method=m), **base), series)
            for m in ("constant", "simple_mean")]
    np.testing.assert_array_equal(rows[0].origins, rows[1].origins)


def test_run_scenario_perfect_method_scores_zero_error():
    line = TimeSeries.regular(5.0 + 2.0 * np.arange(300.0), resolution=0.5)
    scenario = Scenario(descriptor=descriptor_for("ball", delta_min=0.5),
                        config=FitConfig(method="linear"),
                        history_len=10, window_len=5, n_splits=10, seed=1)
    row = run_scenario(scenario, line)
    np.testing.assert_allclose(row.mape_values, 0.0, atol=1e-12)
    np.testing.assert_array_equal(row.avoided, 5)
    assert row.saved_pct == pytest.approx(100.0)


def test_run_scenario_all_zero_windows_are_nan_not_crash():
    flat = TimeSeries.regular(np.zeros(100))
    scenario = Scenario(descriptor=descriptor_for("ball", delta_min=0.1),
                        config=FitConfig(method="constant"),
                        history_len=10, window_len=4, n_splits=5, seed=2)
    row = run_scenario(scenario, flat)
    assert np.all(np.isnan(row.mape_values))
    assert np.isnan(row.mape_mean)
    assert row.mape_std == 0.0 and row.ci95 == 0.0
    np.testing.assert_array_equal(row.skipped_terms, 4)
    np.testing.assert_array_equal(row.avoided, 4)  # perfectly held


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_mape_reads_null_without_a_warning():
    # Every history mean is about 2.5e299, and every window holds a reading
    # of 2e-12 or 3e-12, against which the percentage error passes the
    # largest float.
    series = TimeSeries.regular(np.tile([2e-12, 1e300, 3e-12, 5.0], 10))
    scenario = Scenario(descriptor=descriptor_for("ball", delta_min=0.1),
                        config=FitConfig(method="simple_mean"),
                        history_len=4, window_len=3, n_splits=8, seed=0)
    row = run_scenario(scenario, series).to_json_dict()
    assert row["per_split"]["mape"] == [None] * 8
    assert row["mape_mean"] is None
    assert row["mape_std"] is None
    assert row["ci95"] is None


def test_scenario_statistics_do_not_overflow_near_the_float_limit():
    row = make_result([1e308, 1.5e308, 1.7e308], [0, 0, 0])
    assert row.mape_mean == pytest.approx(np.mean([1.0, 1.5, 1.7]) * 1e308, rel=1e-15)
    assert row.mape_std == pytest.approx(np.std([1.0, 1.5, 1.7], ddof=1) * 1e308, rel=1e-15)


def test_scenario_result_statistics_oracle():
    row = make_result([np.nan, 10.0, 20.0], [2, 3, 4], window_len=10)
    assert row.mape_mean == pytest.approx(15.0)
    assert row.mape_std == pytest.approx(np.std([10.0, 20.0], ddof=1))
    assert row.ci95 == pytest.approx(1.96 * row.mape_std / np.sqrt(2))
    assert row.avoided_mean == pytest.approx(3.0)
    assert row.saved_pct == pytest.approx(30.0)
    assert row.skipped_total == 0
    assert row.model_updates_per_window == 1
    constant = make_result([1.0, 2.0], [5, 5], method="constant")
    assert constant.model_updates_per_window == 0


def test_compare_to_baseline_directions():
    baseline = make_result([10.0, 11.0, 12.0, 13.0], [0, 0, 0, 0], seed=5)
    candidate = make_result([1.0, 2.0, 1.0, 2.0], [0, 0, 0, 0], seed=5)
    verdict = compare_to_baseline(candidate, baseline)
    assert isinstance(verdict, ComparisonVerdict)
    assert verdict.significant
    assert verdict.direction == "candidate"
    diffs = np.array([9.0, 9.0, 11.0, 11.0])
    assert verdict.mean_difference == pytest.approx(np.mean(diffs))
    assert verdict.ci_half_width == pytest.approx(
        1.96 * np.std(diffs, ddof=1) / 2.0)
    assert verdict.n == 4

    flipped = compare_to_baseline(baseline, candidate)
    assert flipped.significant
    assert flipped.direction == "baseline"
    assert flipped.mean_difference == pytest.approx(-verdict.mean_difference)


def test_compare_to_baseline_null_case_not_significant():
    a = make_result([10.0, 12.0, 11.0, 13.0], [0] * 4, seed=5)
    b = make_result([12.0, 10.0, 13.0, 11.0], [0] * 4, seed=5)
    verdict = compare_to_baseline(a, b)
    assert not verdict.significant
    assert verdict.direction == "none"


def test_compare_to_baseline_drops_nan_pairs():
    baseline = make_result([10.0, np.nan, 12.0, 13.0], [0] * 4, seed=5)
    candidate = make_result([1.0, 2.0, np.nan, 3.0], [0] * 4, seed=5)
    verdict = compare_to_baseline(candidate, baseline)
    assert verdict.n == 2


def test_compare_to_baseline_guards():
    a = make_result([1.0, 2.0], [0, 0], seed=5)
    b = make_result([1.0, 2.0], [0, 0], seed=6)
    with pytest.raises(ValueError, match="split"):
        compare_to_baseline(a, b)
    c = make_result([np.nan, 2.0], [0, 0], seed=5)
    with pytest.raises(ValueError, match=">= 2"):
        compare_to_baseline(a, c)


def test_fairness_filter_two_per_window_rule():
    constant = make_result([5.0, 5.0], [3, 3], method="constant", seed=9)
    passing = make_result([4.0, 4.0], [5, 5], seed=9)
    failing = make_result([4.0, 4.0], [4, 5], seed=9)
    assert fairness_filter(passing, constant, window_len=10) is True
    assert fairness_filter(failing, constant, window_len=10) is False
    with pytest.raises(ValueError, match="window length"):
        fairness_filter(passing, constant, window_len=20)
    not_constant = make_result([5.0, 5.0], [3, 3], method="linear", seed=9)
    with pytest.raises(ValueError, match="value-holding"):
        fairness_filter(passing, not_constant, window_len=10)


def test_attach_fairness_fills_matching_cells():
    constant = make_result([5.0], [2], method="constant", seed=4)
    winner = make_result([3.0], [4], method="arima", seed=4)
    loser = make_result([3.0], [3], method="linear", seed=4)
    rows = attach_fairness([constant, winner, loser])
    by_method = {r.scenario.config.method: r for r in rows}
    assert by_method[MethodKind.CONSTANT].fairness is None
    assert by_method[MethodKind.ARIMA].fairness is True
    assert by_method[MethodKind.LINEAR].fairness is False


def test_attach_fairness_without_baseline_leaves_none():
    rows = attach_fairness([make_result([3.0], [4], method="arima", seed=4)])
    assert rows[0].fairness is None


def test_equal_pair_fraction_hand_case():
    s = TimeSeries.regular([0.0, 0.1, 0.6, 0.7])
    # Quantized at 0.5: [0, 0, 0.5, 0.5] -> two of three pairs equal.
    assert equal_pair_fraction(s, 0.5) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="two samples"):
        equal_pair_fraction(TimeSeries.regular([1.0]), 0.5)


@pytest.mark.parametrize("field", ["history_len", "window_len", "n_splits"])
def test_scenario_rejects_a_length_below_one(field):
    lengths = {"history_len": 20, "window_len": 10, "n_splits": 5, field: 0}
    with pytest.raises(ValueError, match=field):
        Scenario(descriptor=descriptor_for("ball"), config=FitConfig(), **lengths)


def test_calibrate_resolution_meets_target():
    rng = np.random.default_rng(4)
    s = TimeSeries.regular(20.0 + 0.05 * rng.standard_normal(500))
    r = calibrate_resolution(s, target=0.5)
    assert equal_pair_fraction(s, r) >= 0.5
    assert r > 0
    assert calibrate_resolution(s, target=0.5) == r


def test_calibrate_resolution_failure_modes():
    # Steps of equal size on a large offset: no scanned resolution gets
    # anywhere near 95% equal pairs.
    s = TimeSeries.regular(1000.0 + 0.1 * np.arange(50))
    with pytest.raises(CalibrationError):
        calibrate_resolution(s, target=0.95)
    flat = TimeSeries.regular(np.full(10, 3.0))
    with pytest.raises(CalibrationError):
        calibrate_resolution(flat, target=0.5)
    with pytest.raises(ValueError):
        calibrate_resolution(TimeSeries.regular([1.0]), target=0.5)
    with pytest.raises(ValueError):
        calibrate_resolution(TimeSeries.regular([1.0, 2.0]), target=1.5)


def test_calibrate_resolution_scans_its_tail_past_the_largest_difference():
    # At any r up to the largest difference, 1, the values 0 and 1 quantize
    # apart; only an r past 2 (1 / r < 0.5) puts both at 0.
    s = TimeSeries.regular([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    r = calibrate_resolution(s, target=0.5)
    assert r == pytest.approx(2.005, abs=1e-3)
    assert equal_pair_fraction(s, r) == 1.0


def test_calibrate_resolution_names_the_largest_finite_resolution_it_scanned():
    # Readings alternating in sign at 0.75-1.5e308 (CI's extreme fixture):
    # the scan's tail passes the largest float, and the refusal names the
    # last resolution actually tried, not inf.
    rng = np.random.default_rng(0)
    values = rng.uniform(0.75e308, 1.5e308, 120) * np.where(np.arange(120) % 2, -1.0, 1.0)
    with pytest.raises(CalibrationError, match=r"^no resolution up to \S+ reaches") as err:
        calibrate_resolution(TimeSeries.regular(values), target=0.5)
    largest = float(str(err.value).split()[4])
    assert 1.7e308 < largest < math.inf
    # Every difference past the largest float: no candidate is finite.
    with pytest.raises(CalibrationError, match="^no resolution that is finite reaches an "
                                               "equal-pair fraction of 0.5$"):
        calibrate_resolution(TimeSeries.regular([1.5e308, -1.5e308, 1.5e308]), target=0.5)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1.5e308, 1.5e308), min_size=2, max_size=12),
       resolution=st.floats(0.0, 1.5e308, exclude_min=True), target=st.floats(0.05, 0.95))
@example(values=[1.5e308, 3.0], resolution=0.5, target=0.5)
@example(values=[2.0, -2.0], resolution=1e-320, target=0.5)
@example(values=[1.5e308, -1.5e308], resolution=1e308, target=0.5)
@example(values=[-1e308, 1e308, -1e308, 0.0, 0.0], resolution=1.0, target=0.5)
def test_quantize_and_calibrate_stay_finite_at_any_magnitude(values, resolution, target):
    # Tier-1 turns every warning, an overflow among them, into an error.
    # Quantizing moves a value by at most the resolution (and a few ulps of
    # rounding), to a value of its own sign, and not at all where the
    # quotient passes the largest float.
    s = TimeSeries.regular(values)
    x = np.asarray(values)
    q = quantize_to_resolution(s, resolution).values
    assert np.all(np.isfinite(q))
    assert np.all(q * np.sign(x) >= 0.0)
    assert np.all(np.abs(q - x) <= resolution + 4.0 * np.spacing(np.abs(x))), (x, q)
    with np.errstate(over="ignore"):
        past = np.isinf(x / resolution)
    assert np.array_equal(q[past], x[past])
    try:
        r = calibrate_resolution(s, target)
    except CalibrationError:
        return
    assert math.isfinite(r) and r > 0.0
    assert equal_pair_fraction(s, r) >= target


def test_manifest_sha256_is_canonical():
    digest = manifest_sha256({"b": 1, "a": [1, 2]})
    reordered = manifest_sha256({"a": [1, 2], "b": 1})
    assert digest == reordered
    expected = hashlib.sha256(
        json.dumps({"a": [1, 2], "b": 1}, sort_keys=True,
                   separators=(",", ":")).encode()).hexdigest()
    assert digest == expected
    assert manifest_sha256(None) == manifest_sha256({})


def test_emit_report_csv_and_json(tmp_path):
    rows = attach_fairness([
        make_result([5.0, 6.0], [2, 2], method="constant", seed=4),
        make_result([3.0, 4.0], [4, 5], method="arima", seed=4),
    ])
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    manifest = {"seed": 4, "methods": ["constant", "arima"]}
    digest = emit_report(rows, json_path, csv_path, manifest=manifest)
    assert digest == manifest_sha256(manifest)

    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("family,group,method,H,W,mape_mean,mape_std,ci95,"
                        "avoided_mean,saved_pct,model_updates,fairness,"
                        "skipped_terms,manifest_sha256")
    assert len(lines) == 3
    constant_cells = lines[1].split(",")
    arima_cells = lines[2].split(",")
    assert constant_cells[2] == "constant"
    assert constant_cells[11] == ""       # no fairness flag on the baseline
    assert arima_cells[11] == "true"
    assert constant_cells[-1] == digest
    # Floats are repr'd: parse back bit-exact.
    assert float(constant_cells[5]) == rows[0].mape_mean

    with open(json_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["manifest_sha256"] == digest
    assert payload["manifest"] == manifest
    assert len(payload["rows"]) == 2
    assert payload["rows"][1]["fairness"] is True
    assert payload["rows"][1]["per_split"]["avoided"] == [4, 5]

    # Emitting the same rows twice produces identical bytes.
    digest2 = emit_report(rows, tmp_path / "r2.json", tmp_path / "r2.csv",
                          manifest=manifest)
    assert digest2 == digest
    assert (tmp_path / "r2.csv").read_bytes() == csv_path.read_bytes()
    assert (tmp_path / "r2.json").read_bytes() == json_path.read_bytes()
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


def test_emit_report_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "a.json", tmp_path / "a.csv")


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"rows": [1, 2]}),
    lambda path: write_series_csv(path, ball_series(1)),
    lambda path: run_dps(ball_series(1).slice(0, 40), FitConfig(method="constant"),
                         20, 10, 0.001).to_jsonl(path),
], ids=["write_json", "write_series_csv", "to_jsonl"])
def test_failed_write_leaves_no_temp_file(tmp_path, write):
    target = tmp_path / "report.json"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError, match="report.json"):
        write(target)
    assert sorted(os.listdir(tmp_path)) == ["report.json"]
    assert target.is_dir() and not os.listdir(target)


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1.5e308, -1.5e308]))
_SCALARS = st.one_of(st.integers(), st.integers(-2**70, 2**70), _FLOATS, st.booleans(),
                     st.none())
# Strings with the compact dump's ", " separator in them, and non-ASCII text.
_STRINGS = st.one_of(st.text(max_size=6),
                     st.lists(st.sampled_from([", ", ",", " ", "é", "\u4e2d", "\U0001f600",
                                               '"', "\n", "1"]), max_size=5).map("".join))
_JSON = st.recursive(
    st.one_of(_SCALARS, _STRINGS, st.lists(_SCALARS, max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=20)


def _dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(payload=_JSON)
def test_write_json_writes_json_dumps_bytes(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(path, payload)
    assert path.read_bytes() == _dumps(payload).encode("utf-8")


@pytest.mark.parametrize("payload", [{2: [1], 10: 0}, {-1.5: 0, 2.5e-300: 1}, {True: 0, False: 1},
                                     {None: "x"}, {(1,): 0}, {"a": 0, 1: 1}])
def test_write_json_converts_keys_as_json_does(tmp_path, payload):
    try:
        expected = _dumps(payload).encode("utf-8")
    except TypeError:
        with pytest.raises(TypeError):
            write_json(tmp_path / "out.json", payload)
        assert os.listdir(tmp_path) == []
    else:
        write_json(tmp_path / "out.json", payload)
        assert (tmp_path / "out.json").read_bytes() == expected


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(payload=_JSON, bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       where=st.sampled_from(["value", "key", "numbers", "mixed", "nested"]),
       at=st.integers(0, 6))
def test_write_json_refuses_non_finite_floats_without_touching_a_file(
        tmp_path_factory, payload, bad, where, at):
    numbers = [1, 2.5, None, True]
    numbers.insert(at % 5, bad)
    payload = {"value": {"a": payload, "b": bad},
               "key": {bad: payload},
               "numbers": [payload, numbers],
               "mixed": [payload, "x, y", bad],
               "nested": {"a": [{"b": (payload, [numbers])}]}}[where]
    with pytest.raises(ValueError):
        _dumps(payload)
    root = tmp_path_factory.mktemp("json")
    with pytest.raises(ValueError):
        write_json(root / "out.json", payload)
    assert os.listdir(root) == []


def _split_oracle(scenario, series):
    # One split at a time: ship a refit, forecast, then the vector mape and
    # count_avoided on the origin's slices.  The MAPE is also checked
    # against its definition, compressed terms averaged by np.mean, since
    # the vector mape is the one-row case of the block code.
    s = scenario
    splits = extract_splits(series, s.history_len, s.window_len, s.n_splits, s.seed)
    rows = []
    for origin in splits.origins.tolist():
        history = series.values[origin:origin + s.history_len]
        window = series.values[origin + s.history_len:origin + s.history_len + s.window_len]
        predicted = forecast(ship(history, s.config), s.window_len)
        keep = np.abs(window) > 1e-12
        try:
            value, skipped = mape(window, predicted)
        except MapeUndefined:
            value, skipped = float("nan"), s.window_len
            assert not keep.any()
        else:
            a, p = window[keep] / 256.0, predicted[keep] / 256.0
            assert value.hex() == float(np.mean(np.abs(100.0 * (a - p) / a))).hex()
        avoided = count_avoided(s.config.method, history[-1], window, predicted,
                                s.descriptor.threshold)
        rows.append((origin, value.hex(), skipped, avoided))
    return rows


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(method=st.sampled_from([m.value for m in MethodKind]),
       exponent=st.sampled_from((-300, -150, -12, 0, 150, 300)),
       zero_share=st.sampled_from((0.0, 0.2, 0.6)),
       extra_history=st.integers(0, 12),
       window_len=st.integers(1, 24),
       n_splits=st.integers(1, 40),
       spare_origins=st.integers(0, 30),
       relative_delta=st.sampled_from((1e-3, 0.5, 2.0)),
       seed=st.integers(0, 2**32 - 1))
# Values up to 1.66e308: the second split's linear slope overflows, so the
# refit falls back.
@example(method="linear", exponent=308, zero_share=0.0, extra_history=0, window_len=2,
         n_splits=3, spare_origins=2, relative_delta=0.5, seed=4)
def test_run_scenario_equals_a_per_split_oracle(method, exponent, zero_share, extra_history,
                                                window_len, n_splits, spare_origins,
                                                relative_delta, seed):
    # Exact zeros make skipped terms; a zeroed stretch longer than a window
    # makes all-zero windows (NaN rows); more splits than origins draws
    # origins with replacement.
    config = FitConfig(method=method)
    history_len = min_history(config) + extra_history
    if method in ("arima", "exponential_smoothing"):
        n_splits = 1 + n_splits % 3
    rng = np.random.default_rng(seed)
    n = history_len + window_len + spare_origins
    values = rng.standard_normal(n) * np.where(rng.random(n) < zero_share, 0.0, 1.0)
    start = int(rng.integers(0, n))
    values[start:start + window_len + int(rng.integers(0, 5))] = 0.0
    scale = 10.0 ** exponent
    series = TimeSeries.regular(values * scale)
    scenario = Scenario(descriptor=descriptor_for("ball", delta_min=relative_delta * scale),
                        config=config, history_len=history_len, window_len=window_len,
                        n_splits=n_splits, seed=seed)
    expected = _split_oracle(scenario, series)
    row = run_scenario(scenario, series)
    got = list(zip(row.origins.tolist(), [v.hex() for v in row.mape_values.tolist()],
                   row.skipped_terms.tolist(), row.avoided.tolist()))
    assert got == expected
