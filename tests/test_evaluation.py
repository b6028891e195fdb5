from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorcast.datasets import ball_series, descriptor_for
from sensorcast.dps import run_dps
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
)
from sensorcast.forecast import FitConfig, FitError, MethodKind, fit_model, forecast, min_history
from sensorcast.series import TimeSeries, extract_splits


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


def test_count_avoided_agrees_with_protocol_run():
    # The evaluation shortcut and a real run must count identical
    # suppressions over one window.
    series = ball_series(1).slice(50, 130)
    H, W = 60, 20
    for method in ("constant", "linear", "simple_mean",
                   "exponential_smoothing", "arima"):
        config = FitConfig(method=method)
        trace = run_dps(series, config, H, W, delta_min=0.4)
        history = series.values[:H]
        window = series.values[H:H + W]
        if method == "constant":
            predicted = np.empty(0)
        else:
            predicted = forecast(fit_model(history, config), W)
        avoided = count_avoided(config.method, history[-1], window,
                                predicted, 0.4)
        assert W - avoided == trace.post_bootstrap_measurements, method


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


def _split_oracle(scenario, series):
    # One split at a time: fit, forecast, then the vector mape and
    # count_avoided on the origin's slices.  The MAPE is also checked
    # against its definition, compressed terms averaged by np.mean, since
    # the vector mape is the one-row case of the block code.
    s = scenario
    splits = extract_splits(series, s.history_len, s.window_len, s.n_splits, s.seed)
    rows = []
    for origin in splits.origins.tolist():
        history = series.values[origin:origin + s.history_len]
        window = series.values[origin + s.history_len:origin + s.history_len + s.window_len]
        predicted = forecast(fit_model(history, s.config), s.window_len)
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
    try:
        expected = _split_oracle(scenario, series)
    except FitError:
        with pytest.raises(FitError):
            run_scenario(scenario, series)
        return
    row = run_scenario(scenario, series)
    got = list(zip(row.origins.tolist(), [v.hex() for v in row.mape_values.tolist()],
                   row.skipped_terms.tolist(), row.avoided.tolist()))
    assert got == expected
