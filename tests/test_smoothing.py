from __future__ import annotations

import numpy as np
import pytest

from sensorcast.datasets import ball_series
from sensorcast.forecast.models import FitConfig, FitError, MethodKind, gaussian_neg2_loglik
from sensorcast.forecast.selection import forecast
from sensorcast.forecast.smoothing import (
    _best_cell,
    _default_grid,
    _lane_sse,
    _simple_weights,
    _sse,
    _trend_weights,
    _unit_scaled,
    fit_exponential_smoothing,
    simple_errors,
    trend_errors,
)
from sensorcast.series import quantize_to_resolution

ES_CONFIG = FitConfig(method="exponential_smoothing")


def simple_errors_oracle(values, alpha):
    # Plain-loop reference; the production code runs the equivalent
    # ARIMA(0,1,1) filter over first differences.
    level = values[0]
    errors = []
    for x in values[1:]:
        errors.append(x - level)
        level = alpha * x + (1.0 - alpha) * level
    return np.array(errors), level


def trend_errors_oracle(values, alpha, beta):
    # Textbook component form; the production code runs the equivalent
    # ARIMA(0,2,2) filter over second differences.
    level = values[0]
    trend = values[1] - values[0]
    errors = []
    for x in values[1:]:
        prev_level = level
        pred = level + trend
        errors.append(x - pred)
        level = alpha * x + (1.0 - alpha) * pred
        trend = beta * (level - prev_level) + (1.0 - beta) * trend
    return np.array(errors), level, trend


def oracle_inputs(short, seed):
    # The short series and a 1000-step walk, each at unit scale and at the
    # extremes of float64; gaps are judged relative to the largest magnitude.
    long = np.random.default_rng(seed).standard_normal(1000).cumsum()
    for values in (short, long):
        for scale in (1.0, 1e200, 1e-200):
            yield values * scale, 1e-11 * scale * np.abs(values).max()


def test_simple_errors_match_loop_oracle():
    rng = np.random.default_rng(17)
    for values, tol in oracle_inputs(rng.standard_normal(60).cumsum(), 19):
        for alpha in (0.01, 0.2, 0.55, 0.99, 1.0):
            got_err, got_level = simple_errors(values, alpha)
            exp_err, exp_level = simple_errors_oracle(values, alpha)
            np.testing.assert_allclose(got_err, exp_err, rtol=0, atol=tol)
            assert got_level == pytest.approx(exp_level, rel=0, abs=tol)


def test_simple_errors_alpha_one_tracks_last_value():
    values = np.array([3.0, 7.0, 2.0, 9.0])
    errors, level = simple_errors(values, 1.0)
    np.testing.assert_array_equal(errors, np.diff(values))
    assert level == values[-1]


def test_trend_errors_match_component_oracle():
    rng = np.random.default_rng(23)
    short = 5.0 + 0.3 * np.arange(50) + rng.standard_normal(50)
    for values, tol in oracle_inputs(short, 29):
        for alpha, beta in ((0.1, 0.1), (0.5, 0.05), (0.99, 0.99), (0.01, 0.01),
                            (1.0, 0.3)):
            got_err, got_l, got_b = trend_errors(values, alpha, beta)
            exp_err, exp_l, exp_b = trend_errors_oracle(values, alpha, beta)
            np.testing.assert_allclose(got_err, exp_err, rtol=0, atol=tol)
            assert got_l == pytest.approx(exp_l, rel=0, abs=tol)
            assert got_b == pytest.approx(exp_b, rel=0, abs=tol)


def test_trend_variant_nails_a_noiseless_line():
    line = 2.0 + 0.5 * np.arange(30.0)
    m = fit_exponential_smoothing(line, ES_CONFIG)
    assert m.orders == (2, 0, 0)
    np.testing.assert_allclose(m.state, [16.5, 0.5], rtol=0, atol=1e-9)
    np.testing.assert_allclose(forecast(m, 3), [17.0, 17.5, 18.0],
                               rtol=0, atol=1e-9)


def test_level_only_variant_wins_on_flat_noise():
    rng = np.random.default_rng(5)
    flat = 10.0 + 0.3 * rng.standard_normal(80)
    m = fit_exponential_smoothing(flat, ES_CONFIG)
    assert m.kind is MethodKind.EXPONENTIAL_SMOOTHING
    assert m.orders == (1, 0, 0)
    assert m.k == 2
    # Small weight: the fitted level averages across the noise.
    assert m.estimates[0] < 0.5
    assert forecast(m, 1)[0] == pytest.approx(10.0, abs=0.5)


def test_forced_alpha_one_reduces_to_last_value():
    rng = np.random.default_rng(29)
    values = rng.uniform(-5.0, 5.0, size=40)
    cfg = FitConfig(method="exponential_smoothing",
                    es_variants=("simple",), es_alpha_grid=(1.0,))
    m = fit_exponential_smoothing(values, cfg)
    assert m.estimates[0] == 1.0
    assert m.state[0] == values[-1]
    np.testing.assert_array_equal(forecast(m, 5), np.full(5, values[-1]))


def test_explicit_grid_is_respected_exactly():
    values = np.arange(20.0) ** 1.5
    cfg = FitConfig(method="exponential_smoothing",
                    es_variants=("simple",), es_alpha_grid=(0.3,))
    m = fit_exponential_smoothing(values, cfg)
    assert m.estimates[0] == 0.3


@pytest.mark.parametrize("variant", ["simple", "trend"])
def test_unsorted_alpha_grid_fits_as_sorted(variant):
    values = np.random.default_rng(37).standard_normal(40).cumsum()

    def fit(grid):
        return fit_exponential_smoothing(values, FitConfig(
            method="exponential_smoothing", es_variants=(variant,), es_alpha_grid=grid))

    got, want = fit((0.9, 0.1, 0.5)), fit((0.1, 0.5, 0.9))
    assert got.estimates.tolist() == want.estimates.tolist()
    assert got.state.tolist() == want.state.tolist()


def test_variant_restriction_is_honored():
    rng = np.random.default_rng(31)
    values = rng.standard_normal(30).cumsum()
    only_trend = fit_exponential_smoothing(
        values, FitConfig(method="exponential_smoothing", es_variants=("trend",)))
    assert only_trend.orders == (2, 0, 0)
    assert only_trend.k == 4
    only_simple = fit_exponential_smoothing(
        values, FitConfig(method="exponential_smoothing", es_variants=("simple",)))
    assert only_simple.orders == (1, 0, 0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(37)
    values = rng.standard_normal(50).cumsum()
    a = fit_exponential_smoothing(values, ES_CONFIG)
    b = fit_exponential_smoothing(values, ES_CONFIG)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    np.testing.assert_array_equal(a.state, b.state)
    assert a.orders == b.orders


def test_minimum_history_enforced():
    with pytest.raises(FitError):
        fit_exponential_smoothing(np.array([1.0, 2.0, 3.0]), ES_CONFIG)
    # Four observations is the floor and must fit.
    m = fit_exponential_smoothing(np.array([1.0, 2.0, 3.0, 4.0]), ES_CONFIG)
    assert m.fit_n == 4


def test_budget_zero_still_fits():
    rng = np.random.default_rng(41)
    values = rng.standard_normal(25)
    m = fit_exponential_smoothing(
        values, FitConfig(method="exponential_smoothing", budget=0))
    assert m.orders in ((1, 0, 0), (2, 0, 0))
    assert np.isfinite(forecast(m, 3)).all()


@pytest.mark.parametrize("variant", ["simple", "trend"])
def test_weights_do_not_depend_on_the_scale(variant):
    # At 2**600 every squared error overflows and at 2**-600 it underflows;
    # the weight search must still pick the unit-scale weights, bit for bit.
    values = np.random.default_rng(1).standard_normal(50).cumsum()
    config = FitConfig(method="exponential_smoothing", es_variants=(variant,))
    unit = fit_exponential_smoothing(values, config)
    for scale in (2.0 ** 600, 2.0 ** -600):
        with np.errstate(over="ignore"):
            scaled = fit_exponential_smoothing(values * scale, config)
        assert [v.hex() for v in scaled.estimates.tolist()] == \
            [v.hex() for v in unit.estimates.tolist()], scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_variant_choice_does_not_depend_on_the_scale():
    # At unit scale the trend variant wins on AICc; at 2**+-600 the
    # likelihood must not overflow or underflow into a tie that the
    # parameter count then breaks the other way.
    values = np.random.default_rng(0).standard_normal(50).cumsum()
    for scale in (1.0, 2.0 ** 600, 2.0 ** -600):
        m = fit_exponential_smoothing(values * scale, ES_CONFIG)
        assert m.orders == (2, 0, 0), scale
        # -2 log L of the history itself, not of its scaled copy.
        expected = (gaussian_neg2_loglik(trend_errors(values, *m.estimates)[0])
                    + 2.0 * (len(values) - 1) * np.log(scale))
        assert m.neg2_loglik == pytest.approx(expected, rel=1e-12), scale


def pinned_inputs():
    rng = np.random.default_rng(43)
    flat = 10.0 + 0.3 * rng.standard_normal(50)
    ramp = 5.0 + 0.3 * np.arange(50.0) + 0.2 * rng.standard_normal(50)
    return {
        "level_h50": (flat, {}),
        "trend_h50": (ramp, {}),
        "walk_h5": (rng.standard_normal(5).cumsum(), {}),
        "smooth_h500": (rng.standard_normal(500).cumsum().cumsum(), {}),
        "budget_zero": (rng.standard_normal(40).cumsum(), {"budget": 0}),
        "alpha_one": (ramp, {"es_alpha_grid": (1.0,)}),
    }


# Orders, weights (the estimates) and state as float.hex, recorded when one
# bounded Gauss-Newton search from the grid's best point chose the weights.
# A model ships its state alone.
PINNED_FITS = {
    "level_h50": ((1, 0, 0), ["0x1.68df49c09a8c4p-5"],
                  ["0x1.3f02d9883a413p+3"]),
    "trend_h50": ((2, 0, 0), ["0x1.387093e2c2ac6p-2", "0x1.e0b797fab9ddfp-2"],
                  ["0x1.39ae249fe6426p+4", "0x1.556b1c272b734p-2"]),
    "walk_h5": ((1, 0, 0), ["0x1.47ae147ae147bp-7"],
                ["-0x1.08fe0636463edp-2"]),
    "smooth_h500": ((2, 0, 0), ["0x1.f4f3847890f9dp-1", "0x1.fae147ae147aep-1"],
                    ["0x1.77538c19938b9p+11", "-0x1.9dcebd7eea490p-3"]),
    "budget_zero": ((1, 0, 0), ["0x1.90902cbd1ac7fp-1"],
                    ["-0x1.a2926595027c4p+1"]),
    "alpha_one": ((2, 0, 0), ["0x1.0000000000000p+0", "0x1.17c3ce98ed242p-4"],
                  ["0x1.3db8f29d65e15p+4", "0x1.4ab76b3392cd0p-2"]),
}


@pytest.mark.parametrize("name", sorted(PINNED_FITS))
def test_fit_exponential_smoothing_reproduces_pinned_fits(name):
    values, overrides = pinned_inputs()[name]
    m = fit_exponential_smoothing(
        values, FitConfig(method="exponential_smoothing", **overrides))
    orders, estimates, state = PINNED_FITS[name]
    assert m.orders == orders
    assert [v.hex() for v in m.estimates.tolist()] == estimates
    assert m.params.tolist() == []
    assert [v.hex() for v in m.state.tolist()] == state


def best_cell_oracle(search, alpha_grid, beta_grid):
    # One trend_errors call per cell, alpha-major; the first strict minimum
    # wins and a NaN never does.
    best = (np.inf, float(alpha_grid[0]), float(beta_grid[0]))
    for a in alpha_grid:
        for b in beta_grid:
            sse = _sse(trend_errors(search, a, b)[0])
            if sse < best[0]:
                best = (sse, float(a), float(b))
    return best[1:]


def test_lane_kernel_matches_single_filters():
    rng = np.random.default_rng(47)
    histories = [rng.standard_normal(n).cumsum() for n in (4, 5, 50, 200)]
    histories.append(5.0 + 0.3 * np.arange(60.0) + rng.standard_normal(60))
    histories.append(np.zeros(30))
    grids = [(_default_grid(13), _default_grid(13)),
             (_default_grid(3), _default_grid(3)),
             (np.array([0.0, 0.4, 1.0]), _default_grid(5))]
    for values in histories:
        search, _ = _unit_scaled(values)
        w = np.concatenate(([0.0], np.diff(search, 2)))
        for alpha_grid, beta_grid in grids:
            alphas, betas = (g.ravel() for g in np.meshgrid(alpha_grid, beta_grid,
                                                            indexing="ij"))
            got = _lane_sse(w, alphas * (1.0 + betas) - 2.0, 1.0 - alphas)
            expected = [_sse(trend_errors(search, a, b)[0])
                        for a, b in zip(alphas, betas)]
            # Same operations in the same order: equal, not merely close.
            assert got.tolist() == expected
            assert _best_cell(w, alpha_grid, beta_grid) == \
                best_cell_oracle(search, alpha_grid, beta_grid)


def search_inputs():
    # Unit-scaled H = 50 windows of the quantized ball traces, and walks of
    # several lengths.
    for group in (1, 2, 3):
        values = quantize_to_resolution(ball_series(group), 1.9).values
        for origin in range(0, len(values) - 50, 61):
            yield _unit_scaled(values[origin:origin + 50])[0]
    rng = np.random.default_rng(53)
    for n in (4, 5, 12, 50, 200):
        for _ in range(3):
            yield _unit_scaled(rng.standard_normal(n).cumsum())[0]


SEARCH_CONFIGS = [FitConfig(method="exponential_smoothing"),
                  FitConfig(method="exponential_smoothing", budget=2),
                  FitConfig(method="exponential_smoothing", es_alpha_grid=(0.2, 0.35, 0.5))]


def search_errors(search, weights):
    return (simple_errors if len(weights) == 1 else trend_errors)(search, *weights)[0]


def grid_start(search, config, variant):
    # The SSE of the best grid point, where the search starts.
    if variant == "simple":
        grid = (config.es_alpha_grid if config.es_alpha_grid is not None
                else _default_grid(max(3, min(25, config.budget ** 2))))
        return min(_sse(simple_errors(search, a)[0]) for a in grid)
    n_points = max(3, min(13, config.budget + 3))
    alpha_grid = (np.array(config.es_alpha_grid) if config.es_alpha_grid is not None
                  else _default_grid(n_points))
    w = np.concatenate(([0.0], np.diff(search, 2)))
    return _sse(trend_errors(search, *_best_cell(w, alpha_grid, _default_grid(n_points)))[0])


@pytest.mark.parametrize("variant", ["simple", "trend"])
def test_smoothing_search_never_ends_above_its_grid_start(variant):
    weights_of = _simple_weights if variant == "simple" else _trend_weights
    for config in SEARCH_CONFIGS:
        for search in search_inputs():
            weights = weights_of(search, config)
            assert _sse(search_errors(search, weights)) <= grid_start(search, config, variant)


@pytest.mark.parametrize("variant", ["simple", "trend"])
def test_smoothing_search_ends_at_a_kkt_point_of_its_box(variant):
    # Inside the box; along a free weight the errors' gradient vanishes, and
    # at a bound it points into the box, so descent would leave it.  The
    # gradient is measured as the cosine between e and de/dw, by central
    # differences, so that it does not depend on the series' scale.
    weights_of = _simple_weights if variant == "simple" else _trend_weights
    config = SEARCH_CONFIGS[0]
    lo, hi = [0.01, 0.01], [0.99, 0.99]
    for search in search_inputs():
        weights = weights_of(search, config)
        e = search_errors(search, weights)
        for i, w in enumerate(weights):
            assert lo[i] <= w <= hi[i]
            up, down = list(weights), list(weights)
            up[i] += 1e-6
            down[i] -= 1e-6
            de = (search_errors(search, up) - search_errors(search, down)) / 2e-6
            cosine = (de @ e) / (np.linalg.norm(de) * np.linalg.norm(e))
            if w == lo[i]:
                assert cosine > -1e-4
            elif w == hi[i]:
                assert cosine < 1e-4
            else:
                assert abs(cosine) < 1e-4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["simple", "trend"])
def test_flat_histories_fit_without_a_zero_pivot(variant):
    # Every error and every Jacobian column is zero: the search must stop
    # at its start, not divide by a zero pivot.
    histories = [np.full(n, c) for n in (4, 5, 50) for c in (0.0, 1.0, -3e300, 1e-300)]
    histories += [np.concatenate((np.zeros(30), [1.0])), np.concatenate(([1.0], np.zeros(30)))]
    for config in (FitConfig(method="exponential_smoothing", es_variants=(variant,)),
                   FitConfig(method="exponential_smoothing", es_variants=(variant,),
                             es_alpha_grid=(0.0,)),
                   FitConfig(method="exponential_smoothing", es_variants=(variant,), budget=0)):
        for values in histories:
            try:
                model = fit_exponential_smoothing(values, config)
            except FitError:
                continue
            assert np.isfinite(forecast(model, 3)).all()
            if np.all(values == values[0]):
                assert forecast(model, 3).tolist() == [values[0]] * 3
