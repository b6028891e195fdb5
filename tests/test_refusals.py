"""The three refusal rules, at every public entry point that applies one.

A count is an int >= 1, or >= 0 for a fit budget (numpy ints pass, 2.5
does not); a magnitude is finite and greater than 0 (NaN fails); a name
is the value of its enum.
Each rule has one message, so every row checks the whole text.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sensorcast.cli import load_manifest
from sensorcast.datasets import BallParams, DatasetDescriptor, ball_zero_crossings
from sensorcast.dps import Gateway, SensorNode
from sensorcast.evaluation import Scenario, emit_report, run_scenario
from sensorcast.forecast import FitConfig, ForecastModel, fit_constant, forecast
from sensorcast.ring import RingNetwork, approx_transmissions_paper, network_savings
from sensorcast.series import TimeSeries, extract_splits, gap_fill, quantize_to_resolution

SERIES = TimeSeries.regular(np.arange(12.0))
BALL = DatasetDescriptor("ball")
CONSTANT = FitConfig(method="constant")
MODEL = fit_constant(np.array([1.0, 2.0]))

# (parameter, entry point called with the value in that parameter's place)
COUNTS = [
    ("history_len", lambda n: SensorNode(CONSTANT, n, 5, 0.1)),
    ("window_len", lambda n: SensorNode(CONSTANT, 5, n, 0.1)),
    ("history_len", lambda n: Gateway("constant", n, 5)),
    ("window_len", lambda n: Gateway("constant", 5, n)),
    ("history_len", lambda n: Scenario(BALL, CONSTANT, n, 5)),
    ("window_len", lambda n: Scenario(BALL, CONSTANT, 5, n)),
    ("n_splits", lambda n: Scenario(BALL, CONSTANT, 5, 5, n_splits=n)),
    ("history_len", lambda n: extract_splits(SERIES, n, 3, 2, seed=0)),
    ("window_len", lambda n: extract_splits(SERIES, 3, n, 2, seed=0)),
    ("n_splits", lambda n: extract_splits(SERIES, 3, 3, n, seed=0)),
    ("group", lambda n: DatasetDescriptor("ball", group=n)),
    ("n_samples", lambda n: BallParams(n_samples=n)),
    ("count", lambda n: ball_zero_crossings(BallParams(), n)),
    ("branches", lambda n: RingNetwork(n, 2)),
    ("depth", lambda n: RingNetwork(2, n)),
    ("n_steps", lambda n: forecast(MODEL, n)),
]
# Counts that may be 0.
COUNTS_FROM_ZERO = [
    ("budget", lambda n: FitConfig(budget=n)),
]
MAGNITUDES = [
    ("delta_min", lambda v: SensorNode(CONSTANT, 5, 5, v)),
    ("resolution", lambda v: TimeSeries.regular([1.0, 2.0], resolution=v)),
    ("resolution", lambda v: quantize_to_resolution(SERIES, v)),
    ("expected_period", lambda v: gap_fill(SERIES, v)),
    ("delta_min", lambda v: DatasetDescriptor("ball", delta_min=v)),
    ("expected_period", lambda v: DatasetDescriptor("ball", expected_period=v)),
    ("amplitude", lambda v: BallParams(amplitude=v)),
    ("frequency", lambda v: BallParams(frequency=v)),
    ("dt", lambda v: BallParams(dt=v)),
    ("manifest delta_min", lambda v: load_manifest(None, {"delta_min": v})),
]
NAMES = [
    ("method", lambda s: SensorNode(FitConfig(method=s), 5, 5, 0.1)),
    ("method", lambda s: Gateway(s, 5, 5)),
    ("method", lambda s: ForecastModel(kind=s)),
    ("dataset family", lambda s: DatasetDescriptor(s)),
]


def _ids(table):
    return [f"{i}-{name}" for i, (name, _) in enumerate(table)]


@pytest.mark.parametrize("bad", [0, -1, 2.5, np.float64(3.0), math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, call", COUNTS, ids=_ids(COUNTS))
def test_a_count_is_an_int_of_at_least_one(name, call, bad):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == f"{name} must be an int >= 1, got {bad!r}"


@pytest.mark.parametrize("good", [3, np.int64(3)])
@pytest.mark.parametrize("name, call", COUNTS, ids=_ids(COUNTS))
def test_numpy_and_python_ints_pass_as_counts(name, call, good):
    call(good)


@pytest.mark.parametrize("bad", [-1, 2.5, np.float64(3.0), math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, call", COUNTS_FROM_ZERO, ids=_ids(COUNTS_FROM_ZERO))
def test_a_count_from_zero_is_an_int_of_at_least_zero(name, call, bad):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == f"{name} must be an int >= 0, got {bad!r}"


@pytest.mark.parametrize("good", [0, 3, np.int64(3)])
@pytest.mark.parametrize("name, call", COUNTS_FROM_ZERO, ids=_ids(COUNTS_FROM_ZERO))
def test_numpy_and_python_ints_pass_as_counts_from_zero(name, call, good):
    call(good)


def test_a_numpy_count_is_stored_as_an_int(tmp_path):
    # The report writer's json takes Python ints only.
    three = np.int64(3)
    scenario = Scenario(BALL, CONSTANT, three, three, n_splits=three)
    stored = [scenario.history_len, scenario.window_len, scenario.n_splits,
              DatasetDescriptor("ball", group=three).group, BallParams(n_samples=three).n_samples,
              RingNetwork(three, three).branches, RingNetwork(three, three).depth,
              FitConfig(budget=three).budget]
    assert [type(n) for n in stored] == [int] * 8
    emit_report([run_scenario(scenario, SERIES)], tmp_path / "r.json", tmp_path / "r.csv")


@pytest.mark.parametrize("bad", [0, 0.0, -1, -1e-300, math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("name, call", MAGNITUDES, ids=_ids(MAGNITUDES))
def test_a_magnitude_is_finite_and_positive(name, call, bad):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == f"{name} must be finite and positive, got {bad}"


@pytest.mark.parametrize("good", [2.5, np.float64(0.5), 3, np.int64(3)])
@pytest.mark.parametrize("name, call", MAGNITUDES, ids=_ids(MAGNITUDES))
def test_finite_positive_magnitudes_pass(name, call, good):
    call(good)


@pytest.mark.parametrize("name, call", NAMES, ids=_ids(NAMES))
def test_a_name_is_a_value_of_its_enum(name, call):
    with pytest.raises(ValueError, match=f"^unknown {name} 'bogus'; expected one of: "):
        call("bogus")
    call("ball" if name == "dataset family" else "constant")


# The largest depth a one-branch ring network may have: its float counts,
# times a percentage, stay finite.
MAX_DEPTH = int("1215920516968649718798053381012576906594428178802358535546333146"
                "059793480011756198553715819183510830069")


@pytest.mark.parametrize("branches, depth", [(1, 10**103), (1, MAX_DEPTH + 1), (10**309, 1),
                                             (2, MAX_DEPTH)])
def test_a_ring_network_whose_counts_pass_the_float_range_is_refused(branches, depth):
    with pytest.raises(ValueError) as err:
        RingNetwork(branches, depth)
    assert str(err.value) == (f"ring network of {branches} branches and depth {depth} is too "
                              f"large: 100 * branches * depth**3 passes the largest float")


def test_the_largest_ring_network_has_finite_float_counts():
    net = RingNetwork(1, MAX_DEPTH)
    assert math.isfinite(approx_transmissions_paper(net))
    assert network_savings(net, 100.0) > 0


@pytest.mark.parametrize("bad", [-1, -1e-300, math.nan, math.inf, -math.inf])
def test_decay_is_finite_and_not_negative(bad):
    with pytest.raises(ValueError) as err:
        BallParams(decay=bad)
    assert str(err.value) == f"decay must be finite and >= 0, got {bad}"
    BallParams(decay=0)
    BallParams(decay=np.float64(0.5))
