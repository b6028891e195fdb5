from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from sensorcast.forecast.filters import all_pole


def hexes(values):
    return [float(v).hex() for v in values]


DENOMINATORS = [
    [1.0, -0.5],
    [1.0, 0.999],
    [1.0, -1.7, 0.72],
    [1.0, 0.3, -0.95],
    [1.0, 1e-300, 1e300],
]


@pytest.mark.parametrize("a", DENOMINATORS)
def test_all_pole_is_lfilter_bit_for_bit(a):
    rng = np.random.default_rng(len(a))
    x = rng.standard_normal(97) * 10.0 ** rng.uniform(-3, 3, 97)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = lfilter([1.0], a, x)
        assert hexes(all_pole(a, x)) == hexes(expected)
        assert hexes(all_pole(np.array(a), x)) == hexes(expected)


@pytest.mark.parametrize("a", DENOMINATORS[:4])
def test_all_pole_on_strided_views(a):
    x = np.random.default_rng(5).standard_normal(120)
    for view in (x[::3], x[7:100:2], x[::-1], x[10:50]):
        assert hexes(all_pole(a, view)) == hexes(lfilter([1.0], a, view))


@pytest.mark.parametrize("a", DENOMINATORS[:4])
def test_all_pole_propagates_non_finite_inputs_as_lfilter(a):
    x = np.random.default_rng(6).standard_normal(12)
    for bad in (math.nan, math.inf, -math.inf):
        for pos in (0, 5, 11):
            y = x.copy()
            y[pos] = bad
            with np.errstate(invalid="ignore"):
                assert hexes(all_pole(a, y)) == hexes(lfilter([1.0], a, y))
    with np.errstate(invalid="ignore"):
        assert hexes(all_pole([1.0, math.nan], x)) == hexes(lfilter([1.0], [1.0, math.nan], x))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("a", DENOMINATORS[:4])
def test_all_pole_on_short_inputs(a, n):
    x = np.array([2.5, -0.75][:n])
    out = all_pole(a, x)
    assert out.shape == (n,)
    assert hexes(out) == hexes(lfilter([1.0], a, x))


def test_all_pole_returns_a_new_array():
    x = np.arange(5.0)
    out = all_pole([1.0, -0.5], x)
    assert not np.shares_memory(out, x)
    np.testing.assert_array_equal(x, np.arange(5.0))


@pytest.mark.parametrize("a", DENOMINATORS)
def test_all_pole_filters_each_row_as_its_own_call(a):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 48)) * 10.0 ** rng.uniform(-3, 3, (2, 48))
    x[1, 17] = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        out = all_pole(a, x)
        assert out.shape == x.shape
        for row, y in zip(x, out):
            assert hexes(y) == hexes(lfilter([1.0], a, row))


@pytest.mark.parametrize("a", DENOMINATORS[:4])
def test_all_pole_on_strided_rows(a):
    x = np.random.default_rng(8).standard_normal((6, 90))
    for view in (x[::2], x[1:5, 3:80:3], x[::-3, ::-1], x.T[:40].T, x[:2].T.copy().T):
        out = all_pole(a, view)
        assert not np.shares_memory(out, x)
        for row, y in zip(view, out):
            assert hexes(y) == hexes(lfilter([1.0], a, row))
