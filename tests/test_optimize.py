from __future__ import annotations

import math

import numpy as np
import pytest

from sensorcast.forecast.optimize import gauss_newton, nelder_mead

from conftest import nelder_mead_array_oracle


def quartic(x):
    return (x[0] * x[0] - 2.0) ** 2 + 0.5 * x[0]


def rugged(x):
    return (x[0] - 0.3) ** 2 + 0.05 * math.sin(25.0 * x[0])


def kink(x):
    return abs(x[0] - 1e-3) + 1e-6 * x[0] ** 2


def test_nelder_mead_one_dimensional():
    res = nelder_mead(lambda x: (x[0] - 3.5) ** 2, [0.0], max_evals=500)
    assert res.x[0] == pytest.approx(3.5, abs=1e-5)
    assert res.fun < 1e-9


def test_nelder_mead_counts_evaluations_within_budget():
    counter = {"n": 0}

    def noisy_bowl(x):
        counter["n"] += 1
        return (x[0] - 1.0) ** 2 + 0.001 * math.sin(97.0 * x[0])

    for max_evals in (1, 2, 3, 7, 600):
        counter["n"] = 0
        res = nelder_mead(noisy_bowl, [3.0], max_evals=max_evals)
        assert res.n_evals == counter["n"]
        # Two vertices to start; after that only the last iteration, which
        # starts below the budget, may pass it, by up to 2.
        assert res.n_evals <= max(max_evals, 2) + 2


def test_nelder_mead_returns_best_ever_vertex():
    # fun must equal fn(x) for the reported x, and be no worse than the start.
    res = nelder_mead(quartic, [0.3], max_evals=200)
    assert res.fun == quartic(res.x.tolist())
    assert res.fun <= quartic([0.3])


def test_nelder_mead_starting_at_optimum_stays_there():
    res = nelder_mead(lambda x: (x[0] + 2.0) ** 2, [-2.0], max_evals=500)
    assert res.fun == 0.0
    assert res.x[0] == -2.0


def test_nelder_mead_is_deterministic():
    a = nelder_mead(rugged, [0.0], max_evals=300)
    b = nelder_mead(rugged, [0.0], max_evals=300)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.n_evals == b.n_evals


@pytest.mark.parametrize("x0", [[], [0.0, 0.0], [[0.0]]])
def test_nelder_mead_searches_one_coordinate_only(x0):
    with pytest.raises(ValueError):
        nelder_mead(lambda x: 0.0, x0)


# Golden results, bit for bit: x and fun as float.hex, and n_evals, as the
# n-dimensional list-form simplex gave them.  The search must reproduce them
# exactly, so any change to the arithmetic, its order or the tie-breaking
# shows up here.
NELDER_MEAD_PINS = [
    (quartic, [-1.2], 4000, ["-0x1.71c9bfe147adfp+0"], "-0x1.6df437de92571p-1", 56),
    (rugged, [-0.0], 300, ["-0x1.4657166666669p-5"], "0x1.2d29aceb151efp-4", 50),
    (kink, [7.5], 1000, ["0x1.0624e00000000p-10"], "0x1.6aa5a35c3df6ep-33", 74),
]


@pytest.mark.parametrize("fn, x0, max_evals, x, fun, n_evals", NELDER_MEAD_PINS)
def test_nelder_mead_reproduces_pinned_results(fn, x0, max_evals, x, fun, n_evals):
    res = nelder_mead(fn, x0, max_evals=max_evals)
    assert [float(v).hex() for v in res.x] == x
    assert float(res.fun).hex() == fun
    assert res.n_evals == n_evals


def test_nelder_mead_matches_array_oracle_bit_for_bit():
    # Random one-coordinate quadratics: plain (kinds 0 and 1), rounded (many
    # ties), with a plateau of 0.0 and -0.0, and rugged (many shrink steps);
    # some starts are signed zeros.  No fn returns NaN, which the search
    # does not accept.
    rng = np.random.default_rng(11)
    for case in range(400):
        centre = rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)
        curvature = rng.standard_normal() ** 2 + 0.01
        kind = case % 5

        def fn(x, kind=kind, centre=centre, curvature=curvature):
            d = x[0] - centre
            v = curvature * d * d
            if kind == 2:
                return float(np.round(v, 1))
            if kind == 3 and v < 4.0:
                return math.copysign(0.0, d)
            if kind == 4:
                return v + 3.0 * math.sin(40.0 * x[0])
            return v

        x0 = [float(rng.standard_normal() * 3.0)]
        if case % 3 == 0:
            x0 = [math.copysign(0.0, x0[0])]
        max_evals = int(rng.integers(1, 300))
        res = nelder_mead(fn, x0, max_evals=max_evals)
        x, fun, n_evals = nelder_mead_array_oracle(fn, x0, max_evals)
        assert [v.hex() for v in res.x.tolist()] == [v.hex() for v in x.tolist()], case
        assert float(res.fun).hex() == fun.hex(), case
        assert res.n_evals == n_evals, case


def linear_problem(a, b):
    # e = A x - b, whose Jacobian is A at every x.
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    calls = []

    def residuals(x):
        calls.append(list(x))
        return a @ np.array(x) - b

    def jacobian_gram(x, e):
        return gram_of(np.vstack((a.T, e)))

    return residuals, jacobian_gram, calls


def gram_of(m):
    # The Gram matrix of the rows of Jᵀ and e, as gauss_newton takes it.
    return (m @ m.T).tolist()


@pytest.mark.parametrize("k", [0, 3])
def test_gauss_newton_searches_one_or_two_coordinates(k):
    residuals, jacobian, calls = linear_problem(np.eye(max(k, 1)), [1.0] * max(k, 1))
    with pytest.raises(ValueError, match="one or two"):
        gauss_newton(residuals, jacobian, [0.0] * k, [-1.0] * k, [1.0] * k, max_trials=10)
    assert calls == []


def test_gauss_newton_solves_linear_least_squares():
    a = [[1.0, 2.0], [3.0, -1.0], [0.5, 0.5], [2.0, 1.0]]
    b = [1.0, 2.0, -1.0, 0.5]
    residuals, jacobian, _ = linear_problem(a, b)
    x = gauss_newton(residuals, jacobian, [0.0, 0.0], [-10.0, -10.0], [10.0, 10.0],
                     max_trials=100)
    expected = np.linalg.lstsq(np.array(a), np.array(b), rcond=None)[0]
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-6)


def test_gauss_newton_holds_a_bound_the_descent_points_past():
    # The unconstrained minimum is (3, -1); the box stops x0 at 2, and x1
    # must still reach its own minimum given x0 = 2.
    residuals, jacobian, _ = linear_problem(np.eye(2), [3.0, -1.0])
    x = gauss_newton(residuals, jacobian, [0.0, 0.0], [0.0, -5.0], [2.0, 5.0],
                     max_trials=100)
    assert x[0] == 2.0
    assert x[1] == pytest.approx(-1.0, abs=1e-6)


def test_gauss_newton_keeps_a_fixed_coordinate():
    residuals, jacobian, calls = linear_problem([[1.0, 1.0], [1.0, -1.0]], [4.0, 0.0])
    x = gauss_newton(residuals, jacobian, [0.5, 0.0], [0.5, -5.0], [0.5, 5.0],
                     max_trials=100)
    assert x[0] == 0.5
    assert all(c[0] == 0.5 for c in calls)
    # Given x0 = 0.5: (x1 - 3.5)^2 + (0.5 - x1)^2 is least at x1 = 2.
    assert x[1] == pytest.approx(2.0, abs=1e-6)


def test_gauss_newton_never_ends_above_its_start_and_obeys_the_cap():
    # A model whose curvature the Jacobian misjudges: e = (x^3 - 1, x).
    calls = []

    def residuals(x):
        calls.append(list(x))
        return np.array([x[0] ** 3 - 1.0, x[0]])

    def jacobian(x, e):
        return gram_of(np.array([[3.0 * x[0] ** 2, 1.0], e.tolist()]))

    start = residuals([0.9]) @ residuals([0.9])
    for cap in (0, 1, 2, 5, 50):
        calls.clear()
        x = gauss_newton(residuals, jacobian, [0.9], [-2.0], [2.0], max_trials=cap)
        # The call at x0, then at most cap trials.
        assert len(calls) <= cap + 1
        assert residuals(x) @ residuals(x) <= start
        if cap == 0:
            assert x == [0.9]


def test_gauss_newton_stops_on_a_zero_jacobian():
    residuals, jacobian, calls = linear_problem(np.zeros((3, 2)), [1.0, 2.0, 3.0])
    x = gauss_newton(residuals, jacobian, [0.25, 0.5], [0.0, 0.0], [1.0, 1.0],
                     max_trials=100)
    assert x == [0.25, 0.5]
    assert len(calls) == 1


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
def test_gauss_newton_returns_its_start_on_a_non_finite_gram(entry):
    # The Gram product of a Jacobian with a NaN or an infinity in it is not
    # finite, nor is one whose entries' squares pass the largest float (with
    # no overflow warning): no step can be solved from it.
    residuals, jacobian, calls = linear_problem([[entry, 1.0], [1.0, 2.0]], [1.0, 2.0])
    x = gauss_newton(residuals, jacobian, [0.25, 0.5], [0.0, 0.0], [1.0, 1.0],
                     max_trials=100)
    assert x == [0.25, 0.5]
    assert len(calls) == 1


def test_gauss_newton_returns_its_start_on_a_gram_that_is_not_positive_definite():
    # JᵀJ = [[1, 3], [3, 1]] has a negative eigenvalue, and damping its
    # diagonal by 1 + 1e-3 leaves the 2 x 2 determinant negative: no step.
    calls = []

    def residuals(x):
        calls.append(list(x))
        return np.array([1.0, 2.0])

    def jacobian_gram(x, e):
        return [[1.0, 3.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 5.0]]

    x = gauss_newton(residuals, jacobian_gram, [0.25, 0.5], [0.0, 0.0], [1.0, 1.0],
                     max_trials=100)
    assert x == [0.25, 0.5]
    assert calls == [[0.25, 0.5]]


def test_gauss_newton_damps_its_way_past_refused_trials():
    # e = x - (3, 3), refused (all inf) wherever x0 > 1: the undamped step
    # from 0 lands there, so each refused trial must grow the damping and
    # shorten the next step, until one is kept; none is ever kept refused.
    trials = []

    def residuals(x):
        trials.append(list(x))
        if x[0] > 1.0:
            return np.full(2, np.inf)
        return np.array(x) - 3.0

    def jacobian(x, e):
        return gram_of(np.vstack((np.eye(2), e)))

    x = gauss_newton(residuals, jacobian, [0.0, 0.0], [-10.0, -10.0], [10.0, 10.0],
                     max_trials=100)
    refused = [t for t in trials if t[0] > 1.0]
    assert len(refused) >= 2
    # Until the first kept trial, every step goes from the start, shorter each time.
    first_kept = next(i for i, t in enumerate(trials[1:], 1) if t[0] <= 1.0)
    lengths = [math.hypot(*t) for t in trials[1:first_kept + 1]]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))
    assert x[0] <= 1.0
    start = residuals([0.0, 0.0])
    end = residuals(x)
    assert end @ end < start @ start
