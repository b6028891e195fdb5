from __future__ import annotations

import math

import numpy as np
import pytest

from sensorcast.forecast.optimize import gauss_newton, nelder_mead


def quadratic_bowl(x):
    return float(np.sum((x - np.array([1.0, -2.0])) ** 2))


def rosenbrock(x):
    a, b = x
    return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2


def test_nelder_mead_solves_quadratic():
    res = nelder_mead(quadratic_bowl, [0.0, 0.0], max_evals=2000)
    np.testing.assert_allclose(res.x, [1.0, -2.0], atol=1e-5)
    assert res.fun < 1e-9


def test_nelder_mead_solves_rosenbrock():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], max_evals=4000)
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_nelder_mead_counts_evaluations_within_budget():
    counter = {"n": 0}

    def noisy_bowl(x):
        counter["n"] += 1
        return quadratic_bowl(x) + 0.001 * np.sin(97.0 * x[0])

    res = nelder_mead(noisy_bowl, [3.0, 3.0], max_evals=600)
    assert res.n_evals == counter["n"]
    assert res.n_evals <= 600 + 2  # budget may be exceeded only mid-iteration


def test_nelder_mead_returns_best_ever_vertex():
    # fun must equal fn(x) for the reported x, and be no worse than the start.
    res = nelder_mead(rosenbrock, [0.3, 0.7], max_evals=200)
    assert res.fun == pytest.approx(rosenbrock(res.x), abs=1e-12)
    assert res.fun <= rosenbrock(np.array([0.3, 0.7]))


def test_nelder_mead_starting_at_optimum_stays_there():
    res = nelder_mead(quadratic_bowl, [1.0, -2.0], max_evals=500)
    assert res.fun <= quadratic_bowl(np.array([1.0, -2.0])) + 1e-15


def test_nelder_mead_is_deterministic():
    a = nelder_mead(rosenbrock, [0.0, 0.0], max_evals=300)
    b = nelder_mead(rosenbrock, [0.0, 0.0], max_evals=300)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.n_evals == b.n_evals


def test_nelder_mead_one_dimensional():
    res = nelder_mead(lambda x: (x[0] - 3.5) ** 2, [0.0], max_evals=500)
    assert res.x[0] == pytest.approx(3.5, abs=1e-5)


def test_nelder_mead_rejects_empty_start():
    with pytest.raises(ValueError):
        nelder_mead(lambda x: 0.0, [])


def bowl3(x):
    u, v, w = x
    return (u - 1.0) ** 2 + 3.0 * (v + 2.0) ** 2 + 0.5 * (w - 0.25) ** 2 + 0.4 * u * v


# Golden results, bit for bit: x and fun as float.hex, and n_evals.  The
# search must reproduce them exactly, so any change to the arithmetic, its
# order or the tie-breaking shows up here.
NELDER_MEAD_PINS = [
    (rosenbrock, [-1.2, 1.0], 4000,
     ["0x1.00000002d8f40p+0", "0x1.000000045314dp+0"], "0x1.87d2269700080p-57", 249),
    (bowl3, [0.0, 0.0, 0.0], 2000,
     ["0x1.6b3e4539c6e55p+0", "-0x1.0c1bacf764991p+1", "0x1.0000003a6d3c2p-2"],
     "-0x1.f914c1bacf917p-1", 253),
]


@pytest.mark.parametrize("fn, x0, max_evals, x, fun, n_evals", NELDER_MEAD_PINS)
def test_nelder_mead_reproduces_pinned_results(fn, x0, max_evals, x, fun, n_evals):
    res = nelder_mead(fn, x0, max_evals=max_evals)
    assert [float(v).hex() for v in res.x] == x
    assert float(res.fun).hex() == fun
    assert res.n_evals == n_evals


def nelder_mead_array_oracle(fn, x0, max_evals, xatol=1e-8, fatol=1e-10):
    # The search written on numpy arrays: argsort, mean(axis=0), np.argmin.
    # The list form must match it bit for bit.
    x0 = np.asarray(x0, dtype=np.float64)
    n = len(x0)
    simplex = [x0]
    for i in range(n):
        v = x0.copy()
        v[i] += 0.1 * max(abs(v[i]), 0.25)
        simplex.append(v)
    simplex = np.array(simplex)
    fvals = np.array([fn(v) for v in simplex])
    n_evals = n + 1
    while n_evals < max_evals:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if fvals[-1] - fvals[0] <= fatol and np.max(np.abs(simplex[1:] - simplex[0])) <= xatol:
            break
        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = fn(reflected)
        n_evals += 1
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = fn(expanded)
            n_evals += 1
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = fn(contracted)
            n_evals += 1
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    fvals[i] = fn(simplex[i])
                n_evals += n
    best = int(np.argmin(fvals))
    return simplex[best], float(fvals[best]), n_evals


def test_nelder_mead_matches_array_oracle_bit_for_bit():
    # Random quadratics in 1..4 dimensions: plain (kinds 0 and 1), rounded
    # (many ties), with a plateau of 0.0 and -0.0, and rugged (many shrink
    # steps); some starts hold signed zeros.  No fn returns NaN, which the
    # search does not accept.
    rng = np.random.default_rng(11)
    for case in range(200):
        dim = int(rng.integers(1, 5))
        centre = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
        a = rng.standard_normal((dim, dim))
        hess = a @ a.T + 0.01 * np.eye(dim)
        rng.standard_normal()  # unused: keeps the later draws of each case
        kind = case % 5

        def fn(x, kind=kind, centre=centre, hess=hess):
            d = x - centre
            v = float(d @ hess @ d)
            if kind == 2:
                return float(np.round(v, 1))
            if kind == 3 and v < 4.0:
                return math.copysign(0.0, x[-1] - centre[-1])
            if kind == 4:
                return v + 3.0 * math.sin(40.0 * x[0])
            return v

        x0 = (rng.standard_normal(dim) * 3.0).tolist()
        if case % 3 == 0:
            x0 = [math.copysign(0.0, v) for v in x0]
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

    def stacked_jacobian(x, e):
        return np.vstack((a.T, e))

    return residuals, stacked_jacobian, calls


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
        return np.array([[3.0 * x[0] ** 2, 1.0], e.tolist()])

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
