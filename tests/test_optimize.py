from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from sensorcast.forecast.optimize import golden_section, nelder_mead


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


def test_nelder_mead_trace_is_non_increasing():
    counter = {"n": 0}

    def noisy_bowl(x):
        counter["n"] += 1
        return quadratic_bowl(x) + 0.001 * np.sin(97.0 * x[0])

    res = nelder_mead(noisy_bowl, [3.0, 3.0], max_evals=600)
    diffs = np.diff(res.trace)
    assert np.all(diffs <= 0.0)
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
    assert a.trace == b.trace
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


def nan_ridge(x):
    # The bowl's minimum at (2, -1) lies inside the NaN half-plane x0 > 1.5.
    if x[0] > 1.5:
        return math.nan
    return (x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2


def trace_digest(trace):
    return hashlib.sha256(",".join(float(v).hex() for v in trace).encode()).hexdigest()


# Golden results, bit for bit: x and fun as float.hex, n_evals, the trace's
# length, its count of NaN entries and the sha256 of its float.hex values.
# The search must reproduce them exactly, so any change to the arithmetic,
# its order, the tie-breaking or the NaN ordering shows up here.
NELDER_MEAD_PINS = [
    (rosenbrock, [-1.2, 1.0], 4000,
     ["0x1.00000002d8f40p+0", "0x1.000000045314dp+0"], "0x1.87d2269700080p-57",
     249, 135, 0, "bf81ea6c7ea7f088e184e97101870ea1a4febc8605f2dd59548bbba11b7a22cd"),
    (bowl3, [0.0, 0.0, 0.0], 2000,
     ["0x1.6b3e4539c6e55p+0", "-0x1.0c1bacf764991p+1", "0x1.0000003a6d3c2p-2"],
     "-0x1.f914c1bacf917p-1",
     253, 139, 0, "55a335bbe26ac5a1a1577f649e494a1ad018c7d614241acd4a5e43ea81a82681"),
    # The start's second vertex is NaN: it sorts last, and the trace is NaN
    # until that vertex is replaced.
    (nan_ridge, [1.45, 0.0], 300,
     ["0x1.7ffffffff1bf3p+0", "-0x1.ffa63e6af63d7p-1"], "0x1.00001f7865062p-2",
     225, 116, 2, "75a1dee91ac8c393c6cb36c602e1cd32b8d0aafd620f143902ccccbf167d0778"),
    # Stopped while a NaN vertex remains: the result is the first NaN vertex.
    (nan_ridge, [1.45, 0.0], 4,
     ["0x1.85c28f5c28f5cp+0", "0x0.0p+0"], "nan",
     7, 2, 2, None),
]


@pytest.mark.parametrize("fn, x0, max_evals, x, fun, n_evals, n_trace, n_nan, digest",
                         NELDER_MEAD_PINS)
def test_nelder_mead_reproduces_pinned_results(fn, x0, max_evals, x, fun, n_evals,
                                               n_trace, n_nan, digest):
    res = nelder_mead(fn, x0, max_evals=max_evals)
    assert [float(v).hex() for v in res.x] == x
    assert float(res.fun).hex() == fun
    assert res.n_evals == n_evals
    assert len(res.trace) == n_trace
    assert sum(1 for v in res.trace if math.isnan(v)) == n_nan
    if digest is not None:
        assert trace_digest(res.trace) == digest
    assert all(math.isnan(v) for v in res.trace[:n_nan])


def nelder_mead_array_oracle(fn, x0, max_evals, xatol=1e-8, fatol=1e-10):
    # The search written on numpy arrays: argsort, mean(axis=0), np.min,
    # np.argmin.  The list form must match it bit for bit.
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
    trace = [float(np.min(fvals))]
    while n_evals < max_evals:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        with np.errstate(invalid="ignore"):
            spread = fvals[-1] - fvals[0]
        if spread <= fatol and np.max(np.abs(simplex[1:] - simplex[0])) <= xatol:
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
        trace.append(float(np.min(fvals)))
    best = int(np.argmin(fvals))
    return simplex[best], float(fvals[best]), tuple(trace), n_evals


def same_bits(a, b):
    # NaN matches any NaN: numpy's min reduction does not keep NaN sign bits.
    return (math.isnan(a) and math.isnan(b)) or float(a).hex() == float(b).hex()


def test_nelder_mead_matches_array_oracle_bit_for_bit():
    # Random quadratics in 1..4 dimensions: plain, with a NaN half-space,
    # rounded (many ties), with a plateau of 0.0 and -0.0, and rugged (many
    # shrink steps); some starts hold signed zeros.
    rng = np.random.default_rng(11)
    for case in range(200):
        dim = int(rng.integers(1, 5))
        centre = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
        a = rng.standard_normal((dim, dim))
        hess = a @ a.T + 0.01 * np.eye(dim)
        cut = float(rng.standard_normal())
        kind = case % 5

        def fn(x, kind=kind, centre=centre, hess=hess, cut=cut):
            d = x - centre
            v = float(d @ hess @ d)
            if kind == 1 and x[0] > cut:
                return math.nan
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
        x, fun, trace, n_evals = nelder_mead_array_oracle(fn, x0, max_evals)
        assert [v.hex() for v in res.x.tolist()] == [v.hex() for v in x.tolist()], case
        assert same_bits(res.fun, fun), case
        assert res.n_evals == n_evals, case
        assert len(res.trace) == len(trace), case
        assert all(same_bits(u, v) for u, v in zip(res.trace, trace)), case


def test_golden_section_finds_parabola_minimum():
    x = golden_section(lambda a: (a - 0.37) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.37, abs=1e-5)


def test_golden_section_handles_edge_minima():
    assert golden_section(lambda a: a, 0.0, 1.0) == pytest.approx(0.0, abs=1e-5)
    assert golden_section(lambda a: -a, 0.0, 1.0) == pytest.approx(1.0, abs=1e-5)


def test_golden_section_degenerate_bracket():
    assert golden_section(lambda a: a * a, 2.0, 2.0) == 2.0
    with pytest.raises(ValueError):
        golden_section(lambda a: a, 1.0, 0.0)
