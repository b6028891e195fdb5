"""Derivative-free minimizers used by the model fitters.

Both routines are deterministic: no randomness, no environment-dependent
stopping rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "nelder_mead", "golden_section"]


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fun: float
    n_evals: int


# The simplex has converged when its values span at most _FATOL and every
# vertex lies within _XATOL of the best in each coordinate.
_XATOL = 1e-8
_FATOL = 1e-10


def _column_means(rows: list[list[float]]) -> list[float]:
    # numpy's mean(axis=0): each column summed from 0.0 in row order, then
    # divided by the row count.
    means = []
    for column in zip(*rows):
        total = 0.0
        for v in column:
            total += v
        means.append(total / len(rows))
    return means


def nelder_mead(fn, x0, *, max_evals: int = 1000) -> SimplexResult:
    """Minimize ``fn`` from ``x0`` with the Nelder-Mead simplex method.

    Standard reflection / expansion / contraction / shrink steps with the
    usual coefficients (1, 2, 0.5, 0.5).  Returns the best vertex ever
    evaluated, so starting at a local optimum cannot end anywhere worse than
    the start.  ``n_evals`` counts the calls of ``fn``; no iteration starts
    once it reaches ``max_evals``, so the last may overrun it by up to n + 1.

    The simplex is kept as lists of Python floats, which cost far less than
    numpy calls on a handful of entries; ``fn`` receives a vertex as such a
    list and must not modify it, and must return a number, never NaN (which
    would break the ordering every step relies on).  The arithmetic and its
    order are those of the array form: the centroid is the mean of the best
    n vertices, taken afresh every iteration.
    """
    x0 = np.asarray(x0, dtype=np.float64).tolist()
    n = len(x0)
    if n == 0:
        raise ValueError("nelder_mead needs at least one free parameter")

    # Initial simplex: perturb each coordinate by 10% of its size (absolute
    # floor keeps zero starts from collapsing the simplex).
    simplex = [x0]
    for i in range(n):
        v = list(x0)
        v[i] += 0.1 * max(abs(v[i]), 0.25)
        simplex.append(v)
    fvals = [float(fn(v)) for v in simplex]
    n_evals = n + 1

    shrunk = True
    while n_evals < max_evals:
        # Keep the simplex in numpy's stable argsort order.  Only a shrink
        # moves more than the last vertex, so otherwise the other n stay
        # sorted and the last goes in after each vertex not above it: where
        # the stable sort puts it.
        if shrunk:
            order = sorted(range(n + 1), key=fvals.__getitem__)
            simplex = [simplex[i] for i in order]
            fvals = [fvals[i] for i in order]
        else:
            f_new = fvals.pop()
            i = n
            while i and fvals[i - 1] > f_new:
                i -= 1
            fvals.insert(i, f_new)
            simplex.insert(i, simplex.pop())
        best, worst = simplex[0], simplex[-1]
        if (fvals[-1] - fvals[0] <= _FATOL
                and all(abs(a - b) <= _XATOL
                        for v in simplex[1:] for a, b in zip(v, best))):
            break

        centroid = _column_means(simplex[:-1])
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        f_r = float(fn(reflected))
        n_evals += 1

        shrunk = False
        if f_r < fvals[0]:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            f_e = float(fn(expanded))
            n_evals += 1
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            f_c = float(fn(contracted))
            n_evals += 1
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                # Shrink towards the best vertex, which stays in place.
                for i in range(1, n + 1):
                    simplex[i] = [b + 0.5 * (a - b) for a, b in zip(simplex[i], best)]
                    fvals[i] = float(fn(simplex[i]))
                n_evals += n
                shrunk = True

    best = min(range(n + 1), key=fvals.__getitem__)
    return SimplexResult(x=np.array(simplex[best]), fun=fvals[best], n_evals=n_evals)


def golden_section(fn, lo: float, hi: float, *, iters: int = 30) -> float:
    """Locate the minimizer of a unimodal ``fn`` on [lo, hi].

    Fixed iteration count keeps the bracket width at
    ``0.618**iters * (hi - lo)``; 30 iterations shrink the interval by ~1e-6.
    """
    if not (lo <= hi):
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if lo == hi or iters <= 0:
        return lo
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return c if fc < fd else d
