"""Minimizers used by the model fitters.

``nelder_mead`` is derivative-free; ``gauss_newton`` minimizes a sum of
squares inside a box from the residuals' Jacobian.  Both are
deterministic: no randomness, no environment-dependent stopping rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "gauss_newton", "nelder_mead"]


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


# Marquardt's damping starts at _LAMBDA0 and follows the gain ratio rho,
# the actual over the predicted fall of the sum of squares (Nielsen's rule:
# Madsen, Nielsen & Tingleff, "Methods for non-linear least squares
# problems", 2004, sec. 3.2).  Its floor keeps a damped 2 x 2 determinant
# positive: at least 2 * _LAMBDA_MIN * H00 * H11, far above the rounding of
# the Gram.  A step that lowers the sum of squares by at most _FTOL of it
# ends the search.
_LAMBDA0 = 1e-3
_LAMBDA_MIN = 1e-6
_FTOL = 1e-10


def gauss_newton(residuals, jacobian_gram, x0, lo, hi, *, max_trials: int) -> list[float]:
    """Minimize ``|residuals(x)|**2`` over the box ``lo <= x <= hi`` from ``x0``.

    Levenberg-Marquardt: each step solves (JᵀJ + λ diag(JᵀJ)) d = -Jᵀe on
    the free coordinates and clips x + d to the box.  A coordinate at a
    bound whose descent direction points out of the box is held there, as
    is one with lo == hi or an all-zero Jacobian column.  A trial is kept
    only if it lowers the sum of squares, so the search never ends above
    its start.  ``max_trials`` caps the calls of ``residuals`` after the
    one at ``x0``.

    ``residuals(x)`` takes x as a list of Python floats and returns e as a
    1-D array.  ``jacobian_gram(x, e)``, called at the start and at each
    kept trial, returns the Gram matrix of the rows of Jᵀ followed by e, as
    k + 1 lists of k + 1 Python floats: JᵀJ and Jᵀe, then eᵀJ and eᵀe.
    The at most 2 x 2 system is solved on Python floats.  ``x0`` must lie
    in the box.
    """
    x = [float(v) for v in x0]
    k = len(x)
    if not 1 <= k <= 2:
        raise ValueError("gauss_newton searches one or two coordinates")
    # A sum of squares or Gram entry past the largest float is inf, unwarned.
    with np.errstate(over="ignore"):
        e = residuals(x)
        f = float(e @ e)
        lam, nu = _LAMBDA0, 2.0
        trials = 0
        fresh = True
        while trials < max_trials:
            if fresh:
                gram = jacobian_gram(x, e)
                if not math.isfinite(sum(map(sum, gram))):
                    break
                grad = [row[k] for row in gram]
                free = [i for i in range(k)
                        if lo[i] < hi[i] and gram[i][i] > 0.0
                        and not (x[i] <= lo[i] and grad[i] > 0.0)
                        and not (x[i] >= hi[i] and grad[i] < 0.0)]
                if not free:
                    break
            step = _damped_step(gram, grad, free, lam)
            if step is None:
                break
            trial = list(x)
            for i, d in zip(free, step):
                trial[i] = min(max(x[i] + d, lo[i]), hi[i])
            if trial == x:
                break
            trials += 1
            e_trial = residuals(trial)
            f_trial = float(e_trial @ e_trial)
            fresh = f_trial < f
            if fresh:
                # The fall |e|^2 - |e + J d|^2 that the linear model predicts
                # for the clipped step d.
                d = [t - v for t, v in zip(trial, x)]
                hd = [sum(h * dj for h, dj in zip(row, d)) for row in gram[:k]]
                predicted = -sum((2.0 * g + h) * di for g, h, di in zip(grad, hd, d))
                rho = (f - f_trial) / predicted if predicted > 0.0 else 0.0
                converged = f - f_trial <= _FTOL * f
                x, e, f = trial, e_trial, f_trial
                if converged:
                    break
                lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), _LAMBDA_MIN)
                nu = 2.0
            else:
                lam *= nu
                nu *= 2.0
        return x


def _damped_step(gram, grad, free, lam):
    # The damped normal equations restricted to the free coordinates, whose
    # diagonal entries are positive; None if the 2 x 2 system is not
    # positive definite in floating point (an overflowed Gram).
    if len(free) == 1:
        i, = free
        return [-grad[i] / (gram[i][i] * (1.0 + lam))]
    a = gram[0][0] * (1.0 + lam)
    b = gram[0][1]
    c = gram[1][1] * (1.0 + lam)
    det = a * c - b * b
    if not det > 0.0:
        return None
    return [(b * grad[1] - c * grad[0]) / det, (b * grad[0] - a * grad[1]) / det]
