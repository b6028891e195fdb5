"""Minimizers used by the model fitters.

``nelder_mead`` searches one coordinate; ``gauss_newton`` minimizes a sum
of squares inside a box from the residuals' Jacobian.  Both are
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


# The simplex has converged when its two values differ by at most _FATOL
# and its two vertices by at most _XATOL.
_XATOL = 1e-8
_FATOL = 1e-10


def nelder_mead(fn, x0, *, max_evals: int = 1000) -> SimplexResult:
    """Minimize ``fn`` over one coordinate from ``x0`` by Nelder-Mead.

    The simplex is two points.  Each iteration reflects the worst through
    the best, then expands, contracts or shrinks with the usual coefficients
    (1, 2, 0.5, 0.5), as the n-dimensional method does at n = 1, bit for
    bit.  Returns the best vertex kept, so a start at a local optimum cannot
    end anywhere worse.  ``n_evals`` counts the calls of ``fn``; no
    iteration starts once it reaches ``max_evals``, so the last may overrun
    it by up to 2.  ``fn`` receives a vertex as a one-element list of a
    Python float and must return a number, never NaN (which would break the
    ordering every step relies on).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (1,):
        raise ValueError(f"nelder_mead searches one coordinate, got shape {x0.shape}")
    best = float(x0[0])
    # A 10% step, with an absolute floor so that a zero start moves.
    worst = best + 0.1 * max(abs(best), 0.25)
    f_best, f_worst = float(fn([best])), float(fn([worst]))
    n_evals = 2
    while n_evals < max_evals:
        if f_worst < f_best:
            best, worst, f_best, f_worst = worst, best, f_worst, f_best
        if f_worst - f_best <= _FATOL and abs(worst - best) <= _XATOL:
            break
        # The centroid is the best vertex summed from 0.0, as numpy's mean
        # sums it, so -0.0 becomes 0.0.
        c = 0.0 + best
        x = c + (c - worst)
        f = float(fn([x]))
        n_evals += 1
        if f < f_best:
            x_e = c + 2.0 * (c - worst)
            f_e = float(fn([x_e]))
            n_evals += 1
            if f_e < f:
                x, f = x_e, f_e
        else:
            x = c + 0.5 * (worst - c)
            f = float(fn([x]))
            n_evals += 1
            if not f < f_worst:
                # Shrink towards the best vertex, which stays in place.
                x = best + 0.5 * (worst - best)
                f = float(fn([x]))
                n_evals += 1
        worst, f_worst = x, f
    if f_worst < f_best:
        best, f_best = worst, f_worst
    return SimplexResult(x=np.array([best]), fun=f_best, n_evals=n_evals)


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
