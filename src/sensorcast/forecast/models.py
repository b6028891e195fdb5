"""Fitted-model container and the types every fitter shares.

Every forecasting method produces a :class:`ForecastModel`; forecasting
(``selection.forecast``) is a pure function of the model, so the sensor
and the gateway compute identical values from identical model bytes.  The
fitters live in ``smoothing`` and ``arima``, and the closed forms in
``selection``'s method table.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ..series import check_count, coerce_name

__all__ = [
    "MethodKind",
    "ForecastModel",
    "FitConfig",
    "FitError",
    "aicc",
    "gaussian_neg2_loglik",
    "FULL_ORDER_GRID",
]


class FitError(ValueError):
    """A model could not be fitted to the given history."""


class MethodKind(enum.Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    SIMPLE_MEAN = "simple_mean"
    EXPONENTIAL_SMOOTHING = "exponential_smoothing"
    ARIMA = "arima"

    @classmethod
    def coerce(cls, value) -> "MethodKind":
        return coerce_name(cls, value, "method")


FULL_ORDER_GRID: tuple[tuple[int, int, int], ...] = tuple(
    (p, d, q) for p in range(3) for d in range(3) for q in range(3)
)


class ForecastModel(namedtuple("ForecastModel", "kind orders params state estimates k fit_n "
                                                "neg2_loglik loglik_n")):
    """Everything needed to reproduce a fit's forecasts.

    ``params`` and ``state`` are exactly the floats the forecast reads and
    a model update carries: coefficients, and the values the recursion
    starts from.  The rest never goes over the wire: ``estimates`` holds
    the fitted coefficients (ARIMA phi, theta and the mean; smoothing's
    weights; empty for closed forms and decoded models), ``k`` the
    parameter count charged by AICc, ``fit_n`` the history length fitted.

    A model is an immutable tuple that only this constructor builds
    (``_replace`` too).  It takes a method name for ``kind`` and keeps the
    floats as tuples of Python floats; two models are equal only if identical.
    """

    __slots__ = ()

    def __new__(cls, kind, orders=(0, 0, 0), params=(), state=(), estimates=(), k=0,
                fit_n=0, neg2_loglik=math.nan, loglik_n=0):
        orders = tuple(map(int, orders))
        if len(orders) != 3:
            raise ValueError(f"orders must be a 3-tuple, got {orders}")
        return tuple.__new__(cls, (MethodKind.coerce(kind), orders, tuple(map(float, params)),
                                   tuple(map(float, state)), tuple(map(float, estimates)), k,
                                   fit_n, neg2_loglik, loglik_n))

    _make = classmethod(lambda cls, fields: cls(*fields))
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def to_json_dict(self) -> dict:
        """Report-facing representation; diagnostics beyond these fixed
        fields stay out so reports are stable across fitter internals."""
        return {
            "kind": self.kind.value,
            "orders": list(self.orders),
            **{name: list(getattr(self, name)) for name in ("params", "state", "estimates")},
            "k": self.k,
            "fit_n": self.fit_n,
        }


@dataclass(frozen=True)
class FitConfig:
    """Per-method fitting knobs.

    ``order_grid`` restricts the ARIMA search; ``es_variants`` restricts the
    smoothing family ("simple", "trend"); an explicit ``es_alpha_grid``
    (non-empty, every weight finite and in [0, 1]; stored sorted) replaces
    the default coarse grid of level weights, and the level weight's search
    box becomes [min, max] of that grid instead of [0.01, 0.99], so a single
    weight fixes it; the trend weight always searches the default grid and
    [0.01, 0.99].
    ``budget`` scales optimizer effort: every search is capped at
    ``max_evals = budget**3`` objective evaluations (the ARIMA simplex over
    one MA coefficient, and the Gauss-Newton trials of the ARIMA search
    over two MA coefficients and of the smoothing weights), and default
    smoothing grids densify with it.
    """

    method: MethodKind = MethodKind.CONSTANT
    order_grid: tuple[tuple[int, int, int], ...] = FULL_ORDER_GRID
    es_variants: tuple[str, ...] = ("simple", "trend")
    es_alpha_grid: tuple[float, ...] | None = None
    budget: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", MethodKind.coerce(self.method))
        budget = check_count("budget", self.budget, least=0)
        if budget > 10:
            raise ValueError(f"budget must lie in [0, 10], got {budget}")
        object.__setattr__(self, "budget", budget)
        grid = tuple((int(p), int(d), int(q)) for p, d, q in self.order_grid)
        if not grid:
            raise ValueError("order_grid must not be empty")
        for p, d, q in grid:
            if not (0 <= p <= 2 and 0 <= d <= 2 and 0 <= q <= 2):
                raise ValueError(f"orders out of range in grid: {(p, d, q)}")
        object.__setattr__(self, "order_grid", grid)
        variants = tuple(self.es_variants)
        for v in variants:
            if v not in ("simple", "trend"):
                raise ValueError(f"unknown smoothing variant {v!r}")
        if not variants:
            raise ValueError("es_variants must not be empty")
        object.__setattr__(self, "es_variants", variants)
        if self.es_alpha_grid is not None:
            alphas = tuple(float(a) for a in self.es_alpha_grid)
            if not alphas:
                raise ValueError("es_alpha_grid must not be empty")
            for a in alphas:
                if not (0.0 <= a <= 1.0):
                    raise ValueError(f"smoothing weight must lie in [0, 1], got {a}")
            object.__setattr__(self, "es_alpha_grid", tuple(sorted(alphas)))

    @property
    def max_evals(self) -> int:
        return max(1, self.budget) ** 3


def aicc(neg2_loglik: float, k: int, n: int) -> float:
    """Small-sample corrected information criterion.

    Requires ``n > k + 1``; below that the correction denominator is
    non-positive and the criterion is undefined.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n <= k + 1:
        raise ValueError(f"aicc undefined for n={n}, k={k}: need n > k + 1")
    return neg2_loglik + 2.0 * k + 2.0 * k * (k + 1) / (n - k - 1)


_SIGMA2_FLOOR = 1e-300


def gaussian_neg2_loglik(residuals: np.ndarray) -> float:
    """-2 log L of iid zero-mean Gaussian residuals at the profiled variance."""
    residuals = np.asarray(residuals, dtype=np.float64)
    n = len(residuals)
    if n == 0:
        raise ValueError("need at least one residual")
    sigma2 = max(float(residuals @ residuals) / n, _SIGMA2_FLOOR)
    return n * (np.log(2.0 * np.pi * sigma2) + 1.0)


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    # values * 2**-e with max|values| = m * 2**e, m in [0.5, 1): exact unless
    # a value falls into the subnormal range.
    _, exponent = np.frexp(np.max(np.abs(values)))
    return np.ldexp(values, -exponent), int(exponent)


def _scaled_neg2_loglik(residuals: np.ndarray, exponent: int) -> float:
    # -2 log L of residuals * 2**exponent: that of the residuals plus
    # n * log(4**exponent), with no sum of squares that can overflow or
    # underflow.
    n = len(residuals)
    return gaussian_neg2_loglik(residuals) + 2.0 * n * exponent * np.log(2.0)
