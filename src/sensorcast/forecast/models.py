"""Fitted-model container and the cheap fitters.

Every forecasting method produces a :class:`ForecastModel`; forecasting
(``selection.forecast``) is a pure function of the model, so the sensor
and the gateway compute identical values from identical model bytes.  The
heavier fitters live in ``smoothing`` and ``arima``; this module owns the
shared types plus the methods whose fit is a couple of array reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MethodKind",
    "ForecastModel",
    "FitConfig",
    "FitError",
    "fit_constant",
    "fit_linear",
    "fit_simple_mean",
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
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown method {value!r}; expected one of: {names}") from None


FULL_ORDER_GRID: tuple[tuple[int, int, int], ...] = tuple(
    (p, d, q) for p in range(3) for d in range(3) for q in range(3)
)


def _frozen_f64(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ForecastModel:
    """Everything needed to reproduce a fit's forecasts.

    ``params`` holds the estimated coefficients, ``state`` the conditioning
    values the forecast recursion starts from (model-dependent; empty for
    methods whose params already pin the forecast).  ``k`` is the parameter
    count charged by AICc and ``fit_n`` the history length used by the fit;
    neither participates in forecasting.
    """

    kind: MethodKind
    orders: tuple[int, int, int] = (0, 0, 0)
    params: np.ndarray = field(default_factory=lambda: np.empty(0))
    state: np.ndarray = field(default_factory=lambda: np.empty(0))
    k: int = 0
    fit_n: int = 0
    neg2_loglik: float = float("nan")
    loglik_n: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _frozen_f64(self.params))
        object.__setattr__(self, "state", _frozen_f64(self.state))
        object.__setattr__(self, "orders", tuple(int(v) for v in self.orders))
        if len(self.orders) != 3:
            raise ValueError(f"orders must be a 3-tuple, got {self.orders}")

    def to_json_dict(self) -> dict:
        """Report-facing representation; diagnostics beyond these fixed
        fields stay out so reports are stable across fitter internals."""
        return {
            "kind": self.kind.value,
            "orders": list(self.orders),
            "params": [float(v) for v in self.params],
            "state": [float(v) for v in self.state],
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
    at most 2 MA coefficients, and the smoothing Gauss-Newton trials), and
    default smoothing grids densify with it.
    """

    method: MethodKind = MethodKind.CONSTANT
    order_grid: tuple[tuple[int, int, int], ...] = FULL_ORDER_GRID
    es_variants: tuple[str, ...] = ("simple", "trend")
    es_alpha_grid: tuple[float, ...] | None = None
    budget: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", MethodKind.coerce(self.method))
        if not (0 <= self.budget <= 10):
            raise ValueError(f"budget must lie in [0, 10], got {self.budget}")
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


def fit_constant(history: np.ndarray) -> ForecastModel:
    """Repeat the last observed value.  O(1): touches one array element."""
    history = np.asarray(history, dtype=np.float64)
    if len(history) < 1:
        raise FitError("constant model needs at least one observation")
    return ForecastModel(kind=MethodKind.CONSTANT, params=[history[-1]],
                         k=1, fit_n=len(history))


def fit_linear(history: np.ndarray) -> ForecastModel:
    """Extend the line through the last two observations.  O(1)."""
    history = np.asarray(history, dtype=np.float64)
    if len(history) < 2:
        raise FitError("linear model needs at least two observations")
    # On Python floats an overflowing slope is inf, without a warning.
    previous, last = history[-2:].tolist()
    return ForecastModel(kind=MethodKind.LINEAR, params=[last, last - previous],
                         k=2, fit_n=len(history))


def fit_simple_mean(history: np.ndarray) -> ForecastModel:
    """Repeat the history mean.  Single pass over the history."""
    history = np.asarray(history, dtype=np.float64)
    if len(history) < 1:
        raise FitError("simple mean needs at least one observation")
    return ForecastModel(kind=MethodKind.SIMPLE_MEAN, params=_row_means(history),
                         k=1, fit_n=len(history))


def _row_means(rows: np.ndarray) -> np.ndarray:
    # np.mean(rows, axis=-1, keepdims=True), taken on each row scaled by the
    # power of two that puts its max|x| in [0.5, 1): no sum can overflow, and
    # the scaling is exact unless a value falls into the subnormal range, so
    # the mean is np.mean's bit for bit.  np.mean is this sum over the count;
    # the ufuncs are called directly because np.mean's and np.max's wrappers
    # cost more than their arithmetic on a short history.
    _, exponent = np.frexp(np.maximum.reduce(np.abs(rows), axis=-1, keepdims=True))
    total = np.add.reduce(np.ldexp(rows, -exponent), axis=-1, keepdims=True)
    return np.ldexp(total / rows.shape[-1], exponent)
