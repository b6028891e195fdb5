"""Forecasting engine: five model families behind one model container."""

from .arima import (
    ROOT_MARGIN,
    choose_differencing,
    css_residuals,
    fit_arima,
)
from .models import (
    FULL_ORDER_GRID,
    FitConfig,
    FitError,
    ForecastModel,
    MethodKind,
    aicc,
    fit_constant,
    fit_linear,
    fit_simple_mean,
    gaussian_neg2_loglik,
)
from .optimize import SimplexResult, nelder_mead
from .selection import METHOD_SPECS, fit_model, forecast, min_history
from .smoothing import fit_exponential_smoothing, simple_errors, trend_errors

__all__ = [
    "ROOT_MARGIN",
    "FULL_ORDER_GRID",
    "FitConfig",
    "FitError",
    "METHOD_SPECS",
    "ForecastModel",
    "MethodKind",
    "SimplexResult",
    "aicc",
    "choose_differencing",
    "css_residuals",
    "fit_arima",
    "fit_constant",
    "fit_exponential_smoothing",
    "fit_linear",
    "fit_model",
    "fit_simple_mean",
    "forecast",
    "gaussian_neg2_loglik",
    "min_history",
    "nelder_mead",
    "simple_errors",
    "trend_errors",
]
