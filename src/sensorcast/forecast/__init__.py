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
    gaussian_neg2_loglik,
)
from .selection import METHOD_SPECS, fit_constant, fit_model, forecast, min_history
from .smoothing import fit_exponential_smoothing, simple_errors, trend_errors

__all__ = [
    "ROOT_MARGIN",
    "FULL_ORDER_GRID",
    "FitConfig",
    "FitError",
    "METHOD_SPECS",
    "ForecastModel",
    "MethodKind",
    "aicc",
    "choose_differencing",
    "css_residuals",
    "fit_arima",
    "fit_constant",
    "fit_exponential_smoothing",
    "fit_model",
    "forecast",
    "gaussian_neg2_loglik",
    "min_history",
    "simple_errors",
    "trend_errors",
]
