"""Forecast-driven transmission suppression for sensor telemetry.

The package covers the whole pipeline: series handling, five forecasting
model families, the dual-prediction sensor/gateway protocol, ring-topology
cost accounting, dataset ingestion/generation, and the evaluation harness
with its CLI.
"""

__version__ = "0.1.0"

from .series import (
    TimeSeries,
    extract_splits,
    gap_fill,
    quantize_to_resolution,
)
from .forecast import (
    FitConfig,
    FitError,
    ForecastModel,
    MethodKind,
    fit_model,
)
from .dps import (
    DpsProtocolError,
    DpsTrace,
    Gateway,
    Measurement,
    ModelUpdate,
    SensorNode,
    count_model_overhead,
    decode_message,
    encode_message,
    run_dps,
)
from .ring import (
    RingNetwork,
    approx_transmissions_paper,
    network_savings,
    nodes_in_ring,
    total_nodes,
    total_transmissions,
)
from .datasets import (
    BALL_GROUPS,
    BallParams,
    DataFormatError,
    DatasetDescriptor,
    DatasetFamily,
    ball_series,
    ball_signal,
    ball_zero_crossings,
    builtin_threshold,
    descriptor_for,
    generate_ball,
    load_csv,
    write_series_csv,
)
from .evaluation import (
    HISTORY_GRID,
    WINDOW_GRID,
    CalibrationError,
    ComparisonVerdict,
    MapeUndefined,
    Scenario,
    ScenarioResult,
    calibrate_resolution,
    compare_to_baseline,
    emit_report,
    fairness_filter,
    mape,
    run_scenario,
)

__all__ = [
    "__version__",
    "TimeSeries", "quantize_to_resolution", "extract_splits", "gap_fill",
    "MethodKind", "FitConfig", "FitError", "ForecastModel", "fit_model",
    "Measurement", "ModelUpdate", "SensorNode", "Gateway", "DpsTrace",
    "DpsProtocolError", "run_dps", "count_model_overhead", "encode_message",
    "decode_message",
    "RingNetwork", "nodes_in_ring", "total_nodes", "total_transmissions",
    "approx_transmissions_paper", "network_savings",
    "DatasetFamily", "DatasetDescriptor", "DataFormatError", "BallParams",
    "BALL_GROUPS", "builtin_threshold", "descriptor_for", "ball_signal",
    "ball_zero_crossings", "generate_ball", "ball_series", "load_csv",
    "write_series_csv",
    "HISTORY_GRID", "WINDOW_GRID", "Scenario", "ScenarioResult",
    "ComparisonVerdict", "MapeUndefined", "CalibrationError", "mape",
    "run_scenario", "compare_to_baseline", "fairness_filter",
    "calibrate_resolution", "emit_report",
]
