"""Outside-in layer trace: spans recorded by wrappers around public functions.

Each wrapper replaces the name a caller looks up (``dps.fit_model``,
``cli.load_csv``, ``SensorNode.step`` ...) with a function that records a
span: its name, start, end and parent.  Spans are folded into per-name
totals as they close, so memory stays flat however many steps a run
takes.  A span's self time is its duration minus the durations of its
child spans.  The time outside any span is measured on its own, as the
gaps between top-level spans, so that the self times plus those gaps
adding up to the traced wall time is a check of the span accounting.

A target the program no longer has is skipped and listed as missing; its
metrics read 0, and the time it used to cover shows up in its caller's
self time or in ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  The attribute is the name the caller
# looks up; "Class.method" patches a class attribute.
TARGETS = (
    ("sensorcast.dps", "fit_model", "forecast.fit"),
    ("sensorcast.evaluation", "fit_model", "forecast.fit"),
    ("sensorcast.forecast.selection", "fit_arima", "forecast.fit_arima"),
    ("sensorcast.forecast.selection", "fit_exponential_smoothing",
     "forecast.fit_exponential_smoothing"),
    ("sensorcast.forecast.arima", "nelder_mead", "forecast.nelder_mead"),
    ("sensorcast.forecast.arima", "css_residuals", "forecast.css_residuals"),
    ("sensorcast.forecast.arima", "hannan_rissanen_start",
     "forecast.hannan_rissanen_start"),
    ("sensorcast.forecast.smoothing", "trend_errors", "forecast.trend_errors"),
    ("sensorcast.forecast.smoothing", "simple_errors", "forecast.simple_errors"),
    ("sensorcast.forecast.smoothing", "golden_section", "forecast.golden_section"),
    ("sensorcast.dps", "forecast", "forecast.forecast"),
    ("sensorcast.evaluation", "forecast", "forecast.forecast"),
    ("sensorcast.dps", "run_dps", "dps.run_dps"),
    ("sensorcast.dps", "SensorNode.step", "dps.sensor_step"),
    ("sensorcast.dps", "Gateway.step", "dps.gateway_step"),
    ("sensorcast.dps", "encode_message", "dps.encode_message"),
    ("sensorcast.dps", "decode_message", "dps.decode_message"),
    ("sensorcast.evaluation", "extract_splits", "series.extract_splits"),
    ("sensorcast.datasets", "gap_fill", "series.gap_fill"),
    ("sensorcast.cli", "load_csv", "datasets.load_csv"),
    ("sensorcast.cli", "run_scenario", "evaluation.run_scenario"),
    ("sensorcast.evaluation", "mape", "evaluation.mape"),
    ("sensorcast.evaluation", "count_avoided", "evaluation.count_avoided"),
    ("sensorcast.cli", "attach_fairness", "evaluation.attach_fairness"),
    ("sensorcast.cli", "emit_report", "evaluation.emit_report"),
    ("sensorcast.cli", "cmd_evaluate", "cli.cmd_evaluate"),
)

FIT_METHODS = ("arima", "exponential_smoothing", "constant", "linear", "simple_mean")
CHECK_SPAN = "bench.check"


def span_names() -> list[str]:
    """Every span name a traced run reports, fit spans split by method."""
    names = []
    for _, _, name in TARGETS:
        if name == "forecast.fit":
            names += [f"forecast.fit.{m}" for m in FIT_METHODS]
        elif name not in names:
            names.append(name)
    return names


def _fit_span_name(args, kwargs) -> str:
    config = args[1] if len(args) > 1 else kwargs.get("config")
    method = getattr(getattr(config, "method", None), "value", "unknown")
    return f"forecast.fit.{method}"


class Tracer:
    """Span recorder for one process; install() patches, restore() undoes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)  # (parent name, child name) -> calls
        self.fit_ms = defaultdict(list)
        self.nm_evals = 0
        self.splits = 0
        self.loaded_rows = 0
        self.missing: list[str] = []
        self.gap_s = 0.0
        self._idle_since = None
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        per_name = name == "forecast.fit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _fit_span_name(args, kwargs) if per_name else name
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            if parent is None:
                self.gap_s += start - self._idle_since
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                if parent is None:
                    self._idle_since = end
                self.calls[span] += 1
                self.self_s[span] += duration - frame[1]
                self.edges[(parent, span)] += 1
                if stack:
                    stack[-1][1] += duration
                if per_name:
                    self.fit_ms[span].append(1e3 * duration)
            self._observe(span, result)
            return result

        return wrapper

    def _observe(self, span: str, result) -> None:
        # Counts read off the layer's own return values.
        if span == "forecast.nelder_mead":
            self.nm_evals += int(getattr(result, "n_evals", 0))
        elif span == "series.extract_splits":
            self.splits += len(result)
        elif span == "datasets.load_csv":
            self.loaded_rows += len(result)

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            # import_module, because the package attribute
            # ``sensorcast.forecast`` is the forecast() function, which
            # shadows the subpackage for ``import sensorcast.forecast.arima``.
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def start(self) -> None:
        """Begin measuring the time outside any span."""
        self.gap_s = 0.0
        self._idle_since = perf_counter()

    def stop(self) -> None:
        self.gap_s += perf_counter() - self._idle_since

    def restore(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def check(self, fn, *args):
        """Run one of the benchmark's own output checks as a span."""
        return self._wrap(CHECK_SPAN, fn)(*args)


def _tail(samples_ms: list[float]) -> tuple[float, float]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(samples_ms)
    ordered = sorted(samples_ms)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return 0.0, 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcomes: list[dict], traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}
    for name in span_names():
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for method in FIT_METHODS:
        samples = tracer.fit_ms[f"forecast.fit.{method}"]
        pct, tail = _tail(samples)
        m[f"forecast.fit.{method}.p50_ms"] = (
            statistics.median(samples) if samples else 0.0, "ms")
        m[f"forecast.fit.{method}.tail_ms"] = (tail, "ms")
        m[f"forecast.fit.{method}.tail_pct"] = (pct, "%")

    nm_calls = tracer.calls["forecast.nelder_mead"]
    m["forecast.nelder_mead.evals_per_call"] = (_ratio(tracer.nm_evals, nm_calls), "count")
    m["forecast.nelder_mead.admissible_ratio"] = (_ratio(
        tracer.edges[("forecast.nelder_mead", "forecast.css_residuals")],
        tracer.nm_evals), "ratio")

    dps = [o for o in outcomes if "post_steps" in o]
    updates = sum(o["updates"] for o in dps)
    m["forecast.fallback_ratio"] = (_ratio(sum(o["fallbacks"] for o in dps), updates), "ratio")
    m["dps.transmit_ratio"] = (_ratio(sum(o["post_sent"] for o in dps),
                                      sum(o["post_steps"] for o in dps)), "ratio")
    in_protocol = sum(tracer.edges[(parent, "forecast.forecast")]
                      for parent in ("dps.sensor_step", "dps.gateway_step"))
    m["dps.forecasts_per_update"] = (_ratio(in_protocol, updates), "count")
    m["dps.update_bytes"] = (sum(o["update_bytes"] for o in dps), "B")
    m["dps.measurement_bytes"] = (sum(o["measurement_bytes"] for o in dps), "B")
    m["series.splits"] = (tracer.splits, "count")
    m["datasets.load_csv.rows"] = (tracer.loaded_rows, "count")
    m["evaluation.report_bytes"] = (
        sum(o.get("report_bytes", 0) for o in outcomes if "post_steps" not in o), "B")

    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.check_s"] = (tracer.self_s[CHECK_SPAN], "s")
    m["trace.unattributed_s"] = (tracer.gap_s, "s")
    m["trace.overhead_pct"] = (100.0 * _ratio(traced_wall - untraced_wall, untraced_wall), "%")
    return m
