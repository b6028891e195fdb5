#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload once untraced and once traced with a one-second
budget (each phase still completes one pass over its units, so this takes
a few minutes) and asserts that:

* the last output line has ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with no failed operation;
* every metric declared in BENCHMARK.json is present with its unit;
* the spans each workload exists to exercise fired;
* per-layer self times plus trace.check_s and trace.unattributed_s (the
  measured time outside any span) add up to trace.wall_s, within 1 ms
  plus 0.1%.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Spans that must fire on each workload: the layers it was chosen for.
COVERAGE = {
    "ball": ("forecast.css_residuals", "forecast.nelder_mead", "forecast.trend_errors",
             "dps.sensor_step"),
    "csv-sweep": ("datasets.load_csv", "series.extract_splits", "evaluation.emit_report"),
}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, declared: list[dict]) -> list[str]:
    result = run(workload, trace)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{result['failed']} of {result['attempted']} operations failed")
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append(f"metric {m['name']} [{m['unit']}] missing or mis-united: {got}")
    if trace:
        for span in COVERAGE[workload]:
            if not metrics.get(f"{span}.calls", {}).get("value"):
                errors.append(f"span {span} never fired")
        self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        parts = (self_total + metrics["trace.check_s"]["value"]
                 + metrics["trace.unattributed_s"]["value"])
        if not math.isclose(parts, metrics["trace.wall_s"]["value"],
                            rel_tol=1e-3, abs_tol=1e-3):
            errors.append(f"self times add up to {parts}, wall is "
                          f"{metrics['trace.wall_s']['value']}")
    return [f"{workload} trace {trace}: {e}" for e in errors]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        errors += check(workload, 0, spec["end_to_end"])
        errors += check(workload, 1, spec["per_layer"])
    for e in errors:
        print(f"FAIL {e}")
    print("smoke check", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
