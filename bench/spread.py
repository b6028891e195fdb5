#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py --workload ball --seeds 1-10

Runs the benchmark once per seed (untraced, ``run_seconds`` from
BENCHMARK.json) and prints, per metric, the median, the quartiles and the
interquartile range as a share of the median next to the metric's bound.
A spread above a third of the bound is flagged: the benchmark is not
steady enough to resolve a change of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}")
            failed += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v['value']:.5g}"
                                          for n, v in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {len(args.seeds)} seeds, {failed} failures")
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"  {m['name']:<40} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:6.2%} bound {m['bound']:.0%}{flag}")
    print(f"  largest spread/bound (setup_s excluded): {worst:.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
