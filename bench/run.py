#!/usr/bin/env python3
"""Benchmark of sensorcast: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload ball --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workloads, metrics and bounds are declared in ``BENCHMARK.json`` and
explained in ``bench/README.md``.

This process imports nothing from the program.  It starts child processes
of this same script, one after another, and waits for each:

* ``--child setup`` imports the package and generates the workload's
  inputs, then exits; with the measuring child's own set-up they give
  the median ``setup_s``.
* ``--child measure`` does the same set-up, then runs the workload's
  phases for ``--seconds``.  With ``--trace 0`` it reports the end-to-end
  metrics, with every timing in reference time (each call set against a
  fixed reference load run beside it, see ``_in_reference_time``), and
  its own peak RSS; with ``--trace 1`` it runs the phases
  untraced for half the seconds (each unit at least once), replays
  exactly the same operations with the layer wrappers installed, and
  reports the per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with the
environment, output digests and per-phase timings, goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

SETUP_SAMPLES = 3
# Every run must end within 180 s; keep a margin for the parent itself.
RUN_LIMIT_S = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- child side


def run_phases(phases, *, seconds=None, passes=None, order=None, tracer=None,
               reference=None):
    """Run the phases' units one at a time; return (records, phase order).

    With ``seconds``, the next unit always comes from the phase that has
    used the least of its share so far, so every phase samples the whole
    run and the calls of one unit are spread over it; the run ends once
    the seconds are spent and every unit has run its phase's ``passes``
    times, or ``passes`` times when that is given.  With
    ``order`` (a phase order returned by an earlier call) exactly the same
    units run again.  With ``reference`` (a callable), every call is
    preceded by one timed call of it, recorded beside it as ``ref_s``.
    """
    records = []
    executed = []
    done = [0] * len(phases)
    spent = [0.0] * len(phases)
    start = perf_counter()
    while True:
        if order is not None:
            if len(executed) == len(order):
                break
            p_idx = order[len(executed)]
        else:
            behind = [i for i, ph in enumerate(phases)
                      if done[i] < (passes or ph.passes) * len(ph.units)]
            overtime = perf_counter() - start >= seconds
            if overtime and not behind:
                break
            p_idx = min(behind if overtime else range(len(phases)),
                        key=lambda i: spent[i] / phases[i].share)
        phase = phases[p_idx]
        unit = phase.units[done[p_idx] % len(phase.units)]
        # Every call starts with no garbage left by the one before it, so
        # that no call pays for another's collection.
        gc.collect()
        if reference:
            t0 = perf_counter()
            reference()
            ref = {"ref_s": perf_counter() - t0}
        else:
            ref = {}
        t0 = perf_counter()
        try:
            result = unit.call()
        except Exception:
            result, error = None, traceback.format_exc()
        else:
            error = None
        elapsed = perf_counter() - t0
        if error is None:
            try:
                outcome = (tracer.check(unit.check, result) if tracer
                           else unit.check(result))
            except Exception:
                outcome = {"ok": False, "problems": [traceback.format_exc()]}
        else:
            outcome = {"ok": False, "problems": [error]}
        if not outcome["ok"]:
            label = phase.method or phase.name
            print(f"FAILED {label} unit {done[p_idx]}: {outcome['problems'][0]}",
                  file=sys.stderr)
        records.append({"phase": p_idx, "unit": done[p_idx], "elapsed_s": elapsed, **ref,
                        **outcome})
        spent[p_idx] += perf_counter() - t0
        done[p_idx] += 1
        executed.append(p_idx)
    return records, executed


# Reference samples per call: the one just before it and those of the
# calls around it.  A 5 ms sample is noisy, and a call of a second spans
# several of the machine's changes of speed.
REFERENCE_WINDOW = 9


def _in_reference_time(records, reference_s: float) -> None:
    """Add ``ref_time_s`` to each record: its seconds divided by the
    median reference sample of the ``REFERENCE_WINDOW`` centred on it,
    times ``reference_s``."""
    refs = [r["ref_s"] for r in records]
    half = REFERENCE_WINDOW // 2
    for i, r in enumerate(records):
        speed = statistics.median(refs[max(0, i - half):i + half + 1])
        r["ref_time_s"] = reference_s * r["elapsed_s"] / speed


def _per_input(recs, n: int) -> tuple[list[float], list[float]]:
    """Each of ``n`` inputs' median call time, in wall seconds and in
    reference time."""
    raw = [statistics.median(r["elapsed_s"] for r in recs[u::n]) for u in range(n)]
    ref = [statistics.median(r["ref_time_s"] for r in recs[u::n]) for u in range(n)]
    return raw, ref


def _dps_summary(phase, recs) -> dict:
    """Throughput in reference time over each input's median call, and
    the radio cost of the first pass over the inputs, which depends only
    on them."""
    n = len(phase.units)
    steps = sum(len(unit.series) for unit in phase.units)
    raw_s, ref_s = _per_input(recs, n)
    # A failed call has no messages; the run then reports correct: false.
    first = [r for r in recs[:n] if r["ok"]]
    first_steps = sum(r["steps"] for r in first) or 1
    first_post = sum(r["post_steps"] for r in first) or 1
    digest = hashlib.sha256("".join(r["digest"] for r in first).encode()).hexdigest()
    return {
        "method": phase.method,
        "control": phase.control,
        "calls": len(recs),
        "steps_per_s": steps / sum(ref_s),
        "wall_steps_per_s": steps / sum(raw_s),
        "bytes_per_step": sum(r["measurement_bytes"] + r["update_bytes"] for r in first)
                          / first_steps,
        "transmitted_pct": 100.0 * sum(r["post_sent"] for r in first) / first_post,
        "message_sha256": digest,
    }


def end_to_end(phases, records, reference_s: float) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and per-phase details."""
    metrics = {}
    details = {"dps": [], "evaluate": None}
    _in_reference_time(records, reference_s)
    for p_idx, phase in enumerate(phases):
        recs = [r for r in records if r["phase"] == p_idx]
        if phase.name == "dps":
            summary = _dps_summary(phase, recs)
            details["dps"].append(summary)
            metrics[f"dps_steps_per_s.{phase.method}"] = (summary["steps_per_s"], "steps/s")
        else:
            n = len(phase.units)
            raw_s, ref_s = _per_input(recs, n)
            details["evaluate"] = {
                "calls": len(recs),
                "seconds": statistics.fmean(ref_s),
                "wall_seconds": statistics.fmean(raw_s),
                "report_sha256": [r.get("digest") for r in recs[:n]],
            }
            metrics["evaluate_s"] = (details["evaluate"]["seconds"], "s")
    dps = [d for d in details["dps"] if not d["control"]]
    metrics["radio_bytes_per_step"] = (
        statistics.fmean(d["bytes_per_step"] for d in dps), "B/step")
    metrics["transmitted_pct"] = (
        statistics.fmean(d["transmitted_pct"] for d in dps), "%")
    return metrics, details


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_main(args) -> int:
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, scipy and the program

    package = Path(workloads.sensorcast.__file__).resolve()
    if SRC.resolve() not in package.parents:
        print(f"error: sensorcast imported from {package}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = WORK_DIR / f"{args.workload}-{args.child}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        phases = workloads.build(args.workload, args.seed)
        setup_s = perf_counter() - t0
        # The modules and inputs live for the whole run; a collection
        # inside a timed call then walks only the program's own objects.
        gc.freeze()
        if args.child == "setup":
            out = {"setup_s": setup_s}
        elif args.trace:
            out = traced_run(phases, args.seconds)
        else:
            records, _ = run_phases(phases, seconds=args.seconds,
                                    reference=workloads.reference_work)
            metrics, details = end_to_end(phases, records, workloads.REFERENCE_S)
            metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
            out = {"metrics": metrics, "details": details, "records": records}
        out["setup_s"] = setup_s
        out["versions"] = {"numpy": workloads.np.__version__,
                           "scipy": metadata.version("scipy"),
                           "sensorcast": workloads.sensorcast.__version__}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def traced_run(phases, seconds: float) -> dict:
    import tracing

    start = perf_counter()
    untraced, order = run_phases(phases, seconds=seconds / 2.0, passes=1)
    untraced_wall = perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        tracer.start()
        traced, _ = run_phases(phases, order=order, tracer=tracer)
        tracer.stop()
        traced_wall = perf_counter() - start
    finally:
        tracer.restore()
    return {
        "metrics": tracing.layer_metrics(tracer, traced, traced_wall, untraced_wall),
        "details": {
            "units_per_phase": [order.count(i) for i in range(len(phases))],
            "missing_wrappers": tracer.missing,
        },
        "records": untraced + traced,
    }


# --------------------------------------------------------------- parent side


def _child(args, kind: str, timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(args) -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "sensorcast").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def parent_main(args) -> int:
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "sensorcast" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    env = _environment(args)
    deadline = perf_counter() + RUN_LIMIT_S
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(_child(args, "setup", deadline - perf_counter())["setup_s"])
    out = _child(args, "measure", deadline - perf_counter())
    setup_samples.append(out["setup_s"])
    env.update(out.pop("versions"))

    metrics = out["metrics"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
    got = {name: unit for name, (_, unit) in metrics.items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        print(f"error: metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
              f"unit mismatch {sorted(n for n in set(want) & set(got) if want[n] != got[n])}",
              file=sys.stderr)
        return 1

    records = out["records"]
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "setup_samples_s": setup_samples,
                   "details": out["details"], "operations": records, **result},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  commit {env['commit']}  nproc {env['nproc']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {'error_rate':<44} {failed / attempted:>14.6g} ratio "
              f"({failed} of {attempted} operations failed)")
        tx = metrics["transmitted_pct"][0]
        print(f"  {'suppressed_pct':<44} {100.0 - tx:>14.6g} %")
        for d in out["details"]["dps"]:
            print(f"    {d['method']:<22} {d['steps_per_s']:>10.6g} steps/s "
                  f"({d['wall_steps_per_s']:.6g} wall) over {d['calls']} calls, "
                  f"{d['bytes_per_step']:.4g} B/step, {d['transmitted_pct']:.4g}% "
                  f"transmitted, messages sha256 {d['message_sha256'][:12]}")
        ev = out["details"]["evaluate"]
        print(f"    evaluate {ev['seconds']:.4g} s ({ev['wall_seconds']:.4g} wall) over "
              f"{ev['calls']} calls of {len(ev['report_sha256'])} manifests")
    print(f"  full record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
