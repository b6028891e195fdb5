"""Command-line front end.

Subcommands: ``generate`` (ball fixtures), ``evaluate`` (scenario grid),
``dps`` (protocol runs), ``calibrate`` (resolution search), ``ring``
(topology arithmetic).  Exit codes: 0 success, 1 usage error, 2 data error.

``evaluate`` and ``dps`` are driven by a JSON manifest; command-line flags
override manifest values, which override built-in defaults.  The effective
manifest's SHA-256 is embedded in every output file, and equal manifests
always produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from . import __version__
from .datasets import (
    BALL_GROUPS,
    BallParams,
    DatasetDescriptor,
    DatasetFamily,
    ball_series,
    builtin_threshold,
    descriptor_for,
    generate_ball,
    load_csv,
    write_series_csv,
)
from .dps import run_dps
from .evaluation import (
    Scenario,
    attach_fairness,
    calibrate_resolution,
    emit_report,
    manifest_sha256,
    run_scenario,
    write_json,
)
from .forecast import FitConfig, MethodKind, min_history
from .ring import RingNetwork, approx_transmissions_paper, network_savings, nodes_in_ring, total_nodes, total_transmissions
from .series import TimeSeries, check_magnitude

__all__ = ["main", "RunManifest", "cmd_generate", "cmd_evaluate", "cmd_dps",
           "cmd_calibrate", "cmd_ring"]

_ALL_METHODS = tuple(m.value for m in MethodKind)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for data
    # errors, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunManifest:
    """Effective run configuration after flag/file/default merging."""

    seed: int = 0
    n_splits: int = 200
    output_dir: str = "out"
    workers: int = 0  # 0 means one per available core
    data_dir: str = "."
    datasets: tuple = (({"family": "ball", "group": 1}),)
    methods: tuple = _ALL_METHODS
    history_lengths: tuple = (20, 50)
    window_lengths: tuple = (10, 20)
    delta_min: float | None = None
    history_len: int = 50
    window_len: int = 20
    ring_branches: int | None = None
    ring_depth: int | None = None
    tool_version: str = __version__

    def effective_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["datasets"] = [dict(d) for d in self.datasets]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    def hashed_dict(self) -> dict:
        # Placement and parallelism cannot change row content, so they
        # stay out of the digest: rerunning one manifest into another
        # directory must still produce byte-identical reports.
        d = self.effective_dict()
        del d["output_dir"]
        del d["workers"]
        return d


# Keys a manifest file may set: every field but the tool version, each with
# the JSON types its field accepts.
_JSON_TYPES = {"int": (int,), "int | None": (int, type(None)),
               "float | None": (int, float, type(None)), "str": (str,), "tuple": (list,),
               "DatasetFamily": (str,)}
_MANIFEST_KEYS = {f.name: _JSON_TYPES[f.type] for f in fields(RunManifest)
                  if f.name != "tool_version"}
# The JSON type of each element of the list-valued keys, by its JSON name.
_LIST_ELEMENTS = {"datasets": (dict, "object"), "methods": (str, "str"),
                  "history_lengths": (int, "int"), "window_lengths": (int, "int")}
# Keys a dataset entry may set, the descriptor's fields plus the csv path,
# each with its JSON types.  Any of them may also be null, which reads as
# absent (see _resolve_series).
_DATASET_KEYS = {f.name: _JSON_TYPES[f.type] for f in fields(DatasetDescriptor)}
_DATASET_KEYS["path"] = (str,)


def _mistyped(value, types) -> bool:
    # JSON true/false are Python ints, but no key takes a boolean.
    return isinstance(value, bool) or not isinstance(value, types)


def _type_names(types) -> str:
    return "/".join("null" if t is type(None) else t.__name__ for t in types)


def load_manifest(path: str | None, overrides: dict) -> RunManifest:
    """Merge defaults <- manifest file <- command-line overrides."""
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: manifest must be a JSON object")
        unknown = set(raw) - set(_MANIFEST_KEYS)
        if unknown:
            raise ValueError(f"{path}: unknown manifest keys: {sorted(unknown)}")
        for key, value in raw.items():
            if _mistyped(value, _MANIFEST_KEYS[key]):
                raise ValueError(f"{path}: manifest key {key!r} must be "
                                 f"{_type_names(_MANIFEST_KEYS[key])}, got {json.dumps(value)}")
            element, name = _LIST_ELEMENTS.get(key, (None, None))
            if element and any(_mistyped(v, element) for v in value):
                raise ValueError(f"{path}: manifest key {key!r} must be a list of {name}, "
                                 f"got {json.dumps(value)}")
        for entry in raw.get("datasets", ()):
            unknown = set(entry) - set(_DATASET_KEYS)
            if unknown:
                raise ValueError(f"{path}: unknown dataset keys {sorted(unknown)} "
                                 f"in {json.dumps(entry)}")
            for key, value in entry.items():
                if value is not None and _mistyped(value, _DATASET_KEYS[key]):
                    raise ValueError(f"{path}: dataset key {key!r} must be "
                                     f"{_type_names(_DATASET_KEYS[key])}, got "
                                     f"{json.dumps(value)} in {json.dumps(entry)}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    # Checked here, not only by the descriptor, which never sees it when
    # every dataset entry sets its own.
    delta = values.get("delta_min")
    if delta is not None:
        check_magnitude("manifest delta_min", delta)
    if values.get("workers", 0) < 0:
        raise ValueError(f"manifest workers must be >= 0 (0: one per core), "
                         f"got {values['workers']}")
    if (values.get("ring_branches") is None) != (values.get("ring_depth") is None):
        raise ValueError("ring_branches and ring_depth (--ring-branches, --ring-depth) "
                         "are only valid together")
    # Every method name, before a command writes anything.
    for name in values.get("methods", ()):
        MethodKind.coerce(name)
    for key in _LIST_ELEMENTS:
        if key in values:
            values[key] = tuple(values[key])
    return RunManifest(**values)


def _resolve_series(entry: dict, manifest: RunManifest) -> tuple[DatasetDescriptor, TimeSeries]:
    # The one reading of a dataset entry: a key that is null counts as
    # absent, so delta_min falls back to the manifest's, then the family's.
    entry = {k: v for k, v in entry.items() if v is not None}
    family = DatasetFamily.coerce(entry.get("family"))
    group = int(entry.get("group", 1))
    delta = entry.get("delta_min", manifest.delta_min)
    descriptor = descriptor_for(
        family, group,
        delta_min=delta,
        sensor_id=entry.get("sensor_id"),
        expected_period=entry.get("expected_period"),
    )
    path = entry.get("path")
    if path is None:
        if family is DatasetFamily.BALL:
            if descriptor.expected_period is not None:
                raise ValueError(f"dataset {descriptor.label}: expected_period applies only "
                                 f"to a csv path, not to the generated ball series")
            return descriptor, ball_series(group)
        raise ValueError(f"dataset {descriptor.label} needs a csv path")
    full = os.path.join(manifest.data_dir, path)
    if not os.path.exists(full):
        raise ValueError(f"dataset not found for {descriptor.label}: {full}")
    return descriptor, load_csv(full, descriptor)


def _resolve_datasets(manifest: RunManifest) -> list[tuple[DatasetDescriptor, TimeSeries]]:
    # Trace files, report rows and fairness baselines are keyed by the
    # label, so a second entry with one label would overwrite the first.
    resolved = [_resolve_series(entry, manifest) for entry in manifest.datasets]
    labels = [descriptor.label for descriptor, _ in resolved]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"dataset entries need distinct (family, group) pairs, "
                         f"but {', '.join(repeated)} is listed more than once")
    return resolved


def _scenario_task(item):
    scenario, series = item
    return run_scenario(scenario, series)


def cmd_generate(args) -> int:
    out_dir = args.output_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if args.paper_defaults:
        for group, params in sorted(BALL_GROUPS.items()):
            path = os.path.join(out_dir, f"ball_group{group}.csv")
            write_series_csv(path, generate_ball(params))
            written.append(path)
    else:
        params = BallParams(amplitude=args.amplitude, frequency=args.frequency,
                            decay=args.decay, n_samples=args.n, dt=args.dt,
                            seed=args.seed)
        path = os.path.join(out_dir, "ball_custom.csv")
        write_series_csv(path, generate_ball(params))
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest, {
        "seed": args.seed,
        "n_splits": args.n_splits,
        "output_dir": args.output_dir,
        "workers": args.workers,
        "data_dir": args.data_dir,
    })
    datasets = _resolve_datasets(manifest)
    os.makedirs(manifest.output_dir, exist_ok=True)

    tasks = []
    skipped = []
    for descriptor, series in datasets:
        for method_name in manifest.methods:
            config = FitConfig(method=method_name)
            for h in manifest.history_lengths:
                if h < min_history(config):
                    skipped.append({
                        "dataset": descriptor.label, "method": method_name,
                        "H": h, "reason": f"history below method minimum "
                                          f"{min_history(config)}",
                    })
                    continue
                for w in manifest.window_lengths:
                    if len(series) < h + w:
                        skipped.append({
                            "dataset": descriptor.label, "method": method_name,
                            "H": h, "W": w,
                            "reason": f"series length {len(series)} < H + W",
                        })
                        continue
                    scenario = Scenario(descriptor=descriptor, config=config,
                                        history_len=h, window_len=w,
                                        n_splits=manifest.n_splits,
                                        seed=manifest.seed)
                    tasks.append((scenario, series))

    if not tasks:
        raise ValueError("manifest produced no runnable scenarios")

    workers = manifest.workers or os.cpu_count() or 1
    if workers <= 1 or len(tasks) == 1:
        rows = [_scenario_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scenario_task, tasks))
    rows = attach_fairness(rows)

    json_path = os.path.join(manifest.output_dir, "report.json")
    csv_path = os.path.join(manifest.output_dir, "report.csv")
    digest = emit_report(rows, json_path, csv_path, manifest=manifest.hashed_dict())
    echo_path = os.path.join(manifest.output_dir, "manifest.json")
    write_json(echo_path, {"manifest": manifest.effective_dict(), "manifest_sha256": digest,
                           "skipped_scenarios": skipped})
    print(f"wrote {csv_path} ({len(rows)} rows, {len(skipped)} skipped)")
    print(f"wrote {json_path}")
    print(f"wrote {echo_path}")
    return 0


def cmd_dps(args) -> int:
    # These flags describe the one dataset --family names; a manifest's
    # datasets are described by their own entries.
    dataset_flags = [flag for flag, value in (
        ("--group", args.group), ("--path", args.path), ("--sensor-id", args.sensor_id),
        ("--delta", args.delta)) if value is not None]
    if dataset_flags and not args.family:
        raise ValueError(f"{', '.join(dataset_flags)}: only valid together with --family")
    manifest = load_manifest(args.manifest, {
        "output_dir": args.output_dir,
        "data_dir": args.data_dir,
        "datasets": [{
            "family": args.family, "group": 1 if args.group is None else args.group,
            "path": args.path,
            "sensor_id": args.sensor_id, "delta_min": args.delta,
        }] if args.family else None,
        "methods": [args.method] if args.method else None,
        "history_len": args.history_len,
        "window_len": args.window_len,
        "ring_branches": args.ring_branches,
        "ring_depth": args.ring_depth,
    })
    datasets = _resolve_datasets(manifest)
    os.makedirs(manifest.output_dir, exist_ok=True)
    effective = manifest.effective_dict()
    digest = manifest_sha256(manifest.hashed_dict())

    net = None
    if manifest.ring_branches is not None:
        net = RingNetwork(branches=manifest.ring_branches, depth=manifest.ring_depth)

    summaries = []
    for descriptor, series in datasets:
        for method_name in manifest.methods:
            config = FitConfig(method=method_name)
            trace = run_dps(series, config, manifest.history_len,
                            manifest.window_len, descriptor.threshold)
            name = f"dps_{descriptor.label}_{method_name}.jsonl"
            trace_path = os.path.join(manifest.output_dir, name)
            trace.to_jsonl(trace_path, extra_header={"manifest_sha256": digest})
            totals = trace.summary()
            post_measurements = trace.post_bootstrap_measurements
            summary = {
                "dataset": descriptor.label,
                "method": method_name,
                "history_len": manifest.history_len,
                "window_len": manifest.window_len,
                "delta_min": descriptor.threshold,
                "n_steps": trace.n_steps,
                "post_bootstrap_measurements": post_measurements,
                **totals,
                "trace_file": name,
            }
            if net is not None:
                summary["network"] = {
                    "branches": net.branches,
                    "depth": net.depth,
                    "total_transmissions": total_transmissions(net),
                    "projected_savings": network_savings(net, totals["saved_fraction"]),
                }
            summaries.append(summary)
            print(f"{descriptor.label} {method_name}: saved {totals['saved_fraction']:.2f}% "
                  f"({post_measurements} measurements, {totals['model_updates']} model updates; "
                  f"radio bytes {totals['measurement_bytes']} measurement + "
                  f"{totals['update_bytes']} update)")

    summary_path = os.path.join(manifest.output_dir, "dps_summary.json")
    write_json(summary_path, {"manifest": effective, "manifest_sha256": digest,
                              "runs": summaries})
    print(f"wrote {summary_path}")
    return 0


def cmd_calibrate(args) -> int:
    manifest = load_manifest(None, {"data_dir": args.data_dir})
    entry = {"family": args.family, "group": args.group, "path": args.path,
             "sensor_id": args.sensor_id}
    descriptor, series = _resolve_series(entry, manifest)
    resolution = calibrate_resolution(series, args.target)
    fraction_target = args.target
    print(f"{descriptor.label}: resolution {resolution!r} reaches "
          f"equal-pair fraction >= {fraction_target}")
    if args.output:
        write_json(args.output, {"dataset": descriptor.label, "target": fraction_target,
                                 "resolution": resolution})
        print(f"wrote {args.output}")
    return 0


def cmd_ring(args) -> int:
    net = RingNetwork(branches=args.branches, depth=args.depth)
    print(f"ring network: {args.branches} branches, depth {args.depth}")
    for d in range(net.depth + 1):
        print(f"  ring {d}: {nodes_in_ring(net, d)} nodes")
    print(f"total nodes: {total_nodes(net)}")
    print(f"total transmissions (exact): {total_transmissions(net)}")
    print(f"published closed form (reference only, known mismatch): "
          f"{approx_transmissions_paper(net)!r}")
    if args.saved_fraction is not None:
        saved = network_savings(net, args.saved_fraction)
        print(f"projected savings at {args.saved_fraction}%: {saved} transmissions")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sensorcast",
                     description="Forecast-driven transmission suppression toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="write bouncing-ball fixture CSVs")
    p.add_argument("--paper-defaults", action="store_true",
                   help="write the three standard ball groups")
    p.add_argument("--amplitude", type=float, default=50.0)
    p.add_argument("--frequency", type=float, default=0.1)
    p.add_argument("--decay", type=float, default=0.05)
    p.add_argument("--n", type=int, default=2800)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="run the scenario grid from a manifest")
    p.add_argument("--manifest", required=True, help="JSON run manifest")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-splits", type=int, dest="n_splits")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--workers", type=int)
    p.add_argument("--data-dir", dest="data_dir")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("dps", help="run the sensor/gateway protocol over a series")
    p.add_argument("--manifest")
    p.add_argument("--family", choices=[f.value for f in DatasetFamily])
    p.add_argument("--group", type=int, help="(default: 1)")
    p.add_argument("--path", help="csv path for file-backed families")
    p.add_argument("--sensor-id", type=int, dest="sensor_id")
    p.add_argument("--method", choices=_ALL_METHODS)
    p.add_argument("--history-len", type=int, dest="history_len")
    p.add_argument("--window-len", type=int, dest="window_len")
    p.add_argument("--delta", type=float,
                   help="transmission threshold (default: family built-in)")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--ring-branches", type=int, dest="ring_branches")
    p.add_argument("--ring-depth", type=int, dest="ring_depth")
    p.set_defaults(func=cmd_dps)

    p = sub.add_parser("calibrate", help="find the resolution giving a target equal-pair fraction")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in DatasetFamily])
    p.add_argument("--group", type=int, default=1)
    p.add_argument("--path")
    p.add_argument("--sensor-id", type=int, dest="sensor_id")
    p.add_argument("--target", type=float, default=0.5)
    p.add_argument("--data-dir", default=".", dest="data_dir")
    p.add_argument("--output", help="optional JSON output path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("ring", help="ring topology arithmetic")
    p.add_argument("--branches", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--saved-fraction", type=float, dest="saved_fraction")
    p.set_defaults(func=cmd_ring)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
