"""Seeded inputs, operations and output checks for the two workloads.

Every input is derived from the benchmark seed; the program only ever sees
the generated series, CSV files and manifests.  A workload is a list of
phases.  A phase is one kind of operation (``run_dps`` for one method, or
one ``sensorcast evaluate`` command) over a fixed list of units, run in a
closed loop from one caller: each call waits for the previous one.

Importing this module imports the program, so callers time the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

import sensorcast
from sensorcast import (
    BALL_GROUPS,
    FitConfig,
    TimeSeries,
    cli,
    descriptor_for,
    dps,
    generate_ball,
    load_csv,
    quantize_to_resolution,
    write_series_csv,
)

# Checks use the functions as they were at import, so that a traced run
# does not count the benchmark's own re-encoding as program work.
_encode_message = dps.encode_message
_decode_message = dps.decode_message
_Measurement = dps.Measurement

HISTORY_LEN = 50
WINDOW_LEN = 20

# calibrate_resolution(ball_series(g), 0.5) gives 1.891, 1.917 and 1.940
# for groups 1-3: the unit-variance noise sets the 50% equal-pair point.
BALL_RESOLUTION = 1.9
BALL_THRESHOLD = sensorcast.builtin_threshold("ball")
# Manifests per ball trace, one split each: many short evaluate calls
# rather than a few long ones, because a call's time is set against the
# machine's speed around it, and a short call has less of that to mix.
EVALUATE_SPLIT_SEEDS = 3
# Raw pieces for the transmit path, each one drop of every group.
STREAM_PIECES = 4
# Outdoor stations digitize [-55, 130] degC at 12 bits.
SENSORSCOPE_STEP = sensorcast.builtin_threshold("sensorscope")
CSV_EPOCHS = 100_000

CLOSED_FORM = ("constant", "linear", "simple_mean")
FITTED = ("arima", "exponential_smoothing")
# Forecast windows per fitted run_dps segment: a segment is a bootstrap
# plus that many windows, so it takes windows + 1 fits.
FITTED_WINDOWS = {"arima": 1, "exponential_smoothing": 5}
# Segments per ball trace for each fitted method.  A fit's cost varies
# with its history by up to 2x, so a phase's figure has to rest on many
# distinct segments rather than on repeats of a few.
FITTED_SEGMENTS = {"arima": 9, "exponential_smoothing": 4}
# The control's one input per method is the same for every seed, so its
# figure rests on repeats alone.
CONTROL_PASSES = 16
# Closed-form runs on the temperature series take pieces as long as the
# raw ball pieces: short enough to repeat each many times within a run.
PIECE_LEN = sum(params.n_samples for params in BALL_GROUPS.values())


def derive_seed(seed: int, tag: str) -> int:
    """Stable sub-seed for one generated input."""
    return zlib.crc32(f"{seed}:{tag}".encode())


# The reference load's usual time on the 2-vCPU machine the benchmark was
# built on.  Timings are reported in reference time: a call's seconds
# divided by the reference load's seconds around it, times this.
REFERENCE_S = 0.005


def reference_work() -> float:
    """A fixed load that uses the CPU the way the program does: an
    interpreter-bound loop over small Python objects, then many small
    numpy calls.  It never touches the program, so its time says only how
    fast the machine runs at that moment."""
    x = np.arange(32.0)
    total = 0.0
    table = {}
    for i in range(20_000):
        total += (i * 7) % 13
        table[i & 255] = total
    for _ in range(400):
        total += float(np.dot(x, x)) + float(x.sum())
    return total


@dataclass
class DpsUnit:
    """One run_dps call over one series."""

    series: TimeSeries
    method: str
    delta: float

    def call(self):
        # Looked up at call time, so a traced run sees its wrapper.
        return dps.run_dps(self.series, FitConfig(method=self.method),
                           HISTORY_LEN, WINDOW_LEN, self.delta)

    def check(self, trace) -> dict:
        return check_dps(self.series, trace, self.delta)


@dataclass
class EvaluateUnit:
    """One ``sensorcast evaluate`` command, called in-process via cli.main."""

    manifest_path: str
    output_dir: str
    expected_rows: int
    reference: dict | None = field(default=None)

    def call(self):
        argv = ["evaluate", "--manifest", self.manifest_path, "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, code) -> dict:
        return check_evaluate(self, code)


@dataclass
class Phase:
    """Units of one operation kind, run over and over until the phase's
    share of the run's seconds is spent and every unit has run at least
    ``passes`` times.  A unit's time is the median of its calls (see
    run.py)."""

    name: str
    method: str | None
    share: float
    units: list
    passes: int = 1
    # A control phase's radio cost says nothing about the workload's data.
    control: bool = False


def check_dps(series: TimeSeries, trace, delta: float) -> dict:
    """Quality guarantee and wire round trip for one run_dps result."""
    values = series.values
    recon = trace.reconstructed.values
    problems = []
    if len(recon) != len(values):
        problems.append(f"reconstruction has {len(recon)} of {len(values)} steps")
        recon = np.resize(recon, len(values))
    sent = np.zeros(len(values), dtype=bool)
    digest = hashlib.sha256()
    measurement_bytes = update_bytes = updates = 0
    for _, msg in trace.messages:
        wire = _encode_message(msg)
        again = _encode_message(_decode_message(
            wire, piggybacked=getattr(msg, "piggybacked", False)))
        if again != wire:
            problems.append(f"message seq {msg.seq} does not re-encode to its bytes")
        digest.update(wire)
        if isinstance(msg, _Measurement):
            sent[msg.index] = True
            measurement_bytes += len(wire)
        else:
            update_bytes += len(wire)
            updates += 1
    if not np.array_equal(recon[sent], values[sent]):
        problems.append("a transmitted step is not reconstructed exactly")
    if not np.all(np.abs(recon[~sent] - values[~sent]) < delta):
        problems.append(f"a suppressed step errs by delta_min {delta} or more")
    post = len(values) - HISTORY_LEN
    return {
        "ok": not problems,
        "problems": problems,
        "steps": len(values),
        "post_steps": post,
        "post_sent": int(np.count_nonzero(sent[HISTORY_LEN:])),
        "measurement_bytes": measurement_bytes,
        "update_bytes": update_bytes,
        "updates": updates,
        "fallbacks": len(trace.fallback_steps),
        "digest": digest.hexdigest(),
    }


def check_evaluate(unit: EvaluateUnit, code) -> dict:
    """Exit code, row count and byte identity across repetitions."""
    problems = []
    if code != 0:
        problems.append(f"evaluate exited with {code}")
        return {"ok": False, "problems": problems}
    blobs = {}
    for name in ("report.csv", "report.json"):
        with open(os.path.join(unit.output_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    rows = len(json.loads(blobs["report.json"])["rows"])
    csv_rows = blobs["report.csv"].count(b"\n") - 1
    if rows != unit.expected_rows or csv_rows != unit.expected_rows:
        problems.append(f"report has {rows} json / {csv_rows} csv rows, "
                        f"expected {unit.expected_rows}")
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
    if unit.reference is None:
        unit.reference = digests
    elif digests != unit.reference:
        problems.append("report bytes differ from the first repetition")
    return {
        "ok": not problems,
        "problems": problems,
        "report_bytes": sum(len(blob) for blob in blobs.values()),
        "digest": digests["report.json"],
    }


def _evaluate_unit(name: str, datasets: list[dict], methods, histories,
                   windows, n_splits: int, split_seed: int = 0) -> EvaluateUnit:
    manifest = {
        # The split seed does not depend on the benchmark seed, so that the
        # benchmark seed changes the data and not where it is cut.
        "seed": split_seed,
        "n_splits": n_splits,
        "workers": 1,
        "data_dir": ".",
        "output_dir": f"{name}-out",
        "datasets": datasets,
        "methods": list(methods),
        "history_lengths": list(histories),
        "window_lengths": list(windows),
    }
    with open(f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    expected = len(datasets) * len(methods) * len(histories) * len(windows)
    return EvaluateUnit(f"{name}.json", manifest["output_dir"], expected)


def _segments(series: TimeSeries, count: int, length: int) -> list[TimeSeries]:
    """``count`` segments of ``length``, centred in equal parts of the series."""
    last = len(series) - length
    return [series.slice(o, o + length)
            for o in (round((k + 0.5) * last / count) for k in range(count))]


def _fitted_phases(sources: list[TimeSeries], delta: float,
                   per_source: tuple[int, int], shares: tuple[float, float]) -> list[Phase]:
    """ARIMA and smoothing run_dps phases over segments spread evenly
    across every source; ``per_source`` gives each method's count."""
    phases = []
    for method, count, share in zip(FITTED, per_source, shares):
        length = HISTORY_LEN + FITTED_WINDOWS[method] * WINDOW_LEN
        units = [DpsUnit(seg, method, delta)
                 for s in sources for seg in _segments(s, count, length)]
        phases.append(Phase("dps", method, share, units))
    return phases


def _closed_form_phases(series_list: list[TimeSeries], delta: float,
                        share: float) -> list[Phase]:
    return [Phase("dps", m, share, [DpsUnit(s, m, delta) for s in series_list])
            for m in CLOSED_FORM]


def _control_phases() -> list[Phase]:
    """The fitted methods off their own workload, as a control: one short
    segment per method of a raw ball drop at 0.001, with the smallest
    share that still repeats it ``CONTROL_PASSES`` times.  The drop is the
    same for every benchmark seed: a fit's cost varies with its history by
    up to 2x, and on one segment that would swamp the machine's own
    spread, while the figure's job is to show whether the fitters moved."""
    drop = generate_ball(replace(BALL_GROUPS[1], seed=derive_seed(0, "control")))
    return [replace(phase, passes=CONTROL_PASSES, control=True)
            for phase in _fitted_phases([drop], BALL_THRESHOLD, (1, 1), (0.3, 0.04))]


def ball(seed: int) -> list[Phase]:
    """Ball traces: the fitters on quantized traces, where they do almost
    all the work, and the closed-form methods on raw drops at 0.001, where
    nearly every step transmits and the protocol's own code dominates."""
    traces = []
    evaluates = []
    for group, params in sorted(BALL_GROUPS.items()):
        raw = generate_ball(replace(params, seed=derive_seed(seed, f"ball-g{group}")))
        traces.append(quantize_to_resolution(raw, BALL_RESOLUTION))
        write_series_csv(f"ball_g{group}.csv", traces[-1])
        dataset = {"family": "ball", "group": group, "path": f"ball_g{group}.csv",
                   "delta_min": BALL_RESOLUTION}
        evaluates += [_evaluate_unit(f"ball-g{group}-s{k}", [dataset], FITTED,
                                     (20, 50, 200), (WINDOW_LEN,), n_splits=1, split_seed=k)
                      for k in range(EVALUATE_SPLIT_SEEDS)]
    pieces = []
    for piece in range(STREAM_PIECES):
        drops = [generate_ball(replace(params, seed=derive_seed(seed, f"drop{piece}-g{g}")))
                 for g, params in sorted(BALL_GROUPS.items())]
        pieces.append(TimeSeries.regular(np.concatenate([d.values for d in drops]), unit="m",
                                         resolution=BALL_THRESHOLD))
    return (_fitted_phases(traces, BALL_RESOLUTION,
                           tuple(FITTED_SEGMENTS[m] for m in FITTED), (0.49, 0.04))
            + [Phase("evaluate", None, 0.365, evaluates)]
            + _closed_form_phases(pieces, BALL_THRESHOLD, 0.035))


def sensorscope_rows(seed: int, n_epochs: int = CSV_EPOCHS) -> str:
    """One station's ``station,epoch,temperature`` CSV at a 30 s cadence.

    A slow diurnal cycle plus small noise on the 12-bit grid, so about
    half of consecutive readings coincide; 3% of epochs are missing and 2%
    are reported twice (the later copy one grid step off).
    """
    rng = np.random.default_rng(derive_seed(seed, "sensorscope"))
    epochs = np.arange(n_epochs)
    t = 30.0 * epochs
    temp = 15.0 + 6.0 * np.sin(2.0 * np.pi * t / 86400.0)
    temp += 0.02 * rng.standard_normal(n_epochs)
    keep = rng.random(n_epochs) >= 0.03
    keep[[0, -1]] = True
    epochs, temp = epochs[keep], temp[keep]
    dup = rng.random(len(epochs)) < 0.02
    epochs = np.concatenate([epochs, epochs[dup]])
    temp = np.concatenate([temp, temp[dup] + SENSORSCOPE_STEP])
    order = np.argsort(epochs, kind="stable")
    epochs = epochs[order]
    temp = np.round(temp[order] / SENSORSCOPE_STEP) * SENSORSCOPE_STEP
    lines = ["station,epoch,temperature"]
    lines += [f"1,{e},{v!r}" for e, v in zip(epochs.tolist(), temp.tolist())]
    return "\n".join(lines) + "\n"


def csv_sweep(seed: int) -> list[Phase]:
    """A ~100k-row sensorscope CSV: ingestion, splits and scoring dominate."""
    with open("sensorscope.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sensorscope_rows(seed))
    series = load_csv("sensorscope.csv", descriptor_for("sensorscope"))
    evaluate = _evaluate_unit(
        "csv-sweep", [{"family": "sensorscope", "group": 1, "path": "sensorscope.csv"}],
        CLOSED_FORM, (20, 200), (10, 100), n_splits=500)
    delta = series.resolution
    return ([Phase("evaluate", None, 0.36, [evaluate])]
            + _closed_form_phases(_segments(series, 4, PIECE_LEN), delta, 0.1)
            + _control_phases())


BUILDERS = {"ball": ball, "csv-sweep": csv_sweep}


def build(workload: str, seed: int) -> list[Phase]:
    """Generate the workload's inputs into the current directory."""
    return BUILDERS[workload](seed)
