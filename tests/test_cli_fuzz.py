"""Property-based fuzzing of the command line, run in-process.

Every ``dps`` and ``evaluate`` manifest, drawn key by key from the keys a
manifest and a dataset entry may set (``cli._MANIFEST_KEYS`` and
``cli._DATASET_KEYS``) with values that are mostly valid and sometimes
adversarial (wrong types, nulls, NaN, the infinities, 5e-324, 1e308 and
ints past the float range), over short CSV texts with duplicate, unsorted,
extreme or empty fields, ends in exit 0 or in ``error:`` and exit 2.  No
exception or warning escapes; a run writes all of its outputs or none, and
leaves no temporary file.  ``workers`` is fixed at 1, so no process
starts, and ``n_splits`` and the series stay small.  Runs are
derandomized, so the suite tests the same manifests every time.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from sensorcast.cli import _DATASET_KEYS, _MANIFEST_KEYS, main

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

METHODS = ("constant", "linear", "simple_mean", "exponential_smoothing", "arima")
CLOSED_FORMS = METHODS[:3]
HEADERS = {"ball": "timestamp,position", "intel": "epoch,moteid,temperature",
           "sensorscope": "station,epoch,temperature",
           "running_latitude": "timestamp,latitude,longitude",
           "running_longitude": "timestamp,latitude,longitude"}
# A spoiled key gets one of these in place of a valid value; an int key one
# of the ints (past the float range among them) half the time.
ADVERSARIAL = (None, "2", "missing.csv", [], {}, True, 1.5, math.nan, math.inf, -math.inf,
               5e-324, 1e308, -1e308)
BAD_INTS = (0, -1, 10**103, 10**400)
EXTREME_FIELDS = ("5e-324", "-5e-324", "1e308", "-1e308", "0", "-0.0", "", "nan", "inf")
# Set apart from the draws: where a run may write, and its pool size.
FIXED_KEYS = {"output_dir", "data_dir", "workers"}


def now_and_then(n):
    # True about once in n draws.  The draw that is True is a middle one,
    # since Hypothesis favours the ends of a range.
    return st.integers(0, n - 1).map(lambda i: i == n // 2)


@st.composite
def csv_texts(draw, family):
    # A short grid of readings in the family's schema, a few fields
    # replaced by extreme or empty ones; rows are sometimes duplicated or
    # shuffled, and the header is now and then another family's.
    # Most series are long enough for any history and window drawn below.
    n = draw(st.integers(30, 40) if draw(st.integers(0, 3)) else st.integers(0, 12))
    step = draw(st.sampled_from((1.0, 30.0, 1e-300, 1e300)))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e300, 1e308)))
    rows = []
    for i in range(n):
        value = repr(math.sin(i) * scale)
        rows.append({"ball": [repr(i * step), value],
                     "intel": [str(i), "1", value],
                     "sensorscope": ["1", str(i), value],
                     "running_latitude": [repr(i * step), value, value],
                     "running_longitude": [repr(i * step), value, value]}[family])
    if rows:
        if draw(now_and_then(4)):
            row, column = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
            rows[row][column % len(rows[row])] = draw(st.sampled_from(EXTREME_FIELDS))
        if draw(now_and_then(4)):
            rows.insert(draw(st.integers(0, n)), list(draw(st.sampled_from(rows))))
        if draw(now_and_then(4)):
            rows = draw(st.permutations(rows))
    header = HEADERS[family]
    if draw(now_and_then(12)):
        header = draw(st.sampled_from(sorted(set(HEADERS.values()))))
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


class Values:
    """Draws each key's value: valid, unless the key is one of the few
    spoiled for this run, which get an adversarial value instead (for a
    list, now and then as one of its elements)."""

    def __init__(self, draw, spoiled):
        self.draw, self.spoiled = draw, spoiled

    def __call__(self, key, valid):
        if key not in self.spoiled:
            return self.draw(st.sampled_from(valid))
        if isinstance(valid[0], int) and self.draw(st.booleans()):
            return self.draw(st.sampled_from(BAD_INTS))
        return self.draw(st.sampled_from(ADVERSARIAL + BAD_INTS))

    def list_of(self, key, valid, max_size):
        values = self.draw(st.lists(st.sampled_from(valid), min_size=1, max_size=max_size))
        if key in self.spoiled:
            if not self.draw(st.booleans()):
                return self.draw(st.sampled_from(ADVERSARIAL + BAD_INTS))
            values[self.draw(st.integers(0, len(values) - 1))] = self.draw(
                st.sampled_from(ADVERSARIAL + BAD_INTS + ("bogus",)))
        return values


def dataset_entry(draw, value, index, files):
    # Entry ``index`` reads the generated ball series or a csv of its own
    # family, in a group of its own, so that its label is unique.  The
    # spoiled dataset keys are spoiled in the first entry only.
    if index:
        value = Values(draw, set())
    family = value("family", tuple(HEADERS))
    entry = {"family": family, "group": value("group", [index + 1])}
    if isinstance(family, str) and family in HEADERS and (family != "ball"
                                                          or draw(st.booleans())):
        entry["path"] = value("path", [f"d{index}.csv"])
        files[f"d{index}.csv"] = draw(csv_texts(family))
    optional = {"delta_min": [0.5, 0.01, 2.0], "expected_period": [1.0, 30.0]}
    if family in ("intel", "sensorscope"):
        optional["sensor_id"] = [1]
    for key, valid in optional.items():
        if key in value.spoiled or draw(now_and_then(4)):
            entry[key] = value(key, valid)
    if "bogus" in value.spoiled:
        entry["bogus"] = 1
    return entry


@st.composite
def runs(draw):
    """(command, manifest, {csv name: text}).  A few keys, at most three,
    are spoiled; every other value is valid."""
    command = draw(st.sampled_from(("dps", "evaluate")))
    # "bogus" is a key no manifest or entry may set.
    keys = sorted(set(_MANIFEST_KEYS) - FIXED_KEYS) + ["bogus"] + [
        f"dataset {key}" for key in sorted(_DATASET_KEYS)] + ["dataset bogus"]
    # Half the runs spoil no key.
    n_spoiled = draw(st.integers(0, 5).map(lambda i: (0, 1, 2, 0, 3, 0)[i]))
    spoiled = draw(st.sets(st.sampled_from(keys), min_size=n_spoiled, max_size=n_spoiled))
    value = Values(draw, spoiled)
    in_entry = Values(draw, {key.removeprefix("dataset ") for key in spoiled
                             if key.startswith("dataset ")})
    files = {}
    datasets = [dataset_entry(draw, in_entry, i, files) for i in range(draw(st.integers(1, 2)))]
    # dps runs the whole generated ball series (2,800 readings), so it
    # fits the two slow methods on csv series alone.
    generated = any("path" not in entry for entry in datasets)
    names = CLOSED_FORMS if command == "dps" and generated else METHODS
    manifest = {
        "seed": value("seed", [0, 7, 2**32]),
        "n_splits": value("n_splits", [1, 2, 3]),
        "datasets": value("datasets", [datasets]),
        "methods": value.list_of("methods", names, 3),
        "history_lengths": value.list_of("history_lengths", [2, 3, 4, 12, 20], 2),
        "window_lengths": value.list_of("window_lengths", [1, 2, 5, 10], 2),
        "delta_min": value("delta_min", [0.5, 0.01, 2.0]),
        "history_len": value("history_len", [2, 3, 4, 12, 20]),
        "window_len": value("window_len", [3, 5, 10]),
        "ring_branches": value("ring_branches", [1, 5]),
        "ring_depth": value("ring_depth", [1, 3]),
    }
    assert set(manifest) == set(_MANIFEST_KEYS) - FIXED_KEYS
    # The keys the defaults of which would run long (the whole generated
    # ball series, 200 splits, every method) are always set, as is a
    # spoiled key; each other key is set half the time, the ring keys
    # together.
    ring = draw(st.booleans())
    for key in ("seed", "delta_min", "ring_branches", "ring_depth"):
        if key not in spoiled and not (ring if key.startswith("ring_") else draw(st.booleans())):
            del manifest[key]
    if "bogus" in spoiled:
        manifest["bogus"] = 1
    return command, manifest, files


def outputs(command, out) -> tuple[set, set]:
    """(the files a finished run writes, the files found in ``out``)."""
    found = {p.name for p in out.iterdir()} if out.exists() else set()
    if command == "evaluate":
        return {"report.json", "report.csv", "manifest.json"}, found
    if "dps_summary.json" not in found:
        return {"dps_summary.json"}, found
    summary = json.loads((out / "dps_summary.json").read_text())
    return {"dps_summary.json"} | {run["trace_file"] for run in summary["runs"]}, found


_CASES = itertools.count()
SHORT_BALL_CSV = "timestamp,position\n" + "".join(f"{t}.0,{t % 7}.5\n" for t in range(30))


@FUZZ
@given(runs())
# Two runs that failed at an earlier version: a ring network whose float
# projections overflowed after the first trace was written, and a csv entry
# too short for H + W after the generated series' traces were written.
@example(("dps", {"datasets": [{"family": "ball", "group": 1}], "methods": ["constant"],
                  "n_splits": 1, "history_len": 50, "window_len": 20,
                  "ring_branches": 1, "ring_depth": 10**103}, {}))
@example(("dps", {"datasets": [{"family": "ball", "group": 1},
                               {"family": "ball", "group": 2, "path": "d1.csv"}],
                  "methods": ["constant", "linear"], "n_splits": 1, "history_len": 50,
                  "window_len": 20}, {"d1.csv": SHORT_BALL_CSV}))
def test_every_manifest_ends_in_complete_outputs_or_a_refusal(tmp_path, capsys, run):
    command, manifest, files = run
    capsys.readouterr()
    root = tmp_path / f"case{next(_CASES)}"
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    manifest = {**manifest, "output_dir": str(root / "out"), "data_dir": str(root),
                "workers": 1}
    (root / "m.json").write_text(json.dumps(manifest))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--manifest", str(root / "m.json")])
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    expected, found = outputs(command, root / "out")
    if code == 0:
        assert err == "" and found == expected
    else:
        assert code == 2 and err.startswith("error: ") and found == set()
    assert list(root.rglob("*.tmp")) == []
    event(f"{command} exit {code}")
