from __future__ import annotations

import csv
import hashlib
import json
import runpy
import sys

import numpy as np
import pytest

import sensorcast
import sensorcast.cli
from sensorcast.cli import RunManifest, load_manifest, main
from sensorcast.datasets import ball_series, descriptor_for, load_csv


def run_cli(*argv):
    return main(list(argv))


def test_python_m_sensorcast_exits_with_the_cli_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sensorcast", "--version"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("sensorcast", run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr().out == f"{sensorcast.__version__}\n"


def write_manifest(path, **overrides):
    body = {
        "seed": 11,
        "n_splits": 10,
        "workers": 1,
        "datasets": [{"family": "ball", "group": 1}],
        "methods": ["constant", "linear"],
        "history_lengths": [20],
        "window_lengths": [10],
    }
    body.update(overrides)
    path.write_text(json.dumps(body))
    return path


def test_manifest_merging_precedence(tmp_path):
    path = write_manifest(tmp_path / "m.json", seed=3, output_dir="from_file")
    m = load_manifest(str(path), {"seed": 9, "output_dir": None})
    assert m.seed == 9              # flag wins
    assert m.output_dir == "from_file"  # file wins over default
    assert m.workers == 1
    assert m.n_splits == 10
    assert m.methods == ("constant", "linear")

    defaults = load_manifest(None, {})
    assert defaults.seed == 0
    assert defaults.output_dir == "out"
    assert len(defaults.methods) == 5


def test_manifest_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sed": 1}))
    with pytest.raises(ValueError, match="unknown manifest keys"):
        load_manifest(str(path), {})
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_manifest(str(not_object), {})


def test_manifest_rejects_unknown_dataset_keys(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json",
                              datasets=[{"family": "ball", "grup": 3}],
                              output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "grup" in err
    assert not (tmp_path / "out").exists()
    assert run_cli("dps", "--manifest", str(manifest)) == 2
    assert "grup" in capsys.readouterr().err
    every_key = {"family": "intel", "group": 2, "path": "intel.csv", "sensor_id": 7,
                 "delta_min": 0.5, "expected_period": 60.0}
    ok = write_manifest(tmp_path / "ok.json", datasets=[every_key])
    assert load_manifest(str(ok), {}).datasets == (every_key,)


def test_evaluate_refuses_a_split_grid_past_the_cell_bound_before_any_scenario(tmp_path,
                                                                               capsys):
    out = tmp_path / "out"
    manifest = write_manifest(tmp_path / "m.json", n_splits=2**62, output_dir=str(out))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_splits 4611686018427387904 x (history 20 + window 10)")
    assert not (out / "report.json").exists() and not (out / "report.csv").exists()


def test_manifest_with_mistyped_value_exits_2(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json", n_splits="5")
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n_splits" in err
    for bad in ({"history_lengths": ["20"], "methods": ["constant"]},
                {"datasets": ["ball"]}, {"methods": [1]}, {"window_lengths": [True]}):
        path = write_manifest(tmp_path / "bad.json", **bad)
        assert run_cli("evaluate", "--manifest", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert list(bad)[0] in err
    for key, value in (("methods", "constant"), ("delta_min", "0.5"),
                       ("seed", True), ("history_len", 5.0)):
        path = write_manifest(tmp_path / f"{key}.json", **{key: value})
        with pytest.raises(ValueError, match=key):
            load_manifest(str(path), {})
    ok = write_manifest(tmp_path / "ok.json", delta_min=1, ring_depth=None)
    assert load_manifest(str(ok), {}).delta_min == 1


def test_dataset_entry_with_mistyped_value_exits_2(tmp_path, capsys):
    for key, value in (("delta_min", "0.5"), ("sensor_id", "9"), ("group", 1.5),
                       ("family", 3), ("path", True)):
        entry = {"family": "intel", "path": "intel.csv", key: value}
        manifest = write_manifest(tmp_path / f"{key}.json", datasets=[entry],
                                  output_dir=str(tmp_path / "out"))
        for command in ("evaluate", "dps"):
            assert run_cli(command, "--manifest", str(manifest)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"dataset key {key!r}" in err
    assert not (tmp_path / "out").exists()


def test_null_dataset_value_reads_as_absent(tmp_path):
    # delta_min: null takes the manifest-level value in both commands, as an
    # entry without the key does.
    datasets = [{"family": "ball", "group": 1, "delta_min": None, "sensor_id": None},
                {"family": "ball", "group": 2}]
    manifest = write_manifest(tmp_path / "m.json", datasets=datasets, delta_min=0.5,
                              methods=["constant"], n_splits=2,
                              output_dir=str(tmp_path / "eval"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 0
    rows = json.loads((tmp_path / "eval" / "report.json").read_text())["rows"]
    assert [row["delta_min"] for row in rows] == [0.5, 0.5]
    assert run_cli("dps", "--manifest", str(manifest),
                   "--output-dir", str(tmp_path / "dps")) == 0
    runs = json.loads((tmp_path / "dps" / "dps_summary.json").read_text())["runs"]
    assert [run["delta_min"] for run in runs] == [0.5, 0.5]


@pytest.mark.parametrize("command, entry, key", [
    ("evaluate", {"sensor_id": 7, "expected_period": 5.0}, "sensor_id"),
    ("evaluate", {"expected_period": 5.0}, "expected_period"),
    ("evaluate", {"path": "ball_group1.csv", "sensor_id": 7}, "sensor_id"),
    ("dps", {"sensor_id": 3}, "sensor_id"),
    ("calibrate", {"sensor_id": 3}, "sensor_id"),
])
def test_dataset_keys_the_series_never_reads_are_refused(tmp_path, capsys, command, entry, key):
    # A ball file has no sensor column, and the generated ball series is
    # already on its grid: such a key would only reach the manifest digest.
    assert run_cli("generate", "--paper-defaults", "--output-dir", str(tmp_path / "data")) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    if command == "evaluate":
        manifest = write_manifest(tmp_path / "m.json", methods=["constant"], n_splits=5,
                                  datasets=[{"family": "ball", "group": 1, **entry}],
                                  data_dir=str(tmp_path / "data"), output_dir=str(out))
        argv = ["evaluate", "--manifest", str(manifest)]
    elif command == "dps":
        argv = ["dps", "--family", "ball", "--sensor-id", "3", "--method", "constant",
                "--output-dir", str(out)]
    else:
        argv = ["calibrate", "--family", "ball", "--sensor-id", "3",
                "--output", str(out / "cal.json")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


BAD_POSITIVE = (float("nan"), float("inf"), 0.0, -1.0)


@pytest.mark.parametrize("where, key, value",
                         [(where, "delta_min", v) for where in ("manifest", "shadowed")
                          for v in BAD_POSITIVE]
                         + [("entry", key, v) for key in ("delta_min", "expected_period")
                            for v in BAD_POSITIVE])
def test_evaluate_refuses_a_threshold_or_period_not_finite_and_positive(
        tmp_path, capsys, where, key, value):
    # json writes nan and inf as NaN and Infinity, which json.load reads.
    # "shadowed": the manifest's value is bad but the entry sets its own.
    entry = {"family": "ball", "group": 1, **({"delta_min": 0.5} if where == "shadowed" else {})}
    top = {}
    (entry if where == "entry" else top)[key] = value
    manifest = write_manifest(tmp_path / "m.json", datasets=[entry],
                              output_dir=str(tmp_path / "out"), **top)
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    assert f"{key} must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("delta", ["inf", "nan", "0", "-1"])
def test_dps_refuses_a_threshold_not_finite_and_positive(tmp_path, capsys, delta):
    assert run_cli("dps", "--family", "ball", "--method", "constant",
                   "--delta", delta, "--output-dir", str(tmp_path / "out")) == 2
    assert "delta_min must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "dps_summary.json").exists()


@pytest.mark.parametrize("flags", [["--delta", "2.0"], ["--group", "2"], ["--path", "x.csv"],
                                   ["--sensor-id", "3"], ["--group", "2", "--delta", "2.0"]])
def test_dps_refuses_dataset_flags_without_family(tmp_path, capsys, flags):
    # Without --family the manifest's entries name the datasets, and these
    # flags would be dropped without a word.
    manifest = write_manifest(tmp_path / "m.json", methods=["constant"],
                              output_dir=str(tmp_path / "out"))
    assert run_cli("dps", "--manifest", str(manifest), *flags) == 2
    err = capsys.readouterr().err
    assert f"{', '.join(flags[::2])}: only valid together with --family" in err
    assert not (tmp_path / "out" / "dps_summary.json").exists()


@pytest.mark.parametrize("flags, body", [(["--ring-branches", "3"], {}),
                                         (["--ring-depth", "2"], {}),
                                         ([], {"ring_branches": 3}),
                                         ([], {"ring_depth": 2, "ring_branches": None})])
def test_dps_refuses_one_ring_key_without_the_other(tmp_path, capsys, flags, body):
    # Alone, either would be dropped without a word and no network block
    # written.
    manifest = write_manifest(tmp_path / "m.json", methods=["constant"],
                              output_dir=str(tmp_path / "out"), **body)
    assert run_cli("dps", "--manifest", str(manifest), *flags) == 2
    assert "ring_branches and ring_depth" in capsys.readouterr().err
    assert not (tmp_path / "out" / "dps_summary.json").exists()


@pytest.mark.parametrize("command", ["dps", "evaluate"])
def test_an_unknown_method_in_a_manifest_exits_2_before_any_output(tmp_path, capsys, command):
    # Checked with the manifest, so no run of the names before it is written.
    manifest = write_manifest(tmp_path / "m.json", methods=["constant", "bogus"],
                              output_dir=str(tmp_path / "out"))
    assert run_cli(command, "--manifest", str(manifest)) == 2
    captured = capsys.readouterr()
    assert "unknown method 'bogus'; expected one of: constant" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, flags", [({"workers": -3}, []), ({}, ["--workers", "-3"])])
def test_evaluate_refuses_negative_workers(tmp_path, capsys, body, flags):
    manifest = write_manifest(tmp_path / "m.json", output_dir=str(tmp_path / "out"), **body)
    assert run_cli("evaluate", "--manifest", str(manifest), *flags) == 2
    assert "workers must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_evaluate_pool_is_no_larger_than_its_scenarios(tmp_path, monkeypatch):
    # A stand-in pool that maps in-process, so no process starts.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sensorcast.cli, "ProcessPoolExecutor", InlinePool)
    manifest = write_manifest(tmp_path / "m.json", n_splits=2,
                              output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest), "--workers", "100000") == 0
    assert run_cli("evaluate", "--manifest", str(manifest), "--workers", "2",
                   "--output-dir", str(tmp_path / "two")) == 0
    assert sizes == [2, 2]
    assert ((tmp_path / "out" / "report.json").read_bytes()
            == (tmp_path / "two" / "report.json").read_bytes())


def test_evaluate_refuses_a_period_too_small_to_grid_the_series(tmp_path, capsys):
    assert run_cli("generate", "--paper-defaults", "--output-dir", str(tmp_path / "data")) == 0
    capsys.readouterr()
    entry = {"family": "ball", "group": 1, "path": "ball_group1.csv", "expected_period": 5e-324}
    manifest = write_manifest(tmp_path / "m.json", methods=["constant"], datasets=[entry],
                              data_dir=str(tmp_path / "data"), output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expected_period 5e-324 cuts the series into inf grid steps")
    assert not (tmp_path / "out").exists()


def test_dps_has_no_seed_flag(tmp_path, capsys):
    # run_dps draws no random numbers; a seed flag would change only the
    # manifest digest.
    assert run_cli("dps", "--family", "ball", "--method", "constant", "--seed", "3",
                   "--output-dir", str(tmp_path / "out")) == 1
    capsys.readouterr()


def test_manifest_hash_excludes_placement():
    a = RunManifest(seed=1, output_dir="x", workers=2)
    b = RunManifest(seed=1, output_dir="y", workers=8)
    assert a.hashed_dict() == b.hashed_dict()
    assert a.effective_dict() != b.effective_dict()
    assert "output_dir" not in a.hashed_dict()
    assert "seed" in a.hashed_dict()


def test_generate_paper_defaults(tmp_path, capsys):
    out = tmp_path / "fixtures"
    assert run_cli("generate", "--paper-defaults", "--output-dir", str(out)) == 0
    for group in (1, 2, 3):
        path = out / f"ball_group{group}.csv"
        assert path.exists()
        loaded = load_csv(path, descriptor_for("ball", group))
        ref = ball_series(group)
        assert len(loaded) == 2800
        np.testing.assert_array_equal(loaded.values, ref.values)
    assert "wrote" in capsys.readouterr().out


def test_generate_custom_params(tmp_path):
    out = tmp_path / "g"
    assert run_cli("generate", "--n", "50", "--seed", "5",
                   "--output-dir", str(out)) == 0
    first = (out / "ball_custom.csv").read_bytes()
    assert run_cli("generate", "--n", "50", "--seed", "5",
                   "--output-dir", str(out)) == 0
    assert (out / "ball_custom.csv").read_bytes() == first
    rows = first.decode().splitlines()
    assert rows[0] == "timestamp,position"
    assert len(rows) == 51


def test_evaluate_writes_reports_and_manifest_echo(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json",
                              output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 0
    out = tmp_path / "out"

    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # two methods, one H, one W
    assert {r["method"] for r in rows} == {"constant", "linear"}
    assert all(r["H"] == "20" and r["W"] == "10" for r in rows)

    echo = json.loads((out / "manifest.json").read_text())
    assert echo["manifest"]["seed"] == 11
    assert echo["skipped_scenarios"] == []
    assert echo["manifest_sha256"] == rows[0]["manifest_sha256"]

    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 2


def test_evaluate_reruns_are_byte_identical(tmp_path):
    manifest = write_manifest(tmp_path / "m.json",
                              output_dir=str(tmp_path / "out1"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 0
    assert run_cli("evaluate", "--manifest", str(manifest),
                   "--output-dir", str(tmp_path / "out2")) == 0
    a = (tmp_path / "out1" / "report.csv").read_bytes()
    b = (tmp_path / "out2" / "report.csv").read_bytes()
    assert a == b
    aj = (tmp_path / "out1" / "report.json").read_bytes()
    bj = (tmp_path / "out2" / "report.json").read_bytes()
    assert aj == bj


def test_evaluate_parallel_matches_serial(tmp_path):
    # The fitted methods too: the pool's workers fit ARIMA and smoothing
    # models that must match the serial run's to the byte.
    manifest = write_manifest(tmp_path / "m.json", workers=1, n_splits=4,
                              output_dir=str(tmp_path / "serial"),
                              methods=["arima", "exponential_smoothing", "constant",
                                       "simple_mean", "linear"])
    assert run_cli("evaluate", "--manifest", str(manifest)) == 0
    assert run_cli("evaluate", "--manifest", str(manifest), "--workers", "3",
                   "--output-dir", str(tmp_path / "parallel")) == 0
    for name in ("report.csv", "report.json"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes()), name


def _sensorscope_fixture(path, n_epochs=3000):
    # One station on the 30 s epoch grid: a seeded integer walk of 0.05
    # degC steps (exact float ops only), 3% of epochs missing and 2%
    # reported twice with a later, different reading.
    rng = np.random.default_rng(18)
    epochs = np.arange(n_epochs)
    temps = 15.0 + 0.05 * np.cumsum(rng.integers(-2, 3, n_epochs))
    keep = rng.random(n_epochs) >= 0.03
    keep[[0, -1]] = True
    epochs, temps = epochs[keep], temps[keep]
    dup = rng.random(len(epochs)) < 0.02
    epochs = np.concatenate([epochs, epochs[dup]])
    temps = np.concatenate([temps, temps[dup] + 0.05])
    order = np.argsort(epochs, kind="stable")
    rows = [f"1,{e},{v!r}" for e, v in zip(epochs[order].tolist(), temps[order].tolist())]
    path.write_text("station,epoch,temperature\n" + "\n".join(rows) + "\n")


# sha256 of each evaluate output on the fixture above.  Any change to the
# CSV reader, the grid fill, the scoring or the report writers that moves
# one byte shows here.
_EVALUATE_PINS = {
    "report.json": "c1f82a56389014b03126d65c24741bff1594ea6582725ae9cc97b52ca37ee19b",
    "report.csv": "97432cb24d1b3e8f7407a457e0f4c8af7ca046d6bee41098e629f742fffa70f5",
    "manifest.json": "6f96257057a16c4b1675a351d1fea8ddd1f3ad5416efe2e08e9ba64cd90e364c",
}


def test_evaluate_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the manifest echo records both directories
    (tmp_path / "data").mkdir()
    _sensorscope_fixture(tmp_path / "data" / "station.csv")
    write_manifest(tmp_path / "m.json", seed=5, n_splits=40,
                   datasets=[{"family": "sensorscope", "group": 1, "path": "station.csv"}],
                   methods=["constant", "linear", "simple_mean"],
                   history_lengths=[20, 50], window_lengths=[10, 30])
    assert run_cli("evaluate", "--manifest", "m.json", "--data-dir", "data",
                   "--output-dir", "out", "--workers", "1") == 0
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
           for name in _EVALUATE_PINS}
    assert got == _EVALUATE_PINS


# sha256 of the fixture CSVs and of one dps run's trace and summary.  Any
# change to the generator, the fixture writer, the protocol or the trace
# writer that moves one byte shows here.
_GENERATE_PINS = {
    "ball_group1.csv": "73a85d8517e774d3f556b50a28c3f2f9c2bd93d0435cc8fe06dbc4d36a3e22cc",
    "ball_group2.csv": "04501b2e02720da20896c41da03728e6a6e6480f206c6fdf8bcbcd3fa2697d13",
    "ball_group3.csv": "22e862f08cc26fc396f37e75bf4120c85842c927c9bd7c6e04d8fb0b66a44152",
}
_DPS_PINS = {
    "dps_ball-g1_exponential_smoothing.jsonl":
        "a32248e83cb8456ec6dc2440518e8f62658c9ac03a5b360824d3970f7a21c70a",
    "dps_summary.json": "75d86882aca1a47a0a652539a340eb6c2f4f8eb2eaa3929b04f00fa6b1f1a66c",
}


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def test_generate_and_dps_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the summary records the output directory
    assert run_cli("generate", "--paper-defaults", "--output-dir", "fixtures") == 0
    assert _digests(tmp_path / "fixtures") == _GENERATE_PINS
    assert run_cli("dps", "--family", "ball", "--group", "1",
                   "--method", "exponential_smoothing", "--history-len", "50",
                   "--window-len", "20", "--delta", "2.0",
                   "--ring-branches", "3", "--ring-depth", "2", "--output-dir", "out") == 0
    assert _digests(tmp_path / "out") == _DPS_PINS


def test_evaluate_skips_infeasible_scenarios(tmp_path):
    manifest = write_manifest(tmp_path / "m.json",
                              methods=["arima", "constant"],
                              history_lengths=[5, 20], n_splits=3,
                              output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 0
    echo = json.loads((tmp_path / "out" / "manifest.json").read_text())
    skipped = echo["skipped_scenarios"]
    # H=5 is below the arima minimum; everything else runs.
    assert len(skipped) == 1
    assert skipped[0]["method"] == "arima" and skipped[0]["H"] == 5
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3


def test_evaluate_records_a_series_too_short_for_h_plus_w(tmp_path):
    manifest = write_manifest(tmp_path / "m.json", methods=["constant"],
                              history_lengths=[20], window_lengths=[10, 2790],
                              output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 0
    echo = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert echo["skipped_scenarios"] == [{
        "dataset": "ball-g1", "method": "constant", "H": 20, "W": 2790,
        "reason": "series length 2800 < H + W"}]


def test_evaluate_with_no_runnable_scenario_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    manifest = write_manifest(tmp_path / "m.json", methods=["arima"], history_lengths=[5],
                              output_dir=str(out))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    assert "manifest produced no runnable scenarios" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_evaluate_csv_family_without_path_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    manifest = write_manifest(tmp_path / "m.json", datasets=[{"family": "intel", "group": 1}],
                              output_dir=str(out))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    assert "dataset intel-g1 needs a csv path" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_missing_dataset_exits_2(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.json",
        datasets=[{"family": "intel", "group": 1, "path": "nope.csv"}],
        output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    err = capsys.readouterr().err
    assert "dataset not found" in err
    assert "intel-g1" in err


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _zeros(n):
    return np.zeros(n)


def _near_float_limit(n):
    # Alternating signs: a forecast from one sign misses the next reading
    # by more than the largest float.
    rng = np.random.default_rng(0)
    return rng.uniform(0.75e308, 1.5e308, n) * np.where(np.arange(n) % 2, -1.0, 1.0)


@pytest.mark.parametrize("values", [_zeros, _near_float_limit])
def test_evaluate_reports_are_strict_json(tmp_path, values):
    with open(tmp_path / "series.csv", "w") as fh:
        fh.write("timestamp,position\n")
        for t, v in enumerate(values(120).tolist()):
            fh.write(f"{float(t)!r},{v!r}\n")
    manifest = write_manifest(
        tmp_path / "m.json", datasets=[{"family": "ball", "group": 1, "path": "series.csv"}],
        methods=["arima", "exponential_smoothing", "constant", "linear", "simple_mean"],
        n_splits=5, data_dir=str(tmp_path), output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 0
    out = tmp_path / "out"
    for name in ("report.json", "manifest.json"):
        json.loads((out / name).read_text(), parse_constant=_refuse_constant)
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for column in ("mape_mean", "mape_std", "ci95"):
        assert all(r[column] == "" or np.isfinite(float(r[column])) for r in rows)
    if values is _near_float_limit:
        report = json.loads((out / "report.json").read_text())
        constant = [r for r in report["rows"] if r["method"] == "constant"]
        assert np.isfinite(constant[0]["mape_mean"])


@pytest.mark.parametrize("command", ["evaluate", "dps"])
def test_dataset_entries_with_one_label_are_refused(tmp_path, capsys, command):
    # Outputs and fairness baselines are keyed by the label, so the second
    # entry would overwrite or shadow the first.
    out = tmp_path / "out"
    manifest = write_manifest(
        tmp_path / "m.json", methods=["constant"], output_dir=str(out),
        datasets=[{"family": "ball", "group": 1, "delta_min": 0.001},
                  {"family": "ball", "group": 1, "delta_min": 5.0}])
    assert run_cli(command, "--manifest", str(manifest)) == 2
    assert "ball-g1" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_1(capsys):
    assert run_cli("evaluate") == 1           # missing required --manifest
    assert run_cli("frobnicate") == 1         # unknown subcommand
    assert run_cli("ring", "--branches", "5") == 1  # missing --depth
    capsys.readouterr()


def test_dps_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "dps"
    assert run_cli("dps", "--family", "ball", "--group", "1",
                   "--method", "constant", "--history-len", "50",
                   "--window-len", "20", "--delta", "2.0",
                   "--output-dir", str(out),
                   "--ring-branches", "5", "--ring-depth", "3") == 0
    summary = json.loads((out / "dps_summary.json").read_text())
    assert len(summary["runs"]) == 1
    run = summary["runs"][0]
    assert run["dataset"] == "ball-g1"
    assert run["method"] == "constant"
    assert run["delta_min"] == 2.0
    assert run["n_steps"] == 2800
    assert run["model_updates"] == 0
    # Value-holding ships no model: every radio byte is a 17-byte measurement.
    assert run["measurement_bytes"] == 17 * run["measurements"]
    assert run["update_bytes"] == 0
    assert (f"radio bytes {run['measurement_bytes']} measurement + 0 update"
            in capsys.readouterr().out)
    assert run["network"]["total_transmissions"] == 110
    expected_savings = int(110 * run["saved_fraction"] / 100.0)
    assert run["network"]["projected_savings"] == expected_savings

    trace_lines = (out / "dps_ball-g1_constant.jsonl").read_text().splitlines()
    header = json.loads(trace_lines[0])
    assert header["manifest_sha256"] == summary["manifest_sha256"]
    tail = json.loads(trace_lines[-1])
    assert tail["type"] == "summary"
    assert tail["measurements"] == run["measurements"]
    assert tail["measurement_bytes"] == run["measurement_bytes"]


def test_dps_writes_no_output_when_a_later_run_is_refused(tmp_path, capsys):
    # The second entry's 30 rows are too short for H + W = 70; the first
    # entry's runs, which succeed, must not leave their traces behind.
    (tmp_path / "short.csv").write_text(
        "timestamp,position\n" + "".join(f"{t}.0,{t % 7}.5\n" for t in range(30)))
    manifest = write_manifest(tmp_path / "m.json", output_dir=str(tmp_path / "out"),
                              data_dir=str(tmp_path), history_len=50, window_len=20,
                              datasets=[{"family": "ball", "group": 1},
                                        {"family": "ball", "group": 2, "path": "short.csv"}])
    assert run_cli("dps", "--manifest", str(manifest)) == 2
    captured = capsys.readouterr()
    assert "error: series of length 30 too short" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_dps_refuses_a_ring_network_past_the_float_range_before_any_output(tmp_path, capsys):
    # Its float projections overflowed after the first trace was written.
    manifest = write_manifest(tmp_path / "m.json", methods=["constant"],
                              output_dir=str(tmp_path / "out"),
                              ring_branches=1, ring_depth=10**103)
    assert run_cli("dps", "--manifest", str(manifest)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ring network of 1 branches and depth 1000")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_dps_on_generated_csv_matches_generated_series(tmp_path):
    fixtures = tmp_path / "fixtures"
    assert run_cli("generate", "--paper-defaults", "--output-dir", str(fixtures)) == 0
    run = ("dps", "--family", "ball", "--group", "1", "--method", "constant",
           "--history-len", "50", "--window-len", "20")
    assert run_cli(*run, "--output-dir", str(tmp_path / "generated")) == 0
    assert run_cli(*run, "--path", "ball_group1.csv", "--data-dir", str(fixtures),
                   "--output-dir", str(tmp_path / "csv")) == 0
    name = "dps_ball-g1_constant.jsonl"
    generated = (tmp_path / "generated" / name).read_text().splitlines()
    loaded = (tmp_path / "csv" / name).read_text().splitlines()
    assert len(loaded) > 2
    assert loaded[1:] == generated[1:]
    # Only the header differs: its manifest digest covers the csv path.
    headers = [json.loads(lines[0]) for lines in (generated, loaded)]
    assert headers[0].pop("manifest_sha256") != headers[1].pop("manifest_sha256")
    assert headers[0] == headers[1]
    runs = [json.loads((tmp_path / d / "dps_summary.json").read_text())["runs"]
            for d in ("generated", "csv")]
    assert runs[0] == runs[1]


def test_dps_default_threshold_is_family_builtin(tmp_path):
    out = tmp_path / "d"
    assert run_cli("dps", "--family", "ball", "--method", "constant",
                   "--history-len", "30", "--window-len", "10",
                   "--output-dir", str(out)) == 0
    summary = json.loads((out / "dps_summary.json").read_text())
    assert summary["runs"][0]["delta_min"] == 0.001


def test_calibrate_subcommand(tmp_path, capsys):
    report = tmp_path / "cal.json"
    assert run_cli("calibrate", "--family", "ball", "--group", "1",
                   "--output", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["dataset"] == "ball-g1"
    assert payload["target"] == 0.5
    assert payload["resolution"] > 0
    out = capsys.readouterr().out
    assert "equal-pair fraction" in out


def test_ring_subcommand_output(capsys):
    assert run_cli("ring", "--branches", "5", "--depth", "3",
                   "--saved-fraction", "30") == 0
    out = capsys.readouterr().out
    assert "ring 1: 5 nodes" in out
    assert "ring 3: 25 nodes" in out
    assert "total nodes: 45" in out
    assert "total transmissions (exact): 110" in out
    flagged = next(l for l in out.splitlines() if "reference only" in l)
    assert float(flagged.rsplit(":", 1)[1]) == pytest.approx(67.5)
    assert "projected savings at 30.0%: 33 transmissions" in out


def test_ring_rejects_bad_geometry(capsys):
    assert run_cli("ring", "--branches", "0", "--depth", "3") == 2
    assert "branches" in capsys.readouterr().err


def test_ring_refuses_a_network_past_the_float_range_before_listing_it(capsys, monkeypatch):
    # Accepted, this depth would list rings without end; the stand-in stops
    # the listing so that the test fails instead.
    listed = []

    def counted(net, d):
        listed.append(d)
        assert len(listed) < 100, "the ring listing did not stop"
        return 0

    monkeypatch.setattr(sensorcast.cli, "nodes_in_ring", counted)
    assert run_cli("ring", "--branches", "1", "--depth", str(10**103)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ring network of 1 branches and depth 1000")
    assert captured.out == "" and listed == []


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    capsys.readouterr()
