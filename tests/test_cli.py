from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from sensorcast.cli import RunManifest, load_manifest, main
from sensorcast.datasets import ball_series, descriptor_for, load_csv


def run_cli(*argv):
    return main(list(argv))


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
    assert m.config_path == str(path)

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


def test_manifest_with_mistyped_value_exits_2(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json", n_splits="5")
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n_splits" in err
    for key, value in (("methods", "constant"), ("delta_min", "0.5"),
                       ("seed", True), ("history_len", 5.0)):
        path = write_manifest(tmp_path / f"{key}.json", **{key: value})
        with pytest.raises(ValueError, match=key):
            load_manifest(str(path), {})
    ok = write_manifest(tmp_path / "ok.json", delta_min=1, ring_depth=None)
    assert load_manifest(str(ok), {}).delta_min == 1


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
    manifest = write_manifest(tmp_path / "m.json", workers=1,
                              output_dir=str(tmp_path / "serial"),
                              methods=["constant", "simple_mean", "linear"])
    assert run_cli("evaluate", "--manifest", str(manifest)) == 0
    assert run_cli("evaluate", "--manifest", str(manifest), "--workers", "3",
                   "--output-dir", str(tmp_path / "parallel")) == 0
    assert ((tmp_path / "serial" / "report.csv").read_bytes()
            == (tmp_path / "parallel" / "report.csv").read_bytes())


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


def test_evaluate_missing_dataset_exits_2(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.json",
        datasets=[{"family": "intel", "group": 1, "path": "nope.csv"}],
        output_dir=str(tmp_path / "out"))
    assert run_cli("evaluate", "--manifest", str(manifest)) == 2
    err = capsys.readouterr().err
    assert "dataset not found" in err
    assert "intel-g1" in err


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
    assert run["network"]["total_transmissions"] == 110
    expected_savings = int(110 * run["saved_fraction"] / 100.0)
    assert run["network"]["projected_savings"] == expected_savings

    trace_lines = (out / "dps_ball-g1_constant.jsonl").read_text().splitlines()
    header = json.loads(trace_lines[0])
    assert header["manifest_sha256"] == summary["manifest_sha256"]
    tail = json.loads(trace_lines[-1])
    assert tail["type"] == "summary"
    assert tail["measurements"] == run["measurements"]


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


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    capsys.readouterr()
