"""``check_determinism.py`` records and checks run-ledger manifests."""

import json

import pytest

#: Unusable ``--check`` manifests; each must exit 2 before anything runs.
BAD_BASELINES = {
    "malformed": "{not json",
    "wrong-shape": "[1, 2]",
    "pre-manifest": json.dumps({"table2": {"rows": 4, "sha256": "ab" * 32}}),
    "experiments-not-object": json.dumps({"experiments": ["table2"]}),
    "no-hash": json.dumps({"experiments": {"table2": {"rows": 3}}}),
}


@pytest.mark.parametrize("kind", ["missing", *BAD_BASELINES])
def test_bad_baseline_exits_2_before_running(check_determinism, tmp_path, capsys, kind):
    path = tmp_path / "manifest.json"
    if kind != "missing":
        path.write_text(BAD_BASELINES[kind])
    assert check_determinism.main(["--check", str(path), "--only", "table2"]) == 2
    out, err = capsys.readouterr()
    assert "ran " not in out  # nothing ran
    assert err.count("\n") == 1 and str(path) in err


def test_recorded_baseline_round_trips(check_determinism, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    assert check_determinism.main(["--record", str(path), "--only", "fig1"]) == 0
    manifest = json.loads(path.read_text())
    assert list(manifest["experiments"]) == ["fig1"]
    assert manifest["cache"]["enabled"] is False and manifest["jobs"] == 1
    assert check_determinism.main(["--check", str(path), "--only", "fig1"]) == 0
    assert "OK" in capsys.readouterr().out


def test_checks_a_run_ledger_manifest(check_determinism, tmp_path, capsys):
    from repro.cli import main

    runs_dir = tmp_path / "runs"
    assert main(["run", "fig3", "table2", "--no-cache", "--runs-dir", str(runs_dir)]) == 0
    (stamp,) = runs_dir.iterdir()
    path = str(stamp / "manifest.json")
    assert check_determinism.main(["--check", path, "--only", "table2,fig3"]) == 0
    assert "OK — 2 experiments" in capsys.readouterr().out
    # An id the manifest never ran is a failure, not a pass.
    assert check_determinism.main(["--check", path, "--only", "fig3,fig1"]) == 1
    assert "fig1: run " in capsys.readouterr().out


def test_a_wrong_hash_fails(check_determinism, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    assert check_determinism.main(["--record", str(path), "--only", "table2"]) == 0
    manifest = json.loads(path.read_text())
    manifest["experiments"]["table2"]["rows_sha256"] = "0" * 64
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert check_determinism.main(["--check", str(path), "--only", "table2"]) == 1
    assert "table2: run " in capsys.readouterr().out


def test_hash_is_the_ledger_hash(check_determinism):
    from repro.runner import ledger

    assert check_determinism.rows_hash is ledger.rows_hash
    assert check_determinism.run_manifest is ledger.run_manifest
