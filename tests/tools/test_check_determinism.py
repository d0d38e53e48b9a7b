"""``check_determinism.py --check`` validates its baseline before running."""

import json

import pytest

BAD_BASELINES = {
    "malformed": "{not json",
    "wrong-shape": "[1, 2]",
    "no-hash": json.dumps({"table2": {"rows": 3}}),
}


@pytest.mark.parametrize("kind", ["missing", *BAD_BASELINES])
def test_bad_baseline_exits_2_before_running(check_determinism, tmp_path, capsys, kind):
    path = tmp_path / "baseline.json"
    if kind != "missing":
        path.write_text(BAD_BASELINES[kind])
    assert check_determinism.main(["--check", str(path), "--only", "table2"]) == 2
    out, err = capsys.readouterr()
    assert "running" not in out  # nothing ran
    assert err.count("\n") == 1 and str(path) in err


def test_recorded_baseline_round_trips(check_determinism, tmp_path, capsys):
    path = tmp_path / "baseline.json"
    assert check_determinism.main(["--record", str(path), "--only", "fig1"]) == 0
    assert check_determinism.main(["--check", str(path), "--only", "fig1"]) == 0
    assert "OK" in capsys.readouterr().out


def test_hash_is_the_ledger_hash(check_determinism):
    from repro.runner import ledger

    assert check_determinism.rows_hash is ledger.rows_hash
