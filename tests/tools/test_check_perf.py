"""``check_perf.py`` appends one history line per verdict."""

import json

import pytest


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_append_history_accumulates(check_perf, tmp_path):
    path = tmp_path / "history.jsonl"
    check_perf.append_history({"status": "pass", "failed_gate": None}, str(path))
    check_perf.append_history(
        {"status": "fail", "failed_gate": "registry", "events_per_sec": 1.5},
        str(path),
    )
    first, second = _lines(path)
    assert first["status"] == "pass" and first["failed_gate"] is None
    assert second["status"] == "fail" and second["failed_gate"] == "registry"
    assert second["events_per_sec"] == 1.5
    assert {"stamp", "git_sha"} <= set(first)


def _run(check_perf, monkeypatch, tmp_path, status, *extra):
    """main() with every gate skipped but a stubbed throughput gate."""
    path = tmp_path / "history.jsonl"
    monkeypatch.setattr(check_perf, "HISTORY", str(path))
    monkeypatch.setattr(check_perf, "check_throughput", lambda *a, **k: status)
    argv = ["--skip-tests", "--skip-parallel", "--skip-registry"]
    rc = check_perf.main(argv + ["--recorder-tolerance", "0", *extra])
    return rc, path


@pytest.mark.parametrize(
    "status, verdict, gate", [(0, "pass", None), (2, "fail", "throughput")]
)
def test_every_verdict_is_recorded(check_perf, monkeypatch, tmp_path, status, verdict, gate):
    rc, path = _run(check_perf, monkeypatch, tmp_path, status)
    assert rc == status
    (entry,) = _lines(path)
    assert entry["status"] == verdict and entry["failed_gate"] == gate


def test_missing_baseline_and_no_history_append_nothing(
    check_perf, monkeypatch, tmp_path
):
    rc, path = _run(check_perf, monkeypatch, tmp_path, 3)
    assert rc == 3 and not path.exists()
    rc, path = _run(check_perf, monkeypatch, tmp_path, 2, "--no-history")
    assert rc == 2 and not path.exists()
