"""``check_determinism.py`` records and checks run-ledger manifests."""

import json
import os

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


#: The per-observer flags that ``--observed`` replaced.
RETIRED_FLAGS = ["--streams", "--blame", "--trace"]


@pytest.mark.parametrize("flag", [*RETIRED_FLAGS, "--observed"])
def test_seed_without_a_registry_pass_exits_2(check_determinism, capsys, flag):
    """``--seed`` beside an observed pass alone runs nothing.  ``--observed``
    refuses it in one line; a retired flag is an unknown option, so an old
    recipe fails loudly instead of passing with nothing checked."""
    argv = ["--seed", "5", flag, "2"]
    if flag in RETIRED_FLAGS:
        with pytest.raises(SystemExit) as exited:
            check_determinism.main(argv)
        status, named = exited.value.code, f"unrecognized arguments: {flag} 2"
    else:
        status, named = check_determinism.main(argv), "--seed"
    out, err = capsys.readouterr()
    assert status == 2 and out == ""
    assert named in err.splitlines()[-1]
    assert flag in RETIRED_FLAGS or err.count("\n") == 1


def test_only_without_a_registry_pass_exits_2(check_determinism, capsys):
    assert check_determinism.main(["--only", "fig1", "--observed", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "--only" in err


@pytest.mark.parametrize("before", [None, "0"])
def test_main_restores_the_pool_setting(check_determinism, monkeypatch, before):
    """The forced pool lasts for the gate's own run only."""
    if before is None:
        monkeypatch.delenv("REPRO_RUNNER_FORCE_POOL", raising=False)
    else:
        monkeypatch.setenv("REPRO_RUNNER_FORCE_POOL", before)
    assert check_determinism.main(["--only", "table2", "--parallel", "2"]) == 0
    assert os.environ.get("REPRO_RUNNER_FORCE_POOL") == before


def test_every_observer_is_digested_or_excused(check_determinism):
    """A new observer fails here until the gate digests its output or
    says why it does not."""
    from repro.telemetry.observers import OBSERVERS

    digested, excused = check_determinism.DIGESTS, check_determinism.NOT_DIGESTED
    assert not set(digested) & set(excused)
    assert set(digested) | set(excused) == set(OBSERVERS)
    assert all(reason.strip() for reason in excused.values())
    units = [u for plan in check_determinism.observed_plans() for u in plan.units]
    assert len(units) == 15
    assert all(unit.observers == tuple(digested) for unit in units)


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


def test_recorded_rerun_digests_gate_a_consistent_change(
    check_determinism, tmp_path, capsys, monkeypatch
):
    """A recorder that writes different bytes in every process passes
    serial-vs-parallel, but not the digests ``--record`` stored."""
    from repro.telemetry import events as T
    from repro.telemetry.record import TraceRecorder

    path = tmp_path / "manifest.json"
    flags = ["--only", "table2", "--observed", "2"]
    assert check_determinism.main(["--record", str(path), *flags]) == 0
    manifest = json.loads(path.read_text())
    labels = [entry["digest"] for entry in manifest["files"]]
    assert len(labels) == 45 and not set(labels) & set(manifest["experiments"])
    assert {label.split("/")[0] for label in labels} == {"telemetry", "blame", "record"}
    assert "record/robustness_vm_churn/Credit/0" in labels
    assert check_determinism.main(["--check", str(path), *flags]) == 0

    attach = TraceRecorder.attach

    def planted(self, bus, kinds=T.ALL_KINDS):
        """Attach, then hand the recorder's first handler one event of
        its own: the recorder alone sees it, in every process alike."""
        subscribed = []

        class Spy:
            def subscribe(self, kind, handler):
                subscribed.append(handler)
                return bus.subscribe(kind, handler)

        attach(self, Spy(), kinds)
        subscribed[0](T.JobReleaseEvent(0, "planted", None, "planted", 0, 0, 0))
        return self

    monkeypatch.setattr(TraceRecorder, "attach", planted)
    capsys.readouterr()
    assert check_determinism.main(["--observed", "2"]) == 0
    assert check_determinism.main(["--check", str(path), *flags]) == 1
    diverged = [
        line.split()[1].rstrip(":")
        for line in capsys.readouterr().out.splitlines()
        if line.endswith("DIVERGED")
    ]
    assert sorted(diverged) == sorted(x for x in labels if x.startswith("record/"))


def test_a_baseline_without_the_rerun_digests_fails(check_determinism, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    assert check_determinism.main(["--record", str(path), "--only", "table2"]) == 0
    assert json.loads(path.read_text())["files"] == []
    capsys.readouterr()
    argv = ["--check", str(path), "--only", "table2", "--observed", "1"]
    assert check_determinism.main(argv) == 1
    assert "vs baseline missing: DIVERGED" in capsys.readouterr().out


def test_a_cache_that_returns_a_changed_part_fails(
    check_determinism, capsys, monkeypatch
):
    from repro.runner.cache import ResultCache

    assert check_determinism.main(["--only", "table2", "--cache"]) == 0
    assert "OK — 1 experiments byte-identical (warm-cache)" in capsys.readouterr().out
    get = ResultCache.get

    def changed(self, unit):
        hit, part = get(self, unit)
        return hit, (dict(part, rows=part["rows"][:-1]) if hit else part)

    monkeypatch.setattr(ResultCache, "get", changed)
    assert check_determinism.main(["--only", "table2", "--cache"]) == 1
    assert "table2: warm " in capsys.readouterr().out
