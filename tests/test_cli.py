"""Tests for the command-line experiment runner."""

import json
import os
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.runner import workunits
from repro.simcore.time import msec, sec


def _shorten(monkeypatch, experiment_id, duration_ns=sec(1)):
    """Run *experiment_id* for *duration_ns* instead of its registry length."""
    binding = workunits.BINDINGS[experiment_id]
    short = replace(binding, full=dict(binding.full, duration_ns=duration_ns))
    monkeypatch.setitem(workunits.BINDINGS, experiment_id, short)


class TestList:
    def test_list_shows_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("fig1", "table2", "fig5a", "table6"):
            assert experiment_id in out

    def test_list_mentions_paper_refs(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Table 2" in out


class TestRunAll:
    """`run` with the runner flags: one cached, pooled pass over every
    target (`run all` runs the whole registry)."""

    def test_run_all_only_cheap_ids(self, capsys, tmp_path):
        rc = main(
            ["run", "table2", "fig3", "--cache-dir", str(tmp_path / "cache"), "--no-ledger"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-experiment timing" in out
        assert "table2" in out and "fig3" in out
        assert "1 job(s)" in out and "cache: 0 hits, 2 misses, 2 writes" in out

    def test_run_all_warm_cache_reuses_units(self, capsys, tmp_path):
        args = ["run", "table2", "fig3", "--cache-dir", str(tmp_path / "cache"),
                "--no-ledger"]
        main(args)
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cache: 2 hits, 0 misses" in warm
        assert "[run] ran" not in warm

        def summaries(out):
            return out[out.index("=== ") : out.index("per-experiment timing")]

        assert summaries(warm) == summaries(cold)

    def test_run_all_no_cache(self, capsys):
        rc = main(["run", "fig3", "--no-cache", "--no-ledger"])
        assert rc == 0
        assert "cache disabled" in capsys.readouterr().out

    def test_run_all_summaries(self, capsys, tmp_path):
        # Per target its header and summary, then the timing table and
        # the total line, then the ledger line.
        rc = main(["run", "table2", "fig3", "--runs-dir", str(tmp_path / "runs")])
        assert rc == 0
        out = capsys.readouterr().out
        order = ["=== Table 2", "(4,5)", "=== Figure 3", "per-experiment timing",
                 "total: ", "ledger: "]
        positions = [out.index(marker) for marker in order]
        assert positions == sorted(positions)

    def test_run_all_unknown_id(self, capsys):
        assert main(["run", "table2", "nope_*"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before anything ran
        assert "nope_*" in captured.err and captured.err.count("\n") == 1

    def test_defaults_write_cache_and_ledger_in_the_working_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / ".repro_cache").is_dir()
        (stamp,) = (tmp_path / "runs").iterdir()
        assert f"ledger: {os.path.join('runs', stamp.name, 'manifest.json')}" in out

    def test_observed_units_bypass_the_cache(self, capsys, tmp_path, monkeypatch):
        _shorten(monkeypatch, "robustness_pcpu_fail")
        args = ["run", "robustness_pcpu_fail", "--blame", "--no-ledger",
                "--cache-dir", str(tmp_path / "cache")]
        for _ in range(2):
            assert main(args) == 0
            out = capsys.readouterr().out
            assert "deadline-miss blame" in out
            assert "cache: 0 hits, 0 misses, 0 writes" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table2", "--jobs", "0"],
            ["run", "table2", "--jobs", "-3"],
            ["cluster", "--duration-s", "-1"],
            ["cluster", "--duration-s", "0"],
            ["cluster", "--duration-s", "1e-12"],
            ["cluster", "--duration-s", "nan"],
            ["cluster", "--duration-s", "inf"],
            ["cluster", "--clock-offset-ms", "nan"],
            ["cluster", "--clock-offset-ms", "inf"],
        ],
    )
    def test_bad_numbers_are_bad_input(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before anything ran
        assert captured.err.count("\n") == 1 and argv[-2] in captured.err


class TestRun:
    def test_run_single(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "(4,5)" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "table2", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Table 2" in out

    def test_blame_rejects_ids_it_cannot_blame(self, capsys):
        # fig3 is analytical: it builds no system for spans to watch.
        assert main(["run", "fig3", "--blame"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before anything ran
        assert captured.err.count("\n") == 1 and "fig3" in captured.err
        assert "--blame" in captured.err

    def test_seed_rejected_on_an_unseeded_id(self, capsys):
        for name in ("fig3", "robustness_pcpu_fail", "feedback_migrate"):
            assert main(["run", name, "--seed", "5"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "--seed" in captured.err

    def test_seed_reaches_the_seeded_ids_of_all(self):
        # Through `all` or a glob, an id that takes no seed runs at its
        # registry seed instead of failing the run.
        from repro.cli import _build_parser, _run_targets

        args = _build_parser().parse_args(["run", "all", "--seed", "5"])
        plans = {plan.experiment_id: plan for _, plan in _run_targets(args, [])}
        assert list(plans) == registry.all_ids()
        for experiment_id, plan in plans.items():
            seeded = workunits.BINDINGS[experiment_id].seeded
            assert plan == workunits.plan_for(experiment_id, 5 if seeded else None)
        assert dict(plans["robustness_jitter"].units[0].kwargs)["seed"] == 5
        assert dict(plans["robustness_surge"].units[0].kwargs)["seed"] == (
            registry.ROBUSTNESS_SEED
        )

    def test_blame_on_a_paper_table(self, capsys, monkeypatch):
        assert main(["run", "table2", "table1", "--blame"]) == 2
        capsys.readouterr()
        _shorten(monkeypatch, "fig1")
        assert main(["run", "fig1", "--blame"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "deadline-miss blame" in out
        assert "worst misses:" in out  # the uncoordinated half misses

    def test_globs_run_what_simulates_nothing_unobserved(self, capsys):
        # Named, fig3 is rejected; reached through a glob or `all`, it and
        # table2 run unobserved beside the ids the observers can watch.
        from repro.cli import _build_parser, _observer_flags, _run_targets

        assert main(["run", "table[2]", "fig[3]", "--blame"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Figure 3" in out
        assert "deadline-miss blame" not in out
        argv = ["run", "all", "--telemetry", "--record", "r.rtvt", "--blame"]
        args = _build_parser().parse_args(argv)
        plans = [plan for _, plan in _run_targets(args, _observer_flags(args))]
        assert [plan.experiment_id for plan in plans] == registry.all_ids()
        for unit in (unit for plan in plans for unit in plan.units):
            assert unit.observers == ("telemetry", "record", "blame")

    def test_unknown_id_fails(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCacheCommand:
    def test_stats_on_empty_cache(self, capsys, tmp_path):
        rc = main(
            [
                "cache",
                "stats",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--runs-dir",
                str(tmp_path / "runs"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert "no recorded run" in out
        assert "runs: 0" in out

    def test_stats_after_a_run(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runs_dir = str(tmp_path / "runs")
        main(["run", "table2", "--cache-dir", cache_dir, "--runs-dir", runs_dir])
        capsys.readouterr()
        rc = main(
            ["cache", "stats", "--cache-dir", cache_dir, "--runs-dir", runs_dir]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "last run: 0 hits, 1 misses, 1 writes" in out
        assert "runs: 1" in out

    def test_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(["run", "table2", "--cache-dir", cache_dir, "--no-ledger"])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        main(["cache", "stats", "--cache-dir", cache_dir])
        assert "entries: 0" in capsys.readouterr().out

    def test_prune_requires_max_bytes(self, capsys, tmp_path):
        rc = main(["cache", "prune", "--cache-dir", str(tmp_path / "cache")])
        assert rc == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_rejects_negative_budget(self, capsys, tmp_path):
        rc = main(
            [
                "cache",
                "prune",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--max-bytes",
                "-1",
            ]
        )
        assert rc == 2
        assert "max_bytes" in capsys.readouterr().err

    def test_prune_evicts_down_to_budget(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runs_dir = str(tmp_path / "runs")
        main(["run", "table2", "fig3", "--cache-dir", cache_dir, "--no-ledger"])
        capsys.readouterr()
        rc = main(
            [
                "cache",
                "prune",
                "--cache-dir",
                cache_dir,
                "--runs-dir",
                runs_dir,
                "--max-bytes",
                "0",
            ]
        )
        assert rc == 0
        assert "pruned 2 cache entries" in capsys.readouterr().out
        main(["cache", "stats", "--cache-dir", cache_dir])
        assert "entries: 0" in capsys.readouterr().out

    def test_prune_sweeps_ledger_runs_lru_first(self, capsys, tmp_path):
        """The oldest store — cache entry or run dir — is evicted first."""
        import os
        import time as _time

        cache_dir = str(tmp_path / "cache")
        runs_dir = str(tmp_path / "runs")
        main(["run", "table2", "--cache-dir", cache_dir, "--runs-dir", runs_dir])
        capsys.readouterr()
        # Age the ledger run far behind the cache entry.
        run_dir = os.path.join(runs_dir, os.listdir(runs_dir)[0])
        old = _time.time() - 10_000
        for name in os.listdir(run_dir):
            os.utime(os.path.join(run_dir, name), (old, old))
        from repro.runner.cache import ResultCache

        cache_bytes = ResultCache(cache_dir, salt="").stats()["bytes"]
        rc = main(
            [
                "cache",
                "prune",
                "--cache-dir",
                cache_dir,
                "--runs-dir",
                runs_dir,
                "--max-bytes",
                str(cache_bytes),
            ]
        )
        assert rc == 0
        assert "pruned 0 cache entries and 1 ledger runs" in capsys.readouterr().out
        assert os.listdir(runs_dir) == []


class TestExplain:
    """`run --blame` / `--job`: the forms that replaced `repro explain`."""

    def test_unknown_target_lists_known_faults(self, capsys):
        assert main(["run", "robustness_nope", "--blame"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "robustness_nope" in err
        assert "robustness_pcpu_fail" in err

    def test_sweep_prints_blame_table_and_worst_misses(self, capsys, monkeypatch):
        from repro.experiments import robustness

        _shorten(monkeypatch, "robustness_pcpu_fail")
        calls = []
        cell = robustness.run_robustness_case

        def counting(*args, **kwargs):
            calls.append(args)
            return cell(*args, **kwargs)

        monkeypatch.setattr(robustness, "run_robustness_case", counting)
        assert main(["run", "robustness_pcpu_fail", "--blame"]) == 0
        out = capsys.readouterr().out
        assert "blame sweep" in out and "deadline-miss blame" in out
        assert "worst misses — RT-Xen:" in out
        assert "primary=" in out
        # The registry's own cells carry the spans: one run per cell.
        assert len(calls) == 3

    def test_job_flag_renders_causal_timeline(self, capsys, monkeypatch):
        _shorten(monkeypatch, "robustness_pcpu_fail")
        rc = main(["run", "robustness_pcpu_fail", "--job", "vm2.rta1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "robustness_pcpu_fail under RT-Xen (1s, seed 11):" in out
        assert "vm2.rta1#" in out
        assert "release" in out and "run " in out

    def test_feedback_explains_the_registry_run(self, capsys):
        # One run: the per-policy result rows printed beside each blame
        # table are the rows the registry reports.
        from repro.experiments.common import format_table
        from repro.runner import run_experiments

        assert main(["run", "feedback_migrate", "--blame"]) == 0
        out = capsys.readouterr().out
        length_s = registry.FEEDBACK_DURATION_NS / 1e9
        (report,) = run_experiments(["feedback_migrate"]).reports
        for policy in ("static", "adaptive"):
            header = (
                f"=== feedback_migrate — policy {policy!r} "
                f"({length_s:g}s, seed {registry.FEEDBACK_SEED})"
            )
            rows = [row for row in report.rows if row["policy"] == policy]
            assert header in out
            assert format_table(rows, title="result rows") in out
        assert "per-tenant blame/credit" in out

    def test_job_without_spans_fails(self, capsys, monkeypatch):
        _shorten(monkeypatch, "robustness_pcpu_fail", msec(500))
        rc = main(["run", "robustness_pcpu_fail", "--job", "vm9.none"])
        assert rc == 2
        assert "no spans" in capsys.readouterr().err

    def test_malformed_job_rejected(self, capsys):
        assert main(["run", "robustness_pcpu_fail", "--job", "vm2.rta1#x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--job" in captured.err


class TestCluster:
    def test_cluster_run_prints_per_host_rows(self, capsys):
        rc = main(
            [
                "cluster",
                "--mode",
                "rebalance",
                "--hosts",
                "2",
                "--duration-s",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "h0" in out and "h1" in out and "cluster" in out
        assert "migr_in" in out and "downtime_ms" in out

    def test_cluster_log_shows_migration_lifecycle(self, capsys):
        rc = main(
            [
                "cluster",
                "--mode",
                "hostfail",
                "--hosts",
                "3",
                "--duration-s",
                "1",
                "--log",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "management-plane log" in out
        for kind in ("host_fail", "migrate_start", "migrate_pause",
                     "migrate_resume", "host_recover"):
            assert kind in out

    def test_cluster_needs_two_hosts(self, capsys):
        assert main(["cluster", "--hosts", "1"]) == 2
        assert "at least 2 hosts" in capsys.readouterr().err

    def test_shutdown_of_a_migrating_vm_is_deferred(self, capsys):
        # At 0.2 s the churn timeline shuts churn0 down while the
        # rebalance is still migrating it.
        assert main(["cluster", "--duration-s", "0.2", "--log"]) == 0
        assert "vm_shutdown_deferred churn0" in capsys.readouterr().out


#: The lines under ``telemetry (streamed):`` that ``run SCENARIO
#: --telemetry`` prints for each example scenario.
TELEMETRY_LINES = {
    "motivation": [
        "  deadline miss ratio: 0.000% (2666 decided)",
        "  job latency: mean=7284.4us  p90=19034.6us  p95=19034.6us  "
        "p99=19034.6us  p99.9=19034.6us",
        "  cpu consumed: 9015.3ms across 3 vcpus",
    ],
    "mixed_workload": [
        "  deadline miss ratio: 0.000% (1974 decided)",
        "  job latency: mean=14503.3us  p90=15004.7us  p95=15004.7us  "
        "p99=15004.7us  p99.9=15068.4us",
        "  cpu consumed: 58165.6ms across 3 vcpus",
    ],
    "probe": [
        "  deadline miss ratio: 0.505% (198 decided)",
        "  job latency: mean=8803.6us  p90=13008.8us  p95=13018.3us  "
        "p99=13045.4us  p99.9=15020.7us",
        "  cpu consumed: 1942.4ms across 3 vcpus",
    ],
}


@pytest.mark.parametrize("scenario", sorted(TELEMETRY_LINES))
def test_scenario_telemetry_output_is_unchanged(scenario, capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = os.path.join(root, "examples", "scenarios", f"{scenario}.json")
    assert main(["run", spec, "--telemetry", "--no-cache", "--no-ledger"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("telemetry (streamed):") + 1
    assert lines[start : start + 3] == TELEMETRY_LINES[scenario]


class TestRunAllLedger:
    def _manifest(self, runs_dir):
        (stamp,) = runs_dir.iterdir()
        manifest = json.loads((stamp / "manifest.json").read_text())
        assert manifest["stamp"] == stamp.name
        return manifest

    def test_run_all_writes_manifest(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        rc = main(["run", "table2", "--no-cache", "--runs-dir", str(runs_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.rstrip().splitlines()[-1].startswith("ledger: ")
        manifest = self._manifest(runs_dir)
        assert manifest["jobs"] == 1
        assert manifest["seed"] is None
        assert manifest["cache"]["enabled"] is False
        assert manifest["observers"] == [] and manifest["files"] == []
        assert "event_queue" not in manifest
        entry = manifest["experiments"]["table2"]
        assert entry["rows"] > 0
        assert len(entry["rows_sha256"]) == 64
        assert entry["units"] == len(entry["unit_walls"])

    def test_manifest_lists_observers_and_the_files_they_wrote(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.telemetry.record import TraceReader

        _shorten(monkeypatch, "robustness_pcpu_fail")
        runs_dir = tmp_path / "runs"
        argv = ["run", "robustness_pcpu_fail", "--blame", "--record",
                str(tmp_path / "f.rtvt"), "--runs-dir", str(runs_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        manifest = self._manifest(runs_dir)
        assert manifest["observers"] == ["record", "blame"]
        assert [f["unit"] for f in manifest["files"]] == [
            f"robustness_pcpu_fail/{s}" for s in ("RTVirt", "RT-Xen", "Credit")
        ]
        for entry in manifest["files"]:
            assert entry["observer"] == "record"
            assert TraceReader(entry["path"]).trace_hash == entry["trace_sha256"]

    def test_scenario_target_is_keyed_by_its_path(self, capsys, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(
            json.dumps(
                {
                    "system": {"type": "rtvirt", "pcpus": 1},
                    "duration_s": 0.1,
                    "vms": [
                        {
                            "name": "vm1",
                            "tasks": [{"name": "rta1", "slice_ms": 2, "period_ms": 10}],
                        }
                    ],
                }
            )
        )
        runs_dir = tmp_path / "runs"
        assert main(["run", str(spec), "--runs-dir", str(runs_dir)]) == 0
        capsys.readouterr()
        assert list(self._manifest(runs_dir)["experiments"]) == [str(spec)]

    def test_no_ledger_skips_manifest(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        rc = main(
            ["run", "table2", "--no-cache", "--no-ledger", "--runs-dir", str(runs_dir)]
        )
        assert rc == 0
        assert "ledger:" not in capsys.readouterr().out
        assert not runs_dir.exists()


class TestTraceCommand:
    def _record(self, tmp_path, capsys):
        with pytest.MonkeyPatch.context() as patch:
            _shorten(patch, "robustness_pcpu_fail")
            rc = main(
                ["run", "robustness_pcpu_fail", "--record", str(tmp_path / "fail.rtvt")]
            )
        assert rc == 0
        out = capsys.readouterr().out
        # One file per cell, named from PATH and the unit id.
        for scheduler in ("RTVirt", "RT-Xen", "Credit"):
            cell = tmp_path / f"fail.robustness_pcpu_fail-{scheduler}.rtvt"
            assert f"-> {cell}" in out
        return str(tmp_path / "fail.robustness_pcpu_fail-RTVirt.rtvt")

    def test_record_and_inspect(self, capsys, tmp_path):
        path = self._record(tmp_path, capsys)
        assert main(["trace", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert "fault: pcpu_fail" in out
        assert "scheduler: RTVirt" in out
        assert "hash:" in out
        assert "job_release" in out

    def test_record_rejects_unknown_fault(self, capsys, tmp_path):
        rc = main(["run", "robustness_nope", "--record", str(tmp_path / "x.rtvt")])
        assert rc == 2
        assert "robustness_nope" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_record_any_simulating_id(self, capsys, tmp_path, monkeypatch):
        # A paper figure records too: one trace per unit, inspectable.
        _shorten(monkeypatch, "fig5a")
        assert main(["run", "fig5a", "--record", str(tmp_path / "f5a.rtvt")]) == 0
        capsys.readouterr()
        traces = sorted(tmp_path.iterdir())
        assert len(traces) == 4
        assert main(["trace", "inspect", str(traces[0])]) == 0
        out = capsys.readouterr().out
        assert "format: unit" in out and "unit: fig5a/" in out

    def test_offline_blame_is_each_systems_live_blame(
        self, capsys, tmp_path, monkeypatch
    ):
        # fig1 builds two systems that both start at time 0 and share task
        # names: each gets its own trace, whose offline blame is the live
        # blame of that system.
        _shorten(monkeypatch, "fig1")
        argv = ["run", "fig1", "--blame", "--record", str(tmp_path / "f.rtvt")]
        assert main(argv) == 0
        live = capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.0.rtvt", "f.1.rtvt"]
        for system in (0, 1):
            path = str(tmp_path / f"f.{system}.rtvt")
            assert main(["trace", "inspect", path, "--blame"]) == 0
            offline = capsys.readouterr().out
            blame = offline[offline.index("deadline-miss blame") :]
            assert f"blame — fig1/whole system {system}:\n{blame}" in live
        assert "rta2#1 +4.000ms primary=host_preemption" in live

    def test_replay_round_trip_matches(self, capsys, tmp_path):
        path = self._record(tmp_path, capsys)
        assert main(["trace", "replay", path]) == 0
        out = capsys.readouterr().out
        assert "round trip vs recorded rows: MATCH" in out

    def test_what_if_replay_diffs(self, capsys, tmp_path):
        path = self._record(tmp_path, capsys)
        rc = main(
            ["trace", "replay", path, "--scheduler", "Credit", "--diff"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "what-if: recorded under RTVirt, replayed under Credit" in out
        assert "traces diverge at event #" in out
        assert "Per-task deltas" in out

    def test_diff_identical_trace_exits_zero(self, capsys, tmp_path):
        path = self._record(tmp_path, capsys)
        assert main(["trace", "diff", path, path]) == 0
        assert "traces identical" in capsys.readouterr().out

    def test_explain_accepts_trace_file(self, capsys, tmp_path):
        # Offline blame: `trace inspect --blame` rebuilds spans from the
        # trace without simulating.
        path = self._record(tmp_path, capsys)
        assert main(["trace", "inspect", path, "--blame"]) == 0
        out = capsys.readouterr().out
        assert "deadline-miss blame" in out
        assert "fault: pcpu_fail" in out and "scheduler: RTVirt" in out
        assert main(["trace", "inspect", path, "--job", "vm2.rta1#3"]) == 0
        assert "vm2.rta1#3 — released" in capsys.readouterr().out


class TestCorruptTrace:
    """Every verb that reads a damaged trace prints one line and exits 2."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("traces")
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(root)  # set up before the per-test working directory
            _shorten(patch, "robustness_pcpu_fail")
            rc = main(
                ["run", "robustness_pcpu_fail", "--record", str(root / "good.rtvt")]
            )
        assert rc == 0
        good = str(root / "good.robustness_pcpu_fail-RTVirt.rtvt")
        with open(good, "rb") as handle:
            data = handle.read()
        flipped = bytearray(data)
        flipped[len(data) // 2] ^= 0x01
        (root / "flipped.rtvt").write_bytes(bytes(flipped))
        (root / "cut.rtvt").write_bytes(data[: len(data) // 2])
        return good, str(root / "flipped.rtvt"), str(root / "cut.rtvt")

    def assert_rejected(self, capsys, argv, path):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(path)

    def test_inspect(self, capsys, traces):
        _, flipped, _ = traces
        self.assert_rejected(capsys, ["trace", "inspect", flipped], flipped)

    def test_replay(self, capsys, traces):
        _, flipped, _ = traces
        self.assert_rejected(capsys, ["trace", "replay", flipped], flipped)

    def test_diff(self, capsys, traces):
        good, flipped, _ = traces
        self.assert_rejected(capsys, ["trace", "diff", good, flipped], flipped)

    def test_explain(self, capsys, traces):
        _, _, cut = traces
        self.assert_rejected(capsys, ["trace", "inspect", cut, "--blame"], cut)
