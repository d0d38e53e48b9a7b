"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import main


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
    def test_run_all_only_cheap_ids(self, capsys, tmp_path):
        rc = main(
            [
                "run-all",
                "--only",
                "table2,fig3",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--no-ledger",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-experiment timing" in out
        assert "table2" in out and "fig3" in out
        assert "1 job(s)" in out

    def test_run_all_warm_cache_reuses_units(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = ["run-all", "--only", "table2", "--cache-dir", cache_dir,
                "--no-ledger"]
        main(args)
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cache: 1 hits, 0 misses" in out

    def test_run_all_no_cache(self, capsys, tmp_path):
        rc = main(["run-all", "--only", "fig3", "--no-cache", "--no-ledger"])
        assert rc == 0
        assert "cache disabled" in capsys.readouterr().out

    def test_run_all_summaries(self, capsys, tmp_path):
        rc = main(["run-all", "--only", "table2", "--no-cache",
                   "--no-ledger", "--summaries"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "(4,5)" in out

    def test_run_all_unknown_id(self, capsys):
        assert main(["run-all", "--only", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


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
        main(
            [
                "run-all",
                "--only",
                "table2",
                "--cache-dir",
                cache_dir,
                "--runs-dir",
                runs_dir,
            ]
        )
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
        main(["run-all", "--only", "table2", "--cache-dir", cache_dir,
              "--no-ledger"])
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
        main(["run-all", "--only", "table2,fig3", "--cache-dir", cache_dir,
              "--no-ledger"])
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
        main(
            [
                "run-all",
                "--only",
                "table2",
                "--cache-dir",
                cache_dir,
                "--runs-dir",
                runs_dir,
            ]
        )
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
    def test_unknown_target_lists_known_faults(self, capsys):
        assert main(["explain", "robustness_nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown target" in err
        assert "robustness_pcpu_fail" in err

    def test_sweep_prints_blame_table_and_worst_misses(self, capsys):
        rc = main(
            ["explain", "robustness_pcpu_fail", "--duration-s", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "deadline-miss blame" in out
        assert "worst misses" in out
        assert "primary=" in out

    def test_job_flag_renders_causal_timeline(self, capsys):
        rc = main(
            [
                "explain",
                "robustness_pcpu_fail",
                "--job",
                "vm2.rta1",
                "--scheduler",
                "RT-Xen",
                "--duration-s",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "vm2.rta1" in out
        assert "release" in out and "run " in out

    def test_job_without_spans_fails(self, capsys):
        rc = main(
            [
                "explain",
                "robustness_pcpu_fail",
                "--job",
                "vm9.none",
                "--duration-s",
                "0.5",
            ]
        )
        assert rc == 2
        assert "no spans" in capsys.readouterr().err


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

class TestRunAllLedger:
    def test_run_all_writes_manifest(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        rc = main(
            [
                "run-all",
                "--only",
                "table2",
                "--no-cache",
                "--runs-dir",
                str(runs_dir),
            ]
        )
        assert rc == 0
        assert "ledger:" in capsys.readouterr().out
        import json

        stamps = list(runs_dir.iterdir())
        assert len(stamps) == 1
        manifest = json.loads((stamps[0] / "manifest.json").read_text())
        assert manifest["stamp"] == stamps[0].name
        assert manifest["jobs"] == 1
        assert "event_queue" not in manifest
        entry = manifest["experiments"]["table2"]
        assert entry["rows"] > 0
        assert len(entry["rows_sha256"]) == 64
        assert entry["units"] == len(entry["unit_walls"])

    def test_no_ledger_skips_manifest(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        rc = main(
            [
                "run-all",
                "--only",
                "table2",
                "--no-cache",
                "--no-ledger",
                "--runs-dir",
                str(runs_dir),
            ]
        )
        assert rc == 0
        assert not runs_dir.exists()


class TestTraceCommand:
    def _record(self, tmp_path, capsys):
        path = str(tmp_path / "fail.rtvt")
        rc = main(
            [
                "trace",
                "record",
                "robustness_pcpu_fail",
                "--duration-s",
                "1",
                "-o",
                path,
            ]
        )
        assert rc == 0
        capsys.readouterr()
        return path

    def test_record_and_inspect(self, capsys, tmp_path):
        path = self._record(tmp_path, capsys)
        assert main(["trace", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert "fault: pcpu_fail" in out
        assert "scheduler: RTVirt" in out
        assert "hash:" in out
        assert "job_release" in out

    def test_record_rejects_unknown_fault(self, capsys, tmp_path):
        rc = main(["trace", "record", "robustness_nope"])
        assert rc == 2
        assert "unknown target" in capsys.readouterr().err

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
        path = self._record(tmp_path, capsys)
        assert main(["explain", path]) == 0
        out = capsys.readouterr().out
        assert "deadline-miss blame" in out
        assert "pcpu_fail under RTVirt" in out
