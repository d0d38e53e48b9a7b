"""Tests for the persistent run ledger (``runs/<stamp>/manifest.json``)."""

import json
import os
import subprocess

from repro.runner import ledger


class TestRunDirs:
    def test_new_run_dir_creates_stamped_dir(self, tmp_path):
        root = str(tmp_path / "runs")
        stamp, path = ledger.new_run_dir(root)
        assert os.path.isdir(path)
        assert os.path.basename(path) == stamp
        # UTC YYYYmmdd-HHMMSS
        date, clock = stamp.split("-")[:2]
        assert len(date) == 8 and date.isdigit()
        assert len(clock) == 6 and clock.isdigit()

    def test_collisions_get_counter_suffixes(self, tmp_path):
        root = str(tmp_path / "runs")
        stamps = [ledger.new_run_dir(root)[0] for _ in range(3)]
        assert len(set(stamps)) == 3
        assert stamps[1].startswith(stamps[0])

    def test_remove_run(self, tmp_path):
        root = str(tmp_path / "runs")
        _stamp, path = ledger.new_run_dir(root)
        (tmp_path / "runs" / os.path.basename(path) / "x.bin").write_bytes(
            b"x" * 10
        )
        ledger.remove_run(path)
        assert not os.path.exists(path)
        ledger.remove_run(path)  # idempotent


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        run_dir = str(tmp_path)
        manifest = {"stamp": "s", "jobs": 2, "experiments": {"fig4": {"rows": 9}}}
        path = ledger.write_manifest(run_dir, manifest)
        assert os.path.basename(path) == ledger.MANIFEST_NAME
        with open(path) as handle:
            assert json.load(handle) == manifest
        # atomic write leaves no temp file behind
        assert os.listdir(run_dir) == [ledger.MANIFEST_NAME]


class TestRowsHash:
    ROWS = [{"task": "t0", "miss_ratio": 0.25, "released": 100}]

    def test_stable_across_key_order(self):
        reordered = [
            {"released": 100, "miss_ratio": 0.25, "task": "t0"}
        ]
        assert ledger.rows_hash(self.ROWS) == ledger.rows_hash(reordered)

    def test_sensitive_to_float_changes(self):
        changed = [dict(self.ROWS[0], miss_ratio=0.25000001)]
        assert ledger.rows_hash(self.ROWS) != ledger.rows_hash(changed)

    def test_tuple_and_list_rows_agree(self):
        assert ledger.rows_hash([(1, 2.5)]) == ledger.rows_hash([[1, 2.5]])

    def test_is_a_sha256_hex(self):
        digest = ledger.rows_hash(self.ROWS)
        assert len(digest) == 64
        int(digest, 16)


class TestEntries:
    def _make_run(self, root, name, size, mtime):
        run_dir = os.path.join(root, name)
        os.makedirs(run_dir)
        path = os.path.join(run_dir, "blob.bin")
        with open(path, "wb") as handle:
            handle.write(b"x" * size)
        os.utime(path, (mtime, mtime))
        return run_dir

    def test_entries_oldest_first_with_sizes(self, tmp_path):
        root = str(tmp_path / "runs")
        os.makedirs(root)
        new = self._make_run(root, "b-new", 30, 2_000_000.0)
        old = self._make_run(root, "a-old", 70, 1_000_000.0)
        entries = ledger.run_entries(root)
        assert [entry[0] for entry in entries] == [old, new]
        assert [entry[1] for entry in entries] == [70, 30]

    def test_missing_root_is_empty(self, tmp_path):
        assert ledger.run_entries(str(tmp_path / "nope")) == []
        stats = ledger.runs_stats(str(tmp_path / "nope"))
        assert stats["runs"] == 0
        assert stats["total_bytes"] == 0

    def test_stats_totals(self, tmp_path):
        root = str(tmp_path / "runs")
        os.makedirs(root)
        self._make_run(root, "r1", 40, 1_000_000.0)
        self._make_run(root, "r2", 60, 2_000_000.0)
        stats = ledger.runs_stats(root)
        assert stats == {"root": root, "runs": 2, "total_bytes": 100}

    def test_stray_files_in_root_ignored(self, tmp_path):
        root = str(tmp_path / "runs")
        os.makedirs(root)
        (tmp_path / "runs" / "README").write_text("not a run")
        assert ledger.run_entries(root) == []


class TestGitSha:
    def test_in_repo_returns_full_sha(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", *args], cwd=tmp_path, check=True, capture_output=True, text=True
            ).stdout.strip()

        git("init", "-q")
        git("config", "user.name", "t")
        git("config", "user.email", "t@example.com")
        git("config", "commit.gpgsign", "false")
        (tmp_path / "f.txt").write_text("x\n")
        git("add", "f.txt")
        git("commit", "-q", "-m", "one")
        sha = ledger.git_sha(str(tmp_path))
        assert sha == git("rev-parse", "HEAD")
        assert len(sha) == 40
        int(sha, 16)

    def test_outside_repo_returns_none(self, tmp_path):
        assert ledger.git_sha(str(tmp_path)) is None
