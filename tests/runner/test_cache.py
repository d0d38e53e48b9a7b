"""Tests for the content-addressed work-unit result cache."""

import os
import pickle

from repro.runner.cache import ResultCache, code_salt, disabled_cache
from repro.runner.workunits import WorkUnit

UNIT = WorkUnit(
    experiment_id="table2",
    unit_id="table2/whole",
    fn="m:f",
    kwargs=(("experiment_id", "table2"),),
)


def make_cache(tmp_path, **kw) -> ResultCache:
    return ResultCache(path=str(tmp_path / "cache"), salt="s1", **kw)


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        hit, part = cache.get(UNIT)
        assert not hit and part is None
        cache.put(UNIT, {"rows": [1, 2], "summary": "x"})
        hit, part = cache.get(UNIT)
        assert hit
        assert part == {"rows": [1, 2], "summary": "x"}
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)

    def test_persists_across_instances(self, tmp_path):
        make_cache(tmp_path).put(UNIT, "part")
        hit, part = make_cache(tmp_path).get(UNIT)
        assert hit and part == "part"

    def test_preserves_non_json_types(self, tmp_path):
        """Pickle storage keeps float dict keys (Table 4 tails) intact."""
        cache = make_cache(tmp_path)
        tails = {90.0: 1.5, 99.9: 2.25}
        cache.put(UNIT, tails)
        assert cache.get(UNIT)[1] == tails


class TestInvalidation:
    def test_salt_changes_key(self, tmp_path):
        make_cache(tmp_path).put(UNIT, "old")
        stale = ResultCache(path=str(tmp_path / "cache"), salt="s2")
        hit, _ = stale.get(UNIT)
        assert not hit

    def test_kwargs_change_key(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(UNIT, "old")
        other = WorkUnit(
            UNIT.experiment_id, UNIT.unit_id, UNIT.fn, (("experiment_id", "fig3"),)
        )
        assert not cache.get(other)[0]

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(UNIT, "part")
        entry = cache._entry_path(cache.key(UNIT))
        with open(entry, "wb") as fh:
            fh.write(b"not a pickle")
        hit, _ = cache.get(UNIT)
        assert not hit
        assert not os.path.exists(entry)

    def test_unit_id_mismatch_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(UNIT, "part")
        entry = cache._entry_path(cache.key(UNIT))
        with open(entry, "wb") as fh:
            pickle.dump({"unit_id": "someone/else", "part": "x"}, fh)
        assert not cache.get(UNIT)[0]


class TestModes:
    def test_refresh_skips_reads_but_writes(self, tmp_path):
        make_cache(tmp_path).put(UNIT, "old")
        refreshing = make_cache(tmp_path, refresh=True)
        hit, _ = refreshing.get(UNIT)
        assert not hit
        refreshing.put(UNIT, "new")
        assert make_cache(tmp_path).get(UNIT) == (True, "new")

    def test_disabled_never_touches_disk(self, tmp_path):
        cache = ResultCache(
            path=str(tmp_path / "cache"), enabled=False, salt="s1"
        )
        cache.put(UNIT, "part")
        assert not cache.get(UNIT)[0]
        assert not os.path.exists(str(tmp_path / "cache"))

    def test_disabled_cache_helper_needs_no_salt(self):
        cache = disabled_cache()
        assert not cache.enabled
        assert cache.salt == ""


class TestCodeSalt:
    def test_stable_and_content_sensitive(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        (pkg / "b.py").write_text("y = 2\n")
        first = code_salt(str(pkg))
        # Memoised per root: clear the memo to force a re-walk.
        from repro.runner import cache as cache_module

        cache_module._SALT_CACHE.clear()
        assert code_salt(str(pkg)) == first
        cache_module._SALT_CACHE.clear()
        (pkg / "a.py").write_text("x = 3\n")
        assert code_salt(str(pkg)) != first
        cache_module._SALT_CACHE.clear()

    def test_ignores_non_python_files(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        from repro.runner import cache as cache_module

        cache_module._SALT_CACHE.clear()
        first = code_salt(str(pkg))
        cache_module._SALT_CACHE.clear()
        (pkg / "notes.txt").write_text("irrelevant")
        assert code_salt(str(pkg)) == first
        cache_module._SALT_CACHE.clear()

    def test_repo_salt_is_hex(self):
        salt = code_salt()
        assert len(salt) == 64
        int(salt, 16)


OTHER_UNITS = tuple(
    WorkUnit(
        experiment_id=experiment_id,
        unit_id=f"{experiment_id}/whole",
        fn="m:f",
        kwargs=(("experiment_id", experiment_id),),
    )
    for experiment_id in ("fig3", "fig1")
)


class TestMaintenance:
    def test_stats_on_missing_dir(self, tmp_path):
        assert make_cache(tmp_path).stats() == {"entries": 0, "bytes": 0}

    def test_entries_and_stats(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(UNIT, "part-a")
        cache.put(OTHER_UNITS[0], "part-b")
        entries = cache.entries()
        assert len(entries) == 2
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] == sum(size for _, size, _ in entries)
        assert stats["bytes"] > 0

    def test_clear(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(UNIT, "part-a")
        cache.put(OTHER_UNITS[0], "part-b")
        assert cache.clear() == 2
        assert cache.stats() == {"entries": 0, "bytes": 0}
        # Empty fan-out directories are swept too.
        assert all(
            not os.path.isdir(os.path.join(cache.path, name))
            for name in os.listdir(cache.path)
        )

    def test_hit_refreshes_entry_mtime(self, tmp_path):
        """LRU honesty: a read must count as recent use."""
        cache = make_cache(tmp_path)
        cache.put(UNIT, "part")
        entry = cache._entry_path(cache.key(UNIT))
        os.utime(entry, (1_000, 1_000))
        assert cache.get(UNIT)[0]
        assert os.stat(entry).st_mtime > 1_000


class TestLastRun:
    def test_round_trip(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.record_last_run({"hits": 3, "misses": 1, "wall_s": 2.5})
        assert make_cache(tmp_path).last_run() == {
            "hits": 3,
            "misses": 1,
            "wall_s": 2.5,
        }

    def test_missing_is_none(self, tmp_path):
        assert make_cache(tmp_path).last_run() is None

    def test_corrupt_is_none(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.record_last_run({"hits": 1})
        from repro.runner.cache import LAST_RUN_FILE_NAME

        with open(os.path.join(cache.path, LAST_RUN_FILE_NAME), "w") as fh:
            fh.write("not json")
        assert cache.last_run() is None

    def test_non_dict_payload_is_none(self, tmp_path):
        cache = make_cache(tmp_path)
        from repro.runner.cache import LAST_RUN_FILE_NAME

        os.makedirs(cache.path, exist_ok=True)
        with open(os.path.join(cache.path, LAST_RUN_FILE_NAME), "w") as fh:
            fh.write("[1, 2]")
        assert cache.last_run() is None

    def test_disabled_cache_never_writes(self, tmp_path):
        cache = ResultCache(
            path=str(tmp_path / "cache"), enabled=False, salt=""
        )
        cache.record_last_run({"hits": 1})
        assert not os.path.exists(cache.path)
