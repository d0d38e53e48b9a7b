"""Tests for the dependency-aware (import-closure) cache salt.

Two layers: a miniature package exercising every import form the static
walker handles (and every fallback trigger), and the real ``repro``
package copied to a temp directory so edits can prove the acceptance
property — editing one experiment module invalidates exactly that
experiment's units while everything else stays a warm cache hit.
"""

import os
import shutil

import pytest

from repro.runner import build_plans
from repro.runner import cache as cache_module
from repro.runner.cache import ResultCache, code_salt, unit_salt


def clear_salt_caches():
    """Drop every memoised salt and dependency entry."""
    cache_module._SALT_CACHE.clear()
    cache_module._DEPS_CACHE.clear()
    cache_module._UNIT_SALT_CACHE.clear()


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Salts are memoised per process; tests rewrite files in place."""
    clear_salt_caches()
    yield
    clear_salt_caches()


def write(root, relpath, text):
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def append(root, relpath, text):
    with open(os.path.join(root, relpath), "a") as fh:
        fh.write(text)


@pytest.fixture
def pkg(tmp_path):
    """Mini package: absolute, relative, lazy and aggregate imports."""
    root = str(tmp_path / "pkg")
    write(root, "__init__.py", "")
    write(root, "core.py", "X = 1\n")
    write(root, "mid.py", "from .core import X\n")
    write(
        root,
        "leaf.py",
        "import pkg.mid\n\n\ndef run():\n    return pkg.mid.X\n",
    )
    write(
        root,
        "lazy.py",
        "def run():\n    from .core import X\n\n    return X\n",
    )
    write(
        root,
        "standalone.py",
        "import json\n\n\ndef run():\n    return json\n",
    )
    return root


def salts(root, *modules):
    return {m: unit_salt(f"pkg.{m}:run", root) for m in modules}


class TestClosureSalt:
    def test_editing_a_dependency_changes_dependents_only(self, pkg):
        before = salts(pkg, "leaf", "mid", "lazy", "standalone")
        append(pkg, "core.py", "Y = 2\n")
        clear_salt_caches()
        after = salts(pkg, "leaf", "mid", "lazy", "standalone")
        assert after["leaf"] != before["leaf"]  # via pkg.mid -> pkg.core
        assert after["mid"] != before["mid"]
        assert after["lazy"] != before["lazy"]  # function-body import counts
        assert after["standalone"] == before["standalone"]

    def test_editing_the_module_itself_changes_its_salt(self, pkg):
        before = unit_salt("pkg.standalone:run", pkg)
        append(pkg, "standalone.py", "# tweak\n")
        clear_salt_caches()
        assert unit_salt("pkg.standalone:run", pkg) != before

    def test_unrelated_sibling_edit_keeps_salt(self, pkg):
        before = unit_salt("pkg.leaf:run", pkg)
        append(pkg, "standalone.py", "# tweak\n")
        clear_salt_caches()
        assert unit_salt("pkg.leaf:run", pkg) == before

    def test_ancestor_init_is_not_pulled_in(self, pkg):
        """``import pkg.mid`` depends on mid, not on ``pkg/__init__``."""
        before = unit_salt("pkg.leaf:run", pkg)
        append(pkg, "__init__.py", "# package docstring tweak\n")
        clear_salt_caches()
        assert unit_salt("pkg.leaf:run", pkg) == before

    def test_init_as_explicit_target_is_hashed(self, pkg):
        """``from . import core`` imports the package — its init counts."""
        write(root=pkg, relpath="agg.py", text="from . import core\n")
        before = unit_salt("pkg.agg:run", pkg)
        append(pkg, "__init__.py", "# re-export tweak\n")
        clear_salt_caches()
        assert unit_salt("pkg.agg:run", pkg) != before

    def test_memoised_within_a_process(self, pkg):
        first = unit_salt("pkg.leaf:run", pkg)
        append(pkg, "core.py", "Y = 2\n")
        # No clear_salt_caches(): the memo must still serve the old salt.
        assert unit_salt("pkg.leaf:run", pkg) == first


class TestFallback:
    def test_syntax_error_in_closure_falls_back(self, pkg):
        write(pkg, "broken.py", "def (\n")
        write(pkg, "imp.py", "from .broken import x\n")
        assert unit_salt("pkg.imp:run", pkg) == code_salt(pkg)

    def test_relative_escape_falls_back(self, pkg):
        write(pkg, "escape.py", "from ..outside import x\n")
        assert unit_salt("pkg.escape:run", pkg) == code_salt(pkg)

    def test_missing_import_target_falls_back(self, pkg):
        write(pkg, "ghost.py", "from .nothere import x\n")
        assert unit_salt("pkg.ghost:run", pkg) == code_salt(pkg)

    def test_unknown_module_falls_back(self, pkg):
        assert unit_salt("pkg.no_such_module:run", pkg) == code_salt(pkg)

    def test_fallback_tracks_whole_package_edits(self, pkg):
        write(pkg, "escape.py", "from ..outside import x\n")
        before = unit_salt("pkg.escape:run", pkg)
        append(pkg, "standalone.py", "# tweak\n")
        clear_salt_caches()
        assert unit_salt("pkg.escape:run", pkg) != before


@pytest.fixture
def repro_copy(tmp_path):
    """The real package under a writable root (edits must not touch src)."""
    import repro

    src = os.path.dirname(os.path.abspath(repro.__file__))
    dst = str(tmp_path / "repro")
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


class TestRealPackage:
    def test_no_registry_unit_falls_back_to_whole_package_salt(self):
        """Every plan unit's import closure must resolve statically.

        Salt equality with :func:`code_salt` means the unit fell back to
        (or spans) the whole package — the regression this guards is an
        import edge that collapses an experiment's closure onto
        everything (e.g. through a package ``__init__``).
        """
        whole = code_salt()
        for plan in build_plans():
            for unit in plan.units:
                assert unit_salt(unit.fn) != whole, unit.unit_id

    def test_editing_fig4_invalidates_only_fig4_units(self, repro_copy, tmp_path):
        """The acceptance property: one experiment edit, one experiment miss."""
        cache = ResultCache(
            path=str(tmp_path / "cache"), package_root=repro_copy
        )
        units = [u for plan in build_plans() for u in plan.units]
        before = {u.unit_id: cache.key(u) for u in units}
        append(repro_copy, os.path.join("experiments", "fig4_dynamic.py"),
               "\n# cache-salt probe\n")
        clear_salt_caches()
        after = {u.unit_id: cache.key(u) for u in units}
        changed = {uid for uid in before if before[uid] != after[uid]}
        assert changed == {"fig4/vm1", "fig4/vm2", "fig4/vm3", "fig4/vm4"}

    def test_warm_cache_survives_unrelated_edit(self, repro_copy, tmp_path):
        """Executor-level: an edit elsewhere leaves cheap experiments warm."""
        from repro.runner import run_experiments

        cache_dir = str(tmp_path / "cache")
        ids = ["table2", "fig3"]

        def run():
            return run_experiments(
                ids,
                cache=ResultCache(cache_dir, package_root=repro_copy),
            )

        cold = run()
        assert cold.cache_writes == 2

        append(repro_copy, os.path.join("experiments", "fig4_dynamic.py"),
               "\n# cache-salt probe\n")
        clear_salt_caches()
        warm = run()
        assert warm.cache_misses == 0
        assert warm.cache_hits == 2

        append(repro_copy, os.path.join("experiments", "fig3_bandwidth.py"),
               "\n# cache-salt probe\n")
        clear_salt_caches()
        third = run()
        assert third.cache_hits == 1  # table2 still warm
        assert third.cache_misses == 1  # fig3 re-ran
