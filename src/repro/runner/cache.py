"""Content-addressed result cache for experiment work units.

Each cache entry stores the pickled part produced by one
:class:`~repro.runner.workunits.WorkUnit`.  The entry's key is the
SHA-256 of the unit's full input description — experiment id, unit id,
function path, keyword arguments — plus a *code-version salt*.

The salt is dependency-aware: :func:`unit_salt` hashes only the files in
the transitive *import closure* of the unit's ``fn`` module, discovered
by a static ``ast`` walk over the package's own imports (absolute
``repro.*`` and relative forms, wherever they appear in the module).
Editing one experiment module therefore invalidates exactly the units
that can observe the change, while every other experiment stays a warm
hit.  Whenever an import edge cannot be resolved to a source file —
syntax errors, relative imports escaping the package, dynamically
computed names — the unit falls back to :func:`code_salt`, the
whole-package hash, which is always safe (never stale, merely broader).

The closure follows explicit import edges only.  A package ``__init__``
is hashed when it is the *target* of an edge (``from ..core import X``
re-exports), but merely being an ancestor package of an imported module
does not pull its ``__init__`` in: package inits here are side-effect
free aggregators, and including them would make every experiment depend
on every other through ``experiments/__init__``.

Layout on disk (default ``.repro_cache/`` under the working directory)::

    .repro_cache/
      ab/abcdef....pkl      # two-level fan-out by key prefix

Entries are self-describing (unit id + function path ride along with the
part) and written atomically via rename, so a crashed run never leaves a
truncated entry that parses.  Corrupt or unreadable entries are treated
as misses and deleted.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Dict, List, Optional, Set, Tuple

from .workunits import WorkUnit

#: Default cache directory name, created under the current working directory.
CACHE_DIR_NAME = ".repro_cache"

#: Sidecar recording the hit/miss/write counters of the last executor run.
LAST_RUN_FILE_NAME = "last_run.json"

# Per-process memos.  Source files are assumed immutable for the life of
# the process (the same assumption the import system makes); tests that
# rewrite files under a fixed root must clear all three.
_SALT_CACHE: Dict[str, str] = {}
_DEPS_CACHE: Dict[Tuple[str, str], Optional[Set[str]]] = {}
_UNIT_SALT_CACHE: Dict[Tuple[str, str], str] = {}


def _default_package_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def code_salt(package_root: Optional[str] = None) -> str:
    """Hash of every ``*.py`` file of the repro package (path + content).

    File order is normalised (sorted relative paths) and mtimes are
    ignored, so the salt is stable across checkouts and only moves when
    source text actually changes.
    """
    if package_root is None:
        package_root = _default_package_root()
    package_root = os.path.abspath(package_root)
    cached = _SALT_CACHE.get(package_root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    entries = []
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                entries.append((os.path.relpath(path, package_root), path))
    for relpath, path in sorted(entries):
        digest.update(relpath.encode())
        digest.update(b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    salt = digest.hexdigest()
    _SALT_CACHE[package_root] = salt
    return salt


def _module_path(package_root: str, package: str, module: str) -> Optional[str]:
    """Source file for dotted *module*, or None when it is not one."""
    parts = module.split(".")
    if parts[0] != package:
        return None
    base = os.path.join(package_root, *parts[1:])
    candidate = f"{base}.py"
    if os.path.isfile(candidate):
        return candidate
    init = os.path.join(base, "__init__.py")
    if os.path.isfile(init):
        return init
    return None


def _module_deps(
    package_root: str, package: str, module: str, path: str
) -> Optional[Set[str]]:
    """In-package modules *module* imports, or None when unresolvable.

    Walks the whole AST, so imports inside function bodies count too.
    ``from X import y`` contributes ``X`` and, when ``y`` is itself a
    submodule file, ``X.y`` — attribute imports of re-exported names
    resolve through ``X``'s own (hashed) imports instead.
    """
    key = (package_root, module)
    if key in _DEPS_CACHE:
        return _DEPS_CACHE[key]
    deps = _DEPS_CACHE[key] = _compute_module_deps(
        package_root, package, module, path
    )
    return deps


def _compute_module_deps(
    package_root: str, package: str, module: str, path: str
) -> Optional[Set[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
    except (OSError, SyntaxError, UnicodeDecodeError, ValueError):
        return None
    prefix = f"{package}."
    parts = module.split(".")
    # Relative imports resolve against the module's package: the module
    # itself when it is a package (__init__), its parent otherwise.
    anchor_parts = parts if path.endswith("__init__.py") else parts[:-1]
    deps: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name != package and not name.startswith(prefix):
                    continue
                if _module_path(package_root, package, name) is None:
                    return None
                deps.add(name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                keep = len(anchor_parts) - (node.level - 1)
                if keep < 1:
                    return None  # relative import escapes the package
                anchor = anchor_parts[:keep]
                base = ".".join(anchor + node.module.split(".")) if node.module else ".".join(anchor)
            else:
                base = node.module or ""
                if base != package and not base.startswith(prefix):
                    continue
            if _module_path(package_root, package, base) is None:
                return None
            deps.add(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                sub = f"{base}.{alias.name}"
                if _module_path(package_root, package, sub) is not None:
                    deps.add(sub)
    return deps


def _import_closure(
    package_root: str, package: str, module: str
) -> Optional[Dict[str, str]]:
    """Transitive closure ``{module: source path}``, or None on failure."""
    path = _module_path(package_root, package, module)
    if path is None:
        return None
    paths = {module: path}
    stack = [(module, path)]
    while stack:
        mod, mod_path = stack.pop()
        deps = _module_deps(package_root, package, mod, mod_path)
        if deps is None:
            return None
        for dep in deps:
            if dep in paths:
                continue
            dep_path = _module_path(package_root, package, dep)
            if dep_path is None:
                return None
            paths[dep] = dep_path
            stack.append((dep, dep_path))
    return paths


def unit_salt(fn: str, package_root: Optional[str] = None) -> str:
    """Code salt for one work unit's ``pkg.module:callable`` path.

    Hashes the sorted (relative path, content) pairs of the transitive
    import closure of the ``fn`` module — the same format as
    :func:`code_salt` restricted to the files the unit can actually
    observe.  Falls back to the whole-package salt whenever the closure
    cannot be fully resolved statically.  Memoised per process.
    """
    if package_root is None:
        package_root = _default_package_root()
    package_root = os.path.abspath(package_root)
    module = fn.partition(":")[0]
    key = (package_root, module)
    cached = _UNIT_SALT_CACHE.get(key)
    if cached is not None:
        return cached
    package = os.path.basename(package_root)
    closure = _import_closure(package_root, package, module)
    if closure is None:
        salt = code_salt(package_root)
    else:
        digest = hashlib.sha256()
        entries = sorted(
            (os.path.relpath(path, package_root), path)
            for path in closure.values()
        )
        for relpath, path in entries:
            digest.update(relpath.encode())
            digest.update(b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
        salt = digest.hexdigest()
    _UNIT_SALT_CACHE[key] = salt
    return salt


class ResultCache:
    """Persistent work-unit result store with hit/miss accounting.

    Keys are salted per unit with :func:`unit_salt` (the unit's import
    closure), so editing one experiment module leaves unrelated entries
    valid.  Passing an explicit ``salt`` pins every unit to that value
    instead (tests, ``--no-cache``).

    ``enabled=False`` turns the cache into a no-op (``--no-cache``);
    ``refresh=True`` ignores existing entries on read but still writes
    fresh ones (``--refresh``).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        enabled: bool = True,
        refresh: bool = False,
        salt: Optional[str] = None,
        package_root: Optional[str] = None,
    ) -> None:
        self.path = os.path.abspath(path or os.path.join(os.getcwd(), CACHE_DIR_NAME))
        self.enabled = enabled
        self.refresh = refresh
        self._salt = salt
        self._package_root = package_root
        self.hits = 0
        self.misses = 0
        self.writes = 0

    @property
    def salt(self) -> str:
        """The pinned salt, or the whole-package fallback salt."""
        if self._salt is not None:
            return self._salt
        return code_salt(self._package_root)

    def salt_for(self, unit: WorkUnit) -> str:
        """Salt applied to *unit*: pinned if given, else its import closure's."""
        if self._salt is not None:
            return self._salt
        return unit_salt(unit.fn, self._package_root)

    def key(self, unit: WorkUnit) -> str:
        return unit.fingerprint(self.salt_for(unit))

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, key[:2], f"{key}.pkl")

    def get(self, unit: WorkUnit) -> Tuple[bool, Any]:
        """Look up *unit*; returns ``(hit, part)`` (part is None on miss)."""
        if not self.enabled or self.refresh:
            if self.enabled:
                self.misses += 1
            return (False, None)
        entry_path = self._entry_path(self.key(unit))
        try:
            with open(entry_path, "rb") as fh:
                entry = pickle.load(fh)
            if entry.get("unit_id") != unit.unit_id:
                raise ValueError("cache key collision")
            self.hits += 1
            try:
                os.utime(entry_path)  # keep `prune` LRU-by-mtime honest
            except OSError:
                pass
            return (True, entry["part"])
        except FileNotFoundError:
            self.misses += 1
            return (False, None)
        except Exception:
            # Corrupt/incompatible entry: drop it and recompute.
            try:
                os.unlink(entry_path)
            except OSError:
                pass
            self.misses += 1
            return (False, None)

    def put(self, unit: WorkUnit, part: Any) -> None:
        """Store *unit*'s part (atomic write; no-op when disabled)."""
        if not self.enabled:
            return
        entry_path = self._entry_path(self.key(unit))
        os.makedirs(os.path.dirname(entry_path), exist_ok=True)
        blob = pickle.dumps(
            {
                "experiment_id": unit.experiment_id,
                "unit_id": unit.unit_id,
                "fn": unit.fn,
                "part": part,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(entry_path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp_path, entry_path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.writes += 1

    # -- maintenance (the ``python -m repro cache`` subcommand) -----------------------

    def entries(self) -> List[Tuple[str, int, float]]:
        """Every stored entry as ``(path, bytes, mtime)`` (sorted by path)."""
        found: List[Tuple[str, int, float]] = []
        if not os.path.isdir(self.path):
            return found
        for dirpath, dirnames, filenames in os.walk(self.path):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".pkl"):
                    continue
                entry_path = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(entry_path)
                except OSError:
                    continue  # deleted by a concurrent run
                found.append((entry_path, stat.st_size, stat.st_mtime))
        return found

    def stats(self) -> Dict[str, int]:
        """``{"entries": N, "bytes": total}`` of the stored entries."""
        entries = self.entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry_path, _, _ in self.entries():
            try:
                os.unlink(entry_path)
                removed += 1
            except OSError:
                pass
        self._remove_empty_fanout_dirs()
        return removed

    def evict(self, paths) -> int:
        """Unlink specific entry files (a combined-LRU caller picked them).

        ``repro cache prune`` sweeps the result cache and the run ledger
        together; it decides the victims across both stores and hands the
        cache's share here.  Returns how many entries were removed.
        """
        removed = 0
        for entry_path in paths:
            try:
                os.unlink(entry_path)
                removed += 1
            except OSError:
                pass
        self._remove_empty_fanout_dirs()
        return removed

    def _remove_empty_fanout_dirs(self) -> None:
        if not os.path.isdir(self.path):
            return
        for name in os.listdir(self.path):
            subdir = os.path.join(self.path, name)
            if os.path.isdir(subdir):
                try:
                    os.rmdir(subdir)  # fails (harmlessly) unless empty
                except OSError:
                    pass

    # -- last-run accounting (read back by ``repro cache stats``) ---------------------

    def record_last_run(self, stats: Dict[str, Any]) -> None:
        """Persist counters of the run that just finished (best effort)."""
        if not self.enabled:
            return
        target = os.path.join(self.path, LAST_RUN_FILE_NAME)
        try:
            os.makedirs(self.path, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(stats, fh, indent=1, sort_keys=True)
            os.replace(tmp_path, target)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

    def last_run(self) -> Optional[Dict[str, Any]]:
        """Counters persisted by the most recent executor run, if any."""
        try:
            with open(
                os.path.join(self.path, LAST_RUN_FILE_NAME), encoding="utf-8"
            ) as fh:
                data = json.load(fh)
            return data if isinstance(data, dict) else None
        except (OSError, ValueError):
            return None


def disabled_cache() -> ResultCache:
    """A cache that neither reads nor writes (and never hashes sources)."""
    return ResultCache(enabled=False, salt="")
