"""Persistent run ledger — ``runs/<stamp>/manifest.json``.

Every ``repro run`` writes one ledger entry: a timestamped directory
holding the manifest :func:`run_manifest` builds, which
``tools/check_determinism.py`` also records and checks.  The ledger is
what makes performance and correctness *trajectories* durable across
PRs — ``BENCH_*.json`` files capture only the latest accepted state.

Ledger directories participate in ``repro cache prune`` under the same
LRU-by-mtime policy as the result cache, so the footprint stays bounded.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Default ledger root, relative to the working directory.
RUNS_DIR_NAME = "runs"
MANIFEST_NAME = "manifest.json"


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit sha, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def rows_hash(rows) -> str:
    """Canonical sha256 of metric rows (floats via repr, sorted keys)."""

    def canonical(value):
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, dict):
            return {k: canonical(v) for k, v in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [canonical(v) for v in value]
        return value

    payload = json.dumps(canonical(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stamp() -> str:
    """The current UTC time as ``YYYYmmdd-HHMMSS``."""
    return time.strftime("%Y%m%d-%H%M%S", time.gmtime())


def run_manifest(
    report,
    stamp: Optional[str] = None,
    seed: Optional[int] = None,
    observers: Sequence[str] = (),
    files: Sequence[Dict[str, object]] = (),
) -> Dict[str, object]:
    """The manifest of a run's :class:`~repro.runner.executor.RunReport`;
    *files* lists what the *observers* wrote (path, unit id, observer,
    and ``trace_sha256`` for a recorded trace)."""
    return {
        "stamp": stamp or _stamp(),
        "git_sha": git_sha(),
        "seed": seed,
        "jobs": report.jobs,
        "wall_s": round(report.wall_s, 2),
        "cache": {
            "enabled": report.cache_enabled,
            "hits": report.cache_hits,
            "misses": report.cache_misses,
            "writes": report.cache_writes,
        },
        "observers": list(observers),
        "files": list(files),
        "experiments": {
            r.experiment_id: {
                "rows": len(r.rows),
                "rows_sha256": rows_hash(r.rows),
                "units": r.units,
                "cached_units": r.cached_units,
                "unit_wall_s": round(r.unit_wall_s, 3),
                "unit_walls": {u: round(w, 3) for u, w in r.unit_walls.items()},
            }
            for r in report.reports
        },
    }


def new_run_dir(root: str = RUNS_DIR_NAME) -> Tuple[str, str]:
    """Create ``<root>/<stamp>`` and return ``(stamp, path)``.

    Stamps are UTC ``YYYYmmdd-HHMMSS``; a collision (two runs within a
    second) appends a counter suffix.
    """
    os.makedirs(root, exist_ok=True)
    stamp = _stamp()
    candidate = stamp
    n = 1
    while os.path.exists(os.path.join(root, candidate)):
        candidate = f"{stamp}-{n}"
        n += 1
    path = os.path.join(root, candidate)
    os.makedirs(path)
    return candidate, path


def write_manifest(run_dir: str, manifest: Dict[str, object]) -> str:
    """Write ``manifest.json`` into *run_dir*; returns the path."""
    path = os.path.join(run_dir, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def run_entries(root: str = RUNS_DIR_NAME) -> List[Tuple[str, int, float]]:
    """Ledger entries as ``(run_dir, total_bytes, latest_mtime)``.

    One entry per run directory (a run is pruned whole); sorted oldest
    first, matching :meth:`ResultCache.entries` so the CLI can do a
    combined LRU sweep over both stores.
    """
    if not os.path.isdir(root):
        return []
    entries: List[Tuple[str, int, float]] = []
    for name in os.listdir(root):
        run_dir = os.path.join(root, name)
        if not os.path.isdir(run_dir):
            continue
        total = 0
        latest = 0.0
        for dirpath, _dirnames, filenames in os.walk(run_dir):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                total += stat.st_size
                latest = max(latest, stat.st_mtime)
        if latest == 0.0:
            try:
                latest = os.stat(run_dir).st_mtime
            except OSError:
                continue
        entries.append((run_dir, total, latest))
    entries.sort(key=lambda entry: (entry[2], entry[0]))
    return entries


def runs_stats(root: str = RUNS_DIR_NAME) -> Dict[str, object]:
    entries = run_entries(root)
    return {
        "root": root,
        "runs": len(entries),
        "total_bytes": sum(size for _path, size, _mtime in entries),
    }


def remove_run(run_dir: str) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
