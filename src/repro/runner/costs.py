"""Measured per-unit cost model for the parallel scheduler.

The executor submits uncached work units longest-first (LPT), which
needs an estimate of each unit's serial wall time.  This module persists
the *measured* wall seconds of every executed unit as ``costs.json``
alongside the result cache, so the second run schedules from real data
for this machine instead of the hand-recorded reference table in
:mod:`repro.runner.workunits` (which remains the cold-start fallback).

Costs are scheduling hints only: staleness or loss degrades pool
balance, never correctness — assembly consumes parts by unit position
regardless of completion order.  The file is written atomically via
rename and an unreadable file is treated as empty, the same contract the
result cache honours for its entries.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Mapping, Optional

#: File name of the persisted cost table, under the cache directory.
COSTS_FILE_NAME = "costs.json"


class CostModel:
    """Per-unit measured wall seconds, persisted as ``costs.json``.

    ``path=None`` makes the model a no-op (empty, never writes) — used
    when caching is disabled and there is no cache directory to live in.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._costs: Optional[Dict[str, float]] = None

    @classmethod
    def for_cache(cls, cache) -> "CostModel":
        """The cost model stored alongside *cache* (no-op when disabled)."""
        if not cache.enabled:
            return cls(None)
        return cls(os.path.join(cache.path, COSTS_FILE_NAME))

    @property
    def costs(self) -> Dict[str, float]:
        """unit id -> last measured wall seconds (lazy-loaded)."""
        if self._costs is None:
            self._costs = self._load()
        return self._costs

    def _load(self) -> Dict[str, float]:
        if self.path is None:
            return {}
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = json.load(fh)
            return {
                str(unit_id): float(wall)
                for unit_id, wall in raw.items()
                if isinstance(wall, (int, float))
            }
        except (OSError, ValueError, AttributeError):
            return {}

    def record(self, walls: Mapping[str, float]) -> None:
        """Merge measured *walls* (unit id -> seconds) and persist.

        Last measurement wins; entries for units not in *walls* are
        kept, so a partial run (``--only``) never forgets the costs of
        the experiments it skipped.  The write is atomic (temp file +
        rename) and best-effort: a read-only cache directory downgrades
        the model to in-memory, it never fails the run.
        """
        if not walls:
            return
        merged = dict(self.costs)
        for unit_id, wall in walls.items():
            merged[unit_id] = round(float(wall), 3)
        self._costs = merged
        if self.path is None:
            return
        payload = json.dumps(dict(sorted(merged.items())), indent=1)
        directory = os.path.dirname(self.path) or "."
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp_path, self.path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
