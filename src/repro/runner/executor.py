"""Process-pool execution of experiment work units.

The executor builds the work-unit plans for the selected experiments,
resolves cache hits, fans the remaining units out over ``jobs`` worker
processes, and reassembles each experiment's result **in canonical
registry order** in the parent.  Scheduling order therefore never
affects output: every unit is a pure function of its arguments (the
simulation engine is deterministic and each shard seeds its own RNG
streams), and assembly consumes parts by unit position, not completion
order.  ``jobs=1`` runs the identical plans in-process — the parallel
path differs only in *where* units execute.

Workers are forked (POSIX) so they inherit ``sys.path`` and the warmed
import state; on platforms without fork the default start method is
used and units re-import :mod:`repro` from the worker's interpreter.

Two scheduling rules keep the pool from losing to the serial path:

- Units are submitted **longest first** (LPT order).  The estimates
  come from the measured cost model persisted as ``costs.json``
  alongside the cache (:mod:`repro.runner.costs`), refreshed after
  every run; the hand-recorded table in :mod:`repro.runner.workunits`
  seeds the first run.  A straggler like fig5b's heaviest scheduler
  shard therefore starts immediately instead of serialising behind
  cheap units at the tail of the run.
- The worker count is capped at the host's CPU count.  When that cap
  (or the miss count) leaves a single effective worker, the pool is
  skipped entirely and units run in-process — ``--jobs N`` on a
  one-CPU host is then *identical* to the serial path instead of
  paying fork/pickle overhead for no parallelism.  Set
  ``REPRO_RUNNER_FORCE_POOL=1`` to keep the pool regardless (the
  determinism harness uses it to exercise true cross-process merges).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .cache import ResultCache, disabled_cache
from .costs import CostModel
from .workunits import (
    ExperimentPlan,
    WorkUnit,
    build_plans,
    execute_unit,
    ordered_by_cost,
)


@dataclass
class ExperimentReport:
    """Merged output and execution accounting of one experiment."""

    experiment_id: str
    rows: List[dict]
    summary: str
    units: int
    cached_units: int
    #: Summed wall time of the units actually executed (cache hits cost 0);
    #: under ``jobs>1`` this is CPU-side cost, not elapsed time.
    unit_wall_s: float
    #: Per-unit wall seconds in plan order (cache hits report 0.0).
    unit_walls: Dict[str, float]


@dataclass
class RunReport:
    """The full run: per-experiment reports in canonical registry order."""

    reports: List[ExperimentReport]
    wall_s: float
    jobs: int
    cache_hits: int
    cache_misses: int
    cache_writes: int


def _timed_execute(unit: WorkUnit) -> Tuple[Any, Dict[str, Any], float]:
    """Worker body: run one unit; its part, observer outputs and wall time."""
    started = time.perf_counter()
    part, outputs = execute_unit(unit)
    return part, outputs, time.perf_counter() - started


def _pool_context():
    """Prefer fork so workers inherit imports; fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _effective_workers(jobs: int, misses: int) -> int:
    """Workers that can actually run concurrently for this miss set."""
    effective = min(jobs, misses)
    if os.environ.get("REPRO_RUNNER_FORCE_POOL", "") not in ("", "0"):
        return effective
    return min(effective, os.cpu_count() or 1)


def _execute_misses(
    misses: List[WorkUnit],
    jobs: int,
    echo: Optional[Callable[[str], None]],
    measured: Optional[Dict[str, float]] = None,
) -> Dict[WorkUnit, Tuple[Any, Dict[str, Any], float]]:
    """Run the uncached units, in-process or across the pool."""
    results: Dict[WorkUnit, Tuple[Any, Dict[str, Any], float]] = {}
    if not misses:
        return results
    if jobs <= 1 or _effective_workers(jobs, len(misses)) <= 1:
        for unit in misses:
            results[unit] = _timed_execute(unit)
            if echo:
                echo(f"ran {unit.unit_id} ({results[unit][2]:.1f}s)")
        return results
    with ProcessPoolExecutor(
        max_workers=_effective_workers(jobs, len(misses)),
        mp_context=_pool_context(),
    ) as pool:
        # LPT submission: heaviest units first, so the expensive shards
        # never start behind a tail of cheap ones.  Completion order is
        # irrelevant to output — assembly consumes parts by position.
        pending = {
            pool.submit(_timed_execute, unit): unit
            for unit in ordered_by_cost(misses, measured)
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                unit = pending.pop(future)
                results[unit] = future.result()
                if echo:
                    echo(f"ran {unit.unit_id} ({results[unit][2]:.1f}s)")
    return results


def execute_units(
    units: Sequence[WorkUnit], jobs: int = 1
) -> List[Tuple[Any, Dict[str, Any]]]:
    """Run *units* (uncached); each one's part and observer outputs,
    in unit order whatever the completion order."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results = _execute_misses(list(units), jobs, echo=None)
    return [results[unit][:2] for unit in units]


def execute_plan(plan: ExperimentPlan, jobs: int = 1) -> Any:
    """Run one plan's units (uncached) and assemble its result.

    Units fan out exactly like registry experiments, and assembly
    consumes parts in canonical unit order, so the result is
    independent of scheduling.
    """
    return plan.assemble([part for part, _ in execute_units(plan.units, jobs)])


def run_experiments(
    ids: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    echo: Optional[Callable[[str], None]] = None,
    seed: Optional[int] = None,
) -> RunReport:
    """Run experiments (default: the whole registry) and merge their output.

    ``cache=None`` disables caching; pass a :class:`ResultCache` to skip
    unchanged work units on re-runs.  *seed* overrides the RNG seed of
    seed-taking experiments (the robustness family); it feeds the unit
    kwargs and hence the cache key, so differently-seeded runs never
    collide in the cache.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cache = cache if cache is not None else disabled_cache()
    costs = CostModel.for_cache(cache)
    started = time.perf_counter()

    plans = build_plans(ids, seed=seed)
    all_units = [unit for plan in plans for unit in plan.units]

    parts: Dict[WorkUnit, Any] = {}
    walls: Dict[WorkUnit, float] = {}
    cached_units: set = set()
    misses: List[WorkUnit] = []
    for unit in all_units:
        hit, part = cache.get(unit)
        if hit:
            parts[unit] = part
            walls[unit] = 0.0
            cached_units.add(unit)
        else:
            misses.append(unit)
    if echo and cached_units:
        echo(f"cache: {len(cached_units)}/{len(all_units)} units reused")

    executed = _execute_misses(misses, jobs, echo, measured=costs.costs)
    for unit, (part, _, wall) in executed.items():
        parts[unit] = part
        walls[unit] = wall
        cache.put(unit, part)
    # Refresh the persisted cost model with this run's measurements, so
    # the next run's LPT order schedules from this machine's real walls.
    costs.record({unit.unit_id: wall for unit, (_, _, wall) in executed.items()})

    reports: List[ExperimentReport] = []
    for plan in plans:
        result = plan.assemble([parts[unit] for unit in plan.units])
        reports.append(
            ExperimentReport(
                experiment_id=plan.experiment_id,
                rows=result.rows(),
                summary=result.summary(),
                units=len(plan.units),
                cached_units=sum(1 for u in plan.units if u in cached_units),
                unit_wall_s=sum(walls[u] for u in plan.units),
                unit_walls={u.unit_id: walls[u] for u in plan.units},
            )
        )

    report = RunReport(
        reports=reports,
        wall_s=time.perf_counter() - started,
        jobs=jobs,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_writes=cache.writes,
    )
    cache.record_last_run(
        {
            "hits": cache.hits,
            "misses": cache.misses,
            "writes": cache.writes,
            "jobs": jobs,
            "wall_s": round(report.wall_s, 3),
            "units": len(all_units),
        }
    )
    return report
