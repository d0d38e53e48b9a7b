"""Process-pool execution of experiment work units.

:func:`run_plans`, the one way units run, resolves the cache hits of a
whole run's plans, fans the remaining units out over ``jobs`` worker
processes, and reassembles each plan's result **in unit order** in the
parent.  Scheduling order therefore never affects output: every unit
is a pure function of its arguments (the simulation engine is
deterministic and each shard seeds its own RNG streams), and assembly
consumes parts by unit position, not completion order.  ``jobs=1``
runs the identical units in-process — the parallel path differs only
in *where* units execute.

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
    #: ``(unit, part, outputs)`` in plan order; *outputs* maps each
    #: observer name to one output per system the unit built (empty for
    #: an unobserved unit).
    results: List[Tuple[WorkUnit, Any, Dict[str, List[Any]]]]
    #: The assembled result object ``rows`` and ``summary`` came from.
    result: Any


@dataclass
class RunReport:
    """The full run: per-experiment reports in the order of the plans."""

    reports: List[ExperimentReport]
    wall_s: float
    jobs: int
    cache_hits: int
    cache_misses: int
    cache_writes: int
    cache_enabled: bool


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


def run_plans(
    plans: Sequence[ExperimentPlan],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> RunReport:
    """Run every unit of *plans* in one pass; one report per plan, in order.

    The misses of all plans share one pool, longest first.
    ``cache=None`` disables caching.  A unit that carries observers
    always runs and never reads or writes the cache (the fingerprint
    leaves observers out).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cache = cache if cache is not None else disabled_cache()
    costs = CostModel.for_cache(cache)
    started = time.perf_counter()

    all_units = [unit for plan in plans for unit in plan.units]
    done: Dict[WorkUnit, Tuple[Any, Dict[str, Any], float]] = {}
    cached_units: set = set()
    misses: List[WorkUnit] = []
    for unit in all_units:
        hit, part = (False, None) if unit.observers else cache.get(unit)
        if hit:
            done[unit] = (part, {}, 0.0)
            cached_units.add(unit)
        else:
            misses.append(unit)
    if echo and cached_units:
        echo(f"cache: {len(cached_units)}/{len(all_units)} units reused")

    executed = _execute_misses(misses, jobs, echo, measured=costs.costs)
    for unit, (part, _, _) in executed.items():
        if not unit.observers:
            cache.put(unit, part)
    done.update(executed)
    # Refresh the persisted cost model with this run's measurements, so
    # the next run's LPT order schedules from this machine's real walls.
    costs.record({unit.unit_id: wall for unit, (_, _, wall) in executed.items()})

    reports: List[ExperimentReport] = []
    for plan in plans:
        result = plan.assemble([done[unit][0] for unit in plan.units])
        reports.append(
            ExperimentReport(
                experiment_id=plan.experiment_id,
                rows=result.rows(),
                summary=result.summary(),
                units=len(plan.units),
                cached_units=sum(1 for u in plan.units if u in cached_units),
                unit_wall_s=sum(done[u][2] for u in plan.units),
                unit_walls={u.unit_id: done[u][2] for u in plan.units},
                results=[(u, *done[u][:2]) for u in plan.units],
                result=result,
            )
        )

    report = RunReport(
        reports=reports,
        wall_s=time.perf_counter() - started,
        jobs=jobs,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_writes=cache.writes,
        cache_enabled=cache.enabled,
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


def execute_plan(plan: ExperimentPlan, jobs: int = 1) -> Any:
    """Run one plan's units (uncached) and return its assembled result."""
    return run_plans([plan], jobs).reports[0].result


def run_experiments(
    ids: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    echo: Optional[Callable[[str], None]] = None,
    seed: Optional[int] = None,
) -> RunReport:
    """Run registry experiments (default: all) in canonical registry order.

    *seed* overrides the RNG seed of the ids whose binding is seeded; it
    feeds the unit kwargs and hence the cache key, so differently-seeded
    runs never collide in the cache.
    """
    return run_plans(build_plans(ids, seed=seed), jobs, cache, echo)
