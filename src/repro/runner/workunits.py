"""Work-unit plans: the one way an experiment runs.

A :class:`WorkUnit` is one independent computation: a module-level
function (referenced by dotted path so it pickles across processes) plus
keyword arguments.  Each registry experiment maps to an
:class:`ExperimentPlan` — an ordered tuple of units and an ``assemble``
function that rebuilds the experiment's result object from the unit
parts *in the parent process*.

Plan builders take their run parameters as arguments
(``table1_plan(duration_ns)``, ``fig5_plan("b", duration_ns, seed)``,
…).  :data:`BINDINGS` binds every registry id to its builder with the
full-length parameters and the smoke overrides; :func:`plan_for` and
:func:`build_plans` read it.  ``repro run``, the determinism and perf
gates and the tier-1 smoke test all execute these plans through
:func:`repro.runner.executor.run_plans`.

A unit may name observers (``blame``, ``record``, …; see
:mod:`repro.telemetry.observers`): :func:`execute_unit` installs them
for that unit alone through the observation hook and returns their
outputs beside the part, so ``repro run --blame`` watches any unit the
way it watches a robustness cell, and no ``assemble`` function knows.

Two shapes of plan exist:

- **Whole-experiment** plans (fig1, fig3, table2) have a single unit
  calling the experiment module's own function, stripped in the worker
  to a plain ``{"rows", "summary"}`` payload (the rich result objects
  of monolithic experiments are not all picklable; their rows and
  summary always are, because the determinism harness JSON-encodes
  them).
- **Sharded** plans split an experiment along its independent axes
  (per group × framework, per scheduler, per scenario).  Each shard
  returns a small picklable part (``GroupRun``, ``SchedulerOutcome``,
  tail dict, ``OverheadRun``), and ``assemble`` builds the experiment's
  own result dataclass, so ``rows()`` and ``summary()`` are the
  harness's code whatever the worker count.

Shards are only valid because every experiment harness seeds a fresh
``RandomStreams`` (or none) per shard and builds its own simulated
system: no state crosses shard boundaries.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..experiments import registry
from ..experiments.cluster_scale import (
    CLUSTER_MODES,
    assemble_cluster,
    cluster_unit_specs,
)
from ..experiments.feedback_adaptive import (
    FEEDBACK_CELLS,
    assemble_feedback,
    feedback_unit_specs,
)
from ..experiments.fig4_dynamic import FIG4_VM_COUNT, assemble_fig4
from ..experiments.fig5_memcached import FIG5_SCHEDULERS, Fig5Result
from ..experiments.robustness import (
    ROBUSTNESS_FAULTS,
    ROBUSTNESS_SCHEDULERS,
    RobustnessResult,
    fault_draws,
)
from ..experiments.table1_periodic import Table1Result
from ..experiments.table4_dedicated import TABLE4_SCHEDULERS, Table4Result
from ..experiments.table6_overhead import TABLE6_SCENARIOS, Table6Result
from ..simcore.time import sec
from ..telemetry.observe import observing
from ..telemetry.observers import UnitObservers
from ..workloads.periodic import TABLE1_GROUPS


@dataclass(frozen=True)
class WorkUnit:
    """One independent computation of an experiment plan."""

    experiment_id: str
    unit_id: str
    fn: str  #: dotted path ``package.module:function`` (picklable reference)
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: strip the result to a ``{"rows", "summary"}`` payload in the worker
    #: (monolithic experiments whose rich result objects may not pickle).
    payload: bool = False
    #: names of the observers installed for this unit alone
    #: (:mod:`repro.telemetry.observers`), in install order.
    observers: Tuple[str, ...] = ()

    def fingerprint(self, salt: str) -> str:
        """Content-addressed cache key: inputs + code-version salt."""
        fields = (self.experiment_id, self.unit_id, self.fn, repr(self.kwargs), salt)
        return hashlib.sha256("\0".join(fields).encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentPlan:
    """The work units of one experiment plus their reassembly function."""

    experiment_id: str
    units: Tuple[WorkUnit, ...]
    #: parts (one per unit, in unit order) -> object with rows()/summary()
    assemble: Callable[[Sequence[Any]], Any]


class PayloadResult:
    """Result adapter around a precomputed ``{"rows", "summary"}`` payload."""

    __slots__ = ("_rows", "_summary")

    def __init__(self, rows: List[dict], summary: str) -> None:
        self._rows = rows
        self._summary = summary

    def rows(self) -> List[dict]:
        return self._rows

    def summary(self) -> str:
        return self._summary


def resolve(fn_path: str) -> Callable[..., Any]:
    """Import ``package.module:function`` and return the function."""
    module_name, sep, attr = fn_path.partition(":")
    if not sep:
        raise ValueError(f"work-unit fn {fn_path!r} is not 'module:function'")
    return getattr(importlib.import_module(module_name), attr)


def execute_unit(unit: WorkUnit) -> Tuple[Any, Dict[str, List[Any]]]:
    """Run one work unit (in whatever process this is).

    Returns its part and its observers' outputs: per observer name, one
    output per system the unit built (empty for an unobserved unit).
    The observers are installed for this unit only.
    """
    observers = UnitObservers(unit)
    with observing((observers,) if unit.observers else ()):
        part = resolve(unit.fn)(**dict(unit.kwargs))
    outputs = observers.finish(part)
    if unit.payload:
        part = {"rows": part.rows(), "summary": part.summary()}
    return part, outputs


# -- assembly functions (run in the parent, must be module-level) ---------------------


def _assemble_payload(parts: Sequence[Any]) -> PayloadResult:
    (payload,) = parts
    return PayloadResult(payload["rows"], payload["summary"])


def _assemble_table1(parts: Sequence[Any]) -> Table1Result:
    return Table1Result(list(parts))


def _assemble_table4(parts: Sequence[Any]) -> Table4Result:
    return Table4Result(dict(zip(TABLE4_SCHEDULERS, parts)))


def _assemble_fig4(parts: Sequence[Any]):
    return assemble_fig4(list(parts))


def _assemble_fig5a(parts: Sequence[Any]) -> Fig5Result:
    return Fig5Result(scenario="a", outcomes=list(parts))


def _assemble_fig5b(parts: Sequence[Any]) -> Fig5Result:
    return Fig5Result(scenario="b", outcomes=list(parts))


def _assemble_table6(parts: Sequence[Any]) -> Table6Result:
    multi, single, (multi_cap, single_cap) = parts
    return Table6Result([multi, single], multi_cap, single_cap)


def _assemble_robustness(parts: Sequence[Any]) -> RobustnessResult:
    return RobustnessResult(list(parts))


def _assemble_cluster(parts: Sequence[Any]):
    return assemble_cluster(list(parts))


def _assemble_feedback(parts: Sequence[Any]):
    return assemble_feedback(list(parts))


# -- cost model (parallel scheduling hints) -------------------------------------------

#: Cold-start fallback: serial wall seconds per work unit as measured
#: once on the reference container (see ``BENCH_registry.json``).  The
#: executor prefers the *measured* costs persisted by
#: :class:`repro.runner.costs.CostModel` (``costs.json`` alongside the
#: cache, refreshed after every run); this table only seeds the very
#: first run's LPT order, so the heavy shards — fig5b's RTVirt run, the
#: fig4 partitions — start immediately instead of straggling behind a
#: tail of sub-second units.  Staleness degrades balance, never
#: correctness; assembly consumes parts by position regardless of
#: completion order.
_UNIT_COST_S: Dict[str, float] = {
    "fig5b/RTVirt": 15.3,
    "fig5b/RT-Xen B": 9.6,
    "table6/Single-RTA": 9.5,
    "fig5a/RTVirt": 6.2,
    "fig5b/RT-Xen A": 6.0,
    "table6/Multi-RTA": 3.7,
    "fig5a/RT-Xen B": 3.0,
    "table4/RTVirt": 2.9,
    "fig5a/RT-Xen A": 2.7,
    "fig4/vm2": 3.5,
    "fig4/vm1": 1.6,
    "fig4/vm3": 0.8,
    "fig4/vm4": 0.8,
    "fig5b/Credit": 2.1,
    "fig5a/Credit": 1.6,
    "fig1/whole": 1.0,
    "table4/RT-Xen": 0.6,
    "robustness_hypercall/RTVirt": 0.6,
    "table4/Credit": 0.2,
    "table6/rtxen-capacity": 0.2,
}

#: Per-experiment fallbacks for shard families whose units are uniform
#: (table1/sporadic group×framework grids, the robustness cells).
_FAMILY_COST_S: Dict[str, float] = {
    "table1": 0.5,
    "sporadic": 0.2,
    # cluster_* units re-run the full multi-host sim each; cost scales
    # with the host grid, not the observed shard.
    "cluster_consolidate": 0.1,
    "cluster_rebalance": 0.1,
    "cluster_hostfail": 0.1,
    "cluster_clockskew": 0.05,
    # feedback_* units run one (scenario, policy) cell each; the
    # adaptive/credit cells carry the controller and ledger overhead.
    "feedback_overrun": 0.6,
    "feedback_migrate": 0.4,
    "tenant_shed": 0.7,
}

_DEFAULT_COST_S = 0.15


def estimated_cost_s(
    unit: WorkUnit, measured: Optional[Dict[str, float]] = None
) -> float:
    """Expected serial seconds for *unit*.

    Precedence: *measured* (this machine's persisted ``costs.json``),
    then the hand-recorded reference table, then per-family and global
    defaults.
    """
    if measured is not None:
        cost = measured.get(unit.unit_id)
        if cost is not None:
            return cost
    cost = _UNIT_COST_S.get(unit.unit_id)
    if cost is not None:
        return cost
    return _FAMILY_COST_S.get(unit.experiment_id, _DEFAULT_COST_S)


def ordered_by_cost(
    units: Sequence[WorkUnit], measured: Optional[Dict[str, float]] = None
) -> List[WorkUnit]:
    """*units* longest-first; ties break on unit id (deterministic)."""
    return sorted(
        units, key=lambda u: (-estimated_cost_s(u, measured), u.unit_id)
    )


# -- plan builders --------------------------------------------------------------------


def _whole_plan(
    experiment_id: str, fn: str, kwargs: Tuple[Tuple[str, Any], ...] = ()
) -> ExperimentPlan:
    """One unit calling the experiment module directly, stripped to a
    ``{"rows", "summary"}`` payload in the worker.  Pointing ``fn`` at
    the harness module gives the unit the narrow import-closure cache
    salt of that harness alone."""
    unit = WorkUnit(
        experiment_id=experiment_id,
        unit_id=f"{experiment_id}/whole",
        fn=fn,
        kwargs=kwargs,
        payload=True,
    )
    return ExperimentPlan(experiment_id, (unit,), _assemble_payload)


def fig1_plan(duration_ns: int) -> ExperimentPlan:
    return _whole_plan(
        "fig1",
        "repro.experiments.fig1_motivation:run_fig1_combined",
        (("duration_ns", duration_ns),),
    )


def table2_plan() -> ExperimentPlan:
    return _whole_plan("table2", "repro.experiments.table2_config:run_table2")


def fig3_plan() -> ExperimentPlan:
    return _whole_plan("fig3", "repro.experiments.fig3_bandwidth:run_fig3")


def table1_plan(
    duration_ns: int, groups: Sequence[str] = TABLE1_GROUPS
) -> ExperimentPlan:
    """One unit per group × framework, RTVirt before RT-Xen."""
    units = []
    for group in groups:
        for framework, fn in (
            ("RTVirt", "repro.experiments.table1_periodic:run_group_rtvirt"),
            ("RT-Xen", "repro.experiments.table1_periodic:run_group_rtxen"),
        ):
            units.append(
                WorkUnit(
                    experiment_id="table1",
                    unit_id=f"table1/{group}/{framework}",
                    fn=fn,
                    kwargs=(("group", group), ("duration_ns", duration_ns)),
                )
            )
    return ExperimentPlan("table1", tuple(units), _assemble_table1)


def sporadic_plan(
    requests_per_rta: int, seed: int, groups: Sequence[str] = TABLE1_GROUPS
) -> ExperimentPlan:
    """One unit per group × framework, RTVirt before RT-Xen."""
    units = []
    for group in groups:
        for framework, fn in (
            ("RTVirt", "repro.experiments.sporadic_rtas:run_group_sporadic_rtvirt"),
            ("RT-Xen", "repro.experiments.sporadic_rtas:run_group_sporadic_rtxen"),
        ):
            units.append(
                WorkUnit(
                    experiment_id="sporadic",
                    unit_id=f"sporadic/{group}/{framework}",
                    fn=fn,
                    kwargs=(
                        ("group", group),
                        ("requests_per_rta", requests_per_rta),
                        ("seed", seed),
                    ),
                )
            )
    return ExperimentPlan("sporadic", tuple(units), _assemble_table1)


def table4_plan(duration_ns: int, seed: int) -> ExperimentPlan:
    units = tuple(
        WorkUnit(
            experiment_id="table4",
            unit_id=f"table4/{scheduler}",
            fn="repro.experiments.table4_dedicated:run_table4_scheduler",
            kwargs=(
                ("scheduler", scheduler),
                ("duration_ns", duration_ns),
                ("seed", seed),
            ),
        )
        for scheduler in TABLE4_SCHEDULERS
    )
    return ExperimentPlan("table4", units, _assemble_table4)


def fig4_plan(duration_ns: int, seed: int) -> ExperimentPlan:
    units = tuple(
        WorkUnit(
            experiment_id="fig4",
            unit_id=f"fig4/vm{vm_index + 1}",
            fn="repro.experiments.fig4_dynamic:run_fig4_vm",
            kwargs=(
                ("vm_index", vm_index),
                ("duration_ns", duration_ns),
                ("seed", seed),
            ),
        )
        for vm_index in range(FIG4_VM_COUNT)
    )
    return ExperimentPlan("fig4", units, _assemble_fig4)


#: Figure 5 scenario -> (unit function, assembler).
_FIG5_SCENARIOS = {
    "a": ("repro.experiments.fig5_memcached:run_fig5a_scheduler", _assemble_fig5a),
    "b": ("repro.experiments.fig5_memcached:run_fig5b_scheduler", _assemble_fig5b),
}


def fig5_plan(scenario: str, duration_ns: int, seed: int) -> ExperimentPlan:
    """Figure 5 scenario ``"a"`` or ``"b"``: one unit per scheduler."""
    experiment_id = f"fig5{scenario}"
    fn, assemble = _FIG5_SCENARIOS[scenario]
    units = tuple(
        WorkUnit(
            experiment_id=experiment_id,
            unit_id=f"{experiment_id}/{scheduler}",
            fn=fn,
            kwargs=(
                ("scheduler", scheduler),
                ("duration_ns", duration_ns),
                ("seed", seed),
            ),
        )
        for scheduler in FIG5_SCHEDULERS
    )
    return ExperimentPlan(experiment_id, units, assemble)


def table6_plan(
    duration_ns: int, pcpu_count: int, analyze_rtxen: bool = True
) -> ExperimentPlan:
    """Both simulated scenarios plus the analytical RT-Xen capacities
    (``(0, 0)`` without the analysis)."""
    units = [
        WorkUnit(
            experiment_id="table6",
            unit_id=f"table6/{scenario}",
            fn="repro.experiments.table6_overhead:run_table6_scenario",
            kwargs=(
                ("scenario", scenario),
                ("duration_ns", duration_ns),
                ("pcpu_count", pcpu_count),
            ),
        )
        for scenario in TABLE6_SCENARIOS
    ]
    capacity_kwargs: Tuple[Tuple[str, Any], ...] = (("pcpu_count", pcpu_count),)
    if not analyze_rtxen:
        capacity_kwargs += (("analyze_rtxen", False),)
    units.append(
        WorkUnit(
            experiment_id="table6",
            unit_id="table6/rtxen-capacity",
            fn="repro.experiments.table6_overhead:rtxen_capacities",
            kwargs=capacity_kwargs,
        )
    )
    return ExperimentPlan("table6", tuple(units), _assemble_table6)


def robustness_plan(fault: str, duration_ns: int, seed: int) -> ExperimentPlan:
    """One fault family: one unit per scheduler."""
    experiment_id = f"robustness_{fault}"
    units = tuple(
        WorkUnit(
            experiment_id=experiment_id,
            unit_id=f"{experiment_id}/{scheduler}",
            fn="repro.experiments.robustness:run_robustness_case",
            kwargs=(
                ("fault", fault),
                ("scheduler", scheduler),
                ("duration_ns", duration_ns),
                ("seed", seed),
            ),
        )
        for scheduler in ROBUSTNESS_SCHEDULERS
    )
    return ExperimentPlan(experiment_id, units, _assemble_robustness)


def cluster_plan(
    mode: str, duration_ns: int, seed: int, smoke: bool = False
) -> ExperimentPlan:
    """Per-host shards: each unit re-runs the full deterministic cluster
    sim and extracts one host's row + mergeable telemetry snapshot.
    *smoke* keeps only the first host count of the grid."""
    experiment_id = f"cluster_{mode}"
    units = tuple(
        WorkUnit(
            experiment_id=experiment_id,
            unit_id=f"{experiment_id}/{label}",
            fn="repro.experiments.cluster_scale:run_cluster_host",
            kwargs=tuple(
                sorted({"duration_ns": duration_ns, "seed": seed, **kwargs}.items())
            ),
        )
        for label, kwargs in cluster_unit_specs(mode, smoke=smoke)
    )
    return ExperimentPlan(experiment_id, units, _assemble_cluster)


def feedback_plan(experiment_id: str, duration_ns: int, seed: int) -> ExperimentPlan:
    """Per-policy shards: each unit runs one (scenario, policy) cell."""
    units = tuple(
        WorkUnit(
            experiment_id=experiment_id,
            unit_id=f"{experiment_id}/{label}",
            fn="repro.experiments.feedback_adaptive:run_feedback_case",
            kwargs=tuple(
                sorted({"duration_ns": duration_ns, "seed": seed, **kwargs}.items())
            ),
        )
        for label, kwargs in feedback_unit_specs(experiment_id)
    )
    return ExperimentPlan(experiment_id, units, _assemble_feedback)


def scenario_plan(spec: Dict[str, Any], name: str) -> ExperimentPlan:
    """One declarative scenario as a one-unit plan named *name* (the
    spec travels as JSON text, so the unit stays hashable and
    picklable)."""
    unit = WorkUnit(
        experiment_id=name,
        unit_id=name,
        fn="repro.scenario:run_scenario_json",
        kwargs=(("spec", json.dumps(spec)), ("name", name)),
        payload=True,
    )
    return ExperimentPlan(name, (unit,), _assemble_payload)


def observed_plan(plan: ExperimentPlan, observers: Sequence[str]) -> ExperimentPlan:
    """*plan* with every unit carrying *observers*."""
    units = tuple(replace(u, observers=tuple(observers)) for u in plan.units)
    return replace(plan, units=units)


def observed_smoke_plans(
    ids: Sequence[str], observers: Sequence[str], seed: Optional[int] = None
) -> List[ExperimentPlan]:
    """The smoke plans of registry *ids*, every unit carrying *observers*
    (the determinism gate observes the robustness smoke cells this
    way)."""
    return [observed_plan(plan_for(i, seed=seed, smoke=True), observers) for i in ids]


#: Unit functions that compute without building a simulated system, so
#: they never reach the observation hook.
ANALYTIC_FNS = frozenset(
    {
        "repro.experiments.fig3_bandwidth:run_fig3",
        "repro.experiments.table2_config:run_table2",
        "repro.experiments.table6_overhead:rtxen_capacities",
    }
)


# -- registry bindings ----------------------------------------------------------------


@dataclass(frozen=True)
class Binding:
    """A registry id's plan builder and the arguments it runs with."""

    build: Callable[..., ExperimentPlan]
    #: full-length arguments (the registry's run-length constants)
    full: Dict[str, Any]
    #: overrides of *full* for the seconds-long smoke variant
    smoke: Dict[str, Any] = field(default_factory=dict)
    #: whether a ``seed=`` override of plan_for/build_plans reaches it:
    #: only where the seed reaches a random draw
    seeded: bool = False


#: Registry id -> plan builder and parameters, in registry order.
BINDINGS: Dict[str, Binding] = {
    "fig1": Binding(
        fig1_plan,
        {"duration_ns": registry.FIG1_DURATION_NS},
        {"duration_ns": sec(2)},
    ),
    "table1": Binding(
        table1_plan,
        {"duration_ns": registry.TABLE1_DURATION_NS},
        {"duration_ns": sec(2), "groups": ("H-Equiv",)},
    ),
    "table2": Binding(table2_plan, {}),
    "fig3": Binding(fig3_plan, {}),
    "sporadic": Binding(
        sporadic_plan,
        {
            "requests_per_rta": registry.SPORADIC_REQUESTS,
            "seed": registry.SPORADIC_SEED,
        },
        {"requests_per_rta": 2, "groups": ("H-Equiv",)},
    ),
    "fig4": Binding(
        fig4_plan,
        {"duration_ns": registry.FIG4_DURATION_NS, "seed": registry.FIG4_SEED},
        {"duration_ns": sec(20)},
    ),
    "table4": Binding(
        table4_plan,
        {"duration_ns": registry.TABLE4_DURATION_NS, "seed": registry.TABLE4_SEED},
        {"duration_ns": sec(2)},
    ),
    "fig5a": Binding(
        fig5_plan,
        {
            "scenario": "a",
            "duration_ns": registry.FIG5A_DURATION_NS,
            "seed": registry.FIG5A_SEED,
        },
        {"duration_ns": sec(2)},
    ),
    "fig5b": Binding(
        fig5_plan,
        {
            "scenario": "b",
            "duration_ns": registry.FIG5B_DURATION_NS,
            "seed": registry.FIG5B_SEED,
        },
        {"duration_ns": sec(2)},
    ),
    "table6": Binding(
        table6_plan,
        {
            "duration_ns": registry.TABLE6_DURATION_NS,
            "pcpu_count": registry.TABLE6_PCPUS,
        },
        {"duration_ns": sec(1), "analyze_rtxen": False},
    ),
}
for _fault in ROBUSTNESS_FAULTS:
    BINDINGS[f"robustness_{_fault}"] = Binding(
        robustness_plan,
        {
            "fault": _fault,
            "duration_ns": registry.ROBUSTNESS_DURATION_NS,
            "seed": registry.ROBUSTNESS_SEED,
        },
        {"duration_ns": registry.ROBUSTNESS_SMOKE_DURATION_NS},
        seeded=fault_draws(_fault),
    )
for _mode in CLUSTER_MODES:
    BINDINGS[f"cluster_{_mode}"] = Binding(
        cluster_plan,
        {
            "mode": _mode,
            "duration_ns": registry.CLUSTER_DURATION_NS,
            "seed": registry.CLUSTER_SEED,
        },
        {"duration_ns": registry.CLUSTER_SMOKE_DURATION_NS, "smoke": True},
        seeded=True,
    )
for _fid in FEEDBACK_CELLS:
    BINDINGS[_fid] = Binding(
        feedback_plan,
        {
            "experiment_id": _fid,
            "duration_ns": registry.FEEDBACK_DURATION_NS,
            "seed": registry.FEEDBACK_SEED,
        },
        {"duration_ns": registry.FEEDBACK_SMOKE_DURATION_NS},
    )  # unseeded: every feedback timeline is fixed and draws nothing
del _fault, _mode, _fid


def plan_for(
    experiment_id: str, seed: Optional[int] = None, smoke: bool = False
) -> ExperimentPlan:
    """The work-unit plan of one registry experiment.

    *smoke* applies the binding's smoke overrides: the seconds-long
    variant the tier-1 suite runs.  *seed* overrides the RNG seed of the
    seeded ids — ``cluster_*`` and the robustness families whose fault
    draws (``robustness_jitter``) — and is ignored elsewhere; the seed
    lands in the unit kwargs, so it participates in the cache
    fingerprint automatically.
    """
    binding = BINDINGS.get(experiment_id)
    if binding is None:
        raise KeyError(f"unknown experiment id {experiment_id!r}")
    kwargs = dict(binding.full, **binding.smoke) if smoke else dict(binding.full)
    if seed is not None and binding.seeded:
        kwargs["seed"] = seed
    return binding.build(**kwargs)


def build_plans(
    ids: Optional[Sequence[str]] = None, seed: Optional[int] = None
) -> List[ExperimentPlan]:
    """Plans for *ids* in canonical registry order (default: all)."""
    order = registry.all_ids()
    if ids is None:
        selected = order
    else:
        unknown = sorted(set(ids) - set(order))
        if unknown:
            raise KeyError(f"unknown experiment id(s): {', '.join(unknown)}")
        wanted = set(ids)
        selected = [i for i in order if i in wanted]
    return [plan_for(i, seed=seed) for i in selected]
