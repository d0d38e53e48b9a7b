"""Declarative scenario runner.

Describes a whole experiment — host, scheduler, VMs, tasks, workloads —
as a plain JSON-compatible dict, so setups can be versioned, shared and
run from the CLI without writing Python:

    {
      "system": {"type": "rtvirt", "pcpus": 2, "slack_us": 500},
      "duration_s": 10,
      "seed": 42,
      "vms": [
        {"name": "vm1",
         "tasks": [{"name": "rta1", "slice_ms": 5, "period_ms": 20}]},
        {"name": "spvm",
         "tasks": [{"name": "sp1", "slice_ms": 2, "period_ms": 50,
                    "kind": "sporadic", "max_requests": 40}]},
        {"name": "bg1", "background": true}
      ]
    }

System types: ``rtvirt`` (default), ``credit``, ``rtxen`` (RT-Xen VMs
need an ``interface_us: [budget, period]`` or get one from CSA).

Run from the shell:  ``python -m repro run my_setup.json`` (add
``--blame``, ``--telemetry``, ``--record PATH``… to observe it).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List

from .analysis.csa import csa_best_interface
from .analysis.dbf import AnalysisTask
from .baselines.credit import CreditSystem
from .baselines.rtxen import RTXenSystem
from .core.system import RTVirtSystem
from .guest.task import Task, TaskKind
from .metrics.deadlines import MissReport, collect_miss_report
from .simcore.errors import AdmissionError, ConfigurationError
from .simcore.rng import RandomStreams
from .simcore.time import MSEC, SEC, msec, sec, usec
from .telemetry.observe import observe
from .workloads.periodic import PeriodicDriver
from .workloads.arrivals import ArrivalMux
from .workloads.sporadic import SporadicDriver

#: Scenario system types -> the scheduler labels experiments and traces use.
SCHEDULER_LABELS = {"rtvirt": "RTVirt", "rtxen": "RT-Xen", "credit": "Credit"}


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    name: str
    duration_ns: int
    report: MissReport

    def rows(self) -> List[Dict[str, Any]]:
        """Per-task metric rows (plus a TOTAL row), stable order."""
        rows: List[Dict[str, Any]] = []
        for task_name in sorted(self.report.per_task):
            stats = self.report.per_task[task_name]
            rows.append(
                {
                    "task": task_name,
                    "released": stats.released,
                    "met": stats.met,
                    "missed": stats.missed,
                    "miss_pct": round(stats.miss_ratio * 100, 3),
                }
            )
        rows.append(
            {
                "task": "TOTAL",
                "released": self.report.total_released,
                "met": self.report.total_met,
                "missed": self.report.total_missed,
                "miss_pct": round(self.report.overall_miss_ratio * 100, 3),
            }
        )
        return rows

    def summary(self) -> str:
        lines = [
            f"scenario {self.name!r}: {self.duration_ns / SEC:g}s simulated",
            f"  jobs released: {self.report.total_released}",
            f"  deadlines met: {self.report.total_met}",
            f"  deadlines missed: {self.report.total_missed} "
            f"({self.report.overall_miss_ratio * 100:.3f}%)",
        ]
        for task_name in self.report.tasks_with_misses:
            stats = self.report.per_task[task_name]
            lines.append(
                f"    {task_name}: {stats.missed} misses "
                f"({stats.miss_ratio * 100:.2f}%)"
            )
        return "\n".join(lines)


def _require(mapping: Dict, key: str, context: str):
    if key not in mapping:
        raise ConfigurationError(f"scenario {context}: missing {key!r}")
    return mapping[key]


#: Numeric spec fields: every one must be a finite int or float (never a
#: bool or a string), the whole-number ones a JSON integer.  ``seed`` may
#: be any integer, the non-negative ones may be 0, the rest must be > 0.
_WHOLE = {"seed", "pcpus", "processes", "vcpus", "max_vcpus", "weight", "max_requests"}
_NON_NEGATIVE = {"slack_us", "ratelimit_us", "phase_ms"}
_POSITIVE = {
    "duration_s", "pcpus", "min_global_slice_us", "timeslice_us", "processes",
    "vcpus", "max_vcpus", "weight", "slice_ms", "period_ms",
    "min_interarrival_ms", "max_interarrival_ms", "max_requests",
}
_NUMERIC = _WHOLE | _NON_NEGATIVE | _POSITIVE


def _check_object(obj: Any, where: str) -> Dict[str, Any]:
    """*obj* must be a JSON object whose numeric fields are in range."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"scenario {where} must be an object, got {obj!r}")
    for key, value in obj.items():
        if key not in _NUMERIC:
            continue
        if value is None and key in ("max_vcpus", "max_requests"):
            continue
        number = int if key in _WHOLE else (int, float)
        if (
            isinstance(value, bool)
            or not isinstance(value, number)
            or not math.isfinite(value)
        ):
            raise ConfigurationError(
                f"scenario {where}: {key} must be a number, got {value!r}"
            )
        if (key in _NON_NEGATIVE and value < 0) or (key in _POSITIVE and value <= 0):
            raise ConfigurationError(f"scenario {where}: {key} out of range: {value!r}")
    return obj


def _check_names(objs: Any, where: str, seen: set) -> None:
    """*objs* must be a list of objects with names not in *seen* yet."""
    if not isinstance(objs, list):
        raise ConfigurationError(f"scenario {where} must be a list, got {objs!r}")
    for obj in objs:
        name = _require(_check_object(obj, where), "name", where)
        if not isinstance(name, str) or name in seen:
            raise ConfigurationError(
                f"scenario {where}: bad or duplicate name {name!r}"
            )
        seen.add(name)


def validate_spec(spec: Any) -> None:
    """Reject a malformed scenario spec before anything is built.

    Raises :class:`ConfigurationError` naming the offending field: a
    non-object where an object belongs, a number that is a string, a
    bool, infinite or out of range, an unknown system type or task kind,
    an empty ``vms`` list, or a VM or task name used twice.
    """
    _check_object(spec, "spec")
    system = _check_object(spec.get("system", {}), "system")
    if system.get("type", "rtvirt") not in ("rtvirt", "credit", "rtxen"):
        raise ConfigurationError(f"unknown system type {system.get('type')!r}")
    vms = spec.get("vms")
    if not vms:
        raise ConfigurationError(f"scenario vms must be a non-empty list, got {vms!r}")
    _check_names(vms, "vms", set())
    task_names: set = set()
    kinds = [kind.value for kind in TaskKind]
    for vm_spec in vms:
        interface = vm_spec.get("interface_us")
        if interface is not None:
            if not (isinstance(interface, list) and len(interface) == 2):
                raise ConfigurationError(
                    f"scenario interface_us must be [budget, period], got {interface!r}"
                )
            budget, period = interface
            _check_object({"slice_ms": budget, "period_ms": period}, "interface_us")
            if budget > period:
                raise ConfigurationError(
                    f"scenario interface_us: budget {budget} exceeds period {period}"
                )
        tasks = vm_spec.get("tasks", [])
        _check_names(tasks, "tasks", task_names)
        for task_spec in tasks:
            if task_spec.get("kind", "periodic") not in kinds:
                raise ConfigurationError(
                    f"scenario task kind {task_spec['kind']!r} is unknown"
                )


def _build_system(spec: Dict[str, Any]):
    system_spec = dict(spec.get("system", {}))
    kind = system_spec.pop("type", "rtvirt")
    pcpus = int(system_spec.pop("pcpus", 1))
    if kind == "rtvirt":
        slack = usec(system_spec.pop("slack_us", 500))
        min_slice = usec(system_spec.pop("min_global_slice_us", 250))
        return RTVirtSystem(
            pcpu_count=pcpus, slack_ns=slack, min_global_slice_ns=min_slice
        )
    if kind == "credit":
        return CreditSystem(
            pcpu_count=pcpus,
            timeslice_ns=usec(system_spec.pop("timeslice_us", 30_000)),
            ratelimit_ns=usec(system_spec.pop("ratelimit_us", 1_000)),
        )
    return RTXenSystem(pcpu_count=pcpus)  # validate_spec admits no other type


def _task_from_spec(task_spec: Dict[str, Any]) -> Task:
    name = _require(task_spec, "name", "task")
    kind = TaskKind(task_spec.get("kind", "periodic"))
    return Task(
        name,
        msec(_require(task_spec, "slice_ms", name)),
        msec(_require(task_spec, "period_ms", name)),
        kind,
    )


def _rtxen_interface(vm_spec: Dict[str, Any], tasks: List[Task]):
    explicit = vm_spec.get("interface_us")
    if explicit is not None:
        return usec(explicit[0]), usec(explicit[1])
    analysis = [AnalysisTask(t.slice_ns, t.period_ns) for t in tasks]
    iface = csa_best_interface(analysis, min_period=MSEC)
    return iface.budget, iface.period


@dataclass
class ScenarioBuild:
    """A scenario system built but not yet run.

    ``task_vms`` maps task name to its ``(vm, task)`` pair; trace replay
    uses it (with ``start_drivers=False``) to re-drive recorded release
    timelines through the same VMs the live run used.
    """

    system: Any
    mux: ArrivalMux
    duration_ns: int
    streams: RandomStreams
    all_tasks: List[Task]
    task_vms: Dict[str, Any]


def build_scenario_system(
    spec: Dict[str, Any],
    name: str = "scenario",
    start_drivers: bool = True,
) -> ScenarioBuild:
    """Build the system, VMs and tasks of *spec*; optionally start drivers.

    The freshly built system reaches the observation hook
    (:func:`~repro.telemetry.observe.observe`) before any VM is created,
    so observers see every event of the run, including registration-time
    admission decisions; the hook's ``header`` is the scenario trace
    header that replay reads.  A malformed *spec* raises
    :class:`ConfigurationError` (see :func:`validate_spec`) before
    anything is built.
    """
    validate_spec(spec)
    duration_ns = sec(spec.get("duration_s", 10))
    seed = int(spec.get("seed", 0))
    streams = RandomStreams(seed)
    system = _build_system(spec)
    system_kind = spec.get("system", {}).get("type", "rtvirt")
    observe(
        system,
        header={
            "format": "scenario",
            "name": name,
            "spec": spec,
            "scheduler": SCHEDULER_LABELS[system_kind],
            "duration_ns": duration_ns,
            "seed": seed,
        },
    )
    mux = ArrivalMux(system.engine, name=name)
    all_tasks: List[Task] = []
    task_vms: Dict[str, Any] = {}

    for vm_spec in spec.get("vms", []):
        vm_name = _require(vm_spec, "name", "vm")
        if vm_spec.get("background"):
            system.create_background_vm(
                vm_name, processes=int(vm_spec.get("processes", 1))
            )
            continue
        tasks = [_task_from_spec(t) for t in vm_spec.get("tasks", [])]
        try:  # an infeasible spec is bad input too
            if system_kind == "rtvirt":
                vm = system.create_vm(
                    vm_name,
                    vcpu_count=int(vm_spec.get("vcpus", 1)),
                    max_vcpus=vm_spec.get("max_vcpus"),
                    slack_ns=(
                        usec(vm_spec["slack_us"]) if "slack_us" in vm_spec else None
                    ),
                )
                for task in tasks:
                    vm.register_task(task)
            elif system_kind == "rtxen":
                budget, period = _rtxen_interface(vm_spec, tasks)
                vm = system.create_vm(vm_name, interfaces=[(budget, period)])
                for task in tasks:
                    system.register_rta(vm, task)
            else:  # credit
                vm = system.create_vm(vm_name, weight=int(vm_spec.get("weight", 256)))
                for task in tasks:
                    vm.register_task(task)
        except AdmissionError as exc:
            raise ConfigurationError(f"scenario vm {vm_name}: {exc}") from exc
        for task, task_spec in zip(tasks, vm_spec.get("tasks", [])):
            all_tasks.append(task)
            task_vms[task.name] = (vm, task)
            if not start_drivers:
                continue
            if task.kind is TaskKind.SPORADIC:
                SporadicDriver(
                    system.engine,
                    vm,
                    task,
                    streams.stream(f"{vm_name}.{task.name}"),
                    min_interarrival_ns=msec(
                        task_spec.get("min_interarrival_ms", 100)
                    ),
                    max_interarrival_ns=msec(
                        task_spec.get("max_interarrival_ms", 1000)
                    ),
                    max_requests=task_spec.get("max_requests"),
                    mux=mux,
                ).start()
            else:
                PeriodicDriver(
                    system.engine,
                    vm,
                    task,
                    phase_ns=msec(task_spec.get("phase_ms", 0)),
                ).start()

    return ScenarioBuild(
        system=system,
        mux=mux,
        duration_ns=duration_ns,
        streams=streams,
        all_tasks=all_tasks,
        task_vms=task_vms,
    )


def run_scenario(spec: Dict[str, Any], name: str = "scenario") -> ScenarioResult:
    """Build and run the scenario described by *spec*."""
    build = build_scenario_system(spec, name=name)
    build.system.run(build.duration_ns)
    build.system.finalize()
    return ScenarioResult(
        name=name,
        duration_ns=build.duration_ns,
        report=collect_miss_report(build.all_tasks),
    )


def load_scenario_file(path: str) -> Dict[str, Any]:
    """Read a JSON scenario spec; an unreadable or non-JSON file raises
    :class:`ConfigurationError`."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigurationError(f"cannot read scenario {path}: {reason}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"scenario {path} is not JSON: {exc}") from exc


def run_scenario_json(spec: str, name: str = "scenario") -> ScenarioResult:
    """Run a scenario given as JSON text: the scenario work unit."""
    return run_scenario(json.loads(spec), name=name)
