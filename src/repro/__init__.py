"""repro — a reproduction of RTVirt (EuroSys 2018).

RTVirt enables time-sensitive computing on virtualized systems through
cross-layer CPU scheduling: the guest-level pEDF scheduler and the
host-level DP-WRAP scheduler cooperate through a hypercall and shared
memory.  This package rebuilds the whole system — hypervisor scheduling,
guest scheduling, the cross-layer interface, the RT-Xen and Credit
baselines, and the paper's workloads — on a deterministic discrete-event
simulator.

Quick start::

    from repro import RTVirtSystem, Task, msec, sec
    from repro.workloads import PeriodicDriver

    system = RTVirtSystem(pcpu_count=2)
    vm = system.create_vm("vm1")
    task = Task("rta1", msec(5), msec(20))
    vm.register_task(task)  # the sched_setattr() path
    PeriodicDriver(system.engine, vm, task).start()
    system.run(sec(10))
    print(system.miss_report().overall_miss_ratio)
"""

from .core import (
    DEFAULT_MIN_GLOBAL_SLICE_NS,
    DEFAULT_SLACK_NS,
    DPWrapScheduler,
    RTVirtSystem,
    SchedRTVirtFlag,
    SharedMemoryPage,
    UtilizationAdmission,
)
from .guest import (
    VCPU,
    VM,
    Job,
    Task,
    TaskKind,
)
from .host import DEFAULT_COSTS, ZERO_COSTS, CostModel, EDFHostScheduler, Machine
from .simcore import MSEC, SEC, USEC, Engine, Trace, msec, sec, usec

__version__ = "1.0.0"

__all__ = [
    "RTVirtSystem",
    "DPWrapScheduler",
    "SharedMemoryPage",
    "UtilizationAdmission",
    "SchedRTVirtFlag",
    "DEFAULT_SLACK_NS",
    "DEFAULT_MIN_GLOBAL_SLICE_NS",
    "VM",
    "VCPU",
    "Task",
    "TaskKind",
    "Job",
    "Machine",
    "CostModel",
    "DEFAULT_COSTS",
    "ZERO_COSTS",
    "EDFHostScheduler",
    "Engine",
    "Trace",
    "USEC",
    "MSEC",
    "SEC",
    "usec",
    "msec",
    "sec",
    "__version__",
]
