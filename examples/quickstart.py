#!/usr/bin/env python3
"""Quickstart: schedule two real-time applications in a VM under RTVirt.

Recreates the paper's motivating scenario (§2) in a dozen lines: three
VMs share one physical CPU at 100% total utilization, and the two RTAs
inside VM1 still meet every deadline because the guest pEDF scheduler
and the host DP-WRAP scheduler coordinate through the cross-layer
interface.

Run:  python examples/quickstart.py
"""

from repro import RTVirtSystem, Task, ZERO_COSTS, msec, sec
from repro.workloads import PeriodicDriver


def main() -> None:
    # One physical CPU; zero overhead costs so the math is exact.
    system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)

    # VM1 hosts two RTAs: (1 ms every 15 ms) and (4 ms every 15 ms).
    vm1 = system.create_vm("vm1")
    rta1 = Task("rta1", msec(1), msec(15))
    rta2 = Task("rta2", msec(4), msec(15))
    vm1.register_task(rta1)  # the sched_setattr() path
    vm1.register_task(rta2)
    PeriodicDriver(system.engine, vm1, rta1).start()
    PeriodicDriver(system.engine, vm1, rta2, phase_ns=msec(5)).start()

    # VM2 and VM3 fill the rest of the CPU: total utilization is 100%.
    for name, (s, p) in {"vm2": (5, 10), "vm3": (5, 30)}.items():
        vm = system.create_vm(name)
        task = Task(f"{name}.rta", msec(s), msec(p))
        vm.register_task(task)
        PeriodicDriver(system.engine, vm, task).start()

    print(f"admitted RT bandwidth: {float(system.total_rt_bandwidth):.3f} CPUs")
    system.run(sec(10))
    system.finalize()

    report = system.miss_report()
    print(f"jobs released: {report.total_released}")
    print(f"deadlines met: {report.total_met}")
    print(f"deadlines missed: {report.total_missed}")
    for name, stats in sorted(report.per_task.items()):
        print(f"  {name:10s} met {stats.met:4d} / missed {stats.missed}")
    assert report.total_missed == 0, "DP-WRAP is optimal: no misses at 100% load"
    print("OK — every deadline met at 100% CPU utilization.")


if __name__ == "__main__":
    main()
