"""Ablation — CPU affinity for cache-sensitive VMs (paper §6).

§6: *"RTVirt can also support CPU affinity for VMs that are sensitive to
processor cache locality by simply excluding such VMs from the m-1 VMs
that the host-level scheduler considers to migrate."*  This ablation
pins the wrap-straddling VCPU of a migration-heavy mix: the pinned VCPU's
migration count drops to zero, deadlines stay met, and the flexible
peers absorb the (bounded) extra migrations.
"""

from repro.core.system import RTVirtSystem
from repro.guest.task import Task
from repro.simcore.time import msec, sec
from repro.simcore.trace import Trace
from repro.workloads.periodic import PeriodicDriver

from .conftest import run_once

MIX = {"a": (8, 10), "b": (8, 10), "c": (3, 10)}  # forces wrap splits


def run_variant(pin: bool, duration_ns=sec(10)):
    from repro.host.costs import ZERO_COSTS

    # Exact reservations (no slack/costs): the mix sums to 1.9 CPUs and
    # the comparison isolates the migration behaviour.
    system = RTVirtSystem(pcpu_count=2, slack_ns=0, cost_model=ZERO_COSTS)
    trace = Trace().attach(system.machine.bus)
    vms = {}
    for name, (s, p) in MIX.items():
        vm = system.create_vm(f"{name}-vm")
        task = Task(name, msec(s), msec(p))
        vm.register_task(task)
        PeriodicDriver(system.engine, vm, task).start()
        vms[name] = vm
    if pin:
        system.scheduler.set_affinity(vms["b"].vcpus[0], 0)
    system.run(duration_ns)
    system.finalize()

    def migrations_of(vcpu_name):
        pcpus = [s.pcpu for s in trace.segments_for_vcpu(vcpu_name)]
        return sum(1 for x, y in zip(pcpus, pcpus[1:]) if x != y)

    return {
        "pinned": pin,
        "b_migrations": migrations_of("b-vm.vcpu0"),
        "total_missed": system.miss_report().total_missed,
    }


def run_ablation():
    return [run_variant(False), run_variant(True)]


def test_ablation_affinity(benchmark):
    rows = run_once(benchmark, run_ablation)
    print()
    for row in rows:
        mode = "pinned" if row["pinned"] else "free  "
        print(
            f"{mode}: VCPU-b migrations {row['b_migrations']}, "
            f"missed {row['total_missed']}"
        )
        benchmark.extra_info[f"{mode.strip()}_migrations"] = row["b_migrations"]
    free, pinned = rows
    assert pinned["b_migrations"] == 0
    assert free["b_migrations"] > 0
    assert pinned["total_missed"] == 0
