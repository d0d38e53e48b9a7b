#!/usr/bin/env python3
"""Multi-host placement with migration-aware rebalancing (paper §6).

Plans RT-VM placement across a small cluster of RTVirt hosts, grows a
VM's bandwidth online (the cross-host analogue of INC_BW), and consults
the live-migration cost model before rebalancing — a time-sensitive VM
is only moved if the predicted stop-and-copy downtime fits its deadline
slack.  Finally it *verifies* one host's planned assignment by actually
simulating it.

Run:  python examples/cluster_placement.py
"""

from fractions import Fraction

from repro import RTVirtSystem, Task, msec, sec
from repro.placement import (
    ClusterPlanner,
    HostDescriptor,
    MigrationParams,
    VMDemand,
    estimate_migration,
    migration_safe_for,
    plan_rebalancing,
)
from repro.workloads import PeriodicDriver

GB = 1024**3


def main() -> None:
    hosts = [HostDescriptor(f"host{i}", pcpu_count=4) for i in range(3)]
    planner = ClusterPlanner(hosts, policy="first_fit")

    demands = [
        VMDemand("db", Fraction(3, 2)),
        VMDemand("web1", Fraction(1, 2)),
        VMDemand("web2", Fraction(1, 2)),
        VMDemand("video", Fraction(2)),
        VMDemand("batch", Fraction(1)),
        VMDemand("cache", Fraction(1, 4)),
    ]
    placement = planner.place_all(demands)
    print("initial placement (first-fit):")
    for vm, host in sorted(placement.items()):
        print(f"  {vm:8s} -> {host}")
    print(f"utilization: { {h: round(u, 2) for h, u in planner.utilization().items()} }")

    host, migrated = planner.grow("cache", Fraction(3, 2))
    print(f"\n'cache' grows to 1.5 CPUs -> {host.name}"
          f" ({'migrated' if migrated else 'in place'})")

    params = MigrationParams(
        memory_bytes=8 * GB,
        dirty_rate_bytes_per_s=200 * 1024 * 1024,
        link_bytes_per_s=GB,
    )
    estimate = estimate_migration(params)
    print(
        f"\nlive-migration model: {estimate.total_duration_ns / 1e9:.1f}s total, "
        f"{estimate.downtime_ns / 1e6:.1f}ms downtime over {estimate.rounds} rounds"
    )
    for name, (s_ms, p_ms) in {"video (17/20ms)": (17, 20), "batch (50/200ms)": (50, 200)}.items():
        safe = migration_safe_for(estimate, msec(s_ms), msec(p_ms))
        print(f"  migrating {name}: {'SAFE' if safe else 'UNSAFE — would miss deadlines'}")

    moved = plan_rebalancing(planner, params, target_imbalance=0.3)
    print(f"\nrebalancing proposal: migrate {moved or 'nothing'}")
    print(f"utilization now: { {h: round(u, 2) for h, u in planner.utilization().items()} }")

    # Verify one host's plan by simulation: every VM placed on host0
    # gets a matching periodic RTA; DP-WRAP must meet all deadlines.
    target = planner.host("host0")
    print(f"\nsimulating {target.name} ({float(target.load):.2f} CPUs planned):")
    system = RTVirtSystem(pcpu_count=target.pcpu_count)
    for vm_demand in target.placed:
        vm = system.create_vm(vm_demand.name, vcpu_count=4, max_vcpus=8)
        remaining = vm_demand.bandwidth
        i = 0
        while remaining > 0:
            share = min(remaining, Fraction(9, 10))
            task = Task(
                f"{vm_demand.name}.t{i}", round(msec(20) * share), msec(20)
            )
            vm.register_task(task)
            PeriodicDriver(system.engine, vm, task).start()
            remaining -= share
            i += 1
    system.run(sec(5))
    system.finalize()
    report = system.miss_report()
    print(
        f"  {report.total_met} deadlines met, {report.total_missed} missed "
        f"({float(system.total_rt_bandwidth):.2f} CPUs admitted)"
    )


if __name__ == "__main__":
    main()
