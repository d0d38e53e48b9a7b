#!/usr/bin/env python3
"""The cross-layer admission lifecycle, step by step.

Walks the full RTA lifecycle the paper describes in §3.2 — register
(INC_BW), request more bandwidth (INC_BW), move between VCPUs
(INC_DEC_BW), shrink (DEC_BW), unregister — and shows the hypercall log,
per-VCPU parameters and the host's admitted bandwidth after every step.
Also demonstrates an admission rejection and online CPU hotplug.

Run:  python examples/dynamic_admission.py
"""

from repro import RTVirtSystem, Task, msec, sec
from repro.simcore.errors import AdmissionError
from repro.workloads import PeriodicDriver


def show(system, vm, step):
    print(f"\n== {step}")
    print(f"   host: {float(system.total_rt_bandwidth):.3f} / "
          f"{system.admission.capacity} CPUs admitted")
    for vcpu in vm.vcpus:
        tasks = ", ".join(t.name for t in vcpu.rt_tasks()) or "-"
        print(
            f"   {vcpu.name}: budget {vcpu.budget_ns / 1e6:.2f} ms / "
            f"period {vcpu.period_ns / 1e6:.2f} ms  [{tasks}]"
        )
    if vm.port.log:
        flag, granted = vm.port.log[-1]
        print(f"   last hypercall: {flag.value} -> {'granted' if granted else 'REJECTED'}")


def main() -> None:
    system = RTVirtSystem(pcpu_count=2)
    vm = system.create_vm("app-vm", vcpu_count=1, max_vcpus=3)

    video = Task("video", msec(6), msec(10))
    vm.register_task(video)
    PeriodicDriver(system.engine, vm, video).start()
    show(system, vm, "register 'video' (6ms / 10ms)  — INC_BW")

    audio = Task("audio", msec(2), msec(10))
    vm.register_task(audio)
    PeriodicDriver(system.engine, vm, audio).start()
    show(system, vm, "register 'audio' (2ms / 10ms) — packs on the same VCPU")

    system.run(sec(1))
    vm.adjust_task(audio, msec(5), msec(10))
    show(system, vm, "audio needs 5ms / 10ms — INC_DEC_BW moves it (hotplug)")

    system.run(sec(1))
    vm.adjust_task(audio, msec(1), msec(10))
    show(system, vm, "audio shrinks to 1ms / 10ms — DEC_BW")

    # Admission control: a request beyond the host's capacity is refused
    # atomically, leaving everything untouched.
    greedy_vm = system.create_vm("greedy")
    try:
        greedy_vm.register_task(Task("greedy", msec(95), msec(100)))
        greedy_vm.register_task(Task("greedy2", msec(95), msec(100)))
    except AdmissionError as err:
        print(f"\n== admission rejection: {err}")
    show(system, vm, "after the rejected request (nothing changed)")

    system.run(sec(1))
    vm.unregister_task(audio)
    show(system, vm, "unregister 'audio' — DEC_BW releases its bandwidth")

    system.finalize()
    report = system.miss_report()
    print(
        f"\nthroughout: {report.total_met} deadlines met, "
        f"{report.total_missed} missed"
    )


if __name__ == "__main__":
    main()
